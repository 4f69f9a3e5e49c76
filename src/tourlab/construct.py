"""Builders for the large-tournament constructions, seeded and reproducible.

Three kinds: the ordered random model (each pair oriented low-to-high with
probability p), the transversal construction that plants a fixed pattern
across vertex classes so every transversal induces it, and the blow-up
over edge-disjoint complete-graph copies that plants one pattern per copy.

Randomness comes from a Philox counter-based stream keyed by the seed;
the word consulted for pair t in round r sits at fixed stream position
r*C(n,2)+t, so each pair's orientation is independent of iteration order
and identical seed + parameters give bit-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from .core import PackingFailed, Tournament, pair_count
from .enumeration import _replacing

__all__ = [
    "BigTournament",
    "BadProbability",
    "NotMultiple",
    "StarTooBig",
    "PackingFailed",
    "MAX_BIG_VERTICES",
    "build_tnp",
    "build_transversal",
    "build_blowup",
    "blowup_group_count",
]

MAX_BIG_VERTICES = 2048
_WRAP = 512  # serialized bit-line width
_SLICE = 1 << 16  # Philox words drawn and reduced at a time


class BadProbability(ValueError):
    """Edge probability outside [0, 1], or with a denominator of 2^64 or more."""


class NotMultiple(ValueError):
    """Vertex count is not a multiple of the required part count."""


class StarTooBig(ValueError):
    """Planted pattern has too many vertices for the host parameters."""


@dataclass(frozen=True, eq=False)
class BigTournament:
    """An n-vertex tournament held as its adjacency matrix, with provenance.

    ``adj`` is a read-only n x n uint8 array: for u < v, ``adj[u, v]`` is 1
    iff u -> v, and every entry on and below the diagonal is 0.  Only this
    module knows the pair order: ``bit_array`` and ``to_text`` list the
    bits in the same pair order as Tournament, and ``from_text`` and the
    builders read pair-order bits back through ``_from_pair_bits``.
    ``provenance`` records the construction kind, parameters, and seed,
    and round-trips through serialization.
    """

    n: int
    adj: np.ndarray = field(repr=False)
    provenance: dict[str, Any]

    def __post_init__(self) -> None:
        self.adj.setflags(write=False)

    @property
    def m(self) -> int:
        return pair_count(self.n)

    def edge_bit(self, u: int, v: int) -> int:
        """1 if the edge between u<v is directed u->v, else 0."""
        return int(self.adj[u, v])

    def bit_array(self) -> np.ndarray:
        """All C(n,2) orientation bits in pair order, as a uint8 array of 0/1."""
        return np.concatenate([self.adj[u, u + 1 :] for u in range(self.n - 1)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BigTournament)
            and self.n == other.n
            and bool(np.array_equal(self.adj, other.adj))
        )

    def to_text(self) -> str:
        bits = (self.bit_array() + ord("0")).tobytes().decode("ascii")
        lines = [f"n={self.n}", json.dumps(self.provenance, sort_keys=True)]
        lines += [bits[i : i + _WRAP] for i in range(0, len(bits), _WRAP)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BigTournament":
        lines = text.splitlines()
        if len(lines) < 2 or not lines[0].startswith("n="):
            raise ValueError("expected header 'n=<n>' and a provenance line")
        n = int(lines[0][2:])
        _check_n(n)
        provenance = json.loads(lines[1])
        bits = "".join(lines[2:])
        # a non-ASCII character encodes to more than one byte, and every byte
        # but '0' and '1' maps past 1 (the subtraction wraps below '0')
        arr = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
        if len(arr) != pair_count(n) or (arr > 1).any():
            raise ValueError(
                f"expected {pair_count(n)} orientation bits, got {len(bits)}"
            )
        return cls(n=n, adj=_from_pair_bits(n, arr), provenance=provenance)

    def save(self, path: Path | str) -> None:
        """Write the text form; ``path`` is replaced only once it is whole."""
        with _replacing(Path(path)) as stream:
            stream.write(self.to_text())

    @classmethod
    def load(cls, path: Path | str) -> "BigTournament":
        return cls.from_text(Path(path).read_text())


def _check_n(n: int) -> None:
    if not 2 <= n <= MAX_BIG_VERTICES:
        raise ValueError(f"n must be in 2..{MAX_BIG_VERTICES}, got {n}")


def check_seed(seed: int) -> int:
    """Seeds are unsigned 64-bit integers."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def _rational_bits(m: int, p: Fraction, seed: int) -> np.ndarray:
    """m independent bits, each 1 with probability exactly p = a/b.

    Rejection sampling on raw Philox words: pair t consults stream words
    r*m+t for rounds r = 0, 1, ... until one falls below the largest
    multiple of b, then reduces it mod b.  Rounds past the first occur
    with probability < b/2^64 per pair.  Every round, the first too, draws
    the m words in order, _SLICE at a time, so memory follows the slice,
    not m, and decides each pending pair whose word it accepts.
    """
    num, den = p.numerator, p.denominator
    gen = np.random.Generator(np.random.Philox(key=seed))
    top = np.uint64((1 << 64) - (1 << 64) % den - 1)  # the largest word accepted
    out = np.empty(m, dtype=np.uint8)  # a rejected pair's bit is rewritten later
    pending = np.ones(m, dtype=bool)
    while pending.any():
        for start in range(0, m, _SLICE):
            words = gen.integers(0, 1 << 64, size=min(_SLICE, m - start), dtype=np.uint64)
            pairs = slice(start, start + words.size)
            todo = pending[pairs]  # a view: clearing it clears pending
            np.copyto(out[pairs], words % den < num, where=todo)
            todo &= words > top
    return out


def _from_pair_bits(n: int, bits: np.ndarray) -> np.ndarray:
    """The n x n adjacency matrix of C(n,2) orientation bits in pair order."""
    adj = np.zeros((n, n), dtype=np.uint8)
    start = 0
    for u in range(n - 1):
        adj[u, u + 1 :] = bits[start : start + n - 1 - u]
        start += n - 1 - u
    return adj


def build_tnp(n: int, p: Fraction | int, seed: int) -> BigTournament:
    """Ordered random model: each pair (i,j), i<j, oriented i->j with
    probability p, independently, in fixed pair order."""
    _check_n(n)
    check_seed(seed)
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise BadProbability(f"p must lie in [0, 1], got {p}")
    if p.denominator >> 64:  # a word is reduced mod the denominator
        raise BadProbability(f"p needs a denominator below 2^64, got {p}")
    adj = _from_pair_bits(n, _rational_bits(pair_count(n), p, seed))
    provenance = {"kind": "tnp", "n": n, "p": f"{p.numerator}/{p.denominator}", "seed": seed}
    return BigTournament(n=n, adj=adj, provenance=provenance)


def _plant(adj: np.ndarray, parts: list[slice], pattern: Tournament) -> None:
    """Orient each block parts[a] x parts[b], a < b, as the pattern's pair (a, b)."""
    for a in range(pattern.h):
        for b in range(a + 1, pattern.h):
            adj[parts[a], parts[b]] = pattern.edge_bit(a, b)


def build_transversal(n: int, h: int, h_star: Tournament, seed: int) -> BigTournament:
    """Transversal construction: classes V_1..V_k of size n/h carry the
    pattern's orientations between them, so every transversal of the first
    k classes induces the pattern; all other pairs are uniform random.
    """
    _check_n(n)
    check_seed(seed)
    k = h_star.h
    if k >= h:
        raise StarTooBig(f"pattern has {k} vertices; needs fewer than h={h}")
    if n % h:
        raise NotMultiple(f"n={n} is not a multiple of h={h}")
    size = n // h
    adj = _from_pair_bits(n, _rational_bits(pair_count(n), Fraction(1, 2), seed))
    _plant(adj, [slice(i * size, (i + 1) * size) for i in range(k)], h_star)
    provenance = {
        "kind": "transversal",
        "n": n,
        "h": h,
        "pattern_h": k,
        "pattern": h_star.bits,
        "seed": seed,
    }
    return BigTournament(n=n, adj=adj, provenance=provenance)


def blowup_group_count(h: int, k: int) -> int:
    """Number of vertex classes r = h * ceil(sqrt(h*k)) for k patterns."""
    root = math.isqrt(h * k)
    if root * root < h * k:
        root += 1
    return h * root


def _pack_cliques(r: int, h: int, k: int, seed: int) -> list[tuple[int, ...]]:
    """Greedy randomized packing of k pairwise edge-disjoint K_h in K_r."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    tries_per_copy, restarts = 200, 64
    for _ in range(restarts):
        used: set[tuple[int, int]] = set()
        copies: list[tuple[int, ...]] = []
        for _ in range(k):
            placed = False
            for _ in range(tries_per_copy):
                verts = tuple(sorted(rng.choice(r, size=h, replace=False).tolist()))
                edges = [(a, b) for ai, a in enumerate(verts) for b in verts[ai + 1 :]]
                if any(e in used for e in edges):
                    continue
                used.update(edges)
                copies.append(verts)
                placed = True
                break
            if not placed:
                break
        if len(copies) == k:
            return copies
    raise PackingFailed(f"no {k} edge-disjoint K_{h} in K_{r} after {restarts} restarts")


def build_blowup(family: list[Tournament], n: int, seed: int) -> BigTournament:
    """Blow-up over edge-disjoint K_h copies: one copy per family member,
    its parts carrying that member's orientations, so every transversal of
    a member's parts induces that member.  All remaining pairs are
    oriented low-to-high.
    """
    if not family:
        raise ValueError("family must be nonempty")
    h = family[0].h
    if any(t.h != h for t in family):
        raise ValueError("family members must share the same vertex count")
    k = len(family)
    r = blowup_group_count(h, k)
    _check_n(n)
    check_seed(seed)
    if n % r:
        raise NotMultiple(f"n={n} is not a multiple of r={r}")
    size = n // r
    copies = _pack_cliques(r, h, k, seed)
    adj = np.triu(np.ones((n, n), dtype=np.uint8), 1)
    parts = [slice(t * size, (t + 1) * size) for t in range(r)]
    for pattern, verts in zip(family, copies):  # verts ascend: blocks lie above the diagonal
        _plant(adj, [parts[v] for v in verts], pattern)
    provenance = {
        "kind": "blowup",
        "n": n,
        "h": h,
        "k": k,
        "r": r,
        "family": [t.bits for t in family],
        "copies": [list(c) for c in copies],
        "typicality_sufficient": bool(2 * r * r < 2**h),
        "seed": seed,
    }
    return BigTournament(n=n, adj=adj, provenance=provenance)
