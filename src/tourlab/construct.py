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

from .core import PackingFailed, Tournament, pair_count, pair_index

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


class BadProbability(ValueError):
    """Edge probability outside [0, 1]."""


class NotMultiple(ValueError):
    """Vertex count is not a multiple of the required part count."""


class StarTooBig(ValueError):
    """Planted pattern has too many vertices for the host parameters."""


@dataclass(frozen=True, eq=False)
class BigTournament:
    """An n-vertex tournament with packed orientation bits and provenance.

    Bits follow the same pair order as Tournament.  ``provenance`` records
    the construction kind, parameters, and seed, and round-trips through
    serialization.
    """

    n: int
    packed: np.ndarray = field(repr=False)
    provenance: dict[str, Any]

    def __post_init__(self) -> None:
        self.packed.setflags(write=False)

    @property
    def m(self) -> int:
        return pair_count(self.n)

    def edge_bit(self, u: int, v: int) -> int:
        """1 if the edge between u<v is directed u->v, else 0."""
        k = pair_index(u, v, self.n)
        return (self.packed[k >> 3] >> (7 - (k & 7))) & 1

    def bit_array(self) -> np.ndarray:
        """All C(n,2) orientation bits as a uint8 array of 0/1."""
        return np.unpackbits(self.packed)[: self.m]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BigTournament)
            and self.n == other.n
            and bool(np.array_equal(self.packed, other.packed))
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
        if len(bits) != pair_count(n) or bits.strip("01"):
            raise ValueError(
                f"expected {pair_count(n)} orientation bits, got {len(bits)}"
            )
        arr = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
        return cls(n=n, packed=np.packbits(arr), provenance=provenance)

    def save(self, path: Path | str) -> None:
        Path(path).write_text(self.to_text())

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
    with probability < b/2^64 per pair.
    """
    num, den = p.numerator, p.denominator
    gen = np.random.Generator(np.random.Philox(key=seed))
    out = np.zeros(m, dtype=np.uint8)
    pending = np.arange(m)
    cutoff = (1 << 64) - ((1 << 64) % den)
    while pending.size:
        words = gen.integers(0, 1 << 64, size=m, dtype=np.uint64, endpoint=False)
        w = words[pending]
        ok = w < cutoff if cutoff < (1 << 64) else np.ones(w.shape, dtype=bool)
        accepted = pending[ok]
        out[accepted] = (w[ok] % den) < num
        pending = pending[~ok]
    return out


def _rect_indices(part_a: range, part_b: range, n: int) -> np.ndarray:
    """Pair indices of all (u, v) with u in part_a, v in part_b, u < v."""
    us = np.repeat(np.fromiter(part_a, dtype=np.int64), len(part_b))
    vs = np.tile(np.fromiter(part_b, dtype=np.int64), len(part_a))
    return pair_index(us, vs, n)


def build_tnp(n: int, p: Fraction | int, seed: int) -> BigTournament:
    """Ordered random model: each pair (i,j), i<j, oriented i->j with
    probability p, independently, in fixed pair order."""
    _check_n(n)
    check_seed(seed)
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise BadProbability(f"p must lie in [0, 1], got {p}")
    bits = _rational_bits(pair_count(n), p, seed)
    provenance = {"kind": "tnp", "n": n, "p": f"{p.numerator}/{p.denominator}", "seed": seed}
    return BigTournament(n=n, packed=np.packbits(bits), provenance=provenance)


def build_transversal(n: int, h: int, h_star: Tournament, seed: int) -> BigTournament:
    """Transversal construction: classes V_1..V_k of size n/h carry the
    pattern's orientations between them, so every transversal of the first
    k classes induces the pattern; all other pairs are uniform random.
    """
    _check_n(n)
    check_seed(seed)
    if n % h:
        raise NotMultiple(f"n={n} is not a multiple of h={h}")
    k = h_star.h
    if k >= h:
        raise StarTooBig(f"pattern has {k} vertices; needs fewer than h={h}")
    size = n // h
    bits = _rational_bits(pair_count(n), Fraction(1, 2), seed)
    parts = [range(i * size, (i + 1) * size) for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            idx = _rect_indices(parts[i], parts[j], n)
            bits[idx] = h_star.edge_bit(i, j)
    provenance = {
        "kind": "transversal",
        "n": n,
        "h": h,
        "pattern_h": k,
        "pattern": h_star.bits,
        "seed": seed,
    }
    return BigTournament(n=n, packed=np.packbits(bits), provenance=provenance)


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
    bits = np.ones(pair_count(n), dtype=np.uint8)
    parts = [range(t * size, (t + 1) * size) for t in range(r)]
    for pattern, verts in zip(family, copies):
        for a in range(h):
            for b in range(a + 1, h):
                idx = _rect_indices(parts[verts[a]], parts[verts[b]], n)
                bits[idx] = pattern.edge_bit(a, b)
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
    return BigTournament(n=n, packed=np.packbits(bits), provenance=provenance)
