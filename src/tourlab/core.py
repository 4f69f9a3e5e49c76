"""Tournament representation, canonical forms, isomorphism, and induced queries.

A tournament on h vertices is an orientation of the complete graph K_h.
It is stored as a bit string of length C(h,2) over the fixed pair order
(1,2),(1,3),...,(1,h),(2,3),...: bit '1' at pair (i,j) with i<j means the
edge is directed i->j, bit '0' means j->i.  Vertices are 1-based in this
documentation and in all serialized formats; the Python API is 0-based.

All values are immutable after construction and safe to share between
concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

__all__ = [
    "MAX_VERTICES",
    "Tournament",
    "CanonicalForm",
    "WrongLength",
    "BadCharacter",
    "BadSubset",
    "SizeMismatch",
    "TooLarge",
    "PackingFailed",
    "parse",
    "transitive",
    "cyclic3",
    "reverse",
    "canonical_form",
    "aut_size",
    "induced",
    "contains_subtournament",
    "pair_count",
    "pair_index",
]

MAX_VERTICES = 10


class WrongLength(ValueError):
    """Bit string length does not match C(h,2)."""


class BadCharacter(ValueError):
    """Bit string contains a character other than '0' or '1'."""


class BadSubset(ValueError):
    """Vertex subset is empty, out of range, or has repeats."""


class SizeMismatch(ValueError):
    """Pattern tournament is larger than the host."""


# The two errors below belong to tourlab.density and tourlab.construct, which
# re-export them; they live here so that the command line can map them to
# exit codes without importing numpy.


class TooLarge(ValueError):
    """Exact mode would iterate more than density.EXACT_SUBSET_GUARD subsets
    (10^6 for h > 7), or Monte Carlo would take more than 10^6 samples for
    h > 7 or draw more than density.MC_DRAW_GUARD h-tuples per kept sample."""


class PackingFailed(RuntimeError):
    """Randomized clique packing did not succeed within the restart budget."""


# Canonical searches run in this process, and those of its enumeration workers
# (credited by enumeration), reported by `tourlab --stats`.
_canon_searches = 0

_VERTICES: list[tuple[int, ...]] = [()]  # [mask]: the vertices in mask, ascending
for _v in range(MAX_VERTICES):
    _VERTICES += [vertices + (_v,) for vertices in _VERTICES]


def pair_count(h: int) -> int:
    return h * (h - 1) // 2


def _bits(value: int, m: int) -> str:
    """value as an m-digit bit string, MSB first ('' for m = 0)."""
    return format(value, f"0{m}b") if m else ""


def pair_index(u, v, n: int):
    """Index of the 0-based pair u<v in the fixed pair order (also on int64 arrays)."""
    return u * (n - 1) - u * (u - 1) // 2 + (v - u - 1)


def _shift(u, v, h: int):
    """Bit position of the 0-based pair u<v in a bit string read as a binary
    number, MSB first (also on int64 arrays): pattern codes and DP keys."""
    return pair_count(h) - 1 - pair_index(u, v, h)


@dataclass(frozen=True)
class Tournament:
    """An h-vertex tournament as an orientation bit string.

    ``bits[pair_index(u, v, h)] == '1'`` means edge u->v (0-based u < v).
    """

    h: int
    bits: str

    def __post_init__(self) -> None:
        if not 1 <= self.h <= MAX_VERTICES:
            raise WrongLength(f"h={self.h} outside supported range 1..{MAX_VERTICES}")
        if len(self.bits) != pair_count(self.h):
            raise WrongLength(
                f"expected {pair_count(self.h)} bits for h={self.h}, got {len(self.bits)}"
            )
        if self.bits.strip("01"):
            raise BadCharacter(f"orientation bits must be '0'/'1': {self.bits!r}")

    @property
    def m(self) -> int:
        """Number of edges, C(h,2)."""
        return pair_count(self.h)

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        """Per-vertex bitmask of out-neighbours."""
        masks = [0] * self.h
        for (u, v), bit in zip(combinations(range(self.h), 2), self.bits):
            if bit == "1":
                masks[u] |= 1 << v
            else:
                masks[v] |= 1 << u
        return tuple(masks)

    def edge_bit(self, u: int, v: int) -> int:
        """1 if the edge between u<v is directed u->v, else 0."""
        return 1 if self.bits[pair_index(u, v, self.h)] == "1" else 0

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the edge u->v is present (u, v in either order)."""
        return bool((self.out_masks[u] >> v) & 1)

    def out_degrees(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.out_masks)

    def relabel(self, perm: Iterable[int]) -> "Tournament":
        """Apply a relabeling: vertex v is renamed perm[v]."""
        p = tuple(perm)
        if sorted(p) != list(range(self.h)):
            raise ValueError(f"not a permutation of range({self.h}): {p}")
        inv = [0] * self.h
        for v, label in enumerate(p):
            inv[label] = v
        return _oriented(self.h, lambda a, b: self.has_edge(inv[a], inv[b]))


def _oriented(h: int, edge) -> Tournament:
    """The h-vertex tournament whose pair u<v is directed u->v exactly where
    edge(u, v) is true, built in the fixed pair order."""
    return Tournament(h, "".join("1" if edge(u, v) else "0" for u, v in combinations(range(h), 2)))


@dataclass(frozen=True)
class CanonicalForm:
    """Lexicographically minimal orientation bit string over all relabelings.

    Two tournaments are isomorphic iff their canonical forms are equal, and
    the canon string is itself a valid Tournament encoding.
    """

    h: int
    bits: str

    def tournament(self) -> Tournament:
        return Tournament(self.h, self.bits)

    def __str__(self) -> str:
        return self.bits


def parse(text: str, h: int) -> Tournament:
    """Parse one line of '0'/'1' characters into a Tournament."""
    return Tournament(h, text.strip())


def transitive(h: int) -> Tournament:
    """The transitive tournament: edge i->j for all i<j (all bits 1)."""
    return Tournament(h, "1" * pair_count(h))


def cyclic3() -> Tournament:
    """The directed triangle 1->2->3->1; every vertex has out-degree 1."""
    return Tournament(3, "101")


def reverse(t: Tournament) -> Tournament:
    """Reverse every edge (the converse tournament)."""
    flipped = t.bits.translate(str.maketrans("01", "10"))
    return Tournament(t.h, flipped)


def _canon_search(h: int, out: tuple[int, ...]) -> tuple[int, int]:
    """Branch-and-bound search for the minimal relabeled bit sequence.

    Vertices are assigned to positions 0,1,... one at a time from the first
    cell of an ordered partition of the unplaced vertices.  Placing v emits
    its row: in each cell, the vertices that beat v (0-bits), then the ones
    v beats (1-bits), and splits every cell in that order.  Cell widths do
    not depend on v, so rows compare as the vectors of winner counts
    popcount(out[v] & cell), cell by cell.  The candidates are narrowed
    cell by cell to those with the fewest winners, stopping once one is
    left, and only these survivors are split and searched, in ascending
    vertex order; they share the least row.  No larger row needs a visit,
    and no later survivor is pruned: if the least row passes the check
    against the incumbent's prefix, the first survivor's subtree leaves an
    incumbent whose prefix equals it.  Once every cell holds one vertex,
    the rest of the sequence is forced and is read off in one step.  So
    the search reaches the leaves, in the same order, of one that tries
    every vertex of the first cell in row order, and finds the same
    minimum and the same number of relabelings attaining it.  Returns
    (canonical bits as an int, that number) -- the latter is aut(T).
    Needs h <= MAX_VERTICES.
    """
    global _canon_searches
    _canon_searches += 1
    best: int | None = None
    naut = 0

    def extend(blocks: list[int], value: int, rem: int) -> None:
        nonlocal best, naut
        if len(blocks) == rem:  # one vertex a cell: the rest of the rows are forced
            for i, block in enumerate(blocks):
                ov = out[block.bit_length() - 1]
                for later in blocks[i + 1:]:
                    value = (value << 1) | (ov & later != 0)
            if best is None or value < best:
                best, naut = value, 0
            naut += value == best
            return
        first = blocks[0]
        cands = _VERTICES[first]
        for block in blocks:
            if len(cands) == 1:
                break
            wins = [(out[v] & block).bit_count() for v in cands]
            low = min(wins)
            cands = [v for v, w in zip(cands, wins) if w == low]
        rem -= 1
        value <<= rem
        for v in cands:
            ov, row, new_blocks = out[v], 0, []
            blocks[0] = first ^ (1 << v)  # this frame's own list
            for block in blocks:
                winners = block & ov
                row = (row << block.bit_count()) | ((1 << winners.bit_count()) - 1)
                if block != winners:
                    new_blocks.append(block ^ winners)
                if winners:
                    new_blocks.append(winners)
            if best is not None and value | row > best >> (rem * (rem - 1) // 2):
                return
            extend(new_blocks, value | row, rem)

    extend([(1 << h) - 1], 0, h)
    assert best is not None
    return best, naut


def _canonical(t: Tournament) -> tuple[CanonicalForm, int]:
    """Canonical form and aut(t), from one canonical search."""
    value, naut = _canon_search(t.h, t.out_masks)
    return CanonicalForm(t.h, _bits(value, t.m)), naut


def canonical_form(t: Tournament) -> CanonicalForm:
    """Canonical form of t; equal canonical forms <=> isomorphic."""
    return _canonical(t)[0]


def aut_size(t: Tournament) -> int:
    """Order of the automorphism group of t; divides h!."""
    return _canonical(t)[1]


def _vertex_count(g) -> int:
    return g.h if isinstance(g, Tournament) else g.n


def induced(g, subset: Iterable[int]) -> Tournament:
    """Sub-tournament induced by a vertex subset, renumbered by increasing label.

    Accepts a Tournament or a BigTournament (anything with an ``edge_bit``
    accessor and an ``h``/``n`` vertex count).
    """
    n = _vertex_count(g)
    sub = list(subset)
    verts = sorted(set(sub))
    if not verts:
        raise BadSubset("empty subset")
    if len(verts) != len(sub):
        raise BadSubset(f"subset has repeated vertices: {sub}")
    if verts[0] < 0 or verts[-1] >= n:
        raise BadSubset(f"subset {verts} out of range for {n} vertices")
    return _oriented(len(verts), lambda a, b: g.edge_bit(verts[a], verts[b]))


def contains_subtournament(t: Tournament, pattern: Tournament) -> bool:
    """True iff some vertex subset of t induces a copy of pattern.

    Backtracking injection search: pattern vertices are embedded in index
    order, and each new image must orient consistently against all previous
    images, maintained as candidate bitmasks.
    """
    if pattern.h > t.h:
        raise SizeMismatch(f"pattern on {pattern.h} vertices, host on {t.h}")
    host_out = t.out_masks
    host_in = tuple(~mask & ((1 << t.h) - 1) & ~(1 << v) for v, mask in enumerate(host_out))
    pat_out = pattern.out_masks

    def embed(depth: int, images: list[int], free: int) -> bool:
        if depth == pattern.h:
            return True
        cand = free
        for a in range(depth):
            if (pat_out[a] >> depth) & 1:
                cand &= host_out[images[a]]
            else:
                cand &= host_in[images[a]]
            if not cand:
                return False
        while cand:
            v_bit = cand & -cand
            cand ^= v_bit
            v = v_bit.bit_length() - 1
            images.append(v)
            if embed(depth + 1, images, free ^ v_bit):
                return True
            images.pop()
        return False

    return embed(0, [], (1 << t.h) - 1)
