"""Exact and Monte-Carlo measurement of pattern densities in big tournaments.

The density of an h-vertex pattern H in G is the probability that a
uniformly random h-subset of G induces a copy of H.  Exact mode counts
every subset; Monte-Carlo mode samples subsets with replacement.  Both
count labeled patterns: the orientation bits of an induced sub-tournament,
MSB-first in the fixed pair order, form its pattern code.  For h <= 7 a
dense code -> class-index table maps each block of codes to classes, which
numpy tallies; above, numpy tallies the codes and each distinct code is
mapped to its isomorphism class once, at the end, by canonical search.  So
measuring a whole catalog against one G costs a single pass.  Both modes
read G through its adjacency matrix ``g.adj``, flattened so entry u*n + v
is 1 iff u -> v; G's pair order stays in ``construct``, and a pattern code
takes each pair's bit at ``core._shift``, the one home of that layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, perm, sqrt
from typing import Iterable, Iterator

import numpy as np

from .bias import _typical, bias_margin
from .core import (
    CanonicalForm, TooLarge, Tournament, _bits, _canonical, _shift, canonical_form, pair_count,
)
from .construct import BigTournament, check_seed

__all__ = [
    "DensityReport",
    "TooLarge",
    "EXACT_SUBSET_GUARD",
    "MC_DRAW_GUARD",
    "density_census",
    "density_exact",
    "density_montecarlo",
    "dominance_report",
    "bias_margin",
]

EXACT_SUBSET_GUARD = 10**8
# Monte Carlo redraws every h-tuple with a repeated vertex, so a kept sample
# costs n^h / (n)_h draws on average: 1.01 at n=2048, h=8, but 21.5 at n=12,
# h=8 and 2756 at n=h=10.  Past this many the host is small enough that
# exact mode counts all C(n,h) subsets at less cost.
MC_DRAW_GUARD = 16
_CHUNK = 1 << 16  # pattern codes computed per step, exact or Monte Carlo
_TABLE_MAX_H = 7  # largest h with a dense code -> class table (2^21 int16, 4 MB)
# Above _TABLE_MAX_H each distinct code costs a canonical search: 45-62 us a
# subset at h=8, n=14..18 on one core of a 2-vCPU host: under a minute at the
# guard, which bounds exact subsets and Monte-Carlo samples alike.
_SEARCH_SUBSET_GUARD = 10**6
_SEARCH_COST = (f"for h > {_TABLE_MAX_H}, where each {{}} costs up to a canonical "
                f"search (about 55 us)")


@dataclass(frozen=True)
class DensityReport:
    """Measured density of one pattern in one big tournament.

    ``estimate`` is an exact Fraction with denominator C(n,h) in exact
    mode and a float in Monte-Carlo mode (with ``stderr`` the binomial
    standard error).  ``margin`` is estimate - (1+beta)*typical when a
    beta was supplied.
    """

    pattern: CanonicalForm
    n: int
    mode: str
    samples: int | None
    seed: int | None
    estimate: Fraction | float
    stderr: float | None
    typical: Fraction
    ratio: Fraction | float
    margin: Fraction | float | None


@lru_cache(maxsize=None)
def _class_table(h: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The canonical codes of the h-vertex classes, ascending (catalog
    order), and index[code] = the class number of every labeled pattern code.

    The canonical form is the lex-min relabeled bit string, so its code is
    the least code in the S_h orbit.  Codes are visited in increasing
    order: the least code not yet indexed is the least of its orbit, and
    opens the next class over the whole orbit at once.  Relabeling by a
    permutation moves the bit of pair (a, b) to pair (perm[a], perm[b]),
    flipped when perm reverses the pair, so the images of a code under all
    h! permutations are base + weight @ bits.
    """
    m = pair_count(h)
    perms = np.array(list(permutations(range(h))), dtype=np.int64)
    pairs = np.array(list(combinations(range(h), 2)), dtype=np.int64).reshape(-1, 2)
    pa, pb = perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]
    dest = _shift(np.minimum(pa, pb), np.maximum(pa, pb), h)
    flip = (pa > pb).astype(np.int64)
    base = (flip << dest).sum(axis=1)
    weight = (1 - 2 * flip) << dest
    source = _shift(pairs[:, 0], pairs[:, 1], h)
    index = np.full(1 << m, -1, dtype=np.int16)
    classes: list[int] = []
    start = 0
    while start < len(index):
        free = np.flatnonzero(index[start : start + 4096] < 0)
        if not free.size:
            start += 4096
            continue
        code = start + int(free[0])
        index[base + weight @ ((code >> source) & 1)] = len(classes)
        classes.append(code)
        start = code + 1
    index.setflags(write=False)
    return tuple(classes), index


def _census(h: int, blocks: Iterable[np.ndarray]) -> dict[str, int]:
    """{canonical bits: count} over all labeled pattern codes in blocks.

    Up to _TABLE_MAX_H each block is mapped to class indices through the
    dense table and tallied over the classes.  Above it, where a 2^C(h,2)
    table does not fit, labeled codes are tallied first and each distinct
    code is mapped to its class once, at the end, by canonical search.
    There one np.unique runs over the codes of the whole request, never
    block by block: exact censuses of structured hosts repeat codes across
    blocks, and per-block dedup searched 143,394 codes where this searches
    79,550 (h=8, tnp n=24 p=9/10 seed 5).
    """
    m = pair_count(h)
    if h <= _TABLE_MAX_H:
        classes, index = _class_table(h)
        counts = np.zeros(len(classes), dtype=np.int64)
        for codes in blocks:
            counts += np.bincount(index[codes], minlength=len(classes))
        return {_bits(c, m): n for c, n in zip(classes, counts.tolist()) if n}
    values, counts = np.unique(np.concatenate(list(blocks)), return_counts=True)
    census: dict[str, int] = {}
    for value, count in zip(values.tolist(), counts.tolist()):
        key = canonical_form(Tournament(h, _bits(value, m))).bits
        census[key] = census.get(key, 0) + count
    return census


def _exact_codes(g: BigTournament, h: int) -> Iterator[np.ndarray]:
    """Pattern codes of all h-subsets of G, in lexicographic subset order,
    in blocks of fewer than _CHUNK + n.

    Sorted vertex prefixes grow one vertex at a time; each new vertex ORs
    its pairs with the prefix into the code.  Each level's prefixes are cut
    into runs by the offset // _CHUNK of their first child, so a run has
    fewer than _CHUNK + n children and no array grows with C(n-1, h-1).
    """
    n = g.n
    adj = g.adj.ravel()
    shifts = [[_shift(a, k, h) for a in range(k)] for k in range(h)]

    def extend(rows: list[np.ndarray], last: np.ndarray, codes: np.ndarray, k: int):
        # rows[a] holds n times vertex a of each prefix; last its vertex k-1
        if k == h:
            yield codes
            return
        children = n - h + k - last  # vertices after last that leave room to finish
        run = (np.cumsum(children) - children) // _CHUNK
        lo = 0
        for hi in [*(np.flatnonzero(np.diff(run)) + 1).tolist(), len(run)]:
            choices = children[lo:hi]
            parent = np.repeat(np.arange(lo, hi), choices)
            first = np.cumsum(choices) - choices
            vertex = np.arange(len(parent)) - np.repeat(first - last[lo:hi] - 1, choices)
            new_codes = codes[parent]
            new_rows = [row[parent] for row in rows]
            for row, shift in zip(new_rows, shifts[k]):
                new_codes |= adj[row + vertex].astype(np.int64) << shift
            yield from extend([*new_rows, vertex * n], vertex, new_codes, k + 1)
            lo = hi

    yield from extend([], np.full(1, -1, dtype=np.int64), np.zeros(1, dtype=np.int64), 0)


def _census_total(
    n: int, h: int, mode: str = "exact", samples: int | None = None, seed: int | None = None
) -> int:
    """The subsets a census request scans: C(n,h) in exact mode, ``samples``
    in Monte-Carlo mode.  Raises before any census work: ValueError for a
    pattern that does not fit the host, an unknown mode, or Monte-Carlo
    samples or seed missing or out of range; TooLarge past the exact guard
    (_SEARCH_SUBSET_GUARD above _TABLE_MAX_H), past _SEARCH_SUBSET_GUARD
    Monte-Carlo samples above _TABLE_MAX_H, or past the Monte-Carlo draw
    guard.
    """
    if mode not in ("exact", "montecarlo"):
        raise ValueError(f"mode must be 'exact' or 'montecarlo', got {mode!r}")
    if not 1 <= h <= n:
        raise ValueError(f"pattern size {h} does not fit a host on {n} vertices")
    if mode == "exact":
        total = comb(n, h)
        search = h > _TABLE_MAX_H
        guard = _SEARCH_SUBSET_GUARD if search else EXACT_SUBSET_GUARD
        if total > guard:
            cost = " " + _SEARCH_COST.format("subset") if search else ""
            raise TooLarge(f"C({n},{h}) = {total} exceeds the exact-mode guard "
                           f"{guard}{cost}; use Monte Carlo")
        return total
    if samples is None or seed is None:
        raise ValueError("montecarlo mode needs samples and seed")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    check_seed(seed)
    if h > _TABLE_MAX_H and samples > _SEARCH_SUBSET_GUARD:
        raise TooLarge(f"{samples} Monte-Carlo samples exceed the guard "
                       f"{_SEARCH_SUBSET_GUARD} {_SEARCH_COST.format('sample')}")
    tuples = perm(n, h)  # ordered h-tuples without a repeated vertex
    if n**h > MC_DRAW_GUARD * tuples:
        raise TooLarge(
            f"Monte Carlo on {n} vertices at h={h} draws about {n**h / tuples:.1f} "
            f"h-tuples per kept sample, past the guard {MC_DRAW_GUARD}; use exact "
            f"mode: C({n},{h}) = {comb(n, h)} subsets"
        )
    return samples


def density_census(g: BigTournament, h: int) -> dict[str, int]:
    """Exact copy counts of every h-class in G, keyed by canonical bits.

    Counts all C(n,h) subsets (guarded); the counts sum to C(n,h).
    """
    _census_total(g.n, h)
    return _census(h, _exact_codes(g, h))


def _subset_patterns(g: BigTournament, subsets: np.ndarray) -> np.ndarray:
    """Pattern code of each row of h sorted vertex indices of G."""
    adj = g.adj.ravel()
    h = subsets.shape[1]
    columns = [subsets[:, a].astype(np.int64) for a in range(h)]
    patterns = np.zeros(len(subsets), dtype=np.int64)
    for a in range(h):
        row = columns[a] * g.n
        for b in range(a + 1, h):
            patterns |= adj[row + columns[b]].astype(np.int64) << _shift(a, b, h)
    return patterns


def _sample_subsets(rng: np.random.Generator, n: int, h: int, samples: int) -> np.ndarray:
    """Uniform h-subsets with replacement drawn from rng, rows sorted: each
    round redraws, in row order, the rows that repeat a vertex, and checks
    only those."""
    rows = np.sort(rng.integers(0, n, size=(samples, h)), axis=1)
    redo = np.flatnonzero(_repeats(rows))
    while len(redo):
        fresh = np.sort(rng.integers(0, n, size=(len(redo), h)), axis=1)
        rows[redo] = fresh
        redo = redo[_repeats(fresh)]
    return rows


def _repeats(rows: np.ndarray) -> np.ndarray:
    """Which sorted rows hold a vertex twice: equal adjacent columns."""
    same = np.zeros(len(rows), dtype=bool)
    for a in range(rows.shape[1] - 1):
        same |= rows[:, a] == rows[:, a + 1]
    return same


def _mc_census(g: BigTournament, h: int, samples: int, seed: int) -> dict[str, int]:
    """Census of samples uniform h-subsets: chunks of _CHUNK rows drawn in
    sequence from one Philox stream keyed by seed."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    chunks = (min(_CHUNK, samples - done) for done in range(0, samples, _CHUNK))
    return _census(h, (_subset_patterns(g, _sample_subsets(rng, g.n, h, take))
                       for take in chunks))


def density_exact(
    g: BigTournament, pattern: Tournament, beta: Fraction | None = None
) -> DensityReport:
    """Exact density of pattern in G, copies / C(n,h): the one report of
    ``dominance_report([pattern], g, beta)``."""
    return dominance_report([pattern], g, beta)[0]


def density_montecarlo(
    g: BigTournament,
    pattern: Tournament,
    samples: int,
    seed: int,
    beta: Fraction | None = None,
) -> DensityReport:
    """Density estimated from ``samples`` uniform h-subsets drawn with
    replacement: the one report of a Monte-Carlo ``dominance_report``."""
    return dominance_report([pattern], g, beta, "montecarlo", samples, seed)[0]


def dominance_report(
    patterns: list[Tournament],
    g: BigTournament,
    beta: Fraction | None = None,
    mode: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
) -> list[DensityReport]:
    """One report per pattern against the same G, sharing a single census
    pass.  The request is checked once, as a whole (``_census_total``),
    before any census work.  Each pattern costs one canonical search, for
    its class and its aut; a caller that holds both runs none through
    ``_reports``.  With a beta, ``margin > 0`` means the pattern beats
    (1+beta) times typical."""
    return _reports([_canonical(t) for t in patterns], g, beta, mode, samples, seed)


def _reports(classes: list[tuple[CanonicalForm, int]], g: BigTournament, beta: Fraction | None,
             mode: str, samples: int | None, seed: int | None) -> list[DensityReport]:
    """``dominance_report`` of the classes given as (canonical form, aut)."""
    if not classes:
        return []
    h = classes[0][0].h
    if any(form.h != h for form, _ in classes):
        raise ValueError("all patterns must share the same vertex count")
    if mode == "exact":  # density_census checks the request
        census, samples, seed = density_census(g, h), None, None
        total = comb(g.n, h)
    else:
        total = _census_total(g.n, h, mode, samples, seed)
        census = _mc_census(g, h, samples, seed)
    reports = []
    for form, aut in classes:
        typical = _typical(h, aut)
        hits = census.get(form.bits, 0)
        if mode == "exact":
            estimate: Fraction | float = Fraction(hits, total)
            stderr = None
            ratio: Fraction | float = estimate / typical
            margin = None if beta is None else estimate - (1 + Fraction(beta)) * typical
        else:
            estimate = hits / total
            stderr = sqrt(estimate * (1 - estimate) / total)
            ratio = estimate / float(typical)
            margin = None if beta is None else estimate - float((1 + Fraction(beta)) * typical)
        reports.append(DensityReport(
            pattern=form,
            n=g.n,
            mode=mode,
            samples=samples,
            seed=seed,
            estimate=estimate,
            stderr=stderr,
            typical=typical,
            ratio=ratio,
            margin=margin,
        ))
    return reports
