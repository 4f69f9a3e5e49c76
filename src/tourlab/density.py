"""Exact and Monte-Carlo measurement of pattern densities in big tournaments.

The density of an h-vertex pattern H in G is the probability that a
uniformly random h-subset of G induces a copy of H.  Exact mode iterates
every subset; Monte-Carlo mode samples subsets with replacement.  Both
canonicalize each induced sub-tournament once and look the result up in a
table keyed by canonical form, so measuring a whole catalog against one G
costs a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from math import comb, sqrt

import numpy as np

from .bias import bias_polynomial, typical_density
from .core import CanonicalForm, Tournament, canonical_form, pair_count, pair_index
from .construct import BigTournament, check_seed

__all__ = [
    "DensityReport",
    "TooLarge",
    "EXACT_SUBSET_GUARD",
    "density_census",
    "density_exact",
    "density_montecarlo",
    "dominance_report",
    "bias_margin",
]

EXACT_SUBSET_GUARD = 10**8
_CHUNK = 1 << 16


class TooLarge(ValueError):
    """Exact mode would iterate more than EXACT_SUBSET_GUARD subsets."""


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


@lru_cache(maxsize=1 << 20)
def _pattern_canon(h: int, pattern: int) -> str:
    m = pair_count(h)
    return canonical_form(Tournament(h, format(pattern, f"0{m}b"))).bits


def _subset_patterns(g: BigTournament, subsets: np.ndarray) -> np.ndarray:
    """Orientation pattern integer of each row of h sorted vertex indices."""
    h = subsets.shape[1]
    bits = g.bit_array()
    patterns = np.zeros(len(subsets), dtype=np.int64)
    shift = pair_count(h)
    for a in range(h):
        for b in range(a + 1, h):
            us = subsets[:, a].astype(np.int64)
            vs = subsets[:, b].astype(np.int64)
            idx = pair_index(us, vs, g.n)
            shift -= 1
            patterns |= bits[idx].astype(np.int64) << shift
    return patterns


def _census_from_patterns(h: int, patterns: np.ndarray) -> dict[str, int]:
    values, counts = np.unique(patterns, return_counts=True)
    census: dict[str, int] = {}
    for value, count in zip(values.tolist(), counts.tolist()):
        key = _pattern_canon(h, value)
        census[key] = census.get(key, 0) + count
    return census


def density_census(g: BigTournament, h: int) -> dict[str, int]:
    """Exact copy counts of every h-class in G, keyed by canonical bits.

    Iterates all C(n,h) subsets (guarded); the counts sum to C(n,h).
    """
    if not 1 <= h <= g.n:
        raise ValueError(f"pattern size {h} does not fit a host on {g.n} vertices")
    total = comb(g.n, h)
    if total > EXACT_SUBSET_GUARD:
        raise TooLarge(
            f"C({g.n},{h}) = {total} exceeds the exact-mode guard "
            f"{EXACT_SUBSET_GUARD}; use Monte Carlo"
        )
    census: dict[str, int] = {}
    subsets = combinations(range(g.n), h)
    while True:
        chunk = np.array(list(islice(subsets, _CHUNK)), dtype=np.int32)
        if chunk.size == 0:
            break
        for key, count in _census_from_patterns(h, _subset_patterns(g, chunk)).items():
            census[key] = census.get(key, 0) + count
    return census


def _sample_subsets(n: int, h: int, samples: int, seed: int) -> np.ndarray:
    """Uniform h-subsets with replacement, rows sorted; fixed-seed stream."""
    rng = np.random.Generator(np.random.Philox(key=check_seed(seed)))
    rows = np.sort(rng.integers(0, n, size=(samples, h)), axis=1)
    while True:
        bad = (np.diff(rows, axis=1) == 0).any(axis=1)
        if not bad.any():
            return rows
        rows[bad] = np.sort(rng.integers(0, n, size=(int(bad.sum()), h)), axis=1)


def _mc_census(g: BigTournament, h: int, samples: int, seed: int) -> dict[str, int]:
    check_seed(seed)
    census: dict[str, int] = {}
    done = 0
    while done < samples:
        take = min(_CHUNK, samples - done)
        rows = _sample_subsets(g.n, h, take, (seed + done) % (1 << 64))
        for key, count in _census_from_patterns(h, _subset_patterns(g, rows)).items():
            census[key] = census.get(key, 0) + count
        done += take
    return census


def _report(
    pattern: Tournament,
    g: BigTournament,
    hits: int,
    total: int,
    mode: str,
    samples: int | None,
    seed: int | None,
    beta: Fraction | None,
) -> DensityReport:
    typical = typical_density(pattern)
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
    return DensityReport(
        pattern=canonical_form(pattern),
        n=g.n,
        mode=mode,
        samples=samples,
        seed=seed,
        estimate=estimate,
        stderr=stderr,
        typical=typical,
        ratio=ratio,
        margin=margin,
    )


def density_exact(
    g: BigTournament, pattern: Tournament, beta: Fraction | None = None
) -> DensityReport:
    """Exact density of pattern in G: copies / C(n,h)."""
    census = density_census(g, pattern.h)
    hits = census.get(canonical_form(pattern).bits, 0)
    return _report(pattern, g, hits, comb(g.n, pattern.h), "exact", None, None, beta)


def density_montecarlo(
    g: BigTournament,
    pattern: Tournament,
    samples: int,
    seed: int,
    beta: Fraction | None = None,
) -> DensityReport:
    """Estimate density from uniform h-subsets sampled with replacement."""
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if not 1 <= pattern.h <= g.n:
        raise ValueError(f"pattern size {pattern.h} does not fit a host on {g.n} vertices")
    census = _mc_census(g, pattern.h, samples, seed)
    hits = census.get(canonical_form(pattern).bits, 0)
    return _report(pattern, g, hits, samples, "montecarlo", samples, seed, beta)


def dominance_report(
    patterns: list[Tournament],
    g: BigTournament,
    beta: Fraction,
    mode: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
) -> list[DensityReport]:
    """One report per pattern against the same G, sharing a single census
    pass; ``margin > 0`` means the pattern beats (1+beta) times typical."""
    if not patterns:
        return []
    h = patterns[0].h
    if any(t.h != h for t in patterns):
        raise ValueError("all patterns must share the same vertex count")
    if mode == "exact":
        census = density_census(g, h)
        total = comb(g.n, h)
        return [
            _report(t, g, census.get(canonical_form(t).bits, 0), total, "exact", None, None, beta)
            for t in patterns
        ]
    if mode != "montecarlo":
        raise ValueError(f"mode must be 'exact' or 'montecarlo', got {mode!r}")
    if samples is None or seed is None:
        raise ValueError("montecarlo mode needs samples and seed")
    census = _mc_census(g, h, samples, seed)
    return [
        _report(t, g, census.get(canonical_form(t).bits, 0), samples, "montecarlo", samples, seed, beta)
        for t in patterns
    ]


def bias_margin(patterns: list[Tournament], x: Fraction) -> Fraction:
    """The exact dominance margin min B(H,x)/d(H) - 1 over the patterns.

    Positive exactly when every pattern satisfies B(H,x) > d(H); the
    natural beta to demand of a construction targeting these patterns.
    """
    if not patterns:
        raise ValueError("patterns must be nonempty")
    best: Fraction | None = None
    for t in patterns:
        b = bias_polynomial(t)
        value = b.evaluate(Fraction(x)) / b.constant - 1
        if best is None or value < best:
            best = value
    assert best is not None
    return best
