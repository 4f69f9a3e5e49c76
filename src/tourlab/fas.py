"""Exact minimum feedback arc sets and the ordering-based dominance test.

a(H) is the size of a smallest edge set meeting every directed cycle,
computed as C(h,2) minus the maximum forward-edge count over vertex
orderings.  The dominance sufficient condition compares

    (1 + 2x)^(f - b) * (1 - 4x^2)^b  >  h!

with f = C(h,2) - a and b = a: when it holds, the single best ordering
already forces B(H,x) > d(H).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .core import Tournament, pair_count

__all__ = [
    "FasResult",
    "BadParameters",
    "InconclusiveAtPrecision",
    "min_fas",
    "in_A",
    "fas_dominance_condition",
    "sqrt_log_over",
    "CertifiedValue",
]


class BadParameters(ValueError):
    """Arguments outside the documented domain of the dominance check."""


class InconclusiveAtPrecision(ArithmeticError):
    """Interval evaluation could not separate the two sides even at the
    highest precision tried."""


@dataclass(frozen=True)
class FasResult:
    """Minimum feedback arc set size with a maximizing vertex ordering."""

    a: int
    max_forward: int
    witness_order: tuple[int, ...]


_DIGIT = 32  # packed-histogram digit width; counts stay below 10! < 2^22

# Subset DP runs in this process, reported by `tourlab --stats`.
_dp_runs = 0


@lru_cache(maxsize=None)
def _subset_pairs(h: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each subset s of range(h), the pairs (s without v, v) for v in s,
    in ascending v: the DP's predecessors of s, shared by every h-tournament."""
    return tuple(tuple((s ^ (1 << v), v) for v in range(h) if (s >> v) & 1)
                 for s in range(1 << h))


def _ordering_table(t: Tournament) -> list[int]:
    """The one subset DP, behind both B(H,x) and a(H): digit k of table[S]
    counts the orderings of S with exactly k forward edges.  Appending v
    after prev = S\\{v} adds as many forward edges as v has in-neighbours
    in prev; the (prev, v) pairs of every S come precomputed per h
    (``_subset_pairs``), so each step is a single shift-and-add."""
    global _dp_runs
    _dp_runs += 1
    h = t.h
    out = t.out_masks
    full = (1 << h) - 1
    inmask = tuple(full & ~out[v] & ~(1 << v) for v in range(h))
    table = [1]
    for pairs in _subset_pairs(h)[1:]:
        acc = 0
        for prev, v in pairs:
            acc += table[prev] << ((inmask[v] & prev).bit_count() * _DIGIT)
        table.append(acc)
    return table


def _histogram_counts(t: Tournament, table: list[int]) -> tuple[int, ...]:
    """N[k], k = 0..C(h,2): the digits of the full-set entry."""
    mask = (1 << _DIGIT) - 1
    counts = tuple((table[-1] >> (k * _DIGIT)) & mask for k in range(pair_count(t.h) + 1))
    if sum(counts) != factorial(t.h):
        raise AssertionError(f"histogram mass {sum(counts)} != {t.h}!")
    return counts


def _fas_from_table(t: Tournament, table: list[int]) -> FasResult:
    """a(H) from best(S), the top digit of table[S], read only along the
    backtrack.  The witness is rebuilt backwards: the last vertex of S is
    the smallest v with best(S\\{v}) + k_v = best(S)."""
    out = t.out_masks
    pairs = _subset_pairs(t.h)
    order: list[int] = []
    s = len(table) - 1
    top = best = (table[s].bit_length() - 1) // _DIGIT
    while s:
        # prev & ~out[v] is v's in-neighbours inside prev
        prev, v = next((prev, v) for prev, v in pairs[s] if (prev & ~out[v]).bit_count()
                       + (table[prev].bit_length() - 1) // _DIGIT == best)
        order.append(v)
        s = prev
        best = (table[s].bit_length() - 1) // _DIGIT
    return FasResult(pair_count(t.h) - top, top, tuple(order[::-1]))


def min_fas(t: Tournament) -> FasResult:
    """Exact a(H) by DP over vertex subsets, with a maximizing ordering;
    ties between last vertices go to the smallest vertex index."""
    return _fas_from_table(t, _ordering_table(t))


def in_A(t: Tournament, threshold: Fraction | int) -> bool:
    """True iff a(H) <= C(h,2)/2 - threshold, compared exactly."""
    threshold = Fraction(threshold)
    if threshold < 0:
        raise BadParameters(f"threshold must be nonnegative, got {threshold}")
    return Fraction(min_fas(t).a) <= Fraction(pair_count(t.h), 2) - threshold


class CertifiedValue:
    """A positive irrational given by rational bounds at a requested
    working precision (bits)."""

    def bounds(self, precision: int) -> tuple[Fraction, Fraction]:
        raise NotImplementedError


@dataclass(frozen=True)
class _SqrtLogOver(CertifiedValue):
    h: int

    def bounds(self, precision: int) -> tuple[Fraction, Fraction]:
        import mpmath  # here, not at module level: only certified bounds need it
        ctx = mpmath.iv
        old = ctx.prec
        try:
            ctx.prec = precision
            value = ctx.sqrt(ctx.log(self.h) / self.h)
        finally:
            ctx.prec = old
        return tuple(Fraction(*mpmath.libmp.to_rational(raw)) for raw in value._mpi_)


def sqrt_log_over(h: int) -> CertifiedValue:
    """The bias value x = sqrt(ln(h)/h) at which low-feedback tournaments
    clear the dominance condition, as a certified irrational."""
    if h < 2:
        raise BadParameters(f"need h >= 2, got {h}")
    return _SqrtLogOver(h)


def _lhs_bounds(fwd: int, bwd: int, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    # (1+2x)^(f-b) increases and (1-4x^2)^b decreases on 0 <= x < 1/2
    lower = (1 + 2 * lo) ** (fwd - bwd) * (1 - 4 * hi * hi) ** bwd
    upper = (1 + 2 * hi) ** (fwd - bwd) * (1 - 4 * lo * lo) ** bwd
    return lower, upper


def fas_dominance_condition(
    h: int, a: int, x: Fraction | CertifiedValue, max_precision: int = 1 << 14
) -> bool:
    """True iff (1+2x)^(f-b) (1-4x^2)^b > h! with f = C(h,2)-a, b = a.

    Rational x is evaluated exactly.  A CertifiedValue (irrational) x is
    evaluated through rational interval bounds with escalating precision;
    an exact tie would exhaust precision and raise InconclusiveAtPrecision,
    which cannot happen for irrational x.
    """
    m = pair_count(h)
    if h < 1 or a < 0 or 2 * a > m:
        raise BadParameters(f"need 0 <= a <= C(h,2)/2 = {Fraction(m, 2)}, got a={a}")
    fwd, bwd = m - a, a
    rhs = factorial(h)
    if isinstance(x, CertifiedValue):
        precision = 64
        while precision <= max_precision:
            lo, hi = x.bounds(precision)
            if not 0 < lo <= hi < Fraction(1, 2):
                raise BadParameters(f"certified x not in (0, 1/2): [{lo}, {hi}]")
            lower, upper = _lhs_bounds(fwd, bwd, lo, hi)
            if lower > rhs:
                return True
            if upper <= rhs:
                return False
            precision *= 2
        raise InconclusiveAtPrecision(
            f"could not separate at {max_precision} bits (h={h}, a={a})"
        )
    x = Fraction(x)
    if not 0 < x < Fraction(1, 2):
        raise BadParameters(f"x must lie in (0, 1/2), got {x}")
    return (1 + 2 * x) ** (fwd - bwd) * (1 - 4 * x * x) ** bwd > rhs
