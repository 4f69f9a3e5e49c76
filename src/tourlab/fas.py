"""Exact minimum feedback arc sets and the ordering-based dominance test.

a(H) is the size of a smallest edge set meeting every directed cycle,
computed as C(h,2) minus the maximum forward-edge count over vertex
orderings.  Both a(H) and the ordering histogram behind B(H,x) come from
one subset DP, memoized by the code of each induced sub-tournament, so
tournaments sharing a memo (a block of a catalog) compute each
sub-tournament they have in common once.

The dominance sufficient condition compares

    (1 + 2x)^(f - b) * (1 - 4x^2)^b  >  h!

with f = C(h,2) - a and b = a: when it holds, the single best ordering
already forces B(H,x) > d(H).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context
from fractions import Fraction
from functools import lru_cache
from math import ceil, factorial, floor, isqrt

from .core import Tournament, _shift, _value, pair_count

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


_DIGIT = 32  # packed-histogram digit width: a digit counts orderings, at most 10! < 2^22
_MAX_PRECISION = 1 << 14  # bits of x past which fas_dominance_condition gives up

# Memo entries the subset DP computed in this process, reported by
# `tourlab --stats`.
_dp_entries = 0


def _dp_key(h: int, code: int) -> int:
    """The DP's key for the h-vertex tournament of bit string ``code``: the
    code under a leading 1, so that C(h,2), and with it h, can be read back."""
    return code | 1 << pair_count(h)


def _code(t: Tournament) -> int:
    """The DP's key for t."""
    return _dp_key(t.h, _value(t.bits))


@lru_cache(maxsize=None)
def _deletions(k: int) -> tuple[tuple[tuple[tuple[int, int], ...], int, int], ...]:
    """For each vertex v of a k-vertex key: how to delete v and count its
    in-neighbours.  Deleting v drops its k-1 pair bits and moves every bit
    above a dropped one down by the dropped bits below it, so the key of
    T - v is the OR of (key & mask) >> shift over one (mask, shift) per run
    of kept bits; the leading 1 moves with the top run.  v's in-neighbours
    are its 0-bits in its own row (pairs (v, j)) and its 1-bits in the rows
    above (pairs (i, v)): popcount((key ^ row) & (row | column))."""
    plan = []
    for v in range(k):
        row = sum(1 << _shift(v, j, k) for j in range(v + 1, k))
        column = sum(1 << _shift(i, v, k) for i in range(v))
        runs: dict[int, int] = {}
        shift = 0
        for q in range(pair_count(k) + 1):  # bit C(k,2) is the leading 1
            if (row | column) >> q & 1:
                shift += 1
            else:
                runs[shift] = runs.get(shift, 0) | 1 << q
        plan.append((tuple((mask, shift) for shift, mask in runs.items()), row, row | column))
    return tuple(plan)


def _packed(k: int, key: int, memo: dict[int, int]) -> int:
    """The one subset DP, behind both B(H,x) and a(H), keyed by an induced
    sub-tournament's own code: digit j of the result counts the orderings of
    the k-vertex tournament ``key`` with exactly j forward edges.  Placing v
    last adds one forward edge per in-neighbour of v, so the histogram is
    the sum over v of the histogram of key - v shifted by v's in-degree
    (M. Held and R. M. Karp, J. SIAM 10 (1962)).  ``memo`` maps keys to
    histograms; sub-tournaments met again, in this tournament or in another
    one sharing the memo, are read from it."""
    global _dp_entries
    packed = 0
    for runs, row, pairs in _deletions(k):
        sub = 0
        for mask, shift in runs:
            sub |= (key & mask) >> shift
        # an entry is never 0 (every tournament has an ordering), so `or` tests for a miss
        below = memo.get(sub) or _packed(k - 1, sub, memo)
        packed += below << (((key ^ row) & pairs).bit_count() * _DIGIT)
    memo[key] = packed
    _dp_entries += 1
    return packed


def _new_memo() -> dict[int, int]:
    """A memo holding only the 1-vertex key 1: one ordering, no forward edge."""
    return {1: 1}


def _histogram_counts(h: int, key: int, memo: dict[int, int]) -> tuple[int, ...]:
    """N[k], k = 0..C(h,2): the digits of the DP entry of the h-vertex key."""
    packed = memo.get(key) or _packed(h, key, memo)
    mask = (1 << _DIGIT) - 1
    counts = tuple((packed >> (k * _DIGIT)) & mask for k in range(pair_count(h) + 1))
    if sum(counts) != factorial(h):
        raise AssertionError(f"histogram mass {sum(counts)} != {h}!")
    return counts


def _fas(h: int, key: int, memo: dict[int, int]) -> FasResult:
    """a(H) of the h-vertex key from best(S), the top digit of S's DP entry,
    read only along the backtrack.  The witness is rebuilt backwards: the
    last vertex of S is the smallest v with best(S\\{v}) + k_v = best(S)."""
    packed = memo.get(key) or _packed(h, key, memo)
    top = best = (packed.bit_length() - 1) // _DIGIT
    labels = list(range(h))
    order: list[int] = []
    for k in range(h, 1, -1):
        for i, (runs, row, pairs) in enumerate(_deletions(k)):
            sub = 0
            for mask, shift in runs:
                sub |= (key & mask) >> shift
            below = (memo[sub].bit_length() - 1) // _DIGIT
            if below + ((key ^ row) & pairs).bit_count() == best:
                break
        order.append(labels.pop(i))
        key, best = sub, below
    order.append(labels[0])
    return FasResult(pair_count(h) - top, top, tuple(order[::-1]))


def min_fas(t: Tournament) -> FasResult:
    """Exact a(H) by DP over vertex subsets, with a maximizing ordering;
    ties between last vertices go to the smallest vertex index."""
    return _fas(t.h, _code(t), _new_memo())


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
        # Context.ln is correctly rounded, so ln h lies strictly between the
        # neighbours of its result; at 0.30103 p + 2 digits their gap, carried
        # through the square root, is below 2^-p
        ctx = Context(prec=precision * 30103 // 100000 + 2)
        ln = ctx.ln(self.h)
        unit = 1 << precision
        # x^2 outward in units of 4^-p, then x outward in units of 2^-p
        low = floor(Fraction(ctx.next_minus(ln)) * unit * unit / self.h)
        high = ceil(Fraction(ctx.next_plus(ln)) * unit * unit / self.h)
        return Fraction(isqrt(low), unit), Fraction(isqrt(high - 1) + 1, unit)


def sqrt_log_over(h: int) -> CertifiedValue:
    """The bias value x = sqrt(ln(h)/h) at which low-feedback tournaments
    clear the dominance condition, as a certified irrational."""
    if h < 2:
        raise BadParameters(f"need h >= 2, got {h}")
    return _SqrtLogOver(h)


def fas_dominance_condition(h: int, a: int, x: Fraction | CertifiedValue) -> bool:
    """True iff (1+2x)^(f-b) (1-4x^2)^b > h! with f = C(h,2)-a, b = a.

    x enters through rational bounds [lo, hi] at escalating precision.  A
    rational x is its own bracket and is decided in the first pass; an
    irrational CertifiedValue is narrowed until its bracket separates the two
    sides, which only an exact tie would prevent (InconclusiveAtPrecision
    past _MAX_PRECISION bits).
    """
    m = pair_count(h)
    if h < 1 or a < 0 or 2 * a > m:
        raise BadParameters(f"need 0 <= a <= C(h,2)/2 = {Fraction(m, 2)}, got a={a}")
    fwd, bwd = m - a, a
    rhs = factorial(h)
    precision = 64
    while precision <= _MAX_PRECISION:
        lo, hi = x.bounds(precision) if isinstance(x, CertifiedValue) else (Fraction(x),) * 2
        if not 0 < lo <= hi < Fraction(1, 2):
            raise BadParameters(f"x must lie in (0, 1/2), got [{lo}, {hi}]")
        # (1+2x)^(f-b) increases and (1-4x^2)^b decreases on 0 <= x < 1/2
        if (1 + 2 * lo) ** (fwd - bwd) * (1 - 4 * hi * hi) ** bwd > rhs:
            return True
        if (1 + 2 * hi) ** (fwd - bwd) * (1 - 4 * lo * lo) ** bwd <= rhs:
            return False
        precision *= 2
    raise InconclusiveAtPrecision(f"could not separate at {_MAX_PRECISION} bits (h={h}, a={a})")
