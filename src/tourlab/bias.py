"""Exact bias polynomials, typical densities, and membership predicates.

For a tournament H on h vertices, the density of H in the ordered random
model with edge probability p is

    d(H,p) = (1/aut(H)) * sum_k N[k] * p^k * (1-p)^(m-k),    m = C(h,2),

where N[k] counts vertex orderings of H with exactly k forward edges.
The bias polynomial is the recentred form B(H,x) = d(H, x + 1/2); it is
even, B(H,0) is the typical density, and summing it over all isomorphism
classes gives the constant 1.

Both are one expansion, sum_k N[k] up^k down^(m-k), with the linear
factors (1+2x, 1-2x) for B and (p, 1-p) for d: the terms are packed
big integers at X = 2^D, and the coefficients are read back as the m+1
signed base-X digits of the sum.  Everything here is exact: coefficients
are integer numerators over aut(H) * 2^m (B) or aut(H) (d), converted to
Fraction at the boundary.  Classifying a catalog runs no canonical search,
since the catalog records aut(H), and ``in_F`` and ``bias_margin`` run
none: B(H,x)/d(H) is a ratio of B's numerators, in which aut cancels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from typing import Callable, Iterator, NamedTuple

from .core import CanonicalForm, Tournament, aut_size, pair_count
from .enumeration import TournamentCatalog
from .fas import FasResult, _fas, _histogram_counts, _new_memo

__all__ = [
    "ForwardHistogram",
    "DensityPolynomialP",
    "BiasPolynomial",
    "ClassificationRecord",
    "OddCoefficientResidue",
    "XOutOfRange",
    "forward_histogram",
    "density_poly_p",
    "bias_polynomial",
    "typical_density",
    "in_bias_subset",
    "in_F",
    "bias_margin",
    "classify_catalog",
]

class OddCoefficientResidue(ArithmeticError):
    """A bias polynomial came out with a nonzero odd coefficient, which is
    impossible for exact arithmetic and signals a bug."""


class XOutOfRange(ValueError):
    """Bias value x outside the open interval (0, 1/2)."""


@dataclass(frozen=True)
class ForwardHistogram:
    """counts[k] = number of vertex orderings with exactly k forward edges."""

    h: int
    counts: tuple[int, ...]

    @property
    def m(self) -> int:
        return pair_count(self.h)

    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class DensityPolynomialP:
    """d(H,p) as an exact polynomial in p, coefficients ascending."""

    h: int
    coeffs: tuple[Fraction, ...]

    def evaluate(self, p: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc


@dataclass(frozen=True)
class BiasPolynomial:
    """B(H,x): even polynomial with exact rational coefficients.

    ``coeffs`` holds (exponent, coefficient) pairs with even exponents in
    ascending order; zero coefficients are omitted except the constant
    term, which is d(H).
    """

    h: int
    coeffs: tuple[tuple[int, Fraction], ...]

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0][1]

    def coeff(self, exponent: int) -> Fraction:
        for e, c in self.coeffs:
            if e == exponent:
                return c
        return Fraction(0)

    def evaluate(self, x: Fraction) -> Fraction:
        x2 = Fraction(x) * Fraction(x)
        acc = Fraction(0)
        for e, c in reversed(self.coeffs):
            acc += c * x2 ** (e // 2)
        return acc

    def __str__(self) -> str:
        parts = []
        for e, c in self.coeffs:
            if e == 0:
                term = str(c)
            elif c == 1:
                term = f"x^{e}"
            elif c == -1:
                term = f"-x^{e}"
            else:
                term = f"{c}*x^{e}"
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True)
class ClassificationRecord:
    """Per-isomorphism-class bundle of computed invariants."""

    canonical_form: CanonicalForm
    aut: int
    typical_density: Fraction
    bias: BiasPolynomial
    fas: FasResult
    in_Bh: bool


def forward_histogram(t: Tournament) -> ForwardHistogram:
    """Exact ordering histogram: the full-set entry of the subset DP that
    also gives a(H) (see ``tourlab.fas``)."""
    return ForwardHistogram(t.h, _histogram_counts(t, _new_memo()))


_Linear = tuple[int, int]  # a linear factor as (constant, x-coefficient)


@lru_cache(maxsize=None)
def _packed_terms(h: int, up: _Linear, down: _Linear) -> tuple[int, int, tuple[int, ...]]:
    """D, the digit offset and the terms up(X)^k down(X)^(m-k), X = 2^D.  A
    coefficient of sum_k N[k] term[k] is at most h! * (max factor 1-norm)^m,
    below X/4, in absolute value, so adding X/2 to each digit keeps it in [0, X)."""
    m = pair_count(h)
    norm = max(abs(up[0]) + abs(up[1]), abs(down[0]) + abs(down[1]))
    width = (factorial(h) * norm**m).bit_length() + 2
    offset = sum(1 << (width * e + width - 1) for e in range(m + 1))
    up_x, down_x = up[0] + (up[1] << width), down[0] + (down[1] << width)
    return width, offset, tuple(up_x**k * down_x ** (m - k) for k in range(m + 1))


def _expand(h: int, counts: tuple[int, ...], up: _Linear, down: _Linear) -> list[int]:
    """Integer coefficients, ascending, of sum_k counts[k] up^k down^(m-k)."""
    width, offset, terms = _packed_terms(h, up, down)
    packed = offset + sum(count * term for count, term in zip(counts, terms) if count)
    mask, half = (1 << width) - 1, 1 << (width - 1)
    return [((packed >> (width * e)) & mask) - half for e in range(len(terms))]


def bias_polynomial(t: Tournament) -> BiasPolynomial:
    """B(H,x) = d(H, x + 1/2), exactly expanded.

    Odd coefficients must cancel; a nonzero residue raises
    OddCoefficientResidue.
    """
    return _bias_polynomial(t.h, aut_size(t), _bias_from_counts(t.h, forward_histogram(t).counts))


def _bias_from_counts(h: int, counts: tuple[int, ...]) -> tuple[int, ...]:
    """The numerators over aut 2^m of B(H,x)'s coefficients of x^0, x^2, ...,
    x^(2 floor(m/2)), from N[k]: 2^m aut B = sum_k N[k] (1+2x)^k (1-2x)^(m-k).
    The first is sum_k N[k] = h!."""
    nums = _expand(h, counts, (1, 2), (1, -2))
    for e in range(1, len(nums), 2):
        if nums[e]:
            raise OddCoefficientResidue(f"odd coefficient x^{e} with numerator {nums[e]} "
                                        f"for h={h}, histogram {counts}")
    return tuple(nums[::2])


def _bias_terms(h: int, aut: int, nums: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """The terms that B(H,x) lists, from its even numerators over aut 2^m:
    (exponent, numerator, denominator) in lowest terms for every nonzero
    coefficient, and for the constant, d(H), also when it is zero."""
    den = aut << pair_count(h)
    kept = [(2 * i, num, gcd(num, den)) for i, num in enumerate(nums) if num or not i]
    return [(e, num // common, den // common) for e, num, common in kept]


def _bias_polynomial(h: int, aut: int, nums: tuple[int, ...]) -> BiasPolynomial:
    """B(H,x) from its even numerators over aut 2^m."""
    return BiasPolynomial(h, tuple((e, Fraction(num, den))
                                   for e, num, den in _bias_terms(h, aut, nums)))


def _rises_at_zero(nums: tuple[int, ...]) -> bool:
    """The first nonzero even numerator above the constant is positive: the
    lowest-order nonzero coefficient of B(H,x) - d(H) is."""
    return next((num for num in nums[1:] if num), 0) > 0


def density_poly_p(t: Tournament) -> DensityPolynomialP:
    """d(H,p) as an exact polynomial: (1/aut) sum_k N[k] p^k (1-p)^(m-k)."""
    nums = _expand(t.h, forward_histogram(t).counts, (0, 1), (1, -1))
    while len(nums) > 1 and nums[-1] == 0:
        nums.pop()
    aut = aut_size(t)
    return DensityPolynomialP(t.h, tuple(Fraction(n, aut) for n in nums))


def typical_density(t: Tournament) -> Fraction:
    """d(H) = h! 2^(-C(h,2)) / aut(H); equals B(H,0)."""
    return _typical(t.h, aut_size(t))


def _typical(h: int, aut: int) -> Fraction:
    """h! 2^(-C(h,2)) / aut: the typical density of a class with ``aut``
    automorphisms."""
    return Fraction(factorial(h), aut << pair_count(h))


def in_bias_subset(t: Tournament) -> bool:
    """True iff 0 is a local minimum of B(H,x): the lowest-order nonzero
    coefficient of B(H,x) - d(H) is positive.

    For h <= 2 the difference is identically zero (the only class is
    transitive with density 1) and there is no strict local minimum;
    returns False.
    """
    return _rises_at_zero(_bias_from_counts(t.h, forward_histogram(t).counts))


def in_F(t: Tournament, x: Fraction) -> bool:
    """True iff B(H,x) > d(H) at the exact rational bias x in (0, 1/2)."""
    return _gain(_bias_from_counts(t.h, forward_histogram(t).counts), _check_x(x)) > 0


def bias_margin(patterns: list[Tournament], x: Fraction) -> Fraction:
    """The exact dominance margin min B(H,x)/d(H) - 1 over the patterns at a
    bias 0 < x < 1/2 (else XOutOfRange, as in ``in_F``): positive exactly
    when every pattern is in F(h,x), and the natural beta to demand of a
    construction targeting them."""
    if not patterns:
        raise ValueError("patterns must be nonempty")
    x = _check_x(x)
    return min(_gain(_bias_from_counts(t.h, forward_histogram(t).counts), x) for t in patterns)


def _check_x(x: Fraction) -> Fraction:
    """x as a Fraction; raises XOutOfRange unless 0 < x < 1/2."""
    x = Fraction(x)
    if not 0 < x < Fraction(1, 2):
        raise XOutOfRange(f"x must lie in (0, 1/2), got {x}")
    return x


def _gain(nums: tuple[int, ...], x: Fraction) -> Fraction:
    """B(H,x)/d(H) - 1 from B's even numerators, for an x already checked by
    ``_check_x``: with x^2 = p/q and M = len(nums) - 1 it is
    sum_(i>=1) nums[i] p^i q^(M-i) / (nums[0] q^M), since aut 2^m cancels."""
    p, q = (x * x).as_integer_ratio()
    top, scale = 0, 1
    for num in reversed(nums[1:]):  # Horner in p/q, times q^M
        top, scale = top * p + num * scale, scale * q
    return Fraction(top * p, nums[0] * scale)


class _Record(NamedTuple):
    """One class's classification in integers: B(H,x)'s even numerators over
    aut 2^m (``_bias_from_counts``) and the feedback arc set."""

    h: int
    bits: str
    aut: int
    nums: tuple[int, ...]
    fas: FasResult

    @property
    def in_Bh(self) -> bool:
        return _rises_at_zero(self.nums)


def _classified(
    catalog: TournamentCatalog, progress: Callable[[str], None] | None = None
) -> Iterator[_Record]:
    """One integer record per class, in catalog order, yielded as soon as it
    exists, so a caller that consumes records as they come holds one
    subset-DP memo.  aut(H) is the catalog's, so no canonical search runs.

    Items are classified in blocks of 4096 consecutive classes, each with
    one subset-DP memo: neighbouring canonical forms share most of their
    sub-tournaments.  ``progress`` receives a status line per block.
    """
    h, items, auts = catalog.h, catalog.items, catalog.auts
    step = 4096
    for start in range(0, len(items), step):
        memo = _new_memo()
        for t, aut in zip(items[start : start + step], auts[start : start + step]):
            nums = _bias_from_counts(h, _histogram_counts(t, memo))
            yield _Record(h, t.bits, aut, nums, _fas(t, memo))
        if progress is not None:
            progress(f"classified {min(start + step, len(items))}/{len(items)}")


def classify_catalog(
    catalog: TournamentCatalog, progress: Callable[[str], None] | None = None
) -> list[ClassificationRecord]:
    """One ClassificationRecord per class, in catalog order, from the
    records of ``_classified``: the one place that builds their Fractions."""
    return [ClassificationRecord(CanonicalForm(rec.h, rec.bits), rec.aut, _typical(rec.h, rec.aut),
                                 _bias_polynomial(rec.h, rec.aut, rec.nums), rec.fas, rec.in_Bh)
            for rec in _classified(catalog, progress)]
