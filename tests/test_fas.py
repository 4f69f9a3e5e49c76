from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from tourlab.bias import bias_polynomial, classify_catalog, forward_histogram, in_F
from tourlab.core import Tournament, cyclic3, induced, pair_count, reverse, transitive
from tourlab.fas import (
    _DIGIT,
    BadParameters,
    CertifiedValue,
    InconclusiveAtPrecision,
    _code,
    _deletions,
    _fas,
    _histogram_counts,
    _new_memo,
    fas_dominance_condition,
    in_A,
    min_fas,
    sqrt_log_over,
)

import oracles
from strategies import tournaments


class TestMinFas:
    @pytest.mark.parametrize("h", range(2, 9))
    def test_transitive_has_zero(self, h):
        assert min_fas(transitive(h)).a == 0

    def test_cyclic3(self):
        result = min_fas(cyclic3())
        assert result.a == 1
        assert result.max_forward == 2

    @pytest.mark.parametrize("h", [2, 3, 4, 5])
    def test_matches_ordering_brute_force(self, catalogs, h):
        for t in catalogs[h]:
            result = min_fas(t)
            assert result.max_forward == oracles.brute_max_forward(t)
            assert result.a == t.m - result.max_forward

    @pytest.mark.parametrize("h", range(3, 8))
    def test_witness_recounts(self, catalogs, h):
        for t in catalogs[h]:
            result = min_fas(t)
            assert sorted(result.witness_order) == list(range(h))
            assert oracles.forward_edges(t, result.witness_order) == result.max_forward

    def test_zero_iff_transitive(self, catalogs):
        for t in catalogs[5]:
            assert (min_fas(t).a == 0) == (t.bits == "0" * t.m)

    def test_reversal_invariance(self, catalogs):
        for h in (4, 5, 6):
            for t in catalogs[h]:
                assert min_fas(reverse(t)).a == min_fas(t).a

    def test_spencer_upper_bound_h7(self, catalogs):
        top = max(min_fas(t).a for t in catalogs[7])
        assert Fraction(top) <= Fraction(pair_count(7), 2)

    def test_deterministic_witness(self):
        t = cyclic3()
        assert min_fas(t).witness_order == min_fas(t).witness_order
        # smallest-index tie-break: both rotations reach 2 forward edges,
        # the reconstruction must settle on a fixed one
        assert min_fas(t).witness_order == (1, 2, 0)


def _key_tournament(key: int) -> Tournament:
    """The tournament a DP key names: its bits follow the leading 1."""
    bits = bin(key)[3:]
    h = next(h for h in range(1, 11) if pair_count(h) == len(bits))
    return Tournament(h, bits)


class TestOrderingTable:
    """The subset DP's table is a memo keyed by induced sub-tournament codes."""

    @pytest.mark.parametrize("h", range(10))
    def test_subset_pairs_list_each_member_once_ascending(self, h):
        # the DP's predecessors of S: (S without v, in-degree of v) for v in S, ascending
        plan = _deletions(h)
        assert len(plan) == h
        if h == 0:
            return
        rng = random.Random(h)
        t = Tournament(h, "".join(rng.choice("01") for _ in range(pair_count(h))))
        key = _code(t)
        for v, (runs, row, pairs) in enumerate(plan):
            sub = 0
            for mask, shift in runs:
                sub |= (key & mask) >> shift
            others = [u for u in range(h) if u != v]
            assert sub == (_code(induced(t, others)) if others else 1), (t.bits, v)
            indegree = sum(t.has_edge(u, v) for u in range(h) if u != v)
            assert ((key ^ row) & pairs).bit_count() == indegree

    @pytest.mark.parametrize("seed", range(12))
    def test_every_entry_matches_brute_histogram(self, seed):
        rng = random.Random(seed)
        h = 2 + seed % 6
        t = Tournament(h, "".join(rng.choice("01") for _ in range(pair_count(h))))
        memo = _new_memo()
        _histogram_counts(h, _code(t), memo)
        # exactly the codes of the induced sub-tournaments, one per subset
        subsets = [[v for v in range(h) if (s >> v) & 1] for s in range(1, 1 << h)]
        assert set(memo) == {_code(induced(t, sub)) for sub in subsets}, t.bits
        for key, packed in memo.items():
            sub = _key_tournament(key)
            expected = sum(c << (k * _DIGIT) for k, c in enumerate(oracles.brute_histogram(sub)))
            assert packed == expected, (t.bits, key)

    @pytest.mark.parametrize("h", range(1, 8))
    def test_shared_memo_equals_fresh_memo(self, catalogs, h):
        shared = _new_memo()
        for t in catalogs[h]:
            assert _histogram_counts(h, _code(t), shared) == forward_histogram(t).counts, t.bits
            assert _fas(h, _code(t), shared) == min_fas(t), t.bits

    @pytest.mark.parametrize("h", range(1, 8))
    def test_catalog_records_equal_single_tournament_results(self, catalogs, h):
        records = classify_catalog(catalogs[h])
        for t, record in zip(catalogs[h], records, strict=True):
            assert record.bias == bias_polynomial(t), t.bits
            assert record.fas == min_fas(t), t.bits


class TestFasProperties:
    @given(tournaments(3, 7))
    @settings(max_examples=40, deadline=None)
    def test_reversal_invariance(self, t):
        assert min_fas(reverse(t)).a == min_fas(t).a

    @given(tournaments(3, 7))
    @settings(max_examples=40, deadline=None)
    def test_witness_attains_max_forward(self, t):
        result = min_fas(t)
        assert oracles.forward_edges(t, result.witness_order) == result.max_forward
        assert 2 * result.a <= t.m


class TestInA:
    def test_transitive_comfortably_inside(self):
        assert in_A(transitive(6), 7)

    def test_cyclic3_excluded_at_t1(self):
        assert not in_A(cyclic3(), 1)

    def test_everything_in_at_zero(self, catalogs):
        for t in catalogs[5]:
            assert in_A(t, 0)

    def test_rational_threshold(self):
        # a(C3)=1, C(3,2)/2 - 1/2 = 1 exactly
        assert in_A(cyclic3(), Fraction(1, 2))

    def test_negative_threshold_rejected(self):
        with pytest.raises(BadParameters):
            in_A(cyclic3(), -1)


class TestDominanceCondition:
    def test_small_exact_false(self):
        # (3/2)^3 = 3.375 < 6
        assert fas_dominance_condition(3, 0, Fraction(1, 4)) is False

    def test_balanced_orderings_never_pass(self):
        # f = b: lhs = (1-4x^2)^b <= 1 < h!
        for h, a in ((4, 3), (5, 5)):
            assert fas_dominance_condition(h, a, Fraction(1, 5)) is False

    def test_certified_true_cases(self):
        assert fas_dominance_condition(30, 0, sqrt_log_over(30)) is True
        # h=100: a = floor(C(100,2)/2 - 100^1.5 sqrt(ln 100)) = 328
        assert fas_dominance_condition(100, 328, sqrt_log_over(100)) is True

    @pytest.mark.parametrize("precision", [64, 1024])
    @pytest.mark.parametrize("h", [9, 12, 30, 100, 10**6])
    def test_sqrt_log_over_brackets_the_root(self, h, precision):
        # x = sqrt(ln(h)/h) is the root of e^(h x^2) = h
        lo, hi = sqrt_log_over(h).bounds(precision)
        bits = precision + 64
        assert oracles.exp_bounds(h * lo * lo, bits)[1] < h
        assert h < oracles.exp_bounds(h * hi * hi, bits)[0]
        assert 0 < hi - lo <= Fraction(2, 1 << precision)

    def test_certified_false_case(self):
        assert fas_dominance_condition(12, 30, sqrt_log_over(12)) is False

    def test_parameter_validation(self):
        with pytest.raises(BadParameters):
            fas_dominance_condition(30, -86, sqrt_log_over(30))
        with pytest.raises(BadParameters):
            fas_dominance_condition(4, 4, Fraction(1, 10))
        with pytest.raises(BadParameters):
            fas_dominance_condition(4, 1, Fraction(1, 2))

    def test_rational_equals_interval_on_boundary_free_input(self):
        class Pinned(CertifiedValue):
            def bounds(self, precision):
                return Fraction(1, 4), Fraction(1, 4)

        # same decision through both evaluation paths
        exact = fas_dominance_condition(3, 0, Fraction(1, 4))
        boxed = fas_dominance_condition(3, 0, Pinned())
        assert exact == boxed

    def test_bounds_that_never_narrow_are_inconclusive(self):
        asked = []

        class Stuck(CertifiedValue):
            # at h=4, a=0: (1 + 2 lo)^6 < 24 < (1 + 2 hi)^6, at every precision
            def bounds(self, precision):
                asked.append(precision)
                return Fraction(3, 10), Fraction(9, 20)

        with pytest.raises(InconclusiveAtPrecision, match="at 16384 bits"):
            fas_dominance_condition(4, 0, Stuck())
        assert asked == [64 << k for k in range(9)]  # 64, 128, ..., 16384

    @pytest.mark.parametrize("x", [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10)])
    def test_sufficiency_implies_membership(self, catalogs, x):
        for h in range(3, 7):
            for t in catalogs[h]:
                if fas_dominance_condition(h, min_fas(t).a, x):
                    assert in_F(t, x)
