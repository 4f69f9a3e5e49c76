from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings

from tourlab import bias as bias_module
from tourlab import core
from tourlab.bias import (
    OddCoefficientResidue,
    XOutOfRange,
    _bias_from_counts,
    _gain,
    bias_margin,
    bias_polynomial,
    classify_catalog,
    density_poly_p,
    forward_histogram,
    in_F,
    in_bias_subset,
    typical_density,
)
from tourlab.core import (
    Tournament,
    aut_size,
    canonical_form,
    cyclic3,
    pair_count,
    reverse,
    transitive,
)
from tourlab.enumeration import TournamentCatalog
from tourlab.fas import min_fas

import oracles
from strategies import tournaments

HALF = Fraction(1, 2)


class TestForwardHistogram:
    def test_transitive3(self):
        assert forward_histogram(transitive(3)).counts == (1, 2, 2, 1)

    def test_cyclic3(self):
        assert forward_histogram(cyclic3()).counts == (0, 3, 3, 0)

    @pytest.mark.parametrize("h", [3, 4, 5])
    def test_matches_permutation_enumeration(self, catalogs, h):
        for t in catalogs[h]:
            assert forward_histogram(t).counts == oracles.brute_histogram(t)

    @pytest.mark.parametrize("h", range(3, 8))
    def test_mass_and_symmetry(self, catalogs, h):
        for t in catalogs[h]:
            hist = forward_histogram(t)
            assert hist.total() == factorial(h)
            m = hist.m
            assert all(hist.counts[k] == hist.counts[m - k] for k in range(m + 1))

    @pytest.mark.parametrize("h", [3, 4, 5])
    def test_all_forward_orderings_iff_transitive(self, catalogs, h):
        for t in catalogs[h]:
            hist = forward_histogram(t)
            transitive_class = t.bits == "0" * t.m
            assert hist.counts[-1] == (1 if transitive_class else 0)


class TestDensityPolyP:
    def test_known_t3(self):
        assert density_poly_p(transitive(3)).coeffs == (
            Fraction(1), Fraction(-1), Fraction(1),
        )

    def test_known_c3(self):
        assert density_poly_p(cyclic3()).coeffs == (
            Fraction(0), Fraction(1), Fraction(-1),
        )

    @pytest.mark.parametrize("h", [3, 4, 5])
    def test_half_point_equals_typical(self, catalogs, h):
        for t in catalogs[h]:
            assert density_poly_p(t).evaluate(HALF) == typical_density(t)

    def test_symmetric_under_p_flip(self, catalogs):
        for t in catalogs[5]:
            poly = density_poly_p(t)
            for p in (Fraction(1, 3), Fraction(2, 7), Fraction(9, 10)):
                assert poly.evaluate(p) == poly.evaluate(1 - p)


class TestBiasPolynomial:
    def test_known_small_cases(self):
        assert bias_polynomial(transitive(3)).coeffs == (
            (0, Fraction(3, 4)), (2, Fraction(1)),
        )
        assert bias_polynomial(cyclic3()).coeffs == (
            (0, Fraction(1, 4)), (2, Fraction(-1)),
        )
        assert bias_polynomial(transitive(4)).coeffs == (
            (0, Fraction(3, 8)), (2, Fraction(2)), (4, Fraction(2)),
        )
        assert bias_polynomial(transitive(5)).coeffs == (
            (0, Fraction(15, 128)), (2, Fraction(25, 16)),
            (4, Fraction(6)), (6, Fraction(7)), (8, Fraction(2)),
        )

    def test_coeff(self):
        bias = bias_polynomial(cyclic3())
        assert bias.coeff(0) == bias.constant == Fraction(1, 4)
        assert bias.coeff(2) == -1
        assert bias.coeff(4) == 0  # beyond the degree
        assert bias.coeff(1) == 0  # B(H,x) is even in x

    @pytest.mark.parametrize("h", [3, 4])
    def test_matches_permutation_sum_expansion(self, catalogs, h):
        for t in catalogs[h]:
            expect = oracles.brute_bias_coeffs(t, aut_size(t))
            assert dict(bias_polynomial(t).coeffs) == expect

    def test_substitution_consistency_h5(self, catalogs):
        # B(H,x) must equal d(H, x+1/2) pointwise
        rng = random.Random(12)
        for t in catalogs[5]:
            bias = bias_polynomial(t)
            poly = density_poly_p(t)
            for _ in range(4):
                x = Fraction(rng.randrange(-49, 50), 100)
                assert bias.evaluate(x) == poly.evaluate(x + HALF)

    @pytest.mark.parametrize("h", range(2, 7))
    def test_constant_term_is_typical_density(self, catalogs, h):
        for t in catalogs[h]:
            assert bias_polynomial(t).constant == typical_density(t)

    @pytest.mark.parametrize("h", range(3, 7))
    def test_endpoint_values(self, catalogs, h):
        for t in catalogs[h]:
            value = bias_polynomial(t).evaluate(HALF)
            assert value == (1 if t.bits == "0" * t.m else 0)

    @pytest.mark.parametrize("h", range(3, 7))
    def test_sum_identity(self, catalogs, h):
        total: dict[int, Fraction] = {}
        for t in catalogs[h]:
            for e, c in bias_polynomial(t).coeffs:
                total[e] = total.get(e, Fraction(0)) + c
        assert total[0] == 1
        assert all(c == 0 for e, c in total.items() if e > 0)

    def test_odd_residue_raises(self):
        # not a palindrome, so the odd coefficients of the expansion survive:
        # (1-2x)^3 + 5 (1+2x)^3 has x-coefficient 24
        with pytest.raises(OddCoefficientResidue, match=r"x\^1 with numerator 24 for h=3"):
            _bias_from_counts(3, (1, 0, 0, 5))

    def test_converse_duality(self, catalogs):
        for h in (3, 4, 5):
            for t in catalogs[h]:
                assert bias_polynomial(reverse(t)).coeffs == bias_polynomial(t).coeffs


class TestBiasProperties:
    @given(tournaments(3, 6))
    @settings(max_examples=40, deadline=None)
    def test_histogram_reversal_symmetry(self, t):
        hist = forward_histogram(t)
        assert hist.counts == hist.counts[::-1]

    @given(tournaments(3, 6))
    @settings(max_examples=40, deadline=None)
    def test_converse_leaves_bias_unchanged(self, t):
        assert bias_polynomial(reverse(t)).coeffs == bias_polynomial(t).coeffs

    @given(tournaments(3, 6))
    @settings(max_examples=40, deadline=None)
    def test_constant_is_typical_density(self, t):
        assert bias_polynomial(t).constant == typical_density(t)


class TestUpperRange:
    def test_h10_supported(self):
        t = transitive(10)
        assert forward_histogram(t).total() == factorial(10)
        assert forward_histogram(t).counts[-1] == 1
        assert typical_density(t) == Fraction(factorial(10), 1 << pair_count(10))
        assert bias_polynomial(t).evaluate(HALF) == 1

    @pytest.mark.parametrize("t", [
        transitive(10),
        Tournament(10, "".join(random.Random(10).choice("01") for _ in range(45))),
    ], ids=["transitive", "random"])
    def test_h10_bias_matches_density(self, t):
        # the widest packing: m = 45 digits
        bias = bias_polynomial(t)
        poly = density_poly_p(t)
        assert bias.constant == typical_density(t)
        for x in (Fraction(1, 10), Fraction(-1, 3), Fraction(2, 5)):
            assert bias.evaluate(x) == poly.evaluate(x + HALF)


class TestTypicalDensity:
    def test_examples(self, catalogs):
        assert typical_density(transitive(5)) == Fraction(15, 128)
        assert typical_density(cyclic3()) == Fraction(1, 4)
        d_class = [t for t in catalogs[4] if aut_size(t) == 3]
        assert len(d_class) == 2  # D and its converse
        assert all(typical_density(t) == Fraction(1, 8) for t in d_class)


class TestMembership:
    def test_b3_is_only_transitive(self):
        assert in_bias_subset(transitive(3))
        assert not in_bias_subset(cyclic3())

    def test_c4_not_in_b4(self, catalogs):
        c4 = [
            t for t in catalogs[4]
            if dict(bias_polynomial(t).coeffs).get(2) == Fraction(-2)
        ]
        assert len(c4) == 1
        assert not in_bias_subset(c4[0])

    def test_half_of_h5(self, catalogs):
        assert sum(in_bias_subset(t) for t in catalogs[5]) == 6

    def test_degenerate_h2(self):
        assert not in_bias_subset(transitive(2))

    def test_runs_no_canonical_search(self, catalogs):
        # the sign of a numerator over aut 2^m does not depend on aut
        before = core._canon_searches
        assert sum(in_bias_subset(t) for t in catalogs[6]) == 25
        assert core._canon_searches == before

    def test_in_f_examples(self, catalogs):
        assert in_F(transitive(4), Fraction(1, 10))
        for x in (Fraction(1, 10), Fraction(1, 4), Fraction(49, 100)):
            assert not in_F(cyclic3(), x)
        d_class = [t for t in catalogs[4] if aut_size(t) == 3]
        for t in d_class:
            for x in (Fraction(1, 10), Fraction(1, 3)):
                assert not in_F(t, x)

    def test_in_f_domain(self):
        with pytest.raises(XOutOfRange):
            in_F(transitive(3), Fraction(1, 2))
        with pytest.raises(XOutOfRange):
            in_F(transitive(3), Fraction(0))


GAIN_XS = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(49, 100),
           Fraction(12345678901, 24691357803)]


def _numerators(t: Tournament) -> tuple[int, ...]:
    return _bias_from_counts(t.h, forward_histogram(t).counts)


class TestGain:
    """_gain(nums, x) = B(H,x)/d(H) - 1 from the integer numerators alone."""

    @pytest.mark.parametrize("h", range(1, 8))
    def test_equals_the_fraction_polynomial(self, catalogs, h):
        for t in catalogs[h]:
            b, nums = bias_polynomial(t), _numerators(t)
            for x in GAIN_XS:
                assert _gain(nums, x) == b.evaluate(x) / b.constant - 1, (t.bits, x)

    @pytest.mark.parametrize("h", range(1, 6))
    def test_equals_the_brute_expansion(self, catalogs, h):
        for t in catalogs[h]:
            coeffs = oracles.brute_bias_coeffs(t, oracles.brute_aut(t))
            for x in GAIN_XS:
                value = sum(c * x**e for e, c in coeffs.items())
                assert _gain(_numerators(t), x) == value / coeffs[0] - 1, (t.bits, x)

    @pytest.mark.parametrize("h", [1, 2])
    def test_zero_below_three_vertices(self, h):
        for x in GAIN_XS:
            assert _gain(_numerators(transitive(h)), x) == 0

    def test_in_f_and_margin_run_no_canonical_search(self, catalogs):
        # aut cancels in B(H,x)/d(H), so neither needs a class's aut
        items, x = list(catalogs[6].items), Fraction(1, 10)
        before = core._canon_searches
        members = [t for t in items if in_F(t, x)]
        margin = bias_margin(members, x)
        assert core._canon_searches == before
        assert len(members) == 25 and margin > 0 >= bias_margin(items, x)


class TestClassifyCatalog:
    @pytest.mark.parametrize("h,b_count", [(5, 6), (6, 25), (7, 199)])
    def test_bh_counts(self, catalogs, h, b_count):
        records = classify_catalog(catalogs[h])
        assert sum(r.in_Bh for r in records) == b_count

    def test_record_consistency(self, catalogs):
        for h in (5, 6):
            for t, rec in zip(catalogs[h], classify_catalog(catalogs[h])):
                assert rec.canonical_form == canonical_form(t)
                assert rec.aut == aut_size(t)
                assert rec.bias == bias_polynomial(t)
                if h == 5:
                    assert rec.aut == oracles.brute_aut(t)
                assert rec.typical_density == Fraction(
                    factorial(h), rec.aut * (1 << pair_count(h))
                )
                assert rec.bias.constant == rec.typical_density
                assert rec.fas.max_forward == oracles.brute_max_forward(t)
                assert oracles.forward_edges(t, rec.fas.witness_order) == rec.fas.max_forward
                assert rec.in_Bh == in_bias_subset(t)

    @pytest.mark.parametrize("h", [5, 6, 7])
    def test_records_equal_an_independent_build(self, catalogs, h):
        # the records hold integers and the catalog's auts; here every value
        # they are read as comes from the public one-tournament API
        expected = [
            (canonical_form(t), aut_size(t), typical_density(t), bias_polynomial(t),
             min_fas(t), in_bias_subset(t))
            for t in catalogs[h]
        ]
        assert [
            (rec.canonical_form, rec.aut, rec.typical_density, rec.bias, rec.fas, rec.in_Bh)
            for rec in classify_catalog(catalogs[h])
        ] == expected

    def test_records_build_fractions_only_when_read(self, catalogs, monkeypatch):
        built = []

        class CountingFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(bias_module, "Fraction", CountingFraction)
        records = classify_catalog(catalogs[6])
        assert len(records) == 56 and built == []
        t, rec = list(catalogs[6].items)[-1], records[-1]
        bias = rec.bias
        read_bias = len(built)
        density = rec.typical_density
        assert 0 < read_bias < len(built)
        assert bias == bias_polynomial(t) and density == typical_density(t)

    def test_one_memo_and_progress_line_per_block(self, catalogs, monkeypatch):
        # 4098 classes: a full block and two more
        codes, auts = catalogs[3].codes * 2049, catalogs[3].auts * 2049
        real_memo, memos, lines = bias_module._new_memo, [], []

        def new_memo():
            memos.append(real_memo())
            return memos[-1]

        monkeypatch.setattr(bias_module, "_new_memo", new_memo)
        records = classify_catalog(TournamentCatalog(3, codes, auts), progress=lines.append)
        assert len(memos) == 2
        assert lines == ["classified 4096/4098", "classified 4098/4098"]
        assert records == classify_catalog(catalogs[3]) * 2049
