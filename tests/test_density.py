from __future__ import annotations

import math
import os
import statistics
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import numpy as np
import pytest

from tourlab import core, density
from tourlab.bias import XOutOfRange, density_poly_p
from tourlab.construct import build_tnp
from tourlab.core import Tournament, aut_size, canonical_form, cyclic3, pair_count, transitive
from tourlab.density import (
    TooLarge,
    bias_margin,
    density_census,
    density_exact,
    density_montecarlo,
    dominance_report,
)

import oracles

LONG = os.environ.get("TOURLAB_LONG") == "1"


class TestExact:
    def test_transitive_host(self):
        g = build_tnp(24, 1, seed=0)
        assert density_exact(g, transitive(4)).estimate == 1
        assert density_exact(g, cyclic3()).estimate == 0

    def test_against_subset_isomorphism_brute_force(self):
        g = build_tnp(10, Fraction(1, 2), seed=77)
        for pattern in (transitive(3), cyclic3(), transitive(4)):
            assert density_exact(g, pattern).estimate == oracles.brute_density(g, pattern)

    @pytest.mark.parametrize("h", [3, 4, 5])
    def test_partition_of_unity(self, catalogs, h):
        g = build_tnp(20, Fraction(1, 2), seed=11)
        census = density_census(g, h)
        assert sum(census.values()) == comb(20, h)
        total = sum(
            Fraction(census.get(t.bits, 0), comb(20, h)) for t in catalogs[h]
        )
        assert total == 1

    def test_denominator_is_binomial(self):
        g = build_tnp(20, Fraction(1, 2), seed=11)
        report = density_exact(g, transitive(4))
        assert comb(20, 4) % report.estimate.denominator == 0

    def test_isomorphism_soundness(self):
        g = build_tnp(18, Fraction(2, 5), seed=4)
        base = density_exact(g, transitive(4)).estimate
        relabeled = transitive(4).relabel([2, 0, 3, 1])
        assert density_exact(g, relabeled).estimate == base

    def test_guard(self):
        g = build_tnp(200, Fraction(1, 2), seed=1)
        with pytest.raises(TooLarge):
            density_exact(g, transitive(5))

    def test_pattern_larger_than_host(self, monkeypatch):
        # no h-subset of a smaller host exists; drawing one would never end
        def no_draw(*args):
            raise AssertionError("sampled subsets for a pattern larger than the host")

        monkeypatch.setattr(density, "_sample_subsets", no_draw)
        g = build_tnp(4, Fraction(1, 2), seed=1)
        with pytest.raises(ValueError):
            density_exact(g, transitive(5))
        with pytest.raises(ValueError):
            density_montecarlo(g, transitive(5), 10, seed=1)
        with pytest.raises(ValueError):
            dominance_report([transitive(5)], g, Fraction(0), "montecarlo", 10, seed=1)


class TestMonteCarloDrawGuard:
    # n^h / (n)_h, the expected draws per kept sample: 13.0 at (8, 6), 23.3 at
    # (7, 6), 10.7 at (4, 4), 26.0 at (5, 5) and 2755.7 at (10, 10)
    @pytest.mark.parametrize("n, h", [(8, 6), (4, 4), (2048, 8)])
    def test_accepts_at_or_below_guard(self, n, h):
        assert n**h <= density.MC_DRAW_GUARD * math.perm(n, h)
        assert density._census_total(n, h, "montecarlo", 10, seed=1) == 10

    @pytest.mark.parametrize("n, h", [(7, 6), (5, 5), (10, 10)])
    def test_refuses_past_guard_before_drawing(self, monkeypatch, n, h):
        def no_draw(*args):
            raise AssertionError("sampled subsets past the draw guard")

        monkeypatch.setattr(density, "_sample_subsets", no_draw)
        g = build_tnp(n, Fraction(1, 2), seed=1)
        with pytest.raises(TooLarge, match=f"use exact mode: C\\({n},{h}\\) = {comb(n, h)}"):
            dominance_report([transitive(h)], g, None, "montecarlo", 10, seed=1)
        exact = density_exact(g, transitive(h)).estimate  # the mode the message points to
        assert comb(n, h) % exact.denominator == 0

    def test_accepted_request_samples_as_before(self):
        # (8, 6) passes the guard; 58 of the 500 draws hit this class, as
        # they did before the guard existed
        g = build_tnp(8, Fraction(1, 2), seed=1)
        report = density_montecarlo(g, Tournament(6, "000010010000001"), 500, seed=3)
        assert report.estimate == 58 / 500


class TestSearchGuard:
    # above h=7 each distinct code costs a canonical search, so exact mode stops
    # at 10^6 subsets there: C(24,8) = 735,471 and C(25,8) = 1,081,575
    @pytest.mark.parametrize("n, h, accepted", [
        (24, 8, True), (25, 8, False), (40, 8, False), (23, 9, True), (24, 9, False),
        (40, 7, True), (200, 5, False),  # h <= 7: only the 10^8 guard
    ])
    def test_guard_by_pattern_size(self, n, h, accepted):
        if accepted:
            assert density._census_total(n, h) == comb(n, h)
        else:
            with pytest.raises(TooLarge, match="use Monte Carlo"):
                density._census_total(n, h)

    def test_mc_samples_refused_above_h7_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("sampled subsets past the Monte-Carlo search guard")

        monkeypatch.setattr(density, "_sample_subsets", no_draw)
        g = build_tnp(20, Fraction(1, 2), seed=1)
        with pytest.raises(TooLarge, match="1000001 Monte-Carlo samples exceed the guard "
                                           "1000000 for h > 7, where each sample costs"):
            dominance_report([transitive(8)], g, None, "montecarlo", 10**6 + 1, seed=1)
        # h <= 7 has a class table: no sample guard there
        assert density._census_total(20, 7, "montecarlo", 10**7, seed=1) == 10**7
        assert density._census_total(20, 8, "montecarlo", 10**6, seed=1) == 10**6

    def test_refused_before_census_work(self, monkeypatch):
        def no_codes(*args):
            raise AssertionError("computed pattern codes past the guard")

        monkeypatch.setattr(density, "_exact_codes", no_codes)
        g = build_tnp(40, Fraction(1, 2), seed=1)
        message = "C\\(40,8\\) = 76904685 exceeds the exact-mode guard 1000000 for h > 7"
        with pytest.raises(TooLarge, match=message):
            density_census(g, 8)
        with pytest.raises(TooLarge, match=message):
            density_exact(g, transitive(8))

    @pytest.mark.parametrize("n, h, guard", [(60, 8, "1000000 for h > 7"),
                                             (200, 5, "100000000; use Monte Carlo")])
    def test_message_names_the_binding_guard(self, n, h, guard):
        # C(60,8) = 2,558,620,845 is past both guards; the one for its h binds
        message = f"C\\({n},{h}\\) = {comb(n, h)} exceeds the exact-mode guard {guard}"
        with pytest.raises(TooLarge, match=message):
            density._census_total(n, h)

    @pytest.mark.parametrize("mode, samples, seed", [("exact", None, None),
                                                     ("montecarlo", 10, 1)])
    def test_report_checks_the_request_once(self, monkeypatch, mode, samples, seed):
        calls = []
        real = density._census_total

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(density, "_census_total", counted)
        g = build_tnp(10, Fraction(1, 2), seed=1)
        dominance_report([transitive(4), Tournament(4, "001001")], g, None, mode, samples, seed)
        assert len(calls) == 1


def _code(t: Tournament) -> int:
    return int(t.bits, 2) if t.bits else 0


class TestCanonTable:
    # OEIS A000568: tournaments on h unlabeled vertices
    CLASSES = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56, 7: 456}

    @staticmethod
    def check_codes(h, codes):
        classes, index = density._class_table(h)
        m = pair_count(h)
        for code in codes:
            t = Tournament(h, format(code, f"0{m}b") if m else "")
            assert classes[index[code]] == _code(canonical_form(t)), t.bits

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5, 6])
    def test_every_labeled_pattern(self, h):
        self.check_codes(h, range(1 << pair_count(h)))

    @pytest.mark.parametrize("h", [6, 7])
    def test_sampled_labeled_patterns(self, h):
        codes = np.random.default_rng(h).integers(0, 1 << pair_count(h), size=300)
        self.check_codes(h, codes.tolist())

    @pytest.mark.skipif(not LONG, reason="2^21 canonical searches; set TOURLAB_LONG=1")
    def test_every_labeled_pattern_h7(self):
        self.check_codes(7, range(1 << pair_count(7)))

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5, 6, 7])
    def test_orbits_are_the_classes(self, catalogs, h):
        classes, index = density._class_table(h)
        orbit = np.bincount(index)
        assert len(classes) == len(orbit) == self.CLASSES[h]
        assert orbit.sum() == 1 << pair_count(h)
        expected = {_code(t): factorial(h) // aut_size(t) for t in catalogs[h]}
        assert dict(zip(classes, orbit.tolist())) == expected

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5, 6, 7])
    def test_class_i_is_catalog_item_i(self, catalogs, h):
        # orbit sizes checked against the catalog's recorded auts tie the table to
        # the pinned aut file
        classes, index = density._class_table(h)
        assert index.dtype == np.int16 and not index.flags.writeable
        assert classes == catalogs[h].codes
        assert np.bincount(index).tolist() == [factorial(h) // a for a in catalogs[h].auts]


class TestCensus:
    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_against_brute_density(self, h, extra):
        n = max(h + extra, 2)
        g = build_tnp(n, Fraction(1, 2), seed=100 * h + n)
        census = density_census(g, h)
        assert sum(census.values()) == comb(n, h)
        for bits, count in census.items():
            pattern = Tournament(h, bits)
            assert canonical_form(pattern).bits == bits
            assert oracles.brute_density(g, pattern) == Fraction(count, comb(n, h))

    def test_small_blocks_match_brute_force(self, monkeypatch):
        g = build_tnp(14, Fraction(2, 5), seed=8)
        whole = density_census(g, 5)
        monkeypatch.setattr(density, "_CHUNK", 7)
        assert density_census(g, 5) == whole
        for bits, count in whole.items():
            assert oracles.brute_density(g, Tournament(5, bits)) == Fraction(count, comb(14, 5))

    def test_small_blocks_in_subset_order(self, monkeypatch):
        # every 5-subset once, in lexicographic order, and no block past the
        # memory bound of the prefix cut: a run starts below a multiple of
        # _CHUNK and its last prefix adds at most n children
        n, h = 14, 5
        g = build_tnp(n, Fraction(2, 5), seed=8)
        monkeypatch.setattr(density, "_CHUNK", 7)
        blocks = list(density._exact_codes(g, h))
        assert max(len(block) for block in blocks) < density._CHUNK + n
        subsets = np.array(list(combinations(range(n), h)))
        expected = density._subset_patterns(g, subsets)
        assert np.array_equal(np.concatenate(blocks), expected)

    def test_host_spanning_several_blocks(self):
        n, h = 30, 5
        assert comb(n, h) > 2 * density._CHUNK
        g = build_tnp(n, Fraction(1, 2), seed=12)
        subsets = np.array(list(combinations(range(n), h)))
        codes = density._subset_patterns(g, subsets)
        assert density_census(g, h) == density._census(h, [codes])

    @pytest.mark.parametrize("h", [5, 6, 7])
    def test_many_blocks_against_a_census_without_the_table(self, monkeypatch, h):
        n = 14
        g = build_tnp(n, Fraction(3, 5), seed=h)
        monkeypatch.setattr(density, "_CHUNK", 31)
        assert comb(n, h) > 40 * density._CHUNK
        codes = density._subset_patterns(g, np.array(list(combinations(range(n), h))))
        expected: dict[str, int] = {}
        values, counts = np.unique(codes, return_counts=True)
        for code, count in zip(values.tolist(), counts.tolist()):
            key = canonical_form(Tournament(h, format(code, f"0{pair_count(h)}b"))).bits
            expected[key] = expected.get(key, 0) + count
        census = density_census(g, h)
        assert census == expected
        assert list(census) == sorted(census)  # catalog order

    def test_one_search_per_distinct_code_across_blocks(self, monkeypatch):
        # above h=7 the codes of all blocks are deduplicated together: a
        # code repeated in several blocks costs one canonical search
        monkeypatch.setattr(density, "_CHUNK", 7)
        g = build_tnp(10, Fraction(9, 10), seed=1)
        blocks = list(density._exact_codes(g, 8))
        codes = np.concatenate(blocks)
        distinct = len(np.unique(codes))
        assert sum(len(np.unique(block)) for block in blocks) > distinct
        before = core._canon_searches
        census = density_census(g, 8)
        assert core._canon_searches - before == distinct
        assert census == density._census(8, [codes])


class TestMonteCarlo:
    def test_seeds_do_not_share_chunks(self):
        # chunks come from one stream per seed, not from seed + offset
        chunk = density._CHUNK
        g = build_tnp(40, Fraction(1, 2), seed=3)
        first = density._mc_census(g, 4, chunk, seed=5)
        both = density._mc_census(g, 4, 2 * chunk, seed=5)
        second = {k: v - first.get(k, 0) for k, v in both.items() if v != first.get(k, 0)}
        assert sum(second.values()) == chunk
        assert second != density._mc_census(g, 4, chunk, seed=5 + chunk)

    @pytest.mark.parametrize("n, h", [(2048, 6), (12, 6), (9, 8), (3, 3), (5, 1)])
    def test_redraws_take_the_draws_of_whole_chunk_rounds(self, n, h):
        # redrawing only the rows that repeat a vertex takes the same draws,
        # in the same order, as re-checking the whole chunk every round
        def whole_chunk_rounds(rng):
            rows = np.sort(rng.integers(0, n, size=(5000, h)), axis=1)
            while (bad := (np.diff(rows, axis=1) == 0).any(axis=1)).any():
                rows[bad] = np.sort(rng.integers(0, n, size=(int(bad.sum()), h)), axis=1)
            return rows

        for seed in (5, 7, 123):
            rows = density._sample_subsets(np.random.Generator(np.random.Philox(key=seed)),
                                           n, h, 5000)
            assert (np.diff(rows, axis=1) > 0).all()
            assert np.array_equal(
                rows, whole_chunk_rounds(np.random.Generator(np.random.Philox(key=seed))))

    def test_matches_exact_within_4_sigma(self):
        g = build_tnp(30, Fraction(1, 2), seed=21)
        exact = density_exact(g, transitive(4))
        mc = density_montecarlo(g, transitive(4), 100_000, seed=33)
        assert abs(float(exact.estimate) - mc.estimate) <= 4 * mc.stderr

    def test_single_sample_is_indicator(self):
        g = build_tnp(12, Fraction(1, 2), seed=2)
        for seed in range(5):
            assert density_montecarlo(g, cyclic3(), 1, seed=seed).estimate in (0.0, 1.0)

    def test_seed_determinism(self):
        g = build_tnp(30, Fraction(1, 2), seed=21)
        a = density_montecarlo(g, transitive(4), 5000, seed=9)
        b = density_montecarlo(g, transitive(4), 5000, seed=9)
        assert a == b

    def test_big_random_host_near_typical(self):
        # E over G of d_{T3}(G) is B(T3,0) = 3/4 at p=1/2; one sampled G concentrates
        g = build_tnp(500, Fraction(1, 2), seed=1234)
        mc = density_montecarlo(g, transitive(3), 100_000, seed=55)
        assert abs(mc.estimate - 0.75) <= 4 * mc.stderr + 0.005

    def test_unbiased_over_pinned_seeds(self):
        g = build_tnp(30, Fraction(1, 2), seed=21)
        exact = float(density_exact(g, transitive(4)).estimate)
        per_seed = 2000
        estimates = [
            density_montecarlo(g, transitive(4), per_seed, seed=s).estimate
            for s in range(1, 51)
        ]
        mean = statistics.fmean(estimates)
        combined_se = math.sqrt(exact * (1 - exact) / (50 * per_seed))
        assert abs(mean - exact) <= 4 * combined_se


class TestExpectationLaw:
    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 5)])
    def test_tnp_mean_matches_density_polynomial(self, p):
        # average exact density over 30 pinned seeds vs d(H,p), 4 sigma
        for pattern in (transitive(3), cyclic3()):
            expect = float(density_poly_p(pattern).evaluate(p))
            values = [
                float(density_exact(build_tnp(18, p, seed=s), pattern).estimate)
                for s in range(1, 31)
            ]
            mean = statistics.fmean(values)
            spread = statistics.stdev(values) / math.sqrt(len(values))
            assert abs(mean - expect) <= 4 * spread, (pattern.bits, p)


class TestDominanceReport:
    def test_f41_10_beats_margin_on_pinned_seed(self):
        g = build_tnp(60, Fraction(3, 5), seed=5)
        reports = dominance_report([transitive(4)], g, beta=Fraction(1, 20))
        assert reports[0].margin > 0

    def test_zero_beta_margins_sum_to_zero(self, catalogs):
        g = build_tnp(20, Fraction(1, 2), seed=6)
        reports = dominance_report(list(catalogs[4].items), g, beta=Fraction(0))
        assert sum(r.margin for r in reports) == 0

    def test_one_canonical_search_per_pattern(self, catalogs):
        # the exact census at h=6 maps codes through the orbit table, so every
        # search is the report's own: the class and aut of one pattern
        g = build_tnp(12, Fraction(1, 2), seed=6)
        before = core._canon_searches
        reports = dominance_report(list(catalogs[6].items), g)
        assert core._canon_searches - before == len(reports) == 56

    def test_empty_subset(self):
        g = build_tnp(20, Fraction(1, 2), seed=6)
        assert dominance_report([], g, beta=Fraction(1)) == []

    def test_mixed_sizes_rejected(self):
        g = build_tnp(20, Fraction(1, 2), seed=6)
        with pytest.raises(ValueError):
            dominance_report([transitive(3), transitive(4)], g, beta=Fraction(0))

    def test_mc_mode_shares_sampling_pass(self):
        g = build_tnp(30, Fraction(1, 2), seed=3)
        reports = dominance_report(
            [transitive(3), cyclic3()], g, beta=Fraction(0),
            mode="montecarlo", samples=20_000, seed=8,
        )
        assert reports[0].estimate + reports[1].estimate == 1.0

    @pytest.mark.parametrize("samples", [0, -5])
    def test_mc_mode_rejects_sample_counts_below_one(self, samples):
        g = build_tnp(20, Fraction(1, 2), seed=6)
        with pytest.raises(ValueError, match="need samples >= 1"):
            dominance_report([cyclic3()], g, beta=Fraction(0),
                             mode="montecarlo", samples=samples, seed=1)

    def test_report_metadata(self):
        g = build_tnp(20, Fraction(1, 2), seed=6)
        report = density_exact(g, cyclic3(), beta=Fraction(1, 10))
        assert report.pattern == canonical_form(cyclic3())
        assert report.mode == "exact"
        assert report.typical == Fraction(1, 4)
        assert report.margin == report.estimate - Fraction(11, 10) * Fraction(1, 4)


class TestBiasMargin:
    def test_exact_value_for_t4(self):
        assert bias_margin([transitive(4)], Fraction(1, 10)) == Fraction(101, 1875)

    def test_minimum_over_family(self):
        margin = bias_margin([transitive(3), cyclic3()], Fraction(1, 10))
        # C3 is the worse member: B-d = -x^2 < 0
        assert margin == Fraction(-1, 100) / Fraction(1, 4)

    @pytest.mark.parametrize("x", [Fraction(1), Fraction(0), Fraction(1, 2), Fraction(-1, 3)])
    def test_x_outside_open_interval(self, x):
        # the bias range of in_F: 0 < x < 1/2
        with pytest.raises(XOutOfRange):
            bias_margin([transitive(4)], x)
