from __future__ import annotations

import random
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings

from tourlab.core import (
    BadCharacter,
    BadSubset,
    SizeMismatch,
    Tournament,
    WrongLength,
    _shift,
    aut_size,
    canonical_form,
    contains_subtournament,
    cyclic3,
    induced,
    pair_count,
    parse,
    reverse,
    transitive,
)

import oracles
from strategies import tournament_with_relabeling, tournaments


def random_tournament(h: int, rng: random.Random) -> Tournament:
    return Tournament(h, "".join(rng.choice("01") for _ in range(pair_count(h))))


def rotational_tournaments(h: int):
    """Every tournament on odd h vertices with i -> j iff (j - i) mod h lies in
    S, for S holding exactly one of d and h - d for each d = 1..(h-1)/2."""
    half = (h - 1) // 2
    for choice in range(1 << half):
        s = {d if (choice >> (d - 1)) & 1 else h - d for d in range(1, half + 1)}
        yield Tournament(h, "".join("1" if (j - i) % h in s else "0"
                                    for i in range(h) for j in range(i + 1, h)))


class TestParse:
    def test_example_110_is_transitive_class(self):
        t = parse("110", 3)
        assert canonical_form(t) == canonical_form(transitive(3))

    def test_all_forward(self):
        assert parse("111", 3) == transitive(3)

    def test_wrong_length(self):
        with pytest.raises(WrongLength):
            parse("10", 3)

    def test_bad_character(self):
        with pytest.raises(BadCharacter):
            parse("1x1", 3)

    def test_out_degrees_sum(self):
        t = parse("101010", 4)
        assert sum(t.out_degrees()) == pair_count(4)


class TestConstructors:
    def test_transitive_bits(self):
        assert transitive(3).bits == "111"
        assert transitive(4).bits == "111111"

    def test_cyclic3(self):
        c = cyclic3()
        assert c.out_degrees() == (1, 1, 1)
        assert aut_size(c) == 3
        assert canonical_form(c) == canonical_form(reverse(c))


class TestCanonicalForm:
    def test_relabelings_of_t4_share_canon(self):
        want = canonical_form(transitive(4))
        for perm in permutations(range(4)):
            assert canonical_form(transitive(4).relabel(perm)) == want

    @pytest.mark.parametrize("h,classes", [(3, 2), (4, 4)])
    def test_labeled_class_counts(self, h, classes):
        canons = {canonical_form(t).bits for t in oracles.all_labeled(h)}
        assert len(canons) == classes

    @pytest.mark.parametrize("h", [3, 4, 5])
    def test_matches_brute_force_exhaustively(self, h):
        for t in oracles.all_labeled(h):
            assert canonical_form(t).bits == oracles.brute_canonical(t)

    def test_idempotent(self):
        rng = random.Random(7)
        for h in (3, 4, 5, 6):
            t = random_tournament(h, rng)
            canon = canonical_form(t).tournament()
            assert canonical_form(canon).bits == canon.bits

    def test_equality_decides_isomorphism_h4(self):
        ts = list(oracles.all_labeled(4))
        for a in ts[:16]:
            for b in ts[:16]:
                same = canonical_form(a) == canonical_form(b)
                assert same == oracles.brute_isomorphic(a, b)


class TestAut:
    @pytest.mark.parametrize("h", [2, 3, 4, 5, 6])
    def test_transitive_is_rigid(self, h):
        assert aut_size(transitive(h)) == 1

    @pytest.mark.parametrize("h", [3, 4, 5])
    def test_matches_brute_force(self, h):
        for t in oracles.all_labeled(h):
            assert aut_size(t) == oracles.brute_aut(t)

    @pytest.mark.parametrize("h", [3, 5, 7])
    def test_rotational_matches_brute_force(self, h):
        for t in rotational_tournaments(h):
            assert aut_size(t) == oracles.brute_aut(t)

    def test_rotational_h9(self):
        # the rotations alone give aut a factor 9; a relabeling keeps the form
        rng = random.Random(9)
        for t in rotational_tournaments(9):
            assert aut_size(t) % 9 == 0
            perm = list(range(9))
            rng.shuffle(perm)
            assert canonical_form(t.relabel(perm)) == canonical_form(t)

    @pytest.mark.parametrize("h", [3, 4, 5])
    def test_orbit_stabilizer(self, h):
        rng = random.Random(h)
        for _ in range(12):
            t = random_tournament(h, rng)
            assert aut_size(t) * oracles.labeled_copies(t) == factorial(h)

    def test_divides_factorial(self):
        rng = random.Random(99)
        for _ in range(20):
            t = random_tournament(6, rng)
            assert factorial(6) % aut_size(t) == 0

    def test_quadratic_residue_tournament(self):
        # vertex-transitive rotational tournament on 7 vertices: i -> j iff
        # (j - i) mod 7 is a nonzero square; its group has order 21
        residues = {1, 2, 4}
        bits = "".join(
            "1" if (j - i) % 7 in residues else "0"
            for i in range(7)
            for j in range(i + 1, 7)
        )
        assert aut_size(Tournament(7, bits)) == 21


class TestReverse:
    @given(tournaments())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, t):
        assert reverse(reverse(t)) == t

    @given(tournaments())
    @settings(max_examples=60, deadline=None)
    def test_aut_invariant(self, t):
        assert aut_size(reverse(t)) == aut_size(t)


class TestCanonicalProperties:
    @given(tournament_with_relabeling())
    @settings(max_examples=80, deadline=None)
    def test_relabeling_invariance(self, case):
        t, perm = case
        assert canonical_form(t.relabel(perm)) == canonical_form(t)

    @given(tournaments())
    @settings(max_examples=60, deadline=None)
    def test_canon_encodes_valid_tournament(self, t):
        canon = canonical_form(t)
        assert canonical_form(canon.tournament()) == canon


class TestPairLayout:
    @given(tournaments(min_h=2, max_h=8))
    @settings(max_examples=60, deadline=None)
    def test_shift_reads_the_edge_bit(self, t):
        for u, v in combinations(range(t.h), 2):
            assert (int(t.bits, 2) >> _shift(u, v, t.h)) & 1 == t.edge_bit(u, v)

    @given(tournaments(min_h=2, max_h=8))
    @settings(max_examples=60, deadline=None)
    def test_out_masks_agree_with_edge_bit(self, t):
        for u, v in combinations(range(t.h), 2):
            assert t.has_edge(u, v) == bool(t.edge_bit(u, v)) != t.has_edge(v, u)


class TestInduced:
    def test_suborder_of_linear_order(self):
        assert induced(transitive(5), [0, 2, 4]) == transitive(3)

    def test_full_set_identity(self):
        t = parse("0110101011", 5)
        assert induced(t, range(5)) == t

    def test_two_vertex(self):
        assert induced(cyclic3(), [0, 1]).h == 2

    def test_functorial(self):
        rng = random.Random(3)
        t = random_tournament(7, rng)
        inner = induced(induced(t, [0, 2, 3, 5, 6]), [1, 2, 4])
        assert inner == induced(t, [2, 3, 6])

    def test_bad_subsets(self):
        with pytest.raises(BadSubset):
            induced(transitive(4), [])
        with pytest.raises(BadSubset):
            induced(transitive(4), [0, 0, 1])
        with pytest.raises(BadSubset):
            induced(transitive(4), [0, 9])


class TestContainsSubtournament:
    def test_t2_always_present(self):
        rng = random.Random(5)
        for h in (2, 3, 5):
            t = random_tournament(h, rng)
            assert contains_subtournament(t, transitive(2))

    def test_transitive_has_no_cycle(self):
        assert not contains_subtournament(transitive(7), cyclic3())

    def test_every_4_class_contains_t3(self, catalogs):
        for t in catalogs[4]:
            assert contains_subtournament(t, transitive(3))
            # cross-check against subset search
            assert any(
                oracles.brute_isomorphic(induced(t, s), transitive(3))
                for s in combinations(range(4), 3)
            )

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            contains_subtournament(cyclic3(), transitive(4))

    def test_self_containment(self):
        rng = random.Random(11)
        t = random_tournament(6, rng)
        assert contains_subtournament(t, t)
