from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from tourlab.construct import (
    _SLICE,
    BadProbability,
    BigTournament,
    NotMultiple,
    StarTooBig,
    _rational_bits,
    blowup_group_count,
    build_blowup,
    build_tnp,
    build_transversal,
)
from tourlab.core import cyclic3, induced, pair_count, parse, transitive


class TestTnp:
    def test_probability_one_is_transitive(self):
        g = build_tnp(25, 1, seed=3)
        assert g.bit_array().all()
        assert induced(g, [0, 5, 9, 20]) == transitive(4)

    def test_probability_zero(self):
        assert not build_tnp(25, 0, seed=3).bit_array().any()

    def test_bad_probability(self):
        with pytest.raises(BadProbability):
            build_tnp(10, Fraction(3, 2), seed=0)
        with pytest.raises(BadProbability):
            build_tnp(10, Fraction(-1, 2), seed=0)
        for den in (1 << 64, (1 << 64) + 1):
            with pytest.raises(BadProbability, match="denominator below 2"):
                build_tnp(10, Fraction(1, den), seed=0)
        assert build_tnp(10, Fraction((1 << 64) - 2, (1 << 64) - 1), seed=0).n == 10

    def test_seed_determinism(self):
        a = build_tnp(100, Fraction(1, 2), seed=42)
        b = build_tnp(100, Fraction(1, 2), seed=42)
        assert a == b
        assert a != build_tnp(100, Fraction(1, 2), seed=43)

    def test_edge_count_concentration(self):
        # pinned seeds; 4 sqrt(m)/2 band around m/2 at p=1/2
        m = pair_count(200)
        band = 4 * math.sqrt(m) / 2
        for seed in range(1, 21):
            ones = int(build_tnp(200, Fraction(1, 2), seed=seed).bit_array().sum())
            assert abs(ones - m / 2) <= band, (seed, ones)

    def test_exact_rational_rate(self):
        # mean of C(400,2) draws at p = 1/3 stays within 4 sigma
        g = build_tnp(400, Fraction(1, 3), seed=9)
        m = pair_count(400)
        rate = g.bit_array().mean()
        sigma = math.sqrt((1 / 3) * (2 / 3) / m)
        assert abs(rate - 1 / 3) <= 4 * sigma


class TestTransversal:
    def test_part_arithmetic(self):
        g = build_transversal(60, 6, cyclic3(), seed=4)
        assert g.provenance["pattern_h"] == 3
        # parts of size 10 each for V1..V3, remainder 30
        assert g.n - 3 * (60 // 6) == 30

    @pytest.mark.parametrize("pattern", [cyclic3(), transitive(4)])
    def test_between_part_orientations_exhaustive(self, pattern):
        n, h = 60, 6
        size = n // h
        g = build_transversal(n, h, pattern, seed=11)
        k = pattern.h
        for i in range(k):
            for j in range(i + 1, k):
                want = pattern.edge_bit(i, j)
                for u in range(i * size, (i + 1) * size):
                    for v in range(j * size, (j + 1) * size):
                        assert g.edge_bit(u, v) == want

    def test_every_transversal_induces_pattern(self):
        n, h = 30, 6
        size = n // h
        pattern = cyclic3()
        g = build_transversal(n, h, pattern, seed=8)
        for tv in product(*[range(i * size, (i + 1) * size) for i in range(3)]):
            assert induced(g, tv).bits == pattern.bits

    def test_errors(self):
        with pytest.raises(NotMultiple):
            build_transversal(61, 6, cyclic3(), seed=0)
        with pytest.raises(StarTooBig):
            build_transversal(60, 3, transitive(3), seed=0)
        with pytest.raises(StarTooBig):
            build_transversal(60, 0, transitive(5), seed=1)

    def test_boosts_planted_superpattern_density(self):
        # k = h-1 parts carrying T4 make T5 far denser than typical
        from tourlab.bias import typical_density
        from tourlab.density import density_exact

        g = build_transversal(40, 5, transitive(4), seed=1)
        report = density_exact(g, transitive(5))
        assert report.estimate > typical_density(transitive(5))

    def test_determinism(self):
        a = build_transversal(60, 6, transitive(4), seed=5)
        b = build_transversal(60, 6, transitive(4), seed=5)
        assert a == b


class TestBlowup:
    def test_group_count(self):
        assert blowup_group_count(4, 1) == 8
        assert blowup_group_count(4, 2) == 12  # 4 * ceil(sqrt(8))

    def test_single_pattern_transversals(self):
        r = blowup_group_count(4, 1)
        size = 2
        g = build_blowup([transitive(4)], 2 * r, seed=1)
        verts = g.provenance["copies"][0]
        parts = [range(t * size, (t + 1) * size) for t in verts]
        for tv in product(*parts):
            assert induced(g, tv).bits == transitive(4).bits

    def test_nontrivial_pattern_transversals(self):
        r = blowup_group_count(3, 1)  # 3 * ceil(sqrt(3)) = 6
        assert r == 6
        g = build_blowup([cyclic3()], 2 * r, seed=2)
        verts = g.provenance["copies"][0]
        parts = [range(t * 2, (t + 1) * 2) for t in verts]
        for tv in product(*parts):
            assert induced(g, tv).bits == cyclic3().bits

    def test_pairwise_edge_disjoint_copies(self):
        family = [transitive(4), transitive(4).relabel([1, 0, 2, 3])]
        g = build_blowup(family, 24, seed=5)
        copies = g.provenance["copies"]
        assert len(copies) == 2
        edge_sets = [
            {(a, b) for ai, a in enumerate(c) for b in c[ai + 1 :]} for c in copies
        ]
        assert not (edge_sets[0] & edge_sets[1])

    def test_typicality_flag_reported(self):
        g = build_blowup([transitive(4)], 16, seed=1)
        r = g.provenance["r"]
        assert g.provenance["typicality_sufficient"] == (2 * r * r < 2 ** 4)

    def test_errors(self):
        with pytest.raises(NotMultiple):
            build_blowup([transitive(4)], 17, seed=0)
        with pytest.raises(ValueError):
            build_blowup([], 16, seed=0)
        with pytest.raises(ValueError):
            build_blowup([transitive(3), transitive(4)], 24, seed=0)

    def test_determinism(self):
        a = build_blowup([transitive(4)], 16, seed=7)
        b = build_blowup([transitive(4)], 16, seed=7)
        assert a == b and a.provenance == b.provenance


class TestSerialization:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: build_tnp(40, Fraction(2, 5), seed=13),
            lambda: build_transversal(30, 6, cyclic3(), seed=13),
            lambda: build_blowup([transitive(4)], 16, seed=13),
        ],
        ids=["tnp", "transversal", "blowup"],
    )
    def test_round_trip(self, builder, tmp_path):
        g = builder()
        path = tmp_path / "g.txt"
        g.save(path)
        back = BigTournament.load(path)
        assert back == g
        assert back.provenance == g.provenance

    def test_text_shape(self):
        g = build_tnp(64, Fraction(1, 2), seed=1)
        lines = g.to_text().splitlines()
        assert lines[0] == "n=64"
        body = "".join(lines[2:])
        assert len(body) == pair_count(64)
        assert max(len(line) for line in lines[2:]) <= 512

    def test_reject_malformed(self):
        with pytest.raises(ValueError):
            BigTournament.from_text("n=10\n{}\n0101\n")
        for bad in ("2", "/", " ", "é", "\u2070"):  # the last two are not ASCII
            bits = "01" * 10 + bad + "10" * 12  # C(10,2) = 45 characters
            with pytest.raises(ValueError, match="expected 45 orientation bits, got 45"):
                BigTournament.from_text(f"n=10\n{{}}\n{bits}\n")
        for n in (1, 3000):
            with pytest.raises(ValueError, match="n must be in"):
                BigTournament.from_text(f"n={n}\n{{}}\n" + "0" * pair_count(n) + "\n")

    def test_adj_is_read_only(self):
        g = build_tnp(20, Fraction(1, 2), seed=1)
        with pytest.raises(ValueError):
            g.adj[0, 1] = 0


BUILDERS = {
    "tnp": lambda: build_tnp(512, Fraction(3, 5), seed=1),
    "transversal": lambda: build_transversal(60, 6, transitive(5), 2020),
    "blowup": lambda: build_blowup([transitive(4), parse("101111", 4)], 96, seed=3),
}
# sha256 of each builder's to_text(): a seeded file keeps its bytes whatever
# the in-memory form of a BigTournament.
PINNED_SHA256 = {
    "tnp": "e8e2be1abe936a3e0d9c1f6e9b4c88d8b43090ffcd484677426917f063217e94",
    "transversal": "64d6289db280df14171c22db9fab4fb0a268a8f07c0283bd1aed36fb29a2f2cf",
    "blowup": "ec5f768a59115ea51e482478588149e43171c850a3d2bd198c9174b76ba15327",
}
# bits in pair order (0,1) (0,2) (0,3) (0,4) | (1,2) (1,3) (1,4) | (2,3) (2,4) | (3,4)
HAND_TEXT = "n=5\n{}\n0110\n100\n10\n1\n"
HAND_ADJ = [
    [0, 0, 1, 1, 0],
    [0, 0, 1, 0, 0],
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0],
]


class TestAdjacency:
    @pytest.mark.parametrize("kind", BUILDERS)
    def test_text_bytes_pinned(self, kind):
        text = BUILDERS[kind]().to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256[kind]

    @pytest.mark.parametrize("kind", [*BUILDERS, "from_text"])
    def test_upper_triangle(self, kind):
        g = BigTournament.from_text(HAND_TEXT) if kind == "from_text" else BUILDERS[kind]()
        assert g.adj.shape == (g.n, g.n) and g.adj.dtype == np.uint8
        assert not np.tril(g.adj).any()
        assert not g.adj.flags.writeable
        assert BigTournament.from_text(g.to_text()) == g
        us, vs = np.triu_indices(g.n, 1)
        assert [g.edge_bit(u, v) for u, v in zip(us.tolist(), vs.tolist())] == \
            g.adj[us, vs].tolist()

    def test_from_text_follows_pair_order(self):
        g = BigTournament.from_text(HAND_TEXT)
        assert g.adj.tolist() == HAND_ADJ
        assert "".join(map(str, g.bit_array().tolist())) == "0110100101"


# At p = a/(2^63+1) about half of all Philox words lie above the largest
# multiple of the denominator, so about half the pairs of each round go on
# to the next: some 17 rounds at m = 2^17.  m = 3 is below one slice and
# 2^17 is exactly two.  sha256 of _rational_bits(m, 2^62/(2^63+1), seed),
# recorded from the draw that held all m words of a round at once.
REJECTION_DEN = (1 << 63) + 1
REJECTION_SHA256 = {
    (3, 1): "fbb59ed10e9cd4ff45a12c5bb92cbd80df984ba1fe60f26a30febf218e2f0f5e",
    (3, 2): "709e80c88487a2411e1ee4dfb9f22a861492d20c4765150c0c794abd70f8147c",
    (3, 3): "9f44ac6acb8a37b00b615dc89259d306035be82dee7db2b472e4c48326195440",
    (1 << 17, 1): "79521c6629fefccc09a0e4a8a6c5f43061d0abb08b014e9ef425d5e013e09eb2",
    (1 << 17, 2): "30e82487ec3ca600513a80ecbcf1218b6dd8cd82af27b40b1d7a1a07734ad167",
    (1 << 17, 3): "21fb6fd0a15efcfa1a9adef9ec56e52bb2598f216fe7d983f0598de4087c225f",
    (100_003, 1): "474d00c99f980515e79868ee234981b15983d6fe04fed799d2b8e1198fecd510",
    (100_003, 2): "05e7349bf8c272bd15cb5ac06bb78b84054d632f5dd9b9147c61a16325ae8b0c",
    (100_003, 3): "5136349662ca3b7ddb3df63b2ffe742592e26c70d73badb9a9d6edd451978f17",
}


class TestRejectionRounds:
    def test_sizes_straddle_the_slice(self):
        assert 3 < _SLICE and 1 << 17 == 2 * _SLICE and 100_003 % _SLICE

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("m", [3, 1 << 17, 100_003])
    def test_bits_pinned(self, m, seed):
        # at a = 1 every bit is 0 (p < 2^-63), whichever words the pairs read
        low = _rational_bits(m, Fraction(1, REJECTION_DEN), seed)
        assert low.shape == (m,) and low.dtype == np.uint8 and not low.any()
        bits = _rational_bits(m, Fraction(1 << 62, REJECTION_DEN), seed)
        assert bits.shape == (m,)
        assert hashlib.sha256(bits.tobytes()).hexdigest() == REJECTION_SHA256[m, seed]

    def test_rounds_past_the_first_are_taken(self):
        # the round-0 word of about half the pairs is rejected, so the pinned
        # bits above depend on the words of later rounds
        words = np.random.Generator(np.random.Philox(key=1)).integers(
            0, 1 << 64, size=100_003, dtype=np.uint64)
        top = (1 << 64) - (1 << 64) % REJECTION_DEN - 1
        rejected = int((words > np.uint64(top)).sum())
        assert 0.45 < rejected / 100_003 < 0.55
