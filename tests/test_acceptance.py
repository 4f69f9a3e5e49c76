"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s``.  The three
long-running h=9 addenda are skipped unless TOURLAB_LONG=1 is set.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import math
import os
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest

from tourlab.bias import bias_polynomial, classify_catalog, forward_histogram
from tourlab.construct import (
    blowup_group_count,
    build_blowup,
    build_tnp,
    build_transversal,
)
from tourlab.core import aut_size, cyclic3, induced, pair_count, transitive
from tourlab.density import (
    density_census,
    density_exact,
    density_montecarlo,
)
from tourlab.enumeration import (
    _AUT_SHA256,
    _CATALOG_SHA256,
    _write_cache,
    cache_path,
    enumerate_tournaments,
    load_or_enumerate,
)
from tourlab.fas import min_fas

import oracles

LONG = os.environ.get("TOURLAB_LONG") == "1"

CLASS_COUNTS = {3: 2, 4: 4, 5: 12, 6: 56, 7: 456, 8: 6880}
BIAS_SUBSET_COUNTS = {3: 1, 4: 1, 5: 6, 6: 25, 7: 199, 8: 2769}

F = Fraction
BIAS_POLYS_H4 = Counter(
    {
        ((0, F(3, 8)), (2, F(2)), (4, F(2))): 1,
        ((0, F(3, 8)), (2, F(-2)), (4, F(2))): 1,
        ((0, F(1, 8)), (4, F(-2))): 2,
    }
)
BIAS_POLYS_H5 = Counter(
    {
        ((0, F(15, 128)), (2, F(25, 16)), (4, F(6)), (6, F(7)), (8, F(2))): 1,
        ((0, F(5, 128)), (2, F(5, 16)), (4, F(-1, 2)), (6, F(-5)), (8, F(-2))): 3,
        ((0, F(15, 128)), (2, F(5, 16)), (4, F(-4)), (6, F(3)), (8, F(2))): 2,
        ((0, F(15, 128)), (2, F(-5, 16)), (4, F(1, 2)), (6, F(-3)), (8, F(-6))): 1,
        ((0, F(15, 128)), (2, F(-5, 16)), (4, F(-5, 2)), (6, F(5)), (8, F(10))): 1,
        ((0, F(15, 128)), (2, F(-15, 16)), (4, F(2)), (6, F(-1)), (8, F(2))): 1,
        ((0, F(5, 128)), (2, F(-5, 16)), (4, F(1)), (6, F(-3)), (8, F(6))): 1,
        ((0, F(15, 128)), (2, F(-15, 16)), (4, F(1)), (6, F(7)), (8, F(-14))): 1,
        ((0, F(3, 128)), (2, F(-5, 16)), (4, F(3, 2)), (6, F(-3)), (8, F(2))): 1,
    }
)


def criterion(number: int, description: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:>2} {description}: FAIL")
                raise
            print(f"ACCEPTANCE {number:>2} {description}: PASS")

        return inner

    return wrap


@pytest.fixture(scope="module")
def all_catalogs(catalogs, catalog8):
    both = dict(catalogs)
    both[8] = catalog8
    return both


@pytest.fixture(scope="module")
def records8(catalog8):
    return classify_catalog(catalog8)


@criterion(1, "enumeration counts match the known values for h=3..8")
def test_criterion_01_enumeration_counts(all_catalogs):
    for h, count in CLASS_COUNTS.items():
        assert len(all_catalogs[h]) == count, (h, len(all_catalogs[h]))


@pytest.mark.skipif(not LONG, reason="h=9 long run; set TOURLAB_LONG=1")
@criterion(1, "optional h=9 enumeration count")
def test_criterion_01_optional_h9(tmp_path):
    catalog = enumerate_tournaments(9, threads=2)
    assert len(catalog) == 191536
    path = cache_path(9, tmp_path)
    _write_cache(path, catalog)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _CATALOG_SHA256[8], f"h=9 cache sha256 is {digest}"


@criterion(2, "bias polynomial multisets for h=4 and h=5 are bit-exact")
def test_criterion_02_bias_tables(all_catalogs):
    got4 = Counter(bias_polynomial(t).coeffs for t in all_catalogs[4])
    assert got4 == BIAS_POLYS_H4
    got5 = Counter(bias_polynomial(t).coeffs for t in all_catalogs[5])
    assert got5 == BIAS_POLYS_H5


@criterion(3, "bias-subset sizes match the known values for h=3..8")
def test_criterion_03_bh_counts(all_catalogs, records8):
    for h in range(3, 8):
        records = classify_catalog(all_catalogs[h])
        assert sum(r.in_Bh for r in records) == BIAS_SUBSET_COUNTS[h], h
    assert sum(r.in_Bh for r in records8) == BIAS_SUBSET_COUNTS[8]


@pytest.mark.skipif(not LONG, reason="h=9 long run; set TOURLAB_LONG=1")
@criterion(3, "optional h=9 bias-subset size")
def test_criterion_03_optional_h9():
    catalog = enumerate_tournaments(9, threads=2)
    records = classify_catalog(catalog)
    assert sum(r.in_Bh for r in records) == 79229


@criterion(4, "bias polynomial property suite holds exactly for h<=7")
def test_criterion_04_bias_properties(all_catalogs):
    probe = F(3, 7)
    for h in range(3, 8):
        total: dict[int, Fraction] = {}
        for t in all_catalogs[h]:
            poly = bias_polynomial(t)
            assert all(e % 2 == 0 for e, _ in poly.coeffs), t.bits
            assert poly.evaluate(probe) == poly.evaluate(-probe), t.bits
            assert poly.constant == F(factorial(h), aut_size(t) << pair_count(h))
            endpoint = poly.evaluate(F(1, 2))
            assert endpoint == (1 if t.bits == "0" * t.m else 0), t.bits
            for e, c in poly.coeffs:
                total[e] = total.get(e, F(0)) + c
        assert total[0] == 1 and all(c == 0 for e, c in total.items() if e > 0), h


@criterion(5, "minimum feedback arc sets: oracle h<=5, bounds h<=8")
def test_criterion_05_fas(all_catalogs):
    for h in range(2, 6):
        for t in all_catalogs[h]:
            assert min_fas(t).max_forward == oracles.brute_max_forward(t), t.bits
    for h in range(3, 9):
        assert min_fas(transitive(h)).a == 0
        half = F(pair_count(h), 2)
        for t in all_catalogs[h]:
            result = min_fas(t)
            assert 0 <= result.a <= half, t.bits
            assert oracles.forward_edges(t, result.witness_order) == result.max_forward


# sha256 of `tourlab fas-table --h 9 --allow-long` stdout (58,531,119 bytes)
FAS_TABLE_H9_SHA256 = "72b44fc0a72f15ee0f5f91896db4dc9825b7d5def35308e344dc6b244dc6d7ac"


@pytest.mark.skipif(not LONG, reason="h=9 long run; set TOURLAB_LONG=1")
@criterion(5, "optional h=9 fas-table stdout is byte-identical to its pin")
def test_criterion_05_optional_h9_fas_table(tmp_path, monkeypatch, capsys):
    from tourlab.cli import main

    monkeypatch.setenv("TOURLAB_CACHE", str(tmp_path))
    code = main(["fas-table", "--h", "9", "--allow-long", "--threads", "2"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert code == 0 and digest == FAS_TABLE_H9_SHA256, f"h=9 fas-table sha256 is {digest}"


@criterion(6, "forward histograms: oracle h<=5, mass h<=8")
def test_criterion_06_histograms(all_catalogs):
    for h in range(3, 6):
        for t in all_catalogs[h]:
            assert forward_histogram(t).counts == oracles.brute_histogram(t), t.bits
    for h in range(3, 9):
        for t in all_catalogs[h]:
            assert forward_histogram(t).total() == factorial(h), t.bits


@criterion(7, "labeled-mass identity sum(h!/aut) = 2^C(h,2) for h<=8")
def test_criterion_07_labeled_mass(all_catalogs):
    for h in range(3, 9):
        mass = sum(factorial(h) // aut_size(t) for t in all_catalogs[h])
        assert mass == 1 << pair_count(h), h


@pytest.mark.skipif(not LONG, reason="h=9 long run; set TOURLAB_LONG=1")
@criterion(7, "optional h=9 aut file matches its pin and the labeled mass")
def test_criterion_07_optional_h9_aut_pin(tmp_path):
    catalog = load_or_enumerate(9, tmp_path, threads=2)
    data = cache_path(9, tmp_path).with_suffix(".aut").read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    assert digest == _AUT_SHA256[8], f"h=9 aut file sha256 is {digest}"
    assert sum(factorial(9) // aut for aut in catalog.auts) == 1 << pair_count(9)


@criterion(8, "transversal construction: exhaustive structure + sampled transversals")
def test_criterion_08_transversal(all_catalogs):
    n, h = 60, 6
    size = n // h
    for pattern, seed in ((cyclic3(), 8), (transitive(4), 8)):
        g = build_transversal(n, h, pattern, seed=seed)
        k = pattern.h
        for i in range(k):
            for j in range(i + 1, k):
                want = pattern.edge_bit(i, j)
                for u in range(i * size, (i + 1) * size):
                    for v in range(j * size, (j + 1) * size):
                        assert g.edge_bit(u, v) == want, (pattern.bits, u, v)
        import random

        rng = random.Random(2024)
        for _ in range(1000):
            tv = [rng.randrange(i * size, (i + 1) * size) for i in range(k)]
            assert induced(g, tv).bits == pattern.bits, (pattern.bits, tv)


@criterion(9, "dominance at desk scale: tnp exact margin and blowup sampling bound")
def test_criterion_09_dominance():
    g = build_tnp(60, F(3, 5), seed=5)
    report = density_exact(g, transitive(4))
    assert report.estimate > (1 + F(1, 20)) * F(3, 8), report.estimate

    r = blowup_group_count(4, 1)
    blowup = build_blowup([transitive(4)], 2 * r, seed=1)
    mc = density_montecarlo(blowup, transitive(4), 1_000_000, seed=17)
    bound = factorial(4) / r**4
    assert mc.estimate >= bound - 4 * mc.stderr, (mc.estimate, bound)


@criterion(10, "estimator calibration: MC within 4 sigma, exact partition of unity")
def test_criterion_10_calibration(all_catalogs):
    g = build_tnp(30, F(1, 2), seed=21)
    exact = density_exact(g, transitive(4))
    mc = density_montecarlo(g, transitive(4), 100_000, seed=33)
    assert abs(float(exact.estimate) - mc.estimate) <= 4 * mc.stderr

    g20 = build_tnp(20, F(1, 2), seed=11)
    census = density_census(g20, 4)
    total = sum(
        F(census.get(t.bits, 0), comb(20, 4)) for t in all_catalogs[4]
    )
    assert total == 1


@criterion(11, "CLI determinism across reruns and thread counts {1,4}")
def test_criterion_11_cli_determinism(tmp_path, monkeypatch, capsys):
    from tourlab.cli import main

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TOURLAB_CACHE", raising=False)
    family = tmp_path / "family.txt"
    family.write_text("h=4\n111111\n")

    def graph_args(name):
        return ("construct", "--kind", "tnp", "--n", "40", "--p", "1/2",
                "--seed", "7", "--out", name)

    matrix: list[tuple[str, ...]] = [
        ("enumerate", "--h", "5", "--out", "cat5.txt"),
        ("bias-table", "--h", "4", "--out", "bias.csv"),
        ("bias-table", "--h", "4", "--format", "json", "--out", "bias.json"),
        ("fas-table", "--h", "4", "--out", "fas.csv"),
        ("classify", "--h", "5"),
        graph_args("g.txt"),
        ("construct", "--kind", "transversal", "--n", "30", "--h", "6",
         "--hstar", "C3", "--seed", "7", "--out", "tv.txt"),
        ("construct", "--kind", "blowup", "--n", "16",
         "--family", str(family), "--seed", "7", "--out", "bl.txt"),
        ("density", "--graph", "g.txt", "--pattern", "T4", "--out", "d.csv"),
        ("density", "--graph", "g.txt", "--pattern", "C3", "--mode", "mc",
         "--samples", "20000", "--seed", "3", "--out", "dmc.csv"),
        ("dominance-check", "--graph", "g.txt", "--h", "4", "--x", "1/10",
         "--out", "dom.csv"),
    ]

    def run_once(threads: int) -> dict[str, bytes]:
        outputs: dict[str, bytes] = {}
        for argv in matrix:
            capsys.readouterr()
            code = main(list(argv) + ["--threads", str(threads)])
            assert code == 0, argv
            outputs[" ".join(argv) + "|stdout"] = capsys.readouterr().out.encode()
            if "--out" in argv:
                name = argv[argv.index("--out") + 1]
                outputs[name + f"|{argv[0]}"] = (tmp_path / name).read_bytes()
        return outputs

    first = run_once(1)
    second = run_once(1)
    parallel = run_once(4)
    assert first == second
    assert first == parallel
