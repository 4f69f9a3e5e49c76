from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import io
import json
import os
from fractions import Fraction
from math import comb

import pytest

from tourlab.cli import main
from tourlab.construct import BigTournament
from tourlab.enumeration import _write_auts, _write_cache, cache_path

LONG = os.environ.get("TOURLAB_LONG") == "1"


@pytest.fixture()
def run(capsys, tmp_path, monkeypatch):
    """Invoke the CLI in an isolated cwd; returns (exit_code, stdout)."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TOURLAB_CACHE", raising=False)

    def invoke(*argv: str) -> tuple[int, str]:
        capsys.readouterr()
        code = main(list(argv))
        captured = capsys.readouterr()
        invoke.stderr = captured.err
        return code, captured.out

    invoke.tmp_path = tmp_path
    return invoke


def warm_cache(cwd, catalog) -> None:
    """Write the catalog and its aut file to the default cache under cwd."""
    path = cache_path(catalog.h, cwd / ".tourlab-cache")
    _write_cache(path, catalog)
    _write_auts(path.with_suffix(".aut"), catalog)


def read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class TestEnumerate:
    def test_count_lines(self, run):
        code, out = run("enumerate", "--h", "5")
        assert code == 0 and out == "h=5 classes=12\n"
        code, out = run("enumerate", "--h", "3")
        assert code == 0 and out == "h=3 classes=2\n"

    def test_level_lines_report_work_on_stderr(self, run):
        code, out = run("enumerate", "--h", "6")
        assert code == 0 and out == "h=6 classes=56\n"
        assert "level h=6: 56 classes, 81 of 384 extensions searched\n" in run.stderr
        code, out = run("enumerate", "--h", "6")
        assert code == 0 and out == "h=6 classes=56\n"
        assert "level h=" not in run.stderr  # read from the cache

    def test_unsupported_guard(self, run):
        code, _ = run("enumerate", "--h", "11", "--allow-long")
        assert code == 3

    def test_long_run_guard(self, run):
        code, _ = run("enumerate", "--h", "9")
        assert code == 3

    def test_cache_env_override(self, run, monkeypatch, tmp_path):
        monkeypatch.setenv("TOURLAB_CACHE", str(tmp_path / "envcache"))
        code, _ = run("enumerate", "--h", "4")
        assert code == 0
        assert (tmp_path / "envcache" / "tournaments_h4.txt").exists()

    def test_logged_config_names_the_env_cache(self, run, monkeypatch, tmp_path):
        monkeypatch.setenv("TOURLAB_CACHE", str(tmp_path / "envcache"))
        code, _ = run("enumerate", "--h", "4", "--cache-dir", "flagcache")
        config = json.loads(run.stderr.splitlines()[0].removeprefix("config: "))
        assert code == 0 and config["cache_dir"] == str(tmp_path / "envcache")
        assert not (tmp_path / "flagcache").exists()


class TestBiasTable:
    def test_table1_reproduced(self, run):
        code, out = run("bias-table", "--h", "4")
        assert code == 0
        rows = read_csv(out)
        assert sorted(r["coeffs"] for r in rows) == [
            "0:1/8 4:-2/1",
            "0:1/8 4:-2/1",
            "0:3/8 2:-2/1 4:2/1",
            "0:3/8 2:2/1 4:2/1",
        ]

    def test_h5_bh_column(self, run):
        code, out = run("bias-table", "--h", "5")
        rows = read_csv(out)
        assert len(rows) == 12
        assert sum(int(r["in_Bh"]) for r in rows) == 6

    def test_json_and_csv_hold_same_data(self, run):
        _, csv_out = run("bias-table", "--h", "4", "--format", "csv")
        _, json_out = run("bias-table", "--h", "4", "--format", "json")
        csv_rows = read_csv(csv_out)
        json_rows = json.loads(json_out)
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            assert set(c) == set(j)
            for key in c:
                assert c[key] == str(j[key])


class TestClassify:
    def test_summary_lines(self, run):
        code, out = run("classify", "--h", "6")
        assert code == 0
        assert out.startswith("h=6 |T_h|=56 |B_h|=25 ratio_approx=0.446428571")
        _, out = run("classify", "--h", "3")
        assert out == "h=3 |T_h|=2 |B_h|=1 ratio_approx=0.5\n"

    def test_long_gate(self, run):
        code, _ = run("classify", "--h", "9")
        assert code == 3

    def test_h1_reads_back_from_a_warm_cache(self, run):
        # the one h=1 class is the empty line after the catalog header
        cold = run("classify", "--h", "1")
        assert cold == (0, "h=1 |T_h|=1 |B_h|=0 ratio_approx=0.0\n")
        assert (run.tmp_path / ".tourlab-cache" / "tournaments_h1.txt").read_text() == "h=1\n\n"
        assert run("classify", "--h", "1") == cold


class TestFasTable:
    def test_witness_and_max_forward(self, run):
        code, out = run("fas-table", "--h", "4")
        rows = read_csv(out)
        assert code == 0 and len(rows) == 4
        for row in rows:
            assert int(row["fas"]) + int(row["max_forward"]) == 6
            assert sorted(row["witness"].split()) == ["1", "2", "3", "4"]
        transitive_row = [r for r in rows if r["fas"] == "0"]
        assert len(transitive_row) == 1


class TestConstructAndDensity:
    def test_tnp_p1_all_ones(self, run, tmp_path):
        out_file = tmp_path / "g.txt"
        code, _ = run("construct", "--kind", "tnp", "--n", "20", "--p", "1/1",
                      "--seed", "3", "--out", str(out_file))
        assert code == 0
        body = "".join(out_file.read_text().splitlines()[2:])
        assert body == "1" * comb(20, 2)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--kind", "tnp", "--n", "30", "--p", "2/5"),
            ("--kind", "transversal", "--n", "30", "--h", "6", "--hstar", "C3"),
            ("--kind", "blowup", "--n", "16", "--family", "FAMILY"),
        ],
        ids=["tnp", "transversal", "blowup"],
    )
    def test_kinds_round_trip(self, run, tmp_path, argv):
        family = tmp_path / "family.txt"
        family.write_text("h=4\n111111\n")
        argv = [a if a != "FAMILY" else str(family) for a in argv]
        out_file = tmp_path / "g.txt"
        code, _ = run("construct", *argv, "--seed", "7", "--out", str(out_file))
        assert code == 0
        g = BigTournament.load(out_file)
        g.save(tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_text() == out_file.read_text()
        assert g.provenance["seed"] == 7

    def test_failed_save_keeps_previous_file(self, run, tmp_path, monkeypatch):
        argv = ("construct", "--kind", "tnp", "--n", "12", "--p", "1/2", "--out", "g.txt")
        run(*argv, "--seed", "1")
        before = (tmp_path / "g.txt").read_bytes()
        real = BigTournament.to_text
        # a lone surrogate cannot be encoded, so the write fails inside the file
        monkeypatch.setattr(BigTournament, "to_text", lambda g: real(g) + "\udc80")
        code, out = run(*argv, "--seed", "2")
        assert (code, out) == (2, "")
        assert (tmp_path / "g.txt").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt"]

    def test_density_named_pattern(self, run, tmp_path):
        out_file = tmp_path / "g.txt"
        run("construct", "--kind", "tnp", "--n", "25", "--p", "1/1",
            "--seed", "1", "--out", str(out_file))
        code, out = run("density", "--graph", str(out_file), "--pattern", "T5")
        assert code == 0
        row = read_csv(out)[0]
        assert row["estimate_num"] == "1" and row["estimate_den"] == "1"

    def test_density_partition_of_unity(self, run, tmp_path):
        out_file = tmp_path / "g.txt"
        run("construct", "--kind", "tnp", "--n", "20", "--p", "1/2",
            "--seed", "11", "--out", str(out_file))
        code, out = run("density", "--graph", str(out_file),
                        "--pattern", "all", "--h", "4")
        assert code == 0
        total = sum(
            Fraction(int(r["estimate_num"]), int(r["estimate_den"]))
            for r in read_csv(out)
        )
        assert total == 1

    def test_density_missing_file(self, run):
        run("construct", "--kind", "tnp", "--n", "8", "--p", "1/2",
            "--seed", "1", "--out", "g.txt")
        for graph, pattern in (("nope.txt", "T4"), (".", "T4"), ("g.txt", ".")):
            code, _ = run("density", "--graph", graph, "--pattern", pattern)
            assert code == 2, (graph, pattern)

    def test_density_guard(self, run, tmp_path):
        out_file = tmp_path / "g.txt"
        run("construct", "--kind", "tnp", "--n", "200", "--p", "1/2",
            "--seed", "1", "--out", str(out_file))
        code, _ = run("density", "--graph", str(out_file), "--pattern", "T5")
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ("density", "--pattern", "all", "--h", "4"),
        ("dominance-check", "--h", "4", "--x", "1/10"),
    ], ids=["density", "dominance-check"])
    def test_catalog_stages_get_threads(self, run, tmp_path, monkeypatch, argv):
        # --threads reaches enumeration, the one stage with worker processes
        from tourlab import cli

        seen = []
        real = cli.load_or_enumerate

        def recording(*args, **kwargs):
            seen.append(kwargs.get("threads"))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "load_or_enumerate", recording)
        run("construct", "--kind", "tnp", "--n", "12", "--p", "1/2",
            "--seed", "3", "--out", str(tmp_path / "g.txt"))
        code, _ = run(argv[0], "--graph", str(tmp_path / "g.txt"), *argv[1:], "--threads", "2")
        assert code == 0 and seen == [2]

    def test_dominance_check(self, run, tmp_path):
        out_file = tmp_path / "g.txt"
        run("construct", "--kind", "tnp", "--n", "60", "--p", "3/5",
            "--seed", "5", "--out", str(out_file))
        code, out = run("dominance-check", "--graph", str(out_file),
                        "--h", "4", "--x", "1/10", "--beta", "1/20",
                        "--out", str(tmp_path / "r.csv"))
        assert code == 0
        assert "family=1 satisfied=1" in out

    def test_dominance_check_empty_family(self, run):
        # the one class at h=2 is transitive, with B(H,x) = d(H) = 1 at every x
        run("construct", "--kind", "tnp", "--n", "8", "--p", "1/2",
            "--seed", "1", "--out", "g.txt")
        code, out = run("dominance-check", "--graph", "g.txt", "--h", "2", "--x", "1/10")
        assert (code, out) == (0, "h=2 x=1/10 family=0 satisfied=0\n")


# (id, host vertices, census arguments, exit code, text of the error line)
BAD_CENSUS_REQUESTS = [
    ("mc-without-seed", "20", ("--h", "4", "--mode", "mc", "--samples", "10"), 2,
     "montecarlo mode needs samples and seed"),
    ("zero-samples", "20", ("--h", "4", "--mode", "mc", "--samples", "0", "--seed", "1"), 2,
     "need samples >= 1"),
    ("pattern-larger-than-host", "4", ("--h", "5"), 2, "does not fit a host on 4 vertices"),
    ("exact-with-samples", "20", ("--h", "4", "--samples", "5"), 2,
     "exact mode takes no samples or seed"),
    ("exact-with-seed", "20", ("--h", "4", "--mode", "exact", "--seed", "1"), 2,
     "exact mode takes no samples or seed"),
    ("exact-guard", "200", ("--h", "6"), 3, "exceeds the exact-mode guard"),
    # C(40,8) = 76,904,685 passes the 10^8 guard, but each subset costs up to a
    # canonical search above h=7
    ("exact-search-guard", "40", ("--h", "8"), 3, "guard 1000000 for h > 7"),
    ("mc-search-guard", "20",
     ("--h", "8", "--mode", "mc", "--samples", "1000001", "--seed", "1"), 3,
     "guard 1000000 for h > 7, where each sample costs"),
    ("mc-draw-guard", "7", ("--h", "6", "--mode", "mc", "--samples", "10", "--seed", "1"), 3,
     "use exact mode: C(7,6) = 7 subsets"),
]
BAD_REQUESTS = [
    *(pytest.param(command, *case, id=f"{command[0]}-{name}")
      for command in (("dominance-check", "--x", "1/10"), ("density", "--pattern", "all"))
      for name, *case in BAD_CENSUS_REQUESTS),
    *(pytest.param(("dominance-check", "--x", x), "20", ("--h", "4"), 2,
                   f"x must lie in (0, 1/2), got {x}", id=f"dominance-check-x-{name}")
      for name, x in (("one-half", "1/2"), ("zero", "0"))),
]


class TestTournamentFiles:
    """--pattern, --hstar and --family read files in the catalog cache's
    format, through the cache's own reader."""

    @pytest.fixture()
    def graph(self, run):
        run("construct", "--kind", "tnp", "--n", "12", "--p", "1/2",
            "--seed", "4", "--out", "g.txt")
        return "g.txt"

    def test_enumerate_out_reads_back(self, run, graph):
        assert run("enumerate", "--h", "4", "--out", "fam.txt")[0] == 0
        code, listed = run("density", "--graph", graph, "--pattern", "fam.txt")
        assert code == 0
        assert (code, listed) == run("density", "--graph", graph, "--pattern", "all", "--h", "4")
        code, _ = run("construct", "--kind", "blowup", "--n", "32", "--family", "fam.txt",
                      "--seed", "1", "--out", "b.txt")
        assert code == 0, run.stderr
        family = (run.tmp_path / "fam.txt").read_text().split()[1:]
        assert BigTournament.load(run.tmp_path / "b.txt").provenance["family"] == family

    def test_h1_enumerate_out_reads_back(self, run, graph):
        assert run("enumerate", "--h", "1", "--out", "one.txt")[0] == 0
        code, listed = run("density", "--graph", graph, "--pattern", "one.txt")
        assert code == 0, run.stderr
        assert (code, listed) == run("density", "--graph", graph, "--pattern", "all", "--h", "1")
        assert read_csv(listed)[0]["estimate_num"] == "1"

    @pytest.mark.parametrize("text", ["111111\n", "h=4\n\n111111\n   \n\n"],
                             ids=["headerless", "blank-lines"])
    def test_pattern_and_family_files(self, run, graph, text):
        (run.tmp_path / "p.txt").write_text(text)
        expected = run("density", "--graph", graph, "--pattern", "T4")
        assert expected[0] == 0
        assert run("density", "--graph", graph, "--pattern", "p.txt", "--h", "4") == expected
        code, _ = run("construct", "--kind", "blowup", "--n", "16", "--family", "p.txt",
                      "--h", "4", "--seed", "1", "--out", "b.txt")
        assert code == 0, run.stderr
        assert BigTournament.load(run.tmp_path / "b.txt").provenance["family"] == ["111111"]

    @pytest.mark.parametrize("argv", [
        ("density", "--graph", "g.txt", "--pattern", "p.txt"),
        ("construct", "--kind", "blowup", "--n", "16", "--family", "p.txt",
         "--seed", "1", "--out", "b.txt"),
        ("construct", "--kind", "transversal", "--n", "30", "--h", "6", "--hstar", "p.txt",
         "--seed", "1", "--out", "b.txt"),
    ], ids=["pattern", "family", "hstar"])
    def test_missing_header_without_h(self, run, graph, argv):
        (run.tmp_path / "p.txt").write_text("111111\n")
        code, out = run(*argv)
        assert (code, out) == (2, "")
        assert run.stderr.splitlines()[-1] == "error: p.txt has no 'h=<k>' header; pass --h"
        assert not (run.tmp_path / "b.txt").exists()

    @pytest.mark.parametrize("text, argv, sizes", [
        ("h=3\n101\n", ("density", "--graph", "g.txt", "--pattern", "p.txt", "--h", "5"),
         ("p.txt", 3, 5)),
        ("", ("density", "--graph", "g.txt", "--pattern", "T4", "--h", "6"), ("T4", 4, 6)),
        ("h=5\n1111111111\n", ("construct", "--kind", "blowup", "--n", "30", "--family",
                               "p.txt", "--h", "6", "--seed", "1", "--out", "b.txt"),
         ("p.txt", 5, 6)),
    ], ids=["pattern-header", "pattern-name", "family-header"])
    def test_size_mismatch_with_h(self, run, graph, text, argv, sizes):
        (run.tmp_path / "p.txt").write_text(text)
        code, out = run(*argv)
        assert (code, out) == (2, "")
        name, own, flag = sizes
        assert run.stderr.splitlines()[-1] == (
            f"error: {name} gives {own}-vertex tournaments, but --h is {flag}")
        assert not (run.tmp_path / "b.txt").exists()

    @pytest.mark.parametrize("argv", [
        ("density", "--graph", "g.txt", "--pattern", "p.txt", "--h", "5"),
        ("construct", "--kind", "blowup", "--n", "16", "--family", "p.txt",
         "--seed", "1", "--out", "b.txt"),
        ("construct", "--kind", "transversal", "--n", "30", "--h", "6", "--hstar", "p.txt",
         "--seed", "1", "--out", "b.txt"),
    ], ids=["pattern", "family", "hstar"])
    @pytest.mark.parametrize("text", ["h=3\n", "h=3\n\n  \n"], ids=["header", "blank-lines"])
    def test_header_without_tournaments(self, run, graph, argv, text):
        (run.tmp_path / "p.txt").write_text(text)
        code, out = run(*argv)
        assert (code, out) == (2, "")
        assert run.stderr.splitlines()[-1] == "error: p.txt holds no tournament"
        assert not (run.tmp_path / "b.txt").exists()

    def test_family_by_name(self, run):
        (run.tmp_path / "p.txt").write_text("111111\n")
        argv = ("construct", "--kind", "blowup", "--h", "4", "--n", "16", "--seed", "1")
        assert run(*argv, "--family", "T4", "--out", "named.txt")[0] == 0, run.stderr
        assert run(*argv, "--family", "p.txt", "--out", "file.txt")[0] == 0, run.stderr
        named = (run.tmp_path / "named.txt").read_bytes()
        assert named == (run.tmp_path / "file.txt").read_bytes()


class TestErrors:
    def test_missing_required(self, run):
        code, _ = run("density", "--pattern", "T4")
        assert code == 2

    def test_bad_probability(self, run, tmp_path):
        code, _ = run("construct", "--kind", "tnp", "--n", "10", "--p", "7/5",
                      "--seed", "1", "--out", str(tmp_path / "g.txt"))
        assert code == 2

    @pytest.mark.parametrize("command", ["enumerate", "fas-table"])
    def test_h_below_one_is_a_bad_argument(self, run, command):
        code, out = run(command, "--h", "0")
        assert (code, out) == (2, "")
        assert run.stderr.splitlines()[-1] == "error: enumeration needs h >= 1, got 0"

    @pytest.mark.parametrize("flag", ["--allow-long", "--cache-dir=cache"])
    def test_construct_takes_no_catalog_flag(self, run, capsys, flag):
        # construct reads no catalog, so these belong to the commands that do
        with pytest.raises(SystemExit) as exc:
            run("construct", "--kind", "tnp", "--n", "10", "--p", "1/2", "--seed", "1",
                "--out", "g.txt", flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (run.tmp_path / "g.txt").exists()

    def test_enumerate_out_directory(self, run, tmp_path):
        (tmp_path / "out").mkdir()
        code, _ = run("enumerate", "--h", "4", "--out", "out")
        assert code == 2
        assert "error:" in run.stderr.splitlines()[-1]

    def test_hstar_all_names_hstar(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["construct", "--kind", "transversal", "--n", "30", "--h", "6",
                     "--hstar", "all", "--seed", "1", "--out", str(tmp_path / "g.txt")])
        assert code == 2
        assert "--hstar" in capsys.readouterr().err.splitlines()[-1]
        assert not (tmp_path / "g.txt").exists()
        assert not (tmp_path / ".tourlab-cache").exists()

    @pytest.mark.parametrize("samples", ["0", "-5"])
    @pytest.mark.parametrize("command", ["density", "dominance-check"])
    def test_mc_sample_counts_below_one(self, run, command, samples):
        run("construct", "--kind", "tnp", "--n", "20", "--p", "1/2",
            "--seed", "1", "--out", "g.txt")
        pattern = ("--pattern", "T4") if command == "density" else ("--h", "4", "--x", "1/10")
        code, out = run(command, "--graph", "g.txt", *pattern, "--mode", "mc",
                        "--samples", samples, "--seed", "1")
        assert code == 2 and out == ""
        assert "need samples >= 1" in run.stderr.splitlines()[-1]

    @pytest.mark.parametrize("flags", [("--samples", "5"), ("--seed", "1")])
    def test_exact_mode_refuses_samples_and_seed(self, run, flags):
        # exact mode counts every subset, so a sample count or a seed would go unread
        run("construct", "--kind", "tnp", "--n", "12", "--p", "1/2",
            "--seed", "1", "--out", "g12.txt")
        code, out = run("density", "--graph", "g12.txt", "--pattern", "T4", *flags)
        assert (code, out) == (2, "")
        assert run.stderr.splitlines()[-1] == "error: exact mode takes no samples or seed"

    def test_mc_pattern_larger_than_host(self, run, monkeypatch):
        from tourlab import density

        def no_draw(*args):
            raise AssertionError("sampled subsets for a pattern larger than the host")

        monkeypatch.setattr(density, "_sample_subsets", no_draw)
        run("construct", "--kind", "tnp", "--n", "4", "--p", "1/2",
            "--seed", "1", "--out", "g.txt")
        code, out = run("density", "--graph", "g.txt", "--pattern", "T5", "--mode", "mc",
                        "--samples", "10", "--seed", "1")
        assert code == 2 and out == ""
        assert "does not fit a host on 4 vertices" in run.stderr.splitlines()[-1]

    @pytest.mark.parametrize("command, n, request_argv, expected, message", BAD_REQUESTS)
    def test_bad_census_request_exits_before_catalog(
        self, run, monkeypatch, command, n, request_argv, expected, message
    ):
        from tourlab import cli

        calls = []

        def recording(stage):
            real = getattr(cli, stage)

            def call(*args, **kwargs):
                calls.append(stage)
                return real(*args, **kwargs)

            return call

        for stage in ("load_or_enumerate", "_classified"):
            monkeypatch.setattr(cli, stage, recording(stage))
        run("construct", "--kind", "tnp", "--n", n, "--p", "1/2",
            "--seed", "1", "--out", "g.txt")
        code, out = run(*command, "--graph", "g.txt", *request_argv)
        assert (code, out, calls) == (expected, "", [])
        assert message in run.stderr.splitlines()[-1]

    @pytest.mark.parametrize("argv, message", [
        (("classify",), "classify needs --h"),
        (("density", "--graph", "g.txt", "--pattern", "all"), "pattern 'all' needs --h"),
    ], ids=["classify", "density-all"])
    def test_catalog_without_h(self, run, argv, message):
        run("construct", "--kind", "tnp", "--n", "8", "--p", "1/2",
            "--seed", "1", "--out", "g.txt")
        code, out = run(*argv)
        assert (code, out) == (2, "")
        assert run.stderr.splitlines()[-1] == f"error: {message}"

    def test_hstar_file_with_two_tournaments(self, run, tmp_path):
        (tmp_path / "f.txt").write_text("h=3\n000\n001\n")
        code, out = run("construct", "--kind", "transversal", "--n", "24", "--h", "6",
                        "--hstar", "f.txt", "--seed", "1", "--out", "g.txt")
        assert (code, out) == (2, "")
        assert "--hstar must resolve to exactly one tournament" in run.stderr.splitlines()[-1]
        assert not (tmp_path / "g.txt").exists()

    def test_transversal_without_parts(self, run):
        code, out = run("construct", "--kind", "transversal", "--n", "60", "--h", "0",
                        "--hstar", "T5", "--seed", "1", "--out", "g.txt")
        assert code == 2 and out == ""
        assert "needs fewer than h=0" in run.stderr.splitlines()[-1]

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_thread_counts_below_one(self, run, threads):
        for argv in (("enumerate", "--h", "5"),
                     ("construct", "--kind", "tnp", "--n", "10", "--p", "1/2",
                      "--seed", "1", "--out", "g.txt")):
            code, out = run(*argv, "--threads", threads)
            assert code == 2 and out == "", argv
            assert "--threads" in run.stderr.splitlines()[-1]

    def test_packing_failure_is_internal_error(self, run, tmp_path, monkeypatch):
        from tourlab import construct

        def fail(r, h, k, seed):
            raise construct.PackingFailed(f"no {k} edge-disjoint K_{h} in K_{r}")

        monkeypatch.setattr(construct, "_pack_cliques", fail)
        family = tmp_path / "family.txt"
        family.write_text("h=4\n111111\n")
        code, _ = run("construct", "--kind", "blowup", "--n", "16", "--family",
                      str(family), "--seed", "7", "--out", "g.txt")
        assert code == 4
        assert run.stderr.splitlines()[-1].startswith("internal error: no 1 edge-disjoint")

    def test_bad_fraction_is_usage_error(self, run):
        with pytest.raises(SystemExit) as err:
            run("construct", "--kind", "tnp", "--n", "10", "--p", "zzz",
                "--seed", "1", "--out", "g.txt")
        assert err.value.code == 2


class TestDeterminism:
    MATRIX = [
        ("enumerate", "--h", "5"),
        ("classify", "--h", "5"),
        ("bias-table", "--h", "5"),
        ("fas-table", "--h", "4"),
    ]

    @pytest.mark.parametrize("argv", MATRIX, ids=lambda a: a[0])
    def test_reruns_and_thread_counts_agree(self, run, argv):
        outputs = {
            run(*argv, "--threads", str(threads))[1]
            for threads in (1, 4, 1)
        }
        assert len(outputs) == 1

    def test_construct_reruns_byte_identical(self, run, tmp_path):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        run("construct", "--kind", "tnp", "--n", "50", "--p", "1/2",
            "--seed", "9", "--out", str(f1))
        run("construct", "--kind", "tnp", "--n", "50", "--p", "1/2",
            "--seed", "9", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()


class TestStats:
    def test_stats_line_leaves_stdout_alone(self, run):
        plain_code, plain = run("fas-table", "--h", "5")
        assert not any(line.startswith("{") for line in run.stderr.splitlines())
        code, out = run("fas-table", "--h", "5", "--stats")
        assert (code, out) == (plain_code, plain)
        stats = json.loads(run.stderr.splitlines()[-1])
        assert stats["command"] == "fas-table" and stats["exit"] == 0
        assert set(stats["stages_s"]) == {"catalog", "classify", "output"}
        assert stats["workers"] >= 1 and stats["peak_rss_mb"] > 0
        assert stats["canon_searches"] == 0  # warm cache: aut is read from the aut file
        assert stats["dp_entries"] == 35  # distinct induced codes of the 12 classes
        assert "canon_cache" not in stats
        assert set(stats["loaded"]) == {"numpy"}

    def test_missing_aut_file_is_recomputed_silently(self, run, recwarn):
        _, plain = run("fas-table", "--h", "5")
        aut_file = cache_path(5, run.tmp_path / ".tourlab-cache").with_suffix(".aut")
        pinned = aut_file.read_bytes()
        aut_file.unlink()
        code, out = run("fas-table", "--h", "5", "--stats")
        assert (code, out) == (0, plain)
        # a miss: the enumeration's searches, 1 + 2 + 6 + 14 over levels h=2..5
        assert json.loads(run.stderr.splitlines()[-1])["canon_searches"] == 23
        assert aut_file.read_bytes() == pinned
        assert not recwarn.list

    def test_dominance_check_stages(self, run):
        run("construct", "--kind", "tnp", "--n", "20", "--p", "3/5",
            "--seed", "1", "--out", "g.txt")
        code, _ = run("dominance-check", "--graph", "g.txt", "--h", "6", "--x", "1/10",
                      "--stats")
        stats = json.loads(run.stderr.splitlines()[-1])
        assert code == 0 and set(stats["stages_s"]) == {
            "import", "graph", "catalog", "classify", "select", "census", "output"}

    @pytest.mark.parametrize("argv", [
        ("density", "--pattern", "all"),
        ("dominance-check", "--x", "1/10"),
    ], ids=["density", "dominance-check"])
    def test_warm_census_of_catalog_classes_runs_no_search(self, run, argv):
        # the catalog holds each class's canonical form and aut, and the h=6
        # census maps codes through the class table
        run("construct", "--kind", "tnp", "--n", "20", "--p", "3/5",
            "--seed", "1", "--out", "g.txt")
        run("enumerate", "--h", "6")
        code, _ = run(*argv, "--graph", "g.txt", "--h", "6", "--stats")
        assert code == 0
        assert json.loads(run.stderr.splitlines()[-1])["canon_searches"] == 0

    def test_enumeration_searches_are_counted_at_any_threads(self, run, monkeypatch):
        # the workers' searches count too: levels h=6 and h=7 run on two workers
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        stats = {}
        for threads in ("1", "2"):
            code, _ = run("enumerate", "--h", "7", "--threads", threads, "--stats",
                          "--cache-dir", f"cache{threads}")
            assert code == 0
            stats[threads] = json.loads(run.stderr.splitlines()[-1])
        assert stats["2"]["workers"] == 2
        # 1 + 2 + 6 + 14 + 81 + 573: the searches of levels h=2..7
        assert stats["1"]["canon_searches"] == stats["2"]["canon_searches"] == 677

    def test_stats_line_on_failure(self, run):
        code, out = run("enumerate", "--h", "9", "--stats")
        assert code == 3 and out == ""
        stats = json.loads(run.stderr.splitlines()[-1])
        assert stats["exit"] == 3 and stats["stages_s"] == {}


class TestPinnedOutput:
    # sha256 of the h=7 tables; classification must reproduce them byte for byte
    PINS = {
        "bias-table": "fdb1a0b81eba4a8c63536eabc0941452483328a1e8ab8390dcc3ebb9d00b0314",
        "fas-table": "a98a20ac1ecf901203a761086dcf34f7df27cb1411db978618e549baf7ca50ac",
    }

    @pytest.mark.parametrize("command", sorted(PINS))
    def test_h7_stdout_pinned(self, run, command):
        code, out = run(command, "--h", "7")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINS[command]

    # sha256 of `fas-table --h 8` stdout, the table the catalog-h8 benchmark checks
    FAS_TABLE_H8 = "1aeee81b75dc48cd165282ade3387474c332c2a48e6f1387603fa9b19adc4dcb"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_h8_fas_table_pinned(self, run, catalog8, monkeypatch, threads):
        # a warm cache: no enumeration, and classification starts no process pool
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        warm_cache(run.tmp_path, catalog8)
        code, out = run("fas-table", "--h", "8", "--threads", threads)
        assert code == 0, run.stderr
        assert hashlib.sha256(out.encode()).hexdigest() == self.FAS_TABLE_H8

    # sha256 of density and dominance-check stdout on `construct --kind tnp
    # --p 3/5 --seed 1` hosts: host vertices, arguments after --graph
    CENSUS_PINS = {
        "dominance-check-h6": (
            20, ("dominance-check", "--h", "6", "--x", "1/10"),
            "11597cee37714d28bf0dab24ebe96a4cdbb596b8aaf7a30a2f262b6fa503add3"),
        "dominance-check-h7": (
            20, ("dominance-check", "--h", "7", "--x", "1/4"),
            "88582b169fccc68b28133364a9f0285312605b6db18fdc108932fdc0abac89ae"),
        "dominance-check-h8": (
            12, ("dominance-check", "--h", "8", "--x", "1/10"),
            "7c4ca7385841b573d005ff349e7fc1bcd2bf6d64b519cd20dd5213b877f90778"),
        "dominance-check-h6-mc": (
            2048, ("dominance-check", "--h", "6", "--x", "1/3", "--mode", "mc",
                   "--samples", "100000", "--seed", "7"),
            "72a2773986ec0fc080e35d1ec56038bf31d77a79c787e40dc6f3198715087edd"),
        "density-all-h7": (
            20, ("density", "--pattern", "all", "--h", "7"),
            "79a8d460e2c6108cb2a5324ac2a1ead6d8c31ccd512abb9f4f72cb41b234862e"),
        # about 4.5 draws a kept sample: most rows are redrawn, over several rounds
        "density-all-h6-mc-n12": (
            12, ("density", "--pattern", "all", "--h", "6", "--mode", "mc",
                 "--samples", "100000", "--seed", "7"),
            "3a666de97357fd3b008779b4b4efd431f12f89cf7048193b550cb6116df68886"),
    }

    @pytest.mark.parametrize("name", sorted(CENSUS_PINS))
    def test_census_stdout_pinned(self, run, catalog8, name):
        n, argv, pin = self.CENSUS_PINS[name]
        warm_cache(run.tmp_path, catalog8)
        run("construct", "--kind", "tnp", "--n", str(n), "--p", "3/5",
            "--seed", "1", "--out", "g.txt")
        code, out = run(argv[0], "--graph", "g.txt", *argv[1:])
        assert code == 0, run.stderr
        assert hashlib.sha256(out.encode()).hexdigest() == pin

    # h=9, on an exact 10-vertex host (10 subsets): the widest numerators
    DOMINANCE_CHECK_H9 = "d4a591c01ef8a14f911804dfd90839e5974e5db46ad5745c5c8585da5fde1a2b"

    @pytest.mark.skipif(not LONG, reason="h=9 long run; set TOURLAB_LONG=1")
    def test_long_dominance_check_pinned(self, run):
        run("construct", "--kind", "tnp", "--n", "10", "--p", "3/5",
            "--seed", "1", "--out", "g.txt")
        code, out = run("dominance-check", "--graph", "g.txt", "--h", "9", "--allow-long",
                        "--x", "1/10", "--threads", "2")
        assert code == 0, run.stderr
        assert hashlib.sha256(out.encode()).hexdigest() == self.DOMINANCE_CHECK_H9


class TestStreamedOutput:
    # sha256 of the h=6 tables as rendered whole, before rows were streamed
    PINS = {
        ("bias-table", "csv"): "57612ce390e90c22296774becb20445f13b3523d5e8600b27b84e2d3a8e0a8b9",
        ("bias-table", "json"): "48a6fdc915f177a46cd5ece0c8c391f25a36288cebb87d3b743a74ea523a0ab7",
        ("fas-table", "csv"): "14c01fbb96b0312effe6e8f8e30f2d6ef397170fcd62c02268dc37070e168493",
        ("fas-table", "json"): "cd095e274b343b85eb07afc6c540e560898d2045bfdbeb027f32108c47e15727",
    }

    @pytest.mark.parametrize("command, fmt", sorted(PINS))
    def test_h6_bytes_pinned_and_out_matches_stdout(self, run, command, fmt):
        code, out = run(command, "--h", "6", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINS[command, fmt]
        code, again = run(command, "--h", "6", "--format", fmt, "--out", "table.txt")
        assert (code, again) == (0, "")
        assert (run.tmp_path / "table.txt").read_bytes() == out.encode()
        assert sorted(p.name for p in run.tmp_path.iterdir()) == [".tourlab-cache", "table.txt"]

    def test_empty_json_list(self, capsys):
        # no command writes an empty table (a pattern file without a
        # tournament line exits 2), but the writer renders one as json.dumps
        from tourlab.cli import _write_rows

        _write_rows(["h"], iter([]), "json", None)
        assert capsys.readouterr().out == json.dumps([], indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_internal_error_mid_table(self, run, monkeypatch, fmt):
        from tourlab import bias

        real, calls = bias._bias_from_counts, []

        def faulty(h, counts):
            calls.append(h)
            if len(calls) == 30:
                raise bias.OddCoefficientResidue(f"odd coefficient in class 30 at h={h}")
            return real(h, counts)

        monkeypatch.setattr(bias, "_bias_from_counts", faulty)
        code, out = run("fas-table", "--h", "6", "--format", fmt, "--out", "table.txt")
        assert (code, out) == (4, "")
        assert run.stderr.splitlines()[-1] == "internal error: odd coefficient in class 30 at h=6"
        assert [p.name for p in run.tmp_path.iterdir()] == [".tourlab-cache"]
        # stdout keeps the rows written before the error, and no closing bracket
        calls.clear()
        code, out = run("fas-table", "--h", "6", "--format", fmt)
        assert code == 4
        if fmt == "csv":
            assert len(out.splitlines()) == 1 + 29
        else:
            assert out.count('"canon"') == 29 and not out.rstrip().endswith("]")


class TestConfigFile:
    def test_round_trip(self, run, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"h": 4, "format": "csv"}))
        code, from_config = run("bias-table", "--config", str(config))
        assert code == 0
        _, from_flags = run("bias-table", "--h", "4", "--format", "csv")
        assert from_config == from_flags

    def test_flags_override_config(self, run, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"h": 4}))
        _, out = run("classify", "--config", str(config), "--h", "3")
        assert out.startswith("h=3 ")

    def test_unreadable_config(self, run):
        code, _ = run("classify", "--h", "3", "--config", "missing.json")
        assert code == 2

    def test_config_not_an_object(self, run, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps([{"h": 4}]))
        code, out = run("classify", "--config", str(config))
        assert (code, out) == (2, "")
        assert run.stderr.splitlines()[-1].endswith(": expected a JSON object")

    def test_abbreviated_flag(self, run, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"h": 4}))
        code, out = run("classify", "--conf", str(config))
        assert (code, out) == run("classify", "--config", str(config))
        assert out.startswith("h=4 ")

    def test_last_config_wins(self, run, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"h": 4}))
        code, _ = run("classify", "--config", str(config), "--config", "missing.json")
        assert code == 2
        assert run.stderr.splitlines()[-1].startswith("error: cannot read config missing.json:")

    @pytest.mark.parametrize("argv, entries, expected_code, expected_text", [
        pytest.param(["classify"], {"h": 5.5}, 2, "argument --h: invalid int value: '5.5'",
                     id="float-h"),
        pytest.param(["density", "--graph", "g.txt", "--pattern", "T3"], {"mode": "bogus"}, 2,
                     "argument --mode: invalid choice: 'bogus'", id="bad-mode"),
        pytest.param(["dominance-check", "--graph", "g.txt"], {"h": 4, "x": 0.1}, 0,
                     "h=4 x=1/10 ", id="float-x-read-as-decimal"),
        pytest.param(["classify"], {"h": 3, "no_such_key": 1}, 2,
                     "unrecognized arguments: --no-such-key=1", id="unknown-key"),
        pytest.param(["classify"], {"h": 3, "stats": True, "allow_long": False, "seed": None},
                     0, '"command": "classify"', id="true-false-null"),
    ])
    def test_config_entries_are_parsed_as_flags(
        self, run, capsys, tmp_path, argv, entries, expected_code, expected_text
    ):
        run("construct", "--kind", "tnp", "--n", "12", "--p", "1/2", "--seed", "1",
            "--out", "g.txt")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(entries))
        try:
            code, out = run(*argv, "--config", str(config))
            text = out + run.stderr
        except SystemExit as exc:  # argparse rejects the value
            code, text = exc.code, capsys.readouterr().err
        assert code == expected_code and expected_text in text
