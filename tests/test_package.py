"""The package namespace, and what each kind of process imports and holds."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tourlab
from tourlab import bias, construct, core, density
from tourlab.enumeration import _write_cache, cache_path

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on this checkout."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    env.pop("TOURLAB_CACHE", None)
    result = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result


def test_import_loads_no_heavy_module(tmp_path):
    code = ("import sys, tourlab; print(sorted(m for m in ('numpy', 'mpmath', "
            "'multiprocessing', 'hashlib') if m in sys.modules))")
    assert _python("-c", code, cwd=tmp_path).stdout == "[]\n"


@pytest.mark.parametrize("command", ["enumerate", "fas-table"])
def test_catalog_commands_load_neither_numpy_nor_mpmath(tmp_path, command):
    # -X importtime lists on stderr every module the run imports
    result = _python("-X", "importtime", "-m", "tourlab.cli", command, "--h", "5",
                     cwd=tmp_path)
    imported = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")}
    assert "tourlab.bias" in imported
    assert not {"numpy", "mpmath", "resource"} & imported


def test_certified_bounds_run_without_mpmath(tmp_path):
    code = ("import sys; sys.modules['mpmath'] = None; "
            "from tourlab.fas import fas_dominance_condition as check, sqrt_log_over; "
            "print(check(30, 0, sqrt_log_over(30)), check(12, 30, sqrt_log_over(12)))")
    assert _python("-c", code, cwd=tmp_path).stdout == "True False\n"


def test_every_public_name_is_its_home_module_object():
    for name in tourlab.__all__:
        value = getattr(tourlab, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(tourlab.__all__) <= set(dir(tourlab))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        tourlab.no_such_name
    assert not hasattr(tourlab, "TooLarge")


def test_error_classes_are_reexported():
    assert density.TooLarge is core.TooLarge
    assert construct.PackingFailed is core.PackingFailed


def test_bias_margin_loads_no_numpy(tmp_path):
    # decided on bias's integer numerators; density only re-exports it
    assert density.bias_margin is bias.bias_margin is tourlab.bias_margin
    code = ("import sys, tourlab; from fractions import Fraction; "
            "print(tourlab.bias_margin([tourlab.transitive(4)], Fraction(1, 10)), "
            "'numpy' in sys.modules)")
    assert _python("-c", code, cwd=tmp_path).stdout == "101/1875 False\n"


# A process's peak RSS starts at that of the process that spawned it (Linux
# keeps the larger across exec), so each measured interpreter is spawned by
# a small intermediate one, not by the test process.
_SPAWN = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"


def _peak_rss_mb(*argv: str, cwd: Path) -> float:
    """Peak RSS of a ``tourlab.cli`` run, from its --stats line."""
    result = _python("-c", _SPAWN, sys.executable, "-m", "tourlab.cli", *argv, "--stats",
                     cwd=cwd)
    return json.loads(result.stderr.splitlines()[-1])["peak_rss_mb"]


def _script_peak_mb(script: str, cwd: Path) -> float:
    """Peak RSS of an interpreter that runs ``script``."""
    code = (f"{script}; import resource, sys; rss = resource.getrusage(resource.RUSAGE_SELF)"
            ".ru_maxrss; print(rss / (1 << 20 if sys.platform == 'darwin' else 1 << 10))")
    return float(_python("-c", _SPAWN, sys.executable, "-c", code, cwd=cwd).stdout)


def test_construct_memory_follows_the_draw_slice(tmp_path):
    # a whole-stream draw held some 100 MB of word and index arrays at n=2048
    numpy_only = _script_peak_mb("import numpy", tmp_path)
    built = _peak_rss_mb("construct", "--kind", "tnp", "--n", "2048", "--p", "3/5",
                         "--seed", "1", "--out", "g.txt", cwd=tmp_path)
    assert built - numpy_only <= 25, (built, numpy_only)


def test_census_memory_follows_the_block(tmp_path):
    # at h=7 a dense tally of the 2^21 labeled codes, its per-block bincount
    # and np.add.at into classes held some 35 MB beyond the host and the table
    host = ("from fractions import Fraction; from tourlab import density; "
            "from tourlab.construct import build_tnp; g = build_tnp(24, Fraction(3, 5), 5)")
    table_only = _script_peak_mb(f"{host}; density._class_table(7)", tmp_path)
    census = _script_peak_mb(f"{host}; density.density_census(g, 7)", tmp_path)
    assert census - table_only <= 20, (census, table_only)


def test_table_memory_follows_one_record(tmp_path, catalog8):
    # holding every record, row and the rendered h=8 table took some 25 MB more
    _write_cache(cache_path(8, tmp_path / ".tourlab-cache"), catalog8)
    catalog_only = _peak_rss_mb("enumerate", "--h", "8", cwd=tmp_path)
    table = _peak_rss_mb("fas-table", "--h", "8", cwd=tmp_path)
    assert table - catalog_only <= 15, (table, catalog_only)


def test_stats_reports_the_process_own_peak(tmp_path):
    # spawned straight from a process that holds some 150 MB; a peak that
    # counted the spawner's would read above that
    spawner = ("import subprocess, sys; ballast = b'x' * (150 << 20); "
               "sys.exit(subprocess.call(sys.argv[1:]))")
    result = _python("-c", spawner, sys.executable, "-m", "tourlab.cli", "enumerate",
                     "--h", "3", "--stats", cwd=tmp_path)
    peak = json.loads(result.stderr.splitlines()[-1])["peak_rss_mb"]
    assert peak < 100, peak
