"""The package namespace and what each kind of process imports."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tourlab
from tourlab import construct, core, density

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
