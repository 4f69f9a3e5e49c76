from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# one line fragment each demo prints on success
DEMOS = {
    "01_catalog_walkthrough": " 4        4                   64 ok",
    "02_bias_polynomials": "transitive: B(x) = 3/4 + x^2",
    "03_feedback_arc_sets": "Minimum feedback arc sets on 5 vertices:",
    "04_constructions": "rebuild with same seed is bit-identical: True",
    "05_density_and_dominance": "sum of densities = 1",
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(tmp_path, demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert DEMOS[demo] in result.stdout
    assert not any(tmp_path.iterdir())  # a demo writes nothing to its cwd


def test_readme_quick_start(tmp_path):
    # the README's python block as written; its commented outputs hold
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)[1]
    comments = [line.split("# ", 1)[1] for line in block.splitlines()
                if line.startswith("print(")]
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, "-c", block],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert comments[:3] == lines[:3] == ["1/4 - x^2", "0", "6"]
    assert len(lines) == 4 and re.fullmatch(r"\d+/\d+", lines[3])
    assert not any(tmp_path.iterdir())
