"""Every script in ``demos/`` runs to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    rest = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=demo.parent,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, rest]) if rest else src),
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
