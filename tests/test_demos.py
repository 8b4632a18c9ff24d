"""Each narrative script in ``demos/`` runs to completion on its own."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hpmropt

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_clean(demo, tmp_path):
    src = str(Path(hpmropt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert "Traceback" not in child.stdout + child.stderr
    assert child.stdout
    # a demo only prints
    assert list(tmp_path.iterdir()) == []
