"""Every demo script runs to completion (exit 0) from a scratch directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pidtucker

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    (tmp_path / "tmp").mkdir()
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(pidtucker.__file__).resolve().parents[1]),
        "TMPDIR": str(tmp_path / "tmp"),
        "XDG_CACHE_HOME": str(tmp_path / "cache"),
        "MPLBACKEND": "Agg",
    }
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
