"""Every demo runs to completion against the source tree."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "01_score_a_prediction.py",
    "02_degradation_audit.py",
    "03_flat_projection.py",
    "04_dataset_statistics.py",
    "05_mock_pipeline.py",
])
def test_demo_exits_0(demo, tmp_path):
    # Demos 02 and 05 write files next to themselves, so each runs from a copy.
    demos = shutil.copytree(REPO / "demos", tmp_path / "demos")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run([sys.executable, str(demos / demo)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
