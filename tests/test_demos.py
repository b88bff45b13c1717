"""Every demo script runs to completion against the current library.

Each demo is copied into a temporary directory first, so demos that write
files (05_rendering.py writes out/) leave the source tree untouched.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import partition_ot

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    # the package this suite imports: src/ here, or an installed wheel
    env = {**os.environ, "PYTHONPATH": str(Path(partition_ot.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
