"""Each demo script runs to completion against the library as it stands."""

import glob
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

DEMOS = sorted(glob.glob(os.path.join(REPO_ROOT, "demos", "*.py")))


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_runs(script):
    path = [os.path.join(REPO_ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    # the demos read configs/ relative to the repository root
    proc = subprocess.run([sys.executable, script], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
