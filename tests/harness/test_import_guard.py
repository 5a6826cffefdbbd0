"""Import guard: the package pulls in no numpy.

``pyproject.toml`` declares no runtime dependencies and every CI job runs
the same channel whether or not numpy happens to be installed.  A fresh
interpreter that imports the whole stack must therefore not have loaded
it — an ``import numpy`` that drifts back in without a consumer costs
~16 MB of RSS per worker process and fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent.parent


def test_importing_the_stack_does_not_import_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC_ROOT))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import repro.harness, repro.service, repro.cluster, "
         "repro.gateway, sys; assert 'numpy' not in sys.modules"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
