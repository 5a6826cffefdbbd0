"""The benchmark driver under ``bench/`` still imports against ``src/``.

``bench/`` is frozen: it changes only in benchmark-only changes, so a
name it imports from ``repro`` (``repro.obs.scoped``,
``repro.queries.fresh_qids``, ``repro.service.load._perturb``, ...) must
not be deleted or renamed under it.  Importing the driver's modules here
turns such a change into a failing test instead of a benchmark run that
exits before printing a result.
"""

import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def benchlib():
    added = [str(ROOT / "bench"), str(ROOT / "src")]
    sys.path[:0] = added
    try:
        from benchlib import base, catalog, runner
        yield base, catalog, runner
    finally:
        for path in added:
            sys.path.remove(path)


def test_driver_modules_import(benchlib):
    _, catalog, runner = benchlib
    assert runner.WORKLOADS is catalog.WORKLOADS
    assert set(catalog.WORKLOADS) == {
        "sim_fig3", "admit_churn", "gateway_durable", "serve_sim",
        "cluster_sim"}


def test_every_workload_defines_the_six_functions(benchlib):
    base, catalog, _ = benchlib
    # base.py's docstring lists them as "    name(args) -> result".
    required = re.findall(r"^ {4}(\w+)\(", base.__doc__, re.MULTILINE)
    assert len(required) == 6, required
    for name, module in catalog.WORKLOADS.items():
        missing = [fn for fn in required
                   if not callable(getattr(module, fn, None))]
        assert not missing, (name, missing)
