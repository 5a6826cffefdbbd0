"""Checks on the benchmark itself; not part of the repository's tier-1 suite.

    python3 -m pytest bench/tests -q

A ``--quick`` pass of every workload is made once (both passes, a child
process each, as ``run.py`` does) and shared by the tests below.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from benchlib import catalog, runner  # noqa: E402
from benchlib.base import REGION  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
#: Workloads whose timed region is a loop of the driver's own calls.
DRIVER_OWNED = ("admit_churn", "serve_sim", "cluster_sim")
SEED = catalog.DEFAULT_SEED


def contract_run(workload: str, trace: int, *extra: str, cwd=ROOT,
                 script=BENCH / "run.py"):
    """Run one workload the way the driver does; (exit code, last line)."""
    done = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", str(trace), "--quick",
         *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), done


@pytest.fixture(scope="module")
def quick():
    """``{(workload, trace): printed result}`` for one quick pass."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, printed, done = contract_run(workload, trace)
            assert code == 0, done.stderr
            results[workload, trace] = printed
    return results


def test_manifest_is_the_catalogue_written_out():
    assert MANIFEST == catalog.manifest()


def test_manifest_meets_the_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    names = [row["name"] for section in ("workloads", "end_to_end",
                                         "per_layer")
             for row in MANIFEST[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for row in MANIFEST["workloads"]:
        assert set(row) == {"name", "why"}
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in MANIFEST["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 <= row["bound"] <= 0.25
    for row in MANIFEST["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", row["unit"]), row
        assert row["better"] in ("lower", "higher")
    setup = [r for r in MANIFEST["end_to_end"] if r["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(r["bound"]
                                    for r in MANIFEST["end_to_end"])


def test_quick_pass_emits_every_declared_metric(quick):
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            printed = quick[workload, trace]
            assert set(printed) == {"correct", "attempted", "failed",
                                    "metrics"}
            assert printed["correct"] is True and printed["failed"] == 0
            assert printed["attempted"] >= 1
            declared = {row["name"]: row["unit"] for row in MANIFEST[section]}
            assert set(printed["metrics"]) == set(declared)
            for name, cell in printed["metrics"].items():
                assert cell["unit"] == declared[name]
                assert isinstance(cell["value"], (int, float))
    for workload in WORKLOADS:
        for name, cell in quick[workload, 0]["metrics"].items():
            assert cell["value"] > 0, (workload, name)


def test_every_workload_enters_its_own_layers_and_no_others(quick):
    def value(workload, name):
        return quick[workload, 1]["metrics"][name]["value"]

    assert value("gateway_durable", "gateway.requests") > 0
    for workload in set(WORKLOADS) - {"gateway_durable"}:
        assert value(workload, "gateway.requests") == 0
    assert value("cluster_sim", "cluster.fanout_submissions") > 0
    assert value("serve_sim", "cluster.fanout_submissions") == 0
    assert value("sim_fig3", "sim.frames") > 0
    assert value("sim_fig3", "service.registrations") == 0
    assert value("admit_churn", "service.cache_hit_rate") == 0
    assert value("admit_churn", "sim.frames") == 0
    assert value("gateway_durable", "service.cache_hit_rate") > 0.5


def test_counts_repeat_exactly(quick):
    """Counts and virtual-time metrics are identical across two runs."""
    exact = ([m.name for m in catalog.E2E if m.bound == 0]
             + [m.name for m in catalog.LAYERS if m.unit == "count"])
    # Not the open loop: what it counts depends on how its threads interleave.
    for workload in ("sim_fig3", "admit_churn", "serve_sim", "cluster_sim"):
        code, again, done = contract_run(workload, 1)
        assert code == 0, done.stderr
        for name in exact:
            assert (again["metrics"][name]["value"]
                    == quick[workload, 1]["metrics"][name]["value"]), name


def test_spans_are_well_formed(quick):
    for workload in WORKLOADS:
        path = BENCH / "out" / f"trace-{workload}.jsonl"
        spans = [json.loads(line) for line in
                 path.read_text(encoding="utf-8").splitlines()]
        assert spans, workload
        for span in spans:
            assert set(span) == {"name", "layer", "req", "start_ns", "end_ns",
                                 "parent"}
            assert span["end_ns"] >= span["start_ns"], span
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["start_ns"] <= span["start_ns"], span
                assert span["end_ns"] <= parent["end_ns"], span
        assert any(span["name"] == REGION for span in spans)


def test_driver_calls_cover_the_timed_region(quick):
    """The layers' busy times sum to within 5% of the region's wall."""
    for workload in DRIVER_OWNED:
        coverage = quick[workload, 1]["metrics"]["trace_coverage"]["value"]
        assert 0.95 <= coverage <= 1.0, (workload, coverage)
    for workload in WORKLOADS:
        overhead = quick[workload, 1]["metrics"]["trace_overhead_x"]["value"]
        assert overhead > 0


def test_a_corrupted_golden_record_fails_the_run(tmp_path):
    """Outputs that differ from the golden record exit non-zero."""
    path = runner.golden_path("admit_churn", SEED, quick=True)
    original = path.read_text(encoding="utf-8")
    golden = json.loads(original)
    golden["record"]["registrations"] += 1
    try:
        path.write_text(json.dumps(golden), encoding="utf-8")
        code, printed, done = contract_run("admit_churn", 0)
    finally:
        path.write_text(original, encoding="utf-8")
    assert code != 0
    assert printed["correct"] is False and printed["failed"] >= 1
    assert "registrations" in done.stderr


def test_a_seed_without_golden_is_checked_against_itself():
    code, printed, done = contract_run("serve_sim", 1, "--seed", "77")
    # argparse keeps the last --seed.
    assert code == 0, done.stderr
    assert printed["correct"] is True


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to run."""
    import shutil
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, printed, done = contract_run(
        "sim_fig3", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert code != 0 and printed is None
