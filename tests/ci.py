"""Run the CI workflow's jobs locally: ``python -m tests.ci [job ...]``.

``.github/workflows/ci.yml`` stays the one definition of the jobs; this
reads it and runs each named job's ``run:`` steps in order (every job
when none is named), then prints a job / result / seconds table.  The
exit status is non-zero when any job did not pass.  ``--list`` prints the
job names.

Each job runs in a fresh copy of the working tree (tracked files and
untracked ones that are not ignored), as a CI runner checks out the
repository for each job: caches a job builds, and files its steps
rewrite, never leak into the tree or into the next job.  A step runs
under ``bash -e`` with the copy as working directory and no
``PYTHONPATH`` of ours, like a runner's default shell.

``uses:`` steps (checkout, setup-python, artifact upload) are skipped.
So are ``pip install`` steps, since nothing is downloaded here, but the
packages they name must already be installed: a job that needs a missing
one is reported as ``missing <package>`` and its steps are not run.  The
one exception is ``pytest-xdist``, which only spreads tests over cores:
when it is the only package missing, the job runs with ``-n auto`` taken
out of its steps, and its result reads ``pass without xdist`` (or
``fail without xdist``).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def load_jobs(workflow: Path = WORKFLOW) -> Dict[str, dict]:
    """The workflow's jobs by name, in file order."""
    import yaml  # PyYAML: a test dependency, not one of the package's

    return yaml.safe_load(workflow.read_text(encoding="utf-8"))["jobs"]


def _missing_packages(command: str) -> List[str]:
    """The packages a ``pip install`` line names that are not installed."""
    missing = []
    for word in command.split()[2:]:
        if word.startswith("-"):
            continue
        try:
            importlib.metadata.distribution(word)
        except importlib.metadata.PackageNotFoundError:
            missing.append(word)
    return missing


def _checkout(dest: Path) -> None:
    """Copy the working tree's tracked and unignored files to ``dest``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True).stdout
    for name in listed.decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


#: Parallelism only: a job whose one missing package this is runs serially.
XDIST = "pytest-xdist"
_XDIST_FLAG = re.compile(r"\s+-n\s+auto\b")


def run_job(name: str, job: dict) -> Tuple[str, float]:
    """Run one job's steps; returns its result and seconds taken."""
    steps = job.get("steps", [])
    serial = ""
    for step in steps:
        command = step.get("run", "")
        if command.startswith("pip install"):
            missing = _missing_packages(command)
            if missing == [XDIST]:
                serial = " without xdist"
            elif missing:
                return "missing " + " ".join(missing), 0.0
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=f"ci-{name}-") as tree:
        _checkout(Path(tree))
        for step in steps:
            label = step.get("name") or step.get("uses") or step.get("run")
            command = step.get("run")
            if command is None or command.startswith("pip install"):
                print(f"[{name}] skipped: {label}", flush=True)
                continue
            if serial:
                command = _XDIST_FLAG.sub("", command)
            print(f"[{name}] run: {label}", flush=True)
            # A runner's environment: the copy's own ``src``, not ours.
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            env.update({k: str(v) for k, v in step.get("env", {}).items()})
            if subprocess.run(["bash", "-e", "-c", command], cwd=tree,
                              env=env).returncode != 0:
                return "fail" + serial, time.perf_counter() - started
    return "pass" + serial, time.perf_counter() - started


def main(argv: Optional[Sequence[str]] = None,
         workflow: Path = WORKFLOW) -> int:
    """Run the named jobs (all by default); returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m tests.ci", description=__doc__.splitlines()[0])
    parser.add_argument("jobs", nargs="*", help="jobs to run (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="print the job names and exit")
    args = parser.parse_args(argv)
    jobs = load_jobs(workflow)
    if args.list:
        print("\n".join(jobs))
        return 0
    unknown = [name for name in args.jobs if name not in jobs]
    if unknown:
        parser.error(f"unknown job(s) {', '.join(unknown)}; "
                     f"known: {', '.join(jobs)}")
    results = [(name, *run_job(name, jobs[name]))
               for name in (args.jobs or jobs)]
    width = max(len("job"), *(len(name) for name, _, _ in results))
    rwidth = max(len("result"), *(len(result) for _, result, _ in results))
    print(f"\n{'job':<{width}}  {'result':<{rwidth}}  seconds")
    for name, result, seconds in results:
        print(f"{name:<{width}}  {result:<{rwidth}}  {seconds:7.1f}")
    passed = all(result.startswith("pass") for _, result, _ in results)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
