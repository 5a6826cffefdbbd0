"""The local CI runner reads the workflow it runs."""

import pytest

from tests import ci

yaml = pytest.importorskip("yaml")

FAKE = """
jobs:
  ok:
    steps:
      - uses: actions/checkout@v4
      - run: pip install pytest
      - name: Runs in a copy of the tree
        run: |
          test -f pyproject.toml
          touch left-behind.txt
  bad:
    steps:
      - run: "false"
      - run: touch never-reached.txt
  needs:
    steps:
      - run: pip install surely-not-an-installed-package
      - run: touch never-reached.txt
  parallel:
    steps:
      - run: pip install pytest pytest-xdist
      - run: test "$(echo pytest -x -n auto -q)" = "pytest -x -q"
  parallel-and-more:
    steps:
      - run: pip install pytest-xdist surely-not-an-installed-package
      - run: touch never-reached.txt
"""


def test_list_names_every_workflow_job(capsys):
    assert ci.main(["--list"]) == 0
    listed = capsys.readouterr().out.split()
    workflow = yaml.safe_load(ci.WORKFLOW.read_text(encoding="utf-8"))
    assert listed == list(workflow["jobs"])


def test_jobs_run_their_steps_in_a_fresh_tree(tmp_path, capfd, monkeypatch):
    # The fake jobs need only pyproject.toml, not a copy of the whole tree.
    monkeypatch.setattr(
        ci, "_checkout",
        lambda dest: (dest / "pyproject.toml").write_text("", encoding="utf-8"))
    # Whether or not pytest-xdist is installed here, treat it as missing.
    installed = ci._missing_packages
    monkeypatch.setattr(
        ci, "_missing_packages",
        lambda command: sorted({*installed(command),
                                *({ci.XDIST} & set(command.split()))}))
    workflow = tmp_path / "ci.yml"
    workflow.write_text(FAKE, encoding="utf-8")
    jobs = ["ok", "bad", "needs", "parallel", "parallel-and-more"]
    assert ci.main(jobs, workflow=workflow) == 1
    out = capfd.readouterr().out
    rows = {line.split()[0]: line.split()[1:]
            for line in out.splitlines()[-len(jobs):]}
    assert rows["ok"][0] == "pass"
    assert rows["bad"][0] == "fail"
    assert rows["needs"][:2] == ["missing",
                                 "surely-not-an-installed-package"]
    # The job that misses only xdist runs its steps without ``-n auto``.
    assert rows["parallel"][:3] == ["pass", "without", "xdist"]
    assert rows["parallel-and-more"][:3] == [
        "missing", "pytest-xdist", "surely-not-an-installed-package"]
    assert "[ok] skipped: actions/checkout@v4" in out
    assert "[ok] skipped: pip install pytest" in out
    assert not (ci.ROOT / "left-behind.txt").exists()
    assert not (ci.ROOT / "never-reached.txt").exists()
