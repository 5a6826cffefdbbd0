"""CLI ergonomics: reproducible --seed runs, strategy error messages,
and the load-driver commands that are no longer part of the CLI."""

import pytest

from repro.cli import build_parser, main


QUERY = "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096"


class TestRunSeed:
    def _run(self, capsys, seed: int) -> str:
        code = main(["run", "--side", "3", "--duration", "20",
                     "--seed", str(seed), QUERY])
        assert code == 0
        return capsys.readouterr().out

    def test_same_seed_reproduces(self, capsys):
        first = self._run(capsys, 7)
        second = self._run(capsys, 7)
        # Strip qid-bearing lines: qids are allocated globally, so only
        # the measured numbers are expected to be identical.
        def measurements(out: str):
            return [line for line in out.splitlines()
                    if line.startswith(("avg transmission", "frames",
                                        "sensor acquisitions"))]
        assert measurements(first) == measurements(second)

    def test_different_seed_differs(self, capsys):
        first = self._run(capsys, 0)
        second = self._run(capsys, 12345)
        assert first != second


class TestStrategyErrors:
    def test_unknown_strategy_lists_choices(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--strategy", "warp", QUERY])
        err = capsys.readouterr().err
        assert "unknown strategy 'warp'" in err
        for name in ("baseline", "bs", "innet", "ttmqo"):
            assert name in err

    def test_known_strategies_resolve(self):
        from repro.harness import Strategy

        args = build_parser().parse_args(["run", "--strategy", "bs", QUERY])
        assert args.strategy is Strategy.BS_ONLY


class TestRemovedLoadCommands:
    @pytest.mark.parametrize("argv", [["serve"], ["cluster"],
                                      ["gateway", "--load", "4"]])
    def test_load_driver_commands_are_argparse_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "usage: repro" in capsys.readouterr().err
