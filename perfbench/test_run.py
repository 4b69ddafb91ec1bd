"""The benchmark counts an operation that raises, exits non-zero or prints a
wrong report as failed, keeps its time out of op_p50_s, and then reports the
run as not correct; a minvec report is checked in chunks."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from eclat import cli  # noqa: E402

ARGV = ("basis", "--group", "1x12", "--json")


class FakeCli:
    def __init__(self, main) -> None:
        self.main = main


def crash(argv):
    raise RuntimeError("boom")


def exit_one(argv):
    print("{}")
    return 1


def wrong_report(argv):
    print(json.dumps({"group": "1x12", "N": 12, "vectors": []}))
    return 0


def test_passing_operation_is_timed():
    tally = run.Tally()
    tally.run(cli, ARGV)
    assert (tally.attempted, tally.failed, len(tally.times)) == (1, 0, 1)
    assert run.result(tally, {})["correct"] is True


def test_failed_operations_make_the_run_incorrect():
    for main in (crash, exit_one, wrong_report):
        tally = run.Tally()
        tally.run(cli, ARGV)
        tally.run(FakeCli(main), ARGV)
        assert (tally.attempted, tally.failed, len(tally.times)) == (2, 1, 1)
        assert tally.measured > tally.times[0]
        assert run.result(tally, {})["correct"] is False


def test_minvec_check_reads_small_chunks(monkeypatch):
    argv = ("minvec", "--group", "2x6", "--json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    rep = json.loads(out.getvalue())
    monkeypatch.setattr(checks, "_CHUNK", 7)
    checks.check_report(argv, io.BytesIO(json.dumps(rep).encode()))
    rep["vectors"][-1][0] = 2
    with pytest.raises(checks.CheckFailed):
        checks.check_report(argv, io.BytesIO(json.dumps(rep).encode()))
