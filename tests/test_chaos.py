"""Tests for the host-level chaos harness (``repro chaos``).

Each scenario is self-verifying (it returns a list of invariant
violations), so the tests assert the harness itself: scenarios pass on a
healthy tree, the journal checker actually catches corruption, and the
CLI exit codes behave.
"""

import sys

import pytest

from repro.durability import RecordLog
from repro.runner.chaos import (
    QUICK_SCENARIOS,
    SCENARIOS,
    SkewedClock,
    run_chaos,
    verify_journal,
)

needs_linux = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="/proc probes + fork + POSIX signals required",
)


def _framed(path, records):
    log = RecordLog(path)
    for rec in records:
        log.append(rec)
    log.close()
    return path.read_bytes()


class TestVerifyJournal:
    def test_clean_journal_passes(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _framed(path, [{"key": "a", "status": "ok", "result": 1},
                       {"key": "b", "status": "failed"}])
        assert verify_journal(path) == []

    def test_torn_tail_tolerated_but_torn_middle_is_not(self, tmp_path):
        ok = {"key": "a", "status": "ok", "result": 1}
        raw = _framed(tmp_path / "j.jsonl",
                      [ok, {"key": "b", "status": "ok", "result": 2}])
        first_end = raw.index(b"\n") + 1
        tail_torn = tmp_path / "tail.jsonl"
        tail_torn.write_bytes(raw[:-9])
        assert verify_journal(tail_torn) == []

        mid_torn = tmp_path / "mid.jsonl"
        mid_torn.write_bytes(raw[:first_end - 9] + b"\n" + raw[first_end:])
        problems = verify_journal(mid_torn)
        assert problems and "corrupt before EOF" in problems[0]

    def test_duplicate_ok_records_detected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        rec = {"key": "a", "status": "ok", "result": 1}
        _framed(path, [rec, rec])
        problems = verify_journal(path)
        assert problems and "duplicate" in problems[0]

    def test_missing_journal_reported(self, tmp_path):
        assert verify_journal(tmp_path / "nope.jsonl")


class TestSkewedClock:
    def test_jumps_once_after_n_calls(self):
        clock = SkewedClock(jump=100.0, after=3)
        before = [clock() for _ in range(3)]
        after = [clock() for _ in range(3)]
        assert clock.jumped
        assert after[0] - before[-1] > 99.0
        # Monotonic before and after the jump.
        assert sorted(before + after) == before + after


class TestHarness:
    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            run_chaos(scenarios=["no-such-scenario"], workdir=tmp_path)

    def test_quick_is_a_subset_of_all(self):
        assert set(QUICK_SCENARIOS) <= set(SCENARIOS)


@needs_linux
class TestScenarios:
    """The real thing: every chaos scenario must pass on this tree."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_passes(self, name, tmp_path):
        [result] = run_chaos(scenarios=[name], workdir=tmp_path)
        assert result.passed, "\n".join(result.problems)


@needs_linux
class TestCLI:
    def test_chaos_quick_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["chaos", "--quick", "--workdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "8/8 scenarios passed" in out

    def test_unknown_scenario_exits_two(self, tmp_path):
        from repro.cli import main

        assert main(["chaos", "--scenario", "bogus",
                     "--workdir", str(tmp_path)]) == 2
