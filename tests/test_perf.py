"""Tests for the ``repro.perf`` benchmark/profiling harness."""

import json

import pytest

from repro.perf import (
    BenchCase,
    calibrate_host,
    check_regression,
    default_cases,
    load_report,
    run_case,
    run_suite,
    write_report,
)
from repro.perf.bench import build_bench_trace
from repro.perf.profiling import (
    format_top_functions,
    profile_call,
    top_functions,
)


class TestCases:
    def test_default_matrix_shape(self):
        cases = default_cases()
        # Three trace families plus synthetic, each with and without
        # Berti, a @native twin per single-core case, plus the two
        # berti-on multicore (shared-LLC) cases.
        assert len(cases) == 18
        names = {c.name for c in cases}
        assert "synth/none" in names and "mcf/berti" in names
        assert "mc2-synth/berti" in names and "mc2-bfs/berti" in names
        assert all(c.l1d in ("none", "berti") for c in cases)
        assert all(c.cores == 2 for c in cases if c.name.startswith("mc2"))
        assert all(c.cores == 1 for c in cases
                   if not c.name.startswith("mc2"))

    def test_engine_twins_mirror_classic_cases(self):
        cases = {c.name: c for c in default_cases()}
        assert {c.engine for c in cases.values()} == {"classic", "native"}
        twins = [c for c in cases.values() if c.engine == "native"]
        assert len(twins) == 8  # every single-core case, no mc2 twins
        for twin in twins:
            assert twin.name.endswith("@native")
            classic = cases[twin.name[: -len("@native")]]
            assert (twin.trace, twin.l1d, twin.scale, twin.cores) == (
                classic.trace, classic.l1d, classic.scale, classic.cores
            )
            assert classic.engine == "classic"
        assert all(not c.name.startswith("mc2") for c in twins)

    def test_scale_propagates(self):
        cases = default_cases(scale=0.125)
        assert all(c.scale == 0.125 for c in cases)

    def test_synth_trace_is_deterministic(self):
        a = build_bench_trace("synth:bench", 0.1)
        b = build_bench_trace("synth:bench", 0.1)
        assert len(a) == len(b) > 0
        assert list(a) == list(b)


class TestRunning:
    def test_run_case_smoke(self):
        case = BenchCase(name="t/none", trace="synth:bench",
                        l1d="none", scale=0.05)
        res = run_case(case, repeats=1)
        assert res.records > 0
        assert res.best_seconds > 0
        assert res.records_per_sec > 0
        assert res.normalized is None

    def test_run_case_normalized(self):
        case = BenchCase(name="t/none", trace="synth:bench",
                        l1d="none", scale=0.05)
        res = run_case(case, repeats=1, calibration_mops=2.0)
        assert res.normalized == pytest.approx(res.records_per_sec / 2.0)

    def test_run_suite_interleaved(self):
        cases = [
            BenchCase(name="a/none", trace="synth:bench",
                      l1d="none", scale=0.05),
            BenchCase(name="a/berti", trace="synth:bench",
                      l1d="berti", scale=0.05),
        ]
        lines = []
        results = run_suite(cases, repeats=2, progress=lines.append)
        assert [r.case.name for r in results] == ["a/none", "a/berti"]
        assert all(r.repeats == 2 for r in results)
        assert len(lines) == 2

    def test_calibrate_host_positive(self):
        mops = calibrate_host(target_seconds=0.01)
        assert mops > 0


def _report(cases, calibration=None):
    """Fabricate a report dict in the bench-simcore/v1 layout."""
    return {
        "schema": "bench-simcore/v1",
        "host": {"calibration_mops": calibration},
        "cases": [
            {
                "name": name,
                "records_per_sec": rps,
                "normalized": (rps / calibration) if calibration else None,
            }
            for name, rps in cases.items()
        ],
    }


class TestRegressionGate:
    def test_pass_when_equal(self):
        base = _report({"a/none": 1000.0})
        assert check_regression(_report({"a/none": 1000.0}), base) == []

    def test_fail_beyond_tolerance(self):
        base = _report({"a/none": 1000.0})
        problems = check_regression(
            _report({"a/none": 650.0}), base, tolerance=0.30
        )
        assert len(problems) == 1
        assert "a/none" in problems[0]

    def test_pass_within_tolerance(self):
        base = _report({"a/none": 1000.0})
        assert check_regression(
            _report({"a/none": 710.0}), base, tolerance=0.30
        ) == []

    def test_missing_baseline_case_fails(self):
        base = _report({"a/none": 1000.0, "b/none": 1000.0})
        problems = check_regression(_report({"a/none": 1000.0}), base)
        assert any("missing" in p for p in problems)

    def test_new_case_does_not_fail(self):
        base = _report({"a/none": 1000.0})
        cur = _report({"a/none": 1000.0, "new/berti": 5.0})
        assert check_regression(cur, base) == []

    def test_normalized_comparison_cancels_host_speed(self):
        # Baseline host is 2x faster in raw terms, but normalized
        # throughput matches, so the gate must pass.
        base = _report({"a/none": 2000.0}, calibration=4.0)
        cur = _report({"a/none": 1000.0}, calibration=2.0)
        assert check_regression(cur, base) == []

    def test_raw_comparison_without_calibration(self):
        base = _report({"a/none": 2000.0})
        cur = _report({"a/none": 1000.0})
        assert check_regression(cur, base, tolerance=0.30) != []


class TestReports:
    def test_write_and_load_roundtrip(self, tmp_path):
        case = BenchCase(name="t/none", trace="synth:bench",
                        l1d="none", scale=0.05)
        res = run_case(case, repeats=1, calibration_mops=3.0)
        path = tmp_path / "bench.json"
        report = write_report(str(path), [res], calibration_mops=3.0,
                              extra={"label": "unit"})
        loaded = load_report(str(path))
        assert loaded == json.loads(json.dumps(report))
        assert loaded["schema"] == "bench-simcore/v1"
        assert loaded["label"] == "unit"
        assert loaded["host"]["calibration_mops"] == 3.0
        assert loaded["cases"][0]["name"] == "t/none"


class TestProfiling:
    def test_profile_call_returns_result(self):
        result, prof = profile_call(sum, range(1000))
        assert result == sum(range(1000))
        rows = top_functions(prof, n=5)
        assert rows
        assert {"function", "ncalls", "tottime", "cumtime"} <= set(rows[0])

    def test_format_top_functions(self):
        _, prof = profile_call(sorted, list(range(100)))
        table = format_top_functions(prof, n=3)
        assert "cumtime" in table

    def test_cli_profile_flag(self, tmp_path, capsys):
        from repro.cli import main

        stats = tmp_path / "prof.out"
        rc = main([
            "run", "--trace", "mcf_s-1554B", "--l1d", "none",
            "--scale", "0.02", "--profile", str(stats),
        ])
        assert rc == 0
        assert stats.exists()
        err = capsys.readouterr().err
        assert "cumtime" in err


class TestBenchScript:
    def test_gate_script_regression_exit(self, tmp_path, monkeypatch):
        # Drive the CLI entry point end-to-end with a fabricated
        # impossible baseline: the gate must trip and exit nonzero.
        import importlib.util
        from pathlib import Path

        script = (Path(__file__).parent.parent
                  / "benchmarks" / "perf" / "bench_simcore.py")
        spec = importlib.util.spec_from_file_location("bench_cli", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)

        base = tmp_path / "baseline.json"
        base.write_text(json.dumps(_report({"synth/none": 1e12})))
        out = tmp_path / "bench.json"
        rc = mod.main([
            "--scale", "0.02", "--repeats", "1",
            "--out", str(out), "--baseline", str(base),
        ])
        assert rc == 1
        assert out.exists()
