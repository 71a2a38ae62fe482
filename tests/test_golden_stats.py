"""Bit-identical guard for the hot-path-optimised engine.

``tests/golden/simcore_golden.json`` was recorded with the seed (PR 1)
engine.  These tests assert the current engine reproduces every counter
of every golden run bit-for-bit, so performance work on the demand and
prefetch paths cannot silently change simulation semantics.  See
``tests/golden/record_golden.py`` for the matrix and how to regenerate.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_GOLDEN_DIR = Path(__file__).parent / "golden"
_GOLDEN_JSON = _GOLDEN_DIR / "simcore_golden.json"


def _load_recorder():
    spec = importlib.util.spec_from_file_location(
        "record_golden", _GOLDEN_DIR / "record_golden.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def recorder():
    return _load_recorder()


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN_JSON) as fh:
        return json.load(fh)


@pytest.fixture(scope="module", params=["optimized", "native"])
def current(recorder, request):
    # Both engines replay the same reference-recorded golden JSON: the
    # classic per-record loop and the native C span kernel.
    return recorder.run_golden_matrix(engine=request.param)


class TestGoldenMatrix:
    def test_same_run_keys(self, golden, current):
        assert sorted(current) == sorted(golden)

    def test_bit_identical_counters(self, golden, current):
        # Compare per run and per counter so a mismatch names the exact
        # counter that drifted rather than dumping two whole dicts.
        for key in sorted(golden):
            got, want = current[key], golden[key]
            assert sorted(got) == sorted(want), f"stat keys changed in {key}"
            for stat in sorted(want):
                assert got[stat] == want[stat], (
                    f"{key}: {stat} = {got[stat]!r}, golden {want[stat]!r}"
                )

    def test_golden_covers_both_engines(self, golden):
        pfs = {key.rsplit("#", 1)[1] for key in golden}
        assert pfs == {
            "none", "berti", "berti_page", "berti+l1d_srrip", "berti,none"
        }

    def test_golden_covers_multicore_and_srrip(self, golden):
        assert "mc:bfs-kron+mcf_s-1554B@0.1#berti,none" in golden
        assert "synth:golden@0.0#berti+l1d_srrip" in golden


class TestDeterminism:
    """Two fresh runs of the same config must agree exactly."""

    @pytest.mark.parametrize("pf_name", ["none", "berti"])
    def test_repeat_run_identical(self, recorder, pf_name):
        from repro.prefetchers.registry import make_prefetcher
        from repro.simulator.engine import simulate

        trace = recorder.build_golden_trace("synth:golden", 0.0)
        first = simulate(trace, l1d_prefetcher=make_prefetcher(pf_name))
        second = simulate(trace, l1d_prefetcher=make_prefetcher(pf_name))
        assert first.to_dict() == second.to_dict()

    def test_repeat_run_identical_catalog_trace(self, recorder):
        from repro.prefetchers.registry import make_prefetcher
        from repro.simulator.engine import simulate

        trace = recorder.build_golden_trace("mcf_s-1554B", 0.05)
        runs = [
            simulate(trace, l1d_prefetcher=make_prefetcher("berti")).to_dict()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
