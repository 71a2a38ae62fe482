"""Tests for the multi-core simulator."""

import pytest

from repro.errors import ConfigError
from repro.prefetchers.registry import make_prefetcher
from repro.simulator.multicore import simulate_multicore, weighted_speedup
from repro.workloads.synthetic import (
    make_trace,
    pattern_stream,
    pointer_chase,
    strided_stream,
)


def small_traces(n=2):
    traces = []
    for k in range(n):
        parts = [
            strided_stream(0x400 + k, 0x1000000 * (k + 1), 2, 1200, gap=22,
                           region_lines=4096),
            # Dependent alternating-stride chain: IP-stride never gains
            # confidence on it, Berti covers it with local deltas.
            pattern_stream(0x500 + k, 0x2000000 * (k + 1), [1, 2], 1200,
                           gap=22, dep=1, region_lines=4096),
        ]
        traces.append(make_trace(f"core{k}", parts))
    return traces


@pytest.fixture(scope="module")
def duo_results():
    traces = small_traces(2)
    return traces, simulate_multicore(traces)


class TestBasics:
    def test_one_result_per_core(self, duo_results):
        traces, results = duo_results
        assert len(results) == 2
        assert [r.trace_name for r in results] == ["core0", "core1"]

    def test_all_cores_measured(self, duo_results):
        __, results = duo_results
        assert all(r.instructions > 0 and r.cycles > 0 for r in results)

    def test_deterministic(self):
        traces = small_traces(2)
        a = simulate_multicore(traces)
        b = simulate_multicore(traces)
        assert [r.ipc for r in a] == [r.ipc for r in b]


class TestInputCheck:
    @pytest.mark.parametrize("fraction", [1.0, 1.5, -0.5])
    def test_warmup_fraction_outside_unit_interval_rejected(self, fraction):
        # The same check as single-core simulate(): no fraction outside
        # [0, 1) leaves a well-defined measured region.
        with pytest.raises(ConfigError) as exc:
            simulate_multicore(small_traces(2), warmup_fraction=fraction)
        assert exc.value.context()["field"] == "warmup_fraction"


class TestSharing:
    def test_contention_slows_cores_down(self):
        traces = small_traces(4)
        solo = simulate_multicore(traces[:1])[0]
        together = simulate_multicore(traces)
        same = together[0]
        # Same trace, shared DRAM with three contenders: no faster.
        assert same.ipc <= solo.ipc * 1.05

    def test_per_core_prefetchers(self):
        traces = small_traces(2)
        results = simulate_multicore(
            traces,
            [make_prefetcher("berti"), make_prefetcher("ip_stride")],
        )
        assert results[0].prefetcher_l1d == "berti"
        assert results[1].prefetcher_l1d == "ip_stride"

    def test_prefetching_helps_under_contention(self):
        traces = small_traces(2)
        base = simulate_multicore(traces)  # no prefetching
        berti = simulate_multicore(
            traces, [make_prefetcher("berti") for _ in traces]
        )
        assert weighted_speedup(berti, base) > 1.5


class TestWeightedSpeedup:
    def test_identity(self, duo_results):
        __, results = duo_results
        assert weighted_speedup(results, results) == pytest.approx(1.0)

    def test_empty(self):
        assert weighted_speedup([], []) == 0.0
