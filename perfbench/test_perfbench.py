"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import campaign  # noqa: E402
import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _small_result(l1d="berti", engine="classic"):
    from repro.prefetchers.registry import make_prefetcher
    from repro.simulator import engine as sim_engine
    from repro.workloads.catalog import resolve_trace

    trace = resolve_trace("mcf_s-1554B", 0.1)
    return sim_engine.simulate(trace, make_prefetcher(l1d),
                               engine=engine).to_dict()


# ----------------------------------------------------------------------
# A planted stats mismatch is a failed operation
# ----------------------------------------------------------------------

def test_planted_mismatch_counts_as_failed_operation():
    good = _small_result()
    planted = json.loads(json.dumps(good))
    planted["l1d_demand_misses"] += 1
    refs = [[check.digest(good)]]
    samples = [{"op": 0, "digests": [check.digest(d)],
                "violations": check.invariant_violations([d]), "demoted": 0}
               for d in (good, planted, good)]
    assert run._failed_samples(samples, refs) == 1


def test_invariant_violation_and_demotion_count_as_failed():
    good = _small_result()
    broken = json.loads(json.dumps(good))
    broken["l1d_demand_misses"] = broken["l1d_demand_accesses"] + 1
    assert check.invariant_violations([broken])
    refs = [[check.digest(broken)]]
    sample = {"op": 0, "digests": [check.digest(broken)], "demoted": 0,
              "violations": check.invariant_violations([broken])}
    demoted = {"op": 0, "digests": refs[0], "violations": [], "demoted": 1}
    assert run._failed_samples([sample, demoted], refs) == 2


def test_native_markers_do_not_enter_the_comparison():
    good = _small_result()
    marked = json.loads(json.dumps(good))
    marked["extra"]["native_spans"] = 2.0
    assert check.digest(marked) == check.digest(good)


def test_planted_campaign_mismatch_fails_the_fetch():
    good = _small_result()
    planted = json.loads(json.dumps(good))
    planted["cycles"] += 1.0
    loop = campaign.Loop("127.0.0.1", 9, [])
    loop._keep(12, {"k": good})
    loop._keep(1, {"k": planted})
    loop._keep(1, None)              # a fetch that returned no result
    assert loop.failed == 1
    assert campaign.verify(loop, {"k": [check.digest(good)]}) == 1


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------

def _synthetic_spans():
    """root(0..10) -> a(1..4) -> a(2..3); root -> b(5..9) -> c(6..8)."""
    names = ["root", "a", "b", "c"]
    name = np.array([0, 1, 1, 2, 3], dtype=np.int32)
    parent = np.array([-1, 0, 1, 0, 3], dtype=np.int64)
    start = np.array([0.0, 1.0, 2.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 8.0])
    return {"names": names, "name": name, "parent": parent,
            "root": np.zeros(5, dtype=np.int64), "start": start,
            "end": end, "marks": []}


def test_self_time_is_duration_minus_children():
    s = _synthetic_spans()
    got = spans.self_times(s["parent"], s["start"], s["end"])
    assert got.tolist() == [10 - 3 - 4, 3 - 1, 1, 4 - 2, 2]


def test_ledger_counts_nested_same_name_spans_once():
    ledger = spans.Ledger(_synthetic_spans())
    assert ledger.total("a") == 3.0          # the inner a is inside
    assert ledger.self_time("a") == 3.0      # 2 (outer) + 1 (inner)
    assert ledger.total("root") == 10.0
    assert ledger.self_time("root") == 3.0
    assert ledger.count("a") == 2
    assert ledger.total("absent") == 0.0 and ledger.p50("absent") == 0.0
    # A window selects the spans starting inside it.
    assert ledger.count("a", (1.5, 9.0)) == 1
    assert ledger.durations("a", (1.5, 9.0)).tolist() == [1.0]
    assert ledger.p50("b", (0.0, 4.0)) == 0.0


def test_tracer_records_parent_and_root(tmp_path):
    tracer = spans.Tracer()

    def leaf():
        return 1

    traced_leaf = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", lambda: traced_leaf() + traced_leaf())
    assert outer() == 2
    path = tmp_path / "spans.npz"
    tracer.dump(str(path))
    data = spans.load(str(path))
    names = [data["names"][i] for i in data["name"]]
    assert names == ["outer", "leaf", "leaf"]
    assert data["parent"].tolist() == [-1, 0, 0]
    assert data["root"].tolist() == [0, 0, 0]
    assert (data["end"] >= data["start"]).all()


def test_harrell_davis_quantiles():
    values = [1.0, 2.0, 3.0, 10.0, 11.0, 12.0]
    assert run._quantile(values, 0.5) == pytest.approx(6.5)
    assert run._quantile([4.0], 0.9) == 4.0
    # Exact Harrell-Davis p90 of 1..8 (Beta(8.1, 0.9) weights).
    assert run._quantile([float(i) for i in range(1, 9)], 0.9) == \
        pytest.approx(7.5966, rel=1e-3)
    # Smooth: nudging one value nudges the estimate, never jumps it.
    nudged = values[:2] + [3.5] + values[3:]
    assert 0 < run._quantile(nudged, 0.5) - 6.5 < 0.5


# ----------------------------------------------------------------------
# Wrappers do not change classification or results
# ----------------------------------------------------------------------

def _modes():
    from repro.native.runner import native_mode
    from repro.prefetchers.registry import make_prefetcher
    from repro.simulator.batched import batch_mode
    from repro.simulator.config import default_config
    from repro.simulator import engine as sim_engine
    from repro.cpu.core_model import CoreModel

    out = []
    for l1d, l2 in (("berti", "none"), ("none", "none"), ("ipcp", "none"),
                    ("berti", "spp_ppf")):
        h = sim_engine.build_hierarchy(default_config(), make_prefetcher(l1d),
                                       make_prefetcher(l2))
        core = CoreModel(default_config().core)
        out.append((batch_mode(h, core), native_mode(h, core)))
    return out


@pytest.fixture
def native_cache(tmp_path, monkeypatch):
    from repro.native import build

    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "native"))
    build.reset_build_cache()
    yield
    build.reset_build_cache()


def test_wrappers_keep_modes_and_results(native_cache):
    from repro.native.build import kernel_available

    engines = ["classic"] + (["native"] if kernel_available()[0] else [])
    before_modes = _modes()
    before = {(pf, e): _small_result(pf, e)
              for pf in ("berti", "ipcp") for e in engines}
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert _modes() == before_modes
        after = {(pf, e): _small_result(pf, e)
                 for pf in ("berti", "ipcp") for e in engines}
    finally:
        tracer.unpatch()
    for key, result in before.items():
        # Same statistics and the same native/demoted span split.
        assert after[key] == result, key
    recorded = {tracer.names[i] for i in set(tracer.columns()["name"])}
    assert {"simulator.engine.simulate", "memory.hierarchy.demand_access",
            "core.berti.hooks", "prefetchers.hooks"} <= recorded
    if "native" in engines:
        assert "native.build.kernel" in recorded
    # Unpatched again: the public functions are the originals.
    from repro.simulator import engine as sim_engine
    assert not hasattr(sim_engine.simulate, "__wrapped__")


# ----------------------------------------------------------------------
# Inputs and the benchmark definition
# ----------------------------------------------------------------------

def test_seed_determines_inputs():
    for workload in ("native-direct", "classic-zoo"):
        assert inputs.ops_for(workload, 7) == inputs.ops_for(workload, 7)
    assert inputs.campaign_jobs(7) == inputs.campaign_jobs(7)
    drawn = {json.dumps(inputs.native_ops(s)) for s in range(20)}
    assert len(drawn) > 1
    pools = {name for pool in inputs.NATIVE_POOLS.values()
             for name in pool if isinstance(name, str)}
    for op in inputs.native_ops(3):
        assert op["trace"]["trace"] in pools | {"cactuBSSN_s-2421B"}

