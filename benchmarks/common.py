"""Shared infrastructure for the per-figure benchmark harness.

Many figures are different views of the same simulations (e.g. Figures 8,
10, 11, 14 and 15 all read the single-core L1D-prefetcher matrix), so runs
are memoised in-process and on disk under ``benchmarks/.cache``.

Scale: ``REPRO_BENCH_SCALE`` (default 0.5) multiplies trace lengths.  The
paper simulates 200 M instructions per trace; these benches run minutes,
not days, so absolute numbers differ — every bench prints the paper's
reference values next to the measured ones for shape comparison.

Every single-core run goes through :func:`simulate`, which runs the
native C kernel where it applies and the classic loop elsewhere; the
results are bit-identical either way.
"""

from __future__ import annotations

import functools
import os
import pickle
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.prefetchers.registry import make_prefetcher
from repro.simulator import engine
from repro.simulator.config import SystemConfig, default_config
from repro.simulator.multicore import simulate_multicore
from repro.simulator.stats import SimResult
from repro.workloads.cloudsuite_like import cloudsuite_suite
from repro.workloads.gap import gap_suite
from repro.workloads.spec_like import spec17_suite
from repro.workloads.trace import Trace

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
CACHE_DIR = Path(__file__).parent / ".cache"
RESULTS_DIR = Path(__file__).parent / "results"

#: :func:`repro.simulator.engine.simulate` on the native engine.
simulate = functools.partial(engine.simulate, engine="native", native="auto")

_memory_cache: Dict[str, object] = {}
_trace_cache: Dict[str, List[Trace]] = {}

L1D_SET = ["none", "ip_stride", "mlop", "ipcp", "berti"]
MULTILEVEL_SET = [
    ("mlop", "bingo"),
    ("mlop", "spp_ppf"),
    ("ipcp", "ipcp_l2"),
    ("berti", "bingo"),
    ("berti", "spp_ppf"),
]


def spec_traces() -> List[Trace]:
    if "spec" not in _trace_cache:
        _trace_cache["spec"] = spec17_suite(SCALE)
    return _trace_cache["spec"]


def gap_traces() -> List[Trace]:
    if "gap" not in _trace_cache:
        # 5 kernels x 2 graphs keeps the harness tractable; set
        # REPRO_BENCH_GRAPHS=all for the full 5x4 grid.
        graphs = (
            None if os.environ.get("REPRO_BENCH_GRAPHS") == "all"
            else ["kron", "urand"]
        )
        _trace_cache["gap"] = gap_suite(SCALE, graphs=graphs)
    return _trace_cache["gap"]


def cloudsuite_traces() -> List[Trace]:
    if "cs" not in _trace_cache:
        _trace_cache["cs"] = cloudsuite_suite(SCALE)
    return _trace_cache["cs"]


def all_memint_traces() -> List[Trace]:
    return spec_traces() + gap_traces()


def _cache_key(trace: Trace, l1d: str, l2: str, tag: str) -> str:
    return f"{trace.name}__{l1d}__{l2}__{tag}__s{SCALE}__n{len(trace)}"


def run(
    trace: Trace,
    l1d: str = "none",
    l2: str = "none",
    config: Optional[SystemConfig] = None,
    tag: str = "base",
) -> SimResult:
    """Simulate (or fetch from cache) one configuration of one trace."""
    key = _cache_key(trace, l1d, l2, tag)
    if key in _memory_cache:
        return _memory_cache[key]  # type: ignore[return-value]
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / (key + ".pkl")
    if path.exists():
        with path.open("rb") as fh:
            result = pickle.load(fh)
    else:
        result = simulate(
            trace,
            l1d_prefetcher=make_prefetcher(l1d),
            l2_prefetcher=make_prefetcher(l2),
            config=config or default_config(),
        )
        with path.open("wb") as fh:
            pickle.dump(result, fh)
    _memory_cache[key] = result
    return result


def run_matrix(
    traces: Sequence[Trace],
    l1d_names: Sequence[str],
    l2: str = "none",
    config: Optional[SystemConfig] = None,
    tag: str = "base",
) -> Dict[str, Dict[str, SimResult]]:
    """trace name -> prefetcher name -> result."""
    out: Dict[str, Dict[str, SimResult]] = {}
    for trace in traces:
        out[trace.name] = {
            name: run(trace, name, l2, config, tag) for name in l1d_names
        }
    return out


def run_multilevel(
    traces: Sequence[Trace],
    combos: Sequence[Tuple[str, str]],
    config: Optional[SystemConfig] = None,
    tag: str = "base",
) -> Dict[str, Dict[str, SimResult]]:
    out: Dict[str, Dict[str, SimResult]] = {}
    for trace in traces:
        row: Dict[str, SimResult] = {}
        for l1d, l2 in combos:
            row[f"{l1d}+{l2}"] = run(trace, l1d, l2, config, tag)
        out[trace.name] = row
    return out


def save_report(name: str, text: str) -> None:
    """Print the report and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
