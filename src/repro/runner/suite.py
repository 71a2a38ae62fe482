"""Helpers for (trace × prefetcher) campaign matrices.

The CLI's ``suite``/``compare`` commands and ad-hoc scripts share the
same shape: cross a trace list with a prefetcher list, run everything
through the resilient executor, and reassemble the survivors into the
``per_trace`` mapping the analysis layer consumes.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.runner.faultinject import FaultSpec
from repro.runner.jobs import JobSpec, SuiteResult
from repro.simulator.stats import SimResult


def build_matrix_jobs(
    traces: Sequence[str],
    prefetchers: Sequence[str],
    scale: float = 0.5,
    l2: str = "none",
    mtps: Optional[int] = None,
    warmup_fraction: float = 0.2,
    faults: Optional[Mapping[str, FaultSpec]] = None,
    engine: str = "native",
    native: str = "auto",
) -> List[JobSpec]:
    """One job per (trace, L1D prefetcher); ``faults`` maps trace names
    to the fault injected into every job of that trace.  ``engine``/
    ``native`` select the simulator inner loop for every job (a
    performance knob: results are bit-identical across engines)."""
    faults = faults or {}
    return [
        JobSpec(
            trace=trace, l1d=pf, l2=l2, scale=scale, mtps=mtps,
            warmup_fraction=warmup_fraction, fault=faults.get(trace),
            engine=engine, native=native,
        )
        for trace in traces
        for pf in prefetchers
    ]


def per_trace_results(
    jobs: Sequence[JobSpec], result: SuiteResult
) -> Dict[str, Dict[str, SimResult]]:
    """Survivors regrouped as trace → (prefetcher → SimResult).

    Failed jobs are simply absent; ``analysis.metrics.geomean_speedup``
    then skips any trace whose baseline is missing and averages each
    prefetcher over the traces where it completed.
    """
    by_key = result.results_by_key()
    grouped: Dict[str, Dict[str, SimResult]] = {}
    for job in jobs:
        sim = by_key.get(job.key)
        if sim is not None:
            grouped.setdefault(job.trace, {})[job.l1d] = sim
    return grouped
