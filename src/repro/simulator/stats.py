"""Result records produced by a simulation run.

:class:`SimResult` is the single object every experiment consumes: IPC,
per-level demand MPKI, prefetch accuracy/timeliness, per-link traffic and
the raw event counts the energy model needs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, ClassVar, Dict


@dataclass
class PrefetchSummary:
    issued: int = 0
    fills: int = 0
    useful: int = 0
    late: int = 0
    useless: int = 0
    promoted: int = 0
    dropped_translation: int = 0
    dropped_duplicate: int = 0
    dropped_queue_full: int = 0
    dropped_mshr_full: int = 0

    @property
    def timely(self) -> int:
        return max(0, self.useful - self.late)

    @property
    def resolved(self) -> int:
        """Prefetches whose outcome is known (demanded or evicted)."""
        return self.useful + self.useless

    @property
    def accuracy(self) -> float:
        """(timely + late) / resolved — the artifact's accuracy formula,
        restricted to resolved prefetches so short traces are unbiased."""
        return self.useful / self.resolved if self.resolved else 0.0

    @property
    def timely_fraction(self) -> float:
        return self.timely / self.resolved if self.resolved else 0.0

    @property
    def late_fraction(self) -> float:
        return self.late / self.resolved if self.resolved else 0.0


@dataclass
class SimResult:
    """Everything measured over the measurement window of one run."""

    trace_name: str
    prefetcher_l1d: str
    prefetcher_l2: str
    instructions: int = 0
    cycles: float = 0.0

    l1d_demand_accesses: int = 0
    l1d_demand_misses: int = 0
    l2_demand_accesses: int = 0
    l2_demand_misses: int = 0
    llc_demand_accesses: int = 0
    llc_demand_misses: int = 0

    pf_l1d: PrefetchSummary = field(default_factory=PrefetchSummary)
    pf_l2: PrefetchSummary = field(default_factory=PrefetchSummary)

    traffic_l1d_l2: int = 0
    traffic_l2_llc: int = 0
    traffic_llc_dram: int = 0

    dram_reads: int = 0
    dram_writes: int = 0
    dram_row_hits: int = 0
    dram_row_misses: int = 0
    avg_dram_read_latency: float = 0.0

    l1d_writebacks: int = 0
    l2_writebacks: int = 0
    llc_writebacks: int = 0

    l1d_prefetch_fills: int = 0
    l2_prefetch_fills: int = 0
    llc_prefetch_fills: int = 0

    extra: Dict[str, float] = field(default_factory=dict)

    #: Which engine path computed a job's result: the ``native_*``
    #: markers :func:`repro.runner.worker.run_job` moves out of
    #: :attr:`extra`.  Not a field, so ``to_dict()``, equality and every
    #: persisted form ignore it; pickling keeps it, so a campaign
    #: supervisor still sees it across its process pool.
    engine_markers: ClassVar[Dict[str, float]] = {}

    # ------------------------------------------------------------------

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def _mpki(self, misses: int) -> float:
        if self.instructions == 0:
            return 0.0
        return misses * 1000.0 / self.instructions

    @property
    def l1d_mpki(self) -> float:
        return self._mpki(self.l1d_demand_misses)

    @property
    def l2_mpki(self) -> float:
        return self._mpki(self.l2_demand_misses)

    @property
    def llc_mpki(self) -> float:
        return self._mpki(self.llc_demand_misses)

    def speedup_over(self, baseline: "SimResult") -> float:
        """IPC ratio vs. a baseline run of the same trace."""
        if baseline.ipc == 0:
            return 0.0
        return self.ipc / baseline.ipc

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON-serialisable form (for the runner's journal)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimResult":
        """Inverse of :meth:`to_dict`; unknown keys are ignored."""
        data = dict(data)
        pf_l1d = PrefetchSummary(**data.pop("pf_l1d", {}))
        pf_l2 = PrefetchSummary(**data.pop("pf_l2", {}))
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        kwargs["pf_l1d"] = pf_l1d
        kwargs["pf_l2"] = pf_l2
        return cls(**kwargs)

    def summary_line(self) -> str:
        return (
            f"{self.trace_name:<28s} l1d={self.prefetcher_l1d:<10s} "
            f"l2={self.prefetcher_l2:<8s} IPC={self.ipc:6.3f} "
            f"L1D-MPKI={self.l1d_mpki:7.2f} acc={self.pf_l1d.accuracy:5.1%}"
        )
