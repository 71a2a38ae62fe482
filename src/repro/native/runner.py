"""Span runner for the native backend: guards, demotion, error mapping.

``make_native_runner`` pairs the C span kernel with the classic
per-record loop (:func:`repro.simulator.engine.make_classic_runner`),
so every span has a Python twin to demote to.  Guards are re-validated
at each span boundary: the native kernel must never engage against
fault-injection subclasses, wrapped hooks, non-stock replacement
policies or table geometries the C side did not size for.

Demotion is *sticky for reporting only*: the first reason is recorded in
``runner.demotion_code`` (see :data:`DEMOTION_REASONS`) so the engine can
surface one structured event, but each span still re-checks — a guard
that clears (e.g. a test un-wraps a hook) lets later spans run natively.

Error mapping: the kernel returns 0 on success and 1 for MSHR
exhaustion (registers ``ERR_A..ERR_D`` carry count/size/cycle/line);
any other value is reported as an internal error.  On every non-zero
return the state is imported with ``end_span(ok=False)`` — absolute
counters land, span deltas are discarded — the state a crashed run is
left in.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.berti import BertiPrefetcher
from repro.cpu.core_model import CoreModel
from repro.cpu.mmu import MMU
from repro.errors import ConfigError, SimulationError
from repro.memory.cache import Cache
from repro.memory.hierarchy import Hierarchy, _FIFOQueue
from repro.memory.mshr import MSHR
from repro.memory.replacement import DRRIPPolicy, LRUPolicy, SRRIPPolicy
from repro.prefetchers.base import NoPrefetcher
from repro.prefetchers.ipcp import IPCPPrefetcher
from repro.simulator.engine import make_classic_runner

from . import build as _build
from .marshal import RIX, NativeState

import numpy as np

__all__ = ["DEMOTION_REASONS", "native_mode", "make_native_runner",
           "NativeRunner", "non_stock_reason"]

#: Structured demotion reasons (code -> slug); code 0 means "never demoted".
DEMOTION_REASONS = {
    1: "no-compiler",
    2: "non-stock-hierarchy",
    3: "unsupported-prefetcher",
    4: "unsupported-replacement",
    5: "forced",
}

#: Largest suggestion list per access (the kernel's SEL_* buffers).
_MAX_SUGGESTIONS = 64
#: IPCP's target arithmetic stays inside int64 for lines below 2**50,
#: whatever the degrees (each at most _MAX_SUGGESTIONS).
_IPCP_ADDRESS_BOUND = 1 << 56

# Exact replacement-policy types the kernel implements.  Subclasses are
# rejected: a policy override changes victim selection and the C side
# would silently diverge.
_STOCK_POLICIES = (LRUPolicy, SRRIPPolicy, DRRIPPolicy)


def non_stock_reason(hierarchy, core) -> str:
    """Why the hot path is not all stock parts (``""`` when it is).

    Exact-type checks: any subclass — fault injectors, the sanitizer's
    reference engine — runs on the classic loop, which calls its
    overrides.  Instrumentation
    that shadows ``demand_access`` with an instance attribute (the
    sanitizer, the lockstep capture) counts too: the kernel never goes
    through that method.  So does any L2 prefetcher.

    The shadow is found through the attribute itself, which is the
    class method bound to ``h`` unless an instance attribute hides it.
    Reading ``h.__dict__`` instead would make CPython materialise the
    hierarchy's instance dict and stop specialising its attribute loads
    for the rest of the run (docs/performance.md).
    """
    h = hierarchy
    if type(h) is not Hierarchy:
        return f"hierarchy {type(h).__name__} is not the stock Hierarchy"
    demand = h.demand_access
    if (getattr(demand, "__self__", None) is not h
            or getattr(demand, "__func__", None)
            is not Hierarchy.demand_access):
        return "demand_access is wrapped by an instance attribute"
    for part, stock in (
        (h.mmu, MMU), (h.l1d, Cache), (h.l2, Cache), (h.llc, Cache),
        (h.l1d_mshr, MSHR), (h.l2_mshr, MSHR), (h.pq, _FIFOQueue),
        (core, CoreModel),
    ):
        if type(part) is not stock:
            return (f"{type(part).__name__} is not the stock "
                    f"{stock.__name__}")
    if type(h.l2_prefetcher) is not NoPrefetcher:
        return f"L2 prefetcher {type(h.l2_prefetcher).__name__} attached"
    return ""


def _ipcp_reason(pf: IPCPPrefetcher) -> str:
    """Why the kernel cannot run this ``IPCPPrefetcher`` (``""`` when
    it can): an ``on_access`` shadowed by an instance attribute, or a
    geometry the kernel was not sized for.

    The shadow is found through the bound method's ``__func__``, not
    through ``pf.__dict__``, which would make CPython materialise the
    instance dict and stop specialising its attribute loads.
    """
    on_access = pf.on_access
    if (getattr(on_access, "__self__", None) is not pf
            or getattr(on_access, "__func__", None)
            is not IPCPPrefetcher.on_access):
        return "IPCPPrefetcher.on_access is wrapped by an instance attribute"
    if pf.region_lines > 63:
        return (f"IPCP region_lines {pf.region_lines} exceeds the "
                f"kernel's 63-bit region bitmap")
    degrees = (pf.cs_degree, pf.cplx_degree, pf.gs_degree)
    if max(degrees) > _MAX_SUGGESTIONS:
        return (f"IPCP degrees {degrees} exceed kernel bound "
                f"{_MAX_SUGGESTIONS}")
    return ""


def native_mode(hierarchy, core) -> Tuple[bool, int, str]:
    """Classify whether the native kernel may run a span.

    Returns ``(ok, demotion_code, detail)``: stock parts only
    (:func:`non_stock_reason`), exact stock replacement policies, a
    single-ASID MMU, and an L1D prefetcher the kernel implements with
    table geometries within its bounds: none, the stock
    ``BertiPrefetcher`` on its kernel hooks, or exactly
    ``IPCPPrefetcher`` with its class ``on_access``
    (:func:`_ipcp_reason`).
    Subclasses of either (``IPCPL2Prefetcher``, fault injectors) and
    wrappers (FDP throttling) demote with code 3.
    """
    reason = non_stock_reason(hierarchy, core)
    if reason:
        return (False, 2, reason)
    h = hierarchy
    for cache in (h.l1d, h.l2, h.llc):
        if type(cache.policy) not in _STOCK_POLICIES:
            return (
                False,
                4,
                f"{cache.name} replacement {type(cache.policy).__name__} "
                f"is not stock LRU/SRRIP/DRRIP",
            )
    if h.mmu._asid != 0:
        return (False, 2, f"MMU asid {h.mmu._asid} != 0")
    if core.config.dependency_window < 1:
        return (False, 2, "dependency_window < 1")
    pf = h.l1d_prefetcher
    if type(pf) is NoPrefetcher:
        return (True, 0, "")
    if type(pf) is IPCPPrefetcher:
        reason = _ipcp_reason(pf)
        return (False, 3, reason) if reason else (True, 0, "")
    if type(pf) is not BertiPrefetcher or h._l1d_kernel is not pf:
        return (
            False,
            3,
            f"L1D prefetcher {type(pf).__name__} is not the stock "
            f"BertiPrefetcher or IPCPPrefetcher",
        )
    cfg = pf.config
    if (cfg.deltas_per_entry > _MAX_SUGGESTIONS
            or cfg.max_prefetch_deltas > _MAX_SUGGESTIONS):
        return (
            False,
            3,
            f"delta geometry ({cfg.deltas_per_entry} slots, "
            f"{cfg.max_prefetch_deltas} pf) exceeds kernel bound 64",
        )
    return (True, 0, "")


def _address_range(trace) -> Tuple[int, int]:
    """The trace's smallest and largest virtual address (0, 0 when
    empty).  The kernel's open-addressing page table uses -1 as its
    empty marker, so negative virtual pages must stay on the Python
    path, and IPCP's targets need addresses below
    :data:`_IPCP_ADDRESS_BOUND`."""
    addrs = trace.columns()[1]
    if len(addrs) == 0:
        return (0, 0)
    column = np.frombuffer(addrs, dtype=np.int64)
    return (int(column.min()), int(column.max()))


class NativeRunner:
    """Callable span runner; ``runner(lo, hi)`` executes one span.

    Attributes read by the engine after the run:

    * ``native_spans`` / ``demoted_spans`` — span counts per path;
    * ``demotion_code`` — first demotion reason (``None`` if never
      demoted), indexes :data:`DEMOTION_REASONS`;
    * ``demotion_detail`` — human-readable reason for that first event.
    """

    def __init__(
        self,
        trace,
        hierarchy,
        core,
        native: str = "auto",
        force_demote_at: Optional[int] = None,
    ) -> None:
        self.trace = trace
        self.hierarchy = hierarchy
        self.core = core
        self.force_demote_at = force_demote_at
        self.native_spans = 0
        self.demoted_spans = 0
        self.demotion_code: Optional[int] = None
        self.demotion_detail: str = ""
        self._fn, self.compiler_diagnostic = _build.kernel_available()
        if native == "force" and self._fn is None:
            raise ConfigError(
                f"engine='native' with native='force' but the kernel is "
                f"unavailable: {self.compiler_diagnostic}",
                trace=trace.name,
                field="engine",
            )
        self._addr_range = _address_range(trace)
        self._state: Optional[NativeState] = None

    def _demote(self, code: int, detail: str, lo: int, hi: int) -> None:
        if self.demotion_code is None:
            self.demotion_code = code
            self.demotion_detail = detail
        self.demoted_spans += 1
        h = self.hierarchy
        if self._state is not None:
            # Native spans drop the caches' and TLBs' indexes; the
            # classic loop's prefetch presence filter reads a cache's
            # directly.
            for part in (h.l1d, h.l2, h.llc, h.mmu.dtlb, h.mmu.stlb):
                part.index()
        # Built per span: the guard that demoted this span may be a
        # wrapper attached since the last one, and the classic loop reads
        # ``demand_access`` when it is built.
        make_classic_runner(self.trace, h, self.core)(lo, hi)

    def __call__(self, lo: int, hi: int) -> None:
        if self.force_demote_at is not None and hi > self.force_demote_at:
            self._demote(5, f"forced demotion at record {self.force_demote_at}",
                         lo, hi)
            return
        if self._fn is None:
            self._demote(1, self.compiler_diagnostic or "no compiler", lo, hi)
            return
        low, high = self._addr_range
        if low < 0:
            self._demote(2, "trace contains negative addresses", lo, hi)
            return
        ok, code, detail = native_mode(self.hierarchy, self.core)
        if not ok:
            self._demote(code, detail, lo, hi)
            return
        if (high >= _IPCP_ADDRESS_BOUND
                and type(self.hierarchy.l1d_prefetcher) is IPCPPrefetcher):
            self._demote(3, f"trace address {high:#x} reaches IPCP's "
                            f"kernel bound {_IPCP_ADDRESS_BOUND:#x}", lo, hi)
            return
        if self._state is None:
            self._state = NativeState(self.trace, self.hierarchy, self.core)
        state = self._state
        state.begin_span(lo, hi)
        rc = _build.call_span(self._fn, state)
        if rc == 0:
            state.end_span(True)
            self.native_spans += 1
            return
        R = state.R
        err_a = R[RIX["ERR_A"]]
        err_b = R[RIX["ERR_B"]]
        err_c = R[RIX["ERR_C"]]
        err_d = R[RIX["ERR_D"]]
        state.end_span(False)
        if rc == 1:
            # Byte-for-byte the message mshr.MSHR.allocate raises, so the
            # crash-triage fingerprints match across engines.
            raise SimulationError(
                f"MSHR full: {err_a}/{err_b} entries outstanding at cycle "
                f"{err_c} (line {err_d:#x})",
                field="mshr",
            )
        raise SimulationError(
            f"native kernel internal error {rc} in span [{lo}, {hi}) "
            f"(a={err_a} b={err_b} c={err_c} d={err_d})",
            trace=self.trace.name,
            prefetcher=self.hierarchy.l1d_prefetcher.name,
            field="engine",
        )


def make_native_runner(
    trace,
    hierarchy,
    core,
    native: str = "auto",
    force_demote_at: Optional[int] = None,
) -> NativeRunner:
    """Build the native span runner for one (trace, hierarchy, core).

    ``native="force"`` raises :class:`~repro.errors.ConfigError` when the
    kernel cannot be built; ``"auto"`` demotes every span instead.
    """
    return NativeRunner(trace, hierarchy, core, native, force_demote_at)
