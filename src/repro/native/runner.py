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

Error mapping: the kernel returns 0 on success, 1 for MSHR exhaustion
(registers ``ERR_A..ERR_D`` carry count/size/cycle/line) and any other
value for an internal invariant breach.  On every non-zero return the
state is imported with ``end_span(ok=False)`` — absolute counters land,
span deltas are discarded — the state a crashed run is left in.
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
from repro.simulator.engine import make_classic_runner

from . import build as _build
from .marshal import RIX, NativeState

try:
    import numpy as _np
except Exception:  # pragma: no cover - exercised via monkeypatching
    _np = None

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

# Exact replacement-policy types the kernel implements.  Subclasses are
# rejected: a policy override changes victim selection and the C side
# would silently diverge.
_STOCK_POLICIES = (LRUPolicy, SRRIPPolicy, DRRIPPolicy)


def non_stock_reason(hierarchy, core) -> str:
    """Why the hot path is not all stock parts (``""`` when it is).

    Exact-type checks: any subclass — fault injectors, the sanitizer's
    reference engine — keeps full virtual dispatch.  Instrumentation
    that shadows ``demand_access`` with an instance attribute (the
    sanitizer, the lockstep capture) counts too: the kernel never goes
    through that method.  So does any L2 prefetcher.
    """
    h = hierarchy
    if type(h) is not Hierarchy:
        return f"hierarchy {type(h).__name__} is not the stock Hierarchy"
    if "demand_access" in h.__dict__:
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


def native_mode(hierarchy, core) -> Tuple[bool, int, str]:
    """Classify whether the native kernel may run a span.

    Returns ``(ok, demotion_code, detail)``: stock parts only
    (:func:`non_stock_reason`), exact stock replacement policies, a
    single-ASID MMU, and either no L1D prefetcher or the stock
    ``BertiPrefetcher`` on its kernel hooks with table geometries
    within the C fast-path bounds.
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
    if type(pf) is not BertiPrefetcher or h._l1d_kernel is not pf:
        return (
            False,
            3,
            f"L1D prefetcher {type(pf).__name__} is not the stock "
            f"BertiPrefetcher",
        )
    cfg = pf.config
    if cfg.deltas_per_entry > 64 or cfg.max_prefetch_deltas > 64:
        return (
            False,
            3,
            f"delta geometry ({cfg.deltas_per_entry} slots, "
            f"{cfg.max_prefetch_deltas} pf) exceeds kernel bound 64",
        )
    return (True, 0, "")


def _addresses_nonnegative(trace) -> bool:
    """The kernel's open-addressing page table uses -1 as its empty
    marker, so negative virtual pages must stay on the Python path."""
    addrs = trace.columns()[1]
    if len(addrs) == 0:
        return True
    if _np is not None:
        return not bool((_np.frombuffer(addrs, dtype=_np.int64) < 0).any())
    return min(addrs) >= 0


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
        self._addrs_ok = _addresses_nonnegative(trace)
        self._state: Optional[NativeState] = None

    def _demote(self, code: int, detail: str, lo: int, hi: int) -> None:
        if self.demotion_code is None:
            self.demotion_code = code
            self.demotion_detail = detail
        self.demoted_spans += 1
        if self._state is not None:
            # The Python span mutates the cache objects behind the flat
            # buffers; a later native span must re-export everything.
            self._state.mark_stale()
        # Built per span: the guard that demoted this span may be a
        # wrapper attached since the last one, and the classic loop reads
        # ``demand_access`` when it is built.
        make_classic_runner(self.trace, self.hierarchy, self.core)(lo, hi)

    def __call__(self, lo: int, hi: int) -> None:
        if self.force_demote_at is not None and hi > self.force_demote_at:
            self._demote(5, f"forced demotion at record {self.force_demote_at}",
                         lo, hi)
            return
        if self._fn is None:
            self._demote(1, self.compiler_diagnostic or "no compiler", lo, hi)
            return
        if not self._addrs_ok:
            self._demote(2, "trace contains negative addresses", lo, hi)
            return
        ok, code, detail = native_mode(self.hierarchy, self.core)
        if not ok:
            self._demote(code, detail, lo, hi)
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
