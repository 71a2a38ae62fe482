"""Pure-reference simulation engine for differential checking.

The hierarchy calls the methods of its caches, MSHRs, PQ and MMU, and
issues every L1D prefetch through one tail; what is left of the fast
paths sits in front of those methods: the cache's replacement-policy
memos, the MSHR's expiry memo, the ``pf_active`` hook skip for exactly
``NoPrefetcher`` and Berti's ``kernel_hooks`` protocol over its
memoised tables.  Substituting subclasses defeats each of them — the
policy memos are set only for the stock policy classes, the hook skip
and the kernel protocol test the prefetcher's own class, and
:class:`ReferenceMSHR` overrides the memoised methods — and yields a
slower engine whose observable behaviour must be bit-identical to the
optimised one.

:func:`to_reference` performs that substitution in place via
``__class__`` reassignment (all components are plain-``__dict__``
classes, so this is layout-safe).  What each substitution still
changes:

* the caches: nulling their memoised policy fast paths (``_lru``,
  ``_srrip_hit``, ``_srrip_fill``) sends every hit and fill through
  ``ReplacementPolicy.on_hit``/``on_fill`` calls (``_drrip`` is kept —
  DRRIP miss notification is functional behaviour, not a fast path);
* :class:`ReferenceMSHR` re-derives expiry from first principles on
  every query — no per-cycle memo, no ``_min_ready`` early-out — so a
  memoisation bug in the optimised MSHR shows up as an entry-set
  divergence;
* :class:`ReferenceNoPrefetcher` defeats the ``pf_active`` hook-skip,
  so the hook plumbing runs even for no-op prefetchers (it is
  statistics-neutral by construction, which the differential test
  verifies rather than assumes);
* :class:`ReferenceBertiPrefetcher` (and its per-page twin) takes the
  virtual ``on_access``/``on_fill``/``on_prefetch_hit`` hooks over the
  object-per-entry tables of :mod:`repro.core.reference_tables`;
* :class:`ReferenceCache`, :class:`ReferenceLRU`,
  :class:`ReferenceSRRIP` and :class:`ReferencePQ` change no dispatch
  of their own: the hierarchy calls the same methods on the stock
  classes.  They mark the hierarchy as reference (:func:`is_reference`)
  and, being non-stock, make ``native_mode`` demote it to the classic
  loop.

The conversion is idempotent (every rewrite is guarded by an exact-type
check), so it is safe as a multicore ``post_build`` hook where the
shared LLC appears in every core's hierarchy.
"""

from __future__ import annotations

from repro.core.berti import BertiPrefetcher
from repro.core.berti_page import BertiPagePrefetcher
from repro.core.reference_tables import (
    ReferenceDeltaTable,
    ReferenceHistoryTable,
)
from repro.memory.cache import Cache
from repro.memory.hierarchy import Hierarchy, _FIFOQueue
from repro.memory.mshr import MSHR
from repro.memory.replacement import LRUPolicy, SRRIPPolicy
from repro.prefetchers.base import NoPrefetcher


class ReferenceCache(Cache):
    """A Cache whose policy memos :func:`to_reference` nulls, so its
    lookups/fills make virtual policy calls."""


class ReferenceLRU(LRUPolicy):
    """An LRUPolicy the cache reaches through ``on_hit``/``on_fill``
    once its ``_lru`` memo is nulled."""


class ReferenceSRRIP(SRRIPPolicy):
    """An SRRIPPolicy the cache reaches through ``on_hit``/``on_fill``
    once its ``_srrip_*`` memos are nulled."""


class ReferencePQ(_FIFOQueue):
    """A non-stock PQ: same methods, but the native runner demotes."""


class ReferenceNoPrefetcher(NoPrefetcher):
    """A NoPrefetcher that still runs the full hook plumbing."""


class ReferenceBertiPrefetcher(BertiPrefetcher):
    """A Berti that takes the virtual-hook path with reference tables.

    ``kernel_hooks`` is deliberately *not* re-declared here: the
    hierarchy reads the flag from the prefetcher's own class body, so
    this subclass is dispatched through ``on_access``/``on_fill``/
    ``on_prefetch_hit`` with per-call AccessInfo/FillInfo/Request
    objects — the original protocol the kernels must mirror exactly.
    :func:`to_reference` additionally swaps ``history``/``deltas`` for
    the object-per-entry reference tables, so the entire training and
    prediction path runs through an independently-written twin.
    """


class ReferenceBertiPagePrefetcher(BertiPagePrefetcher):
    """Per-page Berti on the virtual-hook path (see above)."""


class ReferenceMSHR(MSHR):
    """An MSHR with memo-free, guard-free expiry.

    Every query re-scans the entry set against the caller's clock, so
    the outstanding set is always exact — the ground truth the optimised
    MSHR's ``_last_expire``/``_min_ready`` short-circuits must match.
    ``_last_expire`` is still maintained (it equals the most recent
    query cycle in both engines); ``_min_ready`` is kept tight rather
    than conservative, which is the one internal field allowed to
    differ between engines.
    """

    def _expire(self, now: int) -> None:
        self._last_expire = now
        entries = self._entries
        done = []
        min_ready = None
        for line, e in entries.items():
            ready = e.ready_cycle
            if ready <= now:
                done.append(line)
            elif min_ready is None or ready < min_ready:
                min_ready = ready
        for line in done:
            del entries[line]
        self._min_ready = min_ready if min_ready is not None else 0

    def occupancy(self, now: int) -> int:
        self._expire(now)
        return len(self._entries)

    def lookup(self, line: int, now: int):
        self._expire(now)
        return self._entries.get(line)

    def allocate(self, line, now, ready_cycle, is_prefetch, ip=0, vline=0):
        self._expire(now)
        return super().allocate(
            line, now, ready_cycle, is_prefetch, ip=ip, vline=vline
        )


def to_reference(hierarchy: Hierarchy) -> Hierarchy:
    """Convert ``hierarchy`` to the reference engine, in place.

    Usable directly as a ``post_build`` hook for both
    :func:`~repro.simulator.engine.simulate` and
    :func:`~repro.simulator.multicore.simulate_multicore`.  Returns the
    hierarchy for convenience.
    """
    for cache in (hierarchy.l1d, hierarchy.l2, hierarchy.llc):
        if type(cache) is Cache:
            cache.__class__ = ReferenceCache
            cache._lru = None
            cache._srrip_hit = None
            cache._srrip_fill = None
        policy = cache.policy
        if type(policy) is LRUPolicy:
            policy.__class__ = ReferenceLRU
        elif type(policy) is SRRIPPolicy:
            policy.__class__ = ReferenceSRRIP
        # DRRIP subclasses SRRIP, so the cache's constructor already left
        # it on the virtual fill path; no class change needed.
    for attr in ("l1d_mshr", "l2_mshr", "llc_mshr"):
        mshr = getattr(hierarchy, attr)
        if type(mshr) is MSHR:
            mshr.__class__ = ReferenceMSHR
    if type(hierarchy.pq) is _FIFOQueue:
        hierarchy.pq.__class__ = ReferencePQ
    for attr in ("l1d_prefetcher", "l2_prefetcher"):
        pf = getattr(hierarchy, attr)
        if type(pf) is NoPrefetcher:
            pf.__class__ = ReferenceNoPrefetcher
        elif type(pf) is BertiPrefetcher:
            pf.__class__ = ReferenceBertiPrefetcher
            _swap_berti_tables(pf)
        elif type(pf) is BertiPagePrefetcher:
            pf.__class__ = ReferenceBertiPagePrefetcher
            _swap_berti_tables(pf)
    # The demotion must be visible to the hierarchy's cached kernel
    # entry points — without this, _l1d_kernel would keep dispatching
    # into the (now reference-classed) prefetcher's kernel methods.
    hierarchy._refresh_kernel_hooks()
    return hierarchy


def _swap_berti_tables(pf: BertiPrefetcher) -> None:
    """Replace the kernelized tables with their reference twins.

    Only valid on a freshly built hierarchy (both ``to_reference`` call
    sites run at ``post_build`` time): the tables are empty, so swapping
    the implementation cannot lose training state.
    """
    if pf.history.inserts or pf.deltas._fifo_clock:
        raise RuntimeError(
            "to_reference must run before any simulation: Berti tables "
            "already hold training state"
        )
    pf.history = ReferenceHistoryTable(pf.config)
    pf.deltas = ReferenceDeltaTable(pf.config)


def is_reference(hierarchy: Hierarchy) -> bool:
    """True when ``hierarchy`` has been through :func:`to_reference`."""
    return isinstance(hierarchy.l1d, ReferenceCache)
