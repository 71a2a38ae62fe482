"""Berti: the accurate local-delta L1D prefetcher (paper §III).

Training (§III-A):

* every demand miss and every first demand hit on a prefetched line
  inserts ``(IP, line, timestamp)`` into the history table;
* when the fetch latency of such an access becomes known (on the fill for
  demand misses; immediately for prefetch hits, whose latency was stored
  in the per-line 12-bit field), the history is searched for *timely*
  local deltas, and the result is accumulated in the table of deltas.

Prediction (§III-B):

* on every L1D access the table of deltas is consulted for the IP;
* deltas with ``L1D_PREF`` status prefetch-and-fill to L1D while the L1D
  MSHR is below the 70 % occupancy watermark (they degrade to L2 fills
  above it);
* deltas with ``L2_PREF``/``L2_PREF_REPL`` status fill up to L2;
* prefetch addresses are virtual (current access + delta), so requests
  may cross page boundaries; the engine drops them on STLB misses.
"""

from __future__ import annotations

from typing import List

from repro.core.config import BertiConfig
from repro.core.delta_table import L1D_PREF, DeltaTable
from repro.core.history_table import HistoryTable
from repro.memory.address import same_page
from repro.prefetchers.base import (
    FILL_L1,
    FILL_L2,
    AccessInfo,
    FillInfo,
    Prefetcher,
    PrefetchRequest,
)


class BertiPrefetcher(Prefetcher):
    """The paper's contribution, faithful to the hardware description."""

    name = "berti"
    level = "l1d"
    # Opt into the hierarchy's kernel protocol (see Prefetcher): the
    # on_*_kernel methods below are behaviourally identical to the
    # virtual hooks, minus the per-call AccessInfo/FillInfo/Request
    # allocations.  Subclasses fall back to virtual dispatch unless they
    # re-declare the flag in their own class body.
    kernel_hooks = True

    def __init__(self, config: BertiConfig | None = None) -> None:
        self.config = config or BertiConfig()
        self.history = HistoryTable(self.config)
        self.deltas = DeltaTable(self.config)
        self._latency_mask = (1 << self.config.latency_bits) - 1
        # Reusable timely-delta buffer for the kernel fill path (bounded
        # by max_deltas_per_search; record_search does not retain it).
        self._scratch: List[int] = []
        # Statistics for analysis/benchmarks.
        self.cross_page_suppressed = 0

    def _key(self, ip: int, line: int) -> int:
        """Training/prediction context: the IP for this (per-IP) Berti.

        The DPC-3 ancestor used the OS page instead; see
        :class:`BertiPagePrefetcher`.
        """
        return ip

    def __getstate__(self):
        # The timely-delta scratch buffer is transient (rewritten by the
        # next search); the C kernel never touches the Python-side list,
        # so empty it for backend-independent snapshot bytes.
        state = self.__dict__.copy()
        state["_scratch"] = []
        return state

    # ------------------------------------------------------------------
    # Training hooks
    # ------------------------------------------------------------------

    def on_access(self, access: AccessInfo) -> List[PrefetchRequest]:
        if not access.hit:
            # Demand miss: record the access; the timely-delta search runs
            # later, on the fill, when the latency is known.
            self.history.insert(
                self._key(access.ip, access.line), access.line, access.now
            )
        # Prediction runs on *every* L1D access (Figure 5: the table of
        # deltas is searched with the IP on each access).
        return self._predict(access)

    def on_fill(self, fill: FillInfo) -> List[PrefetchRequest]:
        if fill.was_prefetch:
            # Prefetch fills do not train: their demand time is unknown
            # until the core actually touches the line (§III-A).
            return []
        latency = self._clamp_latency(fill.latency)
        if latency == 0:
            return []  # overflow: not considered for learning
        demand_time = fill.now - fill.latency
        key = self._key(fill.ip, fill.line)
        timely = self.history.search_timely(
            key, fill.line, demand_time, latency
        )
        self.deltas.record_search(key, timely)
        return []

    def on_prefetch_hit(self, access: AccessInfo, pf_latency: int) -> None:
        # First demand touch of a prefetched line: this is a miss the
        # baseline would have had, so Berti both records it in the history
        # and searches using the latency the prefetch experienced.
        key = self._key(access.ip, access.line)
        self.history.insert(key, access.line, access.now)
        latency = self._clamp_latency(pf_latency)
        if latency == 0:
            return
        timely = self.history.search_timely(
            key, access.line, access.now, latency
        )
        self.deltas.record_search(key, timely)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def _predict(self, access: AccessInfo) -> List[PrefetchRequest]:
        line = access.line
        selected = self.deltas.prefetch_deltas(self._key(access.ip, line))
        if not selected:
            return []
        cfg = self.config
        mshr_below_watermark = access.mshr_occupancy < cfg.mshr_watermark
        cross_page_ok = cfg.cross_page
        requests: List[PrefetchRequest] = []
        append = requests.append
        for delta, status in selected:
            target = line + delta
            if target < 0:
                continue
            if not cross_page_ok and not same_page(line, target):
                self.cross_page_suppressed += 1
                continue
            if status == L1D_PREF and mshr_below_watermark:
                fill_level = FILL_L1
            else:
                fill_level = FILL_L2
            append(PrefetchRequest(line=target, fill_level=fill_level))
        return requests

    # ------------------------------------------------------------------
    # Kernel protocol (allocation-free mirrors of the hooks above)
    # ------------------------------------------------------------------

    def on_access_kernel(
        self, ip: int, line: int, hit: bool, now: int
    ) -> List:
        """``on_access`` minus the wrappers: insert on miss, then return
        the memoised ``(delta, status)`` selection for the context.

        The hierarchy applies the prediction policy (MSHR watermark,
        cross-page filter, fill levels) inline — callers must not mutate
        the returned list.
        """
        key = self._key(ip, line)
        if not hit:
            self.history.insert(key, line, now)
        return self.deltas.prefetch_deltas(key)

    def on_fill_kernel(self, line: int, now: int, latency: int, ip: int) -> None:
        """``on_fill`` for a demand-miss fill, as one packed update.

        The latency clamp is inlined (the 12-bit field drops overflow)
        and the timely-delta search reuses one scratch buffer instead of
        allocating a result list per fill.
        """
        if latency <= 0 or latency > self._latency_mask:
            return  # overflow: not considered for learning
        key = self._key(ip, line)
        timely = self._scratch
        timely.clear()
        self.history.search_timely_into(key, line, now - latency, latency, timely)
        self.deltas.record_search(key, timely)

    def on_prefetch_hit_kernel(
        self, ip: int, line: int, now: int, pf_latency: int
    ) -> None:
        """``on_prefetch_hit`` as one packed update (see on_fill_kernel)."""
        key = self._key(ip, line)
        self.history.insert(key, line, now)
        if pf_latency <= 0 or pf_latency > self._latency_mask:
            return
        timely = self._scratch
        timely.clear()
        self.history.search_timely_into(key, line, now, pf_latency, timely)
        self.deltas.record_search(key, timely)

    # ------------------------------------------------------------------

    def _clamp_latency(self, latency: int) -> int:
        """The 12-bit latency field: out-of-range values store zero."""
        if latency <= 0 or latency > self._latency_mask:
            return 0
        return latency

    def storage_bits(self) -> int:
        return self.config.storage_bits()

    def reset(self) -> None:
        self.history.reset()
        self.deltas.reset()
        self.cross_page_suppressed = 0
