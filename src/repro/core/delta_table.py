"""Berti's table of deltas (paper §III-C, Figures 5 and 6) — kernelized.

A 16-entry fully-associative FIFO cache tagged by a 10-bit hash of the
IP.  Each entry holds a 4-bit search counter and an array of 16 deltas,
each with a 4-bit coverage counter and a 2-bit status:

* ``L1D_PREF``      — coverage crossed the high watermark (65 %): prefetch
  and fill up to the L1D (when the L1D MSHR is below its watermark).
* ``L2_PREF``       — coverage between the medium (35 %) and high
  watermarks: prefetch, fill up to L2.
* ``L2_PREF_REPL``  — same as ``L2_PREF`` but the coverage was below 50 %,
  so the slot is an eviction candidate for newly seen deltas.
* ``NO_PREF``       — low coverage: keep learning, do not prefetch.

Statuses are assigned when the search counter overflows (16 searches);
the counter and coverages are then reset and a new learning phase begins.
While the first phase is still warming up, deltas are used for L1D
prefetching with a stricter 80 % watermark once at least eight searches
have been gathered.

Kernel layout.  Entries are parallel preallocated lists (no per-slot
objects): coverage is maintained *incrementally* by running counters on
the per-entry slot lists, and every read-side product is cached with
dirty-bit invalidation —

* ``_pf_cache`` memoises the warmed-up selected-delta list (invalidated
  only at phase close and on the rare eviction of a prefetching slot),
* ``_warm_cache`` memoises the warmup selection (invalidated whenever
  the entry's counter or slots change, i.e. on each ``record_search``
  that touches the entry),
* ``_evict_heap`` keeps the replacement-candidate slots as a lazy
  min-heap of ``(coverage, slot)`` pairs — lexicographic order is
  exactly the reference scan's lowest-coverage-first-occurrence victim
  rule.  Entries go stale when a slot's coverage moves (a fresh pair is
  pushed; the old one is discarded on pop against the live columns), and
  the heap is rebuilt at phase close, the only time statuses change.
  This matters because irregular traces (graph kernels) present mostly
  *unseen* deltas: nearly every timely delta needs a victim, and the
  reference rescans all 16 slots each time,

so :meth:`prefetch_deltas` — called on **every** L1D access — is a dict
probe plus a list return on the common path, and a victim election on
the training path is a heap pop.  Slots fill densely from index 0 (the
victim scan prefers the first empty slot and slots never empty
mid-lifetime), so slot validity is a single ``_slot_count`` per entry
rather than a flag per slot.

The original object-per-slot implementation is preserved as
:class:`~repro.core.reference_tables.ReferenceDeltaTable` and drives the
differential lockstep oracle; both produce bit-identical results.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Tuple

from repro.core.config import BertiConfig

NO_PREF = 0
L1D_PREF = 1
L2_PREF = 2
L2_PREF_REPL = 3

STATUS_NAMES = {
    NO_PREF: "no_pref",
    L1D_PREF: "l1d_pref",
    L2_PREF: "l2_pref",
    L2_PREF_REPL: "l2_pref_repl",
}


class DeltaTable:
    """Per-IP delta coverage accumulation and prefetch-status selection."""

    def __init__(self, config: BertiConfig | None = None) -> None:
        self.config = config or BertiConfig()
        cfg = self.config
        self._tag_mask = (1 << cfg.delta_tag_bits) - 1
        self._coverage_cap = (1 << cfg.coverage_bits) - 1
        self.reset()

    # ------------------------------------------------------------------

    def _tag_of(self, ip: int) -> int:
        """10-bit IP hash (folded XOR, cheap in hardware)."""
        h = ip
        h ^= h >> 10
        h ^= h >> 20
        return h & self._tag_mask

    def _allocate(self, tag: int) -> int:
        # FIFO replacement: a circular pointer over the entries.
        victim = self._fifo_ptr
        self._fifo_ptr = (victim + 1) % len(self._valid)
        if self._valid[victim]:
            self._by_tag.pop(self._tags[victim], None)
        self._fifo_clock += 1
        self._valid[victim] = True
        self._tags[victim] = tag
        self._counters[victim] = 0
        self._orders[victim] = self._fifo_clock
        self._warmed[victim] = False
        self._slot_count[victim] = 0
        deltas = self._slot_delta[victim]
        covs = self._slot_cov[victim]
        statuses = self._slot_status[victim]
        for i in range(len(deltas)):
            deltas[i] = 0
            covs[i] = 0
            statuses[i] = NO_PREF
        self._by_delta[victim].clear()
        self._pf_cache[victim] = None
        self._warm_cache[victim] = None
        del self._evict_heap[victim][:]
        self._by_tag[tag] = victim
        return victim

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def record_search(self, ip: int, timely_deltas: List[int]) -> None:
        """Accumulate one history-search result for ``ip``.

        Bumps the entry's search counter, increments coverage of each
        timely delta (inserting unseen deltas when an evictable slot
        exists), and closes the learning phase when the counter overflows.
        """
        cfg = self.config
        tag = self._tag_of(ip)
        e = self._by_tag.get(tag)
        if e is None:
            e = self._allocate(tag)

        counter = self._counters[e] + 1
        self._counters[e] = counter
        # The warmup selection depends on the counter (threshold) and on
        # every slot this loop may touch: invalidate unconditionally.
        self._warm_cache[e] = None
        if timely_deltas:
            coverage_cap = self._coverage_cap
            by_delta = self._by_delta[e]
            deltas = self._slot_delta[e]
            covs = self._slot_cov[e]
            statuses = self._slot_status[e]
            per_entry = cfg.deltas_per_entry
            heap = self._evict_heap[e]
            count = self._slot_count[e]
            for delta in timely_deltas:
                s = by_delta.get(delta)
                if s is not None:
                    c = covs[s]
                    if c < coverage_cap:
                        covs[s] = c + 1
                        st = statuses[s]
                        if st == NO_PREF or st == L2_PREF_REPL:
                            # Keep the heap's view of this candidate
                            # current; the (c, s) pair goes stale.
                            heappush(heap, (c + 1, s))
                    continue
                if count < per_entry:
                    # First empty slot in slot order == the dense tail.
                    s = count
                    count += 1
                    self._slot_count[e] = count
                else:
                    # Lowest-coverage slot whose status allows
                    # replacement; ties keep the first occurrence — the
                    # reference's min() semantics, i.e. the lexicographic
                    # minimum over (coverage, slot), i.e. the heap order.
                    # Pairs that no longer match the live columns are
                    # stale leftovers: discard and keep popping.
                    s = -1
                    while heap:
                        c, i = heappop(heap)
                        st = statuses[i]
                        if covs[i] == c and (
                            st == NO_PREF or st == L2_PREF_REPL
                        ):
                            s = i
                            break
                    if s < 0:
                        self.discarded_deltas += 1
                        continue
                    del by_delta[deltas[s]]
                    if statuses[s] != NO_PREF:
                        # Evicting a prefetching (L2_PREF_REPL) slot
                        # changes the selected set for warmed-up entries.
                        self._pf_cache[e] = None
                deltas[s] = delta
                covs[s] = 1
                statuses[s] = NO_PREF
                by_delta[delta] = s
                heappush(heap, (1, s))

        if counter >= cfg.counter_max:
            self._close_phase(e)

    def _close_phase(self, e: int) -> None:
        """Counter overflowed: assign statuses, reset for the next phase."""
        cfg = self.config
        self.phase_completions += 1
        high = cfg.high_watermark * cfg.counter_max
        medium = cfg.medium_watermark * cfg.counter_max
        repl = cfg.repl_watermark * cfg.counter_max

        count = self._slot_count[e]
        covs = self._slot_cov[e]
        statuses = self._slot_status[e]
        promoted = 0
        max_prefetch = cfg.max_prefetch_deltas
        # Consider highest-coverage deltas first so the 12-delta bound
        # keeps the best ones (stable: equal coverages keep slot order).
        for i in sorted(range(count), key=covs.__getitem__, reverse=True):
            coverage = covs[i]
            if coverage > high and promoted < max_prefetch:
                statuses[i] = L1D_PREF
                promoted += 1
            elif coverage > medium and promoted < max_prefetch:
                statuses[i] = L2_PREF_REPL if coverage < repl else L2_PREF
                promoted += 1
            else:
                statuses[i] = NO_PREF
            covs[i] = 0
        self._counters[e] = 0
        self._warmed[e] = True
        self._pf_cache[e] = None   # statuses changed: recompute lazily
        self._warm_cache[e] = None
        # Rebuild the victim heap: statuses changed and every coverage is
        # back to zero.  Ascending slot index with equal coverages is
        # already heap-ordered, so no heapify is needed.
        heap = self._evict_heap[e]
        del heap[:]
        for i in range(count):
            st = statuses[i]
            if st == NO_PREF or st == L2_PREF_REPL:
                heap.append((0, i))

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def prefetch_deltas(self, ip: int) -> List[Tuple[int, int]]:
        """Deltas to prefetch for ``ip`` as ``(delta, status)`` pairs.

        After the first completed phase this returns the stored statuses.
        During warmup (no phase completed yet) it applies the stricter
        80 % watermark once ``warmup_min_searches`` searches have been
        gathered, returning those deltas as ``L1D_PREF``.

        This runs on every L1D access; both branches return a memoised
        list (callers must not mutate it).
        """
        e = self._by_tag.get(self._tag_of(ip))
        if e is None:
            return []
        cfg = self.config
        if self._warmed[e]:
            selected = self._pf_cache[e]
            if selected is None:
                count = self._slot_count[e]
                deltas = self._slot_delta[e]
                statuses = self._slot_status[e]
                selected = [
                    (deltas[i], statuses[i])
                    for i in range(count)
                    if statuses[i] != NO_PREF
                ]
                # High-coverage deltas first: under PQ pressure the queue
                # sheds the low-coverage tail, not the best predictions.
                selected.sort(key=lambda ds: ds[1] != L1D_PREF)
                selected = selected[: cfg.max_prefetch_deltas]
                self._pf_cache[e] = selected
            return selected
        counter = self._counters[e]
        if counter < cfg.warmup_min_searches:
            return []
        selected = self._warm_cache[e]
        if selected is None:
            threshold = cfg.warmup_watermark * counter
            count = self._slot_count[e]
            deltas = self._slot_delta[e]
            covs = self._slot_cov[e]
            selected = [
                (deltas[i], L1D_PREF)
                for i in range(count)
                if covs[i] >= threshold
            ][: cfg.max_prefetch_deltas]
            self._warm_cache[e] = selected
        return selected

    def entry_snapshot(self, ip: int) -> List[Tuple[int, int, int]]:
        """(delta, coverage, status) triples for inspection/tests."""
        e = self._by_tag.get(self._tag_of(ip))
        if e is None:
            return []
        count = self._slot_count[e]
        deltas = self._slot_delta[e]
        covs = self._slot_cov[e]
        statuses = self._slot_status[e]
        return [(deltas[i], covs[i], statuses[i]) for i in range(count)]

    def reset(self) -> None:
        cfg = self.config
        entries = cfg.delta_table_entries
        per_entry = cfg.deltas_per_entry
        # Entry-level columns.
        self._valid = [False] * entries
        self._tags = [0] * entries
        self._counters = [0] * entries
        self._orders = [0] * entries
        self._warmed = [False] * entries
        # Slot-level columns: per-entry parallel lists, preallocated.
        # Valid slots are the dense prefix [0, _slot_count).
        self._slot_count = [0] * entries
        self._slot_delta = [[0] * per_entry for _ in range(entries)]
        self._slot_cov = [[0] * per_entry for _ in range(entries)]
        self._slot_status = [[NO_PREF] * per_entry for _ in range(entries)]
        # Lazy victim heaps: (coverage, slot) pairs for every slot whose
        # status allows replacement.  May hold stale pairs; pops validate
        # against the live columns.  Invariant: the *current* pair of
        # every replacement-candidate slot is present.
        self._evict_heap = [[] for _ in range(entries)]
        self._fifo_clock = 0
        self._fifo_ptr = 0
        self.phase_completions = 0
        self.discarded_deltas = 0
        self.reindex()

    def reindex(self) -> None:
        """Rebuild the derived per-entry state from the columns: the
        ``_by_tag`` (tag -> entry) and ``_by_delta`` (delta -> slot)
        indexes, and the empty prediction memos ``_pf_cache`` and
        ``_warm_cache`` (recomputed on demand)."""
        self._by_tag = {
            tag: e for e, (valid, tag) in enumerate(zip(self._valid, self._tags))
            if valid
        }
        self._by_delta = [
            {deltas[i]: i for i in range(count)}
            for deltas, count in zip(self._slot_delta, self._slot_count)
        ]
        self._pf_cache = [None] * len(self._valid)
        self._warm_cache = [None] * len(self._valid)

    def __getstate__(self):
        # The lookup indexes and the memos are derived from the columns:
        # rebuilt, not pickled.
        state = self.__dict__.copy()
        for derived in ("_by_tag", "_by_delta", "_pf_cache", "_warm_cache"):
            del state[derived]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.reindex()
