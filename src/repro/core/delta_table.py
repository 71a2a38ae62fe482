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

Kernel layout.  The table is nine flat ``array('q')`` columns (no
per-slot objects), the very buffers the native kernel binds by pointer:
``_valid``, ``_tags``, ``_counters``, ``_orders``, ``_warmed`` and
``_slot_count`` per entry, and ``_slot_delta``, ``_slot_cov`` and
``_slot_status`` over ``entries * deltas_per_entry`` slots, slot ``s``
of entry ``e`` at flat index ``e * deltas_per_entry + s``.  Coverage is
maintained *incrementally* in those columns, and every read-side product
is an index derived from them, rebuilt by :meth:`reindex` and never
pickled —

* ``_by_tag`` and ``_by_delta`` map a tag to its entry and a delta to
  its slot's flat index,
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
  the entry's heap is rebuilt at phase close, the only time statuses
  change.  This matters because irregular traces (graph kernels) present
  mostly *unseen* deltas: nearly every timely delta needs a victim, and
  the reference rescans all 16 slots each time.  The heap's pop is the
  lowest ``(coverage, slot)`` among the live candidates whatever stale
  pairs it holds, so the native kernel, which has no heap, scans the
  entry's slots for that same victim,

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

from array import array
from heapq import heapify, heappop, heappush
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
        self._valid[victim] = 1
        self._tags[victim] = tag
        self._counters[victim] = 0
        self._orders[victim] = self._fifo_clock
        self._warmed[victim] = 0
        self._slot_count[victim] = 0
        per_entry = self.config.deltas_per_entry
        base = victim * per_entry
        end = base + per_entry
        blank = array("q", [0]) * per_entry  # delta 0, coverage 0, NO_PREF
        self._slot_delta[base:end] = blank
        self._slot_cov[base:end] = blank
        self._slot_status[base:end] = blank
        self._by_delta[victim].clear()
        self._pf_cache[victim] = None
        self._warm_cache[victim] = None
        self._evict_heap[victim] = []
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
            deltas = self._slot_delta
            covs = self._slot_cov
            statuses = self._slot_status
            per_entry = cfg.deltas_per_entry
            base = e * per_entry
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
                    s = base + count
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
                    if st != NO_PREF:
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

        base = e * cfg.deltas_per_entry
        covs = self._slot_cov
        statuses = self._slot_status
        promoted = 0
        max_prefetch = cfg.max_prefetch_deltas
        # Consider highest-coverage deltas first so the 12-delta bound
        # keeps the best ones (stable: equal coverages keep slot order).
        for i in sorted(range(base, base + self._slot_count[e]),
                        key=covs.__getitem__, reverse=True):
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
        self._warmed[e] = 1
        self._pf_cache[e] = None   # statuses changed: recompute lazily
        self._warm_cache[e] = None
        # Statuses changed and every coverage is back to zero.
        self._evict_heap[e] = self._victim_heap(e)

    def _victim_heap(self, e: int) -> List[Tuple[int, int]]:
        """Entry ``e``'s victim heap built from the columns: the
        ``(coverage, slot)`` pair of every slot whose status allows
        replacement."""
        base = e * self.config.deltas_per_entry
        covs = self._slot_cov
        statuses = self._slot_status
        heap = [
            (covs[s], s) for s in range(base, base + self._slot_count[e])
            if statuses[s] == NO_PREF or statuses[s] == L2_PREF_REPL
        ]
        heapify(heap)
        return heap

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
        # Only a warmed-up entry memoises its selection here.
        selected = self._pf_cache[e]
        if selected is not None:
            return selected
        cfg = self.config
        if self._warmed[e]:
            base = e * cfg.deltas_per_entry
            deltas = self._slot_delta
            statuses = self._slot_status
            selected = [
                (deltas[i], statuses[i])
                for i in range(base, base + self._slot_count[e])
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
            base = e * cfg.deltas_per_entry
            deltas = self._slot_delta
            covs = self._slot_cov
            selected = [
                (deltas[i], L1D_PREF)
                for i in range(base, base + self._slot_count[e])
                if covs[i] >= threshold
            ][: cfg.max_prefetch_deltas]
            self._warm_cache[e] = selected
        return selected

    def entry_snapshot(self, ip: int) -> List[Tuple[int, int, int]]:
        """(delta, coverage, status) triples for inspection/tests."""
        e = self._by_tag.get(self._tag_of(ip))
        if e is None:
            return []
        base = e * self.config.deltas_per_entry
        end = base + self._slot_count[e]
        return list(zip(self._slot_delta[base:end], self._slot_cov[base:end],
                        self._slot_status[base:end]))

    def reset(self) -> None:
        cfg = self.config
        entries = cfg.delta_table_entries
        slots = entries * cfg.deltas_per_entry
        # Entry-level columns.
        self._valid = array("q", [0]) * entries
        self._tags = array("q", [0]) * entries
        self._counters = array("q", [0]) * entries
        self._orders = array("q", [0]) * entries
        self._warmed = array("q", [0]) * entries
        # Slot-level columns, flat: slot s of entry e at e * per + s.
        # Valid slots are each entry's dense prefix [0, _slot_count).
        self._slot_count = array("q", [0]) * entries
        self._slot_delta = array("q", [0]) * slots
        self._slot_cov = array("q", [0]) * slots
        self._slot_status = array("q", [NO_PREF]) * slots
        self._fifo_clock = 0
        self._fifo_ptr = 0
        self.phase_completions = 0
        self.discarded_deltas = 0
        self.reindex()

    def reindex(self) -> None:
        """Rebuild the derived per-entry state from the columns: the
        ``_by_tag`` (tag -> entry) and ``_by_delta`` (delta -> flat slot
        index) indexes, the victim heaps, and the empty prediction memos
        ``_pf_cache`` and ``_warm_cache`` (recomputed on demand).

        Invariant of the lazy victim heaps: they may hold stale pairs
        (pops validate against the live columns), but the *current*
        pair of every replacement-candidate slot is present."""
        entries = len(self._valid)
        per_entry = self.config.deltas_per_entry
        deltas = self._slot_delta
        self._by_tag = {
            tag: e for e, (valid, tag) in enumerate(zip(self._valid, self._tags))
            if valid
        }
        self._by_delta = [
            {deltas[s]: s for s in range(base, base + count)}
            for base, count in zip(range(0, entries * per_entry, per_entry),
                                   self._slot_count)
        ]
        self._evict_heap = [self._victim_heap(e) for e in range(entries)]
        self._pf_cache = [None] * entries
        self._warm_cache = [None] * entries

    def __getstate__(self):
        # The lookup indexes, the victim heaps and the memos are derived
        # from the columns: rebuilt, not pickled.
        state = self.__dict__.copy()
        for derived in ("_by_tag", "_by_delta", "_evict_heap", "_pf_cache",
                        "_warm_cache"):
            del state[derived]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.reindex()
