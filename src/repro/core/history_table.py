"""Berti's history table (paper §III-C, Figures 5 and 6) — kernelized.

An 8-set, 16-way cache with FIFO replacement, indexed and tagged by the
IP.  Each entry records the 24 least-significant bits of the accessed
cache-line address and a 16-bit timestamp.  Entries are inserted on
demand misses and on first demand hits to prefetched lines; searches run
on demand-miss fills and on those prefetch hits, returning the *timely*
local deltas — differences to earlier accesses by the same IP that
happened early enough that a prefetch launched then would have arrived in
time.

Timestamps and line addresses are stored in their hardware widths, so
both wrap; comparisons are wraparound-aware like real hardware would be.

Storage is **columnar**: four flat preallocated ``array('q')`` columns
(tag / line / timestamp / insertion order) indexed ``set * ways + way``,
mirroring PR 2's columnar trace layout, instead of a tuple object per
way.  Each set additionally keeps an *IP-tag skip chain* — a dict from
tag to the deque of ``(line, timestamp)`` pairs held by that tag's ways,
in insertion order.  A skip chain is a skip mask (which ways can match)
augmented with the ring order, so the backward search iterates exactly
the matching entries youngest-first — no ring walk, no per-way tag
compare — and returns immediately for tags with no occupied way.  This
matters because the hot traces concentrate accesses in few IPs: a set's
16 ways are typically all owned by one tag, making a mask-guided ring
walk no cheaper than a full scan.  The search allocates nothing beyond
its (bounded, at most 8-element) result list; callers on the kernel
fill path can pass a reusable list to
:meth:`HistoryTable.search_timely_into` to avoid even that.

The original tuple-row implementation is preserved as
:class:`~repro.core.reference_tables.ReferenceHistoryTable` and drives
the differential lockstep oracle; both produce bit-identical results.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.core.config import BertiConfig


class HistoryTable:
    """IP-indexed access history with timely-delta search (flat rings)."""

    def __init__(self, config: BertiConfig | None = None) -> None:
        self.config = config or BertiConfig()
        cfg = self.config
        self._ts_mask = (1 << cfg.timestamp_bits) - 1
        self._line_mask = (1 << cfg.history_line_bits) - 1
        self._tag_mask = (1 << cfg.history_ip_tag_bits) - 1
        self.reset()

    # ------------------------------------------------------------------

    def _set_index(self, ip: int) -> int:
        # XOR-fold the IP before indexing: x86 instruction addresses have
        # strongly biased low bits, so raw modulo would pile every IP of
        # an aligned code region into one set.
        folded = ip ^ (ip >> 3) ^ (ip >> 7)
        return folded % self.config.history_sets

    def _ip_tag(self, ip: int) -> int:
        return (ip // self.config.history_sets) & self._tag_mask

    def _ts_age(self, now_ts: int, then_ts: int) -> int:
        """Wraparound-aware ``now - then`` over the timestamp width."""
        return (now_ts - then_ts) & self._ts_mask

    # ------------------------------------------------------------------

    def insert(self, ip: int, line: int, now: int) -> None:
        """Record an access (demand miss or first hit on a prefetch)."""
        self.inserts += 1
        cfg = self.config
        sets = cfg.history_sets
        ways = cfg.history_ways
        folded = ip ^ (ip >> 3) ^ (ip >> 7)
        sidx = folded % sets
        # FIFO replacement: a circular pointer over the ways.
        ptr = self._fifo_ptr[sidx]
        self._fifo_ptr[sidx] = (ptr + 1) % ways
        clock = self._fifo_clock[sidx] + 1
        self._fifo_clock[sidx] = clock
        idx = sidx * ways + ptr
        chains = self._chains[sidx]
        old_tag = self._tags[idx]
        if old_tag >= 0:
            dq = chains[old_tag]
            # The replaced way is the set's oldest entry (FIFO), so it
            # is necessarily its tag's oldest chain element.
            dq.popleft()
            if not dq:
                del chains[old_tag]
        tag = (ip // sets) & self._tag_mask
        line_m = line & self._line_mask
        ts = now & self._ts_mask
        self._tags[idx] = tag
        self._lines[idx] = line_m
        self._tss[idx] = ts
        self._orders[idx] = clock
        dq = chains.get(tag)
        if dq is None:
            chains[tag] = dq = deque()
        dq.append((line_m, ts))

    def search_timely(
        self, ip: int, line: int, demand_time: int, latency: int
    ) -> List[int]:
        """Timely local deltas for an access to ``line`` by ``ip``.

        ``demand_time`` is when the core demanded the line and ``latency``
        the measured fetch latency; an earlier access qualifies when it
        happened at or before ``demand_time - latency`` (a prefetch issued
        then would have arrived in time).  Returns at most
        ``max_deltas_per_search`` deltas, youngest qualifying entries
        first, each fitting the 13-bit delta field and non-zero.
        """
        out: List[int] = []
        self.search_timely_into(ip, line, demand_time, latency, out)
        return out

    def search_timely_into(
        self, ip: int, line: int, demand_time: int, latency: int,
        out: List[int],
    ) -> List[int]:
        """Allocation-free variant: appends the deltas to ``out``.

        ``out`` must be empty on entry; the kernel fill path clears and
        reuses one scratch list across searches.
        """
        self.searches += 1
        cfg = self.config
        sets = cfg.history_sets
        folded = ip ^ (ip >> 3) ^ (ip >> 7)
        # Skip chain: exactly the entries inserted by this tag, oldest
        # first.  No occupied way with the tag means the backward walk
        # would filter everything — return without touching the ring.
        dq = self._chains[folded % sets].get(
            (ip // sets) & self._tag_mask
        )
        if not dq:
            return out

        ts_mask = self._ts_mask
        now_ts = demand_time & ts_mask
        line_mask = self._line_mask
        line_masked = line & line_mask
        half_range = 1 << (cfg.timestamp_bits - 1)
        line_bits = cfg.history_line_bits
        sign_bit = 1 << (line_bits - 1)
        delta_lo = -(1 << (cfg.delta_bits - 1))
        delta_hi = (1 << (cfg.delta_bits - 1)) - 1
        max_deltas = cfg.max_deltas_per_search

        # FIFO insertion makes the ring order the age order, and a chain
        # records its tag's entries in exactly that order — so iterating
        # the chain reversed visits this tag's entries youngest-first,
        # matching the reference's backward ring walk over the matching
        # ways (ways older than an empty way are all empty, so no empty
        # way is ever chained, and the visit order and outcome are
        # identical).
        found = 0
        for line_then, ts_then in reversed(dq):
            age = (now_ts - ts_then) & ts_mask
            # Ages beyond half the timestamp range are ambiguous under
            # wraparound; hardware treats them as stale.  Ages below the
            # latency are too recent: a prefetch would have been late.
            if age >= half_range or age < latency:
                continue
            delta = (line_masked - line_then) & line_mask
            if delta & sign_bit:
                delta -= 1 << line_bits
            if delta != 0 and delta_lo <= delta <= delta_hi:
                out.append(delta)
                found += 1
                if found >= max_deltas:
                    break
        return out

    def occupancy(self) -> int:
        return sum(t >= 0 for t in self._tags)

    def reset(self) -> None:
        cfg = self.config
        sets = cfg.history_sets
        n = sets * cfg.history_ways
        # Flat columnar rings: index = set * ways + way.  tag == -1 marks
        # an empty way (real tags fit history_ip_tag_bits >= 0).
        self._tags = array("q", [-1]) * n
        self._lines = array("q", [0]) * n
        self._tss = array("q", [0]) * n
        self._orders = array("q", [0]) * n
        self._fifo_clock = array("q", [0]) * sets
        self._fifo_ptr = array("q", [0]) * sets  # next way to replace
        self.inserts = 0
        self.searches = 0
        self.reindex()

    def reindex(self) -> None:
        """Rebuild the per-set skip chains (tag -> deque of its ways'
        ``(line, ts)``, oldest first) by walking each ring forward from
        its FIFO pointer.  :meth:`insert` keeps them current: the way it
        replaces is the set's oldest, hence its tag's oldest element."""
        ways = self.config.history_ways
        tags, lines, tss = self._tags, self._lines, self._tss
        chains: List[Dict[int, Deque[Tuple[int, int]]]] = []
        for sidx, ptr in enumerate(self._fifo_ptr):
            chain: Dict[int, Deque[Tuple[int, int]]] = {}
            base = sidx * ways
            for j in range(ways):
                w = base + (ptr + j) % ways
                t = tags[w]
                if t < 0:
                    continue
                dq = chain.get(t)
                if dq is None:
                    chain[t] = dq = deque()
                dq.append((lines[w], tss[w]))
            chains.append(chain)
        self._chains = chains

    def __getstate__(self):
        # The skip chains are derived from the rings: rebuilt, not
        # pickled.
        state = self.__dict__.copy()
        del state["_chains"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.reindex()
