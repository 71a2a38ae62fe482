"""Set-associative cache model with prefetch metadata.

The cache state is a fixed set of per-way columns (``array('q')``, one
entry per *slot* ``set * ways + way``), allocated at build time — the
layout of the hardware's tag and metadata arrays, and the very buffers
the native kernel (:mod:`repro.native`) reads and writes by pointer.
Besides ``tags``/``valid``/``dirty`` each way carries the metadata
Berti's hardware extension needs (paper Figure 5, gray parts):

* ``arrival`` — cycle at which the fill data actually arrives.  A
  demand that touches the line earlier observes a *late* prefetch and
  stalls for the residual latency.
* ``pref`` — line was brought in by a prefetch and has not yet been
  demanded.  Cleared on the first demand hit (which is the moment Berti
  trains, because that hit is a miss that *would have occurred* in the
  baseline).
* ``pf_lat`` — the 12-bit fetch-latency field per L1D line.  Zero
  means "overflowed or already consumed"; Berti skips training then.
* ``ips``/``vlines`` — the filling access's IP and virtual line, and
  ``origin`` — which prefetcher issued the fill (:data:`ORIGIN_NONE`,
  :data:`ORIGIN_L1D`, :data:`ORIGIN_L2`).

``_where`` (line → slot) and ``_valid_count`` (valid ways per set) are
derived from the columns: the cache maintains them incrementally, and
:meth:`Cache.reindex` rebuilds both after unpickling.  A native span
writes the columns behind the cache's back, so afterwards the marshal
drops both (:meth:`Cache.drop_index`, O(1)) rather than rebuilding
them, and whichever reader comes next rebuilds them: every method of
this class that reads the index, and :meth:`Cache.index` for readers
outside it.  The hierarchy's prefetch presence filter reads ``_where``
directly; the native runner restores the index before it hands a span
to it.
A dropped index is ``None``, so a stale read fails loudly.

The cache is timing-agnostic: the hierarchy decides latencies, the cache
just tracks contents and replacement state.

This module is on the simulation hot path: set indexing is a mask (set
counts are enforced powers of two), and lookup/fill bind their per-call
state to locals.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.memory.replacement import (
    DRRIPPolicy,
    LRUPolicy,
    ReplacementPolicy,
    SRRIPPolicy,
    make_policy,
)

#: ``origin`` column codes: which prefetcher issued a prefetch fill.
ORIGIN_NONE = 0
ORIGIN_L1D = 1
ORIGIN_L2 = 2
#: Code → ``Hierarchy.pf_stats`` key (``""`` for no prefetcher).
ORIGIN_NAMES = ("", "l1d", "l2")


@dataclass(slots=True)
class CacheLine:
    """A copy of one way's columns (what :meth:`Cache.peek` returns)."""

    tag: int = -1
    valid: bool = False
    dirty: bool = False
    prefetched: bool = False
    arrival_cycle: int = 0
    pf_latency: int = 0
    ip: int = 0          # IP of the access that triggered the fill
    vline: int = -1      # virtual line address (for L1D prefetcher training)
    pf_origin: int = ORIGIN_NONE


@dataclass(slots=True)
class CacheStats:
    """Per-cache event counters, split demand vs. prefetch."""

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    prefetch_fills: int = 0
    demand_fills: int = 0
    useful_prefetches: int = 0      # prefetched lines demanded at least once
    late_prefetches: int = 0        # demanded before the data arrived
    useless_prefetches: int = 0     # prefetched lines evicted unused
    writebacks: int = 0

    def reset(self) -> None:
        self.demand_accesses = 0
        self.demand_hits = 0
        self.demand_misses = 0
        self.prefetch_fills = 0
        self.demand_fills = 0
        self.useful_prefetches = 0
        self.late_prefetches = 0
        self.useless_prefetches = 0
        self.writebacks = 0


class Cache:
    """A set-associative, write-back, write-allocate cache.

    Parameters mirror Table II of the paper; ``latency`` is the hit latency
    in cycles, used by the hierarchy, not by the cache itself.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        latency: int,
        line_size: int = 64,
        replacement: str = "lru",
    ) -> None:
        if ways < 1:
            raise ConfigError(
                f"{name}: ways must be >= 1, got {ways}", field="ways"
            )
        if size_bytes <= 0 or size_bytes % (ways * line_size) != 0:
            raise ConfigError(
                f"{name}: size {size_bytes} not divisible by "
                f"ways*line ({ways}*{line_size})",
                field="size_bytes",
            )
        num_sets = size_bytes // (ways * line_size)
        if num_sets & (num_sets - 1):
            raise ConfigError(
                f"{name}: set count must be a power of two, got {num_sets} "
                f"(size {size_bytes}, ways {ways}, line {line_size})",
                field="size_bytes",
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.latency = latency
        self.line_size = line_size
        self.num_sets = num_sets
        self._set_mask = num_sets - 1
        # Per-way columns, every slot holding a fresh (invalid) line.
        n = num_sets * ways
        zeros = bytes(8 * n)
        self.tags = array("q", [-1]) * n
        self.valid = array("q", zeros)
        self.dirty = array("q", zeros)
        self.pref = array("q", zeros)
        self.arrival = array("q", zeros)
        self.pf_lat = array("q", zeros)
        self.ips = array("q", zeros)
        self.vlines = array("q", [-1]) * n
        self.origin = array("q", zeros)
        self.policy: ReplacementPolicy = make_policy(
            replacement, num_sets, ways
        )
        # DRRIP needs per-set miss notifications; resolve the check once.
        self._drrip: Optional[DRRIPPolicy] = (
            self.policy if isinstance(self.policy, DRRIPPolicy) else None
        )
        # Replacement-policy fast paths: lookup/fill run per access, so
        # the common policies' one-line updates are inlined there instead
        # of paying a method call.  Exact-type checks: subclasses (e.g.
        # DRRIP's dynamic insertion) keep the virtual call.
        policy = self.policy
        self._lru: Optional[LRUPolicy] = (
            policy if type(policy) is LRUPolicy else None
        )
        # SRRIP hits always reset RRPV to 0 — DRRIP inherits that — but
        # only plain SRRIP has a static insertion RRPV for fills.
        self._srrip_hit = (
            policy._rrpv if isinstance(policy, SRRIPPolicy) else None
        )
        self._srrip_fill = (
            policy._rrpv if type(policy) is SRRIPPolicy else None
        )
        self._srrip_insert = SRRIPPolicy.MAX_RRPV - 1
        self.stats = CacheStats()
        # Optional observer invoked as hook(tag, prefetched, origin) for
        # every valid victim, before its slot is reused.
        self.eviction_hook: Optional[Callable[[int, int, int], None]] = None
        self.reindex()

    def reindex(self) -> Dict[int, int]:
        """Rebuild ``_where`` and ``_valid_count`` from the columns;
        returns the new ``_where``."""
        valid = self.valid
        where = dict(zip(compress(self.tags, valid),
                         compress(range(len(valid)), valid)))
        self._where = where
        self._valid_count = (
            np.frombuffer(valid, dtype=np.int64)
            .reshape(self.num_sets, self.ways).sum(axis=1).tolist()
        )
        return where

    def drop_index(self) -> None:
        """Mark ``_where``/``_valid_count`` stale after the columns were
        written in place; the next reader rebuilds them."""
        self._where = None
        self._valid_count = None

    def index(self) -> Dict[int, int]:
        """The live presence index (line → slot), rebuilt first if it
        was dropped; ``_valid_count`` is live afterwards too.  The
        per-access methods inline this test."""
        where = self._where
        if where is None:
            where = self.reindex()
        return where

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def __getstate__(self):
        # The eviction hook is a closure over the owning hierarchy and
        # cannot be pickled; Hierarchy.__setstate__ rewires it on load.
        # The derived indexes are rebuilt, not pickled.
        state = self.__dict__.copy()
        state["eviction_hook"] = None
        del state["_where"], state["_valid_count"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.reindex()

    # ------------------------------------------------------------------
    # Lookup / fill
    # ------------------------------------------------------------------

    def probe(self, line: int) -> bool:
        """Presence check with no side effects (no replacement update)."""
        where = self._where
        if where is None:
            where = self.reindex()
        return line in where

    def peek(self, line: int) -> Optional[CacheLine]:
        """A copy of the line's metadata; no replacement update."""
        slot = self.index().get(line)
        if slot is None:
            return None
        return CacheLine(
            tag=self.tags[slot], valid=bool(self.valid[slot]),
            dirty=bool(self.dirty[slot]), prefetched=bool(self.pref[slot]),
            arrival_cycle=self.arrival[slot], pf_latency=self.pf_lat[slot],
            ip=self.ips[slot], vline=self.vlines[slot],
            pf_origin=self.origin[slot],
        )

    def lookup(self, line: int, is_demand: bool = True) -> Optional[int]:
        """Access the cache; updates replacement state and hit/miss stats.

        Returns the line's slot on a hit, ``None`` on a miss.  The caller
        is responsible for interpreting the prefetch metadata (late vs.
        timely) and clearing the prefetch bit via :meth:`demand_touch`.
        """
        where = self._where
        if where is None:
            where = self.reindex()
        slot = where.get(line)
        stats = self.stats
        if slot is None:
            if is_demand:
                stats.demand_accesses += 1
                stats.demand_misses += 1
                if self._drrip is not None:
                    self._drrip.record_miss(line & self._set_mask)
            return None
        sidx = line & self._set_mask
        if is_demand:
            stats.demand_accesses += 1
            stats.demand_hits += 1
        lru = self._lru
        if lru is not None:
            clock = lru._clock[sidx] + 1
            lru._clock[sidx] = clock
            lru._age[slot] = clock
        elif self._srrip_hit is not None:
            self._srrip_hit[slot] = 0
        else:
            self.policy.on_hit(sidx, slot - sidx * self.ways)
        return slot

    def demand_touch(self, slot: int, now: int) -> Tuple[bool, bool, int]:
        """Consume a demand hit on ``slot``.

        Returns ``(was_prefetched, was_late, residual_wait)``: whether this
        was the first demand to a prefetched line, whether that prefetch
        was late, and the extra cycles the demand must wait for the data.
        """
        residual = self.arrival[slot] - now
        if residual < 0:
            residual = 0
        was_prefetched = self.pref[slot] != 0
        was_late = was_prefetched and residual > 0
        if was_prefetched:
            stats = self.stats
            stats.useful_prefetches += 1
            if was_late:
                stats.late_prefetches += 1
            self.pref[slot] = 0
        return was_prefetched, was_late, residual

    def fill(
        self,
        line: int,
        now: int,
        arrival_cycle: int,
        is_prefetch: bool,
        ip: int = 0,
        vline: int = -1,
        pf_latency: int = 0,
        pf_origin: int = ORIGIN_NONE,
    ) -> int:
        """Install ``line``; returns the evicted line's tag if it needs
        writeback, else -1.

        If the line is already present (e.g. a prefetch raced a demand),
        the existing entry is refreshed instead of allocating a new way.
        Clean victims are reported only through :attr:`eviction_hook`.
        """
        where = self._where
        if where is None:
            where = self.reindex()
        slot = where.get(line)
        stats = self.stats
        victim = -1
        if slot is None:
            sidx = line & self._set_mask
            valid = self.valid
            tags = self.tags
            pref = self.pref
            # _pick_victim inlined: fills dominate the miss path.
            base = sidx * self.ways
            if self._valid_count[sidx] >= self.ways:
                slot = base + self.policy.victim(sidx)
            else:
                slot = valid.index(0, base, base + self.ways)
            if valid[slot]:
                old = tags[slot]
                if pref[slot]:
                    stats.useless_prefetches += 1
                if self.dirty[slot]:
                    stats.writebacks += 1
                    victim = old
                if self.eviction_hook is not None:
                    self.eviction_hook(old, pref[slot], self.origin[slot])
                del where[old]
            else:
                self._valid_count[sidx] += 1
                valid[slot] = 1
            where[line] = slot
            tags[slot] = line
            self.dirty[slot] = 0
            pref[slot] = is_prefetch
            self.arrival[slot] = arrival_cycle
            self.pf_lat[slot] = pf_latency
            self.ips[slot] = ip
            self.vlines[slot] = vline
            self.origin[slot] = pf_origin if is_prefetch else ORIGIN_NONE
            lru = self._lru
            if lru is not None:
                clock = lru._clock[sidx] + 1
                lru._clock[sidx] = clock
                lru._age[slot] = clock
            elif self._srrip_fill is not None:
                self._srrip_fill[slot] = self._srrip_insert
            else:
                self.policy.on_fill(sidx, slot - base)
        else:
            # Refresh arrival if the new copy arrives earlier.
            if arrival_cycle < self.arrival[slot]:
                self.arrival[slot] = arrival_cycle
            if not is_prefetch:
                self.pref[slot] = 0
        if is_prefetch:
            stats.prefetch_fills += 1
        else:
            stats.demand_fills += 1
        return victim

    def mark_dirty(self, line: int) -> None:
        """Flag ``line`` dirty (stores); no-op if absent."""
        where = self._where
        if where is None:
            where = self.reindex()
        slot = where.get(line)
        if slot is not None:
            self.dirty[slot] = 1

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present; returns True when it was present."""
        slot = self.index().pop(line, None)
        if slot is None:
            return False
        for column, fresh in ((self.tags, -1), (self.valid, 0),
                              (self.dirty, 0), (self.pref, 0),
                              (self.arrival, 0), (self.pf_lat, 0),
                              (self.ips, 0), (self.vlines, -1),
                              (self.origin, 0)):
            column[slot] = fresh
        self._valid_count[line & self._set_mask] -= 1
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_lines(self) -> int:
        return self.num_sets * self.ways

    def occupancy(self) -> int:
        """Number of valid lines (mostly for tests)."""
        return self.valid.count(1)

    def reset_stats(self) -> None:
        self.stats.reset()
