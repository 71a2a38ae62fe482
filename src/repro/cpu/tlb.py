"""TLB models: L1 dTLB and the shared second-level TLB (STLB).

Table II: L1 dTLB — 64 entries, 4-way, 1 cycle; STLB — 2048 entries,
16-way, 8 cycles.  The Berti prediction path uses the STLB to translate
virtual prefetch addresses; a prefetch whose page misses the STLB is
dropped (paper §III-B), which is the mechanism that bounds the cost of
cross-page prefetching.

A TLB is per-way ``array('q')`` columns ``vpages``/``ppages``, indexed
by slot ``set * ways + way`` with set ``vpage % num_sets``, plus an
:class:`~repro.memory.replacement.LRUPolicy` whose ``_age`` column is
stamped from the set's ``_clock`` on every hit and insert, as in the
L1D.  Age 0 marks an empty way, so the set's first way of minimal age
(the insert victim) is an empty way while one is left.  The native
kernel (:mod:`repro.native`) binds these columns by pointer.

``_map`` (vpage → slot) follows the contract of the cache's ``_where``:
kept current here, dropped after a native span (:meth:`TLB.drop_index`),
rebuilt by the next reader (these methods, the MMU's inlined dTLB
hit, :meth:`TLB.index`), never pickled.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Dict, Optional

from repro.memory.replacement import LRUPolicy


@dataclass(slots=True)
class TLBStats:
    accesses: int = 0
    hits: int = 0
    prefetch_probes: int = 0
    prefetch_probe_hits: int = 0

    def reset(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.prefetch_probes = 0
        self.prefetch_probe_hits = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits


class TLB:
    """Set-associative TLB mapping virtual pages to physical pages."""

    def __init__(self, name: str, entries: int, ways: int, latency: int) -> None:
        if entries % ways != 0:
            raise ValueError(f"{name}: entries {entries} not divisible by ways {ways}")
        self.name = name
        self.entries = entries
        self.ways = ways
        self.latency = latency
        self.num_sets = entries // ways
        self.stats = TLBStats()
        self.reset()

    def reindex(self) -> Dict[int, int]:
        """Rebuild ``_map`` from the columns; returns it."""
        age = self.policy._age
        self._map = tmap = dict(zip(compress(self.vpages, age),
                                    compress(range(len(age)), age)))
        return tmap

    def drop_index(self) -> None:
        """Mark ``_map`` stale after the columns were written in place."""
        self._map = None

    def index(self) -> Dict[int, int]:
        """The live index (vpage → slot), rebuilt first if dropped."""
        tmap = self._map
        if tmap is None:
            tmap = self.reindex()
        return tmap

    def lookup(self, vpage: int) -> Optional[int]:
        """Translate ``vpage``; returns the physical page or None on miss."""
        self.stats.accesses += 1
        slot = self.index().get(vpage)
        if slot is None:
            return None
        self.policy.on_hit(vpage % self.num_sets, slot % self.ways)
        self.stats.hits += 1
        return self.ppages[slot]

    def probe(self, vpage: int) -> Optional[int]:
        """Translation check without LRU update or hit/miss accounting.

        Used for prefetch translations: the paper drops prefetches on STLB
        misses rather than walking, and prefetch probes must not perturb
        demand-driven TLB statistics.
        """
        self.stats.prefetch_probes += 1
        slot = self.index().get(vpage)
        if slot is None:
            return None
        self.stats.prefetch_probe_hits += 1
        return self.ppages[slot]

    def insert(self, vpage: int, ppage: int) -> None:
        """Install a translation as the set's MRU, evicting its LRU way
        when the set is full."""
        tmap = self.index()
        policy = self.policy
        sidx = vpage % self.num_sets
        slot = tmap.get(vpage)
        if slot is None:
            slot = sidx * self.ways + policy.victim(sidx)
            if policy._age[slot]:
                del tmap[self.vpages[slot]]
            self.vpages[slot] = vpage
            tmap[vpage] = slot
        self.ppages[slot] = ppage
        policy.on_fill(sidx, slot % self.ways)

    def reset(self) -> None:
        n = self.entries
        self.vpages = array("q", [-1]) * n
        self.ppages = array("q", bytes(8 * n))
        self.policy = LRUPolicy(self.num_sets, self.ways)
        self._map: Optional[Dict[int, int]] = {}
        self.stats.reset()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_map"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.reindex()
