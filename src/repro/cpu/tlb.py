"""TLB models: L1 dTLB and the shared second-level TLB (STLB).

Table II: L1 dTLB — 64 entries, 4-way, 1 cycle; STLB — 2048 entries,
16-way, 8 cycles.  The Berti prediction path uses the STLB to translate
virtual prefetch addresses; a prefetch whose page misses the STLB is
dropped (paper §III-B), which is the mechanism that bounds the cost of
cross-page prefetching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


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
        # Per set: list of (vpage, ppage) most-recent-last (LRU order).
        self._sets: List[List[tuple]] = [[] for _ in range(self.num_sets)]
        # Flat index for O(1) probes; mirrors the per-set contents.
        self._map: dict = {}
        self.stats = TLBStats()

    def _set_of(self, vpage: int) -> int:
        return vpage % self.num_sets

    def lookup(self, vpage: int) -> Optional[int]:
        """Translate ``vpage``; returns the physical page or None on miss."""
        self.stats.accesses += 1
        if vpage not in self._map:
            return None
        entries = self._sets[self._set_of(vpage)]
        for i, (vp, pp) in enumerate(entries):
            if vp == vpage:
                entries.append(entries.pop(i))  # move to MRU
                self.stats.hits += 1
                return pp
        return None  # unreachable if _map is consistent

    def probe(self, vpage: int) -> Optional[int]:
        """Translation check without LRU update or hit/miss accounting.

        Used for prefetch translations: the paper drops prefetches on STLB
        misses rather than walking, and prefetch probes must not perturb
        demand-driven TLB statistics.
        """
        self.stats.prefetch_probes += 1
        pp = self._map.get(vpage)
        if pp is not None:
            self.stats.prefetch_probe_hits += 1
        return pp

    def insert(self, vpage: int, ppage: int) -> None:
        """Install a translation, evicting LRU if the set is full."""
        entries = self._sets[self._set_of(vpage)]
        for i, (vp, _) in enumerate(entries):
            if vp == vpage:
                entries.pop(i)
                break
        entries.append((vpage, ppage))
        self._map[vpage] = ppage
        if len(entries) > self.ways:
            evicted_vp, __ = entries.pop(0)
            del self._map[evicted_vp]

    def reset(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]
        self._map.clear()
        self.stats.reset()

    def __getstate__(self):
        # _map mirrors _sets for O(1) probes; LRU order lives in _sets.
        # Canonicalise the index's dict order so snapshots taken under
        # the native backend (which rebuilds it in scan order) are
        # byte-identical to classic ones.
        state = self.__dict__.copy()
        state["_map"] = dict(sorted(self._map.items()))
        return state
