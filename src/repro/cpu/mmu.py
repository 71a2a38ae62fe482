"""MMU: virtual→physical mapping, TLB hierarchy, and page-walk cost.

The paper's modified ChampSim models a detailed address-translation path
(L1 dTLB → STLB → page walk accelerated by paging-structure caches,
PSCL2–PSCL5).  We model:

* a deterministic page allocator that assigns physical pages to virtual
  pages on first touch, scrambled so that virtually contiguous pages are
  *not* physically contiguous (this is why L1D prefetchers that operate on
  virtual addresses can cross pages while L2 prefetchers cannot);
* an L1 dTLB and an STLB with the Table II geometries;
* a fixed page-walk penalty standing in for the PSCL-accelerated walk.
  Table II's PSCLs hit overwhelmingly for the workloads modelled, so the
  walk cost is a constant near the PSCL2-hit path (one memory access).

Demand translations always succeed (walks fill both TLBs).  Prefetch
translations use :meth:`translate_prefetch`, which only probes the STLB
(and the dTLB) and returns ``None`` on a miss so the caller drops the
request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.memory.address import PAGE_BITS, LINE_BITS
from repro.cpu.tlb import TLB

_LINES_PER_PAGE_BITS = PAGE_BITS - LINE_BITS
_PAGE_OFFSET_MASK = (1 << _LINES_PER_PAGE_BITS) - 1


@dataclass
class MMUStats:
    walks: int = 0
    dropped_prefetch_translations: int = 0

    def reset(self) -> None:
        self.walks = 0
        self.dropped_prefetch_translations = 0


class MMU:
    """Translation machinery for one core."""

    def __init__(
        self,
        dtlb_entries: int = 64,
        dtlb_ways: int = 4,
        dtlb_latency: int = 1,
        stlb_entries: int = 2048,
        stlb_ways: int = 16,
        stlb_latency: int = 8,
        page_walk_latency: int = 60,
        asid: int = 0,
    ) -> None:
        self.dtlb = TLB("dtlb", dtlb_entries, dtlb_ways, dtlb_latency)
        self.stlb = TLB("stlb", stlb_entries, stlb_ways, stlb_latency)
        self.page_walk_latency = page_walk_latency
        self.stats = MMUStats()
        self._page_table: Dict[int, int] = {}
        self._next_ppage = 1
        # Mix in the address-space id so different cores of a multi-core
        # mix never share physical pages.
        self._asid = asid

    # ------------------------------------------------------------------

    def _physical_page(self, vpage: int) -> int:
        """First-touch allocation with a scrambling permutation."""
        ppage = self._page_table.get(vpage)
        if ppage is None:
            # Feistel-ish scramble of the allocation counter: physically
            # non-contiguous, deterministic across runs.
            n = self._next_ppage
            self._next_ppage += 1
            scrambled = (n * 2654435761) & 0xFFFFF
            ppage = (self._asid << 20) | scrambled ^ (n >> 8)
            self._page_table[vpage] = ppage
        return ppage

    def translate_demand(self, vline: int) -> Tuple[int, int]:
        """Translate a demand access.

        Returns ``(physical_line, translation_latency_cycles)``.  Fills
        the dTLB/STLB on misses and charges the walk penalty when both
        miss.
        """
        vpage = vline >> _LINES_PER_PAGE_BITS
        offset = vline & _PAGE_OFFSET_MASK

        # dTLB hit path inlined (runs once per demand access): identical
        # bookkeeping to TLB.lookup — access/hit counters and the LRU
        # stamp, written out as Cache.lookup writes out its LRU's.
        dtlb = self.dtlb
        dtlb_stats = dtlb.stats
        dtlb_stats.accesses += 1
        tmap = dtlb._map
        if tmap is None:
            tmap = dtlb.reindex()
        slot = tmap.get(vpage)
        if slot is not None:
            lru = dtlb.policy
            sidx = vpage % dtlb.num_sets
            clock = lru._clock[sidx] + 1
            lru._clock[sidx] = clock
            lru._age[slot] = clock
            dtlb_stats.hits += 1
            return ((dtlb.ppages[slot] << _LINES_PER_PAGE_BITS) | offset,
                    dtlb.latency)

        latency = self.dtlb.latency + self.stlb.latency
        ppage = self.stlb.lookup(vpage)
        if ppage is None:
            ppage = self._physical_page(vpage)
            self.stats.walks += 1
            latency += self.page_walk_latency
            self.stlb.insert(vpage, ppage)
        self.dtlb.insert(vpage, ppage)
        return (ppage << _LINES_PER_PAGE_BITS) | offset, latency

    def translate_prefetch(self, vline: int) -> Optional[int]:
        """Translate a prefetch target via the STLB, else a dTLB hit.

        Returns the physical line, or ``None`` when both miss (the
        prefetch is then dropped, per paper §III-B).  The dTLB may serve
        the translation because ChampSim's L1D prefetches consult the
        full TLB path available at L1.  Neither probe walks, updates LRU
        state or counts demand statistics.
        """
        vpage = vline >> _LINES_PER_PAGE_BITS
        ppage = self.stlb.probe(vpage)
        if ppage is None:
            ppage = self.dtlb.probe(vpage)
            if ppage is None:
                self.stats.dropped_prefetch_translations += 1
                return None
        return (ppage << _LINES_PER_PAGE_BITS) | (vline & _PAGE_OFFSET_MASK)

    def prewarm(self, vlines) -> None:
        """Install STLB translations for the pages of ``vlines``.

        Emulates the steady state after the paper's 50 M-instruction
        warmup: for workloads whose footprint fits the STLB reach
        (2048 × 4 KB = 8 MB), every page is already mapped long before
        measurement starts.  Larger footprints still overflow the STLB
        via its normal LRU replacement.  Pages are installed once each,
        in first-touch order.
        """
        pages = np.asarray(vlines, dtype=np.int64) >> _LINES_PER_PAGE_BITS
        _, first = np.unique(pages, return_index=True)
        for vpage in pages[np.sort(first)].tolist():
            self.stlb.insert(vpage, self._physical_page(vpage))

    def reset_stats(self) -> None:
        self.stats.reset()
        self.dtlb.stats.reset()
        self.stlb.stats.reset()
