"""State marshalling between the Python simulator objects and the C kernel.

The native backend runs one *span* at a time: :class:`NativeState`
binds or exports the mutable simulation state as flat ``int64``/
``double`` buffers, the C kernel executes the span over those buffers,
and whatever was copied is imported back into the very same Python
objects before the span runner returns.  The hierarchy's state is
therefore current at every span boundary — snapshots, warmup resets,
lockstep digests and engine switches (demotion) all operate on ordinary
hierarchy objects and never need to know a C kernel ran the span.  The
derived indexes are the exception, each kept O(what changed) per span:
the caches', TLBs' and IPCP region monitor's indexes are dropped and
rebuilt by their next reader, the Berti tables rebuild theirs at the
import (the history table only when the span inserted), and the
kernel's page-table hash persists from span to span.

Layout contract
---------------

``REGISTERS`` (int64 scalars), ``FREGS`` (double scalars) and ``BUFS``
(buffer pointers) are the *single* authoritative layout definition:
:mod:`repro.native.build` generates a C header mapping each name to its
index (``R_<NAME>``, ``FR_<NAME>``, ``B_<NAME>``), so Python and C can
never disagree on an offset — adding a field here re-keys the kernel
hash and forces a rebuild.  ``PF_KINDS`` names the values of the
``PF_KIND`` register (``PF_<NAME>`` in the header): which L1D
prefetcher the kernel runs.

Four marshalling classes of state:

* **zero-copy** — the trace columns, the per-way columns of the caches
  and TLBs with their replacement columns
  (:class:`~repro.memory.cache.Cache`, :class:`~repro.cpu.tlb.TLB` and
  their policies keep their state in exactly the kernel's layout), the
  Berti history-table rings and the nine delta-table columns, and
  IPCP's IP-table, CSPT, region-monitor and scalar columns
  (``array('q')`` columns) are passed by pointer and mutated in place;
  after each span every cache and TLB and the IPCP region monitor drop
  their derived index (``drop_index()``) and the next reader rebuilds
  it, and both Berti tables rebuild theirs through ``reindex()`` — the
  delta table's lazy victim heaps among them, which the kernel does
  without: it scans an entry's slots for the victim the heap would
  pop;
* **persistent** — the page-table hash (``HASH_K``/``HASH_V``) lives
  in buffers owned here.  The kernel inserts every page it walks and
  logs the walk; the import replays the log into ``MMU._page_table``.
  The hash is rebuilt from the table only when the table grew outside
  the kernel (a demoted span) or the span could fill it past half;
* **span-delta counters** — the pure counters the classic
  :class:`~repro.memory.hierarchy.Hierarchy` methods bump accumulate in
  registers zeroed at span start and added back on success only (a
  crashed span discards them; a crashed run's statistics are discarded
  anyway);
* **absolute counters and structures** — everything else round-trips
  by value: exported at span start, imported unconditionally at span
  end (even on error: like the classic loop, the kernel mutates
  structures in place before it fails).  The structures are the MSHR
  entries, the DRAM banks and write queue, the core window and the PQ.

No index derived from a column is pickled, so snapshot bytes do not
depend on the order in which either engine built it.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Tuple

from repro.cpu.core_model import CoreModel
from repro.errors import SimulationError
from repro.memory.hierarchy import LATENCY_FIELD_BITS, Hierarchy
from repro.memory.mshr import MSHREntry
from repro.memory.replacement import DRRIPPolicy, LRUPolicy
from repro.prefetchers.ipcp import REGION_ROWS, IPCPPrefetcher

import numpy as np

__all__ = ["REGISTERS", "FREGS", "BUFS", "PF_KINDS", "NativeState",
           "layout_digest"]

#: Values of the PF_KIND register: the L1D prefetcher the kernel runs.
PF_KINDS = ("NONE", "BERTI", "IPCP")
PF_NONE, PF_BERTI, PF_IPCP = range(len(PF_KINDS))

# Replacement-policy kinds understood by the kernel.
POL_LRU = 0
POL_SRRIP = 1
POL_DRRIP = 2

_CACHE_PREFIXES = ("L1", "L2", "LL")
_MSHR_PREFIXES = ("M1", "M2")
_TLB_PREFIXES = ("DT", "ST")


def _cache_regs(p: str) -> Tuple[str, ...]:
    return (
        f"{p}_SETS", f"{p}_WAYS", f"{p}_LAT", f"{p}_POL", f"{p}_PSEL",
        f"{p}_PF_FILLS", f"{p}_DEM_FILLS", f"{p}_USELESS", f"{p}_WB",
    )


def _mshr_regs(p: str) -> Tuple[str, ...]:
    return (
        f"{p}_SIZE", f"{p}_COUNT", f"{p}_MINREADY", f"{p}_LASTEXP",
        f"{p}_ALLOCS", f"{p}_FULLREJ",
    )


def _tlb_regs(p: str) -> Tuple[str, ...]:
    return (f"{p}_NSETS", f"{p}_WAYS")


#: Span-delta counters: the demand path's pure counters, flushed
#: additively in this order.  Zeroed at span start; added on success
#: only.
DELTA_REGS = (
    "D_DT_ACC", "D_DT_HIT",
    "D_L1_ACC", "D_L1_HIT", "D_L1_MISS", "D_L1_USEFUL", "D_L1_LATE",
    "D_L2_ACC", "D_L2_HIT", "D_L2_MISS", "D_L2_USEFUL",
    "D_LLC_ACC", "D_LLC_HIT", "D_LLC_MISS", "D_LLC_USEFUL",
    "D_H_LLC_ACC", "D_H_LLC_MISS", "D_H_DRAM",
    "D_T12_DEM", "D_T12_PF", "D_T2L_DEM", "D_T2L_PF",
    "D_TLD_DEM", "D_TLD_PF",
    "D_PF_SUGG", "D_PF_ISSUED", "D_PF_FILLS",
    "D_PF_USEFUL", "D_PF_LATE", "D_PF_PROMOTED",
    "D_PF_DTRANS", "D_PF_DDUP", "D_PF_DQ", "D_PF_DM",
    "D_PF2_USEFUL", "D_PF2_LATE", "D_PF2_PROMOTED",
    "D_STLB_PROBES", "D_STLB_HITS",
    "D_M1_MERGES", "D_M2_MERGES",
    "D_CROSS",
)

REGISTERS: Tuple[str, ...] = (
    # Span arguments and error channel.
    "LO", "HI", "PF_KIND",
    "ERR", "ERR_A", "ERR_B", "ERR_C", "ERR_D",
    # Caches.
    *(_cache_regs(p)[i] for p in _CACHE_PREFIXES
      for i in range(len(_cache_regs(p)))),
    # MSHRs.
    *(_mshr_regs(p)[i] for p in _MSHR_PREFIXES
      for i in range(len(_mshr_regs(p)))),
    # TLBs + translation.
    *(_tlb_regs(p)[i] for p in _TLB_PREFIXES
      for i in range(len(_tlb_regs(p)))),
    "DT_LAT", "MISS_TRANS_LAT", "WALK_LAT",
    "DT_PPROBES", "DT_PPROBE_HITS", "ST_ACC", "ST_HITS",
    # MMU.
    "MMU_NEXT_PPAGE", "MMU_WALKS", "MMU_DROPPED",
    "HASH_CAP", "WALKLOG_LEN",
    # DRAM.
    "DR_BANKS", "DR_LPR", "DR_TRP", "DR_TRCD", "DR_TCAS",
    "DR_WQ_SIZE", "DR_PENDW_LEN",
    "DR_READS", "DR_WRITES", "DR_ROWH", "DR_ROWM", "DR_ROWC",
    "DR_LAT_TOTAL",
    # Core model.
    "C_INSTR", "ROB_SIZE", "ISSUE_WIDTH", "RETIRE_WIDTH",
    "DEP_WINDOW", "WIN_LEN", "LOADS_LEN", "LOADS_POS", "WIN_CAP",
    # PQ.
    "PQ_SIZE", "PQ_LEN",
    # Dual-channel pf_stats["l2"] useful/late (see module docstring) and
    # the absolute counters bumped by fills/evictions/writebacks.
    "CREDIT2_USEFUL", "CREDIT2_LATE",
    "PF1_USELESS", "PF2_USELESS",
    "T12_WB", "T2L_WB", "TLD_WB",
    # Berti history table.
    "H_SETS", "H_WAYS", "H_INSERTS", "H_SEARCHES",
    "TS_MASK", "LINE_MASK", "HTAG_MASK",
    # Berti delta table + config.
    "E_COUNT", "E_PER", "COUNTER_MAX", "MAX_DSEARCH", "MAX_PF_DELTAS",
    "LAT_MASK", "COV_CAP", "DTAG_MASK", "WARM_MIN", "CROSS_OK",
    "DELTA_LO", "DELTA_HI",
    "DT_FIFO_CLOCK", "DT_FIFO_PTR", "DT_PHASES", "DT_DISCARDED",
    # IPCP geometry.
    "IPT_ENTRIES", "CSPT_ENTRIES", "CS_DEGREE", "CPLX_DEGREE",
    "GS_DEGREE", "REGION_LINES",
    *DELTA_REGS,
)

FREGS: Tuple[str, ...] = (
    "F_FRONTEND", "F_RETIRE", "F_ROB_HEAD",
    "F_ISSUE_INCR", "F_RETIRE_INCR", "F_ISSUE_W", "F_RETIRE_W",
    "F_BUSFREE", "F_BURST", "F_WQ_THRESH",
    "F_PERIOD", "F_WATERMARK",
    "F_HIGH", "F_MEDIUM", "F_REPL", "F_WARM_WM",
)

#: Kernel buffer suffix -> the Cache column bound to it by pointer.
_CACHE_COLUMNS = (
    ("TAG", "tags"), ("VALID", "valid"), ("DIRTY", "dirty"),
    ("PREF", "pref"), ("ARR", "arrival"), ("PFLAT", "pf_lat"),
    ("IP", "ips"), ("VLINE", "vlines"), ("ORG", "origin"),
)
_CACHE_BUF_FIELDS = (
    *(f for f, _ in _CACHE_COLUMNS), "POLC", "POLA", "MT",
)
#: Kernel buffer -> the HistoryTable column bound to it by pointer: per
#: way (set * ways + way), then per set.
_WAY_COLUMNS = (
    ("H_TAGS", "_tags"), ("H_LINES", "_lines"), ("H_TSS", "_tss"),
    ("H_ORDERS", "_orders"),
)
_SET_COLUMNS = (("H_CLOCK", "_fifo_clock"), ("H_PTR", "_fifo_ptr"))
#: Kernel buffer -> the DeltaTable column bound to it by pointer: per
#: entry, then flat over entries * deltas_per_entry slots.
_ENTRY_COLUMNS = (
    ("E_VALID", "_valid"), ("E_TAG", "_tags"), ("E_CTR", "_counters"),
    ("E_ORDER", "_orders"), ("E_WARMED", "_warmed"),
    ("E_SCOUNT", "_slot_count"),
)
_SLOT_COLUMNS = (
    ("S_DELTA", "_slot_delta"), ("S_COV", "_slot_cov"),
    ("S_STATUS", "_slot_status"),
)
#: Kernel buffer -> the IPCPPrefetcher column bound to it by pointer:
#: per IP-table entry, per CSPT slot, per region-monitor row, and the
#: two scalars (clock, live region rows).
_IPT_COLUMNS = (
    ("IPT_VALID", "_valid"), ("IPT_TAG", "_tags"),
    ("IPT_LAST", "_last_line"), ("IPT_STRIDE", "_stride"),
    ("IPT_CONF", "_cs_conf"), ("IPT_SIG", "_signature"),
)
_CSPT_COLUMNS = (("CSPT_STRIDE", "_cspt_stride"), ("CSPT_CONF", "_cspt_conf"))
_REGION_COLUMNS = (
    ("RG_REGION", "_region"), ("RG_BITMAP", "_bitmap"),
    ("RG_LAST", "_last"), ("RG_DIR", "_direction"),
)
_MSHR_BUF_FIELDS = ("LINE", "ALLOC", "READY", "ISPF", "IP", "VLINE", "MERGED")
_TLB_BUF_FIELDS = ("VP", "PP", "CLK", "AGE")

BUFS: Tuple[str, ...] = (
    "T_IPS", "T_ADDRS", "T_WRITES", "T_GAPS", "T_DEPS",
    "T_VLINES", "T_VPAGES",
    *(f"{p}_{f}" for p in _CACHE_PREFIXES for f in _CACHE_BUF_FIELDS),
    *(f"{p}_{f}" for p in _MSHR_PREFIXES for f in _MSHR_BUF_FIELDS),
    *(f"{p}_{f}" for p in _TLB_PREFIXES for f in _TLB_BUF_FIELDS),
    "HASH_K", "HASH_V", "WALK_VP", "WALK_PP",
    "BANK_ROW", "BANK_BUSY", "PENDW",
    "WIN_K", "WIN_RET", "LOADS",
    "PQ_ST",
    *(name for name, _ in _WAY_COLUMNS),
    *(name for name, _ in _SET_COLUMNS),
    *(name for name, _ in _ENTRY_COLUMNS),
    *(name for name, _ in _SLOT_COLUMNS),
    "SCRATCH",
    *(name for name, _ in _IPT_COLUMNS),
    *(name for name, _ in _CSPT_COLUMNS),
    *(name for name, _ in _REGION_COLUMNS),
    "IPCP_SCALARS",
)

RIX: Dict[str, int] = {name: i for i, name in enumerate(REGISTERS)}
FIX: Dict[str, int] = {name: i for i, name in enumerate(FREGS)}
BIX: Dict[str, int] = {name: i for i, name in enumerate(BUFS)}

# Per-prefix register indexes and buffer names, resolved here once so a
# span boundary formats no strings: register indexes in _*_regs order,
# then buffer names (caches: (buffer, column) pairs, then the POLC,
# POLA and MT buffers; MSHRs and TLBs: _*_BUF_FIELDS order).
_DELTA_IX = tuple(RIX[name] for name in DELTA_REGS)
_CACHE_BINDINGS = tuple(
    (tuple(RIX[r] for r in _cache_regs(p)),
     tuple((f"{p}_{f}", column) for f, column in _CACHE_COLUMNS),
     (f"{p}_POLC", f"{p}_POLA", f"{p}_MT"))
    for p in _CACHE_PREFIXES
)
_MSHR_BINDINGS = tuple(
    (tuple(RIX[r] for r in _mshr_regs(p)),
     tuple(f"{p}_{f}" for f in _MSHR_BUF_FIELDS))
    for p in _MSHR_PREFIXES
)
_TLB_BINDINGS = tuple(
    (tuple(RIX[r] for r in _tlb_regs(p)),
     tuple(f"{p}_{f}" for f in _TLB_BUF_FIELDS))
    for p in _TLB_PREFIXES
)


def layout_digest() -> str:
    """A short hash of the layout, folded into the kernel cache key."""
    import hashlib

    blob = "#".join("|".join(names)
                    for names in (REGISTERS, FREGS, BUFS, PF_KINDS))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


def _ptr_of(buf: Any) -> int:
    """Raw data pointer of a bound buffer (0 if absent or empty).

    An ``array('q'/'d')``, or a read-only ``memoryview`` column of a
    mapped trace store (:class:`~repro.memory.tracestore.MappedTrace`),
    which has no ``buffer_info``: numpy reads its address without a
    copy.  The kernel never writes the trace columns.
    """
    if buf is None or not len(buf):
        return 0
    if type(buf) is array:
        return buf.buffer_info()[0]
    return np.frombuffer(buf, dtype=np.uint8).ctypes.data


def _column(buf: Any, n: int, owner: str, what: str) -> Any:
    """``buf``, checked to be an int64 column of ``n`` entries: the
    kernel indexes bound columns without bounds checks.  The message
    (``owner.what``) is built only on failure."""
    if not isinstance(buf, array) or buf.typecode != "q" or len(buf) != n:
        raise SimulationError(
            f"{owner}.{what} is not an array('q') of {n} entries",
            field="engine",
        )
    return buf


class NativeState:
    """Owns the flat buffers for one (trace, hierarchy, core) binding."""

    def __init__(self, trace, hierarchy: Hierarchy, core: CoreModel) -> None:
        self.h = hierarchy
        self.core = core
        self.trace = trace
        self.R = array("q", bytes(8 * len(REGISTERS)))
        self.F = array("d", bytes(8 * len(FREGS)))
        # Buffer objects by name; pointers are refreshed per span (the
        # history arrays are rebound by HistoryTable.reset()).
        self.bufs: Dict[str, Any] = {name: None for name in BUFS}
        self._kern = None
        self._ipcp = None
        self._kind = PF_NONE
        # Page-table mappings the kernel's HASH_K/HASH_V hold.
        self._hashed = 0

        ips, addrs, writes, gaps, deps = trace.columns()
        # Cached on the trace: every run over it shares one decode.
        vlines, vpages = trace.decoded_columns()
        b = self.bufs
        b["T_IPS"], b["T_ADDRS"], b["T_WRITES"] = ips, addrs, writes
        b["T_GAPS"], b["T_DEPS"] = gaps, deps
        b["T_VLINES"], b["T_VPAGES"] = vlines, vpages

        assert LATENCY_FIELD_BITS == 12, "kernel hardcodes the latency field"

        self._alloc_static()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _alloc_static(self) -> None:
        h, b = self.h, self.bufs
        for (_, _, (_, _, mt)), cache in zip(_CACHE_BINDINGS,
                                             (h.l1d, h.l2, h.llc)):
            if type(cache.policy) is DRRIPPolicy:
                b[mt] = array("q", bytes(8 * 625))
        for (_, names), mshr in zip(_MSHR_BINDINGS,
                                    (h.l1d_mshr, h.l2_mshr)):
            for name in names:
                b[name] = array("q", bytes(8 * max(1, mshr.size)))
        cfg = h.dram.config
        b["BANK_ROW"] = array("q", bytes(8 * cfg.banks))
        b["BANK_BUSY"] = array("q", bytes(8 * cfg.banks))
        b["PENDW"] = array("q", bytes(8 * (cfg.write_queue + 2)))
        b["LOADS"] = array("d", bytes(8 * self.core.config.dependency_window))
        b["PQ_ST"] = array("d", bytes(8 * max(1, h.pq.size)))

        kern = h._l1d_kernel
        pf = h.l1d_prefetcher
        self._kern = kern
        if kern is not None:
            self._kind = PF_BERTI
            b["SCRATCH"] = array(
                "q", bytes(8 * max(1, kern.config.max_deltas_per_search)))
        elif type(pf) is IPCPPrefetcher:
            self._kind = PF_IPCP
            self._ipcp = pf

    # ------------------------------------------------------------------
    # Export (Python -> flat buffers)
    # ------------------------------------------------------------------

    def begin_span(self, lo: int, hi: int) -> None:
        R, F, b, h = self.R, self.F, self.bufs, self.h
        for i in _DELTA_IX:
            R[i] = 0
        R[RIX["LO"]], R[RIX["HI"]] = lo, hi
        R[RIX["ERR"]] = 0
        R[RIX["PF_KIND"]] = self._kind

        self._export_caches()
        self._export_mshrs()
        self._export_mmu(hi - lo)
        self._export_dram()
        self._export_core(hi - lo)
        self._export_pq()
        if self._kind == PF_BERTI:
            self._export_berti()
        elif self._kind == PF_IPCP:
            self._export_ipcp()

        F[FIX["F_WATERMARK"]] = h._l1d_kern_watermark
        R[RIX["CROSS_OK"]] = 1 if h._l1d_kern_cross_page else 0
        pfs2 = h.pf_stats["l2"]
        R[RIX["CREDIT2_USEFUL"]] = pfs2.useful
        R[RIX["CREDIT2_LATE"]] = pfs2.late
        R[RIX["PF1_USELESS"]] = h._pf_l1d_stats.useless
        R[RIX["PF2_USELESS"]] = pfs2.useless
        R[RIX["T12_WB"]] = h.traffic_l1d_l2.writeback
        R[RIX["T2L_WB"]] = h.traffic_l2_llc.writeback
        R[RIX["TLD_WB"]] = h.traffic_llc_dram.writeback

    def _export_caches(self) -> None:
        R, b, h = self.R, self.bufs, self.h
        for (regs, columns, (polc, pola, mt)), cache in zip(
                _CACHE_BINDINGS, (h.l1d, h.l2, h.llc)):
            (r_sets, r_ways, r_lat, r_pol, r_psel,
             r_pf_fills, r_dem_fills, r_useless, r_wb) = regs
            sets, n, owner = cache.num_sets, cache.num_lines, cache.name
            R[r_sets] = sets
            R[r_ways] = cache.ways
            R[r_lat] = cache.latency
            for name, column in columns:
                b[name] = _column(getattr(cache, column), n, owner, column)
            pol = cache.policy
            if type(pol) is LRUPolicy:
                R[r_pol] = POL_LRU
                b[polc] = _column(pol._clock, sets, owner, "policy._clock")
                b[pola] = _column(pol._age, n, owner, "policy._age")
            else:
                R[r_pol] = (
                    POL_DRRIP if type(pol) is DRRIPPolicy else POL_SRRIP
                )
                b[polc] = None
                b[pola] = _column(pol._rrpv, n, owner, "policy._rrpv")
            if type(pol) is DRRIPPolicy:
                R[r_psel] = pol._psel
                b[mt][:] = array("q", pol._rng.getstate()[1])
            st = cache.stats
            R[r_pf_fills] = st.prefetch_fills
            R[r_dem_fills] = st.demand_fills
            R[r_useless] = st.useless_prefetches
            R[r_wb] = st.writebacks

    def _export_mshrs(self) -> None:
        R, b, h = self.R, self.bufs, self.h
        for (regs, names), m in zip(_MSHR_BINDINGS,
                                    (h.l1d_mshr, h.l2_mshr)):
            (r_size, r_count, r_minready, r_lastexp,
             r_allocs, r_fullrej) = regs
            R[r_size] = m.size
            R[r_count] = len(m._entries)
            R[r_minready] = m._min_ready
            R[r_lastexp] = m._last_expire
            R[r_allocs] = m.allocations
            R[r_fullrej] = m.full_rejections
            line, alloc, ready, ispf, ipc, vlc, merged = (
                b[name] for name in names)
            for i, e in enumerate(m._entries.values()):
                line[i] = e.line
                alloc[i] = e.alloc_cycle
                ready[i] = e.ready_cycle
                ispf[i] = 1 if e.is_prefetch else 0
                ipc[i] = e.ip
                vlc[i] = e.vline
                merged[i] = e.merged_demands

    def _export_mmu(self, span_len: int) -> None:
        R, b, h = self.R, self.bufs, self.h
        mmu = h.mmu
        for ((r_nsets, r_ways), (vp, pp, clk, age)), tlb in zip(
                _TLB_BINDINGS, (mmu.dtlb, mmu.stlb)):
            sets, n, owner = tlb.num_sets, tlb.entries, tlb.name
            R[r_nsets] = sets
            R[r_ways] = tlb.ways
            b[vp] = _column(tlb.vpages, n, owner, "vpages")
            b[pp] = _column(tlb.ppages, n, owner, "ppages")
            b[clk] = _column(tlb.policy._clock, sets, owner, "policy._clock")
            b[age] = _column(tlb.policy._age, n, owner, "policy._age")
        R[RIX["DT_LAT"]] = mmu.dtlb.latency
        R[RIX["MISS_TRANS_LAT"]] = mmu.dtlb.latency + mmu.stlb.latency
        R[RIX["WALK_LAT"]] = mmu.page_walk_latency
        R[RIX["DT_PPROBES"]] = mmu.dtlb.stats.prefetch_probes
        R[RIX["DT_PPROBE_HITS"]] = mmu.dtlb.stats.prefetch_probe_hits
        R[RIX["ST_ACC"]] = mmu.stlb.stats.accesses
        R[RIX["ST_HITS"]] = mmu.stlb.stats.hits
        table = mmu._page_table
        # The hash persists across native spans (module docstring):
        # rebuild it only if the table grew outside the kernel or this
        # span could push its load factor past 1/2.
        need = 2 * (len(table) + span_len + 16)
        hk = b["HASH_K"]
        if hk is None or len(hk) < need or self._hashed != len(table):
            cap = 64 if hk is None else len(hk)
            while cap < need:
                cap <<= 1
            b["HASH_K"] = hk = array("q", [-1]) * cap
            b["HASH_V"] = hv = array("q", bytes(8 * cap))
            mask = cap - 1
            for vp, ppage in table.items():
                i = (vp * 0x9E3779B97F4A7C15 >> 32) & mask
                while hk[i] != -1:
                    i = (i + 1) & mask
                hk[i] = vp
                hv[i] = ppage
            self._hashed = len(table)
        R[RIX["HASH_CAP"]] = len(hk)
        wl = b.get("WALK_VP")
        if wl is None or len(wl) < span_len + 1:
            b["WALK_VP"] = array("q", bytes(8 * (span_len + 1)))
            b["WALK_PP"] = array("q", bytes(8 * (span_len + 1)))
        R[RIX["WALKLOG_LEN"]] = 0
        R[RIX["MMU_NEXT_PPAGE"]] = mmu._next_ppage
        R[RIX["MMU_WALKS"]] = mmu.stats.walks
        R[RIX["MMU_DROPPED"]] = mmu.stats.dropped_prefetch_translations

    def _export_dram(self) -> None:
        R, F, b, h = self.R, self.F, self.bufs, self.h
        dram = h.dram
        cfg = dram.config
        R[RIX["DR_BANKS"]] = cfg.banks
        R[RIX["DR_LPR"]] = dram._lines_per_row
        R[RIX["DR_TRP"]] = cfg.trp_cycles
        R[RIX["DR_TRCD"]] = cfg.trcd_cycles
        R[RIX["DR_TCAS"]] = cfg.tcas_cycles
        R[RIX["DR_WQ_SIZE"]] = cfg.write_queue
        F[FIX["F_WQ_THRESH"]] = cfg.write_queue * cfg.write_watermark
        F[FIX["F_BURST"]] = dram._burst
        F[FIX["F_BUSFREE"]] = dram._bus_free
        brow, bbusy = b["BANK_ROW"], b["BANK_BUSY"]
        for i, bank in enumerate(dram._banks):
            brow[i] = bank.open_row
            bbusy[i] = bank.busy_until
        pendw = b["PENDW"]
        for i, pl in enumerate(dram._pending_writes):
            pendw[i] = pl
        R[RIX["DR_PENDW_LEN"]] = len(dram._pending_writes)
        st = dram.stats
        R[RIX["DR_READS"]] = st.reads
        R[RIX["DR_WRITES"]] = st.writes
        R[RIX["DR_ROWH"]] = st.row_hits
        R[RIX["DR_ROWM"]] = st.row_misses
        R[RIX["DR_ROWC"]] = st.row_conflicts
        R[RIX["DR_LAT_TOTAL"]] = st.total_read_latency

    def _export_core(self, span_len: int) -> None:
        R, F, b = self.R, self.F, self.bufs
        core = self.core
        R[RIX["C_INSTR"]] = core._instr
        R[RIX["ROB_SIZE"]] = core._rob_size
        R[RIX["ISSUE_WIDTH"]] = core.config.issue_width
        R[RIX["RETIRE_WIDTH"]] = core.config.retire_width
        R[RIX["DEP_WINDOW"]] = core.config.dependency_window
        F[FIX["F_FRONTEND"]] = core._frontend
        F[FIX["F_RETIRE"]] = core._retire_frontier
        F[FIX["F_ROB_HEAD"]] = core._rob_head_retire
        F[FIX["F_ISSUE_INCR"]] = core._issue_incr
        F[FIX["F_RETIRE_INCR"]] = core._retire_incr
        F[FIX["F_ISSUE_W"]] = float(core.config.issue_width)
        F[FIX["F_RETIRE_W"]] = float(core.config.retire_width)
        win = core._window
        cap = len(win) + span_len + 1
        wk = b.get("WIN_K")
        if wk is None or len(wk) < cap:
            b["WIN_K"] = array("q", bytes(8 * cap))
            b["WIN_RET"] = array("d", bytes(8 * cap))
        wk, wr = b["WIN_K"], b["WIN_RET"]
        for i, (k, ret) in enumerate(win):
            wk[i] = k
            wr[i] = ret
        R[RIX["WIN_LEN"]] = len(win)
        R[RIX["WIN_CAP"]] = len(wk)
        loads = b["LOADS"]
        lc = self.core._load_completions
        for i, v in enumerate(lc):
            loads[i] = v
        R[RIX["LOADS_LEN"]] = len(lc)
        R[RIX["LOADS_POS"]] = 0

    def _export_pq(self) -> None:
        R, F, b, h = self.R, self.F, self.bufs, self.h
        pq = h.pq
        R[RIX["PQ_SIZE"]] = pq.size
        F[FIX["F_PERIOD"]] = 1.0 / pq.rate
        st = b["PQ_ST"]
        for i, v in enumerate(pq._service_times):
            st[i] = v
        R[RIX["PQ_LEN"]] = len(pq._service_times)

    def _export_berti(self) -> None:
        R, F, b = self.R, self.F, self.bufs
        kern = self._kern
        hist = kern.history
        cfg = kern.config
        # History rings and delta-table columns: zero-copy — refresh the
        # pointers each span (reset() rebinds new arrays).
        sets = cfg.history_sets
        for name, column in _WAY_COLUMNS:
            b[name] = _column(getattr(hist, column), sets * cfg.history_ways,
                              "history", column)
        for name, column in _SET_COLUMNS:
            b[name] = _column(getattr(hist, column), sets, "history", column)
        R[RIX["H_SETS"]] = sets
        R[RIX["H_WAYS"]] = cfg.history_ways
        R[RIX["H_INSERTS"]] = hist.inserts
        R[RIX["H_SEARCHES"]] = hist.searches
        R[RIX["TS_MASK"]] = hist._ts_mask
        R[RIX["LINE_MASK"]] = hist._line_mask
        R[RIX["HTAG_MASK"]] = hist._tag_mask

        dt = kern.deltas
        entries = cfg.delta_table_entries
        per = cfg.deltas_per_entry
        R[RIX["E_COUNT"]] = entries
        R[RIX["E_PER"]] = per
        R[RIX["COUNTER_MAX"]] = cfg.counter_max
        R[RIX["MAX_DSEARCH"]] = cfg.max_deltas_per_search
        R[RIX["MAX_PF_DELTAS"]] = cfg.max_prefetch_deltas
        R[RIX["LAT_MASK"]] = kern._latency_mask
        R[RIX["COV_CAP"]] = dt._coverage_cap
        R[RIX["DTAG_MASK"]] = dt._tag_mask
        R[RIX["WARM_MIN"]] = cfg.warmup_min_searches
        R[RIX["DELTA_LO"]] = -(1 << (cfg.delta_bits - 1))
        R[RIX["DELTA_HI"]] = (1 << (cfg.delta_bits - 1)) - 1
        R[RIX["DT_FIFO_CLOCK"]] = dt._fifo_clock
        R[RIX["DT_FIFO_PTR"]] = dt._fifo_ptr
        R[RIX["DT_PHASES"]] = dt.phase_completions
        R[RIX["DT_DISCARDED"]] = dt.discarded_deltas
        F[FIX["F_HIGH"]] = cfg.high_watermark * cfg.counter_max
        F[FIX["F_MEDIUM"]] = cfg.medium_watermark * cfg.counter_max
        F[FIX["F_REPL"]] = cfg.repl_watermark * cfg.counter_max
        F[FIX["F_WARM_WM"]] = cfg.warmup_watermark

        for name, column in _ENTRY_COLUMNS:
            b[name] = _column(getattr(dt, column), entries, "deltas", column)
        for name, column in _SLOT_COLUMNS:
            b[name] = _column(getattr(dt, column), entries * per, "deltas",
                              column)

    def _export_ipcp(self) -> None:
        R, b, pf = self.R, self.bufs, self._ipcp
        # Zero-copy, like the delta table: reset() rebinds new columns.
        n, m = pf.ip_entries, pf.cspt_entries
        for name, column in _IPT_COLUMNS:
            b[name] = _column(getattr(pf, column), n, "ipcp", column)
        for name, column in _CSPT_COLUMNS:
            b[name] = _column(getattr(pf, column), m, "ipcp", column)
        for name, column in _REGION_COLUMNS:
            b[name] = _column(getattr(pf, column), REGION_ROWS, "ipcp",
                              column)
        b["IPCP_SCALARS"] = _column(pf._scalars, 2, "ipcp", "_scalars")
        R[RIX["IPT_ENTRIES"]] = n
        R[RIX["CSPT_ENTRIES"]] = m
        R[RIX["CS_DEGREE"]] = pf.cs_degree
        R[RIX["CPLX_DEGREE"]] = pf.cplx_degree
        R[RIX["GS_DEGREE"]] = pf.gs_degree
        R[RIX["REGION_LINES"]] = pf.region_lines

    # ------------------------------------------------------------------
    # Import (flat buffers -> Python)
    # ------------------------------------------------------------------

    def end_span(self, ok: bool) -> None:
        """Import state back; ``ok=False`` skips the span-delta flush."""
        self._import_caches()
        self._import_mshrs()
        self._import_mmu()
        self._import_dram()
        self._import_core()
        self._import_pq()
        if self._kind == PF_BERTI:
            self._import_berti()
        elif self._kind == PF_IPCP:
            self._ipcp.drop_index()
        R, h = self.R, self.h
        h._pf_l1d_stats.useless = R[RIX["PF1_USELESS"]]
        pfs2 = h.pf_stats["l2"]
        pfs2.useless = R[RIX["PF2_USELESS"]]
        h.traffic_l1d_l2.writeback = R[RIX["T12_WB"]]
        h.traffic_l2_llc.writeback = R[RIX["T2L_WB"]]
        h.traffic_llc_dram.writeback = R[RIX["TLD_WB"]]
        if ok:
            self._flush_deltas()
        else:
            # A crashed span keeps its in-place mutations (the
            # immediate Hierarchy._credit_useful calls) but not the
            # deltas.
            pfs2.useful = R[RIX["CREDIT2_USEFUL"]]
            pfs2.late = R[RIX["CREDIT2_LATE"]]

    def _import_caches(self) -> None:
        R, b, h = self.R, self.bufs, self.h
        for (regs, _, (_, _, mt)), cache in zip(_CACHE_BINDINGS,
                                                (h.l1d, h.l2, h.llc)):
            (_, _, _, _, r_psel,
             r_pf_fills, r_dem_fills, r_useless, r_wb) = regs
            pol = cache.policy
            if type(pol) is DRRIPPolicy:
                pol._psel = R[r_psel]
                pol._rng.setstate((3, tuple(b[mt]), None))
            st = cache.stats
            st.prefetch_fills = R[r_pf_fills]
            st.demand_fills = R[r_dem_fills]
            st.useless_prefetches = R[r_useless]
            st.writebacks = R[r_wb]
            cache.drop_index()

    def _import_mshrs(self) -> None:
        R, b, h = self.R, self.bufs, self.h
        for (regs, names), m in zip(_MSHR_BINDINGS,
                                    (h.l1d_mshr, h.l2_mshr)):
            (_, r_count, r_minready, r_lastexp, r_allocs, r_fullrej) = regs
            count = R[r_count]
            line, alloc, ready, ispf, ipc, vlc, merged = (
                b[name] for name in names)
            entries: dict = {}
            for i in range(count):
                entries[line[i]] = MSHREntry(
                    line=line[i], alloc_cycle=alloc[i],
                    ready_cycle=ready[i], is_prefetch=ispf[i] != 0,
                    ip=ipc[i], vline=vlc[i], merged_demands=merged[i],
                )
            m._entries = entries
            m._min_ready = R[r_minready]
            m._last_expire = R[r_lastexp]
            m.allocations = R[r_allocs]
            m.full_rejections = R[r_fullrej]

    def _import_mmu(self) -> None:
        R, b, h = self.R, self.bufs, self.h
        mmu = h.mmu
        mmu.dtlb.drop_index()
        mmu.stlb.drop_index()
        mmu.dtlb.stats.prefetch_probes = R[RIX["DT_PPROBES"]]
        mmu.dtlb.stats.prefetch_probe_hits = R[RIX["DT_PPROBE_HITS"]]
        mmu.stlb.stats.accesses = R[RIX["ST_ACC"]]
        mmu.stlb.stats.hits = R[RIX["ST_HITS"]]
        n = R[RIX["WALKLOG_LEN"]]
        wvp, wpp = b["WALK_VP"], b["WALK_PP"]
        table = mmu._page_table
        for i in range(n):
            # Walk order == the classic engine's dict insertion order.
            table[wvp[i]] = wpp[i]
        self._hashed += n
        mmu._next_ppage = R[RIX["MMU_NEXT_PPAGE"]]
        mmu.stats.walks = R[RIX["MMU_WALKS"]]
        mmu.stats.dropped_prefetch_translations = R[RIX["MMU_DROPPED"]]

    def _import_dram(self) -> None:
        R, F, b, h = self.R, self.F, self.bufs, self.h
        dram = h.dram
        brow, bbusy = b["BANK_ROW"], b["BANK_BUSY"]
        for i, bank in enumerate(dram._banks):
            bank.open_row = brow[i]
            bank.busy_until = bbusy[i]
        dram._bus_free = F[FIX["F_BUSFREE"]]
        pendw = b["PENDW"]
        dram._pending_writes = [
            pendw[i] for i in range(R[RIX["DR_PENDW_LEN"]])
        ]
        st = dram.stats
        st.reads = R[RIX["DR_READS"]]
        st.writes = R[RIX["DR_WRITES"]]
        st.row_hits = R[RIX["DR_ROWH"]]
        st.row_misses = R[RIX["DR_ROWM"]]
        st.row_conflicts = R[RIX["DR_ROWC"]]
        st.total_read_latency = R[RIX["DR_LAT_TOTAL"]]

    def _import_core(self) -> None:
        R, F, b = self.R, self.F, self.bufs
        core = self.core
        core._instr = R[RIX["C_INSTR"]]
        core._frontend = F[FIX["F_FRONTEND"]]
        core._retire_frontier = F[FIX["F_RETIRE"]]
        core._rob_head_retire = F[FIX["F_ROB_HEAD"]]
        wk, wr = b["WIN_K"], b["WIN_RET"]
        n = R[RIX["WIN_LEN"]]
        win = core._window
        win.clear()
        # The kernel compacts the window to offset 0 before returning.
        for i in range(n):
            win.append((wk[i], wr[i]))
        loads = core._load_completions
        loads.clear()
        lbuf = b["LOADS"]
        pos = R[RIX["LOADS_POS"]]
        cnt = R[RIX["LOADS_LEN"]]
        cap = core.config.dependency_window
        for i in range(cnt):
            loads.append(lbuf[(pos + i) % cap])

    def _import_pq(self) -> None:
        R, b, h = self.R, self.bufs, self.h
        st = h.pq._service_times
        st.clear()
        buf = b["PQ_ST"]
        for i in range(R[RIX["PQ_LEN"]]):
            st.append(buf[i])

    def _import_berti(self) -> None:
        R = self.R
        kern = self._kern
        hist = kern.history
        new_inserts = R[RIX["H_INSERTS"]]
        rebuild = new_inserts != hist.inserts
        hist.inserts = new_inserts
        hist.searches = R[RIX["H_SEARCHES"]]
        if rebuild:
            hist.reindex()

        dt = kern.deltas
        dt._fifo_clock = R[RIX["DT_FIFO_CLOCK"]]
        dt._fifo_ptr = R[RIX["DT_FIFO_PTR"]]
        dt.phase_completions = R[RIX["DT_PHASES"]]
        dt.discarded_deltas = R[RIX["DT_DISCARDED"]]
        dt.reindex()

    def _flush_deltas(self) -> None:
        R, h = self.R, self.h
        g = lambda name: R[RIX[name]]
        dtlb_stats = h.mmu.dtlb.stats
        dtlb_stats.accesses += g("D_DT_ACC")
        dtlb_stats.hits += g("D_DT_HIT")
        l1s, l2s, llcs = h.l1d.stats, h.l2.stats, h.llc.stats
        l1s.demand_accesses += g("D_L1_ACC")
        l1s.demand_hits += g("D_L1_HIT")
        l1s.demand_misses += g("D_L1_MISS")
        l1s.useful_prefetches += g("D_L1_USEFUL")
        l1s.late_prefetches += g("D_L1_LATE")
        l2s.demand_accesses += g("D_L2_ACC")
        l2s.demand_hits += g("D_L2_HIT")
        l2s.demand_misses += g("D_L2_MISS")
        l2s.useful_prefetches += g("D_L2_USEFUL")
        llcs.demand_accesses += g("D_LLC_ACC")
        llcs.demand_hits += g("D_LLC_HIT")
        llcs.demand_misses += g("D_LLC_MISS")
        llcs.useful_prefetches += g("D_LLC_USEFUL")
        h.llc_demand_accesses += g("D_H_LLC_ACC")
        h.llc_demand_misses += g("D_H_LLC_MISS")
        h.dram_demand_reads += g("D_H_DRAM")
        tr12 = h.traffic_l1d_l2
        tr12.demand += g("D_T12_DEM")
        tr12.prefetch += g("D_T12_PF")
        tr2l = h.traffic_l2_llc
        tr2l.demand += g("D_T2L_DEM")
        tr2l.prefetch += g("D_T2L_PF")
        trld = h.traffic_llc_dram
        trld.demand += g("D_TLD_DEM")
        trld.prefetch += g("D_TLD_PF")
        pfs1 = h._pf_l1d_stats
        pfs1.suggested += g("D_PF_SUGG")
        pfs1.issued += g("D_PF_ISSUED")
        pfs1.fills += g("D_PF_FILLS")
        pfs1.useful += g("D_PF_USEFUL")
        pfs1.late += g("D_PF_LATE")
        pfs1.promoted += g("D_PF_PROMOTED")
        pfs1.dropped_translation += g("D_PF_DTRANS")
        pfs1.dropped_duplicate += g("D_PF_DDUP")
        pfs1.dropped_queue_full += g("D_PF_DQ")
        pfs1.dropped_mshr_full += g("D_PF_DM")
        pfs2 = h.pf_stats["l2"]
        # Dual-channel fields: the "credit" channel (the immediate
        # Hierarchy._credit_useful calls) lives in the absolute
        # registers; the delta channel mirrors the flush list.
        pfs2.useful = g("CREDIT2_USEFUL") + g("D_PF2_USEFUL")
        pfs2.late = g("CREDIT2_LATE") + g("D_PF2_LATE")
        pfs2.promoted += g("D_PF2_PROMOTED")
        stlb_stats = h.mmu.stlb.stats
        stlb_stats.prefetch_probes += g("D_STLB_PROBES")
        stlb_stats.prefetch_probe_hits += g("D_STLB_HITS")
        h.l1d_mshr.merges += g("D_M1_MERGES")
        h.l2_mshr.merges += g("D_M2_MERGES")
        kern = self._kern
        if kern is not None:
            kern.cross_page_suppressed += g("D_CROSS")

    # ------------------------------------------------------------------

    def pointers(self) -> List[int]:
        """Current raw buffer pointers in BUFS order."""
        return [_ptr_of(self.bufs[name]) for name in BUFS]
