"""Instruction Pointer Classifier-based Prefetching (IPCP) —
Pakalapati & Panda, ISCA 2020; DPC-3 winner.

IPCP classifies each IP into one of three classes and drives a small
dedicated prefetcher per class:

* **CS (constant stride)** — 2-bit-confidence stride detection per IP;
  prefetches ``cs_degree`` strided lines ahead.
* **CPLX (complex stride)** — a signature of recent strides indexes a
  Complex Stride Prediction Table (CSPT); predicted strides are chained
  ("lookahead") while their confidence holds.
* **GS (global stream)** — region-density monitoring; when the program
  streams through a dense region, prefetch aggressively along the stream
  direction.  This component is the main source of IPCP's useless
  prefetches on irregular (GAP-like) workloads, which Figure 10 of the
  paper highlights.

Unclassified IPs fall back to next-line.  Per the paper (§II-B), IPCP
ignores prefetch *timeliness* — there is no latency feedback anywhere.

Configuration: 128-entry IP table (Table III), 128-entry CSPT.

Kernel layout.  Every table is a set of flat ``array('q')`` columns, the
very buffers the native kernel binds by pointer (no per-entry objects):

* the IP table, one row per entry: ``_valid``, ``_tags``,
  ``_last_line``, ``_stride``, ``_cs_conf`` and ``_signature``;
* the CSPT, one row per signature slot: ``_cspt_stride`` and
  ``_cspt_conf``;
* the GS region monitor, :data:`REGION_ROWS` rows of ``_region``,
  ``_bitmap``, ``_last`` and ``_direction``, of which the first
  ``_scalars[REGIONS]`` are live.  A new region takes the next row; when
  65 rows are live the next new region first drops them all (the
  epoch reset: the count returns to 0);
* ``_scalars``: the access clock and the live region-row count.

``_rows`` (region -> row) is an index derived from the live region rows,
with :class:`~repro.memory.cache.Cache`'s ``_where`` contract: a native
span drops it (:meth:`drop_index`), :meth:`_gs` rebuilds it when it
finds it dropped, and it is never pickled.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.prefetchers.base import (
    FILL_L1,
    FILL_L2,
    AccessInfo,
    Prefetcher,
    PrefetchRequest,
)

#: Region-monitor rows: the epoch reset runs when a new region arrives
#: with more than 64 rows live, so at most 65 are ever live.
REGION_ROWS = 65
#: ``_scalars`` layout.
CLOCK = 0
REGIONS = 1

#: 2-bit confidences: CS and each CSPT slot saturate at 3 and predict
#: from 2 up.  The native kernel hardcodes these and the masks below.
CS_CONF_MAX = 3
CS_THRESHOLD = 2
CPLX_CONF_MAX = 3
CPLX_THRESHOLD = 2
SIG_BITS = 10

_TAG_MASK = 0x3FF
_SIG_MASK = (1 << SIG_BITS) - 1
_STRIDE_MASK = 0x3F


class IPCPPrefetcher(Prefetcher):
    """Composite CS + CPLX + GS + next-line bouquet."""

    name = "ipcp"
    level = "l1d"

    #: Columns pickled by value, in ``__init__`` order after the
    #: geometry (``__getstate__`` names its fields).
    _COLUMNS = (
        "_valid", "_tags", "_last_line", "_stride", "_cs_conf",
        "_signature", "_cspt_stride", "_cspt_conf",
        "_region", "_bitmap", "_last", "_direction", "_scalars",
    )
    _GEOMETRY = (
        "ip_entries", "cspt_entries", "cs_degree", "cplx_degree",
        "gs_degree", "region_lines",
    )

    def __init__(
        self,
        ip_entries: int = 128,
        cspt_entries: int = 128,
        cs_degree: int = 3,
        cplx_degree: int = 4,
        gs_degree: int = 4,
        region_lines: int = 32,
    ) -> None:
        for field, value, low, high in (
            ("ip_entries", ip_entries, 1, None),
            ("cspt_entries", cspt_entries, 1, None),
            # A region's touch bitmap is one 63-bit column word.
            ("region_lines", region_lines, 1, 63),
        ):
            if value < low or (high is not None and value > high):
                bound = f">= {low}" if high is None else f"in [{low}, {high}]"
                raise ConfigError(
                    f"IPCP {field}={value} must be {bound}", field=field)
        self.ip_entries = ip_entries
        self.cspt_entries = cspt_entries
        self.cs_degree = cs_degree
        self.cplx_degree = cplx_degree
        self.gs_degree = gs_degree
        self.region_lines = region_lines
        self.reset()

    def reset(self) -> None:
        zeros = array("q", [0])
        n, m = self.ip_entries, self.cspt_entries
        self._valid = zeros * n
        self._tags = zeros * n
        self._last_line = zeros * n
        self._stride = zeros * n
        self._cs_conf = zeros * n
        self._signature = zeros * n
        # CSPT: signature slot -> (stride, confidence).
        self._cspt_stride = zeros * m
        self._cspt_conf = zeros * m
        # GS region monitor: region -> (touch bitmap, last line,
        # direction), the first _scalars[REGIONS] rows live.
        self._region = zeros * REGION_ROWS
        self._bitmap = zeros * REGION_ROWS
        self._last = zeros * REGION_ROWS
        self._direction = zeros * REGION_ROWS
        self._scalars = zeros * 2
        self._rows: Optional[Dict[int, int]] = {}

    # ------------------------------------------------------------------
    # Derived region index
    # ------------------------------------------------------------------

    def reindex(self) -> Dict[int, int]:
        """Rebuild ``_rows`` (region -> row) from the live region rows;
        returns it."""
        live = self._scalars[REGIONS]
        rows = dict(zip(self._region[:live], range(live)))
        self._rows = rows
        return rows

    def drop_index(self) -> None:
        """Mark ``_rows`` stale after the columns were written in place;
        :meth:`_gs` rebuilds it."""
        self._rows = None

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def __getstate__(self):
        # Named fields only: reading self.__dict__ would make CPython
        # materialise the instance dict and stop specialising attribute
        # loads for the rest of the run.  _rows is derived.
        return {f: getattr(self, f) for f in self._GEOMETRY + self._COLUMNS}

    def __setstate__(self, state):
        for f in self._GEOMETRY + self._COLUMNS:
            setattr(self, f, state[f])
        self._rows = None

    # ------------------------------------------------------------------

    def on_access(self, access: AccessInfo) -> List[PrefetchRequest]:
        self._scalars[CLOCK] += 1
        line = access.line
        ip = access.ip
        n = self.ip_entries
        e = ip % n
        tag = (ip // n) & _TAG_MASK
        tags = self._tags
        if not self._valid[e] or tags[e] != tag:
            # Another IP held the entry (or none did): start it afresh.
            self._valid[e] = 1
            tags[e] = tag
            self._stride[e] = self._cs_conf[e] = self._signature[e] = 0
            last = stride = conf = sig = 0
        else:
            last = self._last_line[e]
            stride = self._stride[e]
            conf = self._cs_conf[e]
            sig = self._signature[e]

        if last != 0:
            step = line - last
            if step != 0:
                # --- train CS
                if step == stride:
                    if conf < CS_CONF_MAX:
                        conf += 1
                elif conf > 1:
                    conf -= 1
                else:
                    conf = 0
                    stride = step
                # --- train CPLX: old signature predicts this stride
                cspt_stride = self._cspt_stride
                cspt_conf = self._cspt_conf
                slot = sig % self.cspt_entries
                if cspt_stride[slot] == step:
                    if cspt_conf[slot] < CPLX_CONF_MAX:
                        cspt_conf[slot] += 1
                else:
                    c = cspt_conf[slot] - 1
                    if c <= 0:
                        cspt_stride[slot] = step
                        c = 0
                    cspt_conf[slot] = c
                sig = ((sig << 1) ^ (step & _STRIDE_MASK)) & _SIG_MASK
                self._stride[e] = stride
                self._cs_conf[e] = conf
                self._signature[e] = sig
        self._last_line[e] = line

        # --- classify and issue
        if conf >= CS_THRESHOLD and stride != 0:
            requests = []
            target = line
            for _ in range(self.cs_degree):
                target += stride
                requests.append(PrefetchRequest(target, FILL_L1))
            return requests
        requests = self._cplx_chain(sig, line)
        if requests:
            return requests
        requests = self._gs(line)
        if requests:
            return requests
        # next-line fallback
        return [PrefetchRequest(line=line + 1, fill_level=FILL_L1)]

    def _cplx_chain(self, signature: int, line: int) -> List[PrefetchRequest]:
        """CPLX lookahead: follow predicted strides while confident."""
        requests: List[PrefetchRequest] = []
        cspt_stride = self._cspt_stride
        cspt_conf = self._cspt_conf
        m = self.cspt_entries
        target = line
        sig = signature
        for depth in range(self.cplx_degree):
            slot = sig % m
            stride = cspt_stride[slot]
            if cspt_conf[slot] < CPLX_THRESHOLD or stride == 0:
                break
            target += stride
            fill = FILL_L1 if depth < 2 else FILL_L2
            requests.append(PrefetchRequest(line=target, fill_level=fill))
            sig = ((sig << 1) ^ (stride & _STRIDE_MASK)) & _SIG_MASK
        return requests

    def _gs(self, line: int) -> List[PrefetchRequest]:
        """Global-stream detection over dense regions."""
        region_lines = self.region_lines
        region = line // region_lines
        rows = self._rows
        if rows is None:
            rows = self.reindex()
        row = rows.get(region)
        if row is None:
            scalars = self._scalars
            row = scalars[REGIONS]
            if row > 64:
                rows.clear()  # cheap epoch reset
                row = 0
            scalars[REGIONS] = row + 1
            rows[region] = row
            self._region[row] = region
            bitmap = 0
            last = line
        else:
            bitmap = self._bitmap[row]
            last = self._last[row]
        bitmap |= 1 << (line % region_lines)
        direction = 1 if line >= last else -1
        self._bitmap[row] = bitmap
        self._last[row] = line
        self._direction[row] = direction
        requests: List[PrefetchRequest] = []
        if bitmap.bit_count() >= region_lines // 3:
            target = line
            for k in range(1, self.gs_degree + 1):
                target += direction
                requests.append(PrefetchRequest(
                    target, FILL_L1 if k <= 2 else FILL_L2))
        return requests

    def storage_bits(self) -> int:
        # IP table: 128 x (10 tag + 24 line + 13 stride + 2 conf + 10 sig);
        # CSPT: 128 x (13 stride + 2 conf); region monitors: 64 x
        # (20 tag + 32 bitmap + 2).
        return (
            self.ip_entries * (10 + 24 + 13 + 2 + 10)
            + self.cspt_entries * (13 + 2)
            + 64 * (20 + 32 + 2)
        )
