"""Per-page Berti — the DPC-3 ancestor of the MICRO 2022 prefetcher.

The paper (§I) notes "Our Berti prefetcher is inspired by Berti from
DPC-3 [46]", A. Ros's *"Berti: A per-page best-request-time delta
prefetcher"*.  That version selected timely deltas **per OS page**
rather than per IP.  The MICRO paper's central claim is that the IP is
the better locality context; this variant exists so the claim can be
tested directly (see ``benchmarks/test_ablation_context.py``).

Implementation: identical machinery (history table, table of deltas,
watermarks, timeliness search) with the training/prediction key switched
from the IP to the accessed page, and cross-page prediction disabled by
construction (a page's deltas are relative to itself).
"""

from __future__ import annotations

from repro.core.berti import BertiPrefetcher
from repro.core.config import BertiConfig
from repro.memory.address import page_of_line


class BertiPagePrefetcher(BertiPrefetcher):
    """Berti keyed on the OS page instead of the IP (DPC-3 style)."""

    name = "berti_page"
    level = "l1d"
    # Re-declare the opt-in: the hierarchy checks the *own* class body,
    # so subclasses do not inherit kernel dispatch by accident.
    kernel_hooks = True

    def __init__(self, config: BertiConfig | None = None) -> None:
        super().__init__(config)

    def _key(self, ip: int, line: int) -> int:
        return page_of_line(line)
