"""Ablations of Berti's individual design choices (beyond the paper's own
sensitivity studies; DESIGN.md §5).

* timeliness filter in the history search (§III-A),
* MSHR-occupancy gate on L1D fills (§III-B),
* cross-page prefetching (§IV-J: disabling drops SPEC 1.16 -> 1.10),
* the 12-bit latency field width (§IV-J: 4 bits drops 1.16 -> 1.07).
"""

from dataclasses import replace

from common import SCALE, once, save_report, simulate

from repro.analysis.metrics import geomean
from repro.analysis.report import format_table
from repro.core.berti import BertiPrefetcher
from repro.core.config import BertiConfig
from repro.prefetchers.registry import make_prefetcher
from repro.workloads.spec_like import spec17_suite


class _NoTimelinessBerti(BertiPrefetcher):
    """Berti variant whose history search ignores timeliness: every
    recorded same-IP delta counts, timely or not."""

    name = "berti_no_timeliness"

    def __init__(self, config=None):
        super().__init__(config)
        orig = self.history.search_timely

        def search_all(ip, line, demand_time, latency):
            return orig(ip, line, demand_time, 0)

        self.history.search_timely = search_all


def _sweep(traces, bases, variants):
    rows = []
    for name, pf_factory in variants:
        ratios = [
            simulate(t, l1d_prefetcher=pf_factory()).speedup_over(
                bases[t.name]
            )
            for t in traces
        ]
        rows.append([name, geomean(ratios)])
    return rows


def test_ablations(benchmark):
    def compute():
        traces = spec17_suite(SCALE * 0.6)
        bases = {
            t.name: simulate(t, l1d_prefetcher=make_prefetcher("ip_stride"))
            for t in traces
        }
        cfg = BertiConfig()
        variants = [
            ("berti (default)", lambda: BertiPrefetcher(cfg)),
            ("no timeliness filter", lambda: _NoTimelinessBerti(cfg)),
            ("no MSHR gate",
             lambda: BertiPrefetcher(replace(cfg, mshr_watermark=1.01))),
            ("no cross-page prefetch",
             lambda: BertiPrefetcher(replace(cfg, cross_page=False))),
            ("4-bit latency field",
             lambda: BertiPrefetcher(replace(cfg, latency_bits=4))),
        ]
        return _sweep(traces, bases, variants)

    rows = once(benchmark, compute)
    save_report(
        "ablations",
        format_table(
            ["variant", "geomean speedup (SPEC17)"], rows,
            title=(
                "Ablations — Berti design choices\n"
                "(paper §IV-J: cross-page off 1.16->1.10; 4-bit latency"
                " 1.16->1.07)"
            ),
        ),
    )

    by = dict(rows)
    default = by["berti (default)"]
    assert default > 1.0
    # The timeliness filter is load-bearing: removing it floods the PQ
    # with late deltas and costs performance.
    assert by["no timeliness filter"] <= default + 0.02
    # Cross-page prefetching contributes (paper: −6 % when disabled).
    assert by["no cross-page prefetch"] <= default + 0.01
    # A 4-bit latency field overflows constantly and hurts learning.
    assert by["4-bit latency field"] <= default + 0.01
