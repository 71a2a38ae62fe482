"""Bit-identity, demotion guards, and error mapping for ``repro.native``.

The native backend (``simulate(..., engine="native")``) runs the Berti
kernel hooks and the L1D/L2 demand ladder in a C shared object compiled
at first use.  Its contract is bit-identity: every counter, every
structural state, every snapshot byte must match the classic engine,
wherever warmup, heartbeats or snapshots cut the run into spans, and
anything the C side was not sized for must demote to the classic
per-record loop — never engage and silently diverge.

Tests that need the compiled kernel are skipped (not failed) on hosts
without a C compiler; the demotion/fallback tests run everywhere — that
*is* the pure-Python path.
"""

import pickle

import pytest

from repro.core.berti import BertiPrefetcher
from repro.errors import ConfigError, SimulationError, TraceError
from repro.memory.replacement import LRUPolicy
from repro.native import build as native_build
from repro.native.marshal import RIX
from repro.native.runner import (
    DEMOTION_REASONS,
    NativeRunner,
    make_native_runner,
    native_mode,
    non_stock_reason,
)
from repro.prefetchers.registry import make_prefetcher
from repro.sanitizer.lockstep import _state_digest, lockstep_engines, quick_trace
from repro.sanitizer.reference import to_reference
from repro.sanitizer.snapshot import simulate_with_snapshots, snapshot_path
from repro.simulator.engine import build_hierarchy, simulate
from repro.simulator.multicore import simulate_multicore
from repro.workloads.trace import Trace

RECORDS = 1200

_KERNEL_FN, _KERNEL_DIAG = native_build.kernel_available()
needs_kernel = pytest.mark.skipif(
    _KERNEL_FN is None, reason=f"no native kernel: {_KERNEL_DIAG}"
)


@pytest.fixture(scope="module")
def trace():
    return quick_trace(RECORDS, "native_trace")


def run(trace, l1d, engine, **kw):
    """simulate() capturing the hierarchy, for state-level comparison."""
    cap = {}
    res = simulate(
        trace, l1d_prefetcher=make_prefetcher(l1d),
        post_build=lambda h: cap.update(h=h),
        engine=engine, **kw,
    )
    return res, cap["h"]


class SilentSubclass(BertiPrefetcher):
    """A stock Berti in all but type, as a fault injector would be."""

    name = "berti"  # same registry name → same SimResult labels
    kernel_hooks = True


class BareSubclass(BertiPrefetcher):
    """A Berti subclass that does not re-declare the kernel opt-ins."""

    name = "berti"


def strip_native(result_dict):
    """Drop the reporting-only ``native_*`` extra markers."""
    d = dict(result_dict)
    d["extra"] = {k: v for k, v in d.get("extra", {}).items()
                  if not k.startswith("native")}
    return d


@needs_kernel
class TestBitIdentity:
    @pytest.mark.parametrize("l1d", ["none", "berti"])
    def test_native_matches_classic(self, trace, l1d):
        rc, hc = run(trace, l1d, "classic")
        rn, hn = run(trace, l1d, "native")
        assert rn.extra["native_spans"] > 0
        assert rn.extra["native_demoted_spans"] == 0
        assert strip_native(rn.to_dict()) == rc.to_dict()
        assert _state_digest(hn) == _state_digest(hc)
        assert pickle.dumps(hn) == pickle.dumps(hc)

    @pytest.mark.parametrize(
        "l1d", ["none", "berti", "berti_page", "ip_stride"]
    )
    def test_engines_identical(self, trace, l1d):
        # From a cold TLB, so page walks run inside the spans too.  The
        # prefetchers the kernel does not implement demote to classic.
        rc, hc = run(trace, l1d, "classic", prewarm_tlb=False)
        rn, hn = run(trace, l1d, "native", prewarm_tlb=False)
        if l1d in ("none", "berti"):
            assert rn.extra["native_demoted_spans"] == 0
        else:
            assert rn.extra["native_spans"] == 0
            assert rn.extra["native_demotion_code"] == 3.0
        assert strip_native(rn.to_dict()) == rc.to_dict()
        assert _state_digest(hn) == _state_digest(hc)
        assert pickle.dumps(hn) == pickle.dumps(hc)

    @pytest.mark.parametrize("every", [1, 17, 333, 10**9])
    def test_span_cut_invariant(self, trace, every):
        # Heartbeats cut the run into spans of `every` records; each cut
        # is a marshal round-trip that must be invisible.  10**9 leaves
        # one span per phase.
        rc, hc = run(trace, "berti", "classic")
        rn, hn = run(trace, "berti", "native", progress=lambda i: None,
                     progress_every=every)
        assert rn.extra["native_spans"] == -(-240 // every) + -(-960 // every)
        assert strip_native(rn.to_dict()) == rc.to_dict()
        assert _state_digest(hn) == _state_digest(hc)

    @pytest.mark.parametrize("at", [0, 1, 600, 1199])
    def test_forced_mid_run_demotion_matches(self, trace, at):
        # Spans after `at` fall back to the classic loop: the marshal
        # round-trip at the switch point must be lossless.
        rc, hc = run(trace, "berti", "classic")
        rn, hn = run(trace, "berti", "native", native_demote_at=at)
        assert rn.extra["native_demoted_spans"] > 0
        assert rn.extra["native_demotion_code"] == 5.0
        assert strip_native(rn.to_dict()) == rc.to_dict()
        assert pickle.dumps(hn) == pickle.dumps(hc)

    def test_lockstep_engines_native(self, trace):
        report = lockstep_engines(trace, l1d="berti")
        assert report.ok, report.describe()
        assert report.engine == "native"

    def test_lockstep_detects_planted_divergence(self, trace):
        report = lockstep_engines(trace, l1d="berti", seed_divergence=700)
        assert not report.ok
        assert report.diverged_at is not None


@needs_kernel
class TestSpanEdges:
    """Where warmup, heartbeats and short traces cut the native spans."""

    def test_warmup_boundary_mid_span(self, trace):
        # warmup_end = 600 falls inside the heartbeat span [333, 666).
        pings = {"classic": [], "native": []}
        results = {}
        for engine in ("classic", "native"):
            results[engine] = simulate(
                trace, l1d_prefetcher=make_prefetcher("berti"),
                warmup_fraction=0.5, progress=pings[engine].append,
                progress_every=333, engine=engine,
            ).to_dict()
        assert pings["native"] == pings["classic"] == [333, 600, 933, 1200]
        assert strip_native(results["native"]) == results["classic"]

    def test_trace_shorter_than_one_span(self):
        short = quick_trace(50, "short_trace")
        rc, hc = run(short, "berti", "classic")
        rn, hn = run(short, "berti", "native", progress=lambda i: None,
                     progress_every=1024)
        assert rn.extra["native_spans"] == 2  # warmup + measured
        assert strip_native(rn.to_dict()) == rc.to_dict()
        assert _state_digest(hn) == _state_digest(hc)

    def test_progress_every_off_span_edges(self, trace):
        # 7 divides neither the warmup boundary (240) nor the trace.
        pings = {"classic": [], "native": []}
        results = {}
        for engine in ("classic", "native"):
            results[engine] = simulate(
                trace, l1d_prefetcher=make_prefetcher("berti"),
                progress=pings[engine].append, progress_every=7,
                engine=engine,
            ).to_dict()
        assert pings["native"] == pings["classic"]
        assert strip_native(results["native"]) == results["classic"]


@needs_kernel
class TestLockstepEngines:
    def test_all_quick_prefetchers_agree(self, trace):
        labels = {}
        for l1d in ("none", "berti", "berti_page", "ip_stride"):
            report = lockstep_engines(trace, l1d=l1d)
            assert report.ok, report.describe()
            assert report.kind == "engines"
            assert "and classic" in report.describe()
            labels[l1d] = report.engine
        assert labels == {"none": "native", "berti": "native",
                          "berti_page": "native[demoted]",
                          "ip_stride": "native[demoted]"}

    def test_small_chunk_runs_per_record(self, trace):
        report = lockstep_engines(trace, l1d="berti", chunk_size=1)
        assert report.ok, report.describe()


class TestValidationAndEmptyTrace:
    @pytest.mark.parametrize("engine", ["vectorized", "batched"])
    def test_unknown_engine_rejected(self, trace, engine):
        with pytest.raises(ConfigError) as exc:
            simulate(trace, engine=engine)
        assert exc.value.context()["field"] == "engine"

    def test_unknown_engine_rejected_in_snapshots(self, trace):
        with pytest.raises(ConfigError) as exc:
            simulate_with_snapshots(trace, engine="batched")
        assert exc.value.context()["field"] == "engine"

    @pytest.mark.parametrize("engine", ["classic", "native"])
    def test_empty_trace_raises_trace_error(self, engine):
        with pytest.raises(TraceError):
            simulate(Trace("empty"), engine=engine)

    @pytest.mark.parametrize("engine", ["classic", "native"])
    def test_empty_trace_raises_in_snapshot_runner(self, engine):
        with pytest.raises(TraceError):
            simulate_with_snapshots(Trace("empty"), engine=engine)

    def test_empty_trace_raises_in_multicore(self, trace):
        with pytest.raises(TraceError):
            simulate_multicore([trace, Trace("empty")])


@needs_kernel
class TestSnapshots:
    def assert_same_snapshot_bytes(self, trace, tmp_path, every):
        """Snapshot every `every` records on both engines; return the
        file names after checking that each file is byte-identical."""
        paths = {}
        for engine in ("classic", "native"):
            d = tmp_path / engine
            d.mkdir()
            simulate_with_snapshots(
                trace, l1d_prefetcher=make_prefetcher("berti"),
                snapshot_every=every, snapshot_dir=str(d), engine=engine,
            )
            paths[engine] = sorted(p.name for p in d.iterdir())
        assert paths["native"] == paths["classic"] != []
        for name in paths["classic"]:
            classic = (tmp_path / "classic" / name).read_bytes()
            native = (tmp_path / "native" / name).read_bytes()
            assert native == classic, f"snapshot {name} differs"
        return paths["classic"]

    def test_snapshot_files_byte_identical_across_engines(
        self, trace, tmp_path
    ):
        self.assert_same_snapshot_bytes(trace, tmp_path, 333)

    def test_warmup_snapshots_byte_identical_across_engines(
        self, trace, tmp_path
    ):
        # Snapshots at 100 and 200 precede the warmup reset at 240.
        names = self.assert_same_snapshot_bytes(trace, tmp_path, 100)
        assert names[:3] == [snapshot_path("", i) for i in (100, 200, 300)]

    def resumed(self, trace, tmp_path, writer, resumer, index):
        """Snapshot every `index` records under `writer`, then resume
        from the snapshot at `index` under `resumer`."""
        d = tmp_path / "ckpts"
        d.mkdir()
        simulate_with_snapshots(
            trace, l1d_prefetcher=make_prefetcher("berti"),
            snapshot_every=index, snapshot_dir=str(d), engine=writer,
        )
        return simulate_with_snapshots(
            trace, l1d_prefetcher=make_prefetcher("berti"),
            resume_from=snapshot_path(str(d), index), engine=resumer,
        ).to_dict()

    @pytest.mark.parametrize(
        "writer,resumer",
        [("classic", "native"), ("native", "classic"), ("native", "native")],
    )
    def test_resume_across_backends(self, trace, tmp_path, writer, resumer):
        baseline = simulate(
            trace, l1d_prefetcher=make_prefetcher("berti")
        ).to_dict()
        resumed = self.resumed(trace, tmp_path, writer, resumer, 333)
        assert strip_native(resumed) == baseline

    @pytest.mark.parametrize("index", [100, 1024])  # warmup / measured
    def test_resume_across_engines(self, trace, tmp_path, index):
        baseline = simulate(
            trace, l1d_prefetcher=make_prefetcher("berti")
        ).to_dict()
        resumed = self.resumed(trace, tmp_path, "classic", "native", index)
        assert strip_native(resumed) == baseline


class TestDemotionGuards:
    """The kernel must never engage against anything non-stock."""

    def make_parts(self, l1d="berti", l2=None):
        from repro.cpu.core_model import CoreModel
        from repro.simulator.config import default_config

        cfg = default_config()
        h = build_hierarchy(
            cfg,
            l1d if not isinstance(l1d, str) else make_prefetcher(l1d),
            make_prefetcher(l2) if isinstance(l2, str) else l2,
        )
        return h, CoreModel(cfg.core)

    def test_stock_berti_is_native_ok(self):
        h, core = self.make_parts()
        ok, code, _ = native_mode(h, core)
        assert ok and code == 0

    def test_no_prefetcher_is_native_ok(self):
        h, core = self.make_parts("none")
        assert native_mode(h, core) == (True, 0, "")

    def test_fault_injection_subclass_demotes(self):
        h, core = self.make_parts(SilentSubclass())
        ok, code, detail = native_mode(h, core)
        assert not ok and code == 3
        assert DEMOTION_REASONS[code] == "unsupported-prefetcher"
        assert "SilentSubclass" in detail

    def test_wrapped_demand_access_demotes(self):
        h, core = self.make_parts()
        inner = h.demand_access
        h.demand_access = (
            lambda ip, vaddr, now, is_write=False:
            inner(ip, vaddr, now, is_write)
        )
        ok, code, _ = native_mode(h, core)
        assert not ok and code == 2

    def test_l2_prefetcher_demotes(self):
        h, core = self.make_parts(l2="spp")
        ok, code, _ = native_mode(h, core)
        assert not ok and code == 2

    def test_replacement_subclass_demotes(self):
        class TracingLRU(LRUPolicy):
            pass

        h, core = self.make_parts()
        h.l1d.policy = TracingLRU(1, 1)  # only the type is inspected
        ok, code, detail = native_mode(h, core)
        assert not ok and code == 4
        assert "TracingLRU" in detail

    def test_oversized_delta_geometry_demotes(self):
        from repro.core.config import BertiConfig

        pf = BertiPrefetcher(BertiConfig(deltas_per_entry=65,
                                         delta_table_entries=16))
        h, core = self.make_parts(pf)
        ok, code, detail = native_mode(h, core)
        assert not ok and code == 3
        assert "geometry" in detail

    def test_reference_hierarchy_demotes(self):
        h, core = self.make_parts()
        to_reference(h)
        ok, code, _ = native_mode(h, core)
        assert not ok and code == 2

    NON_STOCK_REASONS = {
        "stock_berti": "",
        "wrapped_demand_access": "demand_access is wrapped",
        "l2_prefetcher": "L2 prefetcher SPPPrefetcher",
    }

    @pytest.mark.parametrize("case", list(NON_STOCK_REASONS))
    def test_non_stock_reason(self, case):
        # The stock-hierarchy guard native_mode starts from, which the
        # benchmark's batch_mode shim also returns.
        h, core = self.make_parts(
            l2="spp" if case == "l2_prefetcher" else None)
        if case == "wrapped_demand_access":
            inner = h.demand_access
            h.demand_access = (
                lambda ip, vaddr, now, is_write=False:
                inner(ip, vaddr, now, is_write)
            )
        reason = self.NON_STOCK_REASONS[case]
        got = non_stock_reason(h, core)
        assert reason in got if reason else got == ""

    @pytest.mark.parametrize(
        "variant,code", [("to_reference", 2), ("subclass", 3),
                         ("bare_subclass", 3), ("berti_page", 3)]
    )
    def test_demotes_with_code_and_matches_classic(self, trace, variant,
                                                   code):
        def pf():
            cls = {"subclass": SilentSubclass,
                   "bare_subclass": BareSubclass}.get(variant)
            if cls is not None:
                return cls()
            return make_prefetcher(
                "berti_page" if variant == "berti_page" else "berti")

        hook = to_reference if variant == "to_reference" else None
        classic = simulate(trace, l1d_prefetcher=pf(), post_build=hook)
        native = simulate(trace, l1d_prefetcher=pf(), post_build=hook,
                          engine="native")
        assert native.extra["native_spans"] == 0
        # No kernel at all demotes first, as no-compiler.
        expected = code if _KERNEL_FN is not None else 1
        assert native.extra["native_demotion_code"] == float(expected)
        assert strip_native(native.to_dict()) == classic.to_dict()

    @pytest.mark.parametrize("every", [1, 7, 333, 10**9])
    def test_demoted_span_cut_invariant(self, trace, every):
        # Each demoted span builds its own classic runner; heartbeat cuts
        # between them must be as invisible as native span cuts.
        rc, hc = run(trace, "berti_page", "classic")
        rn, hn = run(trace, "berti_page", "native", progress=lambda i: None,
                     progress_every=every)
        assert rn.extra["native_spans"] == 0
        assert (rn.extra["native_demoted_spans"]
                == -(-240 // every) + -(-960 // every))
        assert strip_native(rn.to_dict()) == rc.to_dict()
        assert pickle.dumps(hn) == pickle.dumps(hc)

    def test_sanitized_snapshot_run_matches_plain(self, trace):
        from repro.sanitizer import SanitizerConfig

        plain = simulate(
            trace, l1d_prefetcher=make_prefetcher("berti")
        ).to_dict()
        sanitized = simulate_with_snapshots(
            trace, l1d_prefetcher=make_prefetcher("berti"),
            sanitize=SanitizerConfig(check_every=64), engine="native",
        ).to_dict()
        assert sanitized == plain

    def test_demoted_run_still_matches_classic(self, ):
        # A config the kernel refuses must still produce classic-identical
        # results through the native entry point (via the classic loop).
        t = quick_trace(400, "native_demoted")
        classic = simulate(
            t, l1d_prefetcher=make_prefetcher("berti"),
            l2_prefetcher=make_prefetcher("spp"), engine="classic",
        ).to_dict()
        native = simulate(
            t, l1d_prefetcher=make_prefetcher("berti"),
            l2_prefetcher=make_prefetcher("spp"), engine="native",
        )
        assert native.extra["native_spans"] == 0
        assert native.extra["native_demoted"] == 1.0
        assert strip_native(native.to_dict()) == classic

    def test_guard_clearing_resumes_native_with_full_reexport(self):
        # native span -> demoted span (guard trips) -> native span again.
        # The demoted span mutates the Python cache objects directly, so
        # the third span must re-export the full state (mark_stale path)
        # and still land bit-identical with a pure classic run.
        from repro.cpu.core_model import CoreModel
        from repro.simulator.config import default_config

        t = quick_trace(1200, "native_flipflop")
        cfg = default_config()
        hn = build_hierarchy(cfg, make_prefetcher("berti"), None)
        runner = make_native_runner(t, hn, CoreModel(cfg.core))
        if runner._fn is None:
            pytest.skip(f"no native kernel: {runner.compiler_diagnostic}")
        core = runner.core
        runner(0, 400)
        inner = hn.demand_access
        calls = []

        def wrapped(ip, vaddr, now, is_write=False):
            calls.append(ip)
            return inner(ip, vaddr, now, is_write)

        hn.demand_access = wrapped
        runner(400, 800)
        # The demoted span runs through the wrapper that demoted it.
        assert len(calls) == 400
        del hn.demand_access  # restore the class method: guard clears
        runner(800, 1200)
        assert runner.native_spans == 2
        assert runner.demoted_spans == 1

        hc = build_hierarchy(default_config(), make_prefetcher("berti"), None)
        cc = CoreModel(default_config().core)
        ips, addrs, writes, gaps, deps = t.columns()
        for i in range(1200):
            if gaps[i]:
                cc.advance_nonmem(gaps[i])
            cc.issue_memory(hc.demand_access, ips[i], addrs[i],
                            bool(writes[i]), deps[i])
        assert _state_digest(hn) == _state_digest(hc)
        assert pickle.dumps(hn) == pickle.dumps(hc)

    def test_negative_addresses_demote(self):
        t = Trace("negative_addrs")
        t.extend([(0x400, -4096 * (i + 1), False, 1, 0)
                  for i in range(64)])
        h, core = self.make_parts()
        runner = make_native_runner(t, h, core)
        runner(0, len(t))
        assert runner.native_spans == 0
        assert runner.demoted_spans == 1
        assert runner.demotion_code == 2


class TestCompilerFallback:
    """The pure-Python path when no compiler exists on the host."""

    @pytest.fixture
    def no_compiler(self, monkeypatch):
        native_build.reset_build_cache()
        monkeypatch.setattr(native_build, "find_compiler", lambda: None)
        monkeypatch.setattr(native_build, "cache_dir",
                            lambda: native_build.Path("/nonexistent/repro"))
        yield
        native_build.reset_build_cache()

    def test_auto_demotes_with_structured_reason(self, no_compiler):
        t = quick_trace(300, "no_cc_auto")
        classic = simulate(
            t, l1d_prefetcher=make_prefetcher("berti"), engine="classic"
        ).to_dict()
        res = simulate(
            t, l1d_prefetcher=make_prefetcher("berti"), engine="native"
        )
        assert res.extra["native_spans"] == 0
        assert res.extra["native_demotion_code"] == 1.0
        assert DEMOTION_REASONS[1] == "no-compiler"
        assert strip_native(res.to_dict()) == classic

    def test_force_raises_config_error_with_diagnostic(self, no_compiler):
        t = quick_trace(300, "no_cc_force")
        with pytest.raises(ConfigError) as exc:
            simulate(t, l1d_prefetcher=make_prefetcher("berti"),
                     engine="native", native="force")
        assert exc.value.context()["field"] == "engine"
        assert "no C compiler" in str(exc.value)

    def test_off_policy_rejected(self, trace):
        with pytest.raises(ConfigError) as exc:
            simulate(trace, engine="native", native="off")
        assert exc.value.context()["field"] == "native"

    def test_unknown_native_policy_rejected(self, trace):
        with pytest.raises(ConfigError) as exc:
            simulate(trace, engine="native", native="eventually")
        assert exc.value.context()["field"] == "native"


@needs_kernel
class TestErrorMapping:
    """rc != 0 from the kernel maps to the classic loop's exceptions."""

    def make_runner(self, trace):
        from repro.cpu.core_model import CoreModel
        from repro.simulator.config import default_config

        cfg = default_config()
        h = build_hierarchy(cfg, make_prefetcher("berti"), None)
        return make_native_runner(trace, h, CoreModel(cfg.core))

    def _run_with_rc(self, monkeypatch, rc, a=3, b=3, c=777, d=0x40):
        t = quick_trace(200, "err_map")
        runner = self.make_runner(t)

        def fake_call_span(fn, state):
            R = state.R
            R[RIX["ERR_A"]], R[RIX["ERR_B"]] = a, b
            R[RIX["ERR_C"]], R[RIX["ERR_D"]] = c, d
            return rc

        monkeypatch.setattr(native_build, "call_span", fake_call_span)
        runner(0, len(t))
        return runner

    def test_mshr_full_message_matches_python_engine(self, monkeypatch):
        # Byte-for-byte the message MSHR.allocate raises, so the fuzz
        # triage fingerprints agree across engines.
        from repro.memory.mshr import MSHR

        with pytest.raises(SimulationError) as native_exc:
            self._run_with_rc(monkeypatch, rc=1, a=3, b=3, c=777, d=0x40)
        mshr = MSHR(size=3)
        for i in range(3):
            mshr.allocate(0x100 + i, now=777, ready_cycle=1000,
                          is_prefetch=False)
        with pytest.raises(SimulationError) as python_exc:
            mshr.allocate(0x40, now=777, ready_cycle=1000,
                          is_prefetch=False)
        assert str(native_exc.value) == str(python_exc.value)
        assert native_exc.value.context()["field"] == "mshr"

    def test_internal_error_rc_is_typed(self, monkeypatch):
        with pytest.raises(SimulationError) as exc:
            self._run_with_rc(monkeypatch, rc=9)
        assert exc.value.context()["field"] == "engine"
        assert "internal error 9" in str(exc.value)


@needs_kernel
class TestPredecodeSharing:
    """The NumPy pre-decode the kernel reads is cached on the trace."""

    def test_decoded_columns_cached_and_plain_int(self, trace):
        vlines1, vpages1 = trace.decoded_columns()
        vlines2, vpages2 = trace.decoded_columns()
        assert vpages1 is vpages2  # memoised
        assert len(vlines1) == len(trace)
        assert type(vpages1[0]) is int

    def test_decoded_columns_track_appends(self):
        t = Trace("growing")
        t.extend([(0x400, 0x1000 * i, False, 1, 0) for i in range(8)])
        _, pages = t.decoded_columns()
        assert len(pages) == 8
        t.extend([(0x400, 0x9000, False, 1, 0)])
        _, pages = t.decoded_columns()
        assert len(pages) == 9
        assert pages[-1] == 0x9000 >> 12
