"""Crash-durable snapshot / bit-identical resume tests.

``simulate`` must return the same result with checkpointing enabled,
resumed from any checkpoint (including one inside the warmup window),
or resumed from a directory.  Corrupt, truncated, foreign, or
mismatched snapshots are rejected with a typed :class:`SnapshotError`
before any simulation state is touched.
"""

import json
import os

import pytest

from repro.errors import ConfigError, SnapshotError
from repro.prefetchers.registry import make_prefetcher
from repro.sanitizer import SanitizerConfig
from repro.sanitizer.lockstep import quick_trace
from repro.sanitizer.snapshot import (
    latest_snapshot,
    load_snapshot,
    snapshot_path,
    trace_digest,
)
from repro.simulator.engine import simulate


RECORDS = 1200  # warmup_end = 240 → snap-00000200 falls inside warmup


@pytest.fixture(scope="module")
def trace():
    return quick_trace(RECORDS, "snap_trace")


@pytest.fixture(scope="module")
def baseline(trace):
    return simulate(
        trace, l1d_prefetcher=make_prefetcher("berti")
    ).to_dict()


@pytest.fixture
def ckpt_dir(tmp_path, trace):
    """A directory of checkpoints every 200 records (one mid-warmup)."""
    d = tmp_path / "ckpts"
    d.mkdir()
    simulate(
        trace, l1d_prefetcher=make_prefetcher("berti"),
        snapshot_every=200, snapshot_dir=str(d),
    )
    return d


class TestBitIdenticalResume:
    def test_plain_call_matches_simulate(self, trace, baseline):
        res = simulate(
            trace, l1d_prefetcher=make_prefetcher("berti"),
            snapshot_every=0, snapshot_dir=None, resume_from=None,
            sanitize=None,
        )
        assert res.to_dict() == baseline

    def test_snapshotting_run_matches_simulate(self, trace, baseline,
                                               ckpt_dir):
        # The fixture already ran with snapshot_every=200; verify the
        # checkpoints exist and re-run to get the result itself.
        written = sorted(p.name for p in ckpt_dir.iterdir()
                         if p.suffix == ".ckpt")
        assert written == [f"snap-{i:08d}.ckpt"
                           for i in range(200, RECORDS, 200)]
        res = simulate(
            trace, l1d_prefetcher=make_prefetcher("berti"),
            snapshot_every=200, snapshot_dir=str(ckpt_dir),
        )
        assert res.to_dict() == baseline

    @pytest.mark.parametrize("index", [200, 400, 1000])
    def test_resume_from_each_checkpoint(self, trace, baseline, ckpt_dir,
                                         index):
        # index=200 resumes from *inside* the warmup window (end = 240):
        # the warmup-boundary reset must replay on the resumed side too.
        res = simulate(
            trace, resume_from=snapshot_path(str(ckpt_dir), index)
        )
        assert res.to_dict() == baseline

    def test_resume_from_directory_uses_latest(self, trace, baseline,
                                               ckpt_dir):
        assert latest_snapshot(str(ckpt_dir)).endswith("snap-00001000.ckpt")
        res = simulate(trace, resume_from=str(ckpt_dir))
        assert res.to_dict() == baseline

    def test_resumed_run_with_sanitizer_matches(self, trace, baseline,
                                                ckpt_dir):
        res = simulate(
            trace, resume_from=str(ckpt_dir),
            sanitize=SanitizerConfig(check_every=32),
        )
        assert res.to_dict() == baseline

    def test_snapshot_dir_created_if_missing(self, trace, baseline,
                                             tmp_path):
        d = tmp_path / "not" / "yet" / "there"
        res = simulate(
            trace, l1d_prefetcher=make_prefetcher("berti"),
            snapshot_every=500, snapshot_dir=str(d),
        )
        assert res.to_dict() == baseline
        assert latest_snapshot(str(d)) is not None

    def test_heartbeat_with_snapshots(self, trace, baseline, ckpt_dir,
                                      tmp_path):
        # Heartbeat cuts (every 150 records of each phase) interleave
        # with the snapshot cuts (multiples of 200) without moving them.
        d = tmp_path / "with-pings"
        pings = []
        res = simulate(
            trace, l1d_prefetcher=make_prefetcher("berti"),
            progress=pings.append, progress_every=150,
            snapshot_every=200, snapshot_dir=str(d),
        )
        assert res.to_dict() == baseline
        names = sorted(p.name for p in ckpt_dir.iterdir())
        assert sorted(p.name for p in d.iterdir()) == names
        for name in names:
            assert (d / name).read_bytes() == (ckpt_dir / name).read_bytes()
        assert all(a < b for a, b in zip(pings, pings[1:]))
        assert pings[-1] == len(trace)
        assert {150, 200, 240, 390} <= set(pings)

    def test_no_temp_files_left_behind(self, ckpt_dir):
        leftovers = [p for p in ckpt_dir.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestRejection:
    """Every malformed snapshot fails loudly with SnapshotError."""

    def _one(self, ckpt_dir, index=400):
        return snapshot_path(str(ckpt_dir), index)

    def test_corrupt_payload_rejected(self, trace, ckpt_dir):
        path = self._one(ckpt_dir)
        blob = bytearray(open(path, "rb").read())
        blob[-3] ^= 0xFF  # flip one payload bit
        open(path, "wb").write(bytes(blob))
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(path, trace=trace)

    def test_truncated_payload_rejected(self, trace, ckpt_dir):
        path = self._one(ckpt_dir)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path, trace=trace)

    def test_missing_header_rejected(self, trace, ckpt_dir):
        path = self._one(ckpt_dir)
        open(path, "wb").write(b"no newline so no header at all")
        with pytest.raises(SnapshotError, match="no header"):
            load_snapshot(path, trace=trace)

    def test_wrong_magic_rejected(self, trace, ckpt_dir):
        path = self._one(ckpt_dir)
        header, payload = open(path, "rb").read().split(b"\n", 1)
        meta = json.loads(header)
        meta["magic"] = "other-tool"
        open(path, "wb").write(
            json.dumps(meta).encode() + b"\n" + payload
        )
        with pytest.raises(SnapshotError, match="not a repro snapshot"):
            load_snapshot(path, trace=trace)

    def test_future_version_rejected(self, trace, ckpt_dir):
        # 4 (per-entry delta-table lists and victim heaps), 3 (per-set
        # TLB lists) and 2 (per-line cache objects) are earlier formats,
        # no longer readable; they are refused, not resumed into a crash.
        path = self._one(ckpt_dir)
        header, payload = open(path, "rb").read().split(b"\n", 1)
        meta = json.loads(header)
        for version in (99, 4, 3, 2):
            meta["version"] = version
            open(path, "wb").write(
                json.dumps(meta).encode() + b"\n" + payload
            )
            with pytest.raises(SnapshotError, match="version"):
                load_snapshot(path, trace=trace)

    def test_wrong_trace_rejected(self, ckpt_dir):
        with pytest.raises(SnapshotError, match="trace"):
            load_snapshot(self._one(ckpt_dir), trace=quick_trace(600))

    def test_wrong_prefetcher_rejected(self, trace, ckpt_dir):
        with pytest.raises(SnapshotError, match="prefetcher"):
            simulate(
                trace, l1d_prefetcher=make_prefetcher("bop"),
                resume_from=self._one(ckpt_dir),
            )

    def test_empty_directory_rejected(self, trace, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshots"):
            simulate(trace, resume_from=str(tmp_path))

    def test_snapshot_every_requires_dir(self, trace):
        with pytest.raises(ConfigError, match="snapshot_dir"):
            simulate(trace, snapshot_every=100)

    def test_negative_interval_rejected(self, trace):
        with pytest.raises(ConfigError, match="snapshot_every"):
            simulate(trace, snapshot_every=-1)


class TestTraceDigest:
    def test_digest_is_content_addressed(self):
        a = quick_trace(600)
        b = quick_trace(600)
        assert trace_digest(a) == trace_digest(b)
        assert trace_digest(a) != trace_digest(quick_trace(900))
