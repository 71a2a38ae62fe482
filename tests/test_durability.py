"""Crash-durability primitives and the manifests built on them.

Covers ``repro.durability`` directly (atomic write, torn-tail healing,
the append-only record log) and the two manifests that adopted the
whole-file writer: the fleet manifest and the supervisor campaign
manifest — both must survive a torn write with a healed prefix instead
of an unreadable file.  The record log's replay contract is pinned by
``tests/test_service.py::TestServiceWAL``.
"""

import errno
import json
import os

import pytest

from repro.durability import (
    RecordLog,
    atomic_write_json,
    canonical_json,
    crc32_of,
    encode_frame,
    heal_truncated_json,
    read_log,
    tolerant_read_json,
)


# ----------------------------------------------------------------------
# The append-only record log
# ----------------------------------------------------------------------


def test_frame_bytes_are_the_canonical_frame():
    rec = {"type": "lease", "b": [1, {"z": 0, "a": "x"}]}
    frame = {"seq": 7, "crc": crc32_of(rec), "rec": rec}
    assert encode_frame(7, rec) == (canonical_json(frame) + "\n").encode()


def _failing_pwrite(monkeypatch, written_share):
    """Make the next ``os.pwrite`` write ``written_share`` of its bytes
    and then raise ENOSPC; later calls write normally."""
    real = os.pwrite
    armed = [True]

    def pwrite(fd, data, offset):
        if not armed[0]:
            return real(fd, data, offset)
        armed[0] = False
        part = bytes(data)[:int(len(data) * written_share)]
        if part:
            real(fd, part, offset)
        raise OSError(errno.ENOSPC, "No space left on device (injected)")

    monkeypatch.setattr(os, "pwrite", pwrite)


@pytest.mark.parametrize("written_share", [0.5, 0.0],
                         ids=["half-a-frame", "nothing"])
def test_failed_append_loses_no_acknowledged_record(tmp_path, monkeypatch,
                                                    written_share):
    path = tmp_path / "w.wal"
    log = RecordLog(path)
    acked = []
    for rec in ({"n": "a"}, {"n": "b"}):
        log.append(rec)
        acked.append(rec)
    _failing_pwrite(monkeypatch, written_share)
    with pytest.raises(OSError):
        log.append({"n": "lost"})
    for rec in ({"n": "c"}, {"n": "d"}):
        assert log.append(rec) == len(acked) + 1
        acked.append(rec)
    log.close()
    assert read_log(path) == acked
    assert RecordLog(path).replay() == acked


def test_failed_fsync_is_cut_back(tmp_path, monkeypatch):
    path = tmp_path / "w.wal"
    log = RecordLog(path)
    log.append({"n": "a"})
    size = path.stat().st_size

    def failing_fsync(fd):
        raise OSError(errno.EIO, "injected")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError):
        log.append({"n": "lost"})
    assert path.stat().st_size == size
    monkeypatch.undo()
    assert log.append({"n": "b"}) == 2
    log.close()
    assert read_log(path) == [{"n": "a"}, {"n": "b"}]


def test_read_log_leaves_a_torn_tail_on_disk(tmp_path):
    path = tmp_path / "w.wal"
    log = RecordLog(path)
    for n in range(3):
        log.append({"n": n})
    log.close()
    torn = path.read_bytes()[:-9]
    path.write_bytes(torn)
    assert read_log(path) == [{"n": 0}, {"n": 1}]
    assert path.read_bytes() == torn  # a checker never writes
    assert read_log(tmp_path / "missing.wal") == []


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------


def test_atomic_write_json_roundtrip(tmp_path):
    path = tmp_path / "doc.json"
    atomic_write_json(path, {"b": 2, "a": [1, 2]})
    assert json.loads(path.read_text()) == {"a": [1, 2], "b": 2}
    # Overwrite is atomic replace, not append.
    atomic_write_json(path, {"only": True})
    assert json.loads(path.read_text()) == {"only": True}
    assert not list(tmp_path.glob("*.tmp*"))  # no temp litter


@pytest.mark.parametrize("writer", ["resultcache_put", "trace_store"])
def test_whole_file_writers_fsync_their_directory(tmp_path, monkeypatch,
                                                  writer):
    # Without the directory fsync a power loss can lose the rename that
    # published the file.
    from repro import durability

    synced = []
    monkeypatch.setattr(durability, "fsync_dir",
                        lambda d: synced.append(str(d)))
    if writer == "resultcache_put":
        from repro.service.resultcache import ResultCache

        target = tmp_path / "cache"
        ResultCache(target).put("f" * 64, {"ipc": 1.25})
    else:
        from repro.memory.tracestore import write_trace_store
        from repro.sanitizer.lockstep import quick_trace

        target = tmp_path / "stores"
        write_trace_store(quick_trace(60), target / "quick.trc")
    assert synced == [str(target)]


@pytest.mark.parametrize("cut_frac", [0.3, 0.5, 0.7, 0.9, 0.99])
def test_heal_truncated_json_recovers_a_prefix(cut_frac):
    doc = {"events": [{"event": f"e{i}", "at": i, "note": 'x"y'}
                      for i in range(20)], "version": 1}
    raw = json.dumps(doc, indent=2)
    cut = raw[:int(len(raw) * cut_frac)]
    recovered = heal_truncated_json(cut)
    assert isinstance(recovered, dict)
    events = recovered.get("events", [])
    # Every recovered event is verbatim one of the originals, in order.
    assert events == doc["events"][:len(events)]


def test_heal_truncated_json_intact_and_hopeless():
    assert heal_truncated_json(json.dumps({"a": 1})) == {"a": 1}
    assert heal_truncated_json("####") is None
    # Flat object torn mid-key: falls back to the last complete pair.
    assert heal_truncated_json('{"a": 1, "b') == {"a": 1}


def test_tolerant_read_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"events": [1, 2, 3]}))
    doc, healed = tolerant_read_json(path)
    assert doc == {"events": [1, 2, 3]} and healed is False
    path.write_text(json.dumps({"events": [1, 2, 3]})[:-6])
    doc, healed = tolerant_read_json(path)
    assert healed is True
    assert isinstance(doc, dict)


# ----------------------------------------------------------------------
# Fleet manifest
# ----------------------------------------------------------------------


def test_fleet_manifest_heals_torn_tail(tmp_path):
    from repro.fleet.manifest import FleetManifest

    path = tmp_path / "fleet-manifest.json"
    m = FleetManifest(path)
    for i in range(6):
        m.record(f"event-{i}", worker=f"w{i}")
    raw = path.read_text()
    path.write_text(raw[:len(raw) // 2])  # torn mid-write

    reloaded = FleetManifest(path)
    events = [e["event"] for e in reloaded.events()]
    assert events[-1] == "manifest-healed"
    recovered = [e for e in events if e.startswith("event-")]
    assert recovered == [f"event-{i}" for i in range(len(recovered))]
    # The healed manifest is immediately writable again.
    reloaded.record("after-heal")
    assert json.loads(path.read_text())


def test_fleet_manifest_unrecoverable_garbage(tmp_path):
    from repro.fleet.manifest import FleetManifest

    path = tmp_path / "fleet-manifest.json"
    path.write_text("\x00\x01 not json at all")
    m = FleetManifest(path)
    events = [e["event"] for e in m.events()]
    assert events == ["manifest-unrecoverable"]


# ----------------------------------------------------------------------
# Supervisor campaign manifest
# ----------------------------------------------------------------------


def test_campaign_manifest_heals_torn_tail(tmp_path):
    from repro.runner.supervisor import load_campaign_manifest

    path = tmp_path / "campaign.manifest.json"
    doc = {"campaign": "c1",
           "jobs": [{"trace": f"t{i}", "status": "done"}
                    for i in range(10)]}
    atomic_write_json(path, doc)
    loaded, healed = load_campaign_manifest(path)
    assert loaded == doc and healed is False

    raw = path.read_text()
    path.write_text(raw[:int(len(raw) * 0.6)])
    loaded, healed = load_campaign_manifest(path)
    assert healed is True
    assert loaded is not None and loaded.get("campaign") == "c1"
    jobs = loaded.get("jobs", [])
    assert jobs == doc["jobs"][:len(jobs)]
