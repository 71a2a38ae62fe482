"""Content-addressed, checksum-verified result cache.

The campaign service memoizes every finished simulation under a
**content key**: the SHA-256 of the job's trace identity (the digest of
its mapped ``.trc`` store when one is used, else the deterministic
catalog identity) combined with the canonicalized system/prefetcher
configuration.  Two submissions that would simulate the same bytes with
the same knobs share one cache entry — that is what makes duplicate
submission idempotent and large sweeps recoverable.

Entries are single JSON files written atomically
(:func:`~repro.durability.atomic_write_bytes`: temp + fsync + rename +
directory fsync) carrying a CRC32 over the canonical payload encoding.
**Every read re-verifies the checksum**; an entry that fails is
*quarantined* — renamed aside with a ``.quarantined-N`` suffix for
post-mortem, never deleted, and above all never served — and the typed
:class:`~repro.errors.CacheCorruption` tells the scheduler to recompute.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.durability import atomic_write_bytes, canonical_json, crc32_of
from repro.errors import CacheCorruption

__all__ = ["ResultCache", "content_key"]


def content_key(trace_digest: str, config: Dict[str, Any]) -> str:
    """SHA-256 content hash of one (trace identity, canonical config).

    ``config`` must already be a plain JSON-able dict (the daemon
    canonicalizes the :class:`~repro.runner.jobs.JobSpec` knobs that
    change simulation output — prefetchers, scale, mtps, warmup — plus
    the resolved SystemConfig/BertiConfig field values, so a config
    default bump changes the key instead of serving stale results).
    """
    blob = canonical_json({"trace": trace_digest, "config": config})
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


class ResultCache:
    """Directory of ``<key>.json`` entries, verified on every read."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def _entry(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def has(self, key: str) -> bool:
        return self._entry(key).exists()

    def put(self, key: str, payload: Dict[str, Any]) -> Path:
        """Atomically store ``payload`` under ``key`` with its CRC32.

        Re-putting a key overwrites — simulation is deterministic, so a
        recompute writes identical bytes and the overwrite is harmless
        (this is how a quarantined entry heals).
        """
        path = self._entry(key)
        body = canonical_json(
            {"key": key, "crc": crc32_of(payload), "payload": payload}
        )
        atomic_write_bytes(path, body.encode("ascii"))
        return path

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The verified payload for ``key``, or ``None`` if absent.

        Raises :class:`~repro.errors.CacheCorruption` — after moving the
        entry to quarantine — when the stored CRC does not match the
        payload bytes; the caller must recompute, never serve.
        """
        path = self._entry(key)
        try:
            raw = path.read_text(encoding="ascii")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, UnicodeDecodeError) as exc:
            raise self._quarantine(key, f"unreadable entry: {exc}")
        try:
            entry = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise self._quarantine(key, f"entry is not JSON: {exc}")
        if (not isinstance(entry, dict) or entry.get("key") != key
                or "payload" not in entry):
            raise self._quarantine(key, "entry body does not match its key")
        if not isinstance(entry["payload"], dict):
            raise self._quarantine(
                key,
                f"payload is a {type(entry['payload']).__name__}, "
                f"not a result object",
            )
        if entry.get("crc") != crc32_of(entry["payload"]):
            raise self._quarantine(
                key,
                f"checksum mismatch (stored {entry.get('crc')}, "
                f"recomputed {crc32_of(entry['payload'])})",
            )
        self.hits += 1
        return entry["payload"]

    def _quarantine(self, key: str, reason: str) -> CacheCorruption:
        """Move the bad entry aside; returns the error to raise."""
        path = self._entry(key)
        n = 0
        dest = path.with_name(f"{path.name}.quarantined-{n}")
        while dest.exists():
            n += 1
            dest = path.with_name(f"{path.name}.quarantined-{n}")
        try:
            os.replace(path, dest)
        except OSError:
            dest = None  # entry vanished mid-read; nothing to preserve
        self.quarantined += 1
        return CacheCorruption(
            f"result-cache entry {key[:12]}… failed verification "
            f"({reason}); "
            + (f"quarantined to {dest.name}, " if dest else "")
            + "recomputing instead of serving",
            field="result_cache",
        )

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "quarantined": self.quarantined,
            "entries": sum(1 for p in self.root.glob("*.json")),
        }
