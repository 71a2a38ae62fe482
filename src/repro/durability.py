"""Shared crash-durability primitives for whole-file artifacts.

Three layers of the system persist whole-document JSON next to their
append-only journals: the fleet event manifest
(:mod:`repro.fleet.manifest`), the campaign supervisor's manifest
(:mod:`repro.runner.supervisor`), and the fuzzing campaign reports
(:mod:`repro.fuzz`).  The runner's checkpoint journal
(:mod:`repro.runner.journal`) and the simulator snapshots
(:mod:`repro.sanitizer.snapshot`) rewrite whole files the same way
through :func:`atomic_write_bytes`.  They all need the same three
guarantees:

* **atomic visibility** — readers never observe a half-written file
  (temp file + ``fsync`` + ``os.replace``);
* **durable renames** — the rename itself survives power loss where the
  platform allows it (``fsync`` of the containing directory);
* **tolerant reload** — a document written by an older, non-atomic
  writer (or truncated by a dying filesystem) is *healed* rather than
  silently discarded: the longest structurally complete prefix is
  recovered and the caller is told bytes were lost.

:func:`heal_truncated_json` is the torn-tail recovery: it scans the
prefix once to learn the open bracket/string state, then tries a
bounded number of cut points from the tail backwards, closing whatever
is open.  It is deliberately conservative — it only ever *removes*
trailing data and appends closers, so a healed document contains only
key/value pairs that were fully present in the bytes on disk.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional, Tuple

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "fsync_dir",
    "heal_truncated_json",
    "tolerant_read_json",
]


def fsync_dir(directory: str | Path) -> None:
    """Flush a directory's metadata (making a rename durable), best effort."""
    try:
        dir_fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so a crash leaves the old file or the new.

    Temp file ``.<name>-*.tmp`` in the target directory, ``flush`` +
    ``fsync``, then ``os.replace`` and a directory fsync.  The temp file
    is removed if anything fails before the rename.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=f".{path.name}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(path.parent)


def atomic_write_json(path: str | Path, doc: Any, indent: int = 2,
                      sort_keys: bool = True) -> None:
    """:func:`atomic_write_bytes` of ``doc`` as UTF-8 JSON."""
    atomic_write_bytes(path, json.dumps(doc, indent=indent,
                                        sort_keys=sort_keys).encode("utf-8"))


def _scan_state(text: str) -> Tuple[list, bool, bool]:
    """Bracket stack, in-string flag, and escape flag after ``text``."""
    stack: list = []
    in_string = False
    escaped = False
    for ch in text:
        if escaped:
            escaped = False
            continue
        if in_string:
            if ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch in "{[":
            stack.append(ch)
        elif ch == "}":
            if stack and stack[-1] == "{":
                stack.pop()
        elif ch == "]":
            if stack and stack[-1] == "[":
                stack.pop()
    return stack, in_string, escaped


def heal_truncated_json(raw: str | bytes,
                        max_attempts: int = 256) -> Optional[Any]:
    """Recover the longest parseable prefix of a torn JSON document.

    Returns the healed object, or ``None`` when nothing structurally
    complete survives (e.g. the file was cut inside the opening brace).
    A valid document is parsed unchanged.  Healing never invents data:
    cut points after a complete substructure (closing bracket) are
    tried first — so a torn array of objects heals to a verbatim
    prefix of its complete elements — then closing-quote/comma cuts
    for flat documents, and only closing brackets are ever appended.
    """
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8", errors="replace")
    raw = raw.rstrip()
    if not raw:
        return None
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        pass

    # Cut candidates, scanned from the tail.  Cuts after a closing
    # bracket are preferred: they drop a partially-written trailing
    # element *whole*, so for the array-of-objects manifests a healed
    # document is a verbatim prefix of the elements that were written
    # (never an object with half its keys).  Quote/comma cuts are the
    # fallback for flat documents with no complete substructure to
    # cut at.
    strong, weak = [], []
    for i in range(len(raw) - 1, 0, -1):
        if raw[i] in "}]":
            strong.append(i + 1)
        elif raw[i] == '"':
            weak.append(i + 1)
        elif raw[i] == ",":
            weak.append(i)
        if len(strong) >= max_attempts and len(weak) >= max_attempts:
            break
    for cut in strong[:max_attempts] + weak[:max_attempts]:
        prefix = raw[:cut].rstrip()
        # Drop a trailing comma / colon left dangling by the cut; a
        # dangling colon drags its key string down with it.
        while prefix and prefix[-1] in ",:":
            if prefix[-1] == ",":
                prefix = prefix[:-1].rstrip()
                continue
            prefix = prefix[:-1].rstrip()
            if not prefix.endswith('"'):
                prefix = ""
                break
            j = prefix.rfind('"', 0, len(prefix) - 1)
            while j > 0 and prefix[j - 1] == "\\":
                j = prefix.rfind('"', 0, j)
            if j < 0:
                prefix = ""
                break
            prefix = prefix[:j].rstrip()
        if not prefix:
            continue
        stack, in_string, escaped = _scan_state(prefix)
        if in_string or escaped:
            continue
        closers = "".join("}" if b == "{" else "]" for b in reversed(stack))
        try:
            return json.loads(prefix + closers)
        except json.JSONDecodeError:
            continue
    return None


def tolerant_read_json(path: str | Path) -> Tuple[Optional[Any], bool]:
    """Read a JSON document, healing a torn tail.

    Returns ``(doc, healed)``: ``doc`` is ``None`` when the file is
    missing or beyond recovery; ``healed`` is ``True`` when the strict
    parse failed and the torn-tail recovery produced the document (the
    caller should record that data was lost).
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError:
        return None, False
    try:
        return json.loads(raw.decode("utf-8")), False
    except (json.JSONDecodeError, UnicodeDecodeError):
        return heal_truncated_json(raw), True
