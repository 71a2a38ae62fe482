"""Host-speed probes for normalising host time.

On a shared host the same Python loop runs 20-40 % slower for seconds
at a time.  The benchmark therefore samples the host's speed while it
measures and scales each timing by how slow the host ran then:
``normalised = raw * NOMINAL / median(samples)``.  A change to the
simulator does not move the samples, so scaled figures of two commits
measured at different moments compare; they read as host time on a
host where a sample takes its nominal time.

* :func:`probe` (15 ms) runs between calls the benchmark times in its
  own process.
* :func:`tick` (0.5 ms) samples the host *during* work another process
  does while the benchmark waits for it (a set-up, a cold campaign).
  Samples taken only before and after such work track it poorly: over
  a 2.5 s cold campaign, scaling by them widened the leg-to-leg spread
  from 12 % to 25 %, while scaling by ticks every 50 ms cut it to 5 %.
  A tick takes ~1 % of the waited-on process's CPU.
"""

from __future__ import annotations

import hashlib
import json
import select
import statistics
import time
from typing import IO, Iterable, List

PROBE_LOOPS = 75_000
NOMINAL_S = 0.015
TICK_LOOPS = 5_000
TICK_NOMINAL_S = 0.0005
#: Seconds between ticks while waiting on another process.
TICK_EVERY_S = 0.05

#: A JSON document the probe serialises, hashes and parses: the
#: allocation-heavy kind of work the daemon and the marshal layer do.
_DOC = {f"k{i}": {"a": list(range(20)), "b": "x" * 30, "c": i * 1.5}
        for i in range(200)}


def probe() -> float:
    """Seconds a fixed mix of interpreter work takes now: an integer
    loop plus JSON encode/hash/decode (together they track the host's
    drift better than either alone)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    for _ in range(3):
        blob = json.dumps(_DOC, sort_keys=True).encode()
        hashlib.sha256(blob).hexdigest()
        json.loads(blob)
    return time.perf_counter() - t0


def slowness(probes: Iterable[float]) -> float:
    """How much slower than nominal the host ran during ``probes``."""
    return statistics.median(probes) / NOMINAL_S


def tick() -> float:
    """Seconds the probe's integer loop, cut to ``TICK_LOOPS``, takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(TICK_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def tick_slowness(ticks: Iterable[float]) -> float:
    """How much slower than nominal the host ran during ``ticks``."""
    return statistics.median(ticks) / TICK_NOMINAL_S


def ticks_until_readable(stream: IO[bytes], timeout: float) -> List[float]:
    """Tick every ``TICK_EVERY_S`` until ``stream`` has data (or EOF), for
    at most ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    ticks = [tick()]
    while not select.select([stream], [], [], TICK_EVERY_S)[0] \
            and time.monotonic() < deadline:
        ticks.append(tick())
    return ticks
