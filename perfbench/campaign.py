"""The ``campaign`` workload: ``repro serve --workers 1`` and one client.

Set-up converts the seed-drawn traces into trace stores (a child
process: imports, generation, ``write_trace_store``) and boots the
daemon in its own process until its endpoint answers.  Then one client
(this process, ``repro.service.ServiceClient``) runs a closed loop with
one request in flight:

* cold -- submit one campaign, poll its status to done, fetch results
  (on each set-up's fresh daemon);
* hit  -- resubmit the same jobs under a fresh idempotency key, which
  the result cache serves entirely, and fetch results; timed
  submit -> results each time.

The client opens a connection per request, as ``repro submit`` and
``repro fetch`` do.  (On one keep-alive connection a cached resubmission
took ~92 ms instead of ~8 ms: the daemon sends response headers and body
in separate writes, so Nagle's algorithm waits out the client's delayed
ACK.  That would make the hit metric measure a TCP timer.)

``python3 perfbench/campaign.py CONFIG.json`` is the conversion child.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import check
import hostspeed
import inputs
import spans

#: Status poll period during the cold phase.
POLL_S = 0.05
#: Cached resubmissions per daemon at least, so >= 10 lie beyond each
#: daemon's p90.
MIN_HITS = 100
#: Hit samples of each traced-run leg.
TRACED_HITS = 120
#: Hits between host-speed probes.
PROBE_EVERY = 10
#: Trace-store conversion must end within this many seconds.
CONVERT_TIMEOUT_S = 120


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

def convert_main(config_path: str) -> int:
    """Child: generate the seed's traces and write one store per trace."""
    cfg = json.loads(Path(config_path).read_text())
    tracer = None
    if cfg.get("spans"):
        tracer = spans.Tracer()
        spans.install(tracer)
    from repro.memory import tracestore

    out = Path(cfg["dir"])
    out.mkdir(parents=True, exist_ok=True)
    for name in sorted({job["trace"] for job in cfg["jobs"]}):
        trace = inputs.build_trace({"trace": name,
                                    "scale": inputs.CAMPAIGN_SCALE})
        tracestore.write_trace_store(trace, out / f"{name}.trc")
    if tracer is not None:
        tracer.dump(cfg["spans"])
    print("READY", flush=True)
    return 0


class Daemon:
    """A ``repro serve --workers 1`` process (traced through the
    benchmark's launcher when ``spans_path`` is set)."""

    def __init__(self, state: Path, env: Dict[str, str],
                 spans_path: Optional[Path] = None) -> None:
        here = Path(__file__).resolve().parent
        serve = ["serve", "--state-dir", str(state), "--workers", "1"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro"] + serve
        else:
            cmd = [sys.executable, str(here / "serve_traced.py"),
                   str(spans_path)] + serve
        self.state = state
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)

    def wait_ready(self, ticks: List[float],
                   timeout: float = 60.0) -> Tuple[str, int]:
        """Wait for the endpoint to answer, appending a host-speed tick
        to ``ticks`` every ``hostspeed.TICK_EVERY_S``."""
        from repro.service import ServiceClient, read_endpoint
        from repro.errors import ServiceError

        start = next_tick = time.monotonic()
        endpoint = self.state / "endpoint.json"
        while time.monotonic() < start + timeout:
            if self.proc.poll() is not None:
                raise check.BenchError(
                    f"daemon exited with {self.proc.returncode}")
            if endpoint.exists():
                try:
                    host, port = read_endpoint(self.state)
                    ServiceClient(host, port, retries=0).healthz()
                    return host, port
                except ServiceError:
                    pass
            if time.monotonic() >= next_tick:
                ticks.append(hostspeed.tick())
                next_tick += hostspeed.TICK_EVERY_S
            time.sleep(0.005)
        raise check.BenchError("daemon did not become ready")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
        raise check.BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class SetUp(NamedTuple):
    convert_s: float
    boot_s: float
    #: Host-speed ticks taken while converting and booting.
    ticks: List[float]
    daemon: Daemon
    loop: Loop


def set_up(seed: int, run_dir: Path, env: Dict[str, str], tag: str,
           traced: bool) -> SetUp:
    """Convert and boot once; the loop is a client of the daemon."""
    here = Path(__file__).resolve().parent
    jobs = inputs.campaign_jobs(seed)
    stores = run_dir / f"stores-{tag}"
    cfg = {"jobs": jobs, "dir": str(stores),
           "spans": str(run_dir / f"convert-{tag}.npz") if traced else ""}
    cfg_path = run_dir / f"convert-{tag}.json"
    cfg_path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(here / "campaign.py"),
                             str(cfg_path)], env=env, stdout=subprocess.PIPE)
    try:
        ticks = hostspeed.ticks_until_readable(proc.stdout, CONVERT_TIMEOUT_S)
        out, _ = proc.communicate(timeout=CONVERT_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    convert_s = time.perf_counter() - t0
    if proc.returncode != 0 or out.strip() != b"READY":
        raise check.BenchError(
            f"trace-store conversion failed ({proc.returncode})")
    for job in jobs:
        job["trace_path"] = str(stores / f"{job['trace']}.trc")
    t0 = time.perf_counter()
    daemon = Daemon(run_dir / f"state-{tag}", env,
                    run_dir / f"daemon-{tag}.npz" if traced else None)
    try:
        host, port = daemon.wait_ready(ticks)
    except BaseException:
        daemon.stop()
        raise
    boot_s = time.perf_counter() - t0
    return SetUp(convert_s, boot_s, ticks, daemon, Loop(host, port, jobs))


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------

class Loop:
    """Cold campaign then cached resubmissions; records every outcome."""

    def __init__(self, host: str, port: int, jobs: List[Dict]) -> None:
        from repro.runner.jobs import JobSpec
        from repro.service import ServiceClient

        # No retries: every HTTP error is a failed operation.
        self.client = ServiceClient(host, port, retries=0)
        self.jobs = jobs
        self.spec_keys = sorted(JobSpec(**job).key for job in jobs)
        self.failed = 0
        self.attempted = 0
        #: Per fetch: (operations it stands for, key -> result digest,
        #: whether any result violates an invariant).
        self.fetched: List[Tuple[int, Dict[str, str], bool]] = []
        self.cold_s = 0.0
        self.cold_records = 0
        self.hit_s: List[float] = []
        #: ``time.perf_counter`` interval of each phase ("cold", "hits"),
        #: which picks the daemon's spans of that phase.
        self.windows: Dict[str, Tuple[float, float]] = {}
        #: Host-speed ticks taken between status polls of the cold
        #: campaign, and probes taken before the first hit and after
        #: every ``PROBE_EVERY`` hits.
        self.cold_ticks: List[float] = []
        self.hit_probes: List[float] = []
        #: (start, end) of each submit and results request, in order.
        self.rtt: Dict[str, List[Tuple[float, float]]] = {
            "submit": [], "results": []}

    def _timed(self, kind: str, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.rtt[kind].append((t0, time.perf_counter()))

    def _fetch(self, cid: str) -> Optional[Dict[str, Dict]]:
        """Every job's result, or None if any is missing or failed."""
        body = self._timed("results", self.client.results, cid)
        got = {e["key"]: e.get("result") for e in body.get("results", [])
               if e.get("status") == "ok"}
        return got if sorted(got) == self.spec_keys else None

    def _keep(self, weight: int, got: Optional[Dict[str, Dict]]) -> None:
        """Record a fetch's outcome (outside the timed region)."""
        if got is None:
            self.failed += weight
            return
        self.fetched.append((
            weight, {k: check.digest(r) for k, r in got.items()},
            bool(check.invariant_violations(list(got.values())))))

    def cold(self) -> None:
        from repro.errors import ServiceError

        self.attempted += len(self.jobs)
        self.cold_ticks.append(hostspeed.tick())
        t0 = time.perf_counter()
        try:
            cid = self._timed("submit", self.client.submit, self.jobs,
                              "cold")["campaign"]
            while self.client.status(cid).get("state") != "done":
                self.cold_ticks.append(hostspeed.tick())
                time.sleep(POLL_S)
            got = self._fetch(cid)
        except ServiceError:
            got = None
        t1 = time.perf_counter()
        self.cold_s = t1 - t0
        self.windows["cold"] = (t0, t1)
        if got is not None:
            self.cold_records = sum(int(r["extra"]["trace_records"])
                                    for r in got.values())
        self._keep(len(self.jobs), got)

    def hits(self, count: int) -> None:
        """``count`` all-cached resubmissions, probing every few."""
        from repro.errors import ServiceError

        self.hit_probes.append(hostspeed.probe())
        start = time.perf_counter()
        for i in range(count):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                resp = self._timed("submit", self.client.submit, self.jobs,
                                   f"hit-{i}")
                got = self._fetch(resp["campaign"]) \
                    if resp.get("all_cached") else None
            except ServiceError:
                got = None
            self.hit_s.append(time.perf_counter() - t0)
            self._keep(1, got)
            if (i + 1) % PROBE_EVERY == 0:
                self.hit_probes.append(hostspeed.probe())
        self.windows["hits"] = (start, time.perf_counter())


def verify(loop: Loop, refs: Dict[str, List[str]]) -> int:
    """Failed operations among the fetched ones: a fetch with any result
    differing from its reference or violating an invariant."""
    return sum(weight for weight, digests, violated in loop.fetched
               if violated or any([d] != refs[k] for k, d in digests.items()))


def references(cache: check.ReferenceCache, loop: Loop
               ) -> Dict[str, List[str]]:
    from repro.runner.jobs import JobSpec

    key_ops = [{k: v for k, v in job.items() if k != "trace_path"}
               for job in loop.jobs]
    digests = cache.digests("run_job", loop.jobs, key_ops)
    return {JobSpec(**job).key: d for job, d in zip(loop.jobs, digests)}


if __name__ == "__main__":
    sys.exit(convert_main(sys.argv[1]))
