"""Command-line interface: run reproduction experiments from a shell.

Examples::

    python -m repro list
    python -m repro trace-info --trace mcf_s-1554B
    python -m repro run --trace mcf_s-1554B --l1d berti
    python -m repro run --trace mcf_s-1554B --l1d berti --sanitize \
        --snapshot-every 500 --snapshot-dir ckpts/
    python -m repro run --trace mcf_s-1554B --l1d berti --resume-from ckpts/
    python -m repro compare --trace bc-kron --l1d ip_stride,ipcp,berti
    python -m repro suite --suite spec17 --l1d mlop,ipcp,berti --scale 0.3 \
        --workers 4 --journal suite.jsonl --resume
    python -m repro suite --suite spec17 --l1d mlop,ipcp,berti \
        --workers 4 --journal suite.jsonl --supervise
    python -m repro sancheck --quick
    python -m repro chaos --quick
    python -m repro storage
    python -m repro serve --state-dir svc
    python -m repro submit --state-dir svc --trace mcf_s-1554B \
        --l1d berti --wait
    python -m repro fetch --state-dir svc <campaign-id>
    python -m repro agent --server 10.0.0.5:8421 --pool 4
    python -m repro fleet --state-dir svc

``suite`` and ``compare`` execute through the resilient runner
(:mod:`repro.runner`): jobs run in parallel worker processes, crashes
and hangs fail one job instead of the campaign, and a ``--journal``
makes an interrupted suite resumable with ``--resume``.  With
``--supervise`` they run under the campaign supervisor
(:mod:`repro.runner.supervisor`): worker heartbeats preempt hung jobs
by liveness, resource pressure degrades the pool gracefully, repeat
offenders are quarantined by circuit breaker, and the first Ctrl-C
drains instead of killing.  ``chaos`` turns the hostile-host scenarios
(disk full, SIGKILL mid-append, hangs, memory balloons, clock skew) on
the runner itself and verifies that no journal entry is ever lost or
duplicated.  See ``docs/runner.md``.

``serve`` runs the durable campaign service (:mod:`repro.service`): a
crash-safe scheduler daemon with a write-ahead journal, job leases,
idempotent content-hashed submission, and a checksum-verified result
cache; ``submit`` / ``poll`` / ``fetch`` are its bounded-retry client.
``agent`` turns any host into extra capacity for a running daemon: a
remote worker (:mod:`repro.fleet`) that pulls leased jobs over the same
HTTP API, verifies each trace store's digest before executing, and
heartbeats its leases so a dead or partitioned agent's jobs requeue
exactly once; ``fleet`` shows the daemon's agent registry and degraded
windows.  See ``docs/service.md``.

``sancheck`` and the ``--sanitize`` / ``--snapshot-every`` /
``--resume-from`` flags belong to the sanitizer subsystem
(:mod:`repro.sanitizer`): runtime invariant checking, a differential
lockstep oracle against a pure-reference engine, and crash-durable
snapshots with bit-identical resume.  See ``docs/sanitizer.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.analysis.metrics import geomean_speedup
from repro.analysis.report import format_table
from repro.errors import ConfigError, ReproError
from repro.prefetchers.registry import available, make_prefetcher, storage_kb
from repro.runner import (
    ExperimentRunner,
    FaultSpec,
    JobSpec,
    RunnerConfig,
    build_matrix_jobs,
    per_trace_results,
    run_job,
)
from repro.workloads.catalog import (
    all_trace_names,
    resolve_trace,
    suite_trace_names,
)

__all__ = [
    "all_trace_names", "build_parser", "main", "resolve_trace",
]


def _runner_config(args, n_jobs: int) -> RunnerConfig:
    workers = args.workers
    if workers < 0:  # --workers -1: one worker per job, bounded by the host
        import os
        workers = max(1, min(os.cpu_count() or 1, n_jobs))
    return RunnerConfig(
        workers=workers,
        timeout=args.timeout,
        retries=args.retries,
        journal_path=args.journal,
        resume=args.resume,
        verbose=True,
    )


def _build_runner(args, n_jobs: int) -> ExperimentRunner:
    """The plain runner, or the campaign supervisor with ``--supervise``."""
    config = _runner_config(args, n_jobs)
    if not getattr(args, "supervise", False):
        return ExperimentRunner(config)
    from repro.runner import CampaignSupervisor, SupervisorConfig

    if config.workers < 1:
        raise ConfigError(
            "--supervise needs a worker pool; pass --workers >= 1",
            field="workers",
        )
    return CampaignSupervisor(config, SupervisorConfig(
        heartbeat_every=args.heartbeat_every,
        heartbeat_timeout=args.heartbeat_timeout,
        quarantine_after=args.quarantine_after,
        manifest_path=args.manifest,
    ))


def _parse_faults(args) -> Dict[str, FaultSpec]:
    """``--inject kind:trace[:period]`` flags → trace-keyed fault specs."""
    faults: Dict[str, FaultSpec] = {}
    for item in args.inject or []:
        parts = item.split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(
                f"bad --inject {item!r}; expected kind:trace[:period]",
                field="inject",
            )
        kind, trace = parts[0], parts[1]
        period = int(parts[2]) if len(parts) == 3 else 3
        if kind == "hang":
            faults[trace] = FaultSpec(kind=kind, period=period,
                                      hang_seconds=3600.0)
        else:
            faults[trace] = FaultSpec(kind=kind, period=period)
    return faults


def cmd_list(args) -> int:
    print("Prefetchers:")
    for name in available():
        pf = make_prefetcher(name)
        print(f"  {name:12s} level={pf.level:4s} "
              f"storage={pf.storage_kb():7.2f} KB")
    print("\nTraces:")
    for name in all_trace_names():
        print(f"  {name}")
    return 0


def cmd_trace_info(args) -> int:
    t = resolve_trace(args.trace, args.scale)
    print(f"name:          {t.name}")
    print(f"suite:         {t.suite}")
    print(f"description:   {t.description}")
    print(f"records:       {len(t)}")
    print(f"instructions:  {t.instruction_count}")
    print(f"load IPs:      {t.unique_ips}")
    print(f"footprint:     {t.footprint_bytes() / 1024:.0f} KB")
    print(f"write frac:    {t.write_fraction:.1%}")
    return 0


def cmd_run(args) -> int:
    # One job, run inline through the typed worker: trace/prefetcher
    # errors arrive classified and the result is invariant-checked.
    spec = JobSpec(trace=args.trace, l1d=args.l1d, l2=args.l2,
                   scale=args.scale, mtps=args.mtps,
                   sanitize=args.sanitize,
                   sanitize_every=args.sanitize_every,
                   snapshot_every=args.snapshot_every,
                   snapshot_dir=args.snapshot_dir,
                   resume_from=args.resume_from,
                   engine=args.engine, native=args.native)
    if args.profile is not None:
        from repro.perf.profiling import profile_and_report

        dump = args.profile or None  # "" = report only, no stats file
        result, table = profile_and_report(
            run_job, spec, dump_path=dump, top=args.profile_top
        )
        print(table, file=sys.stderr)
        if dump:
            print(f"profile stats written to {dump} "
                  f"(inspect with python -m pstats)", file=sys.stderr)
    else:
        result = run_job(spec)
    pf = result.pf_l1d
    print(result.summary_line())
    print(f"  IPC              {result.ipc:.3f}")
    print(f"  MPKI l1d/l2/llc  {result.l1d_mpki:.1f} / {result.l2_mpki:.1f}"
          f" / {result.llc_mpki:.1f}")
    print(f"  prefetch issued  {pf.issued}")
    print(f"  useful (late)    {pf.useful} ({pf.late})")
    print(f"  accuracy         {pf.accuracy:.1%}")
    print(f"  dram reads       {result.dram_reads} "
          f"(avg latency {result.avg_dram_read_latency:.0f} cycles)")
    return 0


def _attach_stores(args, jobs):
    """Apply ``--trace-store DIR``: convert once, map per worker."""
    if not getattr(args, "trace_store", None):
        return jobs
    from repro.memory.tracestore import attach_trace_stores

    return attach_trace_stores(jobs, args.trace_store)


def cmd_compare(args) -> int:
    t = resolve_trace(args.trace, args.scale)  # fail fast on a bad name
    names = args.l1d.split(",")
    if args.baseline not in names:
        names = [args.baseline] + names
    jobs = build_matrix_jobs(
        [args.trace], names, scale=args.scale, mtps=args.mtps,
        faults=_parse_faults(args),
        engine=args.engine, native=args.native,
    )
    jobs = _attach_stores(args, jobs)
    runner = _build_runner(args, len(jobs))
    suite = runner.run(jobs)
    print(suite.banner(), file=sys.stderr)

    results = per_trace_results(jobs, suite).get(args.trace, {})
    base = results.get(args.baseline)
    if base is None:
        print(f"error: baseline {args.baseline!r} failed on {args.trace}; "
              f"no speedups to report", file=sys.stderr)
        return 2
    failed = {f.key: f for f in suite.failures}
    rows = []
    for job in jobs:
        n = job.l1d
        if n in results:
            r = results[n]
            rows.append([n, r.ipc, r.speedup_over(base), r.l1d_mpki,
                         r.pf_l1d.accuracy])
        else:
            f = failed.get(job.key)
            rows.append([n, f"FAILED ({f.kind})" if f else "FAILED",
                         "-", "-", "-"])
    print(format_table(
        ["prefetcher", "IPC", f"speedup vs {args.baseline}", "L1D MPKI",
         "accuracy"],
        rows, title=f"{t.name} ({len(t)} accesses)",
    ))
    return 0 if not suite.failures else 3


def cmd_suite(args) -> int:
    trace_names = suite_trace_names(args.suite, args.all_graphs)
    names = args.l1d.split(",")
    if args.baseline not in names:
        names = [args.baseline] + names
    jobs = build_matrix_jobs(
        trace_names, names, scale=args.scale, mtps=args.mtps,
        faults=_parse_faults(args),
        engine=args.engine, native=args.native,
    )
    jobs = _attach_stores(args, jobs)
    runner = _build_runner(args, len(jobs))
    suite = runner.run(jobs)

    per_trace = per_trace_results(jobs, suite)
    survivors = [t for t in trace_names if args.baseline in per_trace.get(t, {})]
    speeds = geomean_speedup(per_trace, baseline_name=args.baseline)
    rows = [[n, speeds.get(n, 0.0)] for n in names]

    print(suite.banner(), file=sys.stderr)
    for f in suite.failures:
        print(f"  FAILED [{f.kind}] {f.key}: {f.message}", file=sys.stderr)
    quarantined = suite.quarantined
    if quarantined:
        groups = sorted({q.group for q in quarantined})
        print(f"  quarantined: {len(quarantined)} jobs across "
              f"{len(groups)} groups ({', '.join(groups)}); a later "
              f"--resume sends one half-open probe per group",
              file=sys.stderr)
    print(format_table(
        ["prefetcher", "geomean speedup"], rows,
        title=f"suite {args.suite} ({len(survivors)}/{len(trace_names)} "
              f"traces, scale {args.scale})",
    ))
    return 0 if not suite.failures else 3


def cmd_sancheck(args) -> int:
    """Differential checks: reference oracle and/or engine lockstep."""
    from repro.prefetchers.registry import L1D_PREFETCHERS, L2_PREFETCHERS
    from repro.sanitizer import (
        lockstep_engines,
        lockstep_multicore,
        lockstep_run,
        quick_trace,
    )

    modes = list({
        "classic": ("reference",), "native": ("native",),
        "all": ("reference", "native"),
    }[args.engine])
    if "native" in modes:
        from repro.native.build import kernel_available

        fn, diag = kernel_available()
        if fn is None:
            print(f"note: native kernel unavailable ({diag}); "
                  f"skipping the native differential", file=sys.stderr)
            modes.remove("native")
            if not modes:
                print("native differential skipped (no compiler); "
                      "nothing else requested")
                return 0
    reports = []

    def check(trace, l1d="none", l2="none", seed_divergence=None):
        if "reference" in modes:
            reports.append(lockstep_run(
                trace, l1d=l1d, l2=l2, seed_divergence=seed_divergence,
            ))
            print(reports[-1].describe())
        if "native" in modes:
            reports.append(lockstep_engines(
                trace, l1d=l1d, l2=l2, chunk_size=args.chunk_size,
                seed_divergence=seed_divergence,
            ))
            print(reports[-1].describe())

    if args.quick:
        trace = quick_trace(args.records)
        for pf in L1D_PREFETCHERS:
            check(trace, l1d=pf)
        for pf in L2_PREFETCHERS:
            if pf == "none":
                continue  # covered by the L1D sweep's l2="none"
            check(trace, l2=pf)
        if "reference" in modes:
            # Multicore has no native path, so there is no engines
            # variant to diff.
            mix = [quick_trace(args.records // 2, f"mix{i}")
                   for i in range(2)]
            reports.append(lockstep_multicore(mix, ["berti", "none"],
                                              ["none", "spp"]))
            print(reports[-1].describe())
        if args.seed_divergence is not None:
            check(trace, l1d="berti", seed_divergence=args.seed_divergence)
    else:
        check(resolve_trace(args.trace, args.scale), l1d=args.l1d,
              l2=args.l2, seed_divergence=args.seed_divergence)

    bad = [r for r in reports if not r.ok]
    seeded = args.seed_divergence is not None
    if seeded:
        # The seeded run MUST diverge (it validates the oracle itself);
        # everything else must agree.  The engines plant fires on the
        # first *read* at or after the seeded index, so its localised
        # divergence point may land a few accesses later.
        def is_seeded(r) -> bool:
            if r.diverged_at is None:
                return False
            if getattr(r, "kind", "") == "engines":
                return r.diverged_at >= args.seed_divergence
            return r.diverged_at == args.seed_divergence

        expected_bad = [r for r in bad if is_seeded(r)]
        real_bad = [r for r in bad if not is_seeded(r)]
        if not expected_bad:
            print("error: seeded divergence was NOT detected",
                  file=sys.stderr)
            return 4
        if real_bad:
            return 4
        print(f"seeded divergence detected at access "
              f"{args.seed_divergence}, as required")
        return 0
    if bad:
        print(f"error: {len(bad)}/{len(reports)} differential runs "
              f"diverged", file=sys.stderr)
        return 4
    print(f"all {len(reports)} differential runs bit-identical")
    return 0


def cmd_chaos(args) -> int:
    """Host-level chaos scenarios against the supervised runner."""
    from repro.runner.chaos import run_chaos

    try:
        results = run_chaos(
            scenarios=args.scenario or None,
            quick=args.quick,
            workdir=args.workdir,
            verbose=True,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    ran = [r for r in results if not r.skipped]
    failed = [r for r in ran if not r.passed]
    mode = ("quick" if args.quick and not args.scenario else
            "selected" if args.scenario else "full")
    print(f"chaos ({mode}): {len(ran) - len(failed)}/{len(ran)} "
          f"scenarios passed")
    if failed:
        for r in failed:
            for problem in r.problems:
                print(f"  {r.name}: {problem}", file=sys.stderr)
        return 5
    return 0


def _fuzz_seed(spec: str) -> int:
    """``--seed``: an integer, or ``from-git-sha`` for CI pinning.

    ``from-git-sha`` derives the seed from ``git rev-parse HEAD``, so a
    CI job is deterministic *per commit* (re-runs of the same commit
    replay identical cases) while still walking fresh cases every push.
    """
    if spec != "from-git-sha":
        return int(spec)
    import subprocess

    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
        check=True,
    ).stdout.strip()
    return int(sha[:15], 16)


def cmd_fuzz(args) -> int:
    """Differential fuzzing campaign, corpus replay, and triage."""
    from repro.fuzz import replay_corpus, run_campaign

    if args.replay:
        results = replay_corpus(args.replay)
        bad = [r for r in results if r["status"] != "ok"]
        for r in results:
            marker = "ok  " if r["status"] == "ok" else "FAIL"
            print(f"  {marker} {r['path']}: {r['detail']}")
        print(f"fuzz replay: {len(results) - len(bad)}/{len(results)} "
              f"corpus cases ok")
        return 0 if not bad else 4

    try:
        seed = _fuzz_seed(args.seed)
    except ValueError:
        print(f"error: --seed must be an integer or 'from-git-sha', "
              f"got {args.seed!r}", file=sys.stderr)
        return 2
    report = run_campaign(
        budget_seconds=args.budget_seconds,
        seed=seed,
        out_dir=args.out,
        rate=args.rate,
        plant_divergence=args.plant_divergence,
        skip_corruption=args.skip_corruption,
        max_shrink_records=args.max_shrink_records,
        log=lambda msg: print(f"  {msg}"),
    )
    doc = report.to_dict()
    corruption = doc["corruption"]
    print(f"fuzz: seed={seed} ran {report.cases_run}/{report.planned} "
          f"cases in {doc['elapsed_seconds']}s"
          + (" [TRUNCATED by wall-clock cap]" if report.truncated else ""))
    if corruption is not None:
        print(f"  corruption matrix: {corruption['checked']} mutants, "
              f"{corruption['rejected']} rejected typed, "
              f"{corruption['healed']} healed, "
              f"{len(corruption['findings'])} findings")
    for sig, ids in sorted(report.buckets.items()):
        shrunk = report.shrunk.get(sig)
        where = (f" -> shrunk to {shrunk['records']} records "
                 f"({shrunk['path']})" if shrunk else "")
        print(f"  bucket {sig}: {len(ids)} case(s){where}")
    print(f"  report: {args.out}/report.json")

    if args.plant_divergence is not None:
        # Self-test mode: success is finding EXACTLY the plant — one
        # engines:* bucket, shrunk within bounds, everything else green.
        plant_buckets = [s for s in report.buckets if s.startswith("engines:")]
        other = [s for s in report.buckets if not s.startswith("engines:")]
        shrunk_ok = any(
            s["records"] <= args.max_shrink_records and not s["exhausted"]
            for sig in plant_buckets
            for s in [report.shrunk.get(sig)] if s is not None)
        if plant_buckets and shrunk_ok and not other:
            print("  planted divergence: found and shrunk (self-test ok)")
            return 0
        print("  planted divergence self-test FAILED "
              f"(found={bool(plant_buckets)}, shrunk={shrunk_ok}, "
              f"unexpected={other})", file=sys.stderr)
        return 4
    return 0 if report.ok else 4


def cmd_serve(args) -> int:
    """Run the campaign service daemon (blocking; SIGTERM drains)."""
    from repro.service import CampaignService, ServiceConfig

    config = ServiceConfig(
        state_dir=args.state_dir, host=args.host, port=args.port,
        workers=args.workers, lease_duration=args.lease_duration,
        max_queue=args.max_queue,
    )
    service = CampaignService(config)
    service.start()
    host, port = service.address
    print(f"repro service on http://{host}:{port} "
          f"(state {config.state_dir}, epoch {service.epoch}, "
          f"{config.workers} workers)", file=sys.stderr)
    try:
        # start() already ran; block until SIGTERM/SIGINT drains us.
        import signal as _signal
        import threading as _threading

        done = _threading.Event()

        def _on_term(signum, frame):
            print("draining: finishing leased jobs, refusing intake",
                  file=sys.stderr)
            service.drain()
            done.set()

        _signal.signal(_signal.SIGTERM, _on_term)
        _signal.signal(_signal.SIGINT, _on_term)
        while not done.wait(timeout=0.5):
            pass
    finally:
        service.stop()
    return 0


def _service_client(args):
    from repro.service import ServiceClient, read_endpoint

    host, port = read_endpoint(args.state_dir)
    return ServiceClient(host, port, retries=args.retries,
                         backoff_base=args.backoff)


def _parse_submit_jobs(args) -> List[Dict]:
    jobs: List[Dict] = []
    for trace in args.trace.split(","):
        for l1d in args.l1d.split(","):
            job = {"trace": trace, "l1d": l1d, "l2": args.l2,
                   "scale": args.scale,
                   "warmup_fraction": args.warmup_fraction}
            if args.mtps:
                job["mtps"] = args.mtps
            jobs.append(job)
    return jobs


def cmd_submit(args) -> int:
    """Submit a campaign to a running daemon (idempotent)."""
    client = _service_client(args)
    resp = client.submit(_parse_submit_jobs(args))
    cid = resp["campaign"]
    print(f"campaign {cid} ({'new' if resp['created'] else 'existing'}): "
          f"{resp['cache_hits']}/{resp['total']} jobs served from the "
          f"result cache")
    if args.wait:
        status = client.poll(cid, timeout=args.wait_timeout)
        print(f"campaign {cid}: {status['state']} {status['counts']}")
        return 0 if status["state"] == "done" else 3
    print(f"poll with: repro poll --state-dir {args.state_dir} {cid}")
    return 0


def cmd_poll(args) -> int:
    """Show (or wait for) a campaign's status."""
    client = _service_client(args)
    if args.wait:
        status = client.poll(args.campaign, timeout=args.wait_timeout)
    else:
        status = client.status(args.campaign)
    print(f"campaign {status['campaign']}: {status['state']} "
          f"{status['counts']}")
    for job in status["jobs"]:
        lease = job.get("lease")
        extra = (f" lease={lease['lease_id']} attempt={job['attempt']}"
                 if lease else "")
        print(f"  {job['status']:9s} {job['key']}{extra}")
    return 0 if status["state"] == "done" else 3


def cmd_fetch(args) -> int:
    """Fetch verified results for a finished campaign (JSON on stdout)."""
    import json as _json

    client = _service_client(args)
    resp = client.results(args.campaign)
    if args.out:
        from pathlib import Path as _Path

        _Path(args.out).write_text(_json.dumps(resp, indent=2,
                                               sort_keys=True))
        print(f"{len(resp['results'])} results written to {args.out}",
              file=sys.stderr)
    else:
        print(_json.dumps(resp, indent=2, sort_keys=True))
    bad = [r for r in resp["results"] if r["status"] != "ok"]
    return 0 if not bad else 3


def _fleet_endpoint(args) -> tuple:
    """``--server host:port`` wins; else endpoint.json discovery."""
    if args.server:
        host, _, port = args.server.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigError(
                f"bad --server {args.server!r}; expected HOST:PORT",
                field="server",
            )
        return host, int(port)
    from repro.service import read_endpoint

    return read_endpoint(args.state_dir)


def cmd_agent(args) -> int:
    """Run a remote fleet agent against a campaign daemon (blocking)."""
    from repro.fleet import FleetAgent

    host, port = _fleet_endpoint(args)
    agent = FleetAgent(host, port, pool=args.pool, name=args.name,
                       retries=args.retries, backoff_base=args.backoff)
    agent.register()
    print(f"agent {agent.agent_id} ({agent.name}) on http://{host}:{port} "
          f"pool={args.pool}; SIGTERM drains", file=sys.stderr)
    agent.run_forever()
    print(f"agent {agent.agent_id} drained: {agent.jobs_done} ok, "
          f"{agent.jobs_failed} failed, {agent.jobs_refused} refused",
          file=sys.stderr)
    return 0


def cmd_fleet(args) -> int:
    """Show a daemon's fleet: agents, states, degraded windows."""
    import json as _json

    from repro.service import ServiceClient

    host, port = _fleet_endpoint(args)
    client = ServiceClient(host, port, retries=args.retries,
                           backoff_base=args.backoff)
    fleet = client.fleet()
    if args.json:
        print(_json.dumps(fleet, indent=2, sort_keys=True))
        return 0
    degraded = "DEGRADED (local pool)" if fleet["degraded"] else "ok"
    print(f"epoch {fleet['epoch']}: {len(fleet['agents'])} known agents, "
          f"{degraded}")
    rows = [[a["agent"], a["name"], a["state"], a["leases_granted"],
             a["results"]["ok"], a["results"]["failed"],
             a["results"]["refused"], a["deaths"], a["rejoins"]]
            for a in fleet["agents"]]
    if rows:
        print(format_table(
            ["agent", "name", "state", "leases", "ok", "failed",
             "refused", "deaths", "rejoins"], rows))
    for window in fleet.get("degraded_windows", []):
        print(f"  degraded window: {window}")
    return 0


def cmd_trace_store(args) -> int:
    """Convert catalog traces to mmap stores / inspect store files."""
    from repro.memory.tracestore import ensure_store, store_info

    if args.action == "convert":
        names: List[str] = []
        if args.suite:
            names.extend(suite_trace_names(args.suite, args.all_graphs))
        for item in args.trace or []:
            names.extend(t for t in item.split(",") if t)
        if not names:
            print("error: pass --trace NAME[,NAME...] and/or --suite",
                  file=sys.stderr)
            return 2
        rows = []
        for name in names:
            path = ensure_store(args.out, name, args.scale)
            info = store_info(path)
            rows.append([name, info["records"],
                         f"{info['bytes'] / 1024:.0f} KB", str(path)])
        print(format_table(["trace", "records", "size", "store"], rows,
                           title=f"trace stores (scale {args.scale})"))
        return 0
    # info
    for path in args.path:
        info = store_info(path)
        for k in ("path", "name", "suite", "records", "bytes", "version"):
            print(f"{k + ':':10s} {info[k]}")
        if info["description"]:
            print(f"{'descr:':10s} {info['description']}")
    return 0


def cmd_storage(args) -> int:
    from repro.core.config import BertiConfig

    rows = [
        [name, round(storage_kb(name), 2)]
        for name in available() if name != "none"
    ]
    print(format_table(["prefetcher", "storage KB"], rows,
                       title="Hardware budgets"))
    print("\nBerti breakdown (Table I):")
    for k, v in BertiConfig().storage_breakdown_kb().items():
        print(f"  {k:22s} {v:5.2f} KB")
    return 0


def _add_runner_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("runner (resilience/parallelism)")
    g.add_argument("--workers", type=int, default=0,
                   help="worker processes; 0 = in-process serial, "
                        "-1 = one per CPU (default 0)")
    g.add_argument("--timeout", type=float, default=None,
                   help="per-job wall-clock seconds (requires --workers >= 1)")
    g.add_argument("--retries", type=int, default=1,
                   help="extra attempts for transient failures (default 1)")
    g.add_argument("--journal", default=None,
                   help="JSONL checkpoint journal path")
    g.add_argument("--resume", action="store_true",
                   help="replay completed jobs from --journal")
    g.add_argument("--inject", action="append", default=None,
                   metavar="KIND:TRACE[:PERIOD]",
                   help="inject a fault (crash/hang/corrupt/mshr_full/"
                        "pq_full/flaky/balloon) into every job of TRACE")
    g.add_argument("--trace-store", default=None, metavar="DIR",
                   help="convert each unique trace once into DIR and "
                        "have workers mmap the store read-only instead "
                        "of regenerating the trace per job "
                        "(docs/runner.md)")
    s = p.add_argument_group("supervision (docs/runner.md)")
    s.add_argument("--supervise", action="store_true",
                   help="run under the campaign supervisor: heartbeat "
                        "liveness, resource guards, circuit breakers, "
                        "graceful Ctrl-C drain (requires --workers >= 1)")
    s.add_argument("--heartbeat-every", type=int, default=5000,
                   metavar="N", help="worker progress ping every N "
                   "simulated accesses (default 5000; 0 disables)")
    s.add_argument("--heartbeat-timeout", type=float, default=10.0,
                   metavar="SEC", help="preempt a worker after SEC "
                   "seconds without progress (default 10)")
    s.add_argument("--quarantine-after", type=int, default=3, metavar="K",
                   help="open a (trace, prefetcher) circuit breaker "
                        "after K consecutive failures (default 3)")
    s.add_argument("--manifest", default=None, metavar="PATH",
                   help="campaign manifest JSON (default: "
                        "<journal>.manifest.json)")


def _add_engine_args(p) -> None:
    """Simulator inner-loop selection, shared by run/compare/suite."""
    g = p.add_argument_group("engine (docs/performance.md)")
    g.add_argument("--engine", default="classic",
                   choices=["classic", "native"],
                   help="simulator inner loop: classic per-record "
                        "dispatch or the native C span kernel "
                        "(bit-identical, faster on stock configs)")
    g.add_argument("--native", default="auto",
                   choices=["auto", "force"],
                   help="native-backend policy with --engine native: "
                        "auto demotes to the classic loop when the C "
                        "kernel is unavailable, force errors instead")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Berti (MICRO 2022) reproduction toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list prefetchers and traces")

    info = sub.add_parser("trace-info", help="describe a trace")
    info.add_argument("--trace", required=True)
    info.add_argument("--scale", type=float, default=0.5)

    run = sub.add_parser("run", help="simulate one configuration")
    run.add_argument("--trace", required=True)
    run.add_argument("--l1d", default="berti")
    run.add_argument("--l2", default="none")
    run.add_argument("--scale", type=float, default=0.5)
    run.add_argument("--profile", nargs="?", const="", default=None,
                     metavar="STATS_FILE",
                     help="run under cProfile; print the hot-function "
                          "table and optionally dump raw stats to "
                          "STATS_FILE")
    run.add_argument("--profile-top", type=int, default=15,
                     help="rows in the --profile hot-function table")
    run.add_argument("--mtps", type=int, default=None,
                     help="DRAM transfer rate (6400/3200/1600)")
    _add_engine_args(run)
    g = run.add_argument_group("sanitizer / durability (docs/sanitizer.md)")
    g.add_argument("--sanitize", action="store_true",
                   help="run with SimSan runtime invariant checking")
    g.add_argument("--sanitize-every", type=int, default=64,
                   metavar="N", help="check invariants every N accesses "
                   "(default 64)")
    g.add_argument("--snapshot-every", type=int, default=0, metavar="N",
                   help="write a crash-durable snapshot every N records "
                        "(requires --snapshot-dir)")
    g.add_argument("--snapshot-dir", default=None,
                   help="directory for snap-<index>.ckpt files")
    g.add_argument("--resume-from", default=None, metavar="PATH",
                   help="resume from a snapshot file (or the newest "
                        "snapshot in a directory); bit-identical to the "
                        "uninterrupted run")

    cmp_ = sub.add_parser("compare", help="compare prefetchers on a trace")
    cmp_.add_argument("--trace", required=True)
    cmp_.add_argument("--l1d", default="ip_stride,mlop,ipcp,berti")
    cmp_.add_argument("--baseline", default="ip_stride")
    cmp_.add_argument("--scale", type=float, default=0.5)
    cmp_.add_argument("--mtps", type=int, default=None)
    _add_engine_args(cmp_)
    _add_runner_args(cmp_)

    suite = sub.add_parser("suite", help="geomean speedups over a suite")
    suite.add_argument("--suite", default="spec17",
                       choices=["spec17", "gap", "cloudsuite"])
    suite.add_argument("--l1d", default="mlop,ipcp,berti")
    suite.add_argument("--baseline", default="ip_stride")
    suite.add_argument("--scale", type=float, default=0.4)
    suite.add_argument("--all-graphs", action="store_true")
    suite.add_argument("--mtps", type=int, default=None)
    _add_engine_args(suite)
    _add_runner_args(suite)

    san = sub.add_parser(
        "sancheck",
        help="differential check vs. the pure-reference engine",
    )
    san.add_argument("--quick", action="store_true",
                     help="sweep every registry prefetcher plus one "
                          "multicore mix on a small synthetic trace")
    san.add_argument("--records", type=int, default=1200,
                     help="records in the --quick synthetic trace")
    san.add_argument("--trace", default="mcf_s-1554B",
                     help="catalog trace for a single targeted check")
    san.add_argument("--scale", type=float, default=0.2)
    san.add_argument("--l1d", default="berti")
    san.add_argument("--l2", default="none")
    san.add_argument("--seed-divergence", type=int, default=None,
                     metavar="N",
                     help="perturb the optimized engine at access N; the "
                          "oracle must localise the divergence to N")
    san.add_argument("--engine", default="classic",
                     choices=["classic", "native", "all"],
                     help="which differential to run: classic = optimized "
                          "vs pure-reference oracle; native = the C span "
                          "kernel vs the classic loop, digests compared "
                          "at every chunk boundary and the first "
                          "divergent access localised (skipped with a "
                          "note when no compiler is available); all = "
                          "classic and native")
    san.add_argument("--chunk-size", type=int, default=0, metavar="N",
                     help="records between native compare points "
                          "(0 = default 1024)")

    chaos = sub.add_parser(
        "chaos",
        help="hostile-host and network scenarios against the runner "
             "and the campaign service",
    )
    chaos.add_argument("--quick", action="store_true",
                       help="CI subset: disk-full, sigkill, hung-worker, "
                            "the four service scenarios, and "
                            "duplicate-delivery from the fleet set")
    chaos.add_argument("--scenario", action="append", default=None,
                       metavar="NAME",
                       help="run one scenario by name (repeatable): "
                            "disk-full, sigkill, hung-worker, balloon, "
                            "clock-skew, service-sigkill, "
                            "client-disconnect, cache-corruption, "
                            "duplicate-submit, agent-sigkill, "
                            "network-partition, duplicate-delivery, "
                            "digest-mismatch")
    chaos.add_argument("--workdir", default=None,
                       help="directory for scenario artifacts "
                            "(default: a fresh temp dir)")

    ts = sub.add_parser(
        "trace-store",
        help="convert traces to mmap-backed stores / inspect them",
    )
    ts.add_argument("action", choices=["convert", "info"],
                    help="convert catalog traces, or describe store files")
    ts.add_argument("--trace", action="append", default=None,
                    metavar="NAME[,NAME...]",
                    help="catalog trace(s) to convert (repeatable)")
    ts.add_argument("--suite", default=None,
                    choices=["spec17", "gap", "cloudsuite"],
                    help="convert every trace of a suite")
    ts.add_argument("--all-graphs", action="store_true",
                    help="with --suite gap: all graphs, not just kron/urand")
    ts.add_argument("--scale", type=float, default=0.5)
    ts.add_argument("--out", default="traces/store", metavar="DIR",
                    help="store directory (default traces/store)")
    ts.add_argument("path", nargs="*", default=[],
                    help="store files to describe (info action)")

    serve = sub.add_parser(
        "serve",
        help="run the durable campaign-service daemon (docs/service.md)",
    )
    serve.add_argument("--state-dir", default="service-state",
                       help="WAL + result cache + endpoint.json directory "
                            "(default service-state); restarting against "
                            "the same directory resumes the full queue")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0 = ephemeral; the bound "
                            "port is recorded in endpoint.json)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent simulation workers (default 2)")
    serve.add_argument("--lease-duration", type=float, default=30.0,
                       metavar="SEC",
                       help="job lease expiry without heartbeat progress "
                            "(default 30)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="pending jobs before submissions get 429 "
                            "(default 64)")

    def _client_args(p_: argparse.ArgumentParser) -> None:
        p_.add_argument("--state-dir", default="service-state",
                        help="daemon state dir holding endpoint.json")
        p_.add_argument("--retries", type=int, default=5,
                        help="client retry budget for connection errors "
                             "and 5xx/429 (default 5)")
        p_.add_argument("--backoff", type=float, default=0.1,
                        metavar="SEC",
                        help="base backoff; doubles per attempt with "
                             "jitter, Retry-After wins (default 0.1)")

    submit = sub.add_parser(
        "submit", help="submit a campaign to a running daemon (idempotent)",
    )
    _client_args(submit)
    submit.add_argument("--trace", required=True,
                        metavar="NAME[,NAME...]")
    submit.add_argument("--l1d", default="berti", metavar="PF[,PF...]")
    submit.add_argument("--l2", default="none")
    submit.add_argument("--scale", type=float, default=0.5)
    submit.add_argument("--mtps", type=int, default=None)
    submit.add_argument("--warmup-fraction", type=float, default=0.25)
    submit.add_argument("--wait", action="store_true",
                        help="block until the campaign resolves")
    submit.add_argument("--wait-timeout", type=float, default=600.0)

    poll = sub.add_parser("poll", help="status of a submitted campaign")
    _client_args(poll)
    poll.add_argument("campaign", help="campaign id from repro submit")
    poll.add_argument("--wait", action="store_true",
                      help="block until the campaign resolves")
    poll.add_argument("--wait-timeout", type=float, default=600.0)

    fetch = sub.add_parser(
        "fetch", help="fetch checksum-verified results for a campaign",
    )
    _client_args(fetch)
    fetch.add_argument("campaign", help="campaign id from repro submit")
    fetch.add_argument("--out", default=None, metavar="PATH",
                       help="write the results JSON here instead of stdout")

    def _fleet_args(p_: argparse.ArgumentParser) -> None:
        p_.add_argument("--server", default=None, metavar="HOST:PORT",
                        help="daemon address (multi-host); default: "
                             "discover via --state-dir/endpoint.json")
        p_.add_argument("--state-dir", default="service-state",
                        help="daemon state dir holding endpoint.json "
                             "(same-host discovery)")
        p_.add_argument("--retries", type=int, default=5,
                        help="request retry budget (default 5)")
        p_.add_argument("--backoff", type=float, default=0.1,
                        metavar="SEC", help="base retry backoff "
                        "(default 0.1)")

    agent = sub.add_parser(
        "agent",
        help="remote fleet worker: lease jobs from a campaign daemon "
             "(docs/service.md)",
    )
    _fleet_args(agent)
    agent.add_argument("--pool", type=int, default=1,
                       help="concurrent jobs this agent runs (default 1)")
    agent.add_argument("--name", default="",
                       help="agent name in the daemon's registry "
                            "(default agent-<hostname>)")

    fleet = sub.add_parser(
        "fleet", help="show a daemon's agent registry and degraded windows",
    )
    _fleet_args(fleet)
    fleet.add_argument("--json", action="store_true",
                       help="raw JSON instead of a table")

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing campaign (docs/fuzzing.md)",
    )
    fuzz.add_argument("--budget-seconds", type=float, default=60,
                      metavar="SEC",
                      help="time budget; converted to a fixed case count "
                           "at --rate so the case list is deterministic "
                           "(default 60)")
    fuzz.add_argument("--seed", default="0", metavar="N|from-git-sha",
                      help="campaign seed: an integer, or 'from-git-sha' "
                           "to derive it from the current commit")
    fuzz.add_argument("--rate", type=float, default=2.0, metavar="CPS",
                      help="nominal cases/second used to size the "
                           "campaign (default 2.0)")
    fuzz.add_argument("--out", default="fuzz-out", metavar="DIR",
                      help="report + shrunk-case output directory "
                           "(default fuzz-out)")
    fuzz.add_argument("--replay", default=None, metavar="DIR",
                      help="replay a corpus directory instead of "
                           "generating cases (e.g. tests/corpus)")
    fuzz.add_argument("--plant-divergence", type=int, default=None,
                      metavar="N",
                      help="self-test: plant an engine divergence at "
                           "access N; exit 0 iff it is found, shrunk, "
                           "and nothing else fires")
    fuzz.add_argument("--skip-corruption", action="store_true",
                      help="skip the persisted-format corruption matrix")
    fuzz.add_argument("--max-shrink-records", type=int, default=64,
                      metavar="N",
                      help="records a shrunk repro may keep before the "
                           "shrinker reports exhaustion (default 64)")

    sub.add_parser("storage", help="hardware budgets incl. Table I")
    return p


COMMANDS = {
    "list": cmd_list,
    "trace-info": cmd_trace_info,
    "run": cmd_run,
    "sancheck": cmd_sancheck,
    "compare": cmd_compare,
    "suite": cmd_suite,
    "chaos": cmd_chaos,
    "fuzz": cmd_fuzz,
    "storage": cmd_storage,
    "trace-store": cmd_trace_store,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "poll": cmd_poll,
    "fetch": cmd_fetch,
    "agent": cmd_agent,
    "fleet": cmd_fleet,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
