"""Differential oracle: one fuzz case through every engine we have.

Four legs, each a self-contained verdict:

* **engines** — the native engine vs the classic loop in
  chunk-boundary lockstep
  (:func:`~repro.sanitizer.lockstep.lockstep_engines`), run at the
  case's chunk size, with divergence auto-localised to the exact
  access; plus the forced mid-span demotion edge when the case carries
  ``native_demote_at``.  On a host with no C compiler the native side
  demotes every span to the classic loop: the leg still runs (so a
  planted divergence is still caught), and that demotion is not a
  finding.
* **reference** — optimised vs pure-virtual-dispatch hierarchy in
  per-access lockstep (:func:`~repro.sanitizer.lockstep.lockstep_run`).
* **snapshot** — the mid-trace checkpoint contract: ``simulate`` vs
  ``simulate_with_snapshots``, byte-identical checkpoint files across
  two write passes, and a resume from the newest checkpoint that must
  land on the same result dict.
* **validity** — for ``expect="reject"`` cases only: every engine must
  refuse the input with a typed :class:`~repro.errors.ReproError`
  (raw exceptions and silent acceptance are both findings).

A finding's **signature** is its bucket key: leg plus the divergence
field (or exception type) — deliberately *excluding* the access index
and any values, so the same root cause found through different cases
lands in one bucket and the shrinker can test "does this still fail the
same way" by string equality.
"""

from __future__ import annotations

import filecmp
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ReproError
from repro.fuzz.cases import FuzzCase
from repro.sanitizer.lockstep import lockstep_engines, lockstep_run
from repro.sanitizer.snapshot import (
    latest_snapshot,
    simulate_with_snapshots,
)
from repro.simulator.engine import simulate

__all__ = ["FuzzFinding", "run_case"]


@dataclass
class FuzzFinding:
    """One confirmed misbehaviour, bucketed by its signature."""

    case_id: str
    leg: str
    signature: str
    detail: str

    def to_dict(self):
        return {"case_id": self.case_id, "leg": self.leg,
                "signature": self.signature, "detail": self.detail}


def _finding(case: FuzzCase, leg: str, signature: str,
             detail: str) -> FuzzFinding:
    return FuzzFinding(case_id=case.case_id, leg=leg,
                       signature=signature, detail=detail)


def _exception_finding(case: FuzzCase, leg: str,
                       exc: BaseException) -> FuzzFinding:
    kind = ("exception" if isinstance(exc, ReproError) else "raw-exception")
    return _finding(case, leg, f"{leg}:{kind}:{type(exc).__name__}",
                    f"{type(exc).__name__}: {exc}")


def _validity_leg(case: FuzzCase) -> Optional[FuzzFinding]:
    """``expect="reject"``: every engine refuses, typed, no exceptions."""
    make = case.make()
    wf = case.config.get("warmup_fraction", 0.2)

    def attempt(label: str, run: Callable) -> Optional[FuzzFinding]:
        try:
            run()
        except ReproError:
            return None  # the contract: typed refusal
        except Exception as exc:
            return _finding(case, "validity",
                            f"validity:raw:{type(exc).__name__}",
                            f"{label} refused with untyped "
                            f"{type(exc).__name__}: {exc}")
        return _finding(case, "validity", f"validity:silent-accept:{label}",
                        f"{label} accepted an input every engine must "
                        f"refuse ({len(case.records)} records)")

    trace = case.trace()
    l1d, l2 = case.config.get("l1d", "berti"), case.config.get("l2", "none")
    for label, run in (
        ("classic", lambda: simulate(
            trace, make(l1d), make(l2), warmup_fraction=wf)),
        ("native", lambda: simulate(
            trace, make(l1d), make(l2), warmup_fraction=wf,
            engine="native")),
        ("snapshot", lambda: simulate_with_snapshots(
            trace, make(l1d), make(l2), warmup_fraction=wf)),
    ):
        found = attempt(label, run)
        if found is not None:
            return found
    return None


def _strip_native_markers(result: dict) -> dict:
    """The native engine's ``native_*`` extra keys are reporting-only
    and excluded from the bit-identity contract."""
    result = dict(result)
    result["extra"] = {k: v for k, v in result.get("extra", {}).items()
                       if not k.startswith("native")}
    return result


def _engines_leg(case: FuzzCase) -> Optional[FuzzFinding]:
    from repro.native.build import kernel_available

    report = lockstep_engines(
        case.trace(),
        l1d=case.config.get("l1d", "berti"),
        l2=case.config.get("l2", "none"),
        warmup_fraction=case.config.get("warmup_fraction", 0.2),
        chunk_size=case.config.get("chunk_size", 0),
        seed_divergence=case.config.get("plant_divergence"),
        make=case.make(),
    )
    no_kernel = (report.field == "native_demotion"
                 and kernel_available()[0] is None)
    if not report.ok and not no_kernel:
        return _finding(case, "engines", f"engines:{report.field}",
                        report.describe())
    at = case.config.get("native_demote_at")
    if at is None:
        return None
    # Forced mid-span demotion: a run that flips from the C kernel to
    # the classic loop partway through must still land on the classic
    # result (modulo the native_* reporting markers).
    make = case.make()
    trace = case.trace()
    l1d, l2 = case.config.get("l1d", "berti"), case.config.get("l2", "none")
    wf = case.config.get("warmup_fraction", 0.2)
    ref = simulate(trace, make(l1d), make(l2), warmup_fraction=wf).to_dict()
    demoted = _strip_native_markers(simulate(
        trace, make(l1d), make(l2), warmup_fraction=wf,
        engine="native", native_demote_at=at).to_dict())
    if demoted != ref:
        keys = [k for k in ref if demoted.get(k) != ref[k]]
        return _finding(case, "engines", "engines:demote-result",
                        f"forced demotion at access {at} diverges from "
                        f"the classic run in {keys[:4]}")
    return None


def _reference_leg(case: FuzzCase) -> Optional[FuzzFinding]:
    report = lockstep_run(
        case.trace(),
        l1d=case.config.get("l1d", "berti"),
        l2=case.config.get("l2", "none"),
        warmup_fraction=case.config.get("warmup_fraction", 0.2),
        digest_every=64,
        make=case.make(),
    )
    if report.ok:
        return None
    return _finding(case, "reference", f"reference:{report.field}",
                    report.describe())


def _snapshot_leg(case: FuzzCase) -> Optional[FuzzFinding]:
    make = case.make()
    trace = case.trace()
    l1d, l2 = case.config.get("l1d", "berti"), case.config.get("l2", "none")
    wf = case.config.get("warmup_fraction", 0.2)
    every = max(1, len(trace) // 2)

    straight = simulate(trace, make(l1d), make(l2),
                        warmup_fraction=wf).to_dict()
    with tempfile.TemporaryDirectory(prefix="fuzz-snap-") as d1, \
            tempfile.TemporaryDirectory(prefix="fuzz-snap-") as d2:
        ckpt = simulate_with_snapshots(
            trace, make(l1d), make(l2), warmup_fraction=wf,
            snapshot_every=every, snapshot_dir=d1).to_dict()
        if ckpt != straight:
            keys = [k for k in straight if ckpt.get(k) != straight[k]]
            return _finding(case, "snapshot", "snapshot:checkpointed-result",
                            f"checkpointed run differs from straight run "
                            f"in {keys[:4]}")
        # Same run again into a second directory: checkpoint files must
        # be byte-identical (snapshots may not embed wall clock, ids,
        # or dict-order nondeterminism).
        simulate_with_snapshots(
            trace, make(l1d), make(l2), warmup_fraction=wf,
            snapshot_every=every, snapshot_dir=d2)
        names1 = sorted(os.listdir(d1))
        names2 = sorted(os.listdir(d2))
        if names1 != names2:
            return _finding(case, "snapshot", "snapshot:file-set",
                            f"checkpoint sets differ: {names1} vs {names2}")
        for name in names1:
            if not filecmp.cmp(os.path.join(d1, name),
                               os.path.join(d2, name), shallow=False):
                return _finding(case, "snapshot", "snapshot:bytes",
                                f"checkpoint {name} is not byte-identical "
                                f"across two write passes")
        newest = latest_snapshot(d1)
        if newest is not None:
            resumed = simulate_with_snapshots(
                trace, make(l1d), make(l2), warmup_fraction=wf,
                resume_from=newest).to_dict()
            if resumed != straight:
                keys = [k for k in straight
                        if resumed.get(k) != straight[k]]
                return _finding(case, "snapshot", "snapshot:resume-result",
                                f"resume from {os.path.basename(newest)} "
                                f"differs from straight run in {keys[:4]}")
    return None


_LEGS = (
    ("engines", _engines_leg),
    ("reference", _reference_leg),
    ("snapshot", _snapshot_leg),
)


def run_case(case: FuzzCase) -> Optional[FuzzFinding]:
    """Run every applicable leg; the first finding wins (or ``None``)."""
    if case.expect == "reject":
        return _validity_leg(case)
    for leg, fn in _LEGS:
        try:
            found = fn(case)
        except Exception as exc:  # noqa: BLE001 — the oracle must not die
            return _exception_finding(case, leg, exc)
        if found is not None:
            return found
    return None
