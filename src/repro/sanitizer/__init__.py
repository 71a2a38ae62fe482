"""Simulation sanitizer: runtime invariants, differential oracle,
crash-durable snapshots.

Three independent robustness layers over the simulation core:

* :mod:`repro.sanitizer.invariants` — SimSan, opt-in runtime invariant
  checking of caches, replacement metadata, MSHRs, the PQ, and Berti's
  hardware tables (``--sanitize``);
* :mod:`repro.sanitizer.reference` + :mod:`repro.sanitizer.lockstep` —
  a pure virtual-dispatch reference engine run in lockstep with the
  optimised engine (``repro sancheck``), localising any fast-path
  divergence to the first differing access;
* :mod:`repro.sanitizer.snapshot` — the versioned, checksummed file
  format of mid-trace snapshots; ``simulate`` writes them and resumes
  from them bit-identically (``--snapshot-every`` / ``--resume-from``).

See ``docs/sanitizer.md`` for the invariant catalogue and workflows.
"""

from repro.sanitizer.config import CHECK_FAMILIES, SanitizerConfig
from repro.sanitizer.invariants import (
    Sanitizer,
    attach_sanitizer,
    check_hierarchy,
)
from repro.sanitizer.lockstep import (
    IPCP_EVENTS,
    QUEUE_DROPS,
    LockstepReport,
    ipcp_events,
    ipcp_trace,
    lockstep_engines,
    lockstep_multicore,
    lockstep_run,
    queue_drops,
    quick_trace,
    small_berti_config,
    small_ipcp,
    small_ipcp_factory,
    small_queue_config,
    small_tlb_config,
)
from repro.sanitizer.reference import is_reference, to_reference
from repro.sanitizer.snapshot import (
    latest_snapshot,
    load_snapshot,
    resume_run,
    save_snapshot,
    snapshot_path,
    trace_digest,
)

__all__ = [
    "CHECK_FAMILIES",
    "SanitizerConfig",
    "Sanitizer",
    "attach_sanitizer",
    "check_hierarchy",
    "IPCP_EVENTS",
    "QUEUE_DROPS",
    "LockstepReport",
    "ipcp_events",
    "ipcp_trace",
    "lockstep_engines",
    "lockstep_multicore",
    "lockstep_run",
    "queue_drops",
    "quick_trace",
    "small_berti_config",
    "small_ipcp",
    "small_ipcp_factory",
    "small_queue_config",
    "small_tlb_config",
    "is_reference",
    "to_reference",
    "latest_snapshot",
    "load_snapshot",
    "resume_run",
    "save_snapshot",
    "snapshot_path",
    "trace_digest",
]
