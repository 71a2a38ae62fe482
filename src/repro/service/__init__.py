"""Fault-tolerant campaign service: a durable scheduler daemon.

``repro serve`` runs :class:`~repro.service.daemon.CampaignService`, a
crash-safe scheduler in front of the simulation workers:

* a write-ahead, fsync'd, torn-tail-healing log (``service.wal``, a
  :class:`~repro.durability.RecordLog`) makes every queue/lease/result
  transition durable, so a SIGKILL'd daemon restarts into the exact
  same campaign state;
* time-bounded job leases (:mod:`~repro.service.leases`) renewed from
  worker heartbeats turn lost workers into bounded requeues with full
  attempt lineage — never lost or duplicated results;
* a content-addressed, CRC-verified result cache
  (:mod:`~repro.service.resultcache`) makes submission idempotent:
  identical (trace, config) submissions dedupe into one computation;
* a stdlib HTTP/JSON API (:mod:`~repro.service.api`) with backpressure
  (429 + Retry-After) and graceful SIGTERM drain, spoken by the
  bounded-retry client (:mod:`~repro.service.client`) behind
  ``repro submit/poll/fetch``.

See ``docs/service.md`` for the API reference and the failure-mode
table mapping each chaos scenario to the guarantee it proves.
"""

from repro.service.client import ServiceClient, read_endpoint
from repro.service.daemon import (CampaignService, ServiceConfig,
                                  canonical_job_config, job_content_key)
from repro.service.leases import Lease, LeaseTable
from repro.service.resultcache import ResultCache, content_key

__all__ = [
    "CampaignService",
    "ServiceConfig",
    "ServiceClient",
    "read_endpoint",
    "canonical_job_config",
    "job_content_key",
    "Lease",
    "LeaseTable",
    "ResultCache",
    "content_key",
]
