"""The service's write-ahead log is a :class:`repro.durability.RecordLog`.

``ServiceWAL`` is that class under the name ``perfbench/spans.py``
wraps to time the daemon's WAL appends (``service.wal.append``).
"""

from repro.durability import RecordLog as ServiceWAL

__all__ = ["ServiceWAL"]
