"""Deterministic fault injection for the measurement pipeline.

The paper's Table 1 is failure accounting: per-OS success/error breakdowns
with a connectivity gate so measurement-side outages are never blamed on
websites (section 3.1).  Reproducing that robustly means being able to
*create* failures on demand — transient DNS errors, connection resets, TLS
handshake failures, uplink outages, truncated NetLog documents, storage
write errors, and mid-campaign crashes — and proving the pipeline's
retry/checkpoint/salvage machinery masks them.

:class:`FaultPlan` is a seeded, serialisable schedule of faults;
:class:`FaultInjector` executes one plan through narrow hook seams on the
resolver, network stack, connectivity checker, NetLog serialisation, and
telemetry store.  The same plan always injects the same faults.
"""

from .injector import (
    FaultInjector,
    InjectedCrashError,
    InjectedDiskFullError,
    InjectedWorkerCrashError,
    StorageWriteError,
)
from .plan import FaultKind, FaultPlan, FaultSpec

__all__ = [
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrashError",
    "InjectedDiskFullError",
    "InjectedWorkerCrashError",
    "StorageWriteError",
]
