"""Fault injector: executes a :class:`FaultPlan` through narrow seams.

One injector instance carries the mutable state a plan needs at run time —
per-key attempt counters (so *transient* faults fail the first N attempts
and then recover), the connectivity-check counter that drives bounded
outages, and the campaign visit counter that drives crashes.  All hook
methods are cheap and deterministic; an injector with an empty plan is a
no-op at every seam.

Seams (each accepts a plain callable, never the injector itself):

* ``browser.dns`` — :meth:`FaultInjector.dns_hook` plugs into
  :class:`~repro.browser.dns.SimulatedResolver`;
* ``browser.network`` — :meth:`FaultInjector.connect_hook` plugs into
  :class:`~repro.browser.network.SimulatedNetwork`;
* ``browser.webrtc`` — :meth:`FaultInjector.stun_hook` and
  :meth:`FaultInjector.mdns_hook` plug into
  :class:`~repro.webrtc.ice.IceAgent`;
* ``crawler.connectivity`` — :meth:`FaultInjector.connectivity_hook` plugs
  into :class:`~repro.crawler.connectivity.ConnectivityChecker`;
* ``netlog`` — :meth:`FaultInjector.corrupt_netlog` mangles a serialised
  NetLog document the way a killed Chrome does;
* ``storage.db`` — :meth:`FaultInjector.storage_hook` plugs into
  :class:`~repro.storage.db.TelemetryStore` and raises
  :class:`StorageWriteError` on scheduled writes;
* ``crawler.executor`` — :meth:`FaultInjector.hang_hook` and
  :meth:`FaultInjector.slow_hook` tell the supervised executor (and the
  serve engine, for ``hang``) whether an attempt wedges or stalls.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..browser.errors import NetError
from .plan import FaultKind, FaultPlan, _stable_hash


class InjectedCrashError(RuntimeError):
    """A scheduled hard crash of the campaign process."""


class StorageWriteError(RuntimeError):
    """A scheduled (transient) telemetry-store write failure."""


class InjectedDiskFullError(OSError):
    """A scheduled (transient) ``ENOSPC`` while archiving a NetLog."""


class InjectedWorkerCrashError(RuntimeError):
    """A scheduled crash of a serve worker thread mid-analysis."""


@dataclass(slots=True)
class FaultInjector:
    """Executes one fault plan; tracks what it actually injected.

    Counter state is guarded by a lock so the serve engine's worker
    threads can share one injector.
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    #: Injection counts per fault kind, for observability and tests.
    injected: dict[FaultKind, int] = field(default_factory=dict)
    _attempts: dict[tuple[FaultKind, str | None, str], int] = field(
        default_factory=dict
    )
    _connectivity_checks: int = 0
    _visits: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, compare=False)

    # -- shared bookkeeping ------------------------------------------------

    def _next_attempt(
        self, kind: FaultKind, key: str, scope: str | None = None
    ) -> int:
        counter = (kind, scope, key)
        with self._lock:
            count = self._attempts.get(counter, 0) + 1
            self._attempts[counter] = count
            return count

    def _record(self, kind: FaultKind) -> None:
        with self._lock:
            self.injected[kind] = self.injected.get(kind, 0) + 1

    def injected_total(self) -> int:
        return sum(self.injected.values())

    def _transient_strike(
        self, kind: FaultKind, key: str, scope: str | None = None
    ) -> bool:
        """Advance the attempt counter of ``key`` (within ``scope``, when
        given); True while the fault is active."""
        depth = self.plan.fail_depth(kind, key)
        if depth == 0:
            return False
        if self._next_attempt(kind, key, scope) > depth:
            return False
        self._record(kind)
        return True

    # -- browser.dns seam --------------------------------------------------

    def dns_hook(self, host: str) -> NetError | None:
        """Transient resolution failure for ``host``, if scheduled."""
        if self._transient_strike(FaultKind.DNS, host):
            return NetError.ERR_NAME_NOT_RESOLVED
        return None

    # -- browser.network seam ----------------------------------------------

    def connect_hook(self, host: str, port: int) -> NetError | None:
        """Transient connect-level failure for ``host:port``, if scheduled."""
        key = f"{host}:{port}"
        if self._transient_strike(FaultKind.CONNECTION_RESET, key):
            return NetError.ERR_CONNECTION_RESET
        if self._transient_strike(FaultKind.TLS, key):
            return NetError.ERR_SSL_PROTOCOL_ERROR
        return None

    # -- browser.webrtc seams ----------------------------------------------

    def stun_hook(self, peer: str) -> NetError | None:
        """Transient STUN binding timeout for ``peer`` (``host:port``)."""
        if self._transient_strike(FaultKind.STUN_TIMEOUT, peer):
            return NetError.ERR_TIMED_OUT
        return None

    def mdns_hook(self, interface: str) -> NetError | None:
        """Transient mDNS registration failure for ``interface``."""
        if self._transient_strike(FaultKind.MDNS_RESOLVE_FAIL, interface):
            return NetError.ERR_NAME_NOT_RESOLVED
        return None

    # -- crawler.connectivity seam ----------------------------------------

    def connectivity_hook(self) -> bool:
        """True while a scheduled uplink outage is in effect.

        Outages are counter-triggered: an ``outage`` spec with
        ``at_count=N, duration=D`` swallows connectivity checks
        N .. N+D-1 (1-based), then the uplink recovers — bounded by
        construction, so a retry policy with enough attempts rides it out.
        """
        self._connectivity_checks += 1
        check = self._connectivity_checks
        for spec in self.plan.specs(FaultKind.OUTAGE):
            if spec.at_count is None or spec.duration <= 0:
                continue
            if spec.at_count <= check < spec.at_count + spec.duration:
                self._record(FaultKind.OUTAGE)
                return True
        return False

    # -- netlog seam -------------------------------------------------------

    def corrupt_netlog(
        self, document: "str | bytes", key: str
    ) -> "str | bytes":
        """Damage a serialised NetLog document the way real crashes do.

        Polymorphic over the two archive formats: text documents are JSON,
        byte documents are binary ``nlbin-v1`` — each fault kind has the
        analogous physical shape in both (same stable key-derived
        positions, so a fault plan damages the same visits regardless of
        capture format).

        When ``key`` is scheduled for truncation, the document loses its
        tail from a stable, key-derived position (at minimum the closing
        ``]}`` — the signature of a killed Chrome); a spec with
        ``duration > 0`` additionally NUL-pads the wound, modelling
        filesystem preallocation after a power loss.

        ``torn-write`` specs punch a NUL-filled hole of ``duration``
        characters (default 64) into the interior of the document — the
        mark of a multi-block write whose middle block never flushed.
        ``bit-flip`` specs damage the measurement payload in place and
        invisibly to framing: one digit substituted in the back half of a
        JSON events array (the document stays valid JSON), or one bit
        flipped inside a binary event frame's payload (the framing stays
        walkable) — either way only checksum verification can see the
        damage.  Unscheduled keys pass through untouched; a key scheduled
        for several kinds suffers them all, truncation first.
        """
        binary = isinstance(document, (bytes, bytearray))
        if binary:
            document = bytes(document)
        nul = b"\x00" if binary else "\x00"
        for spec in self.plan.specs(FaultKind.NETLOG_TRUNCATION):
            if not self.plan.selects(spec, key):
                continue
            self._record(FaultKind.NETLOG_TRUNCATION)
            digest = _stable_hash(f"{self.plan.seed}:cut:{key}")
            # Cut somewhere in the back half, but never keep the final
            # two characters (the `]}` Chrome fails to write; in a binary
            # document at minimum the trailer frame is lost).
            fraction = 0.5 + (digest % 4500) / 10_000.0
            cut = min(int(len(document) * fraction), max(len(document) - 2, 0))
            document = document[:cut]
            if spec.duration > 0:
                document += nul * spec.duration
            break
        for spec in self.plan.specs(FaultKind.TORN_WRITE):
            if not self.plan.selects(spec, key):
                continue
            self._record(FaultKind.TORN_WRITE)
            digest = _stable_hash(f"{self.plan.seed}:tear:{key}")
            width = spec.duration if spec.duration > 0 else 64
            # The hole lands in the 30–70% region: interior damage with
            # an intact head and tail, unlike a truncation.
            fraction = 0.3 + (digest % 4000) / 10_000.0
            start = min(int(len(document) * fraction), max(len(document) - 1, 0))
            end = min(start + width, len(document))
            document = document[:start] + nul * (end - start) + document[end:]
            break
        for spec in self.plan.specs(FaultKind.BIT_FLIP):
            if not self.plan.selects(spec, key):
                continue
            digest = _stable_hash(f"{self.plan.seed}:flip:{key}")
            fraction = 0.45 + (digest % 4000) / 10_000.0
            damage = (
                _frame_bit_flip(document, fraction, digest)
                if binary
                else _events_digit_flip(document, fraction)
            )
            if damage is not None:
                position, replacement = damage
                document = (
                    document[:position] + replacement + document[position + 1 :]
                )
                self._record(FaultKind.BIT_FLIP)
            break
        return document

    # -- storage.db seam ---------------------------------------------------

    def storage_hook(self, key: str) -> None:
        """Raise :class:`StorageWriteError` on scheduled write attempts."""
        if self._transient_strike(FaultKind.STORAGE_WRITE, key):
            raise StorageWriteError(f"injected storage write failure: {key}")

    # -- netlog-archive seam -----------------------------------------------

    def archive_write_hook(self, key: str) -> None:
        """Raise :class:`InjectedDiskFullError` on scheduled archive writes.

        Transient like storage writes: a ``disk-full`` spec with
        ``times=N`` fails the first N archive attempts for a selected
        key, then the space "frees up" — so a retrying caller recovers,
        while a single-shot caller leaves a hole for ``repro fsck``.
        """
        if self._transient_strike(FaultKind.DISK_FULL, key):
            raise InjectedDiskFullError(
                f"injected disk-full archiving NetLog: {key}"
            )

    # -- crawler.executor seams --------------------------------------------

    def hang_hook(self, key: str, scope: str | None = None) -> bool:
        """True when this attempt on ``key`` wedges until its wall deadline.

        Transient like DNS: a ``hang`` spec with ``times=N`` wedges the
        first N attempts on a selected key.  Attempts count per
        (``scope``, ``key``): the executor passes the visit's OS, so each
        (OS, domain) visit sees its own schedule; serve passes none and
        counts per upload digest.
        """
        return self._transient_strike(FaultKind.HANG, key, scope)

    def slow_hook(self, key: str, scope: str | None = None) -> float:
        """Simulated milliseconds this attempt on ``key`` stalls (0.0: none).

        Every ``slow`` spec that selects ``key`` counts the attempt (per
        ``scope`` and ``key``, as in :meth:`hang_hook`); the stall is the
        longest ``duration`` among the specs whose ``times`` the attempt
        is still within.
        """
        specs = [
            spec
            for spec in self.plan.specs(FaultKind.SLOW)
            if self.plan.selects(spec, key)
        ]
        if not specs:
            return 0.0
        count = self._next_attempt(FaultKind.SLOW, key, scope)
        stall = max(
            (spec.duration for spec in specs if count <= spec.times), default=0
        )
        if stall:
            self._record(FaultKind.SLOW)
        return float(stall)

    # -- crawler.fabric seams ----------------------------------------------

    def shard_crash_hook(
        self, shard_key: str, generation: int, visit_count: int
    ) -> bool:
        """Whether a shard process should SIGKILL itself right now.

        Fires when a ``shard-crash`` spec selects ``shard_key`` (the
        stable shard id), the shard has completed exactly ``at_count``
        visits in this incarnation, and the incarnation's restart
        ``generation`` (0 for the first launch) is below the spec's
        ``times`` — so a default spec kills each selected shard once and
        lets the coordinator's restart-with-resume converge.
        """
        for spec in self.plan.specs(FaultKind.SHARD_CRASH):
            if (
                spec.at_count is not None
                and visit_count == spec.at_count
                and generation < spec.times
                and self.plan.selects(spec, shard_key)
            ):
                self._record(FaultKind.SHARD_CRASH)
                return True
        return False

    def shard_stall_hook(
        self, shard_key: str, generation: int, visit_count: int
    ) -> float:
        """Seconds a shard should wedge (no heartbeats, no progress).

        Returns 0.0 when no ``shard-stall`` spec strikes; otherwise the
        spec's ``duration`` in wall-clock seconds.  Selection semantics
        mirror :meth:`shard_crash_hook`.
        """
        for spec in self.plan.specs(FaultKind.SHARD_STALL):
            if (
                spec.at_count is not None
                and visit_count == spec.at_count
                and generation < spec.times
                and self.plan.selects(spec, shard_key)
            ):
                self._record(FaultKind.SHARD_STALL)
                return float(max(spec.duration, 1))
        return 0.0

    # -- serve seams ---------------------------------------------------------

    def slow_client_hook(self, key: str) -> float:
        """Extra seconds the server should dwell per received body chunk.

        Models a client that trickles its upload.  Returns 0.0 when no
        ``slow-client`` spec strikes ``key`` (the upload digest or remote
        address); otherwise the spec's ``duration`` in milliseconds
        (default 50) converted to seconds.  The HTTP layer adds the dwell
        inside its read loop, so a read deadline can catch it.
        """
        for spec in self.plan.specs(FaultKind.SLOW_CLIENT):
            if self.plan.selects(spec, key):
                self._record(FaultKind.SLOW_CLIENT)
                return (spec.duration if spec.duration > 0 else 50) / 1000.0
        return 0.0

    def torn_upload_hook(self, body: bytes, key: str) -> bytes:
        """Drop the tail of an upload body, if scheduled.

        The cut lands in the back half at a stable, key-derived position —
        the shape a dropped connection leaves.  Transient per ``times``:
        after the scheduled number of torn attempts the client "recovers"
        and later uploads of the same key arrive whole.
        """
        if self._transient_strike(FaultKind.TORN_UPLOAD, key):
            digest = _stable_hash(f"{self.plan.seed}:torn-upload:{key}")
            fraction = 0.5 + (digest % 4500) / 10_000.0
            cut = min(int(len(body) * fraction), max(len(body) - 2, 0))
            return body[:cut]
        return body

    def worker_crash_hook(self, key: str) -> None:
        """Raise :class:`InjectedWorkerCrashError` on scheduled attempts.

        Transient like storage writes: a ``worker-crash`` spec with
        ``times=N`` kills the first N analysis attempts for a selected
        upload digest, then the job succeeds — so the engine's bounded
        re-run masks shallow crashes while deep ones quarantine.
        """
        if self._transient_strike(FaultKind.WORKER_CRASH, key):
            raise InjectedWorkerCrashError(
                f"injected serve worker crash: {key}"
            )

    def journal_write_hook(self, key: str) -> None:
        """Raise :class:`InjectedDiskFullError` on scheduled journal writes."""
        if self._transient_strike(FaultKind.JOURNAL_DISK_FULL, key):
            raise InjectedDiskFullError(
                f"injected disk-full writing serve job journal: {key}"
            )

    # -- campaign crash seam -----------------------------------------------

    def on_visit(self) -> None:
        """Advance the visit counter; raise when a crash is scheduled."""
        with self._lock:
            self._visits += 1
            visits = self._visits
        for spec in self.plan.specs(FaultKind.CRASH):
            if spec.at_count is not None and visits == spec.at_count:
                self._record(FaultKind.CRASH)
                raise InjectedCrashError(
                    f"injected crash at visit {visits}"
                )


def _events_digit_flip(text: str, fraction: float) -> tuple[int, str] | None:
    """``(position, digit)``: the first digit at or after ``fraction`` of
    the events array, bumped by one, or None when none follows.

    Rot lands inside the events array (the measurement payload); the
    static constants header is re-derivable vocabulary, so damage there
    is not an integrity event.  Digit-for-digit substitution keeps the
    JSON well-formed.
    """
    marker = text.find('"events": [')
    base = marker + len('"events": [') if marker >= 0 else 0
    position = base + int((len(text) - base) * fraction)
    for index in range(position, len(text)):
        ch = text[index]
        if ch.isdigit():
            return index, str((int(ch) + 1) % 10)
    return None


def _frame_bit_flip(
    data: bytes, fraction: float, digest: int
) -> tuple[int, bytes] | None:
    """``(position, byte)``: one byte inside an event frame's payload with
    its low bit flipped, or None when the document has no event frame.

    Walks the binary document's framing so the flip lands *inside* a
    record — in-place corruption the frame CRC catches — rather than on a
    frame header, which would read as framing loss (a different damage
    class).  Mirrors the JSON shape, where the substituted digit lands
    inside the events array.
    """
    from ..netlog.binary import MAGIC, TAG_EVENT, _FRAME_HEAD

    if not data.startswith(MAGIC):
        return None
    payloads: list[tuple[int, int]] = []
    offset = len(MAGIC)
    while offset + _FRAME_HEAD.size <= len(data):
        tag, length, _ = _FRAME_HEAD.unpack_from(data, offset)
        start = offset + _FRAME_HEAD.size
        end = start + length
        if end > len(data):
            break
        if tag == TAG_EVENT and length > 0:
            payloads.append((start, length))
        offset = end
    if not payloads:
        return None
    start, length = payloads[int((len(payloads) - 1) * fraction)]
    position = start + digest % length
    return position, bytes((data[position] ^ 0x01,))
