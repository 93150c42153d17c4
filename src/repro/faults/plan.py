"""Fault plans: seeded, serialisable schedules of pipeline faults.

A plan is a seed plus a list of :class:`FaultSpec` entries.  Whether a
given opportunity (a DNS lookup for ``example.com``, the 512th visit of a
campaign, ...) is faulted is a pure function of ``(seed, kind, key)`` — no
shared RNG state — so the same plan produces the same injected-failure
schedule regardless of evaluation order, process, or how many other fault
kinds are active.  That determinism is what lets the chaos benches assert
Table 1/5 invariance under injection.

Plans serialise to JSON (``repro study --fault-plan plan.json``)::

    {
      "seed": "chaos-2026",
      "faults": [
        {"kind": "dns", "rate": 0.05, "times": 2},
        {"kind": "reset", "rate": 0.02},
        {"kind": "outage", "at_count": 40, "duration": 2},
        {"kind": "crash", "at_count": 500}
      ]
    }
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence


class FaultKind(str, enum.Enum):
    """Where in the pipeline a fault strikes."""

    #: Transient ``ERR_NAME_NOT_RESOLVED`` at the resolver seam.
    DNS = "dns"
    #: Transient ``ERR_CONNECTION_RESET`` at the network-connect seam.
    CONNECTION_RESET = "reset"
    #: Transient ``ERR_SSL_PROTOCOL_ERROR`` at the network-connect seam.
    TLS = "tls"
    #: Uplink outage at the connectivity gate, bounded in checks.
    OUTAGE = "outage"
    #: Tail truncation of a serialised NetLog document.
    NETLOG_TRUNCATION = "netlog-truncation"
    #: A NUL-filled hole in the middle of a serialised NetLog document —
    #: the shape a torn multi-block write leaves after a power loss
    #: (some blocks flushed, an interior one never made it).  ``duration``
    #: overrides the hole width in characters (default ~64).
    TORN_WRITE = "torn-write"
    #: Silent single-character corruption of a serialised NetLog
    #: document: one digit in the back half of the document is replaced
    #: with a different digit, modelling storage bit-rot.  The document
    #: stays structurally valid JSON — only checksums can see the damage.
    BIT_FLIP = "bit-flip"
    #: Transient ``ENOSPC`` when persisting a NetLog document to the
    #: archive.  ``times`` is the transient depth, like other transients.
    DISK_FULL = "disk-full"
    #: Transient failure writing a row to the telemetry store.
    STORAGE_WRITE = "storage-write"
    #: Hard crash of the campaign process after N visits.
    CRASH = "crash"
    #: Visit wedges in wall-clock time until its wall deadline cancels
    #: it (supervised executor and serve engine).  ``times`` is the transient depth:
    #: how many attempts on a selected site hang before it recovers —
    #: a depth at or above the executor's quarantine threshold makes the
    #: site a deterministic failer that ends in the dead-letter queue.
    HANG = "hang"
    #: Visit stalls for ``duration`` extra *simulated* milliseconds
    #: (supervised executor only).  A stall that pushes the visit past
    #: its simulated deadline budget is cancelled like a hang; a smaller
    #: one is ridden out and merely costs virtual time.
    SLOW = "slow"
    #: Hard SIGKILL of one shard worker *process* (sharded fabric only).
    #: ``rate`` selects which shards die (keyed by the shard id),
    #: ``at_count`` is the shard-local visit index at which the process
    #: kills itself, and ``times`` is how many restart *generations* the
    #: fault recurs for (1 = the first incarnation dies once and the
    #: coordinator's restart-with-resume completes the shard).
    SHARD_CRASH = "shard-crash"
    #: A shard worker process wedges: it stops heartbeating (and making
    #: progress) for ``duration`` seconds after ``at_count`` shard-local
    #: visits.  A stall longer than the coordinator's heartbeat timeout
    #: is detected as lost liveness; the coordinator kills and restarts
    #: the shard with resume.  ``rate``/``times`` as for ``shard-crash``.
    SHARD_STALL = "shard-stall"
    #: An HTTP client that trickles its upload (serve daemon only):
    #: ``duration`` extra milliseconds of stall per received body chunk
    #: (default 50).  A stall that pushes the upload past the server's
    #: read deadline gets 408 — slow clients must never hold a worker.
    SLOW_CLIENT = "slow-client"
    #: The HTTP client connection drops mid-upload (serve daemon only):
    #: the received body loses its tail from a stable, key-derived
    #: position.  The salvage parser must still produce the same report
    #: as ``repro analyze`` over the identical torn bytes.
    TORN_UPLOAD = "torn-upload"
    #: A serve worker thread dies mid-analysis (serve daemon only).
    #: ``times`` is the transient depth per upload digest: how many
    #: attempts crash before the job succeeds — a depth at or above the
    #: engine's quarantine threshold makes the upload a deterministic
    #: poison job that ends quarantined, never a wrong report.
    WORKER_CRASH = "worker-crash"
    #: Transient ``ENOSPC`` persisting a serve job-journal write.  The
    #: engine degrades gracefully (the job still completes in memory);
    #: only crash-recovery durability for that write is lost.
    JOURNAL_DISK_FULL = "journal-disk-full"
    #: A STUN binding check to an explicit WebRTC peer times out
    #: (``ERR_TIMED_OUT`` after the 400 ms binding deadline).  Keyed by
    #: ``host:port`` of the peer; ``times`` is the transient depth.  Only
    #: the *response* event changes — the binding request was already on
    #: the wire — so leak detection stays byte-identical by design.
    STUN_TIMEOUT = "stun-timeout"
    #: The mDNS registration of a host candidate fails
    #: (``ERR_NAME_NOT_RESOLVED``); Chrome's safe default withholds the
    #: candidate entirely rather than fall back to the raw address.  The
    #: withheld candidate was the obfuscated (non-leaking) one, so leak
    #: tables are unaffected by design.  Keyed by the interface address.
    MDNS_RESOLVE_FAIL = "mdns-resolve-fail"


#: Resolution of the per-key fault draw (1/10^4 rate granularity).
_RATE_SCALE = 10_000


def _coerce(record: dict, name: str, converter, default):
    """Convert one spec field, naming the field in any failure.

    Strict about lookalikes: booleans are not numbers here, and a float
    with a fractional part must not silently truncate into an ``int`` —
    either would let a plan round-trip through JSON meaning something
    other than what was written.
    """
    value = record.get(name, default)
    if value is default:
        return default
    if isinstance(value, bool):
        raise ValueError(f"field '{name}' must be a {converter.__name__}, got {value!r}")
    if converter is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"field '{name}' must be a whole number, got {value!r}")
    try:
        return converter(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"field '{name}' must be a {converter.__name__}, got {value!r}"
        ) from exc


def _stable_hash(text: str) -> int:
    """FNV-1a, the repo's stable cross-process hash."""
    digest = 2166136261
    for ch in text:
        digest = ((digest ^ ord(ch)) * 16777619) & 0xFFFFFFFF
    return digest


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One scheduled fault family.

    ``rate``
        Probability that any given key (domain, host, write, document) is
        selected for injection; the draw is a stable hash of the plan seed
        and the key, so it is identical across runs.
    ``times``
        How many consecutive attempts on a selected key fail before it
        recovers — the *transient depth*.  A retry policy with
        ``max_attempts > times`` fully masks the fault.
    ``duration``
        For :attr:`FaultKind.OUTAGE`: how many consecutive connectivity
        checks the outage swallows.
    ``at_count``
        For counter-triggered kinds (``outage``, ``crash``): the 1-based
        opportunity index at which the fault fires.
    """

    kind: FaultKind
    rate: float = 0.0
    times: int = 1
    duration: int = 0
    at_count: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be within [0, 1], got {self.rate}")
        if self.times < 1:
            raise ValueError("times must be >= 1")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")
        if self.at_count is not None and self.at_count < 1:
            raise ValueError("at_count is 1-based")

    def to_json(self) -> dict:
        record: dict = {"kind": self.kind.value}
        if self.rate:
            record["rate"] = self.rate
        if self.times != 1:
            record["times"] = self.times
        if self.duration:
            record["duration"] = self.duration
        if self.at_count is not None:
            record["at_count"] = self.at_count
        return record

    @classmethod
    def from_json(cls, record: dict) -> "FaultSpec":
        if not isinstance(record, dict):
            raise ValueError(f"fault spec must be an object, got {record!r}")
        unknown = set(record) - {"kind", "rate", "times", "duration", "at_count"}
        if unknown:
            raise ValueError(
                f"fault spec has unknown field(s) {sorted(unknown)} in {record!r}"
            )
        if "kind" not in record:
            raise ValueError(f"fault spec is missing 'kind' in {record!r}")
        try:
            kind = FaultKind(record["kind"])
        except ValueError as exc:
            known = ", ".join(k.value for k in FaultKind)
            raise ValueError(
                f"unknown fault kind {record['kind']!r} (known kinds: {known})"
            ) from exc
        try:
            return cls(
                kind=kind,
                rate=_coerce(record, "rate", float, 0.0),
                times=_coerce(record, "times", int, 1),
                duration=_coerce(record, "duration", int, 0),
                at_count=(
                    _coerce(record, "at_count", int, None)
                    if record.get("at_count") is not None
                    else None
                ),
            )
        except ValueError as exc:
            raise ValueError(f"bad {kind.value!r} fault spec: {exc}") from exc


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A seeded schedule of faults across the pipeline seams."""

    seed: str = "fault-plan"
    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))

    # -- composition -------------------------------------------------------

    def specs(self, kind: FaultKind) -> tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.faults if spec.kind is kind)

    def without(self, *kinds: FaultKind) -> "FaultPlan":
        """A copy with the given fault kinds removed (e.g. drop ``crash``
        when restarting a crashed campaign)."""
        return FaultPlan(
            seed=self.seed,
            faults=tuple(s for s in self.faults if s.kind not in kinds),
        )

    # -- the deterministic draw -------------------------------------------

    def selects(self, spec: FaultSpec, key: str) -> bool:
        """Whether ``spec`` strikes ``key`` under this plan's seed."""
        if spec.rate <= 0.0:
            return False
        draw = _stable_hash(f"{self.seed}:{spec.kind.value}:{key}") % _RATE_SCALE
        return draw < int(spec.rate * _RATE_SCALE)

    def fail_depth(self, kind: FaultKind, key: str) -> int:
        """How many consecutive attempts on ``key`` should fail (0 = none)."""
        depth = 0
        for spec in self.specs(kind):
            if self.selects(spec, key):
                depth = max(depth, spec.times)
        return depth

    def schedule(self, kind: FaultKind, keys: Iterable[str]) -> dict[str, int]:
        """Materialise the fault schedule for a key universe.

        Maps each selected key to its transient depth; used by tests to
        assert two runs of the same plan inject identically.
        """
        out: dict[str, int] = {}
        for key in keys:
            depth = self.fail_depth(kind, key)
            if depth:
                out[key] = depth
        return out

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [spec.to_json() for spec in self.faults],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    @classmethod
    def from_json(cls, document: dict) -> "FaultPlan":
        if not isinstance(document, dict):
            raise ValueError("fault plan must be a JSON object")
        seed = document.get("seed", "fault-plan")
        if not isinstance(seed, str):
            raise ValueError(f"fault plan field 'seed' must be a string, got {seed!r}")
        raw_faults = document.get("faults", [])
        if not isinstance(raw_faults, Sequence) or isinstance(raw_faults, str):
            raise ValueError("fault plan field 'faults' must be an array")
        faults = []
        for position, record in enumerate(raw_faults):
            try:
                faults.append(FaultSpec.from_json(record))
            except ValueError as exc:
                raise ValueError(f"faults[{position}]: {exc}") from exc
        return cls(seed=seed, faults=tuple(faults))

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        return cls.from_json(json.loads(text))

    @classmethod
    def load(cls, fp: IO[str]) -> "FaultPlan":
        return cls.from_json(json.load(fp))
