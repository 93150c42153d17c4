"""NetLog JSON parser.

Parses documents written by :mod:`repro.netlog.writer` — and, for the event
types we model, documents written by real Chrome — back into
:class:`~repro.netlog.events.NetLogEvent` streams.

Two failure philosophies coexist:

* ``strict=True`` (default): any malformed record or damaged document
  raises :class:`NetLogParseError` — the right mode for logs we wrote
  ourselves, where damage means a bug.
* ``strict=False``: *salvage mode*.  Records with unknown types or
  malformed fields are skipped and counted, and a physically damaged
  document — tail-truncated (Chrome omits the closing ``]}`` when
  killed), NUL-padded, or cut mid-record — yields every event in its
  intact prefix instead of raising.  Pass a :class:`ParseStats` to learn
  what was recovered versus dropped.

Documents written with ``checksums=True`` (see :mod:`repro.netlog.writer`)
are verified as they are parsed: each record's CRC32 is recomputed over
its canonical form, the rolling hash chain is re-derived link by link,
and the ``integrity`` trailer is checked against the final chain value.
In strict mode any mismatch raises :class:`NetLogIntegrityError`; in
salvage mode the corrupt record is dropped, the damage is counted, and
the index of the first divergent record is reported in
:attr:`ParseStats.first_divergence`.
"""

from __future__ import annotations

import json
import sys
import time
import zlib
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator

from .. import obs
from .constants import (
    EVENT_TYPE_OF,
    SOURCE_TYPE_OF,
    EventPhase,
    EventType,
    SourceType,
)
from .events import NetLogEvent, NetLogSource
from .writer import (
    CHAIN_SEED,
    NO_PARAMS,
    canonical_fields_bytes,
    canonical_record_bytes,
)

_PARSE_SECONDS = obs.histogram(
    "repro_netlog_parse_seconds",
    "NetLog document parse time by mode (strict, lenient, or salvage "
    "when the document was not even valid JSON) and document format "
    "(json or binary)",
    ("mode", "format"),
)
_RECORDS = obs.counter(
    "repro_netlog_records_total",
    "NetLog records by parse disposition",
    ("disposition",),
)

#: (ParseStats attribute, disposition label) pairs mirrored into
#: ``repro_netlog_records_total`` after each whole-document parse.
_STAT_DISPOSITIONS = (
    ("parsed", "parsed"),
    ("verified", "verified"),
    ("dropped_malformed", "dropped_malformed"),
    ("dropped_unknown_type", "dropped_unknown_type"),
    ("checksum_failures", "checksum_failure"),
    ("chain_breaks", "chain_break"),
)


class NetLogParseError(ValueError):
    """Raised when a document is not a well-formed NetLog."""


class NetLogTruncationError(NetLogParseError):
    """The document ended prematurely (killed writer, torn write)."""


class NetLogIntegrityError(NetLogParseError):
    """A checksummed document failed CRC or hash-chain verification."""


@dataclass(slots=True)
class ParseStats:
    """Accounting for one parse: what was recovered, what was lost."""

    #: Events successfully decoded (== salvaged events on a damaged doc).
    parsed: int = 0
    #: Records skipped because their event type is not in our vocabulary.
    dropped_unknown_type: int = 0
    #: Records skipped because a field was malformed (bad ``time``,
    #: ``source`` or ``params``), plus a partial record lost to truncation.
    dropped_malformed: int = 0
    #: The document ended before its closing ``]}``.
    truncated: bool = False
    #: Records whose CRC32 checksum was verified successfully.
    verified: int = 0
    #: Records dropped because their CRC32 did not match their content
    #: (in-place corruption: a bit flip inside an otherwise valid record).
    checksum_failures: int = 0
    #: Points where the rolling hash chain did not link up (records lost,
    #: reordered or spliced between two individually-valid neighbours).
    chain_breaks: int = 0
    #: Index (0-based, in the ``events`` array) of the first record at
    #: which a checksummed document diverged from what its writer emitted
    #: — the first checksum failure, chain break, or dropped record.
    first_divergence: int | None = None

    @property
    def dropped(self) -> int:
        """Total records that did not become events."""
        return (
            self.dropped_unknown_type
            + self.dropped_malformed
            + self.checksum_failures
        )

    @property
    def damaged(self) -> bool:
        """Whether the parse lost anything at all."""
        return (
            self.truncated
            or self.dropped_malformed > 0
            or self.checksum_failures > 0
            or self.chain_breaks > 0
        )

    def describe(self) -> str:
        parts = [f"{self.parsed} events"]
        if self.truncated:
            parts.append("truncated document")
        if self.dropped_malformed:
            parts.append(f"{self.dropped_malformed} malformed records dropped")
        if self.dropped_unknown_type:
            parts.append(f"{self.dropped_unknown_type} unknown-type records skipped")
        if self.checksum_failures:
            parts.append(f"{self.checksum_failures} checksum failures")
        if self.chain_breaks:
            parts.append(f"{self.chain_breaks} hash-chain breaks")
        if self.first_divergence is not None:
            parts.append(f"first divergence at record {self.first_divergence}")
        return ", ".join(parts)


def _coerce_event_type(value: object, names: dict[str, int]) -> EventType | None:
    """Resolve an event type given either an int or a name string."""
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        return None
    if isinstance(value, int):
        try:
            return EventType(value)
        except ValueError:
            return None
    if isinstance(value, str):
        mapped = names.get(value)
        if mapped is not None:
            try:
                return EventType(mapped)
            except ValueError:
                return None
    return None


def event_params(value: object) -> dict | None:
    """The record rule for ``params``: a record's event params, given
    the value its ``params`` key holds (None when it has none).

    A falsy value (absent, ``null``, ``{}``, ``[]``, ``0``, ``""``,
    ``false``) is empty params and an object is itself; anything else
    is malformed, which comes back as None.  Both encodings apply it:
    the JSON walks through :func:`_classify_record`, the binary frame
    loop to each frame's decoded params.
    """
    if not value:
        return {}
    return value if isinstance(value, dict) else None


def _classify_record(
    record: object,
    event_names: dict[str, int],
    strict: bool,
    stats: ParseStats | None,
    build: bool,
) -> NetLogEvent | bool | None:
    """The record rules: what one ``events`` slot is as an event.

    A record that becomes an event is counted parsed and returned as a
    :class:`NetLogEvent`, or as True when ``build`` is False.  A record
    that cannot become one is counted (unknown type or malformed) and
    comes back as None; strict mode raises :class:`NetLogParseError`
    instead.  The parse walk and :func:`parse_record` build, the audit
    walk (:func:`_audit_text`) only counts, so both keep one set of
    rules.
    """
    if not isinstance(record, dict):
        if strict:
            raise NetLogParseError(
                f"event record must be an object, got {type(record).__name__}"
            )
        if stats is not None:
            stats.dropped_malformed += 1
        return None
    try:
        raw_source = record["source"]
        time = float(record["time"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if strict:
            raise NetLogParseError(f"malformed event record: {record!r}") from exc
        if stats is not None:
            stats.dropped_malformed += 1
        return None

    event_type = _coerce_event_type(record.get("type"), event_names)
    if event_type is None:
        # Forward compatibility: a dump written by a newer binary may carry
        # event types this vocabulary has never heard of.  That is not
        # damage — the record is well formed — so every salvage-capable
        # read path skips and counts it; only strict mode, meant for logs
        # we wrote ourselves, treats the foreign vocabulary as a bug.
        if strict:
            raise NetLogParseError(f"unknown event type: {record.get('type')!r}")
        if stats is not None:
            stats.dropped_unknown_type += 1
        return None

    if not isinstance(raw_source, dict):
        if strict:
            raise NetLogParseError("event source must be an object")
        if stats is not None:
            stats.dropped_malformed += 1
        return None
    try:
        source_id = int(raw_source["id"])
        source_type = SourceType(int(raw_source.get("type", 0)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if strict:
            raise NetLogParseError(f"malformed source: {raw_source!r}") from exc
        if stats is not None:
            stats.dropped_malformed += 1
        return None

    try:
        phase = EventPhase(int(record.get("phase", 0)))
    except (TypeError, ValueError, OverflowError):
        # Unreadable (null, a list, an infinity) or unknown: no phase.
        phase = EventPhase.NONE

    params = event_params(record.get("params"))
    if params is None:
        if strict:
            raise NetLogParseError("event params must be an object")
        if stats is not None:
            stats.dropped_malformed += 1
        return None

    if stats is not None:
        stats.parsed += 1
    if not build:
        return True
    return NetLogEvent(
        time=time,
        type=event_type,
        source=NetLogSource(id=source_id, type=source_type),
        phase=phase,
        params=params,
    )


def parse_record(
    record: dict,
    *,
    event_names: dict[str, int] | None = None,
    strict: bool = True,
    stats: ParseStats | None = None,
) -> NetLogEvent | None:
    """Parse a single event record.

    Returns ``None`` for records that cannot become events when ``strict``
    is False — unknown types *and* malformed fields are both
    skip-and-count in non-strict mode; raises :class:`NetLogParseError`
    otherwise.
    """
    return _classify_record(record, event_names or {}, strict, stats, True)


class ChainVerifier:
    """Incremental CRC/hash-chain verification over one ``events`` array.

    One instance is threaded through a parse; both the whole-document and
    streaming parsers share it.  Unchecksummed (legacy) documents pass
    through untouched: records without integrity fields are never
    penalised, and chain state only starts mattering once a checksummed
    record has been seen.

    After a failure the verifier *resyncs* on the next record whose own
    CRC verifies, adopting its stored chain value — so multiple
    independent corruptions in one document are each detected rather than
    cascading from the first.
    """

    __slots__ = ("value", "index", "synced", "seen_checksums")

    def __init__(self) -> None:
        self.value = CHAIN_SEED
        self.index = 0  # next record's index in the events array
        self.synced = True
        self.seen_checksums = False

    def _fail(
        self,
        index: int,
        detail: str,
        *,
        strict: bool,
        stats: ParseStats | None,
        chain: bool,
    ) -> bool:
        if strict:
            raise NetLogIntegrityError(f"record {index}: {detail}")
        if stats is not None:
            if chain:
                stats.chain_breaks += 1
            else:
                stats.checksum_failures += 1
            if stats.first_divergence is None:
                stats.first_divergence = index
        return False

    def verify(
        self,
        record: dict,
        *,
        strict: bool = False,
        stats: ParseStats | None = None,
    ) -> bool:
        """Check one decoded record; False means it must be dropped."""
        crc = record.get("crc")
        chain = record.get("chain")
        payload = (
            None if crc is None and chain is None else canonical_record_bytes(record)
        )
        return self.verify_canonical(
            payload, crc, chain, strict=strict, stats=stats
        )

    def verify_canonical(
        self,
        payload: bytes | None,
        crc: object,
        chain: object,
        *,
        strict: bool = False,
        stats: ParseStats | None = None,
    ) -> bool:
        """Check one record from its canonical bytes and stored integrity
        fields; False means it must be dropped.

        ``payload`` is the record's :func:`canonical_record_bytes`, or
        None for a record that stores neither ``crc`` nor ``chain``
        (nothing is hashed then).  :meth:`verify` derives it from a
        record dict; the binary full regime formats it straight from a
        frame's fields.
        """
        index = self.index
        self.index += 1
        if payload is None:
            # Legacy record.  In a document that *is* checksummed, a
            # record stripped of its integrity fields is itself damage —
            # the next checksummed record's chain will expose the gap.
            if self.seen_checksums:
                self.synced = False
            return True
        self.seen_checksums = True
        if crc is not None and crc != zlib.crc32(payload):
            self.synced = False
            return self._fail(
                index,
                "CRC32 mismatch (in-place corruption)",
                strict=strict,
                stats=stats,
                chain=False,
            )
        if stats is not None:
            stats.verified += 1
        if chain is None:
            self.synced = False
            return True
        if self.synced:
            expected = zlib.crc32(payload, self.value)
            if chain != expected:
                # CRC-valid record, broken linkage: records were lost or
                # spliced before this one.  Adopt its chain and go on.
                self._adopt(chain)
                return self._fail(
                    index,
                    "hash-chain break (records lost or reordered)",
                    strict=strict,
                    stats=stats,
                    chain=True,
                )
            self.value = expected
        else:
            # Resync after a known gap; the gap was already accounted.
            self._adopt(chain)
        return True

    def _adopt(self, chain: object) -> None:
        """Continue the walk from a record's stored chain value.  A value
        with no int form (a list, a non-numeric string, an infinity)
        cannot be continued from: the walk stays unsynced until a record
        resyncs it.
        """
        try:
            self.value = int(chain)
        except (TypeError, ValueError, OverflowError):
            self.synced = False
        else:
            self.synced = True

    def advance(self, payload: bytes, crc: int, chain: int) -> bool:
        """Take the common record in one step: the chain is in sync and
        the record's stored ``crc`` and ``chain`` both match ``payload``.

        Returns True with the verifier advanced exactly as
        :meth:`verify_canonical` would advance it; the caller counts the
        record verified.  Any other record returns False and leaves the
        verifier untouched, for :meth:`verify_canonical` to judge.
        """
        if self.synced and crc == zlib.crc32(payload):
            value = zlib.crc32(payload, self.value)
            if chain == value:
                self.value = value
                self.index += 1
                self.seen_checksums = True
                return True
        return False

    def mark_gap(self, stats: ParseStats | None = None) -> None:
        """Note a record the parser dropped (malformed/undecodable).

        In a checksummed document the gap is itself the divergence point,
        so it pins ``first_divergence`` if nothing earlier did.
        """
        index = self.index
        self.index += 1
        self.synced = False
        if (
            self.seen_checksums
            and stats is not None
            and stats.first_divergence is None
        ):
            stats.first_divergence = index

    def check_trailer(
        self,
        trailer: object,
        *,
        strict: bool = False,
        stats: ParseStats | None = None,
    ) -> None:
        """Verify the document's ``integrity`` trailer, if present.

        The record count is compared even when no checksummed record
        survived, so an emptied ``events`` array under a trailer that
        covers records is a chain break at record 0; the final chain
        value is only comparable once a checksummed record was seen.
        """
        if not isinstance(trailer, dict):
            return
        expected_events = trailer.get("events")
        expected_chain = trailer.get("chain")
        if (
            self.seen_checksums
            and self.synced
            and isinstance(expected_chain, int)
            and expected_chain != self.value
        ) or (
            isinstance(expected_events, int) and expected_events != self.index
        ):
            detail = (
                f"integrity trailer mismatch: trailer covers "
                f"{expected_events} records ending at chain "
                f"{expected_chain}, parse saw {self.index}"
            )
            if strict:
                raise NetLogIntegrityError(detail)
            if stats is not None:
                stats.chain_breaks += 1
                if stats.first_divergence is None:
                    stats.first_divergence = self.index


def load(
    fp: IO[str] | IO[bytes],
    *,
    strict: bool = True,
    stats: ParseStats | None = None,
    verify: str = "fast",
) -> list[NetLogEvent]:
    """Parse a complete NetLog document from a file object (either format)."""
    return loads(fp, strict=strict, stats=stats, verify=verify)


def loads(
    source: "bytes | str | IO[str] | IO[bytes]",
    *,
    strict: bool = True,
    stats: ParseStats | None = None,
    verify: str = "fast",
) -> list[NetLogEvent]:
    """Parse a complete NetLog document — JSON or binary, from any source.

    ``source`` may be document text, document bytes, or a file object of
    either; the format is sniffed from the first byte (binary documents
    open with the ``nlbin-v1`` magic).  ``verify`` is forwarded to the
    binary parser (``"fast"`` frame-level integrity or ``"full"``
    canonical crc32-chain-v1 re-derivation); JSON documents always verify
    fully.

    In non-strict mode a document that is not even well formed — the
    signature of truncation, NUL padding, or a torn write — is salvaged:
    every event in the intact prefix is recovered and the damage is
    reported through ``stats`` instead of an exception.
    """
    from .codec import coerce_document

    format_name, document = coerce_document(source)
    return _observed(
        format_name,
        strict,
        stats,
        lambda own: _parse_any(
            format_name, document, strict=strict, stats=own, verify=verify
        ),
    )


def _observed(
    format_name: str,
    strict: bool,
    stats: ParseStats | None,
    body: Callable[[ParseStats | None], tuple[object, str]],
) -> object:
    """Run one whole-document parse body under the parse metrics.

    ``body(stats)`` does the work and returns ``(result, mode)``;
    ``result`` is returned.  With obs on, the body's wall time lands in
    ``repro_netlog_parse_seconds{mode,format}`` and its ParseStats
    deltas in ``repro_netlog_records_total{disposition}``, also when it
    raises.  An internal ParseStats is used when the caller passed none;
    deltas keep reused caller stats honest.  :func:`loads` and the audit
    (:func:`repro.netlog.parallel.verify_document`) both run through
    here, so they record alike.
    """
    if not _PARSE_SECONDS.enabled:
        return body(stats)[0]
    own_stats = stats if stats is not None else ParseStats()
    before = tuple(getattr(own_stats, attr) for attr, _ in _STAT_DISPOSITIONS)
    start = time.perf_counter()
    mode = "strict" if strict else "lenient"
    try:
        result, mode = body(own_stats)
        return result
    finally:
        _PARSE_SECONDS.observe(
            time.perf_counter() - start, labels=(mode, format_name)
        )
        for (attr, disposition), prior in zip(_STAT_DISPOSITIONS, before):
            delta = getattr(own_stats, attr) - prior
            if delta:
                _RECORDS.inc(delta, labels=(disposition,))


#: Largest finite float.  The audit's one step leaves an int ``time``
#: beyond it to the record rules, whose ``float()`` may overflow on it.
_FLOAT_MAX = sys.float_info.max


def _audit_text(text: str, stats: ParseStats | None) -> str:
    """The JSON audit: :func:`_parse_text` in salvage mode, for stats only.

    Returns the parse mode.  Text that is not valid JSON salvages through
    the streaming walker, as in a parse.  A decoded document runs the
    record walk of :func:`walk_records` with the same
    :class:`ChainVerifier` and record rules, building no event, and
    takes the common record in one step.  A checksummed record of the
    writers' shape (apart from ``crc``/``chain``, exactly ``time``, an
    int or float; ``type``, ``source`` with exactly ``id`` and ``type``,
    and ``phase``, all exact ints; and ``params``, any value, or none) is
    formatted from its fields by
    :func:`~repro.netlog.writer.canonical_fields_bytes`.  When, in
    addition, its ``crc`` and ``chain`` are ints, its ``time`` is finite
    and in float range, its type and source codes are known, its
    ``params`` (if any) are an object, and :meth:`ChainVerifier.advance`
    takes it, it is counted verified and parsed.  Every other record
    takes the walk's rules: :meth:`ChainVerifier.verify_canonical` over
    the formatted bytes, or over :func:`~repro.netlog.writer.
    canonical_record_bytes` (the bytes the parse hashes) for a record
    not of the writers' shape, then :func:`_classify_record`.
    """
    if stats is None:
        stats = ParseStats()
    try:
        document = json.loads(text)
    except ValueError:  # not JSON, or an int past the int-string limit
        _salvage(text, stats)
        return "salvage"
    event_names, records = _events_array(document)
    verifier = ChainVerifier()
    advance = verifier.advance
    verify = verifier.verify_canonical
    event_types = EVENT_TYPE_OF
    source_types = SOURCE_TYPE_OF
    for record in records:
        if not isinstance(record, dict):
            verifier.mark_gap(stats)
            _classify_record(record, event_names, False, stats, False)
            continue
        crc = record.get("crc")
        chain = record.get("chain")
        payload = None  # a record with neither field hashes nothing
        if crc is not None or chain is not None:
            source = record.get("source")
            params = record.get("params", NO_PARAMS)
            if (
                type(source) is dict
                and len(source) == 2
                and len(record)
                == ("crc" in record)
                + ("chain" in record)
                + (4 if params is NO_PARAMS else 5)
            ):
                time_value = record.get("time")
                type_code = record.get("type")
                phase = record.get("phase")
                source_id = source.get("id")
                source_type = source.get("type")
                time_type = type(time_value)
                if (
                    (time_type is float or time_type is int)
                    and type(type_code) is int
                    and type(phase) is int
                    and type(source_id) is int
                    and type(source_type) is int
                ):
                    payload = canonical_fields_bytes(
                        time_value, type_code, source_id, source_type, phase, params
                    )
                    if (
                        type(crc) is int
                        and type(chain) is int
                        and (
                            time_value - time_value == 0.0
                            if time_type is float
                            else -_FLOAT_MAX <= time_value <= _FLOAT_MAX
                        )
                        and type_code in event_types
                        and source_type in source_types
                        and (params is NO_PARAMS or type(params) is dict)
                        and advance(payload, crc, chain)
                    ):
                        stats.verified += 1
                        stats.parsed += 1
                        continue
            if payload is None:
                payload = canonical_record_bytes(record)
        if verify(payload, crc, chain, stats=stats):
            _classify_record(record, event_names, False, stats, False)
    verifier.check_trailer(document.get("integrity"), stats=stats)
    return "lenient"


def _parse_any(
    format_name: str,
    document: "bytes | str",
    *,
    strict: bool,
    stats: ParseStats | None,
    verify: str = "fast",
) -> tuple[list[NetLogEvent], str]:
    """Dispatch one materialised document to its format's parse body."""
    from .codec import FORMAT_BINARY

    if format_name == FORMAT_BINARY:
        from .binary import iter_events_binary

        events = list(
            iter_events_binary(
                document, strict=strict, stats=stats, verify=verify
            )
        )
        return events, "strict" if strict else "lenient"
    return _parse_text(document, strict=strict, stats=stats)


def _parse_text(
    text: str, *, strict: bool, stats: ParseStats | None
) -> tuple[list[NetLogEvent], str]:
    """The single JSON parse/salvage body; returns ``(events, mode)``.

    ``mode`` is ``strict``/``lenient`` for a well-formed JSON document
    and ``salvage`` when the text was not even valid JSON and the
    streaming walker recovered the intact prefix.  An integer literal
    past Python's int-string limit (4,300 digits) is undecodable too:
    ``json.loads`` raises a ``ValueError`` for it that is not a
    ``JSONDecodeError``.
    """
    try:
        document = json.loads(text)
    except ValueError as exc:
        if strict:
            raise NetLogParseError(f"invalid JSON: {exc}") from exc
        return _salvage(text, stats), "salvage"
    return (
        _parse_document(document, strict=strict, stats=stats),
        "strict" if strict else "lenient",
    )


def _salvage(text: str, stats: ParseStats | None) -> list[NetLogEvent]:
    """Recover the intact event prefix of a damaged document."""
    import io

    from .streaming import iter_events_streaming

    return list(
        iter_events_streaming(io.StringIO(text), strict=False, stats=stats)
    )


def iter_events(
    document: dict, *, strict: bool = True, stats: ParseStats | None = None
) -> Iterator[NetLogEvent]:
    """Yield events from an already-decoded NetLog document.

    Checksummed documents are verified record by record: a record whose
    CRC32 does not match its content is dropped (strict mode raises
    :class:`NetLogIntegrityError` instead), and the hash chain plus the
    ``integrity`` trailer are checked across the whole array.
    """
    event_names, raw_events = _events_array(document)
    verifier = ChainVerifier()
    yield from walk_records(
        raw_events, event_names, verifier, strict=strict, stats=stats
    )
    verifier.check_trailer(
        document.get("integrity"), strict=strict, stats=stats
    )


def _events_array(document: object) -> tuple[dict, list]:
    """A decoded document's event-type name table and ``events`` list;
    raises :class:`NetLogParseError` when it is not a NetLog object."""
    if not isinstance(document, dict):
        raise NetLogParseError("NetLog document must be a JSON object")
    raw_events = document.get("events")
    if not isinstance(raw_events, list):
        raise NetLogParseError("NetLog document missing 'events' array")
    return event_name_table(document.get("constants")), raw_events


def event_name_table(constants: object) -> dict:
    """The event-type name table of a decoded ``constants`` block.

    A block or a ``logEventTypes`` table that is not an object gives no
    names, so a record typed by name is then of an unknown type.
    """
    if not isinstance(constants, dict):
        return {}
    names = constants.get("logEventTypes")
    return names if isinstance(names, dict) else {}


def walk_records(
    records: Iterable[object],
    event_names: dict[str, int],
    verifier: ChainVerifier,
    *,
    strict: bool,
    stats: ParseStats | None,
) -> Iterator[NetLogEvent]:
    """The one JSON record walk: verify each ``events`` slot, then parse it.

    Both JSON readers feed it: the whole-document parser its decoded
    ``events`` list, the streaming scanner each record as it reads it.
    A slot that is not an object (a decoded non-object, or a record the
    scanner could not decode or found cut by the end of input) has
    nothing to hash: it is a gap in the chain and one malformed record.
    The caller checks the trailer against ``verifier`` afterwards.
    """
    for record in records:
        if isinstance(record, dict):
            if not verifier.verify(record, strict=strict, stats=stats):
                continue
        else:
            verifier.mark_gap(stats)
        event = _classify_record(record, event_names, strict, stats, True)
        if event is not None:
            yield event


def _parse_document(
    document: dict, *, strict: bool, stats: ParseStats | None = None
) -> list[NetLogEvent]:
    # The batch API is a ListSink over the streaming record walk — one
    # parse implementation, two delivery shapes.
    from .pipeline import ListSink, feed

    return feed(iter_events(document, strict=strict, stats=stats), ListSink())
