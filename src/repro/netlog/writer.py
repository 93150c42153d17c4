"""NetLog JSON writer.

Serialises an event stream into the JSON document format produced by
``chrome --log-net-log``: a top-level object with a ``constants`` header
(carrying the event/source/phase name tables and the time origin) and an
``events`` array of ``{time, type, source: {id, type}, phase, params}``
records.  Writing the name tables makes the files self-describing, which is
what lets :mod:`repro.netlog.parser` also ingest logs written by other
producers (including real Chrome, modulo its much larger vocabulary).

Checksummed capture (``checksums=True``) adds end-to-end integrity
metadata that the parsers verify and ``repro fsck`` audits:

* every record gains a ``crc`` field — CRC32 over the record's canonical
  JSON form (sorted keys, no whitespace, integrity fields excluded);
* every record gains a ``chain`` field — a rolling hash chain,
  ``chain_n = crc32(canonical_n, chain_{n-1})`` seeded from
  :data:`CHAIN_SEED` — so records cannot be dropped, duplicated or
  reordered without breaking the chain;
* the document gains an ``integrity`` trailer carrying the event count
  and the final chain value, which catches clean whole-record tail
  truncation that record-level checks cannot see.

Both additions are backward compatible: the fields ride inside otherwise
ordinary records and an unknown top-level key, so checksummed documents
parse everywhere plain ones do.

The writers encode each event once, straight from its fields:
:func:`canonical_fields_bytes` formats the checksummed form (for the
writers through :func:`canonical_event_bytes`, for the binary
full-verify regime from each frame's fields, and for the JSON audit
from the fields of each record of the writers' shape) and
:class:`RecordWriter` formats the record text around one C-level
encode of the params, with no intermediate record dict.  :func:`event_to_record` and
:func:`canonical_record_bytes` remain the verifier's form of the same
bytes for a record dict.
"""

from __future__ import annotations

import io
import json
import zlib
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import IO, Callable, Iterable

from .constants import (
    EVENT_TYPE_NAMES,
    PHASE_NAMES,
    SOURCE_TYPE_NAMES,
)
from .events import NetLogEvent

FORMAT_VERSION = 1

#: Identifier of the checksum scheme, written into the integrity trailer.
CHECKSUM_ALGORITHM = "crc32-chain-v1"

#: Initial value of the rolling hash chain (a fixed, versioned seed so a
#: chain value is never accidentally valid against a different scheme).
CHAIN_SEED = zlib.crc32(b"repro-netlog-chain-v1")

#: Record fields that carry integrity metadata (excluded from hashing).
INTEGRITY_FIELDS = ("crc", "chain")


def canonical_record_bytes(record: dict) -> bytes:
    """The canonical byte form of a record that checksums are computed over.

    Key order and whitespace are normalised so the writer and the verifier
    agree regardless of how the record was produced; the integrity fields
    themselves are excluded (a checksum cannot cover itself).
    """
    stripped = {
        key: value
        for key, value in record.items()
        if key not in INTEGRITY_FIELDS
    }
    return json.dumps(stripped, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def _json_encoder(
    item_separator: str, key_separator: str, *, sort_keys: bool = False
) -> Callable[[object], str]:
    """A reusable encoder whose output equals ``json.dumps`` with these
    separators.

    ``json.dumps`` builds a fresh C encoder on every call, and
    ``json.dump`` runs the pure-Python one; the writers' per-event
    encodes instead share one C encoder built here.  It skips the
    circular-reference check: event params are trees.
    """
    options = json.JSONEncoder(
        sort_keys=sort_keys, separators=(item_separator, key_separator)
    )
    if c_make_encoder is None:  # an interpreter without the C accelerator
        return options.encode
    encoder = c_make_encoder(
        None,
        options.default,
        encode_basestring_ascii,
        None,
        key_separator,
        item_separator,
        sort_keys,
        False,
        True,
    )
    return lambda value: "".join(encoder(value, 0))


#: ``json.dumps`` with its default separators: record text, document
#: heads and trailers.
encode_json = _json_encoder(", ", ": ")
#: Compact form: the binary format's params payload, and the request
#: facts and document of a visit digest
#: (:func:`repro.storage.integrity.visit_digest`, which builds its
#: document in sorted key order).
encode_compact = _json_encoder(",", ":")
#: Compact form with sorted keys: params inside a canonical record.
encode_canonical = _json_encoder(",", ":", sort_keys=True)

#: The ``params`` argument of :func:`canonical_fields_bytes` for a record
#: without a ``params`` key (``None`` is the JSON value ``null``).
NO_PARAMS = object()


def _scalar(value: object) -> str:
    """``json.dumps(value)`` for a record's ``time`` or source id.

    A plain int or finite float encodes as its ``repr``, as in the C
    encoder; anything else goes through the encoder itself.
    """
    if type(value) is int or (type(value) is float and value - value == 0.0):
        return repr(value)
    return encode_json(value)


def canonical_fields_bytes(
    time_value: object,
    type_code: int,
    source_id: object,
    source_type: int,
    phase: int,
    params: object = NO_PARAMS,
) -> bytes:
    """``canonical_record_bytes`` of the record with these fields, encoded
    directly.

    The canonical keys sort as ``params``, ``phase``, ``source``,
    ``time``, ``type``, so only the params need a ``sort_keys`` encode;
    the integer codes and scalars are formatted in place (a plain int
    or finite float as its ``repr``, as in the C encoder).  The record
    has a ``params`` key exactly when ``params`` is not
    :data:`NO_PARAMS`, whatever its value.  This is the one place an
    event's checksummed form is computed: both writers call it through
    :func:`canonical_event_bytes`, the binary full-verify regime calls it
    with each frame's decoded fields, and the JSON audit
    (:func:`repro.netlog.parser._audit_text`) with the fields of each
    record of the writers' shape.
    """
    if type(time_value) is not int and not (
        type(time_value) is float and time_value - time_value == 0.0
    ):
        time_value = encode_json(time_value)
    if type(source_id) is not int:
        source_id = _scalar(source_id)
    fields = (
        f'"phase":{phase},"source":{{"id":{source_id},'
        f'"type":{source_type}}},"time":{time_value},"type":{type_code}}}'
    )
    if params is not NO_PARAMS:
        fields = f'"params":{encode_canonical(params)},{fields}'
    return ("{" + fields).encode()


def canonical_event_bytes(event: NetLogEvent) -> bytes:
    """``canonical_record_bytes(event_to_record(event))``, encoded directly
    by :func:`canonical_fields_bytes` (empty params are left out, as
    :func:`event_to_record` leaves them out)."""
    source = event.source
    return canonical_fields_bytes(
        event.time,
        int(event.type),
        source.id,
        int(source.type),
        int(event.phase),
        event.params or NO_PARAMS,
    )


def event_to_record(event: NetLogEvent) -> dict:
    """Convert one event to its JSON-serialisable record."""
    record: dict = {
        "time": event.time,
        "type": int(event.type),
        "source": {"id": event.source.id, "type": int(event.source.type)},
        "phase": int(event.phase),
    }
    if event.params:
        record["params"] = event.params
    return record


def build_constants(time_origin_ms: float = 0.0) -> dict:
    """The ``constants`` header block for a log."""
    return {
        "logFormatVersion": FORMAT_VERSION,
        "timeTickOffset": time_origin_ms,
        "logEventTypes": {name: value for value, name in EVENT_TYPE_NAMES.items()},
        "logSourceType": {name: value for value, name in SOURCE_TYPE_NAMES.items()},
        "logEventPhase": {name: value for value, name in PHASE_NAMES.items()},
    }


#: The native constants block at the default time origin, as JSON text.
_NATIVE_CONSTANTS_JSON = encode_json(build_constants(0.0))


def constants_json(
    time_origin_ms: float = 0.0, constants: dict | None = None
) -> str:
    """The ``constants`` block as JSON text, for both document heads.

    ``constants`` is encoded as given; otherwise the native tables at
    ``time_origin_ms``, pre-encoded for the default origin ``0.0``.
    """
    if constants is not None:
        return encode_json(constants)
    if type(time_origin_ms) is float and repr(time_origin_ms) == "0.0":
        return _NATIVE_CONSTANTS_JSON
    return encode_json(build_constants(time_origin_ms))


def write_document_head(
    fp: IO[str],
    *,
    time_origin_ms: float = 0.0,
    extra: dict | None = None,
    constants: dict | None = None,
) -> None:
    """Open a NetLog document: extra keys, ``constants``, ``"events": [``.

    ``extra`` adds top-level keys (e.g. a visit-metadata block) ahead of
    the ``constants`` header; both parsers skip keys they do not model.
    ``constants`` overrides the native tables (the transcoder passes a
    foreign document's own block through unchanged).
    """
    parts = ["{"]
    if extra:
        for key, value in extra.items():
            parts.append(f"{encode_json(key)}: {encode_json(value)}, ")
    parts.append(
        f'"constants": {constants_json(time_origin_ms, constants)}, '
        '"events": ['
    )
    fp.write("".join(parts))


def write_document_tail(
    fp: IO[str], *, checksums: bool = False, count: int = 0, chain: int = CHAIN_SEED
) -> None:
    """Close the ``events`` array and, when checksummed, add the trailer."""
    if checksums:
        trailer = {"algorithm": CHECKSUM_ALGORITHM, "events": count, "chain": chain}
        fp.write(f'], "integrity": {encode_json(trailer)}}}')
    else:
        fp.write("]}")


class RecordWriter:
    """Incrementally serialises the body of one ``events`` array.

    The single place event records are turned into bytes: :func:`dump`
    drives one over a whole iterable, and :class:`NetLogBuffer` (the
    streaming-capture sink) writes records as the browser emits them.
    Tracks the running count and rolling hash chain so the caller can
    close the document with :func:`write_document_tail`.
    """

    __slots__ = ("fp", "checksums", "count", "chain")

    def __init__(self, fp: IO[str], *, checksums: bool = False) -> None:
        self.fp = fp
        self.checksums = checksums
        self.count = 0
        self.chain = CHAIN_SEED

    def write(self, event: NetLogEvent) -> None:
        """Append one record: the text ``json.dump`` of its record dict
        would write, formatted around one C encode of the params."""
        source = event.source
        text = (
            f'{{"time": {_scalar(event.time)}, "type": {int(event.type)}, '
            f'"source": {{"id": {_scalar(source.id)}, '
            f'"type": {int(source.type)}}}, "phase": {int(event.phase)}'
        )
        if event.params:
            text += f', "params": {encode_json(event.params)}'
        if self.checksums:
            payload = canonical_event_bytes(event)
            self.chain = zlib.crc32(payload, self.chain)
            text += f', "crc": {zlib.crc32(payload)}, "chain": {self.chain}}}'
        else:
            text += "}"
        self.fp.write(",\n" + text if self.count else text)
        self.count += 1


class NetLogBuffer:
    """`EventSink` that serialises events to record text as they arrive.

    The streaming replacement for buffering raw event objects on a crawl
    record until archive time: each event is rendered to its final JSON
    record immediately and the event object dropped, so a visit holds one
    compact text body instead of a Python object graph.  The buffered
    body is document-agnostic — the archive prepends the (late-bound)
    ``visitMeta`` head and appends the integrity trailer when the visit's
    final metadata is known, producing bytes identical to a one-shot
    :func:`dumps` of the same events.

    ``finish`` returns the buffer itself; read ``body``/``count``/
    ``chain`` or hand it to :meth:`~repro.netlog.archive.NetLogArchive.
    write_buffered`.
    """

    __slots__ = ("_io", "_writer")

    format = "json"

    def __init__(self, *, checksums: bool = True) -> None:
        self._io = io.StringIO()
        self._writer = RecordWriter(self._io, checksums=checksums)

    def accept(self, event: NetLogEvent) -> None:
        self._writer.write(event)

    def finish(self) -> "NetLogBuffer":
        return self

    @property
    def body(self) -> str:
        """The serialised ``events`` array body (no brackets)."""
        return self._io.getvalue()

    @property
    def count(self) -> int:
        return self._writer.count

    @property
    def chain(self) -> int:
        return self._writer.chain

    @property
    def checksums(self) -> bool:
        return self._writer.checksums


def dump(
    events: Iterable[NetLogEvent],
    fp: IO[str],
    *,
    time_origin_ms: float = 0.0,
    checksums: bool = False,
    extra: dict | None = None,
) -> int:
    """Write a complete NetLog document to ``fp``; returns event count.

    Events are streamed rather than materialised, so arbitrarily long logs
    can be written in constant memory — the property that makes NetLog
    usable for the paper's multi-terabyte crawls.

    ``checksums=True`` emits per-record CRC32s, the rolling hash chain
    and the ``integrity`` trailer (see the module docstring).  ``extra``
    adds top-level keys (e.g. a visit-metadata block) ahead of the
    ``constants`` header; both parsers skip keys they do not model.
    """
    write_document_head(fp, time_origin_ms=time_origin_ms, extra=extra)
    writer = RecordWriter(fp, checksums=checksums)
    for event in events:
        writer.write(event)
    write_document_tail(
        fp, checksums=checksums, count=writer.count, chain=writer.chain
    )
    return writer.count


def dumps(
    events: Iterable[NetLogEvent],
    *,
    time_origin_ms: float = 0.0,
    checksums: bool = False,
    extra: dict | None = None,
) -> str:
    """Serialise a NetLog document to a string."""
    buffer = io.StringIO()
    dump(
        events,
        buffer,
        time_origin_ms=time_origin_ms,
        checksums=checksums,
        extra=extra,
    )
    return buffer.getvalue()
