"""Compact binary NetLog record encoding (``nlbin-v1``).

A length-prefixed binary sibling of the JSON document format in
:mod:`repro.netlog.writer`.  The JSON form is self-describing and greppable
but costs a ``json.loads`` per record on every re-analysis; measurement
corpora are scanned far more often than they are captured, so this format
optimises the read side: length-prefixed frames that a reader takes one at
a time with precompiled ``struct`` unpacks (no per-record JSON decode, no
intermediate dict), with only the free-form ``params`` payload kept as
embedded JSON bytes.

Document layout::

    magic   8 bytes  b"\\x89NLB1\\r\\n\\x00"  (PNG-style: the high bit
                     catches 7-bit strippers, CRLF catches newline
                     translation, NUL catches text-mode truncation)
    frames  tag (1 byte) | payload length (u32 LE) | payload CRC32 (u32 LE)
            | payload

    'H'  header  — UTF-8 JSON: format tag, timeTickOffset, the same
                   constants name tables the JSON writer embeds, and the
                   document's extra keys (e.g. ``visitMeta``)
    'E'  event   — fixed prelude ``<IdHIBBB`` (record index, time, type,
                   source id, source type, phase, flags), an optional
                   ``<II`` crc/chain pair, then raw params JSON bytes
    'T'  trailer — UTF-8 JSON: event count (and, when checksummed, the
                   crc32-chain-v1 algorithm tag and final chain value)

Integrity is two-layered:

* every frame carries a CRC32 over its own payload bytes — verified at C
  speed in both verify regimes, so in-place corruption is caught without
  re-canonicalising the record;
* checksummed records additionally store the *same* ``crc``/``chain``
  values the JSON writer computes — CRC32 over the record's canonical
  JSON form and the ``crc32-chain-v1`` rolling chain — so a document can
  be transcoded between formats without touching its checksum chain, and
  ``repro fsck`` audits both formats against one contract (the
  ``verify="full"`` regime of :func:`iter_events_binary` re-derives the
  canonical forms from each frame's fields and walks them through the
  JSON parsers' :class:`~repro.netlog.parser.ChainVerifier`).

Salvage semantics mirror the JSON parsers: with ``strict=False`` a
truncated, NUL-padded, torn or bit-flipped document yields every event in
its intact prefix, and the damage is accounted in
:class:`~repro.netlog.parser.ParseStats` (``first_divergence`` pins the
first record where a checksummed document diverged from what its writer
emitted).
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from typing import IO, Iterable, Iterator

from .constants import EVENT_TYPE_OF, PHASE_OF, SOURCE_TYPE_OF, EventPhase
from .events import NetLogEvent, NetLogSource
from .parser import (
    ChainVerifier,
    NetLogIntegrityError,
    NetLogParseError,
    NetLogTruncationError,
    ParseStats,
    event_params,
)
from .writer import (
    CHAIN_SEED,
    CHECKSUM_ALGORITHM,
    NO_PARAMS,
    canonical_event_bytes,
    canonical_fields_bytes,
    constants_json,
    encode_compact,
    encode_json,
)

#: Format identifier, embedded in every header frame.
BINARY_FORMAT = "nlbin-v1"

#: Document magic. First byte is non-ASCII so no binary document can be
#: mistaken for JSON (which must start with ``{`` after whitespace).
MAGIC = b"\x89NLB1\r\n\x00"

#: Frame tags.
TAG_HEADER = 0x48  # 'H'
TAG_EVENT = 0x45  # 'E'
TAG_TRAILER = 0x54  # 'T'

#: Event-frame flag bits.
FLAG_PARAMS = 0x01  # params JSON bytes follow the fixed fields
FLAG_INTEGRITY = 0x02  # a crc/chain pair follows the prelude
FLAG_INT_TIME = 0x04  # ``time`` was an int in the source record

#: ``tag | payload length | payload crc32``.
_FRAME_HEAD = struct.Struct("<BII")
#: ``index | time | type | source id | source type | phase | flags``.
_PRELUDE = struct.Struct("<IdHIBBB")
#: ``crc | chain`` — the crc32-chain-v1 pair, identical to the JSON fields.
_INTEGRITY = struct.Struct("<II")

#: Upper bound on one frame's payload: a length field beyond this is
#: framing damage (bit flip in the length), not a real record.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_loads = json.loads
_crc32 = zlib.crc32

#: Prebuilt C-level JSON scanner for params payloads: skips the
#: ``detect_encoding``/whitespace wrappers ``json.loads`` runs per call,
#: which dominate when the payload is a short params object.
_scan_json = json.JSONDecoder().scan_once


def _decode_params(payload: bytes, offset: int) -> object:
    """Decode the params JSON slice of an event payload.

    The one params decoder, for both verify regimes and the transcoder.
    Handing the prebuilt C scanner a ``str`` skips the byte-level
    sniffing ``json.loads`` would repeat per record.  Raises
    ``ValueError`` unless the slice is exactly one JSON value in the
    compact form the writers emit (nothing before or after it).
    """
    text = str(payload[offset:], "utf-8")
    try:
        value, end = _scan_json(text, 0)
    except StopIteration:
        raise ValueError("params payload is not JSON") from None
    if end != len(text):
        raise ValueError("trailing bytes after the params value")
    return value


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _frame(tag: int, payload: bytes) -> bytes:
    return _FRAME_HEAD.pack(tag, len(payload), _crc32(payload)) + payload


def write_binary_head(
    fp: IO[bytes],
    *,
    time_origin_ms: float = 0.0,
    extra: dict | None = None,
    constants: dict | None = None,
) -> None:
    """Open a binary NetLog document: magic plus the header frame.

    The header carries the same self-describing content as the JSON
    document head — the constants name tables and any extra top-level
    keys — so transcoding back to JSON reproduces the head byte for
    byte.  ``constants`` overrides the native tables (the transcoder
    passes a foreign document's own block through unchanged).
    """
    extra_json = "" if extra is None else f'"extra": {encode_json(extra)}, '
    head = (
        f'{{"format": {encode_json(BINARY_FORMAT)}, {extra_json}'
        f'"timeTickOffset": {encode_json(time_origin_ms)}, '
        f'"constants": {constants_json(time_origin_ms, constants)}}}'
    )
    fp.write(MAGIC)
    fp.write(_frame(TAG_HEADER, head.encode("utf-8")))


def write_binary_tail(
    fp: IO[bytes],
    *,
    checksums: bool = False,
    count: int = 0,
    chain: int = CHAIN_SEED,
) -> None:
    """Close a binary document with its trailer frame."""
    trailer: dict = {"events": count}
    if checksums:
        trailer = {
            "algorithm": CHECKSUM_ALGORITHM,
            "events": count,
            "chain": chain,
        }
    fp.write(_frame(TAG_TRAILER, encode_json(trailer).encode("utf-8")))


class BinaryRecordWriter:
    """Incrementally serialises one document's event frames.

    The binary sibling of :class:`~repro.netlog.writer.RecordWriter`:
    tracks the running count and rolling hash chain so the caller can
    close the document with :func:`write_binary_tail`.  ``write_record``
    additionally accepts raw JSON-shaped record dicts (with stored
    crc/chain values) so the transcoder can move checksummed documents
    between formats without re-deriving their integrity metadata.
    """

    __slots__ = ("fp", "checksums", "count", "chain")

    def __init__(self, fp: IO[bytes], *, checksums: bool = False) -> None:
        self.fp = fp
        self.checksums = checksums
        self.count = 0
        self.chain = CHAIN_SEED

    def write(self, event: NetLogEvent) -> None:
        """Serialise one event, deriving integrity fields if checksummed."""
        integrity = b""
        if self.checksums:
            payload = canonical_event_bytes(event)
            self.chain = _crc32(payload, self.chain)
            integrity = _INTEGRITY.pack(_crc32(payload), self.chain)
        source = event.source
        self._write_frame(
            event.time,
            int(event.type),
            source.id,
            int(source.type),
            int(event.phase),
            integrity,
            event.params or NO_PARAMS,
        )

    def write_record(self, record: dict) -> None:
        """Serialise one JSON-shaped record dict, preserving stored
        crc/chain values and the int-ness of ``time`` (both matter for
        canonical-form equality when the document is verified or
        transcoded back).

        A frame carries both integrity fields or neither, so a record
        with only one of them raises ``ValueError``: dropping it would
        hide the damage the JSON audit counts."""
        source = record["source"]
        crc = record.get("crc")
        chain = record.get("chain")
        integrity = b""
        if (crc is None) != (chain is None):
            raise ValueError("a record with crc or chain needs both")
        if crc is not None:
            integrity = _INTEGRITY.pack(int(crc), int(chain))
            self.chain = int(chain)
        self._write_frame(
            record["time"],
            int(record["type"]),
            int(source["id"]),
            int(source.get("type", 0)),
            int(record.get("phase", 0)),
            integrity,
            record.get("params", NO_PARAMS),
        )

    def _write_frame(
        self,
        time_value: float,
        type_code: int,
        source_id: int,
        source_type: int,
        phase: int,
        integrity: bytes,
        params: object,
    ) -> None:
        """Pack one event frame.  ``FLAG_INT_TIME`` keeps an int ``time``
        an int when the frame is decoded back to a record, as the
        canonical form (``7``, not ``7.0``) the crc covers requires;
        ``FLAG_PARAMS`` is set exactly when ``params`` is not
        :data:`~repro.netlog.writer.NO_PARAMS`, so a record's ``params``
        key survives whatever its value (``{}`` and ``null`` are in the
        canonical form too)."""
        flags = FLAG_INTEGRITY if integrity else 0
        if isinstance(time_value, int) and not isinstance(time_value, bool):
            flags |= FLAG_INT_TIME
        params_bytes = b""
        if params is not NO_PARAMS:
            flags |= FLAG_PARAMS
            params_bytes = encode_compact(params).encode("utf-8")
        body = (
            _PRELUDE.pack(
                self.count,
                float(time_value),
                type_code,
                source_id,
                source_type,
                phase,
                flags,
            )
            + integrity
            + params_bytes
        )
        self.fp.write(_frame(TAG_EVENT, body))
        self.count += 1


class BinaryNetLogBuffer:
    """`EventSink` that serialises events to binary frames as they arrive.

    The drop-in binary counterpart of
    :class:`~repro.netlog.writer.NetLogBuffer`: same streaming-capture
    role, same ``body``/``count``/``chain``/``checksums`` surface, with a
    ``bytes`` body the archive wraps into a document via
    :func:`write_binary_head`/:func:`write_binary_tail`.
    """

    __slots__ = ("_io", "_writer")

    format = "binary"

    def __init__(self, *, checksums: bool = True) -> None:
        self._io = io.BytesIO()
        self._writer = BinaryRecordWriter(self._io, checksums=checksums)

    def accept(self, event: NetLogEvent) -> None:
        self._writer.write(event)

    def finish(self) -> "BinaryNetLogBuffer":
        return self

    @property
    def body(self) -> bytes:
        """The serialised event frames (no magic, header, or trailer)."""
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


def dump_binary(
    events: Iterable[NetLogEvent],
    fp: IO[bytes],
    *,
    time_origin_ms: float = 0.0,
    checksums: bool = False,
    extra: dict | None = None,
) -> int:
    """Write a complete binary NetLog document; returns the event count.

    The binary counterpart of :func:`repro.netlog.writer.dump` — same
    streaming constant-memory property, same ``checksums`` semantics
    (identical crc/chain values over the same canonical forms).
    """
    write_binary_head(fp, time_origin_ms=time_origin_ms, extra=extra)
    writer = BinaryRecordWriter(fp, checksums=checksums)
    for event in events:
        writer.write(event)
    write_binary_tail(
        fp, checksums=checksums, count=writer.count, chain=writer.chain
    )
    return writer.count


def dumps_binary(
    events: Iterable[NetLogEvent],
    *,
    time_origin_ms: float = 0.0,
    checksums: bool = False,
    extra: dict | None = None,
) -> bytes:
    """Serialise a binary NetLog document to bytes."""
    buffer = io.BytesIO()
    dump_binary(
        events,
        buffer,
        time_origin_ms=time_origin_ms,
        checksums=checksums,
        extra=extra,
    )
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


class _Framing(Exception):
    """Internal: the byte stream stopped being a frame sequence."""

    def __init__(self, detail: str, *, partial_record: bool = False) -> None:
        super().__init__(detail)
        self.detail = detail
        #: Whether the damage point fell inside an event frame (a
        #: mid-record cut drops a partial record; a cut between frames
        #: loses nothing but the trailer's accounting).
        self.partial_record = partial_record


_FRAME_KINDS = {
    TAG_HEADER: "header",
    TAG_EVENT: "event",
    TAG_TRAILER: "trailer",
}
_TAGS = frozenset(_FRAME_KINDS)


def _open(
    source: bytes | bytearray | memoryview | IO[bytes],
    strict: bool,
    stats: ParseStats | None,
) -> IO[bytes] | None:
    """Check a document's magic; return its stream at the first frame.

    Bytes input is wrapped in a ``BytesIO``.  A document that is empty or
    cut inside the magic itself is truncated, not foreign: strict mode
    raises :class:`NetLogTruncationError`, salvage marks ``stats`` and
    returns None.  Any other head raises :class:`NetLogParseError`.
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        source = io.BytesIO(source)
    magic = source.read(len(MAGIC))
    if magic == MAGIC:
        return source
    if magic != MAGIC[: len(magic)]:
        raise NetLogParseError("not a binary NetLog document (bad magic)")
    if strict:
        raise NetLogTruncationError(
            "document ends inside the format magic"
            if magic
            else "empty NetLog document"
        )
    if stats is not None:
        stats.truncated = True
    return None


def _frames(fp: IO[bytes]) -> Iterator[tuple[int, bytes]]:
    """Yield ``(tag, payload)`` for each frame of a stream past its magic.

    One frame is resident at a time, so documents of any size stream.  A
    frame whose payload fails its CRC comes back with its tag negated.
    Raises :class:`_Framing` at the first point the byte stream stops
    being a frame sequence: truncation, an unknown tag, a flipped length
    field, or NUL padding (a torn write flushed a sparse tail; nothing
    after it is trustworthy, as with the JSON scanner's sticky end of
    input).
    """
    read = fp.read
    unpack_head = _FRAME_HEAD.unpack
    head_size = _FRAME_HEAD.size
    tags = _TAGS
    crc32 = _crc32
    while True:
        header = read(head_size)
        if not header:
            return
        if header[0] == 0:
            raise _Framing("NUL padding where a frame was expected")
        if len(header) < head_size:
            raise _Framing(
                "document ends inside a frame header", partial_record=True
            )
        tag, length, frame_crc = unpack_head(header)
        if tag not in tags:
            raise _Framing(f"unknown frame tag 0x{tag:02x}")
        if length > MAX_FRAME_BYTES:
            raise _Framing(
                f"implausible frame length {length} (framing lost)"
            )
        payload = read(length)
        if len(payload) < length:
            raise _Framing(
                "document ends inside a frame payload",
                partial_record=tag == TAG_EVENT,
            )
        yield (tag if frame_crc == crc32(payload) else -tag), payload


def _record_from_payload(payload: bytes) -> dict:
    """Reconstruct the JSON-shaped record dict for one event payload.

    Key order matches :func:`~repro.netlog.writer.event_to_record` plus
    the integrity fields in writer order, so a transcoded JSON document
    is byte-identical to one the JSON writer would emit.  ``FLAG_INT_TIME``
    restores the int-ness of ``time`` (canonical forms distinguish
    ``7`` from ``7.0``).  Raises ``ValueError`` when the params bytes are
    not JSON, and ``OverflowError`` or ``ValueError`` when an int
    ``time`` is infinite or NaN.
    """
    index, time_value, type_code, source_id, source_type, phase, flags = (
        _PRELUDE.unpack_from(payload, 0)
    )
    del index
    offset = _PRELUDE.size
    crc = chain = None
    if flags & FLAG_INTEGRITY:
        crc, chain = _INTEGRITY.unpack_from(payload, offset)
        offset += _INTEGRITY.size
    record: dict = {
        "time": int(time_value) if flags & FLAG_INT_TIME else time_value,
        "type": type_code,
        "source": {"id": source_id, "type": source_type},
        "phase": phase,
    }
    if flags & FLAG_PARAMS:
        record["params"] = _decode_params(payload, offset)
    if crc is not None:
        record["crc"] = crc
        record["chain"] = chain
    return record


def iter_events_binary(
    source: bytes | memoryview | IO[bytes],
    *,
    strict: bool = False,
    stats: ParseStats | None = None,
    verify: str = "fast",
) -> Iterator[NetLogEvent]:
    """Yield events from a binary NetLog document.

    ``source`` may be the document bytes or a binary file object; either
    way one frame is resident at a time.  ``verify`` selects the
    integrity regime:

    * ``"fast"`` (default) — frame CRCs plus record-index and trailer
      continuity; catches every accidental-damage shape without
      re-canonicalising.
    * ``"full"`` — additionally re-derives each checksummed record's
      canonical JSON form, formatted straight from the frame's fields by
      :func:`~repro.netlog.writer.canonical_fields_bytes` (no record dict
      is built), and walks the crc32-chain-v1 chain through the shared
      :class:`ChainVerifier`, exactly as the JSON parsers do.

    Salvage semantics (``strict=False``) mirror the JSON parsers: the
    intact prefix is yielded and the damage is accounted in ``stats``.
    """
    return _event_loop(source, strict, stats, verify, True)


def _event_loop(
    source: bytes | memoryview | IO[bytes],
    strict: bool,
    stats: ParseStats | None,
    verify: str,
    build: bool,
) -> Iterator[NetLogEvent]:
    """The one binary event loop, behind :func:`iter_events_binary`.

    ``build`` False runs it for ``stats`` only: every frame is checked
    and accounted exactly as with ``build`` True, but no event is
    constructed and nothing is yielded.  The audit
    (:func:`repro.netlog.parallel.verify_document`) runs the full regime
    that way.
    """
    fp = _open(source, strict, stats)
    if fp is None:
        return
    verifier = ChainVerifier() if verify == "full" else None
    # The audit's one step for the common record (full regime, stats
    # only): see the checksummed branch below.
    fused = verifier is not None and not build and stats is not None
    unpack_prelude = _PRELUDE.unpack_from
    unpack_integrity = _INTEGRITY.unpack_from
    prelude_size = _PRELUDE.size
    integrity_end = prelude_size + _INTEGRITY.size
    event_type_of = EVENT_TYPE_OF
    source_type_of = SOURCE_TYPE_OF
    phase_of = PHASE_OF
    none_phase = EventPhase.NONE

    # Record position, kept in both regimes: it places first_divergence
    # for damage no record survives to report.  The fast regime also does
    # its own accounting from it; the full regime leaves that to the
    # ChainVerifier.
    expected = 0  # next record index
    seen = 0  # record frames consumed, resync-independent
    seen_checksums = False
    crc: int | None = None
    last_chain: int | None = None
    synced = True
    saw_trailer = False
    try:
        for tag, payload in _frames(fp):
            if tag == TAG_EVENT:
                try:
                    (
                        index,
                        time_value,
                        type_code,
                        source_id,
                        source_type,
                        phase,
                        flags,
                    ) = unpack_prelude(payload)
                    checksummed = flags & FLAG_INTEGRITY
                    if checksummed:
                        crc, last_chain = unpack_integrity(payload, prelude_size)
                except struct.error as exc:
                    # A CRC-valid frame shorter than its prelude, or than
                    # the crc/chain pair its flags announce: one
                    # malformed record and, in a checksummed document, a
                    # chain gap, as the JSON walk counts a record it
                    # cannot decode.
                    if strict:
                        raise NetLogParseError(
                            f"malformed event frame: {exc}"
                        ) from exc
                    if stats is not None:
                        stats.dropped_malformed += 1
                    if verifier is not None:
                        verifier.mark_gap(stats)
                    else:
                        synced = False
                        if (
                            seen_checksums
                            and stats is not None
                            and stats.first_divergence is None
                        ):
                            stats.first_divergence = expected
                    seen += 1
                    expected += 1
                    continue
                seen += 1
                if checksummed:
                    seen_checksums = True
                if verifier is None:
                    if index != expected:
                        # Records lost, reordered or spliced: drop the
                        # record after the gap, like the chain walk does.
                        if strict:
                            raise NetLogIntegrityError(
                                f"record index {index} where {expected} was "
                                "expected (records lost or reordered)"
                            )
                        if stats is not None:
                            stats.chain_breaks += 1
                            if stats.first_divergence is None:
                                stats.first_divergence = min(index, expected)
                        expected = index + 1
                        synced = False
                        continue
                    expected = index + 1
                    if checksummed and stats is not None:
                        stats.verified += 1
                else:
                    expected = index + 1
                    # The fields of the record _record_from_payload would
                    # build, hashed in canonical form without building it.
                    field = "time"
                    try:
                        # An int time that is inf or NaN has no int form
                        # (OverflowError or ValueError).
                        record_time = (
                            int(time_value) if flags & FLAG_INT_TIME else time_value
                        )
                        field = "params"
                        params = (
                            _decode_params(
                                payload,
                                integrity_end if checksummed else prelude_size,
                            )
                            if flags & FLAG_PARAMS
                            else {}
                        )
                    except (ValueError, OverflowError) as exc:
                        # The JSON walk's accounting for a record it
                        # cannot decode: malformed, and a chain gap.
                        if strict:
                            raise NetLogParseError(
                                f"malformed {field}: {exc}"
                            ) from exc
                        if stats is not None:
                            stats.dropped_malformed += 1
                        verifier.mark_gap(stats)
                        continue
                    if checksummed:
                        canonical = canonical_fields_bytes(
                            record_time,
                            type_code,
                            source_id,
                            source_type,
                            phase,
                            params if flags & FLAG_PARAMS else NO_PARAMS,
                        )
                        # The audit takes the common record in one step:
                        # finite time, known type and source codes,
                        # object params, and a chain in sync whose crc
                        # and chain both match.  Any other record goes
                        # on through the rules below.
                        if (
                            fused
                            and time_value - time_value == 0.0
                            and type_code in event_type_of
                            and source_type in source_type_of
                            and type(params) is dict
                            and verifier.advance(canonical, crc, last_chain)
                        ):
                            stats.verified += 1
                            stats.parsed += 1
                            continue
                    else:
                        canonical = None
                    if not verifier.verify_canonical(
                        canonical, crc, last_chain, strict=strict, stats=stats
                    ):
                        continue
                event_type = event_type_of.get(type_code)
                if event_type is None:
                    # Forward compatibility: same skip-and-count contract
                    # as the JSON parsers for foreign vocabularies.
                    if strict:
                        raise NetLogParseError(
                            f"unknown event type: {type_code!r}"
                        )
                    if stats is not None:
                        stats.dropped_unknown_type += 1
                    continue
                source_kind = source_type_of.get(source_type)
                if source_kind is None:
                    if strict:
                        raise NetLogParseError(
                            f"malformed source type: {source_type!r}"
                        )
                    if stats is not None:
                        stats.dropped_malformed += 1
                    continue
                try:
                    if verifier is None:
                        params = (
                            _decode_params(
                                payload,
                                integrity_end if checksummed else prelude_size,
                            )
                            if flags & FLAG_PARAMS
                            else {}
                        )
                    if type(params) is not dict:
                        # The record rule for params that are not an
                        # object: a falsy value is empty params.
                        params = event_params(params)
                        if params is None:
                            raise ValueError("event params must be an object")
                except ValueError as exc:
                    if strict:
                        raise NetLogParseError(
                            f"malformed params: {exc}"
                        ) from exc
                    if stats is not None:
                        stats.dropped_malformed += 1
                    continue
                if stats is not None:
                    stats.parsed += 1
                if build:
                    yield NetLogEvent(
                        time=time_value,
                        type=event_type,
                        source=NetLogSource(id=source_id, type=source_kind),
                        phase=phase_of.get(phase, none_phase),
                        params=params,
                    )
            elif tag == -TAG_EVENT:
                # The frame's own CRC failed: in-place corruption.  A
                # checksummed document counts it as a checksum failure
                # (the analog of a record whose stored CRC lies); a
                # plain document counts it as a malformed record.
                if strict:
                    raise NetLogIntegrityError(
                        "frame CRC mismatch (in-place corruption)"
                    )
                if seen_checksums or (
                    len(payload) >= prelude_size
                    and payload[prelude_size - 1] & FLAG_INTEGRITY
                ):
                    seen_checksums = True
                    if stats is not None:
                        stats.checksum_failures += 1
                        if stats.first_divergence is None:
                            stats.first_divergence = expected
                elif stats is not None:
                    stats.dropped_malformed += 1
                seen += 1
                expected += 1
                synced = False
                if verifier is not None:
                    verifier.mark_gap(None)
            elif tag == TAG_TRAILER:
                saw_trailer = True
                try:
                    trailer = _loads(payload)
                except ValueError:
                    trailer = None
                if verifier is not None:
                    verifier.check_trailer(trailer, strict=strict, stats=stats)
                elif isinstance(trailer, dict):
                    expected_events = trailer.get("events")
                    expected_chain = trailer.get("chain")
                    # The count compares against record frames actually
                    # seen, not the post-resync index, so a spliced-out
                    # record trips both the index gap and the trailer
                    # count, as with the JSON parsers.
                    if (
                        isinstance(expected_events, int)
                        and expected_events != seen
                    ) or (
                        synced
                        and seen_checksums
                        and isinstance(expected_chain, int)
                        and last_chain is not None
                        and expected_chain != last_chain
                    ):
                        if strict:
                            raise NetLogIntegrityError(
                                "integrity trailer mismatch: trailer covers "
                                f"{expected_events} records ending at chain "
                                f"{expected_chain}, parse saw {seen}"
                            )
                        if stats is not None:
                            stats.chain_breaks += 1
                            if stats.first_divergence is None:
                                stats.first_divergence = expected
                break  # nothing meaningful may follow the trailer
            elif tag != TAG_HEADER:  # an intact header is self-description
                if strict:
                    raise NetLogIntegrityError(
                        "frame CRC mismatch (in-place corruption)"
                    )
                # A damaged header loses the document's self-description,
                # the visitMeta fsck's re-parse tier rebuilds rows from
                # (divergence at record 0, where it stands); a damaged
                # trailer loses the tail accounting.  Each is one chain
                # break.
                if stats is not None:
                    stats.chain_breaks += 1
                    if stats.first_divergence is None:
                        stats.first_divergence = expected
                if tag == -TAG_TRAILER:
                    saw_trailer = True
                    break
    except _Framing as exc:
        if strict:
            raise NetLogTruncationError(exc.detail) from exc
        if stats is not None:
            stats.truncated = True
            if exc.partial_record:
                stats.dropped_malformed += 1
                if seen_checksums and stats.first_divergence is None:
                    stats.first_divergence = expected
        return
    if not saw_trailer:
        # A binary document always closes with a trailer frame; running
        # out of frames without one is clean whole-record truncation.
        if strict:
            raise NetLogTruncationError("document ended before its trailer")
        if stats is not None:
            stats.truncated = True


# ---------------------------------------------------------------------------
# Raw record access (transcoding, header/meta inspection)
# ---------------------------------------------------------------------------


def read_binary_header(source: bytes | IO[bytes]) -> dict | None:
    """The decoded header frame of a binary document, damage-tolerant.

    Returns the header dict (``format``, ``timeTickOffset``, ``extra``,
    ``constants``) or None when the document's head is damaged or absent
    — the binary counterpart of
    :meth:`~repro.netlog.archive.NetLogArchive.read_meta`'s tolerance.
    """
    try:
        fp = _open(source, False, None)
        if fp is None:
            return None
        for tag, payload in _frames(fp):
            if tag == TAG_HEADER:
                decoded = _loads(payload)
                return decoded if isinstance(decoded, dict) else None
            return None  # first frame was not an (intact) header
    except (_Framing, ValueError):
        return None
    return None


def read_binary_document(
    source: bytes | IO[bytes],
) -> tuple[dict | None, list[dict], dict | None]:
    """Materialise one binary document as ``(header, records, trailer)``.

    The transcoder's whole-document read path: records are raw
    JSON-shaped dicts with stored crc/chain preserved, the header and
    trailer are the decoded frame payloads (None when absent).  Any
    damage raises :class:`NetLogParseError`; truncation raises
    :class:`NetLogTruncationError`.
    """
    fp = _open(source, True, None)
    header: dict | None = None
    trailer: dict | None = None
    records: list[dict] = []
    try:
        for tag, payload in _frames(fp):
            if tag < 0:
                raise NetLogIntegrityError(
                    "frame CRC mismatch (in-place corruption)"
                )
            try:
                if tag == TAG_EVENT:
                    decoded = _record_from_payload(payload)
                else:
                    decoded = _loads(payload)
            except (struct.error, ValueError, OverflowError) as exc:
                raise NetLogParseError(
                    f"malformed {_FRAME_KINDS[tag]} frame: {exc}"
                ) from exc
            if tag == TAG_EVENT:
                records.append(decoded)
            elif tag == TAG_TRAILER:
                if isinstance(decoded, dict):
                    trailer = decoded
                break
            elif isinstance(decoded, dict):
                header = decoded
    except _Framing as exc:
        raise NetLogTruncationError(exc.detail) from exc
    return header, records, trailer
