"""Lossless transcoding between the JSON and binary NetLog formats.

Both document formats carry the same information — extra head keys
(``visitMeta``), the constants block, the event records with their
stored ``crc``/``chain`` integrity fields, and the integrity trailer —
so a document can be moved between them without re-deriving anything:
stored checksums pass through verbatim (they are defined over canonical
JSON forms, which are format-independent), record order and the int-ness
of ``time`` are preserved, and unknown event types convert as opaque
numeric codes.

For documents produced by this package's own writers the round trip is
*byte*-identical in both directions (``json → binary → json`` and
``binary → json → binary``); foreign JSON documents (real Chrome logs)
round-trip at the record level — their constants block rides along
unchanged, but incidental whitespace does not survive.
"""

from __future__ import annotations

import io
import json
from typing import IO

from .binary import (
    BinaryRecordWriter,
    _frame,  # shared frame assembly; the trailer must pass through verbatim
    TAG_TRAILER,
    read_binary_document,
    write_binary_head,
)
from .codec import FORMAT_BINARY, FORMAT_JSON, coerce_document, get_codec
from .parser import NetLogParseError, _events_array
from .writer import encode_json, write_document_head


def to_binary(source: "bytes | str | IO[str] | IO[bytes]") -> bytes:
    """Transcode any NetLog document to the binary format.

    A binary input is returned unchanged (already the target format); a
    JSON input must be a well-formed document — damaged documents should
    be repaired (``repro fsck``) before conversion, because a transcode
    of a salvaged prefix would silently launder the damage into a
    clean-looking document.
    """
    format_name, document = coerce_document(source)
    if format_name == FORMAT_BINARY:
        return document  # type: ignore[return-value]
    try:
        decoded = json.loads(document)
    except ValueError as exc:  # not JSON, or an int past the int-string limit
        raise NetLogParseError(f"invalid JSON: {exc}") from exc
    _, records = _events_array(decoded)
    constants = decoded.get("constants")
    if not isinstance(constants, dict):
        constants = None
    time_origin = 0.0
    if constants is not None:
        raw_origin = constants.get("timeTickOffset")
        if isinstance(raw_origin, (int, float)) and not isinstance(
            raw_origin, bool
        ):
            time_origin = raw_origin
    extra = {
        key: value
        for key, value in decoded.items()
        if key not in ("constants", "events", "integrity")
    }
    trailer = decoded.get("integrity")
    out = io.BytesIO()
    write_binary_head(
        out,
        time_origin_ms=time_origin,
        extra=extra or None,
        constants=constants,
    )
    writer = BinaryRecordWriter(out)
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise NetLogParseError(
                f"record {index}: event record must be an object"
            )
        try:
            writer.write_record(record)
        except (KeyError, TypeError, ValueError) as exc:
            raise NetLogParseError(
                f"record {index}: not representable in binary form: {exc}"
            ) from exc
    if not isinstance(trailer, dict):
        trailer = {"events": writer.count}
    out.write(_frame(TAG_TRAILER, encode_json(trailer).encode("utf-8")))
    return out.getvalue()


def to_json(source: "bytes | str | IO[str] | IO[bytes]") -> str:
    """Transcode any NetLog document to the JSON format.

    A JSON input is returned unchanged.  The head is written by the JSON
    writer's own :func:`~repro.netlog.writer.write_document_head` from the
    binary header's preserved extras and constants block, so documents
    our own capture path wrote round-trip byte for byte.
    """
    format_name, document = coerce_document(source)
    if format_name == FORMAT_JSON:
        return document  # type: ignore[return-value]
    header, records, trailer = read_binary_document(document)
    header = header or {}
    extra = header.get("extra")
    constants = header.get("constants")
    origin = header.get("timeTickOffset")
    out = io.StringIO()
    write_document_head(
        out,
        time_origin_ms=origin if isinstance(origin, (int, float)) else 0.0,
        extra=extra if isinstance(extra, dict) else None,
        constants=constants if isinstance(constants, dict) else None,
    )
    out.write(",\n".join(map(encode_json, records)))
    out.write("]")
    if trailer is not None and trailer.keys() != {"events"}:
        out.write(f', "integrity": {encode_json(trailer)}')
    out.write("}")
    return out.getvalue()


def convert(
    source: "bytes | str | IO[str] | IO[bytes]", to: str
) -> "bytes | str":
    """Transcode a document to the named format (bytes for binary)."""
    codec = get_codec(to)
    if codec.binary:
        return to_binary(source)
    return to_json(source)
