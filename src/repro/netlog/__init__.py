"""Chrome NetLog substrate: event model, writers, parsers, two formats.

This package reproduces the slice of Chrome's network logging system that
the paper's telemetry pipeline depends on (section 3.1): timestamped events
with a type, a source (flow) identity, and a BEGIN/END phase, serialised as
a self-describing JSON document or as the compact binary ``nlbin-v1``
sibling (see :mod:`repro.netlog.binary`); :mod:`repro.netlog.codec` holds
the format registry and magic-byte sniffing, and
:mod:`repro.netlog.convert` transcodes losslessly between the two.
"""

from .binary import (
    BINARY_FORMAT,
    BinaryNetLogBuffer,
    BinaryRecordWriter,
    dump_binary,
    dumps_binary,
    iter_events_binary,
    read_binary_header,
)
from .codec import (
    FORMAT_BINARY,
    FORMAT_ENV_VAR,
    FORMAT_JSON,
    NetLogCodec,
    default_format,
    get_codec,
    make_capture_buffer,
    sniff_format,
)
from .convert import convert, to_binary, to_json
from .constants import (
    DEFAULT_PORTS,
    SUPPORTED_SCHEMES,
    EventPhase,
    EventType,
    SourceType,
)
from .archive import NetLogArchive
from .events import NetLogEvent, NetLogSource, SourceIdAllocator, events_for_source
from .pipeline import (
    CountSink,
    EventSink,
    ListSink,
    ReorderBuffer,
    Tee,
    feed,
)
from .parser import (
    ChainVerifier,
    NetLogIntegrityError,
    NetLogParseError,
    NetLogTruncationError,
    ParseStats,
    iter_events,
    load,
    loads,
    parse_record,
)
from .streaming import count_event_types, iter_events_streaming
from .writer import (
    CHAIN_SEED,
    CHECKSUM_ALGORITHM,
    NetLogBuffer,
    RecordWriter,
    build_constants,
    canonical_record_bytes,
    dump,
    dumps,
    event_to_record,
    write_document_head,
    write_document_tail,
)

__all__ = [
    "BINARY_FORMAT",
    "BinaryNetLogBuffer",
    "BinaryRecordWriter",
    "CHAIN_SEED",
    "CHECKSUM_ALGORITHM",
    "FORMAT_BINARY",
    "FORMAT_ENV_VAR",
    "FORMAT_JSON",
    "NetLogCodec",
    "convert",
    "default_format",
    "dump_binary",
    "dumps_binary",
    "get_codec",
    "iter_events_binary",
    "make_capture_buffer",
    "read_binary_header",
    "sniff_format",
    "to_binary",
    "to_json",
    "ChainVerifier",
    "NetLogArchive",
    "NetLogIntegrityError",
    "canonical_record_bytes",
    "DEFAULT_PORTS",
    "SUPPORTED_SCHEMES",
    "EventPhase",
    "EventType",
    "SourceType",
    "NetLogEvent",
    "NetLogSource",
    "SourceIdAllocator",
    "events_for_source",
    "NetLogParseError",
    "NetLogTruncationError",
    "ParseStats",
    "CountSink",
    "EventSink",
    "ListSink",
    "NetLogBuffer",
    "RecordWriter",
    "ReorderBuffer",
    "Tee",
    "count_event_types",
    "feed",
    "iter_events",
    "iter_events_streaming",
    "load",
    "loads",
    "parse_record",
    "build_constants",
    "dump",
    "dumps",
    "event_to_record",
    "write_document_head",
    "write_document_tail",
]
