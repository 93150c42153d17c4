"""Differential tests for the NetLog write side.

The writers render each event straight from its fields: one canonical
``sort_keys`` encode of its params for the crc32-chain-v1 checksum, and
one params encode for the record itself, with no intermediate record
dict.  Their reference is the form the verifier checks against:
:func:`event_to_record`, :func:`canonical_record_bytes` and
``json.dumps``.  Documents assembled from that reference are compared
record by record (frame by frame for ``nlbin-v1``) with every write
entry point: ``dumps``, ``dumps_binary``, the streaming capture buffers,
archived documents and both transcoder directions.

The corpus is the events of a scale-0.001 ``top2020`` campaign on all
three OSes plus edge events: unsorted and nested params, non-ASCII and
escaped strings, empty params, large ints, extreme floats and int times.
Every case runs with and without checksums and a ``visitMeta`` extra.

The pinned sha256 digests were recorded from the writers that still
built a record dict and streamed it through ``json.dump``, so the direct
encode is held to byte-identical documents.  Int-time events stay out of
the binary digest: binary capture used to pack an int ``time`` without
``FLAG_INT_TIME``, and now sets the flag like the transcoder does.
"""

import hashlib
import io
import json
import zlib

import pytest

from repro.crawler.crawl import Crawler
from repro.crawler.vm import OSEnvironment
from repro.netlog import (
    CHAIN_SEED,
    CHECKSUM_ALGORITHM,
    BinaryNetLogBuffer,
    EventPhase,
    EventType,
    NetLogArchive,
    NetLogBuffer,
    NetLogEvent,
    NetLogSource,
    SourceType,
    canonical_record_bytes,
    dumps,
    dumps_binary,
    to_binary,
    to_json,
)
from repro.netlog.binary import (
    _FRAME_HEAD,
    _INTEGRITY,
    _PRELUDE,
    BINARY_FORMAT,
    FLAG_INT_TIME,
    FLAG_INTEGRITY,
    FLAG_PARAMS,
    MAGIC,
    TAG_EVENT,
    TAG_HEADER,
    TAG_TRAILER,
)
from repro.netlog.writer import (
    build_constants,
    event_to_record,
    write_document_head,
)
from repro.web.population import build_top_population

#: sha256 over every JSON document of the corpus, in case order.
JSON_DIGEST = (
    "85965b6a8c8400bca94322912450b3f233c2b32e98282830b2bba5f094430731"
)
#: sha256 over every binary document of the float-time corpus.
BINARY_DIGEST = (
    "c3b8d6b4496f0b78d0df584e727ca16d2e30b04450af01cb85e6d03f0cf29588"
)

META = {
    "crawl": "parity",
    "domain": "bücher.example",
    "os": "linux",
    "attempts": 2,
    "success": True,
}

#: Variants every document runs under: (checksums, extra).
VARIANTS = [
    (False, None),
    (True, None),
    (False, {"visitMeta": META}),
    (True, {"visitMeta": META}),
]


def _event(time, params, *, source_id=7, type=EventType.URL_REQUEST_START_JOB,
           phase=EventPhase.BEGIN):
    return NetLogEvent(
        time=time,
        type=type,
        source=NetLogSource(id=source_id, type=SourceType.URL_REQUEST),
        phase=phase,
        params=params,
    )


def _edge_events():
    """Float-time events whose params stress the encoders."""
    params = [
        {"url": "http://localhost/", "method": "GET", "address": "::1"},
        {"z": {"b": [1, {"y": 2, "x": 1}], "a": None}, "m": [], "a": True},
        {"url": "http://例え.テスト/üñ",
         "text": "tab\tquote\"slash\\nul\x00sep "},
        {},
        {"big": 2**70, "negative": -(2**64), "zero": 0},
        {"tiny": 1e-7, "huge": 1.5e300, "minus_zero": -0.0, "half": 0.5},
        {"é": 1, "e": 2, "E": 3},
    ]
    times = [0.0, 1e-7, 1.5e300, 123.456, 7.0, -0.0, 0.1]
    return [
        _event(time, param, source_id=index + 1, phase=EventPhase(index % 3))
        for index, (time, param) in enumerate(zip(times, params))
    ]


def _int_time_events():
    """Events whose ``time`` is an int, between float-time neighbours."""
    return [
        _event(0, {"url": "http://127.0.0.1/"}),
        _event(0.5, {}),
        _event(7, {}),
        _event(2**31, {"b": 1, "a": 2}, type=EventType.REQUEST_ALIVE),
    ]


def _campaign_visits():
    population = build_top_population(2020, scale=0.001)
    visits = []
    for os_name in population.oses:
        crawler = Crawler(OSEnvironment.for_os(os_name), capture_events=True)
        for site in population.websites:
            record = crawler.crawl_site(site)
            if record.events:
                visits.append(record.events)
    return visits


def _corpus():
    """``(events, time origin, int times)`` per document."""
    cases = [(events, 0.0, False) for events in _campaign_visits()]
    for origin in (0.0, 0, 1234.5, -0.0):
        cases.append((_edge_events(), origin, False))
        cases.append((_int_time_events(), origin, True))
        cases.append(([], origin, False))
    return cases


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


# ---------------------------------------------------------------------------
# The reference: event_to_record + canonical_record_bytes + json.dumps
# ---------------------------------------------------------------------------


def _reference_records(events, checksums):
    """``(record dict, crc, chain)`` per event, as the verifier sees it."""
    chain = CHAIN_SEED
    out = []
    for event in events:
        record = event_to_record(event)
        crc = None
        if checksums:
            payload = canonical_record_bytes(record)
            crc = zlib.crc32(payload)
            chain = zlib.crc32(payload, chain)
        out.append((record, crc, chain))
    return out, chain


def _reference_json(events, *, checksums, extra=None, time_origin_ms=0.0,
                    constants=None):
    """``(head, record texts, tail)`` of a JSON document."""
    head = "{"
    for key, value in (extra or {}).items():
        head += json.dumps(key) + ": " + json.dumps(value) + ", "
    if constants is None:
        constants = build_constants(time_origin_ms)
    head += '"constants": ' + json.dumps(constants) + ', "events": ['
    records, chain = _reference_records(events, checksums)
    texts = []
    for record, crc, link in records:
        if checksums:
            record = dict(record, crc=crc, chain=link)
        texts.append(json.dumps(record))
    tail = "]"
    if checksums:
        tail += ', "integrity": ' + json.dumps(
            {"algorithm": CHECKSUM_ALGORITHM, "events": len(texts),
             "chain": chain}
        )
    return head, texts, tail + "}"


def _frame(tag, payload):
    return _FRAME_HEAD.pack(tag, len(payload), zlib.crc32(payload)) + payload


def _reference_binary(events, *, checksums, extra=None, time_origin_ms=0.0):
    """``(head, event frames, tail)`` of a binary document."""
    head = {"format": BINARY_FORMAT}
    if extra is not None:
        head["extra"] = extra
    head["timeTickOffset"] = time_origin_ms
    head["constants"] = build_constants(time_origin_ms)
    records, chain = _reference_records(events, checksums)
    frames = []
    for index, (record, crc, link) in enumerate(records):
        flags = 0
        time = record["time"]
        if isinstance(time, int) and not isinstance(time, bool):
            flags |= FLAG_INT_TIME
        integrity = b""
        if checksums:
            flags |= FLAG_INTEGRITY
            integrity = _INTEGRITY.pack(crc, link)
        params = b""
        if "params" in record:
            flags |= FLAG_PARAMS
            params = json.dumps(
                record["params"], separators=(",", ":")
            ).encode("utf-8")
        prelude = _PRELUDE.pack(
            index,
            float(time),
            record["type"],
            record["source"]["id"],
            record["source"]["type"],
            record["phase"],
            flags,
        )
        frames.append(_frame(TAG_EVENT, prelude + integrity + params))
    trailer = {"events": len(frames)}
    if checksums:
        trailer = {"algorithm": CHECKSUM_ALGORITHM, "events": len(frames),
                   "chain": chain}
    return (
        MAGIC + _frame(TAG_HEADER, json.dumps(head).encode("utf-8")),
        frames,
        _frame(TAG_TRAILER, json.dumps(trailer).encode("utf-8")),
    )


def _assert_each(actual, expected, label):
    """Equal lists, failing at the first record that differs."""
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"{label}: record {index} differs"
    assert len(actual) == len(expected), f"{label}: record count differs"


def _assert_json(document, reference, label):
    head, texts, tail = reference
    assert document.startswith(head), f"{label}: head differs"
    assert document.endswith(tail), f"{label}: tail differs"
    body = document[len(head):len(document) - len(tail)]
    # A record never contains a raw newline (json escapes it), so the
    # separator splits the body exactly.
    _assert_each(body.split(",\n") if body else [], texts, label)


def _split_frames(body):
    frames = []
    offset = 0
    while offset < len(body):
        length = _FRAME_HEAD.unpack_from(body, offset)[1]
        end = offset + _FRAME_HEAD.size + length
        frames.append(body[offset:end])
        offset = end
    return frames


def _assert_binary(document, reference, label):
    head, frames, tail = reference
    assert document.startswith(head), f"{label}: head differs"
    assert document.endswith(tail), f"{label}: tail differs"
    body = document[len(head):len(document) - len(tail)]
    _assert_each(_split_frames(body), frames, label)


def _cases(corpus):
    for number, (events, origin, int_times) in enumerate(corpus):
        for checksums, extra in VARIANTS:
            kwargs = dict(checksums=checksums, extra=extra,
                          time_origin_ms=origin)
            yield f"doc {number} {kwargs}", events, kwargs, int_times


# ---------------------------------------------------------------------------
# Record-by-record parity
# ---------------------------------------------------------------------------


def test_corpus_holds_the_campaign(corpus):
    assert len(corpus) > 300
    assert sum(len(events) for events, _, _ in corpus) > 9000


def test_dumps_matches_reference(corpus):
    for label, events, kwargs, _ in _cases(corpus):
        _assert_json(dumps(events, **kwargs),
                     _reference_json(events, **kwargs), label)


def test_dumps_binary_matches_reference(corpus):
    for label, events, kwargs, _ in _cases(corpus):
        _assert_binary(dumps_binary(events, **kwargs),
                       _reference_binary(events, **kwargs), label)


@pytest.mark.parametrize("checksums", [False, True])
def test_capture_buffers_match_reference(corpus, checksums):
    for number, (events, _, _) in enumerate(corpus):
        label = f"doc {number} checksums={checksums}"
        text = NetLogBuffer(checksums=checksums)
        binary = BinaryNetLogBuffer(checksums=checksums)
        for event in events:
            text.accept(event)
            binary.accept(event)
        _, texts, _ = _reference_json(events, checksums=checksums)
        _, frames, _ = _reference_binary(events, checksums=checksums)
        _assert_each(text.body.split(",\n") if text.body else [], texts,
                     label)
        _assert_each(_split_frames(binary.body), frames, label)
        records, chain = _reference_records(events, checksums)
        for buffer in (text, binary):
            assert buffer.count == len(records), label
            assert buffer.chain == chain, label


def test_archived_documents_match_reference(corpus, tmp_path):
    archive = NetLogArchive(tmp_path)
    extra = {"visitMeta": META}
    for number, (events, origin, _) in enumerate(corpus):
        if repr(origin) != "0.0":
            continue  # archived documents always use the native origin
        for buffer in (NetLogBuffer(), BinaryNetLogBuffer()):
            for event in events:
                buffer.accept(event)
            path = archive.write_buffered(
                "parity", "linux", f"site{number}.example", buffer, meta=META
            )
            label = f"doc {number} {buffer.format}"
            if buffer.format == "json":
                _assert_json(
                    path.read_text(encoding="utf-8"),
                    _reference_json(events, checksums=True, extra=extra),
                    label,
                )
            else:
                _assert_binary(
                    path.read_bytes(),
                    _reference_binary(events, checksums=True, extra=extra),
                    label,
                )


def test_transcoder_matches_the_writers(corpus):
    for label, events, kwargs, _ in _cases(corpus):
        text = dumps(events, **kwargs)
        binary = dumps_binary(events, **kwargs)
        assert to_json(binary) == text, label
        assert to_binary(text) == binary, label


def test_foreign_constants_pass_through():
    constants = {"logFormatVersion": 9, "logEventTypes": {"X": 1},
                 "timeTickOffset": 5, "ünknown": [1, 2]}
    extra = {"visitMeta": META}
    head, texts, tail = _reference_json(
        _edge_events(), checksums=True, extra=extra, constants=constants
    )
    out = io.StringIO()
    write_document_head(out, extra=extra, constants=constants)
    assert out.getvalue() == head
    document = head + ",\n".join(texts) + tail
    binary = to_binary(document)
    assert to_json(binary) == document
    assert to_binary(to_json(binary)) == binary


# ---------------------------------------------------------------------------
# Pinned digests
# ---------------------------------------------------------------------------


def _digests(corpus):
    json_hash = hashlib.sha256()
    binary_hash = hashlib.sha256()
    for _, events, kwargs, int_times in _cases(corpus):
        json_hash.update(dumps(events, **kwargs).encode("utf-8"))
        if not int_times:
            binary_hash.update(dumps_binary(events, **kwargs))
    return json_hash.hexdigest(), binary_hash.hexdigest()


def test_outputs_match_pinned_digests(corpus):
    assert _digests(corpus) == (JSON_DIGEST, BINARY_DIGEST)

