"""Binary (``nlbin-v1``) format tests: salvage parity and transcoding.

Mirrors ``test_salvage.py`` for the binary encoding: every physical
damage shape the JSON salvage suite covers — truncated tail, NUL
padding, a cut inside a record, bit flips, spliced-out records — must
produce the analogous :class:`ParseStats` accounting, and the lossless
transcoder must round-trip our own documents byte for byte.

Parse tests run the one frame loop from both sources it accepts,
document bytes and a file object, which must give identical results.
"""

import io
import json
import zlib

import pytest

from repro.netlog import (
    EventPhase,
    EventType,
    NetLogEvent,
    NetLogIntegrityError,
    NetLogParseError,
    NetLogSource,
    NetLogTruncationError,
    ParseStats,
    SourceType,
    dumps,
    dumps_binary,
    iter_events_binary,
    iter_events_streaming,
    loads,
    read_binary_header,
    to_binary,
    to_json,
)
from repro.netlog.binary import (
    _FRAME_HEAD,
    _INTEGRITY,
    _PRELUDE,
    FLAG_INT_TIME,
    FLAG_INTEGRITY,
    FLAG_PARAMS,
    MAGIC,
    TAG_EVENT,
    TAG_HEADER,
    _frame,
    _record_from_payload,
    write_binary_head,
    write_binary_tail,
)
from repro.netlog.parallel import verify_document
from repro.netlog.writer import (
    CHAIN_SEED,
    NO_PARAMS,
    canonical_fields_bytes,
    canonical_record_bytes,
    encode_json,
    write_document_head,
    write_document_tail,
)


def _event(time=0.0, source_id=1, params=None):
    return NetLogEvent(
        time=time,
        type=EventType.URL_REQUEST_START_JOB,
        source=NetLogSource(id=source_id, type=SourceType.URL_REQUEST),
        phase=EventPhase.BEGIN,
        params=params if params is not None else {"url": "http://localhost/"},
    )


def _events(n=10):
    return [_event(time=float(i), source_id=i + 1) for i in range(n)]


@pytest.fixture()
def document():
    return dumps_binary(_events())


@pytest.fixture()
def checksummed():
    return dumps_binary(_events(), checksums=True)


# Every parse test runs from both sources the frame loop accepts:
# document bytes and a file object.
@pytest.fixture(params=["bytes", "file"])
def source_of(request):
    if request.param == "bytes":
        return lambda data: data
    return lambda data: io.BytesIO(data)


def _parse(data, source_of, stats=None, strict=False, verify="fast"):
    return list(
        iter_events_binary(
            source_of(data), strict=strict, stats=stats, verify=verify
        )
    )


def _frames(data):
    """(offset, tag, payload_length) of every frame in a document."""
    out = []
    offset = len(MAGIC)
    while offset < len(data):
        tag, length, _crc = _FRAME_HEAD.unpack_from(data, offset)
        out.append((offset, tag, length))
        offset += _FRAME_HEAD.size + length
    return out


def _event_frame_offsets(data):
    return [
        (offset, length)
        for offset, tag, length in _frames(data)
        if tag == TAG_EVENT
    ]


class TestCleanDocuments:
    def test_matches_json_parse(self, document, source_of):
        text = dumps(_events())
        assert _parse(document, source_of) == loads(text)

    def test_checksummed_document_is_pristine(self, checksummed, source_of):
        for verify in ("fast", "full"):
            stats = ParseStats()
            events = _parse(checksummed, source_of, stats, verify=verify)
            assert len(events) == 10
            assert not stats.damaged
            assert stats.first_divergence is None
        # Only the full regime re-derives canonical checksums.
        stats = ParseStats()
        _parse(checksummed, source_of, stats, verify="full")
        assert stats.verified == 10

    def test_loads_and_streaming_sniff_binary_bytes(self, checksummed):
        expected = _parse(checksummed, lambda d: d)
        assert loads(checksummed) == expected
        assert list(iter_events_streaming(checksummed)) == expected
        assert list(iter_events_streaming(io.BytesIO(checksummed))) == expected

    def test_header_roundtrip(self):
        data = dumps_binary(_events(2), extra={"visitMeta": {"os": "mac"}})
        header = read_binary_header(data)
        assert header["format"] == "nlbin-v1"
        assert header["extra"] == {"visitMeta": {"os": "mac"}}

    def test_empty_document(self, source_of):
        stats = ParseStats()
        assert _parse(dumps_binary([]), source_of, stats) == []
        assert not stats.damaged

    def test_not_binary_raises(self, source_of):
        with pytest.raises(NetLogParseError):
            _parse(b'{"events": []}', source_of)

    def test_empty_input_truncated(self, source_of):
        stats = ParseStats()
        assert _parse(b"", source_of, stats) == []
        assert stats.truncated
        with pytest.raises(NetLogTruncationError):
            _parse(b"", source_of, strict=True)


class TestTruncatedDocuments:
    def test_missing_trailer(self, document, source_of):
        offset, length = _event_frame_offsets(document)[-1]
        cut = document[: offset + _FRAME_HEAD.size + length]
        stats = ParseStats()
        events = _parse(cut, source_of, stats)
        assert len(events) == 10  # every record frame was intact
        assert stats.truncated
        assert stats.dropped == 0

    def test_mid_record_truncation(self, document, source_of):
        offset, _length = _event_frame_offsets(document)[-1]
        cut = document[: offset + _FRAME_HEAD.size + 3]
        stats = ParseStats()
        events = _parse(cut, source_of, stats)
        assert len(events) == 9
        assert [e.time for e in events] == [float(i) for i in range(9)]
        assert stats.truncated
        assert stats.dropped_malformed == 1

    def test_nul_padded_tail(self, document, source_of):
        offset, _length = _event_frame_offsets(document)[-1]
        cut = document[:offset] + b"\x00" * 128
        stats = ParseStats()
        events = _parse(cut, source_of, stats)
        assert len(events) == 9
        assert stats.truncated

    def test_strict_mode_still_raises(self, document, source_of):
        with pytest.raises((NetLogParseError, NetLogTruncationError)):
            _parse(document[:-4], source_of, strict=True)

    def test_every_cut_point_recovers_a_prefix(self, document, source_of):
        clean = _parse(document, source_of)
        for cut in range(0, len(document), 7):
            stats = ParseStats()
            salvaged = _parse(document[:cut], source_of, stats)
            assert salvaged == clean[: len(salvaged)]
            if cut < len(document):
                assert stats.truncated

    def test_every_cut_point_checksummed(self, checksummed, source_of):
        clean = _parse(checksummed, source_of)
        for cut in range(len(MAGIC), len(checksummed), 11):
            salvaged = _parse(checksummed[:cut], source_of, ParseStats())
            assert salvaged == clean[: len(salvaged)]


class TestChecksummedCorruption:
    def _flip_in_record(self, data, record_index, byte_index=4):
        offset, _length = _event_frame_offsets(data)[record_index]
        position = offset + _FRAME_HEAD.size + byte_index
        mutated = bytearray(data)
        mutated[position] ^= 0x01
        return bytes(mutated)

    def test_payload_bit_flip_fails_frame_crc(self, checksummed, source_of):
        flipped = self._flip_in_record(checksummed, 3)
        for verify in ("fast", "full"):
            stats = ParseStats()
            events = _parse(flipped, source_of, stats, verify=verify)
            assert len(events) == 9  # the lying record is dropped
            assert stats.checksum_failures == 1
            assert stats.first_divergence == 3
            assert 3.0 not in {e.time for e in events}

    def test_bit_flip_in_plain_document_drops_record(
        self, document, source_of
    ):
        flipped = self._flip_in_record(document, 3)
        stats = ParseStats()
        events = _parse(flipped, source_of, stats)
        assert len(events) == 9
        # No checksums to blame: a failed frame CRC on a plain document
        # counts as malformed, like undecodable JSON records.
        assert stats.dropped_malformed == 1
        assert stats.checksum_failures == 0

    def test_spliced_out_record_breaks_chain(self, checksummed, source_of):
        offsets = _event_frame_offsets(checksummed)
        start, length = offsets[3]
        spliced = (
            checksummed[:start]
            + checksummed[start + _FRAME_HEAD.size + length :]
        )
        for verify in ("fast", "full"):
            stats = ParseStats()
            events = _parse(spliced, source_of, stats, verify=verify)
            # Like the JSON parsers: the record after the gap is suspect
            # and dropped, and the trailer count adds a second break.
            assert len(events) == 8
            assert stats.checksum_failures == 0
            assert stats.chain_breaks == 2
            assert stats.first_divergence == 3

    def test_clean_truncation_caught_by_trailer(self, checksummed, source_of):
        offset, _length = _event_frame_offsets(checksummed)[7]
        trailer_offset = _frames(checksummed)[-1][0]
        shortened = checksummed[:offset] + checksummed[trailer_offset:]
        stats = ParseStats()
        events = _parse(shortened, source_of, stats)
        assert len(events) == 7
        assert stats.checksum_failures == 0
        assert stats.chain_breaks == 1  # the trailer mismatch
        assert stats.first_divergence == 7

    def test_strict_mode_raises_integrity_error(self, checksummed, source_of):
        flipped = self._flip_in_record(checksummed, 3)
        with pytest.raises(NetLogIntegrityError):
            _parse(flipped, source_of, strict=True)

    def test_fast_and_full_agree_on_events(self, checksummed, source_of):
        for damage in (
            self._flip_in_record(checksummed, 2),
            checksummed[: len(checksummed) // 2],
            checksummed[:-5] + b"\x00" * 5,
        ):
            fast = _parse(damage, source_of, ParseStats())
            full = _parse(damage, source_of, ParseStats(), verify="full")
            assert fast == full


def _with_params(data, record_index, params):
    """Rewrite one event frame's params bytes under a valid frame CRC."""
    offset, length = _event_frame_offsets(data)[record_index]
    start = offset + _FRAME_HEAD.size
    payload = data[start : start + length]
    body = _PRELUDE.size
    if payload[_PRELUDE.size - 1] & FLAG_INTEGRITY:
        body += _INTEGRITY.size
    payload = payload[:body] + params
    frame = _FRAME_HEAD.pack(TAG_EVENT, len(payload), zlib.crc32(payload))
    return data[:offset] + frame + payload + data[start + length :]


class TestParamsNotJson:
    """A CRC-valid event frame whose params bytes are not JSON, as a
    buggy or foreign writer would produce: one malformed record in both
    regimes, and in the full regime also a chain gap."""

    @pytest.fixture(
        params=[b"{not json", b'{"url":"a"}{"url":"b"}', b"\xff\xfe"],
        ids=["not-json", "trailing-bytes", "not-utf8"],
    )
    def damaged(self, request):
        data = dumps_binary(_events(3), checksums=True)
        return _with_params(data, 1, request.param)

    def test_full_regime_accounts_like_the_json_walk(self, damaged, source_of):
        stats = ParseStats()
        events = _parse(damaged, source_of, stats, verify="full")
        assert [e.time for e in events] == [0.0, 2.0]
        assert stats == ParseStats(
            parsed=2, dropped_malformed=1, verified=2, first_divergence=1
        )

    def test_fast_regime_drops_the_record(self, damaged, source_of):
        stats = ParseStats()
        events = _parse(damaged, source_of, stats)
        assert [e.time for e in events] == [0.0, 2.0]
        assert stats == ParseStats(parsed=2, dropped_malformed=1, verified=3)

    def test_fsck_reads_past_the_record(self, damaged, tmp_path):
        path = tmp_path / "doc.nlbin"
        path.write_bytes(damaged)
        assert verify_document(path) == ParseStats(
            parsed=2, dropped_malformed=1, verified=2, first_divergence=1
        )

    @pytest.mark.parametrize("verify", ["fast", "full"])
    def test_strict_mode_raises_parse_error(self, damaged, source_of, verify):
        with pytest.raises(NetLogParseError, match="malformed params"):
            _parse(damaged, source_of, strict=True, verify=verify)


class TestFalsyParams:
    """A frame whose params bytes decode to a falsy non-object is an
    event with empty params in both regimes, as the JSON walk takes the
    same record (``parser.event_params``); a truthy non-object stays a
    malformed record."""

    @pytest.mark.parametrize(
        "params", [b"null", b"[]", b"0", b'""', b"false", b"{}"]
    )
    @pytest.mark.parametrize("verify", ["fast", "full"])
    def test_is_empty_params(self, params, verify, source_of):
        data = _with_params(dumps_binary(_events(3)), 1, params)
        stats = ParseStats()
        events = _parse(data, source_of, stats, verify=verify)
        assert [e.params for e in events] == [
            {"url": "http://localhost/"}, {}, {"url": "http://localhost/"}
        ]
        assert stats == ParseStats(parsed=3)
        json_stats = ParseStats()
        assert loads(to_json(data), strict=False, stats=json_stats) == events
        assert json_stats == stats

    @pytest.mark.parametrize("params", [b"[0]", b"1", b'"x"', b"true"])
    @pytest.mark.parametrize("verify", ["fast", "full"])
    def test_truthy_non_object_is_malformed(self, params, verify, source_of):
        data = _with_params(dumps_binary(_events(3)), 1, params)
        stats = ParseStats()
        assert len(_parse(data, source_of, stats, verify=verify)) == 2
        assert stats == ParseStats(parsed=2, dropped_malformed=1)


class TestIntTime:
    """Binary capture of an int ``time``: the chain covers the canonical
    ``"time":7``, so the frame must carry ``FLAG_INT_TIME`` for a decoder
    to rebuild ``7`` rather than ``7.0``."""

    @pytest.fixture()
    def events(self):
        return [
            _event(time=0.0, source_id=1),
            _event(time=7, source_id=2),
            _event(time=8.5, source_id=3),
        ]

    def test_full_regime_verifies(self, events, source_of):
        stats = ParseStats()
        data = dumps_binary(events, checksums=True)
        assert _parse(data, source_of, stats, verify="full") == events
        assert stats == ParseStats(parsed=3, verified=3)

    def test_fsck_verifies(self, events, tmp_path):
        path = tmp_path / "doc.nlbin"
        path.write_bytes(dumps_binary(events, checksums=True))
        assert verify_document(path) == ParseStats(parsed=3, verified=3)

    def test_transcodes_to_the_json_writer_document(self, events):
        text = dumps(events, checksums=True)
        data = dumps_binary(events, checksums=True)
        assert to_json(data) == text
        assert to_binary(text) == data


def _with_int_time(data, record_index, time_value):
    """Rewrite one event frame's time as an int ``time`` holding this
    float (``FLAG_INT_TIME`` set) under a valid frame CRC; the stored
    crc/chain stay as they were."""
    offset, length = _event_frame_offsets(data)[record_index]
    start = offset + _FRAME_HEAD.size
    payload = data[start : start + length]
    fields = list(_PRELUDE.unpack_from(payload))
    fields[1] = time_value
    fields[6] |= FLAG_INT_TIME
    payload = _PRELUDE.pack(*fields) + payload[_PRELUDE.size :]
    return data[:offset] + _frame(TAG_EVENT, payload) + data[start + length :]


class TestIntTimeNotFinite:
    """A CRC-valid event frame with ``FLAG_INT_TIME`` and an infinite or
    NaN time, as a buggy or foreign writer would produce: the time has no
    int form, so the full regime cannot form the record's canonical bytes
    and counts it as it counts params it cannot decode (one malformed
    record and a chain gap).  The fast regime never forms the int and
    parses it."""

    @pytest.fixture(
        params=[float("inf"), float("-inf"), float("nan")],
        ids=["inf", "-inf", "nan"],
    )
    def damaged(self, request):
        data = dumps_binary(_events(3), checksums=True)
        return _with_int_time(data, 1, request.param)

    def test_full_regime_accounts_like_the_json_walk(self, damaged, source_of):
        stats = ParseStats()
        events = _parse(damaged, source_of, stats, verify="full")
        assert [e.time for e in events] == [0.0, 2.0]
        assert stats == ParseStats(
            parsed=2, dropped_malformed=1, verified=2, first_divergence=1
        )

    def test_fast_regime_parses_the_record(self, damaged, source_of):
        stats = ParseStats()
        assert len(_parse(damaged, source_of, stats)) == 3
        assert stats == ParseStats(parsed=3, verified=3)

    def test_fsck_reads_past_the_record(self, damaged, tmp_path):
        path = tmp_path / "doc.nlbin"
        path.write_bytes(damaged)
        assert verify_document(path) == ParseStats(
            parsed=2, dropped_malformed=1, verified=2, first_divergence=1
        )

    def test_strict_full_regime_raises_parse_error(self, damaged, source_of):
        with pytest.raises(NetLogParseError, match="malformed time"):
            _parse(damaged, source_of, strict=True, verify="full")

    def test_transcoder_raises_parse_error(self, damaged):
        with pytest.raises(NetLogParseError, match="malformed event frame"):
            to_json(damaged)


class TestDamagedHeaderFrame:
    """A header frame that fails its CRC: the document's
    self-description (constants, ``visitMeta``) is lost, which salvage
    counts as one chain break at record 0, the way it counts a damaged
    trailer; every event frame still parses.  Strict mode raises."""

    @pytest.fixture(params=[False, True], ids=["plain", "checksummed"])
    def damaged(self, request):
        data = bytearray(dumps_binary(_events(3), checksums=request.param))
        ((offset, tag, length),) = _frames(bytes(data))[:1]
        assert tag == TAG_HEADER and length > 100
        data[offset + _FRAME_HEAD.size + 100] ^= 0x01
        return request.param, bytes(data)

    @pytest.mark.parametrize("verify", ["fast", "full"])
    def test_salvage_counts_a_chain_break(self, damaged, verify, source_of):
        checksums, data = damaged
        stats = ParseStats()
        events = _parse(data, source_of, stats, verify=verify)
        assert [e.time for e in events] == [0.0, 1.0, 2.0]
        assert stats == ParseStats(
            parsed=3,
            verified=3 if checksums else 0,
            chain_breaks=1,
            first_divergence=0,
        )

    def test_fsck_reports_the_document_damaged(self, damaged, tmp_path):
        data = damaged[1]
        path = tmp_path / "doc.nlbin"
        path.write_bytes(data)
        stats = verify_document(path)
        assert stats.damaged and stats.first_divergence == 0
        assert read_binary_header(data) is None

    @pytest.mark.parametrize("verify", ["fast", "full"])
    def test_strict_mode_raises_integrity_error(self, damaged, verify, source_of):
        with pytest.raises(NetLogIntegrityError):
            _parse(damaged[1], source_of, strict=True, verify=verify)


def _with_event_payload(data, record_index, payload):
    """Replace one event frame's payload under a valid frame CRC."""
    offset, length = _event_frame_offsets(data)[record_index]
    end = offset + _FRAME_HEAD.size + length
    return data[:offset] + _frame(TAG_EVENT, payload) + data[end:]


_CHECKSUMMED_PRELUDE = _PRELUDE.pack(
    1,
    1.0,
    int(EventType.URL_REQUEST_START_JOB),
    2,
    int(SourceType.URL_REQUEST),
    int(EventPhase.BEGIN),
    FLAG_INTEGRITY,
)


class TestShortEventFrame:
    """A CRC-valid event frame shorter than its 21-byte prelude, or than
    the prelude plus the crc/chain pair its flags announce: one malformed
    record in both regimes and, in a checksummed document, a chain gap,
    as the JSON walk counts a record it cannot decode.  Strict mode
    raises ``NetLogParseError``."""

    @pytest.fixture(
        params=[
            b"",
            b"abc",
            _CHECKSUMMED_PRELUDE[:-1],
            _CHECKSUMMED_PRELUDE,
            _CHECKSUMMED_PRELUDE + b"\x00" * 4,
        ],
        ids=["empty", "3-bytes", "prelude-cut", "no-crc-chain", "crc-no-chain"],
    )
    def payload(self, request):
        return request.param

    @pytest.mark.parametrize("verify", ["fast", "full"])
    @pytest.mark.parametrize("checksums", [False, True], ids=["plain", "checksummed"])
    def test_one_malformed_record(self, payload, checksums, verify, source_of):
        data = _with_event_payload(
            dumps_binary(_events(3), checksums=checksums), 1, payload
        )
        stats = ParseStats()
        events = _parse(data, source_of, stats, verify=verify)
        assert [e.time for e in events] == [0.0, 2.0]
        if checksums:
            want = ParseStats(
                parsed=2, dropped_malformed=1, verified=2, first_divergence=1
            )
        else:
            want = ParseStats(parsed=2, dropped_malformed=1)
        assert stats == want

    def test_every_reader_salvages_it(self, payload, tmp_path):
        data = _with_event_payload(dumps_binary(_events(3), checksums=True), 1, payload)
        parsed = ParseStats()
        loads(data, strict=False, stats=parsed, verify="full")
        streamed = ParseStats()
        list(iter_events_streaming(data, strict=False, stats=streamed))
        assert streamed == parsed
        path = tmp_path / "doc.nlbin"
        path.write_bytes(data)
        assert verify_document(path) == parsed

    @pytest.mark.parametrize("verify", ["fast", "full"])
    def test_strict_mode_raises_parse_error(self, payload, verify, source_of):
        data = _with_event_payload(dumps_binary(_events(3)), 1, payload)
        with pytest.raises(NetLogParseError, match="malformed event frame"):
            _parse(data, source_of, strict=True, verify=verify)


def _writer_shaped_text(params):
    """A checksummed two-record document in the JSON writer's exact
    layout whose second record carries ``"params": params`` (the writers
    never emit empty params, so it is built by hand)."""
    records = []
    chain = CHAIN_SEED
    for index, value in enumerate(({"url": "http://localhost/"}, params)):
        record = {
            "time": float(index),
            "type": int(EventType.URL_REQUEST_START_JOB),
            "source": {"id": index + 1, "type": int(SourceType.URL_REQUEST)},
            "phase": int(EventPhase.BEGIN),
            "params": value,
        }
        payload = canonical_record_bytes(record)
        chain = zlib.crc32(payload, chain)
        records.append({**record, "crc": zlib.crc32(payload), "chain": chain})
    out = io.StringIO()
    write_document_head(out)
    out.write(",\n".join(encode_json(record) for record in records))
    write_document_tail(out, checksums=True, count=len(records), chain=chain)
    return out.getvalue()


class TestTranscoding:
    @pytest.mark.parametrize(
        "params", [{}, None], ids=["params-empty-object", "params-null"]
    )
    def test_checksummed_empty_params_are_lossless(self, params):
        # The params key is in the record's canonical form whatever its
        # value, so the frame must keep it for the chain to verify.
        text = _writer_shaped_text(params)
        data = to_binary(text)
        stats = ParseStats()
        loads(data, strict=False, stats=stats, verify="full")
        assert stats == ParseStats(parsed=2, verified=2)
        assert to_json(data) == text
        assert to_binary(to_json(data)) == data

    @pytest.mark.parametrize("checksums", [False, True])
    def test_json_binary_json_byte_identical(self, checksums):
        text = dumps(_events(), checksums=checksums)
        assert to_json(to_binary(text)) == text

    @pytest.mark.parametrize("checksums", [False, True])
    def test_binary_json_binary_byte_identical(self, checksums):
        data = dumps_binary(_events(), checksums=checksums)
        assert to_binary(to_json(data)) == data

    def test_extras_survive(self):
        from repro.netlog.writer import dump as dump_json

        out = io.StringIO()
        dump_json(
            _events(3),
            out,
            checksums=True,
            extra={"visitMeta": {"os": "windows", "attempts": 1}},
        )
        text = out.getvalue()
        assert to_json(to_binary(text)) == text

    def test_same_parse_both_formats(self):
        text = dumps(_events(), checksums=True)
        assert loads(to_binary(text)) == loads(text)

    def test_identity_when_already_target_format(self):
        text = dumps(_events())
        data = dumps_binary(_events())
        assert to_json(text) == text
        assert to_binary(data) == data

    def test_damaged_json_is_rejected(self):
        text = dumps(_events(), checksums=True)
        with pytest.raises(NetLogParseError):
            to_binary(text[: len(text) // 2])

    def test_over_long_int_is_rejected(self):
        # Past Python's int-string limit json.loads raises a ValueError
        # that is not a JSONDecodeError: still undecodable JSON.
        document = json.loads(dumps(_events(2)))
        document["events"][0]["time"] = "<int>"
        text = json.dumps(document).replace('"<int>"', "9" * 5001)
        with pytest.raises(NetLogParseError, match="invalid JSON"):
            to_binary(text)

    @pytest.mark.parametrize("field", ["crc", "chain"])
    def test_lone_integrity_field_is_refused(self, field):
        # A frame carries crc and chain together or not at all; writing
        # a lone one as neither would launder the damage the JSON audit
        # counts (a lone chain is a chain break there) into a clean
        # document, and drop a lone crc's verification.
        record = {
            "time": 1.0,
            "type": int(EventType.URL_REQUEST_START_JOB),
            "source": {"id": 1, "type": int(SourceType.URL_REQUEST)},
            "phase": int(EventPhase.BEGIN),
            "params": {"url": "http://localhost/"},
        }
        payload = canonical_record_bytes(record)
        record[field] = zlib.crc32(payload, CHAIN_SEED if field == "chain" else 0)
        text = json.dumps({"events": [record]})
        with pytest.raises(NetLogParseError, match="not representable in binary form"):
            to_binary(text)

    def test_foreign_constants_pass_through(self):
        # A hand-built (non-writer) document keeps its constants block.
        document = {
            "constants": {"logEventTypes": {}, "timeTickOffset": 7.5},
            "events": [],
        }
        text = json.dumps(document)
        round_tripped = json.loads(to_json(to_binary(text)))
        assert round_tripped["constants"] == document["constants"]


#: Edge frames for the full regime's canonical formatter:
#: ``(time, extra flags, source id, params bytes or None)``.
_EDGE_FRAMES = {
    "params-empty-object": (1.5, 0, 1, b"{}"),
    "params-null": (1.5, 0, 1, b"null"),
    "params-list": (1.5, 0, 1, b'[3,"b",{"z":1,"a":2}]'),
    "params-nested-unsorted-non-ascii": (
        1.5,
        0,
        1,
        json.dumps(
            {"z\u00e9": {"b": 1, "a": ["\u00fc", {"y": 2, "x": None}]}, "a": "\u2603"},
            ensure_ascii=False,
            separators=(",", ":"),
        ).encode("utf-8"),
    ),
    "no-params": (1.5, 0, 1, None),
    "int-time": (7.0, FLAG_INT_TIME, 1, b'{"url":"http://localhost/"}'),
    "time-nan": (float("nan"), 0, 1, b'{"url":"http://localhost/"}'),
    "time-negative-zero": (-0.0, 0, 1, b'{"url":"http://localhost/"}'),
    "time-1e-7": (1e-7, 0, 1, b'{"url":"http://localhost/"}'),
    "time-1e300": (1e300, 0, 1, b'{"url":"http://localhost/"}'),
    "max-source-id": (1.5, 0, 2**32 - 1, b'{"url":"http://localhost/"}'),
}


def _edge_payload(name, *, crc_delta=0):
    """One checksummed event payload whose crc/chain are the reference
    ``canonical_record_bytes(_record_from_payload(payload))`` values."""
    time_value, flags, source_id, params = _EDGE_FRAMES[name]
    flags |= FLAG_INTEGRITY | (FLAG_PARAMS if params is not None else 0)
    prelude = _PRELUDE.pack(
        0,
        time_value,
        int(EventType.URL_REQUEST_START_JOB),
        source_id,
        int(SourceType.URL_REQUEST),
        int(EventPhase.BEGIN),
        flags,
    )
    body = params or b""
    reference = canonical_record_bytes(
        _record_from_payload(prelude + _INTEGRITY.pack(0, 0) + body)
    )
    crc = zlib.crc32(reference)
    integrity = _INTEGRITY.pack(crc ^ crc_delta, zlib.crc32(reference, CHAIN_SEED))
    return prelude + integrity + body, reference


def _edge_document(payload):
    out = io.BytesIO()
    write_binary_head(out)
    out.write(_frame(TAG_EVENT, payload))
    chain = _INTEGRITY.unpack_from(payload, _PRELUDE.size)[1]
    write_binary_tail(out, checksums=True, count=1, chain=chain)
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(_EDGE_FRAMES))
class TestCanonicalFromFrameFields:
    """The full regime hashes each record's canonical form formatted
    straight from the frame's fields; it must equal the verifier's
    reference form of the record dict the frame decodes to."""

    def test_formatter_matches_the_record_reference(self, name):
        payload, reference = _edge_payload(name)
        record = _record_from_payload(payload)
        source = record["source"]
        assert (
            canonical_fields_bytes(
                record["time"],
                record["type"],
                source["id"],
                source["type"],
                record["phase"],
                record.get("params", NO_PARAMS),
            )
            == reference
        )

    def test_full_regime_verifies_the_frame(self, name, source_of):
        payload, _ = _edge_payload(name)
        data = _edge_document(payload)
        stats = ParseStats()
        _parse(data, source_of, stats, verify="full")
        assert (stats.verified, stats.checksum_failures, stats.chain_breaks) == (1, 0, 0)
        assert stats.first_divergence is None
        # The JSON walk's chain check over the transcoded document agrees.
        json_stats = ParseStats()
        loads(to_json(data), strict=False, stats=json_stats)
        assert (json_stats.verified, json_stats.checksum_failures) == (1, 0)
        assert (json_stats.chain_breaks, json_stats.first_divergence) == (0, None)

    def test_full_regime_catches_a_wrong_crc(self, name, source_of):
        payload, _ = _edge_payload(name, crc_delta=1)
        stats = ParseStats()
        _parse(_edge_document(payload), source_of, stats, verify="full")
        assert (stats.verified, stats.checksum_failures) == (0, 1)
