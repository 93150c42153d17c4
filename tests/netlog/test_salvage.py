"""Salvage-mode tests: damaged NetLog documents, both parsers.

A NetLog from a killed browser is damaged in predictable ways: the
closing ``]}`` never gets written, the cut can fall mid-record, and
filesystems pad the tail with NULs.  Non-strict parsing must recover the
intact event prefix and account for the loss in :class:`ParseStats`;
strict parsing must keep raising.
"""

import io
import json

import pytest

from repro.netlog import (
    EventPhase,
    EventType,
    NetLogArchive,
    NetLogEvent,
    NetLogIntegrityError,
    NetLogParseError,
    NetLogSource,
    NetLogTruncationError,
    ParseStats,
    SourceType,
    dumps,
    iter_events_streaming,
    loads,
    parse_record,
)
from repro.netlog.binary import iter_events_binary
from repro.netlog.convert import to_binary
from repro.netlog.parallel import verify_document
from repro.storage import TelemetryStore
from repro.storage.integrity import FsckKind, fsck


def _event(time=0.0, source_id=1, params=None):
    return NetLogEvent(
        time=time,
        type=EventType.URL_REQUEST_START_JOB,
        source=NetLogSource(id=source_id, type=SourceType.URL_REQUEST),
        phase=EventPhase.BEGIN,
        params=params if params is not None else {"url": "http://localhost/"},
    )


@pytest.fixture()
def document():
    return dumps([_event(time=float(i), source_id=i + 1) for i in range(10)])


@pytest.fixture()
def checksummed():
    return dumps(
        [_event(time=float(i), source_id=i + 1) for i in range(10)],
        checksums=True,
    )


def _streaming(text, stats=None, strict=False):
    return list(
        iter_events_streaming(io.StringIO(text), strict=strict, stats=stats)
    )


class TestTruncatedDocuments:
    """Each damage shape, against both the whole-document and streaming
    parsers; each must recover at least the untruncated prefix."""

    def test_missing_closing_brackets(self, document):
        text = document.rstrip()
        assert text.endswith("]}")
        text = text[:-2]
        for parse in (lambda t, s: loads(t, strict=False, stats=s), _streaming):
            stats = ParseStats()
            events = parse(text, stats)
            assert len(events) == 10  # every record was intact
            assert stats.truncated
            assert stats.parsed == 10
            assert stats.dropped == 0

    def test_mid_record_truncation(self, document):
        # Cut inside the final record: 9 intact events, 1 partial dropped.
        text = document[: document.rfind('"source"')]
        for parse in (lambda t, s: loads(t, strict=False, stats=s), _streaming):
            stats = ParseStats()
            events = parse(text, stats)
            assert len(events) == 9
            assert [e.time for e in events] == [float(i) for i in range(9)]
            assert stats.truncated
            assert stats.dropped_malformed == 1

    def test_nul_padded_tail(self, document):
        text = document[: document.rfind('"source"')] + "\x00" * 128
        for parse in (lambda t, s: loads(t, strict=False, stats=s), _streaming):
            stats = ParseStats()
            events = parse(text, stats)
            assert len(events) == 9
            assert stats.truncated

    def test_empty_events_array(self):
        text = dumps([])
        for parse in (lambda t, s: loads(t, strict=False, stats=s), _streaming):
            stats = ParseStats()
            assert parse(text, stats) == []
            assert not stats.truncated
            assert not stats.damaged

    def test_strict_mode_still_raises(self, document):
        truncated = document[:-4]
        with pytest.raises(NetLogParseError):
            loads(truncated, strict=True)
        with pytest.raises(NetLogTruncationError):
            _streaming(truncated, strict=True)

    def test_salvage_matches_clean_parse_prefix(self, document):
        # The salvaged events are value-identical to the clean parse.
        clean = loads(document)
        salvaged = loads(document[:-4], strict=False)
        assert salvaged == clean[: len(salvaged)]

    def test_every_cut_point_recovers_a_prefix(self, document):
        # Sweep cut positions: salvage must never raise and never invent
        # events beyond the clean parse.
        clean = loads(document)
        for cut in range(0, len(document), 37):
            stats = ParseStats()
            salvaged = loads(document[:cut], strict=False, stats=stats)
            assert salvaged == clean[: len(salvaged)]


#: Stands for an integer literal of 5,001 digits, past Python's
#: int-string limit (4,300 digits), which ``json.dumps`` cannot write.
_OVER_LONG_INT = "<5001-digit int>"


class TestNonStrictRecordHandling:
    """strict=False skips-and-counts malformed records of every shape."""

    def _doc_with(self, mutate):
        document = json.loads(
            dumps([_event(time=float(i), source_id=i + 1) for i in range(4)])
        )
        mutate(document["events"])
        return json.dumps(document).replace(f'"{_OVER_LONG_INT}"', "9" * 5001)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda events: events[1].update(time="bogus"),
            lambda events: events[1].pop("time"),
            lambda events: events[1].pop("source"),
            lambda events: events[1].update(source=[1, 2]),
            lambda events: events[1].update(source={"id": "x"}),
            lambda events: events[1].update(params="not-a-dict"),
            lambda events: events.__setitem__(1, "not-an-object"),
            lambda events: events[1].update(time=10**400),
            lambda events: events[1]["source"].update(id=float("inf")),
            lambda events: events[1]["source"].update(type=float("-inf")),
            lambda events: events[1].update(time=_OVER_LONG_INT),
        ],
        ids=[
            "bad-time",
            "missing-time",
            "missing-source",
            "source-not-object",
            "bad-source-id",
            "params-not-object",
            "record-not-object",
            "time-400-digit-int",
            "source-id-infinite",
            "source-type-infinite",
            "time-5001-digit-int",
        ],
    )
    def test_malformed_record_skipped_and_counted(self, mutate):
        text = self._doc_with(mutate)
        stats = ParseStats()
        events = loads(text, strict=False, stats=stats)
        assert [e.source.id for e in events] == [1, 3, 4]
        assert stats.dropped_malformed == 1
        assert stats.parsed == 3
        with pytest.raises(NetLogParseError):
            loads(text, strict=True)

    @pytest.mark.parametrize(
        "phase",
        [None, [], [1], {}, float("inf"), float("-inf"), float("nan"), 10**400],
        ids=["null", "empty-list", "list", "object", "inf", "-inf", "nan", "huge"],
    )
    def test_unreadable_phase_is_no_phase(self, phase):
        # The fallback an unknown phase code already gets, in both modes.
        text = self._doc_with(lambda events: events[1].update(phase=phase))
        for strict in (False, True):
            for parse in (
                lambda stats: loads(text, strict=strict, stats=stats),
                lambda stats: _streaming(text, stats, strict=strict),
            ):
                stats = ParseStats()
                phases = [e.phase for e in parse(stats)]
                assert phases[1] is EventPhase.NONE
                assert phases[0] is phases[2] is EventPhase.BEGIN
                assert stats == ParseStats(parsed=4)

    @pytest.mark.parametrize(
        "where, want",
        [
            ("record", ParseStats(parsed=3, dropped_malformed=1)),
            ("constants", ParseStats(parsed=4)),
            ("trailer", ParseStats(parsed=4)),
        ],
        ids=["record", "constants", "trailer"],
    )
    def test_over_long_int_is_undecodable_json(self, where, want, tmp_path):
        # ``json.loads`` rejects an int past the int-string limit with a
        # ValueError that is not a JSONDecodeError; every reader treats
        # it as undecodable JSON: the whole-document parse salvages, the
        # streaming scanner drops the record or the block that holds it.
        document = json.loads(
            dumps([_event(time=float(i), source_id=i + 1) for i in range(4)])
        )
        if where == "record":
            document["events"][1]["time"] = _OVER_LONG_INT
        elif where == "constants":
            document["constants"]["timeTickOffset"] = _OVER_LONG_INT
        else:
            document["integrity"] = {"events": _OVER_LONG_INT}
        text = json.dumps(document).replace(f'"{_OVER_LONG_INT}"', "9" * 5001)
        parsed = ParseStats()
        loads(text, strict=False, stats=parsed)
        assert parsed == want
        streamed = ParseStats()
        _streaming(text, streamed)
        assert streamed == want
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert verify_document(path) == want
        with pytest.raises(NetLogParseError):
            loads(text, strict=True)
        if where != "trailer":  # an unreadable trailer is never fatal
            with pytest.raises(NetLogParseError):
                _streaming(text, strict=True)

    @pytest.mark.parametrize(
        "constants",
        [[1], "x", {"logEventTypes": [1]}, {"logEventTypes": "X"}],
        ids=["block-list", "block-string", "table-list", "table-string"],
    )
    def test_name_table_not_an_object_gives_no_names(self, constants, tmp_path):
        # A record typed by name is then of an unknown type: skipped and
        # counted by every reader alike, and fatal only in strict mode.
        document = json.loads(
            dumps([_event(time=float(i), source_id=i + 1) for i in range(3)])
        )
        document["constants"] = constants
        document["events"][1]["type"] = "X"
        text = json.dumps(document)
        want = ParseStats(parsed=2, dropped_unknown_type=1)
        parsed = ParseStats()
        assert len(loads(text, strict=False, stats=parsed)) == 2
        assert parsed == want
        streamed = ParseStats()
        assert len(_streaming(text, streamed)) == 2
        assert streamed == want
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert verify_document(path) == want
        with pytest.raises(NetLogParseError, match="unknown event type"):
            loads(text, strict=True)
        with pytest.raises(NetLogParseError, match="unknown event type"):
            _streaming(text, strict=True)

    def test_invalid_escape_in_top_level_key_is_not_a_netlog(
        self, document, tmp_path
    ):
        # A top-level syntax error like any other: every reader rejects
        # the document with NetLogParseError, in both modes.
        text = '{"a\\q": 1, ' + document.lstrip()[1:]
        for strict in (False, True):
            with pytest.raises(NetLogParseError):
                loads(text, strict=strict)
            with pytest.raises(NetLogParseError):
                _streaming(text, strict=strict)
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert verify_document(path).damaged

    def test_unknown_type_counted_separately(self):
        record = {
            "time": 1.0,
            "type": 9999,
            "source": {"id": 1, "type": 1},
            "phase": 1,
        }
        stats = ParseStats()
        assert parse_record(record, strict=False, stats=stats) is None
        assert stats.dropped_unknown_type == 1
        assert stats.dropped_malformed == 0

    def test_in_place_corruption_streaming(self, document):
        # A balanced-but-undecodable record desynchronises nothing: the
        # streaming walker drops it and keeps going.
        corrupted = document.replace('"time": 3.0', '"time": 3.#!', 1)
        assert corrupted != document
        stats = ParseStats()
        events = _streaming(corrupted, stats)
        assert len(events) == 9
        assert stats.dropped_malformed == 1
        assert not stats.truncated

    def test_describe_mentions_damage(self, document):
        stats = ParseStats()
        loads(document[:-4], strict=False, stats=stats)
        text = stats.describe()
        assert "truncated" in text


class TestChecksummedCorruption:
    """Corruption shapes that only end-to-end checksums can see, against
    both parsers: the damaged document stays syntactically valid JSON (or
    degrades like a torn write), yet verification pins the exact record
    where the content diverged from what the writer emitted."""

    def test_mid_record_bit_flip_fails_crc(self, checksummed):
        # Flip one digit inside record 3's payload.  The JSON stays
        # perfectly parseable — without checksums this damage is
        # undetectable — but the record's CRC32 no longer matches.
        flipped = checksummed.replace('"time": 3.0', '"time": 3.5', 1)
        assert flipped != checksummed
        for parse in (lambda t, s: loads(t, strict=False, stats=s), _streaming):
            stats = ParseStats()
            events = parse(flipped, stats)
            assert len(events) == 9  # the lying record is dropped
            assert stats.checksum_failures == 1
            assert stats.first_divergence == 3
            assert 3.5 not in {e.time for e in events}

    def test_spliced_out_record_breaks_chain(self, checksummed):
        # Remove one complete record.  Every survivor is individually
        # CRC-valid, so only the rolling hash chain (and the trailer's
        # event count) can prove the loss.
        document = json.loads(checksummed)
        del document["events"][3]
        spliced = json.dumps(document)
        for parse in (lambda t, s: loads(t, strict=False, stats=s), _streaming):
            stats = ParseStats()
            events = parse(spliced, stats)
            # The record where the break surfaces is dropped too (its
            # provenance is suspect), and the trailer adds a second break
            # for the event-count mismatch.
            assert len(events) == 8
            assert stats.checksum_failures == 0
            assert stats.chain_breaks == 2
            assert stats.first_divergence == 3

    def test_torn_tail_nul_hole(self, checksummed):
        # A torn write: the tail of the file is a hole of NUL bytes.
        position = checksummed.rfind('"source"')
        torn = checksummed[:position] + "\x00" * (len(checksummed) - position)
        for parse in (lambda t, s: loads(t, strict=False, stats=s), _streaming):
            stats = ParseStats()
            events = parse(torn, stats)
            assert len(events) == 9
            assert stats.truncated
            assert stats.first_divergence == 9
            assert stats.verified == 9

    def test_clean_whole_record_truncation_caught_by_trailer(
        self, checksummed
    ):
        # Drop the last three records *cleanly* — the survivors all
        # verify and chain correctly, so only the integrity trailer's
        # count/final-chain can reveal the loss.
        document = json.loads(checksummed)
        del document["events"][7:]
        shortened = json.dumps(document)
        for parse in (lambda t, s: loads(t, strict=False, stats=s), _streaming):
            stats = ParseStats()
            events = parse(shortened, stats)
            assert len(events) == 7
            assert stats.checksum_failures == 0
            assert stats.chain_breaks == 1  # the trailer mismatch
            assert stats.first_divergence == 7

    def test_emptied_events_array_caught_by_trailer(
        self, checksummed, tmp_path
    ):
        # Every record removed, trailer intact: no checksummed record is
        # left to verify, so only the trailer's count can reveal the loss
        # — in both encodings, both binary verify regimes, and fsck.
        document = json.loads(checksummed)
        assert document["integrity"]["events"] == 10
        document["events"] = []
        emptied = json.dumps(document)
        binary = to_binary(emptied)
        parses = [
            lambda s: loads(emptied, strict=False, stats=s),
            lambda s: _streaming(emptied, s),
        ] + [
            lambda s, source=source, verify=verify: list(
                iter_events_binary(
                    source(binary), strict=False, stats=s, verify=verify
                )
            )
            for source in (bytes, io.BytesIO)
            for verify in ("fast", "full")
        ]
        for parse in parses:
            stats = ParseStats()
            assert parse(stats) == []
            assert stats == ParseStats(chain_breaks=1, first_divergence=0)

        for format_name, damaged in (
            ("json", emptied.encode("utf-8")),
            ("binary", binary),
        ):
            root = tmp_path / format_name
            archive = NetLogArchive(root / "netlogs")
            with TelemetryStore(str(root / "telemetry.db")) as store:
                store.record_visit(
                    "crawl", "example.com", "windows", success=True
                )
                store.commit()
                path = archive.write(
                    "crawl",
                    "windows",
                    "example.com",
                    [_event(time=float(i), source_id=i + 1) for i in range(10)],
                    format=format_name,
                )
                assert fsck(store, archive).clean
                path.write_bytes(damaged)
                report = fsck(store, archive)
            assert [(f.kind, f.domain) for f in report.findings] == [
                (FsckKind.ARCHIVE_DAMAGE, "example.com")
            ]

    def test_stripped_integrity_fields_detected_as_gap(self, checksummed):
        # A record whose crc/chain fields were erased parses fine, but
        # the next checksummed record's chain exposes the tampering.
        document = json.loads(checksummed)
        document["events"][4].pop("crc")
        document["events"][4].pop("chain")
        stripped = json.dumps(document)
        for parse in (lambda t, s: loads(t, strict=False, stats=s), _streaming):
            stats = ParseStats()
            events = parse(stripped, stats)
            assert len(events) == 10  # nothing is dropped...
            assert stats.verified == 9  # ...but only 9 records verified

    @pytest.mark.parametrize(
        "chain",
        ["x", [], {"a": 1}, float("inf"), float("nan")],
        ids=["string", "list", "object", "inf", "nan"],
    )
    def test_unreadable_chain_is_a_chain_break(self, checksummed, chain, tmp_path):
        # A CRC-valid record whose chain has no int form: in sync it is a
        # chain break (the record is dropped, the walk resyncs on the next
        # record); out of sync, after a stripped record, it leaves the
        # walk unsynced and is kept.  Salvage never raises on it.
        document = json.loads(checksummed)
        document["events"][3]["chain"] = chain
        in_sync = json.dumps(document)
        document = json.loads(checksummed)
        document["events"][4].pop("crc")
        document["events"][4].pop("chain")
        document["events"][5]["chain"] = chain
        unsynced = json.dumps(document)
        for text, want in (
            (in_sync, ParseStats(parsed=9, verified=10, chain_breaks=1, first_divergence=3)),
            (unsynced, ParseStats(parsed=10, verified=9)),
        ):
            for parse in (lambda t, s: loads(t, strict=False, stats=s), _streaming):
                stats = ParseStats()
                parse(text, stats)
                assert stats == want
            path = tmp_path / "doc.json"
            path.write_text(text)
            assert verify_document(path) == want
        with pytest.raises(NetLogIntegrityError):
            loads(in_sync, strict=True)
        with pytest.raises(NetLogIntegrityError):
            _streaming(in_sync, strict=True)

    def test_strict_mode_raises_integrity_error(self, checksummed):
        flipped = checksummed.replace('"time": 3.0', '"time": 7.0', 1)
        with pytest.raises(NetLogIntegrityError):
            loads(flipped, strict=True)
        with pytest.raises(NetLogIntegrityError):
            _streaming(flipped, strict=True)
        document = json.loads(checksummed)
        del document["events"][3]
        with pytest.raises(NetLogIntegrityError):
            loads(json.dumps(document), strict=True)

    def test_undamaged_checksummed_document_is_pristine(self, checksummed):
        for parse in (lambda t, s: loads(t, strict=False, stats=s), _streaming):
            stats = ParseStats()
            events = parse(checksummed, stats)
            assert len(events) == 10
            assert stats.verified == 10
            assert not stats.damaged
            assert stats.first_divergence is None
