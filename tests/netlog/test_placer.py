"""Document placement: the shared ``place`` and the writer process.

``place`` is the one implementation both hosts run; these tests pin the
writer protocol around it — order, barriers, failure accounting,
signals, a lost writer, an orphaned writer — and that a deferred
archive writes the same bytes as a synchronous one.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.netlog import placer
from repro.netlog.archive import NetLogArchive
from repro.netlog.codec import ARCHIVE_SUFFIXES, make_capture_buffer
from repro.netlog.constants import EventPhase, EventType, SourceType
from repro.netlog.events import NetLogEvent, NetLogSource
from repro.netlog.pipeline import feed
from repro.netlog.placer import ArchiveWriterError, PlacerProcess, place


def _buffer(format: str, count: int = 3):
    source = NetLogSource(id=1, type=SourceType.URL_REQUEST)
    events = [
        NetLogEvent(
            time=index,
            type=EventType.REQUEST_ALIVE,
            source=source,
            phase=EventPhase.BEGIN,
            params={"url": f"https://example.com/{index}"},
        )
        for index in range(count)
    ]
    return feed(events, make_capture_buffer(format, checksums=True))


@pytest.fixture
def writer():
    process = PlacerProcess(ARCHIVE_SUFFIXES)
    yield process
    with contextlib.suppress(ArchiveWriterError):
        process.close()


class TestPlace:
    def test_creates_directories_and_removes_other_format(self, tmp_path):
        json_path = str(tmp_path / "crawl" / "linux" / "a.com.json")
        place(json_path, b"{}", ARCHIVE_SUFFIXES)
        assert os.listdir(tmp_path / "crawl" / "linux") == ["a.com.json"]
        binary_path = json_path[: -len(".json")] + ".nlbin"
        place(binary_path, b"\x89nl", ARCHIVE_SUFFIXES)
        assert os.listdir(tmp_path / "crawl" / "linux") == ["a.com.nlbin"]
        with open(binary_path, "rb") as fp:
            assert fp.read() == b"\x89nl"

    def test_unwritable_temp_path_raises_oserror(self, tmp_path):
        path = tmp_path / "a.com.json"
        (tmp_path / "a.com.json.tmp").mkdir()
        with pytest.raises(OSError):
            place(str(path), b"{}", ARCHIVE_SUFFIXES)
        assert not path.exists()


class TestPlacerProcess:
    def test_places_in_order_and_barrier_waits(self, writer, tmp_path):
        path = tmp_path / "x" / "a.com.json"
        for round_ in range(50):
            writer.submit(str(path), b"%d" % round_)
        writer.submit(str(path.with_suffix(".nlbin")), b"binary")
        assert writer.barrier() == []
        # Later documents for a path win; the format switch removed the
        # JSON sibling, exactly as the in-process placement does.
        assert sorted(os.listdir(path.parent)) == ["a.com.nlbin"]
        assert path.with_suffix(".nlbin").read_bytes() == b"binary"

    def test_barrier_returns_each_failure_once(self, writer, tmp_path):
        blocked = tmp_path / "blocked.json"
        (tmp_path / "blocked.json.tmp").mkdir()
        writer.submit(str(blocked), b"lost")
        writer.submit(str(tmp_path / "kept.json"), b"kept")
        assert writer.barrier() == [str(blocked)]
        assert writer.barrier() == []
        assert (tmp_path / "kept.json").read_bytes() == b"kept"
        writer.close()

    def test_concurrent_submitters_never_interleave_frames(
        self, writer, tmp_path
    ):
        """More threads than cores, a tiny switch interval: every
        document still arrives whole (the client lock holds frames
        together) and every thread's last write wins for its path."""
        threads, rounds = 8, 40
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def submit(worker: int) -> None:
                for round_ in range(rounds):
                    document = bytes([65 + worker]) * (1000 + round_ * 97)
                    writer.submit(str(tmp_path / f"w{worker}.json"), document)
                    if round_ % 10 == 0:
                        assert writer.barrier() == []

            pool = [
                threading.Thread(target=submit, args=(worker,))
                for worker in range(threads)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in pool)
        finally:
            sys.setswitchinterval(interval)
        assert writer.barrier() == []
        for worker in range(threads):
            document = (tmp_path / f"w{worker}.json").read_bytes()
            assert document == bytes([65 + worker]) * (1000 + (rounds - 1) * 97)

    def test_writer_ignores_sigint_and_sigterm(self, writer, tmp_path):
        writer.submit(str(tmp_path / "before.json"), b"1")
        assert writer.barrier() == []
        os.kill(writer.pid, signal.SIGINT)
        os.kill(writer.pid, signal.SIGTERM)
        writer.submit(str(tmp_path / "after.json"), b"2")
        assert writer.barrier() == []
        assert (tmp_path / "after.json").read_bytes() == b"2"
        writer.close()

    def test_lost_writer_raises_a_non_oserror_every_time(self, writer, tmp_path):
        os.kill(writer.pid, signal.SIGKILL)
        writer._process.wait(timeout=10)
        with pytest.raises(ArchiveWriterError) as raised:
            writer.submit(str(tmp_path / "a.json"), b"x" * 100_000)
            writer.barrier()
        assert not isinstance(raised.value, OSError)
        with pytest.raises(ArchiveWriterError):
            writer.barrier()
        with pytest.raises(ArchiveWriterError):
            writer.submit(str(tmp_path / "b.json"), b"x")
        writer.close()  # already reported: closing does not raise again

    def test_close_reports_an_unreported_death(self, writer):
        os.kill(writer.pid, signal.SIGKILL)
        writer._process.wait(timeout=10)
        with pytest.raises(ArchiveWriterError):
            writer.close()


def _run_writer(parent: int, frames: bytes) -> int:
    """Feed raw frames to a writer started by path; its exit status."""
    completed = subprocess.run(
        [sys.executable, "-S", "-I", placer.__file__, str(parent), *ARCHIVE_SUFFIXES],
        input=frames, capture_output=True, timeout=60,
    )
    return completed.returncode


def _frame(path, document: bytes) -> bytes:
    name = os.fsencode(str(path))
    return placer._HEAD.pack(placer._DOCUMENT, len(name), len(document)) + name + document


class TestWriterLifecycle:
    def test_orphaned_writer_places_nothing(self, tmp_path):
        # A parent pid that is not the writer's parent: as after the
        # real parent died and the writer was re-parented.
        not_parent = os.getpid() + 1_000_000
        assert _run_writer(not_parent, _frame(tmp_path / "a.json", b"x")) == 0
        assert not (tmp_path / "a.json").exists()

    def test_frame_cut_by_eof_is_dropped(self, tmp_path):
        frames = _frame(tmp_path / "whole.json", b"whole")
        frames += _frame(tmp_path / "cut.json", b"cut short")[:-3]
        assert _run_writer(os.getpid(), frames) == 0
        assert (tmp_path / "whole.json").read_bytes() == b"whole"
        assert not (tmp_path / "cut.json").exists()
        assert not (tmp_path / "cut.json.tmp").exists()


class TestDeferredArchive:
    @pytest.mark.parametrize("format", ["json", "binary"])
    def test_deferred_documents_identical_to_synchronous(self, tmp_path, format):
        sync = NetLogArchive(tmp_path / "sync")
        deferred = NetLogArchive(tmp_path / "deferred")
        meta = {"crawl": "c", "domain": "a.com"}
        expected = sync.write_buffered("c", "linux", "a.com", _buffer(format), meta=meta)
        with deferred.deferred():
            path = deferred.write_buffered(
                "c", "linux", "a.com", _buffer(format), meta=meta
            )
            assert deferred.flush() == []
            assert path.read_bytes() == expected.read_bytes()
        assert deferred.writer_pid is None

    def test_nested_blocks_share_one_writer(self, tmp_path):
        archive = NetLogArchive(tmp_path)
        with archive.deferred():
            pid = archive.writer_pid
            with archive.deferred():
                assert archive.writer_pid == pid
            assert archive.writer_pid == pid
        assert archive.writer_pid is None

    def test_leaving_the_block_places_everything_queued(self, tmp_path):
        archive = NetLogArchive(tmp_path)
        with archive.deferred():
            paths = [
                archive.write_buffered("c", "linux", f"d{index}.com", _buffer("json"))
                for index in range(30)
            ]
        assert all(path.exists() for path in paths)

    def test_outside_a_block_writes_are_synchronous(self, tmp_path):
        archive = NetLogArchive(tmp_path)
        path = archive.write_buffered("c", "linux", "a.com", _buffer("binary"))
        assert path.exists()
        assert archive.flush() == []
        assert archive.writer_pid is None

    def test_failures_surface_at_the_barrier(self, tmp_path):
        archive = NetLogArchive(tmp_path)
        blocked = archive.path_for("c", "linux", "a.com", format="json")
        blocked.with_name(blocked.name + ".tmp").mkdir(parents=True)
        with archive.deferred():
            assert archive.write_buffered("c", "linux", "a.com", _buffer("json")) == blocked
            archive.write_buffered("c", "linux", "b.com", _buffer("json"))
            assert archive.flush() == [blocked]
        assert not blocked.exists()

    def test_writer_is_reaped_with_the_block(self, tmp_path):
        archive = NetLogArchive(tmp_path)
        with archive.deferred():
            pid = archive.writer_pid
            archive.write_buffered("c", "linux", "a.com", _buffer("json"))
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
