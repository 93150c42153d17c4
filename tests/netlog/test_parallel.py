"""Shared-walk tests: order stability, serial parity, helper safety."""

import atexit
import os
import signal
import threading
import time

import pytest

from repro import obs
from repro.netlog import NetLogArchive, dumps
from repro.netlog import parallel
from repro.netlog.parallel import (
    CHUNK,
    MAX_CHUNKS,
    MAX_JOBS,
    SharedWalk,
    analyze_paths,
    resolve_jobs,
    verify_document,
    verify_paths,
)
from repro.obs.metrics import MetricsRegistry

from .test_binary import _event, _events


class TestResolveJobs:
    def test_defaults_to_every_usable_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert resolve_jobs(None) == 3
        assert resolve_jobs(0) == 3
        assert resolve_jobs(1) == 1

    def test_zero_means_machine_sized(self):
        assert resolve_jobs(0) >= 1

    def test_counts_the_affinity_mask_not_the_machine(self, monkeypatch):
        # A pinned or CPU-limited process never starts more processes
        # than it can run.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-3) == 1
        assert resolve_jobs(4) == 4

    def test_cpu_count_where_there_is_no_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert resolve_jobs(None) == 3

    def test_capped_by_task_count_and_max(self):
        assert resolve_jobs(8, task_count=3) == 3
        assert resolve_jobs(10_000) == MAX_JOBS
        assert resolve_jobs(4, task_count=0) == 1


@pytest.fixture()
def archive(tmp_path):
    archive = NetLogArchive(tmp_path / "logs")
    for domain, fmt in (
        ("a.example", "json"),
        ("b.example", "binary"),
        ("c.example", "json"),
    ):
        archive.write(
            "crawl-1", "windows", domain, _events(5), format=fmt
        )
    return archive


class TestVerifyPaths:
    def test_parallel_matches_serial(self, archive):
        paths = list(archive.entries("crawl-1"))
        serial = verify_paths(paths, jobs=1)
        pooled = verify_paths(paths, jobs=2)
        assert [p for p, _ in pooled] == paths  # input order preserved
        assert [s for _, s in pooled] == [s for _, s in serial]
        assert all(not s.damaged for _, s in pooled)
        assert all(s.verified == 5 for _, s in pooled)

    def test_damage_is_reported_per_path(self, archive, tmp_path):
        paths = list(archive.entries("crawl-1"))
        victim = paths[1]
        victim.write_bytes(victim.read_bytes()[:40])
        results = dict(verify_paths(paths, jobs=2))
        assert results[victim].truncated
        assert not results[paths[0]].damaged

    def test_verify_document_matches_archive_verify(self, archive):
        for path in archive.entries("crawl-1"):
            assert verify_document(path) == archive.verify(path)


class TestAnalyzePaths:
    def test_parallel_matches_serial(self, archive):
        paths = list(archive.entries("crawl-1"))
        serial = analyze_paths(paths, jobs=1)
        pooled = analyze_paths(paths, jobs=2)
        assert serial == pooled
        assert [s.path for s in pooled] == [str(p) for p in paths]
        assert all(s.error is None for s in pooled)
        assert all(s.stats.parsed == 5 for s in pooled)

    def test_unreadable_and_non_netlog_inputs(self, tmp_path):
        missing = tmp_path / "missing.json"
        alien = tmp_path / "alien.json"
        alien.write_text('{"hello": "world"}')
        summaries = analyze_paths([missing, alien], jobs=1)
        assert "cannot read" in summaries[0].error
        assert "not a NetLog document" in summaries[1].error

    def test_local_traffic_is_classified(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(
            dumps(
                [
                    _event(
                        time=float(i),
                        source_id=i + 1,
                        params={"url": "http://127.0.0.1:8000/setup"},
                    )
                    for i in range(3)
                ]
            )
        )
        (summary,) = analyze_paths([path], jobs=1)
        assert summary.local_requests == 3
        assert summary.behavior is not None


# ---------------------------------------------------------------------------
# The shared walk over more than one chunk of documents
# ---------------------------------------------------------------------------


def _flip(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.fixture()
def many(tmp_path):
    """Paths of 2 chunks and a bit of documents in both formats, one
    truncated, one with a flipped bit in a record and one with a flipped
    bit in its binary header frame."""
    archive = NetLogArchive(tmp_path / "logs")
    paths = [
        archive.write(
            "crawl-1",
            "windows",
            f"d{index:03d}.example",
            _events(3 + index % 5),
            format="binary" if index % 2 else "json",
        )
        for index in range(2 * CHUNK + 9)
    ]
    truncated, flipped, header = paths[5], paths[CHUNK + 2], paths[2 * CHUNK + 1]
    truncated.write_bytes(truncated.read_bytes()[:-25])
    _flip(flipped, len(flipped.read_bytes()) // 2)
    _flip(header, 12)
    return paths


def _with_missing(paths):
    """``paths`` with a document that is not there, in the second chunk."""
    at = CHUNK + 4
    return [*paths[:at], paths[at].with_name("missing.example.json"), *paths[at:]]


def _caller_only(function):
    """``function`` wrapped to count its calls in this process only."""
    caller, calls = os.getpid(), []

    def wrapped(item):
        if os.getpid() == caller:
            calls.append(item)
        return function(item)

    return wrapped, calls


class TestSharedWalk:
    """Every test taking ``forks`` also requires each helper it forked
    to have been reaped (the fixture checks when the test ends)."""

    def test_results_equal_at_every_jobs(self, many, forks):
        serial = verify_paths(many, jobs=1)
        summaries = analyze_paths(_with_missing(many), jobs=1)
        assert not forks
        assert sum(stats.damaged for _, stats in serial) == 3
        assert "cannot read" in summaries[CHUNK + 4].error
        for jobs in (2, 3, None):
            assert verify_paths(many, jobs=jobs) == serial
            assert analyze_paths(_with_missing(many), jobs=jobs) == summaries
        assert forks  # at least one walk shared its chunks

    def test_missing_document_raises_at_every_jobs(self, many, forks):
        # The caller verifies what a failed helper did not return, so the
        # error is the one a serial walk raises.
        for jobs in (1, 2, None):
            with pytest.raises(FileNotFoundError):
                verify_paths(_with_missing(many), jobs=jobs)
        assert forks

    def test_helper_exiting_after_its_first_chunk_loses_nothing(
        self, many, forks, monkeypatch
    ):
        serial = verify_paths(many, jobs=1)
        caller, audit, done = os.getpid(), parallel._audit, []

        def dying(path):
            if os.getpid() != caller:
                if len(done) == CHUNK:
                    os._exit(1)
                done.append(path)
            return audit(path)

        monkeypatch.setattr(parallel, "_audit", dying)
        assert verify_paths(many, jobs=2) == serial
        assert forks

    def test_short_write_loses_nothing(self, many, forks, monkeypatch):
        serial = verify_paths(many, jobs=1)
        dumps_ = parallel.pickle.dumps
        monkeypatch.setattr(
            parallel.pickle, "dumps", lambda *args: dumps_(*args)[:-7]
        )
        assert verify_paths(many, jobs=3) == serial
        assert forks

    def test_orphaned_helper_stops_at_its_next_claim(self, many, forks, monkeypatch):
        # A helper whose parent is gone claims once more, then exits
        # without a result: the caller verifies every document itself.
        serial = verify_paths(many, jobs=1)
        monkeypatch.setattr(os, "getppid", lambda: 1)
        audit, calls = _caller_only(parallel._audit)
        monkeypatch.setattr(parallel, "_audit", audit)
        assert verify_paths(many, jobs=2) == serial
        assert len(calls) == len(many)
        assert forks

    def test_helpers_ignore_sigint(self, many, forks, monkeypatch):
        serial = verify_paths(many, jobs=1)
        caller, audit, held = os.getpid(), parallel._audit, []

        def interrupted(path):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGINT)
            elif not held:
                # Holds the caller back so the helper claims chunks.
                held.append(path)
                time.sleep(0.5)
            return audit(path)

        work, calls = _caller_only(interrupted)
        monkeypatch.setattr(parallel, "_audit", work)
        assert verify_paths(many, jobs=2) == serial
        assert forks
        # The helper survived its SIGINTs and returned its chunks.
        assert len(calls) < len(many)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_caller_exception_propagates_and_helpers_are_reaped(
        self, many, forks, monkeypatch, error
    ):
        caller = os.getpid()

        def failing(path):
            if os.getpid() == caller:
                raise error("in the caller's share")
            time.sleep(60)  # only SIGKILL ends this helper in time

        monkeypatch.setattr(parallel, "_audit", failing)
        started = time.perf_counter()
        with pytest.raises(error, match="caller's share"):
            verify_paths(many, jobs=3)
        assert time.perf_counter() - started < 30
        assert len(forks) == 2

    def test_interrupt_while_forking_reaps_every_helper(self, many, forks, monkeypatch):
        # SIGINT waits until the helper just forked is on the caller's
        # books, so the caller kills it too.
        recorded = os.fork

        def fork():
            pid = recorded()
            if pid:
                os.kill(os.getpid(), signal.SIGINT)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(KeyboardInterrupt):
            verify_paths(many, jobs=3)
        assert len(forks) == 2

    def test_replaced_verify_document_sees_every_document(
        self, many, forks, monkeypatch
    ):
        # Helpers run the library's audit, so a replacement (a tracer's
        # timing wrapper, a test double) keeps the walk in this process,
        # where it sees every document, and the results are the serial ones.
        serial = verify_paths(many, jobs=1)
        work, calls = _caller_only(verify_document)
        monkeypatch.setattr(parallel, "verify_document", work)
        assert verify_paths(many, jobs=2) == serial
        assert calls == [os.fspath(path) for path in many]
        assert not forks

    def test_no_fork_with_a_second_live_thread(self, many, monkeypatch):
        serial = verify_paths(many, jobs=1)

        def no_fork():
            raise AssertionError("forked with a second live thread")

        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            monkeypatch.setattr(os, "fork", no_fork)
            assert verify_paths(many, jobs=2) == serial
            assert analyze_paths(many, jobs=2) == analyze_paths(many, jobs=1)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_no_fork_where_the_platform_has_none(self, many, monkeypatch):
        serial = verify_paths(many, jobs=1)
        monkeypatch.delattr(os, "fork")
        assert verify_paths(many, jobs=2) == serial

    def test_helpers_run_no_atexit_handler(self, many, forks, tmp_path):
        # Helpers end with os._exit: no handler, finalizer or stdio flush
        # inherited from the caller runs in them.
        caller, ran = os.getpid(), tmp_path / "ran"

        def handler():
            if os.getpid() != caller:
                ran.write_text(str(os.getpid()))

        atexit.register(handler)
        try:
            verify_paths(many, jobs=3)
        finally:
            atexit.unregister(handler)
        assert forks
        assert not ran.exists()

    def test_one_chunk_never_forks(self, archive, forks):
        paths = list(archive.entries("crawl-1"))
        assert len(paths) <= CHUNK
        verify_paths(paths, jobs=2)
        analyze_paths(paths, jobs=2)
        assert not forks

    def test_metrics_are_recorded_once_in_the_caller(self, many, forks):
        def metrics(jobs):
            registry = MetricsRegistry()
            obs.enable(registry)
            try:
                verify_paths(many, jobs=jobs)
            finally:
                obs.disable()
            seconds = registry.get("repro_netlog_parse_seconds")
            records = registry.get("repro_netlog_records_total")
            return (
                {labels: value.count for labels, value in seconds.values().items()},
                records.values(),
            )

        serial = metrics(1)
        assert sum(serial[0].values()) == len(many)
        assert metrics(2) == serial
        assert forks

    def test_claim_queue_is_bounded_on_a_large_walk(self, forks):
        # Chunks grow past CHUNK on a large walk, so the queue's chunk
        # numbers always fit the least a pipe holds and filling it never
        # blocks the caller.
        items = [str(index) for index in range(MAX_CHUNKS * CHUNK * 3 + 1)]
        with SharedWalk(len, items, 2) as walk:
            assert len(walk._chunks) <= MAX_CHUNKS
            assert MAX_CHUNKS * parallel._CLAIM.size <= 4096
            assert walk.results() == [len(item) for item in items]
        assert forks

    def test_every_chunk_is_worked_once_under_contention(self, tmp_path, forks):
        # More processes than cores race for small claims; each item is
        # worked by exactly one of them (a duplicated or lost claim would
        # show in the log every process appends to).
        log = tmp_path / "worked"
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def work(item):
            os.write(fd, f"{item}\n".encode())
            return item * 2

        items = [str(index) for index in range(40 * CHUNK)]
        try:
            with SharedWalk(work, items, 6) as walk:
                assert walk.results() == [item * 2 for item in items]
        finally:
            os.close(fd)
        assert len(forks) == 5
        assert sorted(log.read_text().split()) == sorted(items)
