"""Tests for the fault injector's seam hooks."""

import pytest

from repro.browser.errors import NetError
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
    InjectedDiskFullError,
    StorageWriteError,
)
from repro.netlog import (
    EventPhase,
    EventType,
    NetLogEvent,
    NetLogSource,
    ParseStats,
    SourceType,
    dumps,
    dumps_binary,
    loads,
)


def _injector(*faults, seed="inj-test"):
    return FaultInjector(plan=FaultPlan(seed=seed, faults=tuple(faults)))


def _faulted_key(injector, kind, keys):
    """First key the plan selects for ``kind`` (skip the test otherwise)."""
    for key in keys:
        if injector.plan.fail_depth(kind, key):
            return key
    pytest.fail(f"plan selected no key for {kind} among {len(keys)} keys")


KEYS = [f"host-{i}.example" for i in range(200)]


class TestTransientSeams:
    def test_dns_fails_then_recovers(self):
        injector = _injector(FaultSpec(kind=FaultKind.DNS, rate=0.2, times=2))
        host = _faulted_key(injector, FaultKind.DNS, KEYS)
        assert injector.dns_hook(host) is NetError.ERR_NAME_NOT_RESOLVED
        assert injector.dns_hook(host) is NetError.ERR_NAME_NOT_RESOLVED
        # Transient depth exhausted: the name resolves from now on.
        assert injector.dns_hook(host) is None
        assert injector.injected[FaultKind.DNS] == 2

    def test_unselected_host_never_faulted(self):
        injector = _injector(FaultSpec(kind=FaultKind.DNS, rate=0.2, times=2))
        clean = next(h for h in KEYS if not injector.plan.fail_depth(FaultKind.DNS, h))
        assert all(injector.dns_hook(clean) is None for _ in range(5))

    def test_connect_faults_keyed_by_host_and_port(self):
        injector = _injector(
            FaultSpec(kind=FaultKind.CONNECTION_RESET, rate=0.2)
        )
        key = _faulted_key(
            injector, FaultKind.CONNECTION_RESET, [f"{h}:80" for h in KEYS]
        )
        host, port = key.rsplit(":", 1)
        assert injector.connect_hook(host, int(port)) is NetError.ERR_CONNECTION_RESET
        assert injector.connect_hook(host, int(port)) is None

    def test_tls_fault_returns_ssl_error(self):
        injector = _injector(FaultSpec(kind=FaultKind.TLS, rate=0.2))
        key = _faulted_key(injector, FaultKind.TLS, [f"{h}:443" for h in KEYS])
        host, port = key.rsplit(":", 1)
        assert injector.connect_hook(host, int(port)) is NetError.ERR_SSL_PROTOCOL_ERROR

    def test_storage_hook_raises_then_recovers(self):
        injector = _injector(
            FaultSpec(kind=FaultKind.STORAGE_WRITE, rate=0.2)
        )
        key = _faulted_key(injector, FaultKind.STORAGE_WRITE, KEYS)
        with pytest.raises(StorageWriteError):
            injector.storage_hook(key)
        injector.storage_hook(key)  # second attempt succeeds


class TestCounterSeams:
    def test_outage_window_is_bounded(self):
        injector = _injector(
            FaultSpec(kind=FaultKind.OUTAGE, at_count=3, duration=2)
        )
        observed = [injector.connectivity_hook() for _ in range(6)]
        assert observed == [False, False, True, True, False, False]
        assert injector.injected[FaultKind.OUTAGE] == 2

    def test_crash_fires_exactly_once(self):
        injector = _injector(FaultSpec(kind=FaultKind.CRASH, at_count=3))
        injector.on_visit()
        injector.on_visit()
        with pytest.raises(InjectedCrashError):
            injector.on_visit()
        # A resumed campaign with a fresh visit counter would re-crash;
        # the same injector past the trigger does not.
        injector.on_visit()


class TestExecutorSeams:
    OSES = ("windows", "linux", "mac")

    def test_hang_strikes_selected_key_then_recovers(self):
        injector = _injector(FaultSpec(kind=FaultKind.HANG, rate=0.2, times=2))
        domain = _faulted_key(injector, FaultKind.HANG, KEYS)
        assert injector.hang_hook(domain, "windows")
        assert injector.hang_hook(domain, "windows")
        # Transient depth exhausted: the visit runs from now on.
        assert not injector.hang_hook(domain, "windows")
        clean = next(
            k for k in KEYS if not injector.plan.fail_depth(FaultKind.HANG, k)
        )
        assert not injector.hang_hook(clean, "windows")
        assert injector.injected[FaultKind.HANG] == 2

    def test_hang_counts_attempts_per_scope(self):
        injector = _injector(FaultSpec(kind=FaultKind.HANG, rate=0.2, times=1))
        domain = _faulted_key(injector, FaultKind.HANG, KEYS)
        # One domain is struck on each OS independently ...
        struck = [injector.hang_hook(domain, os_name) for os_name in self.OSES]
        assert struck == [True] * 3
        assert not any(injector.hang_hook(domain, os_name) for os_name in self.OSES)
        # ... and without a scope (serve) attempts count per key alone.
        assert injector.hang_hook(domain)
        assert not injector.hang_hook(domain)
        assert injector.injected[FaultKind.HANG] == 4

    def test_slow_stalls_longest_duration_still_within_times(self):
        injector = _injector(
            FaultSpec(kind=FaultKind.SLOW, rate=1.0, times=1, duration=10_000),
            FaultSpec(kind=FaultKind.SLOW, rate=1.0, times=2, duration=3_000),
        )
        stalls = [injector.slow_hook("a.example", "linux") for _ in range(3)]
        assert stalls == [10_000.0, 3_000.0, 0.0]
        # Another OS has its own attempt counter.
        assert injector.slow_hook("a.example", "mac") == 10_000.0
        assert injector.injected[FaultKind.SLOW] == 3

    def test_slow_unselected_key_is_never_stalled(self):
        injector = _injector(
            FaultSpec(kind=FaultKind.SLOW, rate=0.2, duration=3_000)
        )
        domain = _faulted_key(injector, FaultKind.SLOW, KEYS)
        clean = next(
            k for k in KEYS if not injector.plan.fail_depth(FaultKind.SLOW, k)
        )
        assert all(injector.slow_hook(clean, "windows") == 0.0 for _ in range(3))
        assert FaultKind.SLOW not in injector.injected
        assert injector.slow_hook(domain, "windows") == 3_000.0
        assert injector.slow_hook(domain, "windows") == 0.0
        assert injector.injected[FaultKind.SLOW] == 1


class TestShardSeams:
    def _spec(self, kind, **overrides):
        fields = dict(kind=kind, rate=1.0, at_count=3, times=1)
        fields.update(overrides)
        return FaultSpec(**fields)

    def test_shard_crash_fires_at_exact_visit_and_generation(self):
        injector = _injector(self._spec(FaultKind.SHARD_CRASH))
        fires = [
            injector.shard_crash_hook("shard-0", 0, count)
            for count in range(1, 6)
        ]
        assert fires == [False, False, True, False, False]

    def test_shard_crash_respects_generation_budget(self):
        injector = _injector(self._spec(FaultKind.SHARD_CRASH, times=2))
        # Generations 0 and 1 crash; the third incarnation survives.
        assert injector.shard_crash_hook("shard-0", 0, 3)
        assert injector.shard_crash_hook("shard-0", 1, 3)
        assert not injector.shard_crash_hook("shard-0", 2, 3)

    def test_shard_stall_returns_duration_seconds(self):
        injector = _injector(
            self._spec(FaultKind.SHARD_STALL, duration=7)
        )
        assert injector.shard_stall_hook("shard-0", 0, 3) == 7.0
        assert injector.shard_stall_hook("shard-0", 0, 4) == 0.0

    def test_shard_draw_is_keyed_by_shard(self):
        # rate=0.5 must not mean "every shard": the plan's deterministic
        # draw selects a stable subset keyed by shard id.
        spec = self._spec(FaultKind.SHARD_CRASH, rate=0.5)
        plan = FaultPlan(seed="draw", faults=(spec,))
        draws = {
            key: plan.selects(spec, key)
            for key in (f"shard-{i}" for i in range(64))
        }
        assert any(draws.values()) and not all(draws.values())
        # Replaying the same plan gives the same subset.
        replay = FaultPlan(seed="draw", faults=(spec,))
        assert draws == {
            key: replay.selects(spec, key) for key in draws
        }


class TestNetlogSeam:
    def _document(self):
        events = [
            NetLogEvent(
                time=float(i),
                type=EventType.URL_REQUEST_START_JOB,
                source=NetLogSource(id=i + 1, type=SourceType.URL_REQUEST),
                phase=EventPhase.BEGIN,
                params={"url": "http://localhost/"},
            )
            for i in range(8)
        ]
        return dumps(events)

    def test_corruption_is_salvageable(self):
        # The injector's damage model matches what the salvage parser
        # recovers from: corrupt end-to-end, then re-parse non-strictly.
        injector = _injector(
            FaultSpec(kind=FaultKind.NETLOG_TRUNCATION, rate=0.5, duration=16)
        )
        document = self._document()
        clean = loads(document)
        key = _faulted_key(injector, FaultKind.NETLOG_TRUNCATION, KEYS)
        damaged = injector.corrupt_netlog(document, key)
        assert damaged != document
        assert "\x00" in damaged
        stats = ParseStats()
        salvaged = loads(damaged, strict=False, stats=stats)
        assert stats.truncated
        assert salvaged == clean[: len(salvaged)]

    def test_corruption_is_deterministic(self):
        injector = _injector(
            FaultSpec(kind=FaultKind.NETLOG_TRUNCATION, rate=0.5)
        )
        document = self._document()
        key = _faulted_key(injector, FaultKind.NETLOG_TRUNCATION, KEYS)
        other = _injector(
            FaultSpec(kind=FaultKind.NETLOG_TRUNCATION, rate=0.5)
        )
        assert injector.corrupt_netlog(document, key) == other.corrupt_netlog(
            document, key
        )

    def test_unscheduled_document_untouched(self):
        injector = _injector(
            FaultSpec(kind=FaultKind.NETLOG_TRUNCATION, rate=0.5)
        )
        document = self._document()
        clean_key = next(
            k for k in KEYS
            if not injector.plan.fail_depth(FaultKind.NETLOG_TRUNCATION, k)
        )
        assert injector.corrupt_netlog(document, clean_key) == document


class TestIntegrityFaultSeams:
    """The PR-3 corruption kinds: torn writes, silent bit rot, disk-full."""

    def _document(self, checksums=True):
        events = [
            NetLogEvent(
                time=float(i),
                type=EventType.URL_REQUEST_START_JOB,
                source=NetLogSource(id=i + 1, type=SourceType.URL_REQUEST),
                phase=EventPhase.BEGIN,
                params={"url": "http://localhost/"},
            )
            for i in range(8)
        ]
        return dumps(events, checksums=checksums)

    def test_torn_write_is_an_interior_nul_hole(self):
        injector = _injector(
            FaultSpec(kind=FaultKind.TORN_WRITE, rate=0.5, duration=32)
        )
        document = self._document()
        key = _faulted_key(injector, FaultKind.TORN_WRITE, KEYS)
        damaged = injector.corrupt_netlog(document, key)
        assert damaged != document
        assert len(damaged) == len(document)  # a hole, not a cut
        assert "\x00" * 32 in damaged
        assert not damaged.startswith("\x00") and not damaged.endswith("\x00")
        stats = ParseStats()
        loads(damaged, strict=False, stats=stats)
        assert stats.damaged

    def test_bit_flip_keeps_json_valid_but_fails_checksums(self):
        injector = _injector(FaultSpec(kind=FaultKind.BIT_FLIP, rate=0.5))
        document = self._document()
        key = _faulted_key(injector, FaultKind.BIT_FLIP, KEYS)
        damaged = injector.corrupt_netlog(document, key)
        assert damaged != document
        assert len(damaged) == len(document)
        assert sum(a != b for a, b in zip(document, damaged)) == 1
        import json as _json

        _json.loads(damaged)  # still syntactically perfect
        stats = ParseStats()
        loads(damaged, strict=False, stats=stats)
        # Only the end-to-end checksums can see this damage.
        assert stats.checksum_failures + stats.chain_breaks >= 1
        assert stats.first_divergence is not None

    def test_bit_flip_invisible_without_checksums(self):
        injector = _injector(FaultSpec(kind=FaultKind.BIT_FLIP, rate=0.5))
        document = self._document(checksums=False)
        key = _faulted_key(injector, FaultKind.BIT_FLIP, KEYS)
        stats = ParseStats()
        loads(injector.corrupt_netlog(document, key), strict=False, stats=stats)
        assert not stats.damaged  # the motivating gap checksums close

    def test_corruption_is_deterministic_per_key(self):
        spec_sets = [
            (FaultSpec(kind=FaultKind.TORN_WRITE, rate=0.5),),
            (FaultSpec(kind=FaultKind.BIT_FLIP, rate=0.5),),
        ]
        document = self._document()
        for specs in spec_sets:
            first = _injector(*specs)
            second = _injector(*specs)
            key = _faulted_key(first, specs[0].kind, KEYS)
            assert first.corrupt_netlog(document, key) == second.corrupt_netlog(
                document, key
            )

    def test_disk_full_raises_then_recovers(self):
        injector = _injector(
            FaultSpec(kind=FaultKind.DISK_FULL, rate=0.2, times=2)
        )
        key = _faulted_key(injector, FaultKind.DISK_FULL, KEYS)
        for _ in range(2):
            with pytest.raises(InjectedDiskFullError):
                injector.archive_write_hook(key)
        injector.archive_write_hook(key)  # transient depth exhausted
        assert injector.injected[FaultKind.DISK_FULL] == 2

    def test_disk_full_is_an_oserror(self):
        # Retry loops catch OSError; the injected kind must be caught too.
        assert issubclass(InjectedDiskFullError, OSError)

    def test_plan_roundtrips_new_kinds(self):
        plan = FaultPlan(
            seed="s",
            faults=(
                FaultSpec(kind=FaultKind.TORN_WRITE, rate=0.1, duration=64),
                FaultSpec(kind=FaultKind.BIT_FLIP, rate=0.1),
                FaultSpec(kind=FaultKind.DISK_FULL, rate=0.1, times=3),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan


class TestEmptyPlan:
    def test_noop_at_every_seam(self):
        injector = FaultInjector()
        assert injector.dns_hook("example.com") is None
        assert injector.connect_hook("example.com", 443) is None
        assert injector.connectivity_hook() is False
        assert injector.corrupt_netlog("{}", "k") == "{}"
        injector.storage_hook("k")
        injector.archive_write_hook("k")
        assert injector.hang_hook("example.com", "windows") is False
        assert injector.slow_hook("example.com", "windows") == 0.0
        injector.on_visit()
        assert injector.injected_total() == 0


class TestServeSeams:
    def test_slow_client_hook_returns_dwell_seconds(self):
        injector = _injector(
            FaultSpec(kind=FaultKind.SLOW_CLIENT, rate=1.0, duration=200)
        )
        assert injector.slow_client_hook("client-a") == 0.2
        assert injector.injected[FaultKind.SLOW_CLIENT] == 1
        quiet = _injector()
        assert quiet.slow_client_hook("client-a") == 0.0

    def test_slow_client_default_dwell(self):
        injector = _injector(FaultSpec(kind=FaultKind.SLOW_CLIENT, rate=1.0))
        assert injector.slow_client_hook("client-a") == 0.05

    def test_torn_upload_cut_is_stable_and_transient(self):
        spec = FaultSpec(kind=FaultKind.TORN_UPLOAD, rate=1.0, times=2)
        body = b"x" * 1000
        first = _injector(spec).torn_upload_hook(body, "client-a")
        second = _injector(spec).torn_upload_hook(body, "client-a")
        assert first == second
        assert 500 <= len(first) < 1000
        injector = _injector(spec)
        assert len(injector.torn_upload_hook(body, "client-a")) < 1000
        assert len(injector.torn_upload_hook(body, "client-a")) < 1000
        # Depth exhausted: the third upload arrives whole.
        assert injector.torn_upload_hook(body, "client-a") == body

    def test_worker_crash_hook_strikes_then_recovers(self):
        from repro.faults import InjectedWorkerCrashError

        injector = _injector(
            FaultSpec(kind=FaultKind.WORKER_CRASH, rate=1.0, times=1)
        )
        with pytest.raises(InjectedWorkerCrashError):
            injector.worker_crash_hook("sha256:aa")
        injector.worker_crash_hook("sha256:aa")  # recovered
        assert injector.injected[FaultKind.WORKER_CRASH] == 1

    def test_journal_write_hook_raises_disk_full(self):
        from repro.faults import InjectedDiskFullError

        injector = _injector(
            FaultSpec(kind=FaultKind.JOURNAL_DISK_FULL, rate=1.0, times=1)
        )
        with pytest.raises(InjectedDiskFullError):
            injector.journal_write_hook("job:j1:submit")
        injector.journal_write_hook("job:j1:submit")


class TestBinaryNetlogSeam:
    """The same fault plan applied to ``nlbin-v1`` byte documents.

    ``corrupt_netlog`` is polymorphic: a plan damages the same visit
    keys whichever capture format the campaign ran with, and each fault
    kind has the analogous physical shape in both encodings.
    """

    def _document(self, n=8, checksums=False):
        events = [
            NetLogEvent(
                time=float(i),
                type=EventType.URL_REQUEST_START_JOB,
                source=NetLogSource(id=i + 1, type=SourceType.URL_REQUEST),
                phase=EventPhase.BEGIN,
                params={"url": "http://localhost/"},
            )
            for i in range(n)
        ]
        return dumps_binary(events, checksums=checksums)

    def test_truncation_is_salvageable(self):
        injector = _injector(
            FaultSpec(kind=FaultKind.NETLOG_TRUNCATION, rate=0.5, duration=16)
        )
        document = self._document()
        clean = loads(document)
        key = _faulted_key(injector, FaultKind.NETLOG_TRUNCATION, KEYS)
        damaged = injector.corrupt_netlog(document, key)
        assert isinstance(damaged, bytes)
        assert damaged != document
        assert damaged.endswith(b"\x00" * 16)  # preallocated wound
        stats = ParseStats()
        salvaged = loads(damaged, strict=False, stats=stats)
        assert stats.truncated
        assert salvaged == clean[: len(salvaged)]

    def test_torn_write_is_an_interior_nul_hole(self):
        injector = _injector(
            FaultSpec(kind=FaultKind.TORN_WRITE, rate=0.5, duration=32)
        )
        # Large enough that the 30-70% hole window clears the constants
        # header and lands in the measurement payload.
        document = self._document(n=48)
        clean = loads(document)
        key = _faulted_key(injector, FaultKind.TORN_WRITE, KEYS)
        damaged = injector.corrupt_netlog(document, key)
        assert damaged != document
        assert len(damaged) == len(document)  # a hole, not a cut
        assert b"\x00" * 32 in damaged
        assert not damaged.startswith(b"\x00") and not damaged.endswith(b"\x00")
        stats = ParseStats()
        salvaged = loads(damaged, strict=False, stats=stats)
        assert stats.damaged
        # Same sticky-EOF semantics as the JSON scanner: records before
        # the hole survive, the untrustworthy tail is abandoned.
        assert salvaged == clean[: len(salvaged)]

    def test_bit_flip_fails_frame_crc(self):
        injector = _injector(FaultSpec(kind=FaultKind.BIT_FLIP, rate=0.5))
        document = self._document(checksums=True)
        key = _faulted_key(injector, FaultKind.BIT_FLIP, KEYS)
        damaged = injector.corrupt_netlog(document, key)
        assert damaged != document
        assert len(damaged) == len(document)
        assert sum(a != b for a, b in zip(document, damaged)) == 1
        stats = ParseStats()
        salvaged = loads(damaged, strict=False, stats=stats)
        assert stats.checksum_failures == 1  # the lying record is dropped
        assert stats.first_divergence is not None
        assert len(salvaged) == 7

    def test_bit_flip_caught_even_without_checksums(self):
        # Unlike JSON — where rot in a plain document is invisible — the
        # binary framing always carries per-frame CRCs, so the flip still
        # drops the damaged record; it just cannot be attributed to the
        # end-to-end integrity layer.
        injector = _injector(FaultSpec(kind=FaultKind.BIT_FLIP, rate=0.5))
        document = self._document(checksums=False)
        key = _faulted_key(injector, FaultKind.BIT_FLIP, KEYS)
        stats = ParseStats()
        salvaged = loads(
            injector.corrupt_netlog(document, key), strict=False, stats=stats
        )
        assert stats.dropped_malformed == 1
        assert stats.checksum_failures == 0
        assert len(salvaged) == 7

    def test_same_plan_damages_both_formats(self):
        spec = FaultSpec(kind=FaultKind.NETLOG_TRUNCATION, rate=0.5)
        text_injector = _injector(spec)
        bytes_injector = _injector(spec)
        key = _faulted_key(text_injector, FaultKind.NETLOG_TRUNCATION, KEYS)
        text = TestNetlogSeam()._document()
        data = self._document()
        damaged_text = text_injector.corrupt_netlog(text, key)
        damaged_bytes = bytes_injector.corrupt_netlog(data, key)
        assert isinstance(damaged_text, str) and damaged_text != text
        assert isinstance(damaged_bytes, bytes) and damaged_bytes != data

    def test_corruption_is_deterministic_per_key(self):
        spec_sets = [
            (FaultSpec(kind=FaultKind.NETLOG_TRUNCATION, rate=0.5),),
            (FaultSpec(kind=FaultKind.TORN_WRITE, rate=0.5),),
            (FaultSpec(kind=FaultKind.BIT_FLIP, rate=0.5),),
        ]
        document = self._document(checksums=True)
        for specs in spec_sets:
            first = _injector(*specs)
            second = _injector(*specs)
            key = _faulted_key(first, specs[0].kind, KEYS)
            assert first.corrupt_netlog(document, key) == second.corrupt_netlog(
                document, key
            )

    def test_unscheduled_document_untouched(self):
        injector = _injector(
            FaultSpec(kind=FaultKind.NETLOG_TRUNCATION, rate=0.5),
            FaultSpec(kind=FaultKind.BIT_FLIP, rate=0.5),
        )
        document = self._document()
        clean_key = next(
            k for k in KEYS
            if not injector.plan.fail_depth(FaultKind.NETLOG_TRUNCATION, k)
            and not injector.plan.fail_depth(FaultKind.BIT_FLIP, k)
        )
        assert injector.corrupt_netlog(document, clean_key) == document
