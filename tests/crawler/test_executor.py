"""Supervised executor tests: determinism, deadlines, quarantine.

Fast-by-construction: small populations and short wall deadlines.  The
chaos bench covers the same properties at scale.
"""

import hashlib
import threading
import time

import pytest

from repro.browser.errors import NetError
from repro.crawler.campaign import Campaign, finding_fingerprint
from repro.crawler.executor import ExecutorConfig, SupervisedExecutor
from repro.crawler.retry import RetryPolicy
from repro.faults import FaultKind, FaultPlan, FaultSpec, InjectedCrashError
from repro.storage.db import TelemetryStore
from repro.storage.integrity import campaign_digest
from repro.web.population import CrawlPopulation, build_top_population
from repro.web.website import Website

SCALE = 0.002

#: Short wall deadlines keep hang rescues cheap in tests.
FAST = dict(
    wall_deadline_s=0.1,
    quarantine_after=3,
    handle_signals=False,
)


def _population(scale=SCALE):
    return build_top_population(2020, scale=scale)


def _tiny_population(size=4):
    """A few always-successful sites — hang tests pay real wall time per
    rescue, so they run on the smallest population that still proves
    the behaviour."""
    return CrawlPopulation(
        name="tiny",
        websites=[
            Website(domain=f"site-{i:02}.example", rank=i + 1)
            for i in range(size)
        ],
        oses=("windows", "linux", "mac"),
    )


def _table1(result):
    return {
        os_name: (stats.successes, stats.failures, dict(stats.errors or {}))
        for os_name, stats in result.stats.items()
    }


def _fingerprints(result):
    return [finding_fingerprint(finding) for finding in result.findings]


def _config(workers, **overrides):
    return ExecutorConfig(workers=workers, **{**FAST, **overrides})


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ExecutorConfig(workers=0)
        with pytest.raises(ValueError):
            ExecutorConfig(visit_deadline_ms=0)
        with pytest.raises(ValueError):
            ExecutorConfig(wall_deadline_s=0)
        with pytest.raises(ValueError):
            ExecutorConfig(quarantine_after=0)

    def test_deadline_must_exceed_monitor_window(self):
        campaign = Campaign(
            executor=_config(1, visit_deadline_ms=10_000.0)
        )
        with pytest.raises(ValueError, match="monitor window"):
            campaign.run(_population(scale=0.001))


class TestDeterminism:
    def test_supervised_matches_sequential_without_faults(self):
        population = _population()
        sequential = Campaign().run(population)
        supervised = Campaign(executor=_config(1)).run(population)
        assert _table1(supervised) == _table1(sequential)
        assert _fingerprints(supervised) == _fingerprints(sequential)

    def test_results_invariant_under_worker_count(self):
        population = _population()
        results = [
            Campaign(executor=_config(workers)).run(population)
            for workers in (1, 3, 8)
        ]
        for other in results[1:]:
            assert _table1(other) == _table1(results[0])
            assert _fingerprints(other) == _fingerprints(results[0])


class TestHangSupervision:
    def _plan(self, times):
        # rate=1.0 selects every site; `times` is the transient depth.
        return FaultPlan(
            seed="hang-test",
            faults=(FaultSpec(kind=FaultKind.HANG, rate=1.0, times=times),),
        )

    def test_transient_hang_recovers_with_attempt_accounting(self):
        population = _tiny_population()
        campaign = Campaign(
            fault_plan=self._plan(times=1), executor=_config(2)
        )
        result = campaign.run(population)
        stats = campaign.last_executor.stats
        # Every visit hung once, was cancelled, and recovered on retry.
        assert stats.deadline_cancelled == len(population) * 3
        assert stats.reattempts == len(population) * 3
        assert stats.quarantined == 0
        for os_stats in result.stats.values():
            assert os_stats.failures == 0
            # The absorbed hang shows up in the attempt accounting.
            assert os_stats.total_attempts == len(population) * 2
            assert os_stats.retried == len(population)

    def test_hang_campaign_starts_no_thread(self, monkeypatch):
        started = []
        original = threading.Thread.start

        def recording(thread):
            started.append(thread.name)
            return original(thread)

        monkeypatch.setattr(threading.Thread, "start", recording)
        population = _tiny_population()
        campaign = Campaign(fault_plan=self._plan(times=1), executor=_config(1))
        campaign.run(population)
        assert campaign.last_executor.stats.deadline_cancelled == len(population) * 3
        assert started == []

    def test_each_hang_ends_just_past_its_wall_deadline(self):
        population = _tiny_population()
        campaign = Campaign(fault_plan=self._plan(times=1), executor=_config(1))
        started = time.monotonic()
        campaign.run(population)
        elapsed = time.monotonic() - started
        stats = campaign.last_executor.stats
        deadline = FAST["wall_deadline_s"]
        # Every hang held the run for its whole wall deadline, and none
        # ran more than scheduler jitter past it.
        assert elapsed >= stats.deadline_cancelled * deadline
        assert 0.0 <= stats.max_overshoot_s < deadline

    def test_deterministic_hang_is_quarantined_exactly_once(self):
        population = _tiny_population()
        store = TelemetryStore(serialized=True)
        campaign = Campaign(
            fault_plan=self._plan(times=10),  # deeper than quarantine_after
            store=store,
            executor=_config(2),
        )
        result = campaign.run(population)
        stats = campaign.last_executor.stats
        assert stats.quarantined == len(population) * 3
        for os_stats in result.stats.values():
            assert os_stats.successes == 0
            assert os_stats.failures == len(population)
            assert os_stats.errors == {"VISIT_DEADLINE": len(population)}
        letters = store.dead_letters(population.name)
        assert len(letters) == len(population) * 3
        assert all(l.failures == FAST["quarantine_after"] for l in letters)
        assert all(l.error == int(NetError.ERR_VISIT_DEADLINE) for l in letters)
        # The stored visit rows carry the same Table 1 semantics.
        rows = store.visits(population.name)
        assert all(
            not row.success and row.error == int(NetError.ERR_VISIT_DEADLINE)
            for row in rows
        )

    def test_requeued_dead_letters_are_reattempted_on_resume(self):
        population = _tiny_population()
        store = TelemetryStore(serialized=True)
        campaign = Campaign(
            fault_plan=self._plan(times=10), store=store, executor=_config(2)
        )
        campaign.run(population)
        assert store.dead_letters(population.name)

        requeued = store.requeue_dead_letters(population.name)
        assert requeued == len(population) * 3
        assert store.dead_letters(population.name) == []
        # With the hang gone, the resumed run re-attempts exactly the
        # re-queued visits and they all succeed.
        healthy = Campaign(store=store, executor=_config(2))
        result = healthy.run(population, resume=True)
        for os_stats in result.stats.values():
            assert os_stats.failures == 0
        assert healthy.last_executor.stats.dispatched == requeued


class TestSlowSupervision:
    def _plan(self, duration):
        return FaultPlan(
            seed="slow-test",
            faults=(
                FaultSpec(kind=FaultKind.SLOW, rate=1.0, duration=duration),
            ),
        )

    def test_slow_within_budget_is_ridden_out(self):
        population = _tiny_population()
        baseline = Campaign().run(population)
        campaign = Campaign(
            fault_plan=self._plan(duration=3_000), executor=_config(2)
        )
        result = campaign.run(population)
        stats = campaign.last_executor.stats
        assert stats.slow_ridden_out == len(population) * 3
        assert stats.deadline_exceeded == 0
        # Riding out a stall costs simulated time only — results match.
        assert _table1(result) == _table1(baseline)
        assert _fingerprints(result) == _fingerprints(baseline)

    def test_slow_past_budget_is_cancelled_then_recovers(self):
        population = _tiny_population()
        baseline = Campaign().run(population)
        # 20s window + 10s stall > 25s deadline; single-shot (times=1),
        # so the supervisor's re-attempt completes.
        campaign = Campaign(
            fault_plan=self._plan(duration=10_000), executor=_config(2)
        )
        result = campaign.run(population)
        stats = campaign.last_executor.stats
        assert stats.deadline_exceeded == len(population) * 3
        assert stats.reattempts == len(population) * 3
        assert stats.quarantined == 0
        assert _fingerprints(result) == _fingerprints(baseline)


class TestPassPlumbing:
    def test_run_pass_merges_in_submission_order(self):
        population = _tiny_population()
        config = _config(4)
        executor = SupervisedExecutor(config)
        from repro.crawler.crawl import Crawler
        from repro.crawler.vm import OSEnvironment

        environment = OSEnvironment.for_os("windows")
        with executor.supervise():
            outcomes = list(executor.run_pass(
                "windows",
                population.websites,
                crawler_factory=lambda scoped: Crawler(
                    environment, injector=scoped
                ),
            ))
        assert [o.task.index for o in outcomes] == list(
            range(1, len(population) + 1)
        )
        assert [o.task.website.domain for o in outcomes] == [
            w.domain for w in population.websites
        ]

    def test_chaos_plan_interacts_deterministically_with_supervision(self):
        population = _population()
        plan = FaultPlan(
            seed="mixed-chaos",
            faults=(
                FaultSpec(kind=FaultKind.DNS, rate=0.10, times=2),
                FaultSpec(kind=FaultKind.HANG, rate=0.03, times=1),
                FaultSpec(kind=FaultKind.SLOW, rate=0.05, duration=2_000),
            ),
        )
        policy = RetryPolicy(max_attempts=4)
        runs = [
            Campaign(
                retry_policy=policy, fault_plan=plan, executor=_config(workers)
            ).run(population)
            for workers in (1, 6)
        ]
        assert _table1(runs[0]) == _table1(runs[1])
        assert _fingerprints(runs[0]) == _fingerprints(runs[1])


# ---------------------------------------------------------------------------
# One execution path: every campaign runs the same supervised loop
# ---------------------------------------------------------------------------

#: The chaos bench's fault kinds: every seam a campaign's crawl and store
#: expose, all transient or bounded.
TRANSIENT_FAULTS = (
    FaultSpec(kind=FaultKind.DNS, rate=0.05, times=2),
    FaultSpec(kind=FaultKind.CONNECTION_RESET, rate=0.03),
    FaultSpec(kind=FaultKind.TLS, rate=0.02),
    FaultSpec(kind=FaultKind.OUTAGE, at_count=25, duration=2),
    FaultSpec(kind=FaultKind.STORAGE_WRITE, rate=0.02),
)
#: Those plus the executor-driven kinds.  Hang rates stay low because
#: visits run one at a time, so every injected hang costs one wall
#: deadline: this seed hangs one site once and makes one a deterministic
#: failer, on every OS.
MIXED_PLAN = FaultPlan(
    seed="one-path",
    faults=TRANSIENT_FAULTS
    + (
        FaultSpec(kind=FaultKind.HANG, rate=0.01, times=1),
        FaultSpec(kind=FaultKind.HANG, rate=0.005, times=10),
        FaultSpec(kind=FaultKind.SLOW, rate=0.03, duration=3_000),
        FaultSpec(kind=FaultKind.SLOW, rate=0.02, duration=10_000),
    ),
)


def _run_observed(population, plan, executor=None, store=None, resume=False):
    """One campaign run and everything two equivalent runs must share."""
    store = store if store is not None else TelemetryStore()
    campaign = Campaign(
        store=store,
        retry_policy=RetryPolicy(max_attempts=4),
        fault_plan=plan,
        check_connectivity=True,
        executor=executor,
    )
    result = campaign.run(population, resume=resume)
    return {
        "table1": _full_table1(result),
        "fingerprints": _fingerprints(result),
        "digest": campaign_digest(store, population.name),
        "dead_letters": store.dead_letters(population.name),
        "injected": dict(campaign.last_injector.injected),
    }


def _full_table1(result):
    """Table 1 with its attempt, retry and backoff columns."""
    return {
        os_name: (
            stats.successes,
            stats.failures,
            dict(stats.errors or {}),
            stats.skipped,
            stats.total_attempts,
            stats.retried,
            stats.recovered,
            stats.backoff_ms,
        )
        for os_name, stats in result.stats.items()
    }


class TestOneExecutionPath:
    """The differential anchor: any worker count, and a campaign built
    without an ExecutorConfig, run the same visits with the same faults."""

    def test_worker_alias_and_plain_campaign_agree(self):
        population = _population()
        default = _run_observed(population, MIXED_PLAN, _config(1))
        aliased = _run_observed(population, MIXED_PLAN, _config(4))
        assert aliased == default
        # Every fault shape fired, and the deterministic failer was
        # dead-lettered once per OS.
        assert set(default["injected"]) == {
            FaultKind.DNS, FaultKind.CONNECTION_RESET, FaultKind.TLS,
            FaultKind.OUTAGE, FaultKind.STORAGE_WRITE, FaultKind.HANG,
            FaultKind.SLOW,
        }
        assert len(default["dead_letters"]) == len(population.oses)

        # Without hang/slow, a campaign built without an ExecutorConfig
        # is the same run as one built with it.
        sequential_plan = MIXED_PLAN.without(FaultKind.HANG, FaultKind.SLOW)
        plain = _run_observed(population, sequential_plan)
        configured = _run_observed(population, sequential_plan, _config(1))
        assert plain == configured
        assert plain["dead_letters"] == []

    def test_crash_then_resume_matches_uninterrupted(self):
        population = _population()
        uninterrupted = _run_observed(population, MIXED_PLAN, _config(1))

        crash_at = len(population) + 17  # partway into the second pass
        crashing = FaultPlan(
            seed=MIXED_PLAN.seed,
            faults=MIXED_PLAN.faults
            + (FaultSpec(kind=FaultKind.CRASH, at_count=crash_at),),
        )
        store = TelemetryStore()
        with pytest.raises(InjectedCrashError):
            _run_observed(population, crashing, _config(1), store=store)
        # The crashed visit left no trace.
        assert len(store.visits(population.name)) == crash_at - 1

        resumed = _run_observed(
            population, MIXED_PLAN, _config(1), store=store, resume=True
        )
        for key in ("fingerprints", "digest", "dead_letters"):
            assert resumed[key] == uninterrupted[key], key
        # Restored rows carry no backoff, and the resumed visits see the
        # fault counters afresh, so compare Table 1's outcome columns.
        assert {
            os_name: row[:4] for os_name, row in resumed["table1"].items()
        } == {
            os_name: row[:4] for os_name, row in uninterrupted["table1"].items()
        }


#: The chaos bench's CHAOS_PLAN (benchmarks/test_ablation_fault_tolerance.py).
CHAOS_PLAN = FaultPlan(seed="chaos-bench", faults=TRANSIENT_FAULTS)

_NXDOMAIN_18 = {"NAME_NOT_RESOLVED": 18}
_NXDOMAIN_17 = {"NAME_NOT_RESOLVED": 17}


class TestSerialSemanticsPinned:
    """The chaos bench's plan run serially, and its crash and resume,
    reproduce recorded results exactly (scale 0.002, crash at visit 250):
    the serial fault semantics are pinned, so any change to them shows
    here."""

    DIGEST = "7957edb26036d4b91e3a83d40e339065bb416b25f25fe97bdfe9af6f47cd51cb"
    FINGERPRINTS_SHA256 = (
        "2fddae960b41e607d05672f9500d009d71f9a857a739643c531585eb6d62864a"
    )

    @staticmethod
    def _campaign(plan, store):
        return Campaign(
            retry_policy=RetryPolicy(max_attempts=4),
            fault_plan=plan,
            check_connectivity=True,
            store=store,
            checkpoint_every=50,
        )

    @staticmethod
    def _injected(campaign):
        return {
            kind.value: count
            for kind, count in campaign.last_injector.injected.items()
        }

    @staticmethod
    def _fingerprints_sha256(result):
        return hashlib.sha256(
            repr(_fingerprints(result)).encode()
        ).hexdigest()

    def test_chaos_plan_and_crash_resume_match_recorded_results(self):
        population = _population()
        store = TelemetryStore()
        campaign = self._campaign(CHAOS_PLAN, store)
        result = campaign.run(population)
        assert campaign_digest(store, population.name) == self.DIGEST
        assert self._fingerprints_sha256(result) == self.FINGERPRINTS_SHA256
        assert _full_table1(result) == {
            "windows": (182, 18, _NXDOMAIN_18, 0, 279, 35, 17, 90715.57500000003),
            "linux": (183, 17, _NXDOMAIN_17, 0, 253, 18, 1, 67228.27500000001),
            "mac": (182, 18, _NXDOMAIN_18, 0, 254, 18, 0, 70037.09999999999),
        }
        assert self._injected(campaign) == {
            "dns": 18, "outage": 2, "reset": 14, "storage-write": 11, "tls": 8,
        }

        crash_plan = FaultPlan(
            seed=CHAOS_PLAN.seed,
            faults=CHAOS_PLAN.faults
            + (FaultSpec(kind=FaultKind.CRASH, at_count=250),),
        )
        store = TelemetryStore()
        crashing = self._campaign(crash_plan, store)
        with pytest.raises(InjectedCrashError):
            crashing.run(population)
        assert len(store.visits(population.name)) == 249
        assert self._injected(crashing) == {
            "crash": 1, "dns": 16, "outage": 2, "reset": 14,
            "storage-write": 6, "tls": 7,
        }

        resuming = self._campaign(CHAOS_PLAN, store)
        resumed = resuming.run(population, resume=True)
        assert campaign_digest(store, population.name) == self.DIGEST
        assert self._fingerprints_sha256(resumed) == self.FINGERPRINTS_SHA256
        assert _full_table1(resumed) == {
            "windows": (182, 18, _NXDOMAIN_18, 0, 279, 35, 17, 0.0),
            "linux": (183, 17, _NXDOMAIN_17, 0, 265, 27, 10, 66203.3),
            "mac": (182, 18, _NXDOMAIN_18, 0, 266, 25, 7, 80107.42499999999),
        }
        assert self._injected(resuming) == {
            "dns": 18, "outage": 2, "reset": 11, "storage-write": 5, "tls": 7,
        }


class TestDerivedBudget:
    """The default simulated budget follows the monitor window (+5 s)."""

    WINDOW_MS = 30_000

    def _slow_plan(self, duration):
        return FaultPlan(
            seed="budget-test",
            faults=(FaultSpec(kind=FaultKind.SLOW, rate=1.0, duration=duration),),
        )

    def test_serial_campaign_runs_at_a_longer_window(self):
        Campaign(monitor_window_ms=self.WINDOW_MS).run(_population(scale=0.001))

    def test_stall_within_derived_budget_is_ridden_out(self):
        population = _tiny_population()
        baseline = Campaign(monitor_window_ms=self.WINDOW_MS).run(population)
        campaign = Campaign(
            monitor_window_ms=self.WINDOW_MS, fault_plan=self._slow_plan(4_000)
        )
        result = campaign.run(population)
        stats = campaign.last_executor.stats
        assert stats.slow_ridden_out == len(population) * 3
        assert stats.deadline_exceeded == 0
        assert _fingerprints(result) == _fingerprints(baseline)

    def test_stall_past_derived_budget_is_cancelled_then_recovers(self):
        population = _tiny_population()
        baseline = Campaign(monitor_window_ms=self.WINDOW_MS).run(population)
        campaign = Campaign(
            monitor_window_ms=self.WINDOW_MS, fault_plan=self._slow_plan(6_000)
        )
        result = campaign.run(population)
        stats = campaign.last_executor.stats
        assert stats.deadline_exceeded == len(population) * 3
        assert stats.reattempts == len(population) * 3
        assert stats.quarantined == 0
        assert _table1(result) == _table1(baseline)
        assert _fingerprints(result) == _fingerprints(baseline)

    @pytest.mark.parametrize("deadline", [20_000.0, 30_000.0])
    def test_explicit_deadline_at_or_below_window_raises(self, deadline):
        campaign = Campaign(
            monitor_window_ms=self.WINDOW_MS,
            executor=ExecutorConfig(visit_deadline_ms=deadline),
        )
        with pytest.raises(ValueError, match="monitor window"):
            campaign.run(_tiny_population())
