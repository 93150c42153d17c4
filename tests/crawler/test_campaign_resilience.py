"""Tests for campaign resilience: chaos invariance, crash/resume, storage
write faults, and the persistence of connectivity skips."""

import pytest

from repro.crawler.campaign import Campaign, finding_fingerprint
from repro.crawler.retry import RetryPolicy
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec, InjectedCrashError
from repro.storage.db import TelemetryStore
from repro.web.population import build_top_population

SCALE = 0.002

CHAOS_PLAN = FaultPlan(
    seed="campaign-test",
    faults=(
        FaultSpec(kind=FaultKind.DNS, rate=0.10, times=2),
        FaultSpec(kind=FaultKind.CONNECTION_RESET, rate=0.03),
    ),
)


def _population():
    return build_top_population(2020, scale=SCALE)


def _outcomes(result):
    """Table 1's outcome columns per OS: what a retried fault must not move."""
    return {
        os_name: (stats.successes, stats.failures, dict(stats.errors or {}))
        for os_name, stats in result.stats.items()
    }


def _table1(result):
    """Every CrawlStats field the store keeps, per OS: what a replay of
    stored rows must reproduce from the accounting done live."""
    return {
        os_name: (
            stats.successes,
            stats.failures,
            dict(stats.errors or {}),
            stats.skipped,
            stats.total_attempts,
            stats.retried,
            stats.recovered,
        )
        for os_name, stats in result.stats.items()
    }


def _fingerprints(result):
    return [finding_fingerprint(finding) for finding in result.findings]


class TestChaosInvariance:
    def test_retried_faults_leave_no_trace(self):
        population = _population()
        baseline = Campaign().run(population)
        campaign = Campaign(
            retry_policy=RetryPolicy(max_attempts=4), fault_plan=CHAOS_PLAN
        )
        chaotic = campaign.run(population)
        assert campaign.last_injector is not None
        assert campaign.last_injector.injected_total() > 0
        assert _outcomes(chaotic) == _outcomes(baseline)
        assert _fingerprints(chaotic) == _fingerprints(baseline)

    def test_without_retries_faults_do_surface(self):
        population = _population()
        baseline = Campaign().run(population)
        chaotic = Campaign(fault_plan=CHAOS_PLAN).run(population)
        assert _outcomes(chaotic) != _outcomes(baseline)


class TestCrashResume:
    def _crash_plan(self, at_count):
        return FaultPlan(
            seed=CHAOS_PLAN.seed,
            faults=CHAOS_PLAN.faults
            + (FaultSpec(kind=FaultKind.CRASH, at_count=at_count),),
        )

    def test_resume_requires_store(self):
        with pytest.raises(ValueError):
            Campaign().run(_population(), resume=True)

    def test_crash_then_resume_matches_uninterrupted(self):
        population = _population()
        policy = RetryPolicy(max_attempts=4)
        uninterrupted = Campaign(
            retry_policy=policy, fault_plan=CHAOS_PLAN
        ).run(population)

        crash_at = len(population) + 5  # partway into the second OS pass
        store = TelemetryStore()
        with pytest.raises(InjectedCrashError):
            Campaign(
                retry_policy=policy,
                fault_plan=self._crash_plan(crash_at),
                store=store,
                checkpoint_every=10,
            ).run(population)
        persisted = len(store.visits(population.name))
        # The crashed visit itself left no trace.
        assert persisted == crash_at - 1

        resumed = Campaign(
            retry_policy=policy, fault_plan=CHAOS_PLAN, store=store
        ).run(population, resume=True)
        assert _outcomes(resumed) == _outcomes(uninterrupted)
        assert _fingerprints(resumed) == _fingerprints(uninterrupted)
        # Nothing was crawled twice: one row per (site, OS).
        assert len(store.visits(population.name)) == len(population) * 3
        # Restored and crawled rows alike replay to the accounting the
        # resumed run did live.
        replayed = Campaign(store=store).run(population, resume=True)
        assert _table1(replayed) == _table1(resumed)
        assert _fingerprints(replayed) == _fingerprints(resumed)

    def test_resume_of_complete_run_recrawls_nothing(self):
        population = _population()
        store = TelemetryStore()
        first = Campaign(store=store).run(population)
        campaign = Campaign(store=store, fault_plan=CHAOS_PLAN)
        resumed = campaign.run(population, resume=True)
        # Everything restored from the store; the injector never fired.
        assert campaign.last_injector is not None
        assert campaign.last_injector.injected_total() == 0
        assert _table1(resumed) == _table1(first)
        assert _fingerprints(resumed) == _fingerprints(first)

    def test_resume_replays_retry_accounting(self):
        # Every attempt, retry and recovery a chaotic run counted live
        # comes back from its stored rows alone.
        population = _population()
        store = TelemetryStore()
        first = Campaign(
            store=store,
            retry_policy=RetryPolicy(max_attempts=4),
            fault_plan=CHAOS_PLAN,
        ).run(population)
        assert all(s.retried and s.recovered for s in first.stats.values())
        resumed = Campaign(store=store).run(population, resume=True)
        assert _table1(resumed) == _table1(first)
        assert _fingerprints(resumed) == _fingerprints(first)


class TestStorageWriteFaults:
    def _plan(self, times=1):
        return FaultPlan(
            seed="storage-test",
            faults=(
                FaultSpec(kind=FaultKind.STORAGE_WRITE, rate=0.2, times=times),
            ),
        )

    def test_transient_write_faults_retried_away(self):
        population = _population()
        store = TelemetryStore()
        campaign = Campaign(
            store=store,
            retry_policy=RetryPolicy(max_attempts=4),
            fault_plan=self._plan(),
        )
        result = campaign.run(population)
        assert campaign.last_injector is not None
        assert campaign.last_injector.injected[FaultKind.STORAGE_WRITE] > 0
        # Every row still landed despite the injected write failures.
        assert len(store.visits(population.name)) == len(population) * 3
        assert _outcomes(result) == _outcomes(Campaign().run(population))

    def test_write_fault_beyond_budget_propagates(self):
        population = _population()
        campaign = Campaign(
            store=TelemetryStore(), fault_plan=self._plan(times=5)
        )
        from repro.faults import StorageWriteError

        with pytest.raises(StorageWriteError):
            campaign.run(population)


class TestSkippedPersistence:
    def test_connectivity_skips_stored_as_skips(self):
        # An unbounded outage with no retry budget: every visit is skipped,
        # and the stored rows say so instead of misreporting failures.
        population = build_top_population(2020, scale=0.001)
        injector = FaultInjector(
            plan=FaultPlan(
                seed="skip-test",
                faults=(
                    FaultSpec(kind=FaultKind.OUTAGE, at_count=1, duration=10**6),
                ),
            )
        )
        store = TelemetryStore()
        campaign = Campaign(
            store=store, injector=injector, check_connectivity=True
        )
        result = campaign.run(population)
        rows = store.visits(population.name)
        assert rows and all(row.skipped for row in rows)
        assert all(not row.success for row in rows)
        for os_name, stats in result.stats.items():
            assert stats.skipped == len(population)
            assert stats.successes == 0 and stats.failures == 0
        # Table 1's success/failure counts exclude skipped rows.
        counts = store.success_counts(population.name)
        assert all(counts.get(os, (0, 0)) == (0, 0) for os in result.stats)
        # A resume replays the stored skips as skips.
        resumed = Campaign(store=store).run(population, resume=True)
        assert _table1(resumed) == _table1(result)
