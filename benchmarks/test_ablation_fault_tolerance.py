"""Chaos bench: injected faults vs. the resilient crawl pipeline.

The paper attributes every failed visit to the *website* (Table 1), which
is only honest if measurement-side transients are retried away first.
This bench proves the pipeline earns that attribution: a seeded fault
plan injects resolver failures, connection resets, TLS handshake errors,
a bounded uplink outage and storage write faults into a full multi-OS
campaign, and the results — Table 1 success counts and the set of
locally-active sites (Table 5's input) — must be *identical* to a
fault-free run.  A second campaign is crash-killed mid-run and resumed
from its checkpoint database; the merged result must again be identical.
"""

import pytest

from repro.analysis import tables
from repro.crawler.campaign import Campaign, finding_fingerprint
from repro.crawler.executor import ExecutorConfig
from repro.crawler.retry import RetryPolicy
from repro.faults import FaultKind, FaultPlan, FaultSpec, InjectedCrashError
from repro.storage.db import TelemetryStore
from repro.web.population import build_top_population

from .conftest import write_artifact

#: Four campaign runs (baseline, chaos, crash, resume), so a reduced
#: population — every seeded site plus 1% filler, like the other ablations.
CHAOS_SCALE = 0.01

#: max_attempts=4 masks any transient of depth <= 3; the plan's deepest
#: transient is depth 2, so every injected fault is recoverable.
RETRIES = RetryPolicy(max_attempts=4)

CHAOS_PLAN = FaultPlan(
    seed="chaos-bench",
    faults=(
        FaultSpec(kind=FaultKind.DNS, rate=0.05, times=2),
        FaultSpec(kind=FaultKind.CONNECTION_RESET, rate=0.03),
        FaultSpec(kind=FaultKind.TLS, rate=0.02),
        FaultSpec(kind=FaultKind.OUTAGE, at_count=25, duration=2),
        FaultSpec(kind=FaultKind.STORAGE_WRITE, rate=0.02),
    ),
)

#: Same plan plus a hard crash partway through the second OS pass.
CRASH_PLAN = FaultPlan(
    seed=CHAOS_PLAN.seed,
    faults=CHAOS_PLAN.faults + (FaultSpec(kind=FaultKind.CRASH, at_count=400),),
)


def _table1(result):
    """The invariant slice of per-OS statistics (Table 1's columns)."""
    return {
        os_name: (stats.successes, stats.failures, dict(stats.errors or {}), stats.skipped)
        for os_name, stats in result.stats.items()
    }


def _fingerprints(result):
    return [finding_fingerprint(finding) for finding in result.findings]


@pytest.fixture(scope="module")
def chaos():
    population = build_top_population(2020, scale=CHAOS_SCALE)

    # Fault-free reference, with the connectivity gate on so both runs
    # execute the same code path.
    baseline = Campaign(check_connectivity=True).run(population)

    # The same campaign under the chaos plan with retries.
    chaotic_campaign = Campaign(
        retry_policy=RETRIES, fault_plan=CHAOS_PLAN, check_connectivity=True
    )
    chaotic = chaotic_campaign.run(population)

    # Crash-kill a persistent campaign mid-run, then resume it.
    store = TelemetryStore()
    crashing = Campaign(
        retry_policy=RETRIES,
        fault_plan=CRASH_PLAN,
        check_connectivity=True,
        store=store,
        checkpoint_every=50,
    )
    crashed_rows = None
    try:
        crashing.run(population)
    except InjectedCrashError:
        crashed_rows = len(store.visits(population.name))
    resuming = Campaign(
        retry_policy=RETRIES,
        fault_plan=CRASH_PLAN.without(FaultKind.CRASH),
        check_connectivity=True,
        store=store,
        checkpoint_every=50,
    )
    resumed = resuming.run(population, resume=True)

    return {
        "population": population,
        "baseline": baseline,
        "chaotic": chaotic,
        "injector": chaotic_campaign.last_injector,
        "crashed_rows": crashed_rows,
        "resumed": resumed,
    }


def test_fault_tolerance_ablation(benchmark, chaos):
    population = chaos["population"]
    baseline, chaotic = chaos["baseline"], chaos["chaotic"]
    injector, resumed = chaos["injector"], chaos["resumed"]
    crashed_rows = chaos["crashed_rows"]

    def render():
        lines = ["Fault-tolerance ablation (chaos plan vs. fault-free run)"]
        lines.append(f"  {'OS':<10}{'baseline':>10}{'chaos':>10}{'retried':>10}")
        for os_name in population.oses:
            base = baseline.stats[os_name]
            chao = chaotic.stats[os_name]
            lines.append(
                f"  {os_name:<10}{base.successes:>10}{chao.successes:>10}"
                f"{chao.retried:>10}"
            )
        injected = ", ".join(
            f"{kind.value}={count}"
            for kind, count in sorted(
                injector.injected.items(), key=lambda kv: kv[0].value
            )
        )
        lines.append(f"  injected: {injected}")
        lines.append(
            f"  crash after {crashed_rows} persisted visits; resume found "
            f"{len(resumed.findings)} sites (chaos run: {len(chaotic.findings)})"
        )
        return "\n".join(lines)

    text = benchmark(render)
    write_artifact("ablation_fault_tolerance.txt", text)
    print("\n" + text)

    # The plan actually fired — a chaos run that injects nothing proves
    # nothing about resilience.
    assert injector is not None and injector.injected_total() > 0
    for kind in (FaultKind.DNS, FaultKind.CONNECTION_RESET, FaultKind.OUTAGE):
        assert injector.injected.get(kind, 0) > 0, kind

    # Chaos invariance: injected transients never surface in Table 1 or
    # change the set (and content) of locally-active site findings.
    assert _table1(chaotic) == _table1(baseline)
    assert _fingerprints(chaotic) == _fingerprints(baseline)

    # The crash really interrupted the campaign partway through.
    total_visits = len(population.websites) * len(population.oses)
    assert crashed_rows is not None and 0 < crashed_rows < total_visits

    # Crash-and-resume equivalence: the merged run is indistinguishable
    # from one that was never interrupted.
    assert _table1(resumed) == _table1(chaotic)
    assert _fingerprints(resumed) == _fingerprints(chaotic)


# ---------------------------------------------------------------------------
# Supervised executor: worker-count invariance under hang/slow chaos
# ---------------------------------------------------------------------------

#: Hang cancellations cost real wall-clock time (each strike holds the
#: run for the wall deadline), so the supervised ablation runs at half
#: the chaos scale.
SUPERVISED_SCALE = 0.005

#: Short deadlines keep the bench fast; the determinism claims hold at
#: any setting because every fault is a pure function of the visit.
SUPERVISED_KNOBS = dict(
    wall_deadline_s=0.15,
    quarantine_after=3,
    handle_signals=False,
)

#: Allowance for scheduling latency on loaded CI hosts: a hang strike
#: ends when the wall deadline has passed, so the overshoot is scheduler
#: jitter alone.  Generous on purpose — a regressed rescue (one that
#: holds for several deadlines, or never ends) still blows through it.
SCHED_SLACK_S = 0.35

SUPERVISED_PLAN = FaultPlan(
    seed="supervised-chaos",
    faults=(
        # The sequential chaos kinds fire under the serial fault keys ...
        FaultSpec(kind=FaultKind.DNS, rate=0.05, times=2),
        # ... plus the kinds that exercise the supervision: transient
        # hangs the wall deadline ends and the executor re-attempts,
        FaultSpec(kind=FaultKind.HANG, rate=0.02, times=1),
        # deterministic failers (depth >= quarantine_after) that must be
        # dead-lettered exactly once,
        FaultSpec(kind=FaultKind.HANG, rate=0.005, times=10),
        # a slow stall inside the simulated budget (ridden out),
        FaultSpec(kind=FaultKind.SLOW, rate=0.05, duration=3_000),
        # and one past it (20s window + 10s stall > 25s deadline; the
        # stall is single-shot, so the re-attempt recovers).
        FaultSpec(kind=FaultKind.SLOW, rate=0.01, duration=10_000),
    ),
)

SUPERVISED_CRASH_PLAN = FaultPlan(
    seed=SUPERVISED_PLAN.seed,
    faults=SUPERVISED_PLAN.faults
    + (FaultSpec(kind=FaultKind.CRASH, at_count=400),),
)


def _supervised_campaign(workers, plan, store=None):
    return Campaign(
        retry_policy=RETRIES,
        fault_plan=plan,
        store=store,
        executor=ExecutorConfig(workers=workers, **SUPERVISED_KNOBS),
    )


@pytest.fixture(scope="module")
def supervised():
    population = build_top_population(2020, scale=SUPERVISED_SCALE)

    runs = {}
    for workers in (1, 8):
        store = TelemetryStore(serialized=True)
        campaign = _supervised_campaign(workers, SUPERVISED_PLAN, store)
        result = campaign.run(population)
        runs[workers] = {
            "campaign": campaign,
            "store": store,
            "result": result,
        }

    # Crash-kill a supervised 8-worker campaign mid-run, then resume it
    # (crash spec dropped, like a restarted operator) on the same store.
    crash_store = TelemetryStore(serialized=True, commit_every=25)
    crashing = _supervised_campaign(8, SUPERVISED_CRASH_PLAN, crash_store)
    crashed_rows = None
    try:
        crashing.run(population)
    except InjectedCrashError:
        crashed_rows = len(crash_store.visits(population.name))
    resuming = _supervised_campaign(
        8, SUPERVISED_CRASH_PLAN.without(FaultKind.CRASH), crash_store
    )
    resumed = resuming.run(population, resume=True)

    return {
        "population": population,
        "runs": runs,
        "crashed_rows": crashed_rows,
        "resumed": resumed,
        "crash_store": crash_store,
    }


def test_supervised_worker_invariance(benchmark, supervised):
    population = supervised["population"]
    solo, pooled = supervised["runs"][1], supervised["runs"][8]

    def render():
        lines = ["Supervised executor ablation (hang/slow chaos plan)"]
        lines.append(f"  {'workers':<9}{'hangs':>7}{'slow':>7}{'quarantined':>13}{'overshoot':>11}")
        for workers, run in sorted(supervised["runs"].items()):
            ex = run["campaign"].last_executor.stats
            lines.append(
                f"  {workers:<9}{ex.deadline_cancelled:>7}"
                f"{ex.deadline_exceeded + ex.slow_ridden_out:>7}"
                f"{ex.quarantined:>13}{ex.max_overshoot_s:>10.3f}s"
            )
        lines.append(
            f"  crash after {supervised['crashed_rows']} persisted visits; "
            f"resume found {len(supervised['resumed'].findings)} sites "
            f"(uninterrupted: {len(pooled['result'].findings)})"
        )
        return "\n".join(lines)

    text = benchmark(render)
    write_artifact("ablation_supervised_executor.txt", text)
    print("\n" + text)

    # The supervised fault kinds actually fired.
    injector = pooled["campaign"].last_injector
    assert injector.injected.get(FaultKind.HANG, 0) > 0
    assert injector.injected.get(FaultKind.SLOW, 0) > 0

    # Worker-count invariance, down to the rendered bytes: Table 1
    # (with its dynamic VISIT_DEADLINE column) and Table 5 agree.
    r1, r8 = solo["result"], pooled["result"]
    assert _table1(r1) == _table1(r8)
    assert _fingerprints(r1) == _fingerprints(r8)
    assert (
        tables.table_1(list(r1.stats.values())).text
        == tables.table_1(list(r8.stats.values())).text
    )
    assert tables.table_5(r1.findings).text == tables.table_5(r8.findings).text

    # The hang rescue held its latency bound: no cancelled visit ran
    # more than scheduler jitter past its deadline.
    for run in supervised["runs"].values():
        ex = run["campaign"].last_executor.stats
        assert ex.deadline_cancelled > 0
        assert ex.max_overshoot_s <= SCHED_SLACK_S

    # Every deterministic failer — and nothing else — is dead-lettered
    # exactly once per OS, with the configured failure count.
    failers = SUPERVISED_PLAN.schedule(
        FaultKind.HANG, [w.domain for w in population.websites]
    )
    expected = sorted(
        (domain, os_name)
        for domain, depth in failers.items()
        if depth >= SUPERVISED_KNOBS["quarantine_after"]
        for os_name in population.oses
    )
    assert expected, "plan selected no deterministic failers"
    for run in supervised["runs"].values():
        letters = run["store"].dead_letters(population.name)
        assert sorted((l.domain, l.os_name) for l in letters) == expected
        assert all(
            l.failures == SUPERVISED_KNOBS["quarantine_after"] for l in letters
        )


def test_supervised_crash_resume_equivalence(supervised):
    """A crash-killed 8-worker campaign resumes to the uninterrupted result."""
    population = supervised["population"]
    uninterrupted = supervised["runs"][8]["result"]
    resumed = supervised["resumed"]
    crashed_rows = supervised["crashed_rows"]

    total_visits = len(population.websites) * len(population.oses)
    assert crashed_rows is not None and 0 < crashed_rows < total_visits

    assert _table1(resumed) == _table1(uninterrupted)
    assert _fingerprints(resumed) == _fingerprints(uninterrupted)

    # The dead-letter queue converged to the same set, still once each.
    merged = supervised["crash_store"].dead_letters(population.name)
    reference = supervised["runs"][8]["store"].dead_letters(population.name)
    assert [
        (l.domain, l.os_name, l.failures) for l in merged
    ] == [(l.domain, l.os_name, l.failures) for l in reference]


def test_fault_schedule_determinism(chaos):
    """The same plan (even JSON round-tripped) fires at the same sites."""
    population = chaos["population"]
    domains = [website.domain for website in population.websites]
    schedule = CHAOS_PLAN.schedule(FaultKind.DNS, domains)
    round_tripped = FaultPlan.loads(CHAOS_PLAN.dumps())
    assert round_tripped.schedule(FaultKind.DNS, domains) == schedule
    assert schedule, "chaos plan selected no DNS fault sites"
