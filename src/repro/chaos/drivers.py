"""Conformance drivers: run one FaultPlan schedule end to end.

A driver owns everything needed to execute a schedule against one slice of
the pipeline and distil the run into a `RunObservation`:

- ``campaign``   — sequential crawl campaign over a small deterministic
  population slice (DNS/network/outage/storage/corruption/crash seams);
- ``supervised`` — the same campaign with a short wall deadline (each
  hang strike holds the run for it) and a serialized store;
- ``fabric``     — a 2-shard multi-process fabric run merged against a
  serial baseline (shard crash/stall seams);
- ``serve``      — a loopback self-test daemon under closed-loop load
  (slow-client/torn-upload/worker-crash/journal seams).

Drivers never decide pass/fail themselves: they only gather evidence; the
invariant registry judges it.  All of them accept an ``injector_factory``
so tests can substitute a deliberately buggy injector (the planted-bug
shrinker fixture).
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
from dataclasses import dataclass
from typing import Callable

from repro.chaos.invariants import RunObservation
from repro.crawler.campaign import Campaign, finding_fingerprint
from repro.crawler.executor import ExecutorConfig
from repro.crawler.retry import RetryPolicy
from repro.faults.injector import FaultInjector, InjectedCrashError
from repro.faults.plan import FaultKind, FaultPlan
from repro.netlog import (
    EventPhase,
    EventType,
    NetLogArchive,
    NetLogEvent,
    NetLogSource,
    SourceType,
    dumps,
)
from repro.storage.db import TelemetryStore
from repro.storage.integrity import campaign_digest, fsck, population_revisiter
from repro.web.population import CrawlPopulation, build_top_population

InjectorFactory = Callable[[FaultPlan], FaultInjector]

#: Retry budget every campaign-shaped driver runs with; the canonical
#: schedule shapes in `repro.chaos.schedule` are maskable *under this
#: budget* (transient depth <= 3, outage windows <= 2 recheck slots).
RETRIES = 4


@dataclass(slots=True)
class ChaosContext:
    """Shared knobs for one engine run."""

    workdir: str
    scale: float = 0.001
    injector_factory: InjectorFactory = FaultInjector

    def scratch(self, prefix: str) -> str:
        os.makedirs(self.workdir, exist_ok=True)
        return tempfile.mkdtemp(prefix=f"{prefix}-", dir=self.workdir)


def conformance_population(
    scale: float = 0.001, *, webrtc_policy: str | None = "mdns"
) -> CrawlPopulation:
    """A small, deterministic, behaviour-bearing slice of ``top2020``.

    Eight sites seeded with local-network activity plus sixteen filler
    sites, ordered by (rank, domain) so every run — and every process
    count — crawls the same visits in the same order.  WebRTC behaviours
    are enabled (mDNS era) by default so the ``stun-timeout`` and
    ``mdns-resolve-fail`` seams have traffic to strike; baseline and
    faulted runs share the population, so digest comparisons hold.
    """
    population = build_top_population(2020, scale=scale, webrtc_policy=webrtc_policy)
    ranked = sorted(population.websites, key=lambda w: (w.rank, w.domain))
    active = [w for w in ranked if w.domain in population.active_domains][:8]
    chosen = {w.domain for w in active}
    filler = [w for w in ranked if w.domain not in chosen][:16]
    sliced = sorted(active + filler, key=lambda w: (w.rank, w.domain))
    return CrawlPopulation(
        name=population.name,
        websites=sliced,
        oses=population.oses,
        active_domains={w.domain for w in active},
        webrtc_policy=population.webrtc_policy,
    )


def _fingerprints(result) -> tuple[str, ...]:
    return tuple(sorted(repr(finding_fingerprint(f)) for f in result.findings))


def _merge_fired(into: dict[FaultKind, int], injector: FaultInjector | None) -> None:
    if injector is None:
        return
    for kind, count in injector.injected.items():
        if count:
            into[kind] = into.get(kind, 0) + count


def _cli_fsck_exit(db_path: str, netlog_dir: str | None) -> int:
    """Run ``repro fsck`` in-process and report its exit code.

    Imported lazily: the CLI imports `repro.chaos` for the ``chaos``
    subcommand, so a module-level import here would be circular.
    """
    from repro import cli

    argv = ["fsck", "--db", db_path]
    if netlog_dir is not None:
        argv += ["--netlog-dir", netlog_dir]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


class CampaignDriver:
    """Campaign over the slice, with default or short supervision knobs."""

    def __init__(self, ctx: ChaosContext, *, name: str = "campaign", workers: int = 0):
        self.ctx = ctx
        self.name = name
        self.workers = workers
        self._population: CrawlPopulation | None = None
        self._baseline: tuple[str, tuple[str, ...]] | None = None

    def population(self) -> CrawlPopulation:
        if self._population is None:
            self._population = conformance_population(self.ctx.scale)
        return self._population

    def _executor(self) -> ExecutorConfig | None:
        if not self.workers:
            return None
        return ExecutorConfig(
            workers=self.workers, wall_deadline_s=0.3, handle_signals=False
        )

    def _campaign(self, store, archive, injector) -> Campaign:
        return Campaign(
            store=store,
            retry_policy=RetryPolicy(max_attempts=RETRIES),
            injector=injector,
            check_connectivity=True,
            checkpoint_every=10,
            executor=self._executor(),
            netlog_archive=archive,
        )

    def baseline(self) -> tuple[str, tuple[str, ...]]:
        """Digest + fingerprints of the fault-free run (memoised)."""
        if self._baseline is None:
            scratch = self.ctx.scratch(f"{self.name}-baseline")
            with TelemetryStore(
                os.path.join(scratch, "crawl.db"), serialized=bool(self.workers)
            ) as store:
                archive = NetLogArchive(os.path.join(scratch, "netlogs"))
                result = self._campaign(store, archive, None).run(self.population())
                self._baseline = (
                    campaign_digest(store, self.population().name),
                    _fingerprints(result),
                )
        return self._baseline

    def run(self, plan: FaultPlan) -> RunObservation:
        observation = RunObservation(driver=self.name)
        try:
            self._execute(plan, observation)
        except Exception as exc:  # noqa: BLE001 — every escape is a violation
            observation.error = f"{type(exc).__name__}: {exc}"
        return observation

    def _execute(self, plan: FaultPlan, observation: RunObservation) -> None:
        baseline_digest, baseline_fps = self.baseline()
        population = self.population()
        scratch = self.ctx.scratch(self.name)
        db_path = os.path.join(scratch, "crawl.db")
        netlog_dir = os.path.join(scratch, "netlogs")
        fired: dict[FaultKind, int] = {}
        with TelemetryStore(db_path, serialized=bool(self.workers)) as store:
            archive = NetLogArchive(netlog_dir)
            injector = self.ctx.injector_factory(plan)
            campaign = self._campaign(store, archive, injector)
            try:
                result = campaign.run(population)
            except InjectedCrashError:
                # The crash seam took the whole process down; resume the
                # campaign from its checkpoint without the crash spec, the
                # way an operator restart would.
                _merge_fired(fired, campaign.last_injector)
                resume_plan = plan.without(FaultKind.CRASH)
                injector = self.ctx.injector_factory(resume_plan)
                campaign = self._campaign(store, archive, injector)
                result = campaign.run(population, resume=True)
            _merge_fired(fired, campaign.last_injector)

            report = fsck(store, archive, crawl=population.name)
            observation.fsck_findings = len(report.findings)
            if report.findings:
                fsck(
                    store,
                    archive,
                    crawl=population.name,
                    repair=True,
                    revisit=population_revisiter(population, store, archive),
                )
                rescan = fsck(store, archive, crawl=population.name)
                observation.fsck_clean_after_repair = rescan.clean
            observation.digest = campaign_digest(store, population.name)
        # The CLI audit needs the store closed first: a serialized WAL store
        # still holds its writer connection, and a second connection would
        # see "database is locked".  The exit code therefore reflects the
        # *final* (post-repair) state of the artefacts.
        observation.fsck_exit_code = _cli_fsck_exit(db_path, netlog_dir)
        observation.baseline_digest = baseline_digest
        observation.fingerprints = _fingerprints(result)
        observation.baseline_fingerprints = baseline_fps
        observation.fired = fired


class FabricDriver:
    """Two-shard multi-process fabric run vs a serial baseline."""

    name = "fabric"

    def __init__(self, ctx: ChaosContext):
        self.ctx = ctx
        self._baseline: tuple[str, tuple[str, ...]] | None = None

    def _spec(self):
        from repro.crawler.shard import PopulationSpec

        return PopulationSpec(population="top2020", scale=self.ctx.scale)

    def baseline(self) -> tuple[str, tuple[str, ...]]:
        if self._baseline is None:
            scratch = self.ctx.scratch("fabric-baseline")
            population = self._spec().build()
            with TelemetryStore(os.path.join(scratch, "serial.db")) as store:
                result = Campaign(
                    store=store, retry_policy=RetryPolicy(max_attempts=RETRIES)
                ).run(population)
                self._baseline = (
                    campaign_digest(store, population.name),
                    _fingerprints(result),
                )
        return self._baseline

    def run(self, plan: FaultPlan) -> RunObservation:
        observation = RunObservation(driver=self.name)
        try:
            self._execute(plan, observation)
        except Exception as exc:  # noqa: BLE001
            observation.error = f"{type(exc).__name__}: {exc}"
        return observation

    def _execute(self, plan: FaultPlan, observation: RunObservation) -> None:
        from repro.crawler.fabric import CrawlFabric, FabricConfig

        baseline_digest, baseline_fps = self.baseline()
        scratch = self.ctx.scratch("fabric")
        fabric = CrawlFabric(
            self._spec(),
            FabricConfig(shards=2, heartbeat_timeout_s=1.5, checkpoint_every=10),
            workdir=scratch,
            fault_plan=plan,
        )
        outcome = fabric.run()
        # Shard faults fire inside the worker processes, so the parent-side
        # injector never sees them; the coordinator's restart ledger is the
        # ground truth for those seams.
        fired: dict[FaultKind, int] = {}
        for reasons in outcome.report.restarts.values():
            for reason in reasons:
                if reason == "crash":
                    fired[FaultKind.SHARD_CRASH] = fired.get(FaultKind.SHARD_CRASH, 0) + 1
                elif reason == "stall":
                    fired[FaultKind.SHARD_STALL] = fired.get(FaultKind.SHARD_STALL, 0) + 1
        observation.fired = fired
        with TelemetryStore(fabric.rollup_path) as rollup:
            observation.digest = campaign_digest(rollup, outcome.result.name)
        observation.baseline_digest = baseline_digest
        observation.fingerprints = _fingerprints(outcome.result)
        observation.baseline_fingerprints = baseline_fps


def _serve_document(urls: list[str]) -> bytes:
    """A minimal well-formed NetLog document: one page, one flow per URL."""
    events: list[NetLogEvent] = []
    next_source = 1

    def add(time: float, type_: EventType, source: NetLogSource, phase=EventPhase.NONE, **params):
        events.append(
            NetLogEvent(time=time, type=type_, source=source, phase=phase, params=params)
        )

    page = NetLogSource(id=next_source, type=SourceType.URL_REQUEST)
    next_source += 1
    add(100.0, EventType.PAGE_LOAD_COMMITTED, page, url="https://site.example/")
    for index, url in enumerate(urls):
        source = NetLogSource(id=next_source, type=SourceType.URL_REQUEST)
        next_source += 1
        start = 2100.0 + 5.0 * index
        add(start, EventType.REQUEST_ALIVE, source, EventPhase.BEGIN)
        add(start, EventType.URL_REQUEST_START_JOB, source, EventPhase.BEGIN, url=url, method="GET")
        add(start + 2.0, EventType.REQUEST_ALIVE, source, EventPhase.END)
    return dumps(events).encode()


class ServeDriver:
    """Loopback self-test daemon under closed-loop chaos load."""

    name = "serve"

    CLIENTS = 2
    ROUNDS = 2

    def __init__(self, ctx: ChaosContext):
        self.ctx = ctx
        self._corpus = None

    def baseline(self) -> None:
        """Serve needs no baseline run: every report's expected bytes are
        computed analytically from the upload."""
        return None

    def corpus(self):
        from repro.serve.bench import BenchItem
        from repro.serve.report import analyze_report_text

        if self._corpus is None:
            shapes = {
                "localhost-probe": ["http://localhost:5939/check"],
                "lan-sweep": [f"http://192.168.1.{i}/cam.jpg" for i in range(1, 5)],
                "public-only": [f"https://cdn{i}.example/bundle.js" for i in range(3)],
            }
            self._corpus = [
                BenchItem(name=name, body=body, expected=analyze_report_text(body))
                for name, body in ((n, _serve_document(u)) for n, u in shapes.items())
            ]
        return self._corpus

    def run(self, plan: FaultPlan) -> RunObservation:
        observation = RunObservation(driver=self.name)
        try:
            self._execute(plan, observation)
        except Exception as exc:  # noqa: BLE001
            observation.error = f"{type(exc).__name__}: {exc}"
        return observation

    def _execute(self, plan: FaultPlan, observation: RunObservation) -> None:
        from repro.serve.bench import run_load
        from repro.serve.engine import EngineConfig, JobEngine
        from repro.serve.http import ReproServer, ServerConfig
        from repro.storage.jobs import JobJournal

        corpus = self.corpus()
        scratch = self.ctx.scratch("serve")
        injector = self.ctx.injector_factory(plan)
        with TelemetryStore(
            os.path.join(scratch, "serve.sqlite"), serialized=True, wal=True
        ) as store:
            journal = JobJournal(store, write_fault_hook=injector.journal_write_hook)
            engine = JobEngine(
                EngineConfig(
                    workers=2,
                    backlog=16,
                    job_deadline_s=1.0,
                    quarantine_after=6,
                    breaker_threshold=8,
                    breaker_cooldown_s=0.3,
                ),
                journal=journal,
                spool_dir=os.path.join(scratch, "spool"),
                injector=injector,
            )
            server = ReproServer(
                engine,
                ServerConfig(read_timeout_s=5.0, sync_wait_s=5.0),
                injector=injector,
            )
            with server:
                result = run_load(
                    server.url,
                    corpus,
                    clients=self.CLIENTS,
                    rounds=self.ROUNDS,
                    give_up_after_s=60.0,
                )
        observation.fired = {k: v for k, v in injector.injected.items() if v}
        observation.wrong_reports = result.wrong_reports
        observation.unrecovered = result.unrecovered
        observation.reports_expected = self.CLIENTS * self.ROUNDS * len(corpus)
        observation.reports_received = result.reports


def build_drivers(ctx: ChaosContext) -> dict[str, object]:
    """The four conformance drivers, keyed by registry driver name."""
    return {
        "campaign": CampaignDriver(ctx, name="campaign", workers=0),
        "supervised": CampaignDriver(ctx, name="supervised", workers=2),
        "fabric": FabricDriver(ctx),
        "serve": ServeDriver(ctx),
    }
