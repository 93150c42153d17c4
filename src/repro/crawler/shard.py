"""Shard worker process: one slice of a sharded campaign.

The sharded fabric (:mod:`repro.crawler.fabric`) partitions a population
into domain chunks and runs each shard as its own *process* (spawned, so
a SIGKILL — OOM killer, operator, chaos plan — takes out exactly one
shard).  :func:`run_shard` is the process entry point: it rebuilds the
population from a picklable :class:`PopulationSpec`, opens the shard's
own WAL-mode :class:`~repro.storage.db.TelemetryStore` (and NetLog
archive directory), and then pulls domain chunks off its task queue,
running each through an ordinary :class:`~repro.crawler.campaign.Campaign`
with per-visit checkpointing and ``resume=True`` — which is what makes a
restarted shard generation skip everything its dead predecessor already
committed.

Everything crossing the process boundary is a plain tuple (see the
``EVENT_*``/``TASK_*`` constants); queues are strictly single-producer
per direction so a killed process can only ever damage its own channel.

The shard evaluates its own ``shard-crash`` / ``shard-stall`` faults:
with a :class:`~repro.faults.FaultPlan` attached, the selected shard
SIGKILLs itself (or stops heartbeating) at a deterministic shard-local
visit index, keyed by shard id and bounded by restart generation — so a
chaos run converges to the same byte-identical rollup on every seed.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from dataclasses import dataclass, field

from ..faults.injector import FaultInjector
from ..faults.plan import FaultKind, FaultPlan
from ..netlog.archive import NetLogArchive
from ..storage.db import TelemetryStore
from ..web.population import (
    CrawlPopulation,
    build_malicious_population,
    build_top_population,
)
from .campaign import Campaign
from .executor import CampaignInterrupted
from .retry import RetryPolicy

# -- wire protocol (coordinator <-> shard) ----------------------------------

#: Coordinator -> shard: ``(TASK_CHUNK, chunk_id, (domain, ...))``.
TASK_CHUNK = "chunk"
#: Coordinator -> shard: ``(TASK_DRAIN,)`` — flush and exit cleanly.
TASK_DRAIN = "drain"

#: Shard -> coordinator: ``(EVENT_READY, shard_id, generation)``.
EVENT_READY = "ready"
#: Shard -> coordinator: ``(EVENT_HEARTBEAT, shard_id, generation, visits)``.
EVENT_HEARTBEAT = "heartbeat"
#: Shard -> coordinator:
#: ``(EVENT_CHUNK_DONE, shard_id, generation, chunk_id, visits)``.
EVENT_CHUNK_DONE = "chunk-done"
#: Shard -> coordinator: ``(EVENT_DRAINED, shard_id, generation, visits)``.
EVENT_DRAINED = "drained"
#: Shard -> coordinator: ``(EVENT_ERROR, shard_id, generation, message)``.
EVENT_ERROR = "error"

#: Fault kinds a shard's inner campaign must *not* re-evaluate: process
#: lifecycle belongs to the fabric (shard kinds are handled here, at the
#: process level; ``crash`` is the single-process campaign's seam and its
#: visit counter would mean something different inside every chunk).
_PROCESS_LEVEL_KINDS = (
    FaultKind.CRASH,
    FaultKind.SHARD_CRASH,
    FaultKind.SHARD_STALL,
)

#: Least time between two heartbeats (they are sent per visit).
_HEARTBEAT_INTERVAL_S = 0.2


@dataclass(frozen=True, slots=True)
class PopulationSpec:
    """Picklable recipe for a population, rebuilt inside each process.

    Spawned workers cannot inherit the parent's population object (and
    shipping 100K ``Website`` objects through a queue would dwarf the
    crawl), so every process rebuilds it from this spec; the builders are
    seeded, so all processes agree on ranks, behaviours, and injected
    load failures.
    """

    #: ``top2020`` / ``top2021`` / ``malicious`` / ``scenario``.
    population: str
    scale: float = 1.0
    #: ``scenario`` only: generated population size and RNG seed.
    size: int = 0
    seed: int = 2021
    #: Top-list populations only: WebRTC policy era, or None for off.
    webrtc_policy: str | None = None

    def build(self) -> CrawlPopulation:
        if self.population == "malicious":
            return build_malicious_population(scale=self.scale)
        if self.population in ("top2020", "top2021"):
            year = 2020 if self.population == "top2020" else 2021
            return build_top_population(
                year, scale=self.scale, webrtc_policy=self.webrtc_policy
            )
        if self.population == "scenario":
            from ..web.generator import ScenarioRates, generate_scenario

            return generate_scenario(
                self.size, ScenarioRates(), seed=self.seed
            ).population
        raise ValueError(f"unknown population {self.population!r}")


@dataclass(frozen=True, slots=True)
class ShardConfig:
    """Everything one shard worker process needs, shipped via spawn."""

    shard_id: int
    generation: int
    spec: PopulationSpec
    store_path: str
    archive_dir: str | None = None
    fault_plan: FaultPlan | None = None
    retries: int = 1
    check_connectivity: bool = False
    #: Store commit cadence in visits (1 = durable per visit; larger
    #: batches trade a bigger resume re-crawl window for throughput —
    #: either way the merge converges, re-crawled rows are
    #: content-identical).
    checkpoint_every: int = 1
    #: Archive document encoding ("json"/"binary"; None = codec default).
    netlog_format: str | None = None

    @property
    def key(self) -> str:
        """The fault-plan draw key: stable across generations."""
        return f"shard-{self.shard_id}"


def subpopulation(
    population: CrawlPopulation, domains: tuple[str, ...]
) -> CrawlPopulation:
    """The sub-population covering exactly ``domains`` (chunk order)."""
    websites = [population.by_domain[domain] for domain in domains]
    selected = set(domains)
    return CrawlPopulation(
        name=population.name,
        websites=websites,
        oses=population.oses,
        active_domains=population.active_domains & selected,
        webrtc_policy=population.webrtc_policy,
    )


@dataclass(slots=True)
class _ShardState:
    """Mutable per-process state threaded through the visit hook."""

    visits: int = 0
    last_beat: float = 0.0
    drain: threading.Event = field(default_factory=threading.Event)


def run_shard(config: ShardConfig, tasks, events, stop) -> None:
    """Process entry point for one shard worker (spawn target).

    ``tasks``/``events`` are this shard's private queues; ``stop`` is the
    fabric-wide drain event a coordinator signal handler sets.  The loop
    pulls chunks until drained or stopped; every chunk runs as a resumed
    campaign against the shard's own store, so a restarted generation
    re-crawls only what its predecessor never committed.
    """
    # The coordinator owns signal-driven shutdown: a terminal SIGINT
    # reaches the whole process group, and dying mid-write is exactly
    # what the drain protocol exists to avoid.  SIGTERM requests a local
    # drain so an orphaned shard still flushes and exits.
    state = _ShardState()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, lambda *_: state.drain.set())

    population = config.spec.build()
    injector = (
        FaultInjector(config.fault_plan)
        if config.fault_plan is not None
        else None
    )
    campaign_plan = (
        config.fault_plan.without(*_PROCESS_LEVEL_KINDS)
        if config.fault_plan is not None
        else None
    )

    def on_visit(record) -> None:
        del record
        state.visits += 1
        if injector is not None:
            stall = injector.shard_stall_hook(
                config.key, config.generation, state.visits
            )
            if stall:
                # A wedged shard makes no progress and stops heartbeating;
                # the coordinator's liveness check is what ends the stall.
                time.sleep(stall)
            if injector.shard_crash_hook(
                config.key, config.generation, state.visits
            ):
                # Die exactly like the OOM killer would: no flush, no
                # atexit, nothing — resume must cope with the raw truth.
                os.kill(os.getpid(), signal.SIGKILL)
        now = time.monotonic()
        if now - state.last_beat >= _HEARTBEAT_INTERVAL_S:
            state.last_beat = now
            events.put(
                (EVENT_HEARTBEAT, config.shard_id, config.generation,
                 state.visits)
            )
        if stop.is_set() or state.drain.is_set():
            raise CampaignInterrupted(
                f"shard {config.shard_id} drain requested"
            )

    store = TelemetryStore(config.store_path, wal=True)
    archive = (
        NetLogArchive(config.archive_dir)
        if config.archive_dir is not None
        else None
    )
    try:
        events.put((EVENT_READY, config.shard_id, config.generation))
        while not (stop.is_set() or state.drain.is_set()):
            try:
                message = tasks.get(timeout=0.1)
            except queue.Empty:
                continue
            if message[0] == TASK_DRAIN:
                break
            _, chunk_id, domains = message
            campaign = Campaign(
                store=store,
                retry_policy=RetryPolicy(max_attempts=config.retries),
                fault_plan=campaign_plan,
                check_connectivity=config.check_connectivity,
                checkpoint_every=config.checkpoint_every,
                netlog_archive=archive,
                netlog_format=config.netlog_format,
                on_visit=on_visit,
            )
            try:
                campaign.run(
                    subpopulation(population, domains), resume=True
                )
            except CampaignInterrupted:
                break  # the campaign already flushed its checkpoint
            store.commit()
            events.put(
                (EVENT_CHUNK_DONE, config.shard_id, config.generation,
                 chunk_id, state.visits)
            )
        store.commit()
        events.put(
            (EVENT_DRAINED, config.shard_id, config.generation, state.visits)
        )
    except Exception as exc:  # surface, then die: the fabric restarts us
        events.put(
            (EVENT_ERROR, config.shard_id, config.generation,
             f"{type(exc).__name__}: {exc}")
        )
        raise
    finally:
        store.close()
