"""Sharded multi-process fabric: crash tolerance and merge equivalence.

The invariant under test is the tentpole claim: an N-shard run — even one
where shard processes are SIGKILLed mid-visit and resumed, stalled and
restarted, or abandoned entirely — merges into a rollup whose campaign
digest, finding fingerprints, and Table 1 statistics are byte-identical
to a serial single-process campaign.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import repro
from repro.crawler.campaign import Campaign, finding_fingerprint
from repro.crawler.fabric import (
    CrawlFabric,
    FabricConfig,
    FabricError,
    resolve_shards,
)
from repro.crawler.shard import PopulationSpec, subpopulation
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.storage.db import TelemetryStore
from repro.storage.integrity import campaign_digest

CRAWL = "top2021"
SCALE = 0.003  # 300 domains x 2 OSes = 600 visits per full run


@pytest.fixture(scope="module")
def spec() -> PopulationSpec:
    return PopulationSpec(population=CRAWL, scale=SCALE)


@pytest.fixture(scope="module")
def serial(spec, tmp_path_factory):
    """The single-process ground truth every sharded run must reproduce."""
    path = str(tmp_path_factory.mktemp("serial") / "serial.db")
    with TelemetryStore(path, wal=True) as store:
        result = Campaign(store=store).run(spec.build())
        digest = campaign_digest(store, CRAWL)
    return SimpleNamespace(
        result=result,
        digest=digest,
        fingerprints=[finding_fingerprint(f) for f in result.findings],
        db=path,
    )


def run_fabric(spec, workdir, *, shards, plan=None, **config_kwargs):
    config_kwargs.setdefault("heartbeat_timeout_s", 30.0)
    fabric = CrawlFabric(
        spec,
        FabricConfig(shards=shards, **config_kwargs),
        workdir=str(workdir),
        fault_plan=plan,
    )
    outcome = fabric.run()
    return fabric, outcome


def rollup_digest(fabric) -> str:
    with TelemetryStore(fabric.rollup_path) as store:
        return campaign_digest(store, CRAWL)


def assert_matches_serial(fabric, outcome, serial) -> None:
    assert rollup_digest(fabric) == serial.digest
    assert [
        finding_fingerprint(f) for f in outcome.result.findings
    ] == serial.fingerprints
    assert outcome.result.stats == serial.result.stats


# -- planning units ----------------------------------------------------------


def test_resolve_shards_sentinel_and_validation():
    assert resolve_shards(3) == 3
    assert resolve_shards(0) == (os.cpu_count() or 1)
    with pytest.raises(ValueError, match="shards must be >= 0"):
        resolve_shards(-1)


def test_fabric_config_validation():
    with pytest.raises(ValueError, match="shards must be >= 1"):
        FabricConfig(shards=0)
    with pytest.raises(ValueError, match="chunk_size"):
        FabricConfig(shards=1, chunk_size=-1)
    with pytest.raises(ValueError, match="retries"):
        FabricConfig(shards=1, retries=0)


def test_partition_covers_every_domain_once(spec, tmp_path):
    fabric = CrawlFabric(
        spec, FabricConfig(shards=3), workdir=str(tmp_path)
    )
    domains = [w.domain for w in spec.build().websites]
    chunks = fabric._partition(domains)
    flattened = [d for chunk in chunks for d in chunk.domains]
    assert flattened == domains  # order preserved, nothing dropped
    # Auto-sizing leaves surplus to steal: more chunks than shards.
    assert len(chunks) >= 3


def test_subpopulation_preserves_site_identity(spec):
    population = spec.build()
    domains = tuple(w.domain for w in population.websites[10:20])
    sub = subpopulation(population, domains)
    assert [w.domain for w in sub.websites] == list(domains)
    assert sub.name == population.name
    assert sub.oses == population.oses
    assert sub.active_domains == population.active_domains & set(domains)
    # Same objects, not copies: ranks and injected load failures ride along.
    assert sub.websites[0] is population.by_domain[domains[0]]


def test_population_spec_rejects_unknown():
    with pytest.raises(ValueError, match="unknown population"):
        PopulationSpec(population="nope").build()


# -- clean sharded runs ------------------------------------------------------


@pytest.mark.parametrize("shards", [1, 2, 3])
def test_sharded_run_matches_serial(spec, serial, tmp_path, shards):
    fabric, outcome = run_fabric(spec, tmp_path, shards=shards)
    assert_matches_serial(fabric, outcome, serial)
    assert outcome.report.rows_merged == len(
        spec.build().websites
    ) * len(outcome.result.oses)
    assert not outcome.report.restarts
    assert not outcome.report.dead_shards


def _policy_eras(store) -> dict:
    return {
        (domain, os_name): policy
        for domain, os_name, policy in store.connection.execute(
            "SELECT domain, os_name, webrtc_policy FROM visits WHERE crawl = ?",
            (CRAWL,),
        )
    }


def test_sharded_rollup_keeps_the_policy_era(tmp_path):
    """The WebRTC policy era is outside the visit digest, so only a
    direct comparison sees a merge that drops it: every rollup row must
    carry the era the serial store records."""
    spec = PopulationSpec(population=CRAWL, scale=0.001, webrtc_policy="mdns")
    with TelemetryStore(str(tmp_path / "serial.db")) as store:
        Campaign(store=store).run(spec.build())
        serial_eras = _policy_eras(store)
    assert set(serial_eras.values()) == {"mdns"}
    fabric, _ = run_fabric(spec, tmp_path / "fabric", shards=2)
    with TelemetryStore(fabric.rollup_path) as rollup:
        assert _policy_eras(rollup) == serial_eras


# -- crash / stall chaos -----------------------------------------------------


def test_sigkilled_shards_resume_to_identical_rollup(
    spec, serial, tmp_path
):
    """Every shard SIGKILLs itself mid-visit; restarts must converge."""
    plan = FaultPlan(
        seed="chaos-crash",
        faults=(
            FaultSpec(kind=FaultKind.SHARD_CRASH, rate=1.0, at_count=7),
        ),
    )
    fabric, outcome = run_fabric(spec, tmp_path, shards=2, plan=plan)
    # Both shards died once (generation 0) and were restarted-with-resume.
    assert sorted(outcome.report.restarts) == [0, 1]
    assert all(
        reasons == ["crash"]
        for reasons in outcome.report.restarts.values()
    )
    assert_matches_serial(fabric, outcome, serial)


def test_stalled_shard_is_killed_and_restarted(spec, serial, tmp_path):
    """A shard that stops heartbeating is detected, killed, restarted."""
    plan = FaultPlan(
        seed="chaos-stall",
        faults=(
            FaultSpec(
                kind=FaultKind.SHARD_STALL, rate=1.0, at_count=5,
                duration=30,
            ),
        ),
    )
    fabric, outcome = run_fabric(
        spec, tmp_path, shards=2, plan=plan, heartbeat_timeout_s=1.5
    )
    assert outcome.report.total_restarts >= 1
    assert any(
        "stall" in reasons
        for reasons in outcome.report.restarts.values()
    )
    assert_matches_serial(fabric, outcome, serial)


def _seed_selecting_only(shard_key: str, other_keys: list[str], rate: float):
    """Find a plan seed whose draw hits ``shard_key`` and nobody else."""
    for attempt in range(10_000):
        seed = f"pick-{attempt}"
        spec_ = FaultSpec(
            kind=FaultKind.SHARD_CRASH, rate=rate, at_count=4, times=99
        )
        plan = FaultPlan(seed=seed, faults=(spec_,))
        if plan.selects(spec_, shard_key) and not any(
            plan.selects(spec_, other) for other in other_keys
        ):
            return plan
    raise AssertionError("no selective seed found")


def test_dead_shard_work_is_reassigned(spec, serial, tmp_path):
    """A shard that dies every generation is abandoned; peers finish."""
    plan = _seed_selecting_only("shard-0", ["shard-1"], rate=0.5)
    fabric, outcome = run_fabric(
        spec, tmp_path, shards=2, plan=plan, max_restarts=1
    )
    assert outcome.report.dead_shards == [0]
    # The dead shard committed rows before each death; the peer re-crawled
    # its chunks, so the merge saw (and verified) duplicate content.
    assert outcome.report.duplicate_rows > 0
    assert_matches_serial(fabric, outcome, serial)


def test_all_shards_dead_raises(spec, tmp_path):
    plan = FaultPlan(
        seed="chaos-doom",
        faults=(
            FaultSpec(
                kind=FaultKind.SHARD_CRASH, rate=1.0, at_count=2, times=99
            ),
        ),
    )
    fabric = CrawlFabric(
        spec,
        FabricConfig(shards=2, max_restarts=1, heartbeat_timeout_s=30.0),
        workdir=str(tmp_path),
        fault_plan=plan,
    )
    with pytest.raises(FabricError, match="restart budget"):
        fabric.run()


# -- merge robustness --------------------------------------------------------


def test_merge_is_idempotent_and_survives_partial_merge(
    spec, serial, tmp_path
):
    """A merge killed mid-fold converges when re-run from scratch.

    Model: a first merge pass folds only one shard store (the state a
    SIGKILL mid-merge leaves behind), then the full merge runs — the
    partial rows must be verified as duplicates, never doubled.
    """
    fabric, outcome = run_fabric(spec, tmp_path, shards=2)
    assert_matches_serial(fabric, outcome, serial)
    partial_rollup = str(tmp_path / "partial-rollup.db")
    rebuilt = CrawlFabric(
        spec,
        FabricConfig(shards=2),
        workdir=str(tmp_path),
        rollup_path=partial_rollup,
    )
    # Partial pass: one shard store only, then "crash".
    with TelemetryStore(partial_rollup, wal=True) as rollup:
        with TelemetryStore(
            rebuilt._shard_store_paths()[0], wal=True
        ) as source:
            rebuilt._merge_store(source, rollup, CRAWL)
        rollup.commit()
    # Re-run the full merge: idempotent, converges to the serial digest.
    rebuilt._merge_all(CRAWL)
    rebuilt._merge_all(CRAWL)
    with TelemetryStore(partial_rollup) as store:
        assert campaign_digest(store, CRAWL) == serial.digest
    assert rebuilt.report.duplicate_rows > 0


def test_fabric_resume_completes_interrupted_run(spec, serial, tmp_path):
    """Simulated coordinator death: some shard stores full, rollup absent.

    ``run(resume=True)`` must fold the orphaned shard stores first and
    crawl only what is missing.
    """
    # Stage: run shard 0's half of the domains into a shard store, as an
    # interrupted fabric would have left it.
    population = spec.build()
    domains = [w.domain for w in population.websites]
    half = tuple(domains[: len(domains) // 2])
    store_path = str(tmp_path / "shard-00.db")
    with TelemetryStore(store_path, wal=True) as store:
        Campaign(store=store).run(subpopulation(population, half))
    fabric = CrawlFabric(
        spec,
        FabricConfig(shards=2, heartbeat_timeout_s=30.0),
        workdir=str(tmp_path),
    )
    outcome = fabric.run(resume=True)
    assert_matches_serial(fabric, outcome, serial)
    # The staged half arrived through the merge, not a re-crawl.
    assert outcome.report.chunks > 0
    assert outcome.report.rows_merged == len(domains) * len(
        population.oses
    )


# -- signal drain end to end -------------------------------------------------


@pytest.mark.slow
def test_sigint_drains_children_then_resume_finishes(tmp_path):
    """SIGINT to the coordinator propagates a drain to every shard,
    shard stores are merged (the coordinator checkpoint), the exit code
    is 130, and a --resume rerun converges to the serial result."""
    scale = 0.01
    db = str(tmp_path / "rollup.db")
    shard_dir = str(tmp_path / "shards")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    command = [
        sys.executable, "-m", "repro.cli", "study",
        "--population", CRAWL, "--scale", str(scale),
        "--shards", "2", "--db", db, "--shard-dir", shard_dir,
    ]
    process = subprocess.Popen(
        command, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    # Signal once both shards are crawling (each has opened its store),
    # however long the population build took; well short of done.
    shard_stores = [
        os.path.join(shard_dir, f"shard-{shard:02d}.db") for shard in range(2)
    ]
    deadline = time.monotonic() + 60
    while not all(os.path.exists(path) for path in shard_stores):
        if process.poll() is not None or time.monotonic() > deadline:
            process.kill()
            pytest.fail(f"shard stores never appeared: {process.communicate()}")
        time.sleep(0.05)
    process.send_signal(signal.SIGINT)
    stdout, stderr = process.communicate(timeout=120)
    assert process.returncode == 130, (stdout, stderr)
    assert "interrupted" in stderr
    # The drain checkpointed: shard stores exist and were merged.
    assert os.path.exists(db)

    completed = subprocess.run(
        command + ["--resume"], env=env,
        capture_output=True, text=True, timeout=240,
    )
    assert completed.returncode == 0, (completed.stdout, completed.stderr)

    serial_db = str(tmp_path / "serial.db")
    with TelemetryStore(serial_db, wal=True) as store:
        Campaign(store=store).run(
            PopulationSpec(population=CRAWL, scale=scale).build()
        )
        expected = campaign_digest(store, CRAWL)
    with TelemetryStore(db) as store:
        assert campaign_digest(store, CRAWL) == expected
