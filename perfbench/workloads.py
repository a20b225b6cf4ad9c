"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

Every workload is split the same way:

* ``make_inputs(seed)`` derives every input from the benchmark seed — scenario
  variants, datasets, fault and drift schedules, fleet requests.  It runs
  during set-up, never inside the timer, and the same seed always gives the
  same inputs (``inputs_digest`` proves it).
* ``setup(inputs)`` adds what every pass reuses (for ``deploy``: the trained
  production policy, at a fixed seed and budget independent of ``seed``).
* ``run_pass(ctxs, scratch)`` runs the workload once through the public API
  and returns a :class:`PassResult`: ops attempted and failed, the work count
  its throughput is measured in, a deterministic quality figure, the
  detail metrics and a sha256 fingerprint of the deterministic outputs.

A pass repeats identical work (the same inputs), so every pass of one run
must produce the same fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.adapt import AdaptConfig, AdaptiveController, SafetyEnvelope
from repro.core.agent import AutoMDT
from repro.core.population import train_population
from repro.core.training import TrainingConfig
from repro.emulator.faults import BandwidthRamp, DataCorruption, FaultSchedule, StorageStall
from repro.emulator.presets import fabric_ncsa_tacc
from repro.emulator.testbed import Testbed
from repro.fleet import FleetConfig, FleetScheduler, JobFaultProfile, TenantSpec, TransferRequest
from repro.fleet.scheduler import fleet_report_fingerprint
from repro.parallel.seeds import derive_seed, spawn_key
from repro.simulator.scenarios import sample_scenario, simulator_config_from_testbed
from repro.transfer.engine import EngineConfig, ModularTransferEngine
from repro.transfer.files import uniform_dataset
from repro.transfer.guarded import GuardedController
from repro.transfer.integrity import IntegrityConfig, VerifiedTransfer
from repro.transfer.supervisor import SupervisorConfig, TransferSupervisor
from repro.workloads.datasets import mixed_dataset

from stats import median, percentile_metrics

WORKLOADS = ("train", "population", "deploy", "fleet")

#: Never stop on stagnation: run length must not depend on convergence.
NO_STAGNATION = 10**9
EXPLORE_SECONDS = 120.0
TRAIN_EPISODES = 50  # per part
POPULATION_MEMBERS = 8
POPULATION_EPISODES = 4
POPULATION_EVAL_EPISODES = 1
DEPLOY_REQUESTS = 50  # per part
DEPLOY_FAULTED = 17  # of DEPLOY_REQUESTS: corruption + read stall
DEPLOY_DRIFTING = 10  # of DEPLOY_REQUESTS: bandwidth ramp
DEPLOY_POLICY_SEED = 2025
DEPLOY_POLICY_EPISODES = 24
DEPLOY_CHUNK_BYTES = 4e6
FLEET_REQUESTS = 256
FLEET_TENANTS = 4


@dataclass
class PassResult:
    """What one pass of a workload did, and whether its outputs were right."""

    attempted: int
    failed: int
    work: int  # units the throughput is counted in
    quality: float  # deterministic quality figure in (0, 1], higher is better
    fingerprint: str
    details: dict = field(default_factory=dict)
    op_ms: list = field(default_factory=list)  # per-request latency (deploy)
    problems: list = field(default_factory=list)


def _sha256(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


# ------------------------------------------------------------------- train
def train_inputs(seed: int) -> dict:
    return {
        "pipeline_seed": derive_seed(seed, 0),
        "testbed_seed": derive_seed(seed, 1),
        "episodes": TRAIN_EPISODES,
    }


def train_part(ctx: dict, scratch: Path) -> PassResult:
    """Explore on the FABRIC NCSA-TACC testbed, then Algorithm 2 offline."""
    config = TrainingConfig(max_episodes=ctx["episodes"], stagnation_episodes=NO_STAGNATION)
    automdt = AutoMDT(seed=ctx["pipeline_seed"], training_config=config)
    automdt.explore(Testbed(fabric_ncsa_tacc(), rng=ctx["testbed_seed"]), duration=EXPLORE_SECONDS)
    result = automdt.train_offline()
    rewards = np.asarray(result.episode_rewards, dtype=float)
    problems = []
    failed = int(np.count_nonzero(~np.isfinite(rewards))) + max(0, ctx["episodes"] - rewards.size)
    if failed:
        problems.append(f"train: {failed} episodes missing or non-finite")
    best_frac = result.best_reward / result.max_episode_reward
    return PassResult(
        attempted=ctx["episodes"],
        failed=failed,
        work=int(rewards.size),
        quality=float(best_frac),
        fingerprint=_sha256([rewards.tobytes(), result.best_reward, result.best_episode]),
        details={"best_reward_frac": float(best_frac)},
        problems=problems,
    )


# -------------------------------------------------------------- population
def population_inputs(seed: int) -> dict:
    base = simulator_config_from_testbed(fabric_ncsa_tacc())
    rng = np.random.default_rng(spawn_key(seed, (1,)))
    return {
        "variants": [sample_scenario(rng, base=base) for _ in range(POPULATION_MEMBERS)],
        "root_seed": derive_seed(seed, 2),
        "episodes": POPULATION_EPISODES,
        "eval_episodes": POPULATION_EVAL_EPISODES,
    }


def population_part(ctx: dict, scratch: Path) -> PassResult:
    """K jittered scenario variants trained in lockstep, best-by-eval."""
    result = train_population(
        ctx["variants"],
        root_seed=ctx["root_seed"],
        training_config=TrainingConfig(
            max_episodes=ctx["episodes"], stagnation_episodes=NO_STAGNATION
        ),
        eval_episodes=ctx["eval_episodes"],
        batched=True,
    )
    eval_rewards = np.asarray(result.eval_rewards(), dtype=float)
    problems = []
    failed = 0
    for member in result.members:
        rewards = np.asarray(member.training.episode_rewards, dtype=float)
        if rewards.size != ctx["episodes"] or not _finite(rewards) or not _finite(
            [member.eval_reward]
        ):
            failed += 1
    if failed:
        problems.append(f"population: {failed} members with missing or non-finite rewards")
    if result.best_index != int(np.argmax(eval_rewards)):
        problems.append("population: winner index is not the argmax of the eval rewards")
        failed = len(result.members)
    best = max(m.training.best_reward / m.training.max_episode_reward for m in result.members)
    parts = [eval_rewards.tobytes(), result.best_index]
    parts += [np.asarray(m.training.episode_rewards, dtype=float).tobytes() for m in result.members]
    return PassResult(
        attempted=len(result.members),
        failed=failed,
        work=sum(m.training.episodes_run for m in result.members),
        quality=float(best),
        fingerprint=_sha256(parts),
        details={"best_reward_frac": float(best)},
        problems=problems,
    )


# ------------------------------------------------------------------ deploy
def deploy_inputs(seed: int) -> dict:
    """A seeded stream of 10-100 GB requests, half large files, half mixed.

    Sizes are stratified (one request per 90/N GB band, in seeded order) and
    exactly :data:`DEPLOY_FAULTED` requests carry data-plane faults (in-flight
    corruption plus a read stall) and :data:`DEPLOY_DRIFTING` a per-stream
    bandwidth ramp, on seeded requests.  So every seed moves about the same
    bytes through the same mix of clean, faulted and drifting paths, and the
    seed changes which request gets what, not how much work a run is.  Fault
    windows are placed relative to the request's nominal duration on the
    25 Gbps bottleneck, so they land inside the transfer.
    """
    testbed_config = fabric_ncsa_tacc()
    bottleneck_bytes_per_s = testbed_config.bottleneck_bandwidth * 1e6 / 8
    rng = np.random.default_rng(spawn_key(seed, (3,)))
    n = DEPLOY_REQUESTS
    bands = rng.permutation(n)
    kinds = np.full(n, "clean", dtype=object)
    order = rng.permutation(n)
    kinds[order[:DEPLOY_FAULTED]] = "faulted"
    kinds[order[DEPLOY_FAULTED:DEPLOY_FAULTED + DEPLOY_DRIFTING]] = "drifting"
    requests = []
    for i in range(n):
        gigabytes = 10.0 + 90.0 * (bands[i] + float(rng.random())) / n
        if i % 2 == 0:
            dataset = uniform_dataset(max(1, round(gigabytes)), 1e9, name=f"large-{i:03d}")
        else:
            dataset = mixed_dataset(
                total_bytes=gigabytes * 1e9, rng=int(rng.integers(2**31))
            )
        nominal = dataset.total_bytes / bottleneck_bytes_per_s
        events = []
        if kinds[i] == "faulted":
            events.append(DataCorruption(
                start=float(rng.uniform(0.1, 0.5)) * nominal,
                duration=float(rng.uniform(0.2, 0.4)) * nominal,
                rate=float(rng.uniform(0.05, 0.2)),
                site="network",
            ))
            events.append(StorageStall(
                start=float(rng.uniform(0.2, 0.6)) * nominal,
                duration=float(rng.uniform(2.0, 8.0)),
                stage="read",
                factor=0.0,
            ))
        elif kinds[i] == "drifting":
            events.append(BandwidthRamp(
                start=float(rng.uniform(0.1, 0.4)) * nominal,
                duration=float(rng.uniform(2.0, 6.0)),
                to_scale=float(rng.uniform(0.4, 0.7)),
                stage="network",
                per_stream=True,
            ))
        requests.append({
            "index": i,
            "dataset": dataset,
            "events": tuple(events),
            "seed": int(derive_seed(seed, 100 + i)),
        })
    return {"requests": requests, "testbed": testbed_config}


def deploy_shared() -> dict:
    """Train the production policy, at a fixed seed and budget."""
    automdt = AutoMDT(
        seed=DEPLOY_POLICY_SEED,
        training_config=TrainingConfig(
            max_episodes=DEPLOY_POLICY_EPISODES, stagnation_episodes=NO_STAGNATION
        ),
    )
    automdt.explore(Testbed(fabric_ncsa_tacc(), rng=DEPLOY_POLICY_SEED), duration=EXPLORE_SECONDS)
    automdt.train_offline()
    return {"automdt": automdt}


def _deploy_one(ctx: dict, request: dict, run_dir: Path):
    """One request through the production stack; returns (result, ledger)."""
    testbed_config = ctx["testbed"]
    seed = request["seed"]
    testbed = Testbed(
        testbed_config,
        rng=spawn_key(seed, (1,)),
        faults=FaultSchedule(list(request["events"])) if request["events"] else None,
    )
    policy = ctx["automdt"].controller()
    adaptive = AdaptiveController(
        GuardedController(policy, max_threads=testbed_config.max_threads),
        AdaptConfig(envelope=SafetyEnvelope.from_testbed_config(testbed_config)),
        name=f"req{request['index']:03d}",
    )
    engine = ModularTransferEngine(
        testbed, request["dataset"], adaptive,
        EngineConfig(max_seconds=3600.0, seed=spawn_key(seed, (2,))),
    )
    supervisor = TransferSupervisor(engine, SupervisorConfig(seed=spawn_key(seed, (3,))))
    verified = VerifiedTransfer.for_supervisor(
        supervisor,
        run_dir,
        IntegrityConfig(
            chunk_size=DEPLOY_CHUNK_BYTES, seed=spawn_key(seed, (4,)), content_seed=seed
        ),
    )
    try:
        result = verified.run()
    finally:
        verified.journal.close()
    return result, verified.ledger


def deploy_part(ctx: dict, scratch: Path) -> PassResult:
    """Closed loop, one client: each request starts when the previous ends."""
    latencies = []
    records = []
    problems = []
    failed = 0
    verified_bytes = 0.0
    virtual_seconds = 0.0
    for request in ctx["requests"]:
        started = time.perf_counter()
        result, ledger = _deploy_one(ctx, request, scratch / f"req{request['index']:03d}")
        latencies.append((time.perf_counter() - started) * 1e3)
        total = request["dataset"].total_bytes
        ok = (
            result.completed
            and result.verified
            and not result.unrecovered_chunk_ids
            and not ledger.verify()
            and math.isclose(ledger.verified_bytes, total, rel_tol=1e-9)
        )
        if not ok:
            failed += 1
            problems.append(f"deploy: request {request['index']} not completed and verified")
        completion = result.supervised.completion_time
        verified_bytes += ledger.verified_bytes
        virtual_seconds += completion
        records.append((request["index"], round(completion, 6), bool(ok)))
    goodput_mbps = verified_bytes * 8 / 1e6 / virtual_seconds
    bottleneck = ctx["testbed"].bottleneck_bandwidth
    return PassResult(
        attempted=len(ctx["requests"]),
        failed=failed,
        work=len(ctx["requests"]),
        quality=goodput_mbps / bottleneck,
        fingerprint=_sha256(records),
        details={"goodput_mbps": goodput_mbps},
        op_ms=latencies,
        problems=problems,
    )


# ------------------------------------------------------------------- fleet
def fleet_inputs(seed: int) -> dict:
    tenants = tuple(TenantSpec(f"t{i}", max_concurrency=4) for i in range(FLEET_TENANTS))
    config = FleetConfig(
        tenants=tenants,
        seed=derive_seed(seed, 4),
        quantum=10.0,
        stall_intervals=4,
        admission_limit=FLEET_REQUESTS,
        per_tenant_queue=FLEET_REQUESTS,
        faults=JobFaultProfile(),
    )
    requests = [
        TransferRequest(tenant=f"t{i % FLEET_TENANTS}", gigabytes=1.0, name=f"r{i:03d}")
        for i in range(FLEET_REQUESTS)
    ]
    return {"config": config, "requests": requests}


def fleet_part(ctx: dict, scratch: Path) -> PassResult:
    """256 chaos-faulted 1 GB transfers over four equal tenants."""
    report = FleetScheduler(ctx["config"], ctx["requests"], scratch).run()
    problems = [f"fleet: invariant {k} failed" for k, ok in report["invariants"].items() if not ok]
    jobs = report["jobs"]
    failed = sum(
        1 for j in jobs if j["state"] != "completed" or j["unrecovered_chunks"]
    ) + max(0, len(ctx["requests"]) - len(jobs))
    if problems:
        failed = len(ctx["requests"])
    rates = [t["goodput_bytes_per_s"] for t in report["tenants"].values()]
    fairness = max(rates) / min(rates) if min(rates) > 0 else math.inf
    total_bytes = sum(j["bytes_verified"] for j in jobs)
    goodput_mbps = total_bytes * 8 / 1e6 / max(report["duration_s"], 1e-9)
    if fleet_report_fingerprint(report) != report["fingerprint"]:
        problems.append("fleet: report fingerprint does not match its contents")
    return PassResult(
        attempted=len(ctx["requests"]),
        failed=failed,
        work=int(report["rounds"]),
        quality=1.0 / fairness,
        fingerprint=report["fingerprint"],
        details={
            "goodput_mbps": goodput_mbps,
            "fairness_ratio": fairness,
        },
        problems=problems,
    )


# -------------------------------------------------------------------- table
@dataclass(frozen=True)
class Workload:
    """One workload: ``parts`` independent sub-runs, each from its own sub-seed.

    A pass runs every part once.  Several parts per pass average the
    seed-to-seed variation of the work itself, so one run's figures depend
    less on which seed a run was given.
    """

    name: str
    part_inputs: Callable[[int], dict]
    run_part: Callable[[dict, Path], PassResult]
    parts: int
    work_unit: str  # what throughput_per_s counts
    shared: Callable[[], dict] | None = None  # seed-independent set-up

    def setup(self, inputs: dict) -> list[dict]:
        """Per-part contexts: the part's inputs plus the shared set-up."""
        shared = self.shared() if self.shared else {}
        return [dict(part, **shared) for part in inputs["parts"]]

    def make_inputs(self, seed: int) -> dict:
        """Every input of one run, generated from ``seed`` alone."""
        return {"parts": [self.part_inputs(derive_seed(seed, k)) for k in range(self.parts)]}

    def run_pass(self, ctxs: list, scratch: Path) -> PassResult:
        results = []
        for k, ctx in enumerate(ctxs):
            part_dir = scratch / f"part{k}"
            part_dir.mkdir(parents=True, exist_ok=True)
            results.append(self.run_part(ctx, part_dir))
        return _merge(results)


def _merge(results: list[PassResult]) -> PassResult:
    return PassResult(
        attempted=sum(r.attempted for r in results),
        failed=sum(r.failed for r in results),
        work=sum(r.work for r in results),
        quality=float(np.mean([r.quality for r in results])),
        fingerprint=_sha256([r.fingerprint for r in results]),
        details={
            key: float(np.mean([r.details[key] for r in results])) for key in results[0].details
        },
        op_ms=[ms for r in results for ms in r.op_ms],
        problems=[p for r in results for p in r.problems],
    )


REGISTRY = {
    "train": Workload("train", train_inputs, train_part, 3, "episodes"),
    "population": Workload("population", population_inputs, population_part, 3, "member-episodes"),
    "deploy": Workload("deploy", deploy_inputs, deploy_part, 2, "transfers", deploy_shared),
    "fleet": Workload("fleet", fleet_inputs, fleet_part, 1, "rounds"),
}


def inputs_digest(inputs) -> str:
    """sha256 of a canonical rendering of a workload's generated inputs."""

    def canon(value):
        if isinstance(value, dict):
            return {str(k): canon(v) for k, v in sorted(value.items())}
        if isinstance(value, (list, tuple)):
            return [canon(v) for v in value]
        if hasattr(value, "files") and hasattr(value, "name"):  # Dataset
            return [value.name, [(f.name, f.size) for f in value.files]]
        if isinstance(value, (int, float, str, bool)) or value is None:
            return value
        return repr(value)

    return hashlib.sha256(json.dumps(canon(inputs), sort_keys=True).encode()).hexdigest()


def detail_metrics(name: str, passes: list, walls: list) -> dict:
    """The workload-specific detail metrics, from the untraced passes."""
    first = passes[0]
    wall = median(walls)
    out = {"wall_s": wall}
    if name in ("train", "population"):
        out["episodes_per_s"] = first.work / wall
        out["best_reward_frac"] = first.details["best_reward_frac"]
    if name == "deploy":
        out["transfers_per_s"] = first.work / wall
        out.update(percentile_metrics(
            [ms for p in passes for ms in p.op_ms], prefix="transfer_ms"
        ))
        out["goodput_mbps"] = first.details["goodput_mbps"]
    if name == "fleet":
        out["rounds_per_s"] = first.work / wall
        out["goodput_mbps"] = first.details["goodput_mbps"]
        out["fairness_ratio"] = first.details["fairness_ratio"]
    attempted = sum(p.attempted for p in passes)
    out["failed_frac"] = sum(p.failed for p in passes) / attempted
    return out
