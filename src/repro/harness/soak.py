"""Deterministic soak harness: seeded chaos × invariants, one runner, three kinds.

A soak runs ``cases`` seeded **cases** and asserts invariants on each.  A
case derives everything it draws — fault schedule, crash instants, drift
scenario — from ``derive_seed(root_seed, case_index)``, so it is a pure
function of its seed.  Three kinds share one runner, :func:`run_soak`, and
one renderer, :func:`render_soak_report`:

* :class:`SoakConfig` — the chaos soak: seeded data-plane faults and
  process crashes against one verified, supervised transfer;
* :class:`FleetSoakConfig` — the fleet soak: many tenants × many chaos-
  faulted transfers under one :class:`~repro.fleet.scheduler.FleetScheduler`;
* :class:`DriftSoakConfig` — the drift soak: seeded bandwidth drift
  against an :class:`~repro.adapt.AdaptiveController`.

Each config class supplies what differs between the kinds: its case
function (``run_case``), its ordered ``(invariant, flag letter)`` table, its
store kind (the report is ``{kind}_report.json``), its case-dir prefix, its
aggregate totals and its table columns.  The runner does the rest once:

* case directories — under ``out_dir`` when given (every chaos case dir is
  ``automdt verify``-able), else inside one temporary directory that is
  removed once the report is built (cases then record ``dir: null``);
* fan-out over :class:`~repro.parallel.pool.ParallelMap` — seeds are a pure
  function of ``(root_seed, case_index)``, so parallel results are
  bit-identical to serial ones;
* for kinds with a ``determinism_check`` knob, a same-seed replay of every
  case under ``<case dir>/replay`` whose fingerprint must match (the
  ``deterministic`` invariant);
* ``passed`` / ``all_passed`` / ``failed_cases``, ``config`` as the full
  :func:`dataclasses.asdict` record (a stored run can be re-run from it),
  the JSON dump and the results-store ingest.

``automdt soak``, ``automdt soak --drift`` and ``automdt fleet --soak`` are
the CLI entry points; each exits non-zero when any invariant fails.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar

import numpy as np

from repro.adapt import (
    CORRECTING,
    DRIFT_SUSPECTED,
    NOMINAL,
    AdaptConfig,
    AdaptiveController,
    SafetyEnvelope,
    transitions_legal,
)
from repro.baselines import StaticController
from repro.emulator.faults import (
    BandwidthRamp,
    DataCorruption,
    FaultSchedule,
    SilentTruncation,
    StepChange,
    StorageStall,
    TornWrite,
)
from repro.emulator.presets import fig5_read_bottleneck
from repro.emulator.testbed import Testbed
from repro.fleet import (
    FleetConfig,
    FleetScheduler,
    JobFaultProfile,
    Priority,
    TenantSpec,
    TransferRequest,
)
from repro.parallel.pool import ParallelMap
from repro.parallel.seeds import derive_seed, spawn_key
from repro.transfer.engine import EngineConfig, ModularTransferEngine
from repro.transfer.files import uniform_dataset
from repro.transfer.integrity import IntegrityConfig, VerifiedTransfer
from repro.transfer.supervisor import SupervisorConfig, TransferSupervisor
from repro.utils.config import dump_json, require_non_negative, require_positive
from repro.utils.tables import render_table

__all__ = [
    "DriftSoakConfig",
    "FleetSoakConfig",
    "SoakConfig",
    "render_soak_report",
    "run_soak",
]

#: The testbed every chaos and drift case runs on.
_TESTBED = fig5_read_bottleneck()


class _SoakKind:
    """What one soak kind hands the shared runner (class data, not config fields).

    Each kind also defines ``run_case(index, seed, case_dir)``, returning the
    case record with its ``invariants``, and ``totals(cases)``, returning the
    report's aggregate fields.
    """

    kind: ClassVar[str]  # results-store kind; the report is ``{kind}_report.json``
    case_prefix: ClassVar[str]  # case directories are ``{case_prefix}NNN``
    title: ClassVar[str]  # table title, formatted with ``n`` and the config record
    invariants: ClassVar[tuple[tuple[str, str], ...]]  # (name, flag letter), in order
    columns: ClassVar[tuple[tuple[str, Callable[[dict], object]], ...]]  # (header, cell)


def _verified_transfer(
    config, seed: int, case_dir: Path, faults: FaultSchedule, controller, name: str
) -> tuple[Testbed, VerifiedTransfer]:
    """The chaos and drift cases' stack: testbed → engine → supervisor → verified.

    ``spawn_key(seed, (3,))`` … ``(6,)`` seed the testbed, the engine, the
    supervisor and the integrity layer, in that order.
    """
    case_dir.mkdir(parents=True, exist_ok=True)
    testbed = Testbed(_TESTBED, rng=spawn_key(seed, (3,)), faults=faults)
    dataset = uniform_dataset(max(1, round(config.gigabytes * 4)), 0.25e9, name=name)
    engine = ModularTransferEngine(
        testbed,
        dataset,
        controller,
        EngineConfig(max_seconds=config.max_seconds, seed=spawn_key(seed, (4,))),
    )
    supervisor = TransferSupervisor(engine, SupervisorConfig(seed=spawn_key(seed, (5,))))
    verified = VerifiedTransfer.for_supervisor(
        supervisor,
        case_dir,
        IntegrityConfig(
            chunk_size=config.chunk_size,
            seed=spawn_key(seed, (6,)),
            content_seed=seed,
            journal_flush_every=8,
        ),
    )
    return testbed, verified


# --------------------------------------------------------------------- chaos


class _SimulatedCrash(Exception):
    """Raised by the soak observer at a scheduled crash instant."""

    def __init__(self, t: float) -> None:
        super().__init__(f"simulated crash at t={t:.1f}s")
        self.t = t


@dataclass(frozen=True)
class SoakConfig(_SoakKind):
    """Chaos-soak knobs; every case is a pure function of its derived seed.

    Each case runs one :class:`~repro.transfer.integrity.VerifiedTransfer`
    under a :class:`~repro.transfer.supervisor.TransferSupervisor`, kills it
    at the scheduled crash points (losing the journal's unflushed buffer,
    optionally leaving a torn tail), resumes with journal replay +
    verification, and then asserts the integrity invariants:

    * **all_verified** — every manifest chunk digest matches at the
      destination when the case ends;
    * **no_double_count** — journal claims cover exactly the manifest's
      chunk ids, every chunk was sent at least once, and verified bytes
      equal the dataset size exactly once (the ledger additionally raises
      :class:`~repro.utils.errors.IntegrityError` mid-run if a pass ever
      writes beyond its pending chunk set);
    * **replay_idempotent** — replaying the journal twice yields identical
      claims;
    * **conservation** — across all passes the destination durably applied
      at least the dataset size (you cannot verify bytes that never
      arrived) and the final supervised pass landed on the full byte count.
    """

    cases: int = 8
    root_seed: int = 0
    gigabytes: float = 2.0  # dataset size per case
    chunk_size: float = 32e6
    max_seconds: float = 900.0
    corruption: bool = True  # in-flight + at-rest DataCorruption
    torn_writes: bool = True
    truncation: bool = True
    crashes: bool = True  # mid-transfer process kills
    max_crashes: int = 2  # per case
    workers: int = 1  # ParallelMap fan-out (1 = serial)

    kind: ClassVar[str] = "soak"
    case_prefix: ClassVar[str] = "case"
    title: ClassVar[str] = "chaos soak — {n} case(s), root seed {root_seed}"
    invariants: ClassVar = (
        ("all_verified", "v"),
        ("no_double_count", "d"),
        ("replay_idempotent", "r"),
        ("conservation", "c"),
    )
    columns: ClassVar = (
        ("crashes", lambda c: c["crashes"]),
        ("resumed-ok", lambda c: c["resume_verified_chunks"]),
        ("resent", lambda c: len(c["resent_chunks"])),
        ("repairs", lambda c: c["repair_rounds"]),
    )

    def __post_init__(self) -> None:
        require_positive(self.cases, "cases")
        require_positive(self.gigabytes, "gigabytes")
        require_positive(self.chunk_size, "chunk_size")
        require_positive(self.max_seconds, "max_seconds")
        require_non_negative(self.max_crashes, "max_crashes")

    @classmethod
    def quick(cls, root_seed: int = 0) -> "SoakConfig":
        """The CI smoke preset: 3 small seeded cases, corruption + crashes."""
        return cls(cases=3, root_seed=root_seed, gigabytes=1.0, max_crashes=1)

    def _faults(self, seed: int) -> FaultSchedule:
        """The case's seeded data-plane fault schedule."""
        rng = np.random.default_rng(spawn_key(seed, (1,)))
        events = []
        if self.corruption:
            events.append(
                DataCorruption(
                    start=float(rng.uniform(2.0, 8.0)),
                    duration=float(rng.uniform(5.0, 15.0)),
                    rate=float(rng.uniform(0.1, 0.3)),
                    site="network",
                )
            )
            events.append(
                DataCorruption(
                    start=float(rng.uniform(10.0, 20.0)),
                    duration=1.0,
                    rate=float(rng.uniform(0.05, 0.2)),
                    site="storage",
                )
            )
        if self.torn_writes:
            events.append(TornWrite(at=float(rng.uniform(3.0, 15.0))))
        if self.truncation:
            events.append(
                SilentTruncation(
                    at=float(rng.uniform(5.0, 18.0)), chunks=1 + int(rng.integers(3))
                )
            )
        return FaultSchedule(events)

    def _crash_plan(self, seed: int) -> tuple[list[float], list[bool]]:
        """Virtual crash instants and whether each leaves a torn journal tail."""
        if not self.crashes or self.max_crashes == 0:
            return [], []
        rng = np.random.default_rng(spawn_key(seed, (2,)))
        count = 1 + int(rng.integers(self.max_crashes))
        times = sorted(float(rng.uniform(4.0, 20.0)) for _ in range(count))
        torn = [bool(rng.random() < 0.5) for _ in range(count)]
        return times, torn

    def run_case(self, index: int, seed: int, case_dir: Path) -> dict:
        testbed, verified = _verified_transfer(
            self,
            seed,
            case_dir,
            self._faults(seed),
            StaticController(_TESTBED.optimal_threads()),
            f"soak-{index:03d}",
        )
        crash_times, crash_torn = self._crash_plan(seed)
        pending = list(crash_times)

        def crasher(observation) -> None:
            if pending and observation.elapsed >= pending[0]:
                pending.pop(0)
                raise _SimulatedCrash(observation.elapsed)

        crashes_done = 0
        resumed = False
        resume_t = 0.0
        while True:
            try:
                result = verified.run(
                    resume=resumed, resume_elapsed=resume_t, observer=crasher
                )
                break
            except _SimulatedCrash as crash:
                # Process death: the journal's unflushed buffer is lost, the
                # destination (ledger) and the virtual clock survive.
                verified.journal.crash(torn_tail=crash_torn[crashes_done])
                crashes_done += 1
                resumed = True
                resume_t = crash.t
        verified.journal.flush()

        # -------------------------------------------------------- invariants
        manifest, ledger, journal = verified.manifest, verified.ledger, verified.journal
        claims = journal.replay()
        total = manifest.total_bytes
        last_pass_bytes = (
            result.supervised.attempts[-1].end_bytes if result.supervised.attempts else 0.0
        )
        invariants = {
            "all_verified": bool(result.verified and not ledger.verify()),
            "no_double_count": bool(
                set(claims) == {c.chunk_id for c in manifest.chunks}
                and all(count >= 1 for count in ledger.send_counts.values())
                and abs(ledger.verified_bytes - total) < 1.0
            ),
            "replay_idempotent": journal.replay() == claims,
            # The testbed's read counter resets per engine pass, so
            # conservation is checked on the ledger's cross-pass applied-byte
            # total: every dataset byte became durable at least once, and the
            # final pass landed exactly on the full byte count.
            "conservation": bool(
                ledger.bytes_applied_total >= total - 1.0
                and abs(last_pass_bytes - total) < 1.0
            ),
        }

        journal.close()
        manifest.save(case_dir / "manifest.json")
        ledger.save(case_dir / "destination.json")
        return {
            "completed": result.completed,
            "verified": result.verified,
            "invariants": invariants,
            "chunks_total": result.chunks_total,
            "crashes": crashes_done,
            "crash_times": crash_times[:crashes_done],
            "resume_verified_chunks": result.resumed_verified_chunks,
            "resent_chunks": sorted(set(result.resent_chunk_ids)),
            "repair_rounds": result.repair_rounds,
            "unrecovered_chunks": list(result.unrecovered_chunk_ids),
            "destination": ledger.status_counts(),
            "total_bytes": total,
            "source_read_bytes": testbed.total_read,
            "supervisor_retries": result.supervised.retries_used,
            "completion_time_s": round(result.supervised.completion_time, 1),
        }

    def totals(self, cases: list[dict]) -> dict:
        return {
            "total_crashes": sum(c["crashes"] for c in cases),
            "total_resent_chunks": sum(len(c["resent_chunks"]) for c in cases),
            "total_repair_rounds": sum(c["repair_rounds"] for c in cases),
        }


# --------------------------------------------------------------------- fleet


def _fair_goodput_ratio(report: dict) -> float:
    """max/min verified-goodput over tenants that completed work."""
    rates = [
        stats["goodput_bytes_per_s"]
        for stats in report["tenants"].values()
        if stats["completed"] > 0
    ]
    if len(rates) < 2 or min(rates) <= 0:
        return float("inf") if rates else 0.0
    return max(rates) / min(rates)


@dataclass(frozen=True)
class FleetSoakConfig(_SoakKind):
    """Fleet-level chaos soak: many tenants × many transfers per case.

    Each case builds a :class:`~repro.fleet.scheduler.FleetScheduler` over
    ``transfers`` concurrent requests spread across ``tenants`` equal-weight
    tenants, injects the usual seeded chaos (stalls, corruption, crashes)
    into every job, and checks the fleet invariants on the report:

    * **no_data_loss / all_recovered** — every admitted transfer finishes
      verified with zero unrecovered chunks;
    * **no_starvation** — every admitted job got at least one slice;
    * **capacity_respected** — no round's total allocation exceeded the
      link capacity;
    * **breaker_transitions_legal** — every circuit-breaker log re-validates
      against the legal-transition set;
    * **fair_goodput** — equal-weight tenants with identical workloads land
      within ``fairness_bound`` of each other (max/min verified-goodput);
    * **deterministic** — with ``determinism_check`` the whole case runs
      twice and the two report fingerprints must be identical.
    """

    cases: int = 4
    root_seed: int = 0
    tenants: int = 4
    transfers: int = 32
    gigabytes: float = 0.25
    quantum: float = 10.0
    max_parallel: int = 8
    horizon: float = 2400.0
    stalls: bool = True
    corruption: bool = True
    crashes: bool = True
    fairness_bound: float = 2.5
    determinism_check: bool = True
    workers: int = 1

    kind: ClassVar[str] = "fleet_soak"
    case_prefix: ClassVar[str] = "fleet"
    title: ClassVar[str] = (
        "fleet soak — {n} case(s) × {transfers} transfers / {tenants} tenants, "
        "root seed {root_seed}"
    )
    invariants: ClassVar = (
        ("no_data_loss", "l"),
        ("all_recovered", "r"),
        ("no_starvation", "s"),
        ("capacity_respected", "c"),
        ("breaker_transitions_legal", "b"),
        ("fair_goodput", "f"),
        ("deterministic", "d"),
    )
    columns: ClassVar = (
        ("done", lambda c: f"{c['completed']}/{c['admitted']}"),
        ("incidents", lambda c: c["incidents"]),
        ("crashes", lambda c: c["crashes"]),
        ("opened", lambda c: c["breakers_opened"]),
        ("fair", lambda c: f"{c['fair_goodput_ratio']:.2f}"),
    )

    def __post_init__(self) -> None:
        require_positive(self.cases, "cases")
        require_positive(self.tenants, "tenants")
        require_positive(self.transfers, "transfers")
        require_positive(self.gigabytes, "gigabytes")
        require_positive(self.quantum, "quantum")
        require_positive(self.max_parallel, "max_parallel")
        require_positive(self.horizon, "horizon")
        require_positive(self.fairness_bound, "fairness_bound")

    @classmethod
    def quick(cls, root_seed: int = 0) -> "FleetSoakConfig":
        """The CI smoke preset: one 32-transfer case across 4 tenants."""
        return cls(cases=1, root_seed=root_seed, transfers=32, tenants=4)

    def run_case(self, index: int, seed: int, case_dir: Path) -> dict:
        per_tenant = max(2, self.max_parallel // self.tenants + 1)
        fleet_config = FleetConfig(
            tenants=tuple(
                TenantSpec(f"tenant{i}", max_concurrency=per_tenant)
                for i in range(self.tenants)
            ),
            seed=seed,
            quantum=self.quantum,
            max_parallel=self.max_parallel,
            horizon=self.horizon,
            stall_intervals=4,
            admission_limit=max(64, self.transfers),
            per_tenant_queue=max(32, self.transfers),
            faults=JobFaultProfile(
                stalls=self.stalls,
                corruption=self.corruption,
                crashes=self.crashes,
                stall_probability=0.6,
                corruption_probability=0.5,
                max_crashes=1,
            ),
        )
        # Equal workloads, round-robin tenants.
        requests = [
            TransferRequest(
                tenant=f"tenant{i % self.tenants}",
                gigabytes=self.gigabytes,
                priority=Priority.BATCH,
                name=f"case{index:03d}-r{i:03d}",
            )
            for i in range(self.transfers)
        ]
        case_dir.mkdir(parents=True, exist_ok=True)
        report = FleetScheduler(fleet_config, requests, case_dir).run()
        dump_json(report, case_dir / "fleet_report.json")

        ratio = _fair_goodput_ratio(report)
        jobs = report["jobs"]
        return {
            "invariants": {
                **report["invariants"],
                "fair_goodput": bool(ratio <= self.fairness_bound),
            },
            "admitted": report["admission"]["admitted"],
            "rejected": report["admission"]["rejected"],
            "completed": sum(1 for j in jobs if j["state"] == "completed"),
            "failed": sum(1 for j in jobs if j["state"] == "failed"),
            "incidents": sum(len(j["incidents"]) for j in jobs),
            "crashes": sum(j["crashes"] for j in jobs),
            "breakers_opened": sum(j["breaker"]["times_opened"] for j in jobs),
            "unrecovered_jobs": report["unrecovered_jobs"],
            "fair_goodput_ratio": round(ratio, 3),
            "duration_s": report["duration_s"],
            "rounds": report["rounds"],
            "fingerprint": report["fingerprint"],
        }

    def totals(self, cases: list[dict]) -> dict:
        return {
            "total_incidents": sum(c["incidents"] for c in cases),
            "total_crashes": sum(c["crashes"] for c in cases),
            "total_breakers_opened": sum(c["breakers_opened"] for c in cases),
        }


# --------------------------------------------------------------------- drift

_SCENARIOS = ("network_ramp", "read_step", "rollback")

#: The physics-determined drift-case fields the case fingerprint covers.
_DRIFT_FINGERPRINT_FIELDS = (
    "scenario",
    "onset",
    "completed",
    "verified",
    "transitions",
    "detections",
    "promotions",
    "rollbacks",
    "residual",
    "supervisor_retries",
    "completion_time_s",
    "total_bytes",
)


def _drift_scenario(index: int, seed: int) -> dict:
    """The case's seeded drift scenario (pure function of the seed)."""
    rng = np.random.default_rng(spawn_key(seed, (1,)))
    kind = _SCENARIOS[index % len(_SCENARIOS)]
    # The rollback scenario needs headroom after its stall window, so its
    # drift starts early; correctable drift can start anywhere that leaves
    # the detectors their warmup.
    onset = (
        float(rng.uniform(14.0, 16.0))
        if kind == "rollback"
        else float(rng.uniform(14.0, 22.0))
    )
    severity = float(rng.uniform(0.35, 0.5))  # surviving fraction of tpt
    events: list = []
    if kind == "network_ramp":
        events.append(
            BandwidthRamp(
                start=onset,
                duration=float(rng.uniform(6.0, 10.0)),
                to_scale=severity,
                stage="network",
                per_stream=True,
            )
        )
    elif kind == "read_step":
        events.append(
            StepChange(
                start=onset, duration=1.0, to_scale=severity, stage="read", per_stream=True
            )
        )
    else:  # rollback: correctable ramp, then a hard stall mid-correction.
        events.append(
            BandwidthRamp(
                start=onset,
                duration=8.0,
                to_scale=severity,
                stage="network",
                per_stream=True,
            )
        )
        # The shadow evaluation cadence puts promotion ~12-15s after onset
        # (warmup + suspicion + shadow_every); the stall opens inside the
        # correction-hold window and outlasts the rollback watchdog's
        # three intervals.
        stall_start = onset + 18.0
        for stage in ("read", "write"):
            events.append(
                StorageStall(start=stall_start, duration=14.0, factor=0.0, stage=stage)
            )
    return {"kind": kind, "onset": onset, "severity": round(severity, 4), "events": events}


@dataclass(frozen=True)
class DriftSoakConfig(_SoakKind):
    """Drift-soak knobs; every case is a pure function of its derived seed.

    Each case derives its whole scenario — drift kind, onset, severity —
    from its seed, runs one verified, supervised transfer under an
    :class:`~repro.adapt.AdaptiveController`, and asserts the
    safe-adaptation invariants:

    * **detected** — the drift monitor moves the guard to DRIFT_SUSPECTED
      within ``latency_bound_s`` of the injected drift's onset;
    * **acted** — the expected adaptation happened: a shadow-promoted
      correction for correctable (per-stream) drift, a rollback for the
      scenario that hard-stalls the pipeline mid-correction;
    * **transitions_legal** — the :class:`~repro.adapt.guard.RollbackGuard`
      audit log re-validates against the legal-transition set;
    * **no_data_loss** — the transfer completes verified with zero
      unrecovered chunks (rollback restores guarded-controller service);
    * **restored** — the guard ends the case in NOMINAL or CORRECTING, never
      stuck in DRIFT_SUSPECTED or ROLLED_BACK;
    * **deterministic** — with ``determinism_check`` the case runs twice and
      both runs produce an identical fingerprint.

    Scenario kinds cycle with the case index:

    0. ``network_ramp`` — per-stream bandwidth ramp on the network path;
       more streams can compensate, so the corrector is expected to promote.
    1. ``read_step`` — per-stream step change on the read stage; more read
       threads compensate.
    2. ``rollback`` — the network ramp *plus* a total read+write stall
       landing inside the correction window; no thread count helps, so the
       adaptive stall watchdog must roll back to guarded control (three
       intervals, before the supervisor's five-interval stall detector).
    """

    cases: int = 6
    root_seed: int = 0
    gigabytes: float = 4.0  # dataset size per case — must outlast onset + correction
    chunk_size: float = 32e6
    max_seconds: float = 900.0
    latency_bound_s: float = 30.0  # max detection delay after drift onset
    determinism_check: bool = True
    workers: int = 1  # ParallelMap fan-out (1 = serial)

    kind: ClassVar[str] = "drift_soak"
    case_prefix: ClassVar[str] = "drift"
    title: ClassVar[str] = "drift soak — {n} case(s), root seed {root_seed}"
    invariants: ClassVar = (
        ("detected", "d"),
        ("acted", "a"),
        ("transitions_legal", "l"),
        ("no_data_loss", "s"),
        ("restored", "r"),
        ("deterministic", "f"),
    )
    columns: ClassVar = (
        ("scenario", lambda c: c["scenario"]),
        (
            "latency",
            lambda c: "-"
            if c["detection_latency_s"] is None
            else f"{c['detection_latency_s']:.1f}s",
        ),
        ("promos", lambda c: c["promotions"]),
        ("rollbacks", lambda c: c["rollbacks"]),
        ("state", lambda c: c["final_state"]),
    )

    def __post_init__(self) -> None:
        require_positive(self.cases, "cases")
        require_positive(self.gigabytes, "gigabytes")
        require_positive(self.chunk_size, "chunk_size")
        require_positive(self.max_seconds, "max_seconds")
        require_positive(self.latency_bound_s, "latency_bound_s")

    @classmethod
    def quick(cls, root_seed: int = 0) -> "DriftSoakConfig":
        """The CI smoke preset: one case of each scenario kind."""
        return cls(cases=3, root_seed=root_seed)

    def run_case(self, index: int, seed: int, case_dir: Path) -> dict:
        scenario = _drift_scenario(index, seed)
        adaptive = AdaptiveController(
            StaticController(_TESTBED.optimal_threads()),
            AdaptConfig(envelope=SafetyEnvelope.from_testbed_config(_TESTBED)),
            name=f"drift-{index:03d}",
        )
        _, verified = _verified_transfer(
            self,
            seed,
            case_dir,
            FaultSchedule(scenario["events"]),
            adaptive,
            f"drift-{index:03d}",
        )
        result = verified.run()
        verified.journal.close()

        adapt_report = adaptive.report()
        suspects = [
            tr["t"]
            for tr in adapt_report["transitions"]
            if tr["dst"] == DRIFT_SUSPECTED and tr["t"] >= scenario["onset"]
        ]
        latency = round(suspects[0] - scenario["onset"], 3) if suspects else None
        record = {
            "scenario": scenario["kind"],
            "onset": round(scenario["onset"], 3),
            "severity": scenario["severity"],
            "completed": result.completed,
            "verified": result.verified,
            "unrecovered_chunks": list(result.unrecovered_chunk_ids),
            "detection_latency_s": latency,
            "detections": adapt_report["detections"],
            "promotions": adapt_report["promotions"],
            "rollbacks": adapt_report["rollbacks"],
            "transitions": adapt_report["transitions"],
            "final_state": adapt_report["state"],
            "residual": adapt_report["residual"],
            "clamps": adapt_report["clamps"],
            "events": adapt_report["events"],
            "supervisor_retries": result.supervised.retries_used,
            "completion_time_s": round(result.supervised.completion_time, 1),
            "effective_mbps": round(result.supervised.effective_throughput, 1),
            "total_bytes": result.supervised.total_bytes,
        }
        stable = {key: record[key] for key in _DRIFT_FINGERPRINT_FIELDS}
        record["fingerprint"] = hashlib.sha256(
            json.dumps(stable, sort_keys=True).encode()
        ).hexdigest()
        expect_rollback = record["scenario"] == "rollback"
        record["invariants"] = {
            "detected": latency is not None and latency <= self.latency_bound_s,
            "acted": (
                record["rollbacks"] >= 1 if expect_rollback else record["promotions"] >= 1
            ),
            "transitions_legal": transitions_legal(
                [(tr["src"], tr["dst"]) for tr in record["transitions"]]
            ),
            "no_data_loss": bool(
                record["completed"]
                and record["verified"]
                and not record["unrecovered_chunks"]
            ),
            "restored": record["final_state"] in (NOMINAL, CORRECTING),
        }
        return record

    def totals(self, cases: list[dict]) -> dict:
        latencies = [
            c["detection_latency_s"] for c in cases if c["detection_latency_s"] is not None
        ]
        return {
            "total_detections": sum(c["detections"] for c in cases),
            "total_promotions": sum(c["promotions"] for c in cases),
            "total_rollbacks": sum(c["rollbacks"] for c in cases),
            "max_detection_latency_s": max(latencies) if latencies else None,
        }


# -------------------------------------------------------------------- runner

def _run_case(config: _SoakKind, index: int, root: Path) -> dict:
    """One case of any kind: its directory, the replay, the verdict, ``case.json``."""
    seed = derive_seed(config.root_seed, index)
    case_dir = root / f"{config.case_prefix}{index:03d}"
    record = {
        "case": index,
        "seed": seed,
        "dir": str(case_dir),
        **config.run_case(index, seed, case_dir),
    }
    if hasattr(config, "determinism_check"):
        replay = (
            config.run_case(index, seed, case_dir / "replay")
            if config.determinism_check
            else record
        )
        record["invariants"]["deterministic"] = replay["fingerprint"] == record["fingerprint"]
    record["passed"] = all(record["invariants"].values())
    dump_json(record, case_dir / "case.json")
    return record


def _record_soak_report(config: _SoakKind, report: dict) -> None:
    """Ingest a soak report into the active results store, if any.

    One run per soak: scalar report fields become plain metrics, each
    case's pass/fail becomes a labelled ``case.passed`` metric, and the
    written report file (when present) is attached as an artifact.
    """
    from repro.obs.store import flatten_numeric, record_report, resolve_store

    sink = resolve_store(None)
    if sink is None:
        return
    metrics = flatten_numeric(
        {k: v for k, v in report.items() if k not in ("cases", "config")}
    )
    labelled = [
        ("case.passed", float(case["passed"]), {"case": str(case["case"])})
        for case in report["cases"]
    ]
    artifacts = [report["report_path"]] if "report_path" in report else []
    record_report(
        config.kind,
        config.kind,
        seed=config.root_seed,
        config=report["config"],
        metrics=metrics,
        labelled_metrics=labelled,
        artifacts=artifacts,
        store=sink,
    )


def run_soak(
    config: SoakConfig | FleetSoakConfig | DriftSoakConfig | None = None,
    *,
    out_dir: str | Path | None = None,
) -> dict:
    """Run a whole soak of any kind; returns (and optionally writes) the report.

    With ``out_dir`` each case leaves its artifacts (plus ``case.json``)
    under ``out_dir/<prefix>NNN/`` and the aggregate lands in
    ``out_dir/<kind>_report.json``.  Without it the case directories live in
    one temporary directory that is removed before this returns.
    """
    config = config or SoakConfig()
    scratch = (
        nullcontext(out_dir)
        if out_dir is not None
        else tempfile.TemporaryDirectory(prefix=f"{config.kind}-")
    )
    with scratch as root:
        pool = ParallelMap(
            lambda index: _run_case(config, index, Path(root)),
            workers=max(1, config.workers),
        )
        cases = pool.map_values(list(range(config.cases)))
    if out_dir is None:
        for case in cases:
            case["dir"] = None  # removed with the temporary directory

    failures = [c["case"] for c in cases if not c["passed"]]
    report = {
        "config": dataclasses.asdict(config),
        "cases": cases,
        "all_passed": not failures,
        "failed_cases": failures,
        **config.totals(cases),
    }
    if out_dir is not None:
        path = Path(out_dir) / f"{config.kind}_report.json"
        dump_json(report, path)
        report["report_path"] = str(path)
    _record_soak_report(config, report)
    return report


def render_soak_report(report: dict, kind: type[_SoakKind]) -> str:
    """Human-readable summary of a ``kind`` soak report, for the CLI.

    ``kind`` is the config class the report was run with.
    """
    rows = [
        [
            c["case"],
            "PASS" if c["passed"] else "FAIL",
            *(cell(c) for _, cell in kind.columns),
            "".join(
                flag if c["invariants"][name] else flag.upper()
                for name, flag in kind.invariants
            ),
        ]
        for c in report["cases"]
    ]
    table = render_table(
        ["case", "result", *(header for header, _ in kind.columns), "inv"],
        rows,
        title=kind.title.format(n=len(report["cases"]), **report["config"]),
    )
    legend = " ".join(f"{flag}={name}" for name, flag in kind.invariants)
    verdict = (
        "ALL INVARIANTS HELD"
        if report["all_passed"]
        else f"FAILED cases: {report['failed_cases']}"
    )
    return f"{table}\ninv flags: {legend} (uppercase = violated)\n{verdict}\n"
