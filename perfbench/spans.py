"""Per-layer span tracing, installed from outside the program.

The traced run wraps the public callables each layer exposes (see
:data:`LAYERS`) with a recorder that appends one span ``[layer, start, end,
parent]`` per call to an in-memory list.  Nothing under ``src/`` is edited:
methods are replaced on their class, module functions at the name their
caller looks up, and the original objects are put back by
:meth:`Tracer.restore`, which asserts that they are.

A layer's **self time** is the duration of its spans minus the time covered
by their direct child spans; the self times of all spans plus the
``unattributed`` remainder (time outside any span) add up to the traced wall
time exactly.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

import numpy as np

#: Layer name -> the callables whose calls are attributed to it.  A target is
#: ``module:Attr.path`` (class attribute or module function) or
#: ``module:DICT[key]`` (a dispatch-table entry the caller looks up).
LAYERS: dict[str, tuple[str, ...]] = {
    "simulator": (
        "repro.simulator.core:IONetworkSimulator.step_second",
        "repro.simulator.batch:BatchedSimulator.step_second",
    ),
    "core.env": (
        "repro.core.env:SimulatorEnv.step",
        "repro.core.env:SimulatorEnv.reset",
        "repro.core.batched_env:BatchedEnv.step_all",
        "repro.core.batched_env:BatchedEnv.reset_all",
    ),
    "nn.plan": (
        "repro.core.ppo:PPOAgent.act",
        "repro.core.production:AutoMDTController.propose",
    ),
    "core.ppo": ("repro.core.ppo:PPOAgent.update",),
    "autograd": ("repro.autograd.tensor:Tensor.backward",),
    "nn.optim": ("repro.nn.optim:Adam.step",),
    "nn.stacked": (
        "repro.nn.stacked:StackedPPOAgent.act_all",
        "repro.nn.stacked:StackedPPOAgent.update_all",
    ),
    "nn.init": (
        "repro.core.ppo:PPOAgent.__init__",
        "repro.nn.stacked:StackedPPOAgent.__init__",
    ),
    "emulator": ("repro.emulator.testbed:Testbed.advance",),
    "transfer.engine": ("repro.transfer.engine:ModularTransferEngine.run",),
    "transfer.guarded": ("repro.transfer.guarded:GuardedController.propose",),
    "transfer.supervisor": ("repro.transfer.supervisor:TransferSupervisor.run",),
    "transfer.integrity": (
        "repro.transfer.integrity:VerifiedTransfer.run",
        "repro.transfer.integrity:TransferManifest.from_dataset",
        "repro.transfer.integrity:DestinationLedger.sync",
        "repro.transfer.integrity:DestinationLedger.verify",
        "repro.transfer.integrity:ChunkJournal.flush",
    ),
    "utils.checksum": ("repro.transfer.integrity:_BATCH_KERNELS[crc32c]",),
    "adapt": ("repro.adapt.controller:AdaptiveController.propose",),
    "fleet.scheduler": (
        "repro.fleet.scheduler:FleetScheduler.run",
        "repro.fleet.scheduler:weighted_max_min",
        "repro.fleet.admission:AdmissionQueue.offer",
    ),
    "fleet.job": ("repro.fleet.job:FleetJob.run_slice",),
}

#: Counters read at layer boundaries, reported next to the layer times.
COUNTERS = (
    "simulator.blocked_retries",
    "simulator.queue_peak",
    "supervisor.retries",
    "integrity.chunks",
    "integrity.resent_chunks",
    "integrity.repair_rounds",
    "integrity.first_pass_frac",
    "checksum.bytes",
    "adapt.detections",
    "adapt.promotions",
    "adapt.rollbacks",
    "fleet.breaker_opens",
)


@dataclass
class _Slot:
    """One installed wrapper: where it lives and what it replaced."""

    owner: object
    key: str
    original: object
    is_dict: bool

    def current(self):
        if self.is_dict:
            return self.owner[self.key]
        return vars(self.owner)[self.key]

    def put(self, value) -> None:
        if self.is_dict:
            self.owner[self.key] = value
        else:
            setattr(self.owner, self.key, value)


def _resolve(target: str) -> tuple[object, str, bool]:
    """``module:A.b`` -> (owner, attribute, False); ``module:T[k]`` -> (dict, k, True)."""
    module_name, path = target.split(":")
    obj = importlib.import_module(module_name)
    if path.endswith("]"):
        name, key = path[:-1].split("[")
        return getattr(obj, name), key, True
    *owners, attr = path.split(".")
    for part in owners:
        obj = getattr(obj, part)
    return obj, attr, False


def self_times(spans, wall: float) -> tuple[dict[str, list], float]:
    """Per-layer ``[calls, self_s]`` and the unattributed remainder.

    ``spans`` holds ``[layer, start, end, parent_index]`` records (parent -1
    for a top-level span).  Each span's self time is its duration minus its
    direct children's durations, so the layers' self times sum to the
    top-level spans' total and ``unattributed = wall - that total``.
    """
    child_time = [0.0] * len(spans)
    top_total = 0.0
    for layer, start, end, parent in spans:
        if parent < 0:
            top_total += end - start
        else:
            child_time[parent] += end - start
    layers: dict[str, list] = {}
    for index, (layer, start, end, _parent) in enumerate(spans):
        slot = layers.setdefault(layer, [0, 0.0])
        slot[0] += 1
        slot[1] += (end - start) - child_time[index]
    return layers, wall - top_total


class Tracer:
    """Records spans around every target of :data:`LAYERS` while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._slots: list[_Slot] = []
        self.counts: dict[str, float] = {}
        self.seen: dict[str, dict[int, object]] = {}

    # ------------------------------------------------------------ recording
    def _bump(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _remember(self, kind: str, obj) -> None:
        self.seen.setdefault(kind, {})[id(obj)] = obj

    def _count_step(self, args, result) -> None:
        sim = args[0]
        self._bump("simulator.blocked_retries", float(np.sum(sim.last_blocked_retries)))
        peak = float(np.max(sim.last_queue_peak))
        previous = self.counts.get("simulator.queue_peak", 0.0)
        self.counts["simulator.queue_peak"] = max(previous, peak)

    def _count_supervisor(self, args, result) -> None:
        self._bump("supervisor.retries", result.retries_used)

    def _count_verified(self, args, result) -> None:
        self._bump("integrity.repair_rounds", result.repair_rounds)
        self._remember("ledger", args[0].ledger)

    def _count_checksum(self, args, result) -> None:
        self._bump("checksum.bytes", float(np.sum(args[2])))

    def _count_adaptive(self, args, result) -> None:
        self._remember("adaptive", args[0])

    def _count_fleet(self, args, result) -> None:
        opens = sum(job["breaker"]["times_opened"] for job in result["jobs"])
        self._bump("fleet.breaker_opens", opens)

    #: Targets whose calls also feed :data:`COUNTERS`, and the reader to run.
    _COUNTED = {
        "repro.simulator.core:IONetworkSimulator.step_second": _count_step,
        "repro.simulator.batch:BatchedSimulator.step_second": _count_step,
        "repro.transfer.supervisor:TransferSupervisor.run": _count_supervisor,
        "repro.transfer.integrity:VerifiedTransfer.run": _count_verified,
        "repro.transfer.integrity:_BATCH_KERNELS[crc32c]": _count_checksum,
        "repro.adapt.controller:AdaptiveController.propose": _count_adaptive,
        "repro.fleet.scheduler:FleetScheduler.run": _count_fleet,
    }

    def _wrap(self, layer: str, target: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        count = self._COUNTED.get(target)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    # ---------------------------------------------------------- install/undo
    def install(self) -> None:
        """Wrap every target; call :meth:`restore` to undo."""
        if self._slots:
            raise RuntimeError("tracer already installed")
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, key, is_dict = _resolve(target)
                original = owner[key] if is_dict else vars(owner)[key]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(layer, target, original.__func__))
                else:
                    wrapped = self._wrap(layer, target, original)
                slot = _Slot(owner, key, original, is_dict)
                slot.put(wrapped)
                self._slots.append(slot)

    def restore(self) -> None:
        """Put every original callable back and assert that it is back."""
        for slot in reversed(self._slots):
            slot.put(slot.original)
        for slot in self._slots:
            assert slot.current() is slot.original, f"{slot.key} was not restored"
        self._slots.clear()

    # ---------------------------------------------------------------- report
    def close_counters(self) -> None:
        """Fold end-of-pass state (ledgers, adaptation reports) into counts."""
        chunks = sends = first_pass = 0
        for ledger in self.seen.get("ledger", {}).values():
            counts = ledger.send_counts.values()
            bad = set(ledger.verify())
            chunks += len(counts)
            sends += sum(counts)
            first_pass += sum(
                1 for chunk_id, n in enumerate(counts) if n == 1 and chunk_id not in bad
            )
        self._bump("integrity.chunks", chunks)
        self._bump("integrity.resent_chunks", sends - chunks)
        self._bump("integrity.sent_chunks", sends)
        self._bump("integrity.first_pass_chunks", first_pass)
        for adaptive in self.seen.get("adaptive", {}).values():
            report = adaptive.report()
            self._bump("adapt.detections", report["detections"])
            self._bump("adapt.promotions", report["promotions"])
            self._bump("adapt.rollbacks", report["rollbacks"])
        self.seen.clear()


def layer_metrics(spans, wall: float, passes: int, counts: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``name -> (value, unit)``, per traced pass."""
    layers, unattributed = self_times(spans, wall)
    out: dict[str, tuple[float, str]] = {}
    per = 1.0 / passes
    for layer in LAYERS:
        calls, self_s = layers.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = (calls * per, "count")
        out[f"{layer}.self_s"] = (self_s * per, "s")
        out[f"{layer}.share"] = (self_s / wall if wall else 0.0, "ratio")
    out["unattributed.self_s"] = (unattributed * per, "s")
    out["unattributed.share"] = (unattributed / wall if wall else 0.0, "ratio")
    for name in COUNTERS:
        if name == "integrity.first_pass_frac":
            sent = counts.get("integrity.sent_chunks", 0)
            value = counts.get("integrity.first_pass_chunks", 0) / sent if sent else 0.0
            out[name] = (value, "ratio")
        elif name == "simulator.queue_peak":
            out[name] = (counts.get(name, 0.0), "count")
        elif name == "checksum.bytes":
            out[name] = (counts.get(name, 0.0) * per, "bytes")
        else:
            out[name] = (counts.get(name, 0.0) * per, "count")
    return out
