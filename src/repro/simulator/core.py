"""Algorithm 1: the priority-queue I/O–network dynamics simulator.

Faithful to the paper's pseudocode:

* tasks (one per scheduled thread slot) live in a time-ordered priority
  queue; popping a task checks its buffer precondition, moves a chunk if it
  can, and re-enqueues itself at ``t + d_task + ε`` while that lands before
  the horizon (the queue holds *runs* of same-stage tasks tied at one time,
  see :func:`drain_events`);
* a read task needs free sender-buffer space, a network task needs data at
  the sender *and* free receiver space, a write task needs data at the
  receiver;
* after the queue drains, per-stage byte counters are normalized by their
  finish times to produce throughputs;
* the buffer occupancies persist across calls ("update the internal
  simulator state"), which is exactly what gives the environment its
  non-trivial dynamics (Fig. 1).

Aggregate stage ceilings ``B_i`` are enforced by capping the effective
per-thread rate at ``B_i / n_i`` — with ``n_i`` threads running the stage
can never exceed its bandwidth.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import groupby

from repro import obs
from repro.simulator.config import SimulatorConfig
from repro.utils.errors import SimulationError
from repro.utils.units import bytes_per_sec_to_mbps, mbps_to_bytes_per_sec

_READ, _NETWORK, _WRITE = 0, 1, 2
STAGE_NAMES = ("read", "network", "write")

#: Histogram buckets for event-queue depth (tasks = scheduled thread slots).
_QUEUE_DEPTH_BUCKETS = (2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0)


@dataclass(frozen=True)
class StageMetrics:
    """Per-second observation returned by :meth:`IONetworkSimulator.step_second`.

    Throughputs are Mbps achieved over the simulated second; buffer values
    are bytes at the end of the second.
    """

    throughput_read: float
    throughput_network: float
    throughput_write: float
    sender_usage: float
    receiver_usage: float
    sender_free: float
    receiver_free: float
    threads: tuple[int, int, int]

    @property
    def throughputs(self) -> tuple[float, float, float]:
        """``(t_r, t_n, t_w)`` in Mbps."""
        return (self.throughput_read, self.throughput_network, self.throughput_write)


def drain_events(queue, seq, sender, receiver, moved, fin, blocked, rates, chunks, config):
    """Algorithm 1's event loop: pop runs of tasks until ``queue`` is empty.

    ``queue`` is a heap of ``(t, first_seq, stage, count)`` *runs*, consumed
    in place: ``count`` tasks of one stage, all due at ``t``, numbered
    ``first_seq … first_seq + count - 1``.  Run ranges are disjoint and
    ``seq``, the next sequence number, is above every queued one (sequence
    numbers only break ties, so any order-preserving numbering gives the
    same result).  ``sender``/``receiver`` are buffer occupancies in bytes,
    ``moved``/``fin`` the per-stage ``(read, network, write)`` bytes moved
    and last finish times, ``blocked`` the ε-retry count, and ``rates``/
    ``chunks`` the per-thread byte rates and (positive) chunk sizes of each
    stage; ``config`` supplies the horizon, ε, overhead and buffer
    capacities.

    Popping a run is popping its tasks one by one from a per-task heap of
    ``(t, seq, stage)``: no other task sorts between two members (ranges
    are disjoint), and a member's re-queued task lands at ``t_next >= t``
    with a fresh, larger ``seq``, so it sorts after the rest of its run.
    Each member still runs the per-task ``min`` chain and ``+=`` updates in
    order.  The whole-chunk members share one ``t_next`` and go back as one
    run, as do the blocked ones; each partial chunk goes back alone.  Runs
    are numbered ``seq … seq + g - 1`` in member order, so ``seq`` advances
    by one per pushed task exactly as the per-task loop's does.

    Returns the updated ``(seq, sender, receiver, moved, fin, blocked)``.
    This is the only copy of the loop: :meth:`IONetworkSimulator.step_second`
    runs a whole second through it and
    :class:`~repro.simulator.batch.BatchedSimulator` hands it the rest of a
    second once its columns stop moving in lockstep.
    """
    horizon = config.duration
    eps = config.epsilon
    overhead = config.task_overhead
    sender_cap = config.sender_buffer_capacity
    receiver_cap = config.receiver_buffer_capacity

    # Hot loop: millions of runs per training run.  Per-stage scalars
    # replace list indexing, heap functions are bound locally, and ``min``
    # unrolls to comparisons — all value-identical to the straightforward
    # form.  Within a run only its own stage acts, so its members fall into
    # three contiguous groups: whole chunks (one shared finish time),
    # partial chunks (one task each), then blocked tasks (no state change,
    # so once one member blocks the rest of the run does too).
    heappop, heappush = heapq.heappop, heapq.heappush
    rate_r, rate_n, rate_w = rates
    chunk_r, chunk_n, chunk_w = chunks
    moved_r, moved_n, moved_w = moved
    fin_r, fin_n, fin_w = fin

    while queue:
        t, _, stage, count = heappop(queue)
        done = 0
        if stage == _READ:
            while done < count and chunk_r <= sender_cap - sender:
                sender += chunk_r
                moved_r += chunk_r
                done += 1
            if done:
                finish = t + chunk_r / rate_r
                if finish > fin_r:
                    fin_r = finish
                t_next = finish + overhead
                if t_next < horizon:
                    heappush(queue, (t_next, seq, stage, done))
                    seq += done
            while done < count:
                free = sender_cap - sender
                if not free > 0.0:
                    break
                amount = chunk_r if chunk_r <= free else free
                sender += amount
                moved_r += amount
                finish = t + amount / rate_r
                if finish > fin_r:
                    fin_r = finish
                t_next = finish + overhead
                if t_next < horizon:
                    heappush(queue, (t_next, seq, stage, 1))
                    seq += 1
                done += 1
        elif stage == _NETWORK:
            while (done < count and chunk_n <= sender
                   and chunk_n <= receiver_cap - receiver):
                sender -= chunk_n
                receiver += chunk_n
                moved_n += chunk_n
                done += 1
            if done:
                finish = t + chunk_n / rate_n
                if finish > fin_n:
                    fin_n = finish
                t_next = finish + overhead
                if t_next < horizon:
                    heappush(queue, (t_next, seq, stage, done))
                    seq += done
            while done < count:
                free = receiver_cap - receiver
                if not (sender > 0.0 and free > 0.0):
                    break
                amount = chunk_n
                if sender < amount:
                    amount = sender
                if free < amount:
                    amount = free
                sender -= amount
                receiver += amount
                moved_n += amount
                finish = t + amount / rate_n
                if finish > fin_n:
                    fin_n = finish
                t_next = finish + overhead
                if t_next < horizon:
                    heappush(queue, (t_next, seq, stage, 1))
                    seq += 1
                done += 1
        else:  # _WRITE
            while done < count and chunk_w <= receiver:
                receiver -= chunk_w
                moved_w += chunk_w
                done += 1
            if done:
                finish = t + chunk_w / rate_w
                if finish > fin_w:
                    fin_w = finish
                t_next = finish + overhead
                if t_next < horizon:
                    heappush(queue, (t_next, seq, stage, done))
                    seq += done
            while done < count:
                if not receiver > 0.0:
                    break
                amount = chunk_w if chunk_w <= receiver else receiver
                receiver -= amount
                moved_w += amount
                finish = t + amount / rate_w
                if finish > fin_w:
                    fin_w = finish
                t_next = finish + overhead
                if t_next < horizon:
                    heappush(queue, (t_next, seq, stage, 1))
                    seq += 1
                done += 1
        if done < count:
            count -= done
            blocked += count
            t_next = t + eps
            if t_next < horizon:
                heappush(queue, (t_next, seq, stage, count))
                seq += count

    return (seq, sender, receiver, (moved_r, moved_n, moved_w),
            (fin_r, fin_n, fin_w), blocked)


def task_runs(tasks):
    """Per-task ``(t, seq, stage)`` entries as :func:`drain_events` runs.

    Sorts the tasks, renumbers them by rank and groups each maximal
    stretch of one stage at one time into a ``(t, first_seq, stage,
    count)`` run.  The result is sorted, hence already a valid heap, and
    every rank is below ``len(tasks)``.
    """
    runs, rank = [], 0
    for (t, stage), run in groupby(sorted(tasks), key=lambda e: (e[0], e[2])):
        count = sum(1 for _ in run)
        runs.append((t, rank, stage, count))
        rank += count
    return runs


class IONetworkSimulator:
    """Event-queue simulator of coupled read/network/write stages.

    The simulator is deterministic: identical call sequences produce
    identical metrics, which keeps offline PPO training reproducible.

    Parameters
    ----------
    config:
        Static scenario description (per-thread speeds, ceilings, buffers).
    sender_usage, receiver_usage:
        Initial staging-buffer occupancy in bytes (default empty).
    cache_rates:
        Memoize per-thread rates, chunk sizes and the initial task queue
        per clamped thread triple (default on).  The config is frozen, so
        these are pure functions of the triple; training loops revisit a
        handful of triples millions of times and the recomputation used to
        dominate :meth:`step_second` setup.  Results are bit-identical
        either way.
    """

    #: Distinct thread triples memoized before the cache resets.  Policies
    #: visit far fewer than this (≤ max_threads³ bounded by exploration);
    #: the cap only guards pathological sweeps over huge ``max_threads``.
    _RATE_CACHE_MAX = 1024

    def __init__(
        self,
        config: SimulatorConfig,
        *,
        sender_usage: float = 0.0,
        receiver_usage: float = 0.0,
        cache_rates: bool = True,
    ) -> None:
        self.config = config
        self._validate_usage(sender_usage, receiver_usage)
        self._sender_usage = float(sender_usage)
        self._receiver_usage = float(receiver_usage)
        self._elapsed = 0.0
        self.cache_rates = bool(cache_rates)
        #: (n_r, n_n, n_w) -> (rates, chunks, initial queue); see step_second.
        self._rate_cache: dict[tuple[int, int, int], tuple] = {}
        # Bound method lookup hoisted out of the per-step path.
        self._obs_active = obs.active
        #: Diagnostics of the most recent :meth:`step_second` call — how many
        #: blocked tasks re-queued after the ε back-off, and the deepest the
        #: event queue got.  Exported to :mod:`repro.obs` when enabled.
        self.last_blocked_retries = 0
        self.last_queue_peak = 0

    def _validate_usage(self, sender: float, receiver: float) -> None:
        if not (0.0 <= sender <= self.config.sender_buffer_capacity):
            raise SimulationError(f"sender usage {sender} out of range")
        if not (0.0 <= receiver <= self.config.receiver_buffer_capacity):
            raise SimulationError(f"receiver usage {receiver} out of range")

    # --------------------------------------------------------------- state
    @property
    def sender_usage(self) -> float:
        """Bytes currently staged at the sender."""
        return self._sender_usage

    @property
    def receiver_usage(self) -> float:
        """Bytes currently staged at the receiver."""
        return self._receiver_usage

    @property
    def elapsed(self) -> float:
        """Total simulated seconds so far."""
        return self._elapsed

    def reset(self, *, sender_usage: float = 0.0, receiver_usage: float = 0.0) -> None:
        """Reset buffers (and the clock) to start a fresh episode."""
        self._validate_usage(sender_usage, receiver_usage)
        self._sender_usage = float(sender_usage)
        self._receiver_usage = float(receiver_usage)
        self._elapsed = 0.0

    # ----------------------------------------------------------------- step
    def _clamp_threads(self, threads) -> tuple[int, int, int]:
        n_max = self.config.max_threads
        values = [float(n) for n in threads]
        if len(values) != 3:
            raise SimulationError(f"expected 3 thread counts, got {threads!r}")
        if not all(map(math.isfinite, values)):
            raise SimulationError(f"non-finite thread counts {threads!r}")
        clamped = tuple(int(min(n_max, max(1, round(v)))) for v in values)
        return clamped  # type: ignore[return-value]

    def step_second(self, threads) -> StageMetrics:
        """Simulate ``config.duration`` seconds under concurrency ``threads``.

        ``threads`` is any length-3 sequence ``(n_r, n_n, n_w)``; values are
        rounded and clamped to ``[1, max_threads]`` exactly as the
        production loop does (§IV-F).
        """
        cfg = self.config
        n = self._clamp_threads(threads)

        cached = self._rate_cache.get(n) if self.cache_rates else None
        if cached is None:
            # Effective per-thread byte rates with the aggregate ceiling
            # applied, the chunk each thread moves per task, and the t = 0
            # task queue (Algorithm 1, line 29) — all pure in (config, n).
            rates = [
                mbps_to_bytes_per_sec(min(tpt, bw / n_i))
                for tpt, bw, n_i in zip(cfg.tpt, cfg.bandwidth, n)
            ]
            chunks = [
                max(cfg.min_chunk_bytes, rate * cfg.chunk_seconds) for rate in rates
            ]
            # One run per stage, numbered in (read, network, write) order.
            init_queue = [
                (0.0, 0, _READ, n[_READ]),
                (0.0, n[_READ], _NETWORK, n[_NETWORK]),
                (0.0, n[_READ] + n[_NETWORK], _WRITE, n[_WRITE]),
            ]
            if self.cache_rates:
                if len(self._rate_cache) >= self._RATE_CACHE_MAX:
                    # FIFO eviction: drop the oldest triple (dict insertion
                    # order) so a sweep of cold triples cannot wipe the
                    # whole cache and with it the hot working set.
                    del self._rate_cache[next(iter(self._rate_cache))]
                self._rate_cache[n] = (rates, chunks, init_queue)
        else:
            rates, chunks, init_queue = cached

        # The initial queue is already a valid min-heap: every priority is
        # 0.0 and sequence numbers ascend, so no heapify is needed.  Each
        # task re-queues at most once per pop, so the queue never holds more
        # tasks than it starts with — the peak *is* the thread count.
        queue = init_queue.copy()
        queue_peak = n[0] + n[1] + n[2]
        _, sender, receiver, moved, fin, blocked_retries = drain_events(
            queue, queue_peak, self._sender_usage, self._receiver_usage,
            (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0, rates, chunks, cfg,
        )
        horizon = cfg.duration
        sender_cap = cfg.sender_buffer_capacity
        receiver_cap = cfg.receiver_buffer_capacity

        # Normalize throughputs by their finish times (line 37): a stage that
        # ran past the horizon gets credited over its true elapsed time.
        throughputs = [
            bytes_per_sec_to_mbps(done / (horizon if horizon >= last else last))
            for done, last in zip(moved, fin)
        ]

        self._sender_usage = sender
        self._receiver_usage = receiver
        self._elapsed += horizon
        self.last_blocked_retries = blocked_retries
        self.last_queue_peak = queue_peak
        sess = self._obs_active()
        if sess is not None:
            sess.count("sim/steps")
            sess.count("sim/blocked_retries", blocked_retries)
            sess.observe("sim/queue_peak", queue_peak, buckets=_QUEUE_DEPTH_BUCKETS)

        return StageMetrics(
            throughput_read=throughputs[_READ],
            throughput_network=throughputs[_NETWORK],
            throughput_write=throughputs[_WRITE],
            sender_usage=sender,
            receiver_usage=receiver,
            sender_free=sender_cap - sender,
            receiver_free=receiver_cap - receiver,
            threads=n,
        )
