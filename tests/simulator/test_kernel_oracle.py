"""The run-form Algorithm-1 kernel against the per-task loop it replaced.

:func:`repro.simulator.core.drain_events` pops one heap entry per *run*
of same-stage tasks tied at one time.  The per-task loop it replaced is
embedded below verbatim (renamed :func:`oracle_drain_events`) as the
oracle: every returned value — sequence counter, buffers, per-stage moved
bytes and finish times, blocked-retry count — must match it exactly, on
whole seconds from :class:`IONetworkSimulator`, on
:class:`BatchedSimulator` rows handed to the kernel at the first eligible
round, and on a direct sweep of queue states built to hit the edge cases:
buffers smaller than one chunk (back-to-back partial chunks), zero task
overhead and tiny ε, ``t_next`` landing exactly on the horizon, preloaded
buffers, ``min_chunk_bytes``-bound chunks and cross-stage ties.

The scalar ↔ batched equivalence suite cannot catch a kernel bug on its
own: both of its sides run the same kernel.
"""

import heapq
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulator.batch as batch_module
import repro.simulator.core as core_module
from repro.emulator.presets import fabric_ncsa_tacc
from repro.simulator import (
    BatchedSimulator,
    IONetworkSimulator,
    SimulatorConfig,
    sample_scenario,
    simulator_config_from_testbed,
)
from repro.simulator.core import _NETWORK, _READ, _WRITE, drain_events, task_runs


# ----------------------------------------------- the per-task loop (oracle)
def oracle_drain_events(queue, seq, sender, receiver, moved, fin, blocked, rates, chunks, config):
    """Algorithm 1's event loop: pop tasks until ``queue`` is empty.

    ``queue`` is a heap of ``(t, seq, stage)`` tasks, consumed in place;
    ``seq`` is the next sequence number, above every queued one (sequence
    numbers only break ties, so any order-preserving numbering gives the
    same result).  ``sender``/``receiver`` are buffer occupancies in bytes,
    ``moved``/``fin`` the per-stage ``(read, network, write)`` bytes moved
    and last finish times, ``blocked`` the ε-retry count, and ``rates``/
    ``chunks`` the per-thread byte rates and chunk sizes of each stage;
    ``config`` supplies the horizon, ε, overhead and buffer capacities.

    Returns the updated ``(seq, sender, receiver, moved, fin, blocked)``.
    """
    horizon = config.duration
    eps = config.epsilon
    overhead = config.task_overhead
    sender_cap = config.sender_buffer_capacity
    receiver_cap = config.receiver_buffer_capacity

    # Hot loop: ~duration/(chunk_seconds + overhead) events per thread per
    # second, millions of seconds per training run.  Per-stage scalars
    # replace list indexing, heap functions are bound locally, and ``min``
    # unrolls to comparisons — all value-identical to the straightforward
    # form.
    heappop, heappush = heapq.heappop, heapq.heappush
    rate_r, rate_n, rate_w = rates
    chunk_r, chunk_n, chunk_w = chunks
    moved_r, moved_n, moved_w = moved
    fin_r, fin_n, fin_w = fin

    while queue:
        t, _, stage = heappop(queue)
        if stage == _READ:
            free = sender_cap - sender
            if free > 0.0:
                amount = chunk_r if chunk_r <= free else free
                sender += amount
                moved_r += amount
                finish = t + amount / rate_r
                if finish > fin_r:
                    fin_r = finish
                t_next = finish + overhead
            else:
                blocked += 1
                t_next = t + eps
        elif stage == _NETWORK:
            free = receiver_cap - receiver
            if sender > 0.0 and free > 0.0:
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
            else:
                blocked += 1
                t_next = t + eps
        else:  # _WRITE
            if receiver > 0.0:
                amount = chunk_w if chunk_w <= receiver else receiver
                receiver -= amount
                moved_w += amount
                finish = t + amount / rate_w
                if finish > fin_w:
                    fin_w = finish
                t_next = finish + overhead
            else:
                blocked += 1
                t_next = t + eps
        if t_next < horizon:
            heappush(queue, (t_next, seq, stage))
            seq += 1

    return (seq, sender, receiver, (moved_r, moved_n, moved_w),
            (fin_r, fin_n, fin_w), blocked)


def to_tasks(runs):
    """The kernel's run heap → the per-task heap the oracle pops."""
    tasks = [(t, first + k, stage)
             for t, first, stage, count in runs for k in range(count)]
    heapq.heapify(tasks)
    return tasks


def oracle_on_runs(queue, seq, *state):
    """The oracle with the kernel's signature: expands runs to tasks."""
    tasks = to_tasks(queue)
    queue.clear()
    return oracle_drain_events(tasks, seq, *state)


def both(queue, seq, *state):
    """Run kernel and oracle on the same input; assert identical results."""
    want = oracle_on_runs(list(queue), seq, *state)
    got = drain_events(queue, seq, *state)
    assert got == want
    assert queue == []
    return got


# ------------------------------------------------------------ whole seconds
class Recorder:
    """Wraps a kernel and keeps every returned tuple (the seq included)."""

    def __init__(self, kernel):
        self.kernel, self.results = kernel, []

    def __call__(self, *args):
        result = self.kernel(*args)
        self.results.append(result)
        return result


def drive_seconds(config, schedule, preload):
    """Step kernel- and oracle-driven simulators through ``schedule``."""
    sender, receiver = preload
    new_sim = IONetworkSimulator(config, sender_usage=sender, receiver_usage=receiver)
    old_sim = IONetworkSimulator(config, sender_usage=sender, receiver_usage=receiver)
    new_kernel, old_kernel = Recorder(drain_events), Recorder(oracle_on_runs)
    with pytest.MonkeyPatch.context() as patch:
        for threads in schedule:
            patch.setattr(core_module, "drain_events", new_kernel)
            got = new_sim.step_second(threads)
            patch.setattr(core_module, "drain_events", old_kernel)
            want = old_sim.step_second(threads)
            assert got == want
            assert new_sim.last_blocked_retries == old_sim.last_blocked_retries
            assert new_sim.last_queue_peak == old_sim.last_queue_peak
    assert new_kernel.results == old_kernel.results


sizes = st.floats(min_value=1e3, max_value=1e10)
configs = st.builds(
    SimulatorConfig,
    tpt_read=st.floats(1.0, 2000.0), tpt_network=st.floats(1.0, 2000.0),
    tpt_write=st.floats(1.0, 2000.0),
    bandwidth_read=st.floats(10.0, 20000.0),
    bandwidth_network=st.floats(10.0, 20000.0),
    bandwidth_write=st.floats(10.0, 20000.0),
    sender_buffer_capacity=sizes, receiver_buffer_capacity=sizes,
    max_threads=st.integers(1, 16),
    duration=st.sampled_from([1.0, 0.5]),
    chunk_seconds=st.floats(0.005, 0.2),
    min_chunk_bytes=st.floats(1.0, 4e6),
    epsilon=st.floats(0.002, 0.05),
    task_overhead=st.floats(1e-6, 0.01),
)
fractions = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=configs, data=st.data())
def test_whole_seconds_match_oracle(config, data):
    """Random configs, thread triples and preloaded buffers, 4 seconds each."""
    triple = st.tuples(*[st.integers(1, config.max_threads)] * 3)
    schedule = data.draw(st.lists(triple, min_size=1, max_size=4))
    preload = (data.draw(fractions) * config.sender_buffer_capacity,
               data.draw(fractions) * config.receiver_buffer_capacity)
    drive_seconds(config, schedule, preload)


def test_whole_seconds_edge_configs():
    """Hand-picked regimes: sub-chunk buffers, min-chunk-bound chunks, full
    preloads, and a fabric-like operating point."""
    tiny = SimulatorConfig(
        tpt_read=200.0, tpt_network=150.0, tpt_write=50.0,
        sender_buffer_capacity=3e5, receiver_buffer_capacity=2e5,
        max_threads=12,
    )
    min_chunk = SimulatorConfig(
        tpt_read=2.0, tpt_network=3.0, tpt_write=1.0,
        min_chunk_bytes=4e6, sender_buffer_capacity=1e7,
        receiver_buffer_capacity=9e6, max_threads=8,
    )
    fabric = simulator_config_from_testbed(fabric_ncsa_tacc())
    schedule = [(12, 1, 3), (1, 12, 1), (5, 5, 5), (12, 12, 12), (3, 8, 1)]
    for config in (tiny, min_chunk, fabric):
        for preload in ((0.0, 0.0),
                        (config.sender_buffer_capacity, config.receiver_buffer_capacity),
                        (0.5 * config.sender_buffer_capacity, 0.0)):
            drive_seconds(config, schedule, preload)


# ----------------------------------------------------------- batched handoff
def test_batched_first_round_handoff_matches_oracle(monkeypatch):
    """Every row leaves the vectorized rounds after the first one.

    Each handoff runs through both kernels (asserting identical results),
    and every column must match a scalar simulator driven by the oracle.
    """
    monkeypatch.setattr(batch_module, "HANDOFF_EVENTS_PER_ROW", float("inf"))
    monkeypatch.setattr(batch_module, "drain_events", both)
    monkeypatch.setattr(core_module, "drain_events", oracle_on_runs)
    base = simulator_config_from_testbed(fabric_ncsa_tacc())
    rng = np.random.default_rng(15)
    configs = [base] + [sample_scenario(rng, base=base) for _ in range(5)]
    tiny = SimulatorConfig(
        tpt_read=200.0, tpt_network=150.0, tpt_write=50.0,
        sender_buffer_capacity=3e5, receiver_buffer_capacity=2e5, max_threads=12,
    )
    configs += [tiny, tiny]
    scalars = [IONetworkSimulator(c) for c in configs]
    batched = BatchedSimulator(configs)
    highs = np.array([c.max_threads + 1 for c in configs])[:, None]
    for step in range(16):
        if step % 6 == 0:
            snd = rng.uniform(0.0, 1.0, len(configs)) * batched._cap_s
            rcv = rng.uniform(0.0, 1.0, len(configs)) * batched._cap_r
            for i, sim in enumerate(scalars):
                sim.reset(sender_usage=float(snd[i]), receiver_usage=float(rcv[i]))
            batched.reset(sender_usage=snd, receiver_usage=rcv)
        threads = rng.integers(1, highs, (len(configs), 3))
        got = batched.step_second(threads)
        for i, sim in enumerate(scalars):
            want = sim.step_second(tuple(int(v) for v in threads[i]))
            assert got.column(i) == want, f"step {step} column {i}"
            assert batched.last_blocked_retries[i] == sim.last_blocked_retries
    assert batched._stat_handoffs == 16 * len(configs)


# ------------------------------------------------------- direct queue sweep
DYADIC = [0.0, 0.0625, 0.125, 0.25, 0.375, 0.5, 0.75]

#: ``(capacity, occupancy)`` pairs where ``occupancy + (capacity -
#: occupancy) < capacity``: filling the gap leaves a float residue, so a
#: second partial chunk follows the first within one run.
RESIDUE_PAIRS = [
    (23.38513658073151, 5.398845605857042),
    (30.74775105566621, 10.061937553904004),
    (47.934806069421164, 10.78830739991287),
]


def buffers(draw, chunk):
    """A ``(capacity, occupancy)`` pair: sub-chunk to many-chunk capacity,
    empty, full or partly filled — or one of :data:`RESIDUE_PAIRS`."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(RESIDUE_PAIRS))
    cap = draw(st.one_of(st.floats(0.1, 2.0), st.floats(1.0, 2e4))) * chunk
    return cap, draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))) * cap


@st.composite
def queue_states(draw):
    """A mid-second queue, buffers and kernel parameters.

    Times and per-task durations are dyadic so ``t_next`` often lands
    exactly on the horizon; overhead may be zero and ε tiny; tasks of
    different stages tie at one time with interleaved sequence numbers.
    """
    horizon = draw(st.sampled_from([1.0, 0.5]))
    n_tasks = draw(st.integers(1, 40))
    times = draw(st.lists(st.sampled_from([t for t in DYADIC if t < horizon]),
                          min_size=n_tasks, max_size=n_tasks))
    stages = draw(st.lists(st.sampled_from([_READ, _NETWORK, _WRITE]),
                           min_size=n_tasks, max_size=n_tasks))
    seqs = draw(st.permutations(range(n_tasks)))
    tasks = list(zip(times, seqs, stages))
    chunks = [draw(st.one_of(st.sampled_from([1.0, 4.0, 1024.0]),
                             st.floats(0.5, 5e3))) for _ in range(3)]
    # Per-task duration chunk / rate: dyadic (exact horizon hits) or free.
    rates = [chunks[s] / draw(st.one_of(st.sampled_from([0.0625, 0.125, 0.25]),
                                        st.floats(1e-3, 0.5)))
             for s in range(3)]
    sender_cap, sender = buffers(draw, chunks[_READ])
    receiver_cap, receiver = buffers(draw, chunks[_WRITE])
    config = SimpleNamespace(
        duration=horizon,
        epsilon=draw(st.sampled_from([0.125, 0.0625, 1e-3, 2.5e-3])),
        task_overhead=draw(st.sampled_from([0.0, 0.0625, 0.125, 1e-4])),
        sender_buffer_capacity=sender_cap,
        receiver_buffer_capacity=receiver_cap,
    )
    moved = tuple(draw(st.sampled_from([0.0, 1e3])) for _ in range(3))
    fin = tuple(draw(st.sampled_from([0.0, 0.25, 2.0])) for _ in range(3))
    blocked = draw(st.integers(0, 5))
    return (task_runs(tasks), n_tasks + draw(st.integers(0, 3)), sender, receiver,
            moved, fin, blocked, rates, chunks, config)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(state=queue_states())
def test_kernel_matches_oracle_on_queue_states(state):
    queue, seq, *rest = state
    both(queue, seq, *rest)


def test_task_runs_split_cross_stage_ties():
    """Read, network, read tied at one instant stay three runs, in
    sequence order; expanding the runs gives back the sorted tasks."""
    tasks = [(0.0, 0, _READ), (0.0, 1, _NETWORK), (0.0, 2, _READ),
             (0.0, 3, _READ), (0.5, 4, _WRITE)]
    assert task_runs(tasks) == [(0.0, 0, _READ, 1), (0.0, 1, _NETWORK, 1),
                                (0.0, 2, _READ, 2), (0.5, 4, _WRITE, 1)]
    assert to_tasks(task_runs(tasks)) == sorted(tasks)


def test_exact_horizon_and_back_to_back_partials():
    """A 0.25 s task plus 0.25 s overhead from t = 0.5 re-queues exactly at
    the horizon (dropped); a sender buffer of 2.5 chunks yields two whole
    chunks, one partial chunk and a blocked tail within one run; a
    residue pair under a chunk larger than its gap yields two partial
    chunks back to back, then a blocked tail."""
    small, large = [4.0, 4.0, 4.0], [64.0, 4.0, 4.0]
    cases = [(10.0, 0.0, small), (10.0, 3.0, small), (10.0, 9.999999999999998, small)]
    cases += [(cap, occupancy, large) for cap, occupancy in RESIDUE_PAIRS]
    for cap, sender, chunks in cases:
        config = SimpleNamespace(duration=1.0, epsilon=0.125, task_overhead=0.25,
                                 sender_buffer_capacity=cap,
                                 receiver_buffer_capacity=10.0)
        rates = [4.0 * c for c in chunks]
        queue = [(0.0, 0, _READ, 5), (0.5, 5, _NETWORK, 3), (0.5, 8, _WRITE, 2)]
        both(queue, 10, sender, 1.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0,
             rates, chunks, config)
