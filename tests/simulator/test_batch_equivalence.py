"""BatchedSimulator vs IONetworkSimulator: exact equivalence sweep.

The batched engine's contract is *bit-identity*: every ``StageMetrics``
field and both diagnostics (``last_blocked_retries``, ``last_queue_peak``)
must equal the scalar oracle's exactly — ``==`` on floats, no tolerance —
across seeded random ``(threads, reset, usage)`` sequences.  The property
sweep drives both simulators through the three fig5 testbed presets
(read / network / write bottleneck), which between them exercise full
bursts, partial boundary chunks and ε-retry blocking.  The population
sweep covers the regime where columns desynchronize and the batched
engine hands rows to the scalar kernel: jittered ``fabric-ncsa-tacc``
variants restarted from empty buffers, at three handoff thresholds.
"""

import numpy as np
import pytest

import repro.simulator.batch as batch_module
from repro.emulator.presets import (
    fabric_ncsa_tacc,
    fig5_network_bottleneck,
    fig5_read_bottleneck,
    fig5_write_bottleneck,
)
from repro.simulator import (
    BatchedSimulator,
    IONetworkSimulator,
    SimulatorConfig,
    sample_scenario,
    simulator_config_from_testbed,
)

PRESETS = {
    "fig5-read": fig5_read_bottleneck,
    "fig5-network": fig5_network_bottleneck,
    "fig5-write": fig5_write_bottleneck,
}


def drive_both(config, *, steps, batch, seed, reset_every):
    """Step scalar oracles and the batched engine in lockstep; compare all."""
    rng = np.random.default_rng(seed)
    scalars = [IONetworkSimulator(config, cache_rates=True) for _ in range(batch)]
    batched = BatchedSimulator(config, batch)
    hi = config.max_threads
    for step in range(steps):
        if reset_every and step % reset_every == 0:
            snd = rng.uniform(0.0, 0.5 * config.sender_buffer_capacity, batch)
            rcv = rng.uniform(0.0, 0.5 * config.receiver_buffer_capacity, batch)
            for i, sim in enumerate(scalars):
                sim.reset(sender_usage=float(snd[i]), receiver_usage=float(rcv[i]))
            batched.reset(sender_usage=snd, receiver_usage=rcv)
        threads = rng.integers(1, hi + 1, (batch, 3))
        expected = [
            sim.step_second(tuple(int(v) for v in threads[i]))
            for i, sim in enumerate(scalars)
        ]
        got = batched.step_second(threads)
        for i, want in enumerate(expected):
            assert got.column(i) == want, f"step {step} column {i}"
            assert batched.last_blocked_retries[i] == scalars[i].last_blocked_retries
            assert batched.last_queue_peak[i] == scalars[i].last_queue_peak
        assert np.all(batched.sender_usage == [s.sender_usage for s in scalars])
        assert np.all(batched.receiver_usage == [s.receiver_usage for s in scalars])


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_equivalence_sweep_fig5_presets(name):
    """~1k sequences: 56 steps x 6 columns x 3 presets, random resets."""
    testbed = PRESETS[name]()
    config = simulator_config_from_testbed(testbed)
    drive_both(config, steps=56, batch=6, seed=sum(map(ord, name)),
               reset_every=13)


def test_equivalence_tiny_buffers_partial_storm():
    """Buffers a few chunks deep: boundary chunks and blocking dominate."""
    config = SimulatorConfig(
        tpt_read=200.0, tpt_network=150.0, tpt_write=50.0,
        bandwidth_read=2000.0, bandwidth_network=1000.0, bandwidth_write=400.0,
        sender_buffer_capacity=5e5, receiver_buffer_capacity=4e5,
        max_threads=12, label="tiny",
    )
    drive_both(config, steps=30, batch=6, seed=3, reset_every=7)


def test_equivalence_heterogeneous_configs():
    """One batch, different configs per column — fleet co-simulation shape."""
    configs = [
        simulator_config_from_testbed(PRESETS[name]())
        for name in sorted(PRESETS)
    ] * 2
    rng = np.random.default_rng(11)
    scalars = [IONetworkSimulator(c, cache_rates=True) for c in configs]
    batched = BatchedSimulator(configs)
    for step in range(25):
        threads = rng.integers(1, 31, (len(configs), 3))
        expected = [
            sim.step_second(tuple(int(v) for v in threads[i]))
            for i, sim in enumerate(scalars)
        ]
        got = batched.step_second(threads)
        for i, want in enumerate(expected):
            assert got.column(i) == want, f"step {step} column {i}"


def test_equivalence_clamps_threads_like_scalar():
    config = simulator_config_from_testbed(fig5_read_bottleneck())
    scalar = IONetworkSimulator(config)
    batched = BatchedSimulator(config, 1)
    want = scalar.step_second((0, 999, 2.4))
    got = batched.step_second(np.array([[0.0, 999.0, 2.4]]))
    assert got.column(0) == want
    assert got.threads[0].tolist() == list(want.threads)


def drive_population(configs, *, steps, seed, reset_every):
    """Heterogeneous columns, empty-buffer episode starts; compare all."""
    rng = np.random.default_rng(seed)
    scalars = [IONetworkSimulator(c, cache_rates=True) for c in configs]
    batched = BatchedSimulator(configs)
    highs = np.array([c.max_threads + 1 for c in configs])[:, None]
    for step in range(steps):
        if step % reset_every == 0:
            for sim in scalars:
                sim.reset()
            batched.reset()
        threads = rng.integers(1, highs, (len(configs), 3))
        expected = [
            sim.step_second(tuple(int(v) for v in threads[i]))
            for i, sim in enumerate(scalars)
        ]
        got = batched.step_second(threads)
        for i, want in enumerate(expected):
            assert got.column(i) == want, f"step {step} column {i}"
            assert batched.last_blocked_retries[i] == scalars[i].last_blocked_retries
            assert batched.last_queue_peak[i] == scalars[i].last_queue_peak
        assert np.all(batched.sender_usage == [s.sender_usage for s in scalars])
        assert np.all(batched.receiver_usage == [s.receiver_usage for s in scalars])
    return batched


HANDOFF_MODES = {
    "first-round": float("inf"),
    "never": 0,
    "shipped": batch_module.HANDOFF_EVENTS_PER_ROW,
}


@pytest.mark.parametrize("mode", sorted(HANDOFF_MODES))
def test_equivalence_population_fabric_jitters(monkeypatch, mode):
    """K fabric-ncsa-tacc jitters plus the preset itself, 24 steps each."""
    monkeypatch.setattr(batch_module, "HANDOFF_EVENTS_PER_ROW", HANDOFF_MODES[mode])
    base = simulator_config_from_testbed(fabric_ncsa_tacc())
    rng = np.random.default_rng(12)
    configs = [base] + [sample_scenario(rng, base=base) for _ in range(5)]
    batched = drive_population(configs, steps=24, seed=5, reset_every=10)
    if mode == "never":
        assert batched._stat_handoffs == 0
    else:
        assert batched._stat_handoffs > 0
        assert batched._stat_kernel_events > 0
