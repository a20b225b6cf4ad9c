"""Population training: K agents on K scenario variants, best-by-eval.

The paper trains one agent on one exploration-derived scenario.  A
population run hedges that choice: each member trains on its own
:class:`~repro.simulator.config.SimulatorConfig` variant (e.g. perturbed
throttle estimates, different buffer provisioning) with fully independent
RNG streams, every trained member is evaluated with a deterministic policy
on its own scenario, and the best evaluation reward wins.

Members are independent, so the population fans out over
:class:`repro.parallel.ParallelMap` — member seeds come from
:func:`repro.parallel.seeds.derive_seed`, a pure function of the root seed
and the member index, which makes ``workers=K`` bit-identical to
``workers=1``.

``batched=True`` selects a third, in-process execution mode: all members
step one :class:`repro.core.batched_env.BatchedEnv` together, so the
population's simulated seconds cost one fleet-vectorized
``step_second`` call per step instead of K scalar event loops.

Both modes run the same code: training is
:func:`repro.core.training.train_lockstep` — at K=1 per member through
:func:`~repro.core.training.train`, or at K members over ``BatchedEnv`` and
:class:`~repro.nn.stacked.StackedPPOAgent` — and evaluation is
:func:`_evaluate` over the same lockstep API.  With the same derived seed
streams per member, the batched results are bit-identical to ``workers=1``
(and therefore to any worker count).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.env import SimulatorEnv
from repro.core.ppo import PPOAgent, PPOConfig
from repro.core.training import (
    TrainingConfig,
    TrainingResult,
    _Single,
    train,
    train_lockstep,
)
from repro.parallel import ParallelMap, derive_seed
from repro.simulator.config import SimulatorConfig
from repro.utils.config import require_positive

__all__ = ["PopulationMember", "PopulationResult", "train_population"]


@dataclass
class PopulationMember:
    """One trained member of the population."""

    index: int
    config: SimulatorConfig
    seed: int
    training: TrainingResult
    eval_reward: float


@dataclass
class PopulationResult:
    """All members plus the evaluation winner."""

    members: list[PopulationMember]
    best_index: int

    @property
    def best(self) -> PopulationMember:
        return self.members[self.best_index]

    def eval_rewards(self) -> list[float]:
        return [m.eval_reward for m in self.members]


def _evaluate(agent, env, episodes: int) -> np.ndarray:
    """Mean deterministic episode reward per member, over the lockstep API.

    Callers load each member's *best* training checkpoint first.
    """
    totals = np.zeros(len(agent.members))
    for _ in range(episodes):
        states = env.reset_all()
        for _ in range(env.episode_steps):
            actions, _lps = agent.act_all(states, deterministic=True)
            states, rewards, done, _info = env.step_all(actions)
            totals += rewards
            if done:
                break
    return totals / episodes


def _train_member(payload, seed: int) -> tuple[TrainingResult, float]:
    """Train + evaluate one member; runs inside a pool worker.

    ``seed`` is the pool-derived member seed; the env / agent / eval RNG
    streams are split from it with :func:`derive_seed` so they stay
    decorrelated yet reproducible from (root_seed, index) alone.
    """
    index, config, training_config, ppo_config, eval_episodes = payload
    del index  # identification only; determinism comes from ``seed``
    env = SimulatorEnv(config, rng=derive_seed(seed, 0))
    agent = PPOAgent(
        env.state_dim, env.action_dim, ppo_config, rng=derive_seed(seed, 1)
    )
    result = train(agent, env, training_config)

    agent.load_state_dict(result.best_state)
    single = _Single(agent, SimulatorEnv(config, rng=derive_seed(seed, 2)))
    return result, float(_evaluate(single, single, eval_episodes)[0])


def _train_population_batched(
    variants: Sequence[SimulatorConfig],
    *,
    root_seed: int,
    training_config: TrainingConfig,
    ppo_config: PPOConfig,
    eval_episodes: int,
) -> PopulationResult:
    """All members training in lockstep on one fleet-vectorized simulator.

    The K scalar ``step_second`` loops are fused into one
    :class:`BatchedEnv` call per step and the K per-member networks into
    one :class:`~repro.nn.stacked.StackedPPOAgent` (one ``np.matmul`` per
    layer for the whole population's acting *and* updating, bit-identical
    per member — see DESIGN §17); ``train_lockstep`` and ``_evaluate`` are
    the same loops ``_train_member`` runs at K=1.
    """
    from repro.core.batched_env import BatchedEnv
    from repro.nn.stacked import StackedPPOAgent

    seeds = [derive_seed(root_seed, i) for i in range(len(variants))]
    env = BatchedEnv(variants, rngs=[derive_seed(s, 0) for s in seeds])
    stacked = StackedPPOAgent(
        env.state_dim, env.action_dim, ppo_config,
        rngs=[derive_seed(s, 1) for s in seeds],
    )
    r_max = float(training_config.steps_per_episode)
    results = train_lockstep(stacked, env, training_config, r_max)
    env.simulator.export_telemetry()

    for agent, result in zip(stacked.members, results):
        agent.load_state_dict(result.best_state)
    eval_env = BatchedEnv(variants, rngs=[derive_seed(s, 2) for s in seeds])
    eval_rewards = _evaluate(stacked, eval_env, eval_episodes)
    eval_env.simulator.export_telemetry()

    members = [
        PopulationMember(
            index=i,
            config=variants[i],
            seed=seeds[i],
            training=results[i],
            eval_reward=float(eval_rewards[i]),
        )
        for i in range(len(variants))
    ]
    return PopulationResult(members=members, best_index=int(eval_rewards.argmax()))


def train_population(
    variants: Sequence[SimulatorConfig],
    *,
    root_seed: int = 0,
    training_config: TrainingConfig | None = None,
    ppo_config: PPOConfig | None = None,
    eval_episodes: int = 8,
    workers: int = 1,
    timeout: float | None = None,
    retries: int = 0,
    batched: bool = False,
) -> PopulationResult:
    """Train one agent per scenario variant and pick the best by evaluation.

    ``workers`` follows :class:`ParallelMap` semantics (``0`` = all cores,
    ``1`` = serial).  Any member failing (crash, timeout) raises
    :class:`repro.parallel.ParallelMapError` — a population with silently
    missing members would bias the "best" selection.

    ``batched=True`` runs the whole population in-process on one
    fleet-vectorized simulator (``workers``/``timeout``/``retries`` do not
    apply) — bit-identical results, one ``step_second`` call per
    population step.
    """
    if not variants:
        raise ValueError("need at least one scenario variant")
    require_positive(eval_episodes, "eval_episodes")
    eval_episodes = int(eval_episodes)
    training_config = training_config or TrainingConfig()
    ppo_config = ppo_config or PPOConfig()
    if batched:
        return _train_population_batched(
            list(variants),
            root_seed=root_seed,
            training_config=training_config,
            ppo_config=ppo_config,
            eval_episodes=eval_episodes,
        )

    payloads = [
        (i, config, training_config, ppo_config, eval_episodes)
        for i, config in enumerate(variants)
    ]
    pool = ParallelMap(
        _train_member,
        workers=workers,
        root_seed=root_seed,
        timeout=timeout,
        retries=retries,
    )
    outcomes = pool.map(payloads)
    failures = [o for o in outcomes if not o.ok]
    if failures:
        from repro.parallel import ParallelMapError

        raise ParallelMapError(failures)

    members = [
        PopulationMember(
            index=i,
            config=variants[i],
            seed=outcome.seed,
            training=outcome.value[0],
            eval_reward=float(outcome.value[1]),
        )
        for i, outcome in enumerate(outcomes)
    ]
    rewards = np.asarray([m.eval_reward for m in members])
    best_index = int(rewards.argmax())  # ties resolve to the lowest index
    return PopulationResult(members=members, best_index=best_index)
