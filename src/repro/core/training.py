"""Offline PPO training, Algorithm 2 — the one training loop.

Runs episodes of ``M`` steps against an environment (normally
:class:`repro.core.env.SimulatorEnv`), performing one PPO update per
``episodes_per_update`` episodes and tracking the best episode reward.
Training stops when

* the best reward has reached ``convergence_threshold × R_max`` **and**
* no improvement has been seen for ``stagnation_episodes`` episodes

(the paper's 0.9·R_max + 1000-episode criterion), or when ``max_episodes``
is exhausted.

The loop, :func:`train_lockstep`, is written once against the lockstep API
of :class:`repro.core.batched_env.BatchedEnv` (``reset_all``/``step_all``)
and :class:`repro.nn.stacked.StackedPPOAgent` (``members``/``act_all``/
``update_all``/``set_lr_progress``): K members step together, each with its
own best/stagnation/convergence bookkeeping.  Batched population training
runs it at K members; :func:`train` runs it at K=1 through
:class:`_Single`, an adapter that still drives the caller's ``env.reset``/
``env.step`` and ``agent.act``/``agent.update``.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.ppo import PPOAgent
from repro.utils.config import require_in_range, require_positive


@dataclass(frozen=True)
class TrainingConfig:
    """Budget and convergence knobs for Algorithm 2.

    The paper uses ``max_episodes = 30000``, ``steps_per_episode = 10``,
    ``stagnation_episodes = 1000``.  Scaled-down defaults here keep a
    single-core run fast; paper-scale values are a constructor call away.
    """

    max_episodes: int = 5000
    steps_per_episode: int = 10
    episodes_per_update: int = 4
    convergence_threshold: float = 0.9
    stagnation_episodes: int = 300
    log_every: int = 0  # 0 disables progress callbacks
    seed: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        require_positive(self.max_episodes, "max_episodes")
        require_positive(self.steps_per_episode, "steps_per_episode")
        require_positive(self.episodes_per_update, "episodes_per_update")
        require_in_range(self.convergence_threshold, 0.0, 1.0, "convergence_threshold")
        require_positive(self.stagnation_episodes, "stagnation_episodes")


@dataclass
class TrainingResult:
    """Outcome of one training run."""

    episode_rewards: np.ndarray
    best_reward: float
    best_episode: int
    converged: bool
    convergence_episode: int | None
    episodes_run: int
    wall_seconds: float
    best_state: dict
    max_episode_reward: float
    steps_per_episode: int = 10
    #: environment steps actually taken; 0 in results from older checkpoints,
    #: in which case the legacy ``episodes × M`` estimate is used.
    total_steps: int = 0

    @property
    def simulated_seconds(self) -> float:
        """Virtual seconds of transfer the training consumed (1 s per step).

        Counts the steps the loop actually took — episodes ending early on
        ``done`` used to be billed for their full ``steps_per_episode``,
        overstating the simulated budget (and the online-cost estimate
        derived from it).
        """
        if self.total_steps:
            return float(self.total_steps)
        return float(self.episodes_run * self.steps_per_episode)

    def online_training_estimate(self, seconds_per_step: float = 3.0) -> float:
        """What the same training would cost *online*, in seconds (§IV).

        The paper estimates 3 s per online iteration: an online run of the
        same step budget would take ``steps × 3`` seconds (their 450,000 s
        ≈ 5 days for 15,000 × 10-step episodes).
        """
        return self.simulated_seconds * seconds_per_step


def train(
    agent: PPOAgent,
    env,
    config: TrainingConfig | None = None,
    *,
    max_episode_reward: float | None = None,
    progress: Callable[[int, float, float], None] | None = None,
) -> TrainingResult:
    """Run Algorithm 2: train ``agent`` on ``env`` until convergence.

    Parameters
    ----------
    max_episode_reward:
        The theoretical episode reward ``R_max`` for the convergence check.
        Defaults to ``steps_per_episode × 1.0``, correct for environments
        that normalize per-step rewards by the per-step ``R_max``.
    progress:
        Optional callback ``(episode, episode_reward, best_reward)`` invoked
        every ``config.log_every`` episodes.
    """
    cfg = config or TrainingConfig()
    r_max = (
        float(max_episode_reward)
        if max_episode_reward is not None
        else float(cfg.steps_per_episode)
    )
    with obs.span(
        "train/offline",
        max_episodes=cfg.max_episodes,
        steps_per_episode=cfg.steps_per_episode,
        r_max=r_max,
    ):
        sess = obs.active()

        def on_episode(_member: int, episode: int, reward: float, best: float) -> None:
            if sess is not None:
                # Reward vs R_max per episode — the convergence curve (§IV-E).
                sess.sample(
                    "train/episode",
                    t=float(episode),
                    reward=reward,
                    reward_fraction=reward / r_max if r_max else 0.0,
                    best_reward=best,
                )
                sess.count("train/episodes")
            if progress is not None and cfg.log_every and episode % cfg.log_every == 0:
                progress(episode, reward, best)

        single = _Single(agent, env)
        return train_lockstep(single, single, cfg, r_max, on_episode)[0]


class _Single:
    """One ``agent`` and its ``env`` seen through the lockstep API at K=1.

    ``mask``/``active`` are moot here: the loop stops once its one member does.
    """

    def __init__(self, agent, env) -> None:
        self.agent = agent
        self.env = env
        self.members = [agent]

    @property
    def episode_steps(self) -> int:
        return self.env.episode_steps

    def reset_all(self, mask=None) -> list:
        return [self.env.reset()]

    def step_all(self, actions) -> tuple[list, list, bool, list]:
        state, reward, done, info = self.env.step(actions[0])
        return [state], [reward], done, [info]

    def act_all(self, states, *, active=None, deterministic: bool = False):
        action, log_prob = self.agent.act(states[0], deterministic=deterministic)
        return [action], [log_prob]

    def set_lr_progress(self, fraction: float) -> None:
        self.agent.set_lr_progress(fraction)

    def update_all(self, active_indices) -> list[dict[str, float]]:
        return [self.agent.update()]


def train_lockstep(
    agent,
    env,
    cfg: TrainingConfig,
    r_max: float,
    on_episode: Callable[[int, int, float, float], None] | None = None,
) -> list[TrainingResult]:
    """Algorithm 2 for every member of ``agent``, all stepping in lockstep.

    ``agent`` exposes ``members``/``act_all``/``update_all``/
    ``set_lr_progress`` and ``env`` exposes ``reset_all``/``step_all`` over
    the same K columns.  Each member sees the call sequence a run of its own
    would: it acts, stores and updates while active; once it stops (target
    reached and ``stagnation_episodes`` without improvement) its column
    idles — no RNG draws, no stored transitions.  ``on_episode(member,
    episode, reward, best_reward)`` runs after each active member's episode
    bookkeeping.  Returns one :class:`TrainingResult` per member.
    """
    members = agent.members
    n = len(members)
    target = cfg.convergence_threshold * r_max

    rewards: list[list[float]] = [[] for _ in range(n)]
    best_reward = [-np.inf] * n
    best_episode = [-1] * n
    best_state = [member.state_dict() for member in members]
    stagnant = [0] * n
    converged = [False] * n
    convergence_episode: list[int | None] = [None] * n
    episodes_run = [0] * n
    total_steps = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    started = time.perf_counter()

    for member in members:
        member.memory.clear()
    episode = 0
    while episode < cfg.max_episodes and active.any():
        live = np.flatnonzero(active)
        states = env.reset_all(mask=active)
        episode_rewards = np.zeros(n)
        for _ in range(cfg.steps_per_episode):
            actions, log_probs = agent.act_all(states, active=active)
            next_states, step_rewards, done, _info = env.step_all(actions)
            for i in live:
                members[i].memory.store(states[i], actions[i], log_probs[i], step_rewards[i])
            total_steps[live] += 1
            states = next_states
            episode_rewards += step_rewards
            if done:
                break
        for i in live:
            members[i].memory.end_episode(members[i].config.gamma)
        # One PPO update per `episodes_per_update` collected episodes (=1
        # reproduces Algorithm 2 literally; the batched default trades a
        # slightly staler policy for far less gradient noise per update).
        if (episode + 1) % cfg.episodes_per_update == 0:
            agent.set_lr_progress(episode / cfg.max_episodes)
            agent.update_all(live)
            for i in live:
                members[i].memory.clear()

        for i in live:
            reward = float(episode_rewards[i])
            rewards[i].append(reward)
            if reward > best_reward[i]:
                best_reward[i] = reward
                best_episode[i] = episode
                best_state[i] = members[i].state_dict()
                stagnant[i] = 0
            else:
                stagnant[i] += 1
            if convergence_episode[i] is None and best_reward[i] >= target:
                convergence_episode[i] = episode
            if on_episode is not None:
                on_episode(i, episode, reward, best_reward[i])
            # Paper criterion: converged *and* 1000 stagnant episodes of
            # refinement without improvement.
            if best_reward[i] >= target and stagnant[i] >= cfg.stagnation_episodes:
                converged[i] = True
                episodes_run[i] = episode + 1
                active[i] = False
        episode += 1

    wall = time.perf_counter() - started
    for i in np.flatnonzero(active):
        episodes_run[i] = episode
        # Budget exhausted after reaching the target but before the full
        # stagnation wait: the model is usable; flag convergence anyway.
        if best_reward[i] >= target:
            converged[i] = True

    return [
        TrainingResult(
            episode_rewards=np.asarray(rewards[i]),
            best_reward=float(best_reward[i]),
            best_episode=best_episode[i],
            converged=converged[i],
            convergence_episode=convergence_episode[i],
            episodes_run=episodes_run[i],
            wall_seconds=wall,
            best_state=best_state[i],
            max_episode_reward=r_max,
            steps_per_episode=cfg.steps_per_episode,
            total_steps=int(total_steps[i]),
        )
        for i in range(n)
    ]
