"""Algorithm 2 training loop: convergence bookkeeping, best-model tracking."""

import numpy as np
import pytest

from repro.core.ppo import PPOAgent, PPOConfig
from repro.core.training import TrainingConfig, TrainingResult, train
from repro.utils.errors import ConfigError


class BanditEnv:
    """Minimal 1-step-quality env: reward = 1 - |action - target| (clipped).

    Converges in very few episodes, which keeps these tests fast while still
    exercising the full loop (reset/step/done, memory, update, convergence).
    """

    state_dim = 8
    action_dim = 3

    def __init__(self, target=(0.4, 0.2, 0.1), steps=5):
        self.target = np.asarray(target)
        self.steps = steps
        self._count = 0

    def reset(self):
        self._count = 0
        return np.zeros(8)

    def step(self, action):
        err = np.abs(np.asarray(action).reshape(-1) - self.target).mean()
        reward = float(np.clip(1.0 - err, 0.0, 1.0))
        self._count += 1
        return np.zeros(8), reward, self._count >= self.steps, {}


def tiny_agent(seed=0, **kw):
    return PPOAgent(config=PPOConfig(hidden_dim=16, policy_blocks=1, value_blocks=1, **kw),
                    rng=seed)


class TestTrainingLoop:
    def test_improves_reward(self):
        agent = tiny_agent()
        result = train(
            agent,
            BanditEnv(),
            TrainingConfig(max_episodes=300, steps_per_episode=5, stagnation_episodes=300),
            max_episode_reward=5.0,
        )
        first = result.episode_rewards[:30].mean()
        last = result.episode_rewards[-30:].mean()
        assert last > first

    def test_result_fields(self):
        result = train(
            tiny_agent(),
            BanditEnv(),
            TrainingConfig(max_episodes=50, steps_per_episode=5, stagnation_episodes=50),
            max_episode_reward=5.0,
        )
        assert isinstance(result, TrainingResult)
        assert result.episodes_run == 50
        assert len(result.episode_rewards) == 50
        assert result.best_episode >= 0
        assert result.wall_seconds > 0
        assert result.steps_per_episode == 5

    def test_best_state_is_kept(self):
        agent = tiny_agent()
        result = train(
            agent,
            BanditEnv(),
            TrainingConfig(max_episodes=60, steps_per_episode=5, stagnation_episodes=60),
            max_episode_reward=5.0,
        )
        assert result.best_reward == pytest.approx(result.episode_rewards.max())
        # best_state must load cleanly.
        agent.load_state_dict(result.best_state)

    def test_early_stop_on_stagnation_after_convergence(self):
        """Once the target is hit, `stagnation_episodes` without improvement
        ends training before max_episodes."""
        agent = tiny_agent()
        result = train(
            agent,
            BanditEnv(target=(0.5, 0.5, 0.5)),
            TrainingConfig(
                max_episodes=5000,
                steps_per_episode=5,
                convergence_threshold=0.1,  # trivially reachable
                stagnation_episodes=20,
            ),
            max_episode_reward=5.0,
        )
        assert result.converged
        assert result.episodes_run < 5000

    def test_convergence_episode_recorded(self):
        result = train(
            tiny_agent(),
            BanditEnv(),
            TrainingConfig(
                max_episodes=200, steps_per_episode=5,
                convergence_threshold=0.05, stagnation_episodes=500,
            ),
            max_episode_reward=5.0,
        )
        assert result.convergence_episode is not None
        assert result.convergence_episode <= result.best_episode or result.converged

    def test_simulated_and_online_estimates(self):
        result = train(
            tiny_agent(),
            BanditEnv(),
            TrainingConfig(max_episodes=10, steps_per_episode=5, stagnation_episodes=10),
            max_episode_reward=5.0,
        )
        assert result.simulated_seconds == 50.0
        assert result.online_training_estimate(3.0) == 150.0

    def test_simulated_seconds_counts_actual_steps_on_early_done(self):
        """Episodes that end early must not be billed the full budget."""
        result = train(
            tiny_agent(),
            BanditEnv(steps=3),  # done after 3 steps, budget allows 10
            TrainingConfig(max_episodes=10, steps_per_episode=10, stagnation_episodes=10),
            max_episode_reward=10.0,
        )
        assert result.total_steps == result.episodes_run * 3
        assert result.simulated_seconds == float(result.total_steps)
        assert result.online_training_estimate(2.0) == 2.0 * result.total_steps
        # The naive episodes × budget estimate would have overcounted:
        assert result.simulated_seconds < result.episodes_run * 10.0

    def test_progress_callback(self):
        calls = []
        train(
            tiny_agent(),
            BanditEnv(),
            TrainingConfig(max_episodes=20, steps_per_episode=5,
                           stagnation_episodes=20, log_every=5),
            max_episode_reward=5.0,
            progress=lambda ep, r, best: calls.append(ep),
        )
        assert calls == [0, 5, 10, 15]

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            TrainingConfig(max_episodes=0)
        with pytest.raises(ConfigError):
            TrainingConfig(convergence_threshold=2.0)


class TestSimulatorIntegration:
    def test_short_training_on_simulator_env(self):
        """End-to-end smoke: a short run on the real training env must
        produce sane rewards and leave the agent deployable."""
        from repro.core.env import SimulatorEnv
        from repro.simulator import SimulatorConfig

        env = SimulatorEnv(
            SimulatorConfig(
                tpt_read=80, tpt_network=160, tpt_write=200,
                bandwidth_read=1000, bandwidth_network=1000, bandwidth_write=1000,
            ),
            rng=0,
        )
        agent = tiny_agent()
        result = train(
            agent, env, TrainingConfig(max_episodes=40, stagnation_episodes=40)
        )
        assert 0.0 < result.best_reward <= result.max_episode_reward * 1.01
        action, _ = agent.act(env.reset(), deterministic=True)
        threads = env.action_to_threads(action)
        assert all(1 <= n <= 30 for n in threads)


# --------------------------------------------------------------- golden runs
# Exact bits of three short ``train()`` runs, pinned so that refactors of the
# loop (or of anything it calls) cannot shift a reward, a checkpoint or the
# observability stream without this failing.


def _sha(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _state_sha(state: dict) -> str:
    parts = []
    for net in sorted(state):
        for key in sorted(state[net]):
            parts.append(f"{net}/{key}".encode())
            parts.append(np.ascontiguousarray(state[net][key]).tobytes())
    return _sha(b"".join(parts))


def _obs_stream(run_dir, sess) -> dict:
    import json

    from repro.obs import EVENTS_FILENAME, read_events

    records = read_events(run_dir / EVENTS_FILENAME)
    spans = [r["attrs"] for r in records
             if r["type"] == "span" and r["name"] == "train/offline"]
    samples = [{k: v for k, v in r.items() if k != "type"} for r in records
               if r["type"] == "sample" and r["name"] == "train/episode"]
    blob = json.dumps({"spans": spans, "samples": samples}, sort_keys=True)
    return {
        "spans": len(spans),
        "samples": len(samples),
        "episodes": sess.registry.counter("train/episodes").value,
        "sha": _sha(blob.encode()),
    }


def _fingerprint(result: TrainingResult, obs_stream: dict, calls: list) -> dict:
    return {
        "rewards": _sha(np.ascontiguousarray(result.episode_rewards, dtype=float).tobytes()),
        "best_reward": float(result.best_reward).hex(),
        "best_episode": result.best_episode,
        "converged": result.converged,
        "convergence_episode": result.convergence_episode,
        "episodes_run": result.episodes_run,
        "total_steps": result.total_steps,
        "best_state": _state_sha(result.best_state),
        "obs": obs_stream,
        "progress": calls,
    }


def _golden_sim_config():
    from repro.simulator import SimulatorConfig

    return SimulatorConfig(
        tpt_read=80.0, tpt_network=160.0, tpt_write=200.0, max_threads=8
    )


def _golden_run(tmp_path, case: str) -> dict:
    from repro import obs
    from repro.core.discrete import DiscreteActionAdapter, DiscretePPOAgent
    from repro.core.env import SimulatorEnv

    ppo = PPOConfig(hidden_dim=16, policy_blocks=1, value_blocks=1, update_epochs=2)
    kwargs = {}
    if case == "continuous":
        # Converges at once, then stops on stagnation before the budget.
        agent = PPOAgent(config=ppo, rng=11)
        env = SimulatorEnv(_golden_sim_config(), rng=12)
        cfg = TrainingConfig(max_episodes=12, steps_per_episode=5, episodes_per_update=2,
                             convergence_threshold=0.3, stagnation_episodes=3)
    elif case == "discrete":
        # Budget exhausted without reaching the target.
        agent = DiscretePPOAgent(max_threads=8, config=ppo, rng=21)
        env = DiscreteActionAdapter(SimulatorEnv(_golden_sim_config(), rng=22))
        cfg = TrainingConfig(max_episodes=6, steps_per_episode=5, episodes_per_update=3,
                             convergence_threshold=0.95, stagnation_episodes=6)
    else:
        # Every episode ends on ``done`` before ``steps_per_episode``.
        agent = tiny_agent(seed=31, update_epochs=2)
        env = BanditEnv(steps=3)
        cfg = TrainingConfig(max_episodes=7, steps_per_episode=5, episodes_per_update=1,
                             convergence_threshold=0.5, stagnation_episodes=7, log_every=2)
        kwargs["max_episode_reward"] = 3.0
    calls: list = []
    with obs.session(tmp_path) as sess:
        result = train(
            agent, env, cfg,
            progress=lambda ep, r, best: calls.append([ep, float(r).hex(), float(best).hex()]),
            **kwargs,
        )
        sess.flush()
        stream = _obs_stream(tmp_path, sess)
    return _fingerprint(result, stream, calls)


GOLDEN = {
    "continuous": {
        "rewards": "b858362e3b39a0f9dbafef9b4d9ba4bb75383c60389ba6870a61d403e89ff2ec",
        "best_reward": "0x1.898fac214fdc2p+1",
        "best_episode": 1,
        "converged": True,
        "convergence_episode": 0,
        "episodes_run": 5,
        "total_steps": 25,
        "best_state": "27576c004a15d83607aef46085abda6eb602a63fdc2d457496b468cc63025514",
        "obs": {
            "spans": 1, "samples": 5, "episodes": 5.0,
            "sha": "458aee8efdfe560335737265c7f6384f7d2f4f2dc6d1254b12f827cc6162cc99",
        },
        "progress": [],
    },
    "discrete": {
        "rewards": "b32f09e594736647df226bdd6fe80cb4d913b3abd916ad600339e267a7b63942",
        "best_reward": "0x1.e1d6f059aebc6p+1",
        "best_episode": 5,
        "converged": False,
        "convergence_episode": None,
        "episodes_run": 6,
        "total_steps": 30,
        "best_state": "dcb0e32718828f546ead8d054fe5a6e206fbcd5eed3561a8fcd8d220b95b03a5",
        "obs": {
            "spans": 1, "samples": 6, "episodes": 6.0,
            "sha": "6fc47622a2e7753fb7a184b980ace52a4d06be247e2264bba0ff23cc81c4d9a6",
        },
        "progress": [],
    },
    "early_done": {
        "rewards": "368ac0e14ce4f494125c3532dd9dcacffa5a9741894d415c5af9effd8fdb4b75",
        "best_reward": "0x1.1e7bc75432366p+1",
        "best_episode": 2,
        "converged": True,
        "convergence_episode": 0,
        "episodes_run": 7,
        "total_steps": 21,
        "best_state": "6cb8d7e7f1a6ad51a6c4564d082836a54d441d6960b9124c808c9cebc0e4950c",
        "obs": {
            "spans": 1, "samples": 7, "episodes": 7.0,
            "sha": "c3953b689c3570ffdbda8a5527b51ab322495f57505361d45036090a993f7f0c",
        },
        "progress": [
            [0, "0x1.8901d5b533a4ap+0", "0x1.8901d5b533a4ap+0"],
            [2, "0x1.1e7bc75432366p+1", "0x1.1e7bc75432366p+1"],
            [4, "0x1.08a00548e4f52p+1", "0x1.1e7bc75432366p+1"],
            [6, "0x1.b309211981302p+0", "0x1.1e7bc75432366p+1"],
        ],
    },
}


@pytest.mark.parametrize("case", ["continuous", "discrete", "early_done"])
def test_train_golden_fingerprint(tmp_path, case):
    """``train()`` is byte-stable: rewards, bookkeeping, checkpoint, obs."""
    assert _golden_run(tmp_path, case) == GOLDEN[case]
