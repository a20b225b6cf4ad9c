"""Population training: parallel bit-identical to serial, best-by-eval."""

import numpy as np
import pytest

from repro.core.population import train_population
from repro.core.ppo import PPOConfig
from repro.core.training import TrainingConfig
from repro.parallel import derive_seed
from repro.simulator import SimulatorConfig
from repro.utils.errors import ConfigError


def _variants():
    """Three scenario variants differing only in network throttle."""
    return [
        SimulatorConfig(
            tpt_read=80, tpt_network=tpt_n, tpt_write=200,
            bandwidth_read=1000, bandwidth_network=1000, bandwidth_write=1000,
            max_threads=10,
        )
        for tpt_n in (120, 160, 200)
    ]


def _run(workers):
    return train_population(
        _variants(),
        root_seed=3,
        training_config=TrainingConfig(max_episodes=24, stagnation_episodes=24),
        ppo_config=PPOConfig(hidden_dim=16, policy_blocks=1, value_blocks=1),
        eval_episodes=2,
        workers=workers,
    )


class TestPopulation:
    def test_parallel_bit_identical_to_serial(self):
        serial = _run(workers=1)
        parallel = _run(workers=2)
        assert serial.eval_rewards() == parallel.eval_rewards()
        assert serial.best_index == parallel.best_index
        for a, b in zip(serial.members, parallel.members):
            assert a.seed == b.seed
            assert a.training.total_steps == b.training.total_steps
            np.testing.assert_array_equal(
                a.training.episode_rewards, b.training.episode_rewards
            )

    def test_member_seeds_derived_from_root(self):
        result = _run(workers=1)
        assert [m.seed for m in result.members] == [
            derive_seed(3, i) for i in range(3)
        ]

    def test_best_is_eval_argmax(self):
        result = _run(workers=1)
        rewards = result.eval_rewards()
        assert result.best_index == int(np.argmax(rewards))
        assert result.best.eval_reward == max(rewards)
        assert result.best is result.members[result.best_index]

    def test_empty_variants_rejected(self):
        with pytest.raises(ValueError):
            train_population([])

    @pytest.mark.parametrize("mode", [{"workers": 1}, {"batched": True}])
    @pytest.mark.parametrize("eval_episodes", [0, -1])
    def test_non_positive_eval_episodes_rejected(self, mode, eval_episodes):
        """Both paths refuse before training, with the same typed error."""
        with pytest.raises(ConfigError, match="eval_episodes"):
            train_population(_variants(), eval_episodes=eval_episodes, **mode)
