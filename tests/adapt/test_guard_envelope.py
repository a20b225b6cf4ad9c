"""RollbackGuard audit-log semantics, SafetyEnvelope clamping, corrector."""

import pytest

from repro.adapt import (
    CORRECTING,
    DRIFT_SUSPECTED,
    LEGAL_TRANSITIONS,
    NOMINAL,
    ROLLED_BACK,
    ResidualCorrector,
    RollbackGuard,
    SafetyEnvelope,
    ShadowEvaluator,
    transitions_legal,
)
from repro.emulator.testbed import TestbedConfig
from repro.utils.errors import IllegalTransitionError


# ------------------------------------------------------------------- guard
def test_guard_full_lifecycle_is_legal_and_audited():
    guard = RollbackGuard(name="t")
    guard.suspect(1.0, "drift")
    guard.promote(2.0, "shadow")
    guard.rollback(3.0, "regression")
    guard.recover(4.0, "clean")
    guard.suspect(5.0, "drift")
    guard.clear(6.0, "expired")
    assert guard.state == NOMINAL
    assert guard.promotions == 1 and guard.rollbacks == 1
    assert transitions_legal(guard.transitions)
    assert [tr.to_dict()["dst"] for tr in guard.transitions] == [
        DRIFT_SUSPECTED, CORRECTING, ROLLED_BACK, NOMINAL, DRIFT_SUSPECTED, NOMINAL,
    ]


@pytest.mark.parametrize(
    "method", ["promote", "rollback", "recover", "clear"]
)
def test_guard_rejects_illegal_hops_from_nominal(method):
    guard = RollbackGuard()
    with pytest.raises(IllegalTransitionError):
        getattr(guard, method)(0.0, "illegal")
    assert guard.state == NOMINAL and not guard.transitions


def test_guard_state_codes_monotone_labels():
    guard = RollbackGuard()
    assert guard.state_code == 0
    guard.suspect(0.0, "d")
    assert guard.state_code == 1
    guard.promote(1.0, "p")
    assert guard.state_code == 2
    guard.rollback(2.0, "r")
    assert guard.state_code == 3


def test_transitions_legal_validator():
    assert transitions_legal([])
    assert transitions_legal([(NOMINAL, DRIFT_SUSPECTED), (DRIFT_SUSPECTED, CORRECTING)])
    # Illegal pair.
    assert not transitions_legal([(NOMINAL, CORRECTING)])
    # Legal pairs but a non-contiguous chain.
    assert not transitions_legal(
        [(NOMINAL, DRIFT_SUSPECTED), (CORRECTING, ROLLED_BACK)]
    )
    # Legal pair that does not start from the birth state.
    assert not transitions_legal([(DRIFT_SUSPECTED, CORRECTING)])
    assert all(pair in LEGAL_TRANSITIONS for pair in [(CORRECTING, ROLLED_BACK)])


# ---------------------------------------------------------------- envelope
def test_envelope_hard_rails_and_step_cap():
    env = SafetyEnvelope(max_threads=(10, 10, 10), max_delta_per_interval=2)
    counts: dict[str, int] = {}
    # No previous proposal: only the hard rails apply.
    assert env.clamp((40, 0, 5), None, counts) == (10, 1, 5)
    assert counts == {"read": 1, "network": 1}
    # With a previous proposal the per-interval delta cap applies first.
    assert env.clamp((9, 9, 9), (5, 5, 5), counts) == (7, 7, 7)
    assert counts["write"] == 1
    # In-envelope proposals pass through untouched.
    before = dict(counts)
    assert env.clamp((6, 6, 6), (5, 5, 5), counts) == (6, 6, 6)
    assert counts == before


def test_envelope_from_testbed_config_uses_thread_ceiling():
    config = TestbedConfig()
    env = SafetyEnvelope.from_testbed_config(config)
    limit = int(getattr(config, "max_threads", 30))
    assert env.max_threads == (limit, limit, limit)


def test_envelope_validation():
    with pytest.raises(ValueError):
        SafetyEnvelope(min_threads=(0, 1, 1))
    with pytest.raises(ValueError):
        SafetyEnvelope(max_threads=(2, 2, 2), min_threads=(3, 3, 3))


# --------------------------------------------------------------- corrector
def _warmed_evaluator() -> ShadowEvaluator:
    evaluator = ShadowEvaluator(min_probes=4)
    for _ in range(8):
        evaluator.record((5, 5, 5), (500.0, 500.0, 500.0))
    return evaluator


def test_corrector_search_is_deterministic_and_bounded():
    evaluator = _warmed_evaluator()
    model = evaluator.fit()
    corrector = ResidualCorrector(max_residual=4)
    envelope = SafetyEnvelope(max_threads=(8, 8, 8))
    first = corrector.search(evaluator, model, (5, 5, 5), envelope)
    second = corrector.search(evaluator, model, (5, 5, 5), envelope)
    assert first == second
    residual, base_score, best_score = first
    assert best_score >= base_score
    assert all(abs(r) <= 4 for r in residual)
    assert all(1 <= 5 + r <= 8 for r in residual)


def test_corrector_apply_identity_until_armed():
    corrector = ResidualCorrector()
    assert corrector.apply((5, 5, 5)) == (5, 5, 5)
    corrector.arm((2, -1, 0))
    assert corrector.apply((5, 5, 5)) == (7, 4, 5)
    corrector.disarm()
    assert corrector.apply((5, 5, 5)) == (5, 5, 5)
    assert corrector.residual == (0, 0, 0)
