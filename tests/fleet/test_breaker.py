"""Circuit breaker: trip, cool down, probe, and the legal-transition audit."""

import pytest

from repro.fleet import (
    CLOSED,
    HALF_OPEN,
    LEGAL_TRANSITIONS,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
    transitions_legal,
)
from repro.utils.errors import IllegalTransitionError


def make(threshold=3, cooldown=30.0, probes=1):
    return CircuitBreaker(
        BreakerConfig(
            failure_threshold=threshold, cooldown=cooldown, half_open_successes=probes
        ),
        name="test",
    )


class TestStateMachine:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = make(threshold=3)
        assert breaker.record_failure(1.0) == CLOSED
        assert breaker.record_failure(2.0) == CLOSED
        assert breaker.record_failure(3.0) == OPEN
        assert breaker.times_opened == 1
        assert not breaker.allows(3.0)

    def test_success_resets_the_consecutive_count(self):
        breaker = make(threshold=2)
        breaker.record_failure(1.0)
        breaker.record_success(2.0)
        breaker.record_failure(3.0)
        assert breaker.state == CLOSED  # never two *consecutive* failures

    def test_cooldown_opens_the_probe_window(self):
        breaker = make(threshold=1, cooldown=10.0)
        breaker.record_failure(5.0)
        assert breaker.poll(14.9) == OPEN
        assert breaker.poll(15.0) == HALF_OPEN
        assert breaker.allows(15.0)

    def test_successful_probe_closes(self):
        breaker = make(threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        breaker.poll(10.0)
        assert breaker.record_success(11.0) == CLOSED

    def test_failed_probe_reopens(self):
        breaker = make(threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        breaker.poll(10.0)
        assert breaker.record_failure(11.0, "stall") == OPEN
        assert breaker.times_opened == 2
        # The next probe window counts from the re-open instant.
        assert breaker.poll(20.9) == OPEN
        assert breaker.poll(21.0) == HALF_OPEN

    def test_multiple_probe_successes_required(self):
        breaker = make(threshold=1, cooldown=5.0, probes=2)
        breaker.record_failure(0.0)
        breaker.poll(5.0)
        assert breaker.record_success(6.0) == HALF_OPEN
        assert breaker.record_success(7.0) == CLOSED

    def test_state_codes_for_gauges(self):
        breaker = make(threshold=1, cooldown=5.0)
        assert breaker.state_code == 0
        breaker.record_failure(0.0)
        assert breaker.state_code == 2
        breaker.poll(5.0)
        assert breaker.state_code == 1


class TestTransitionAudit:
    def test_full_cycle_is_legal_and_logged(self):
        breaker = make(threshold=1, cooldown=5.0)
        breaker.record_failure(1.0, "link_flap")
        breaker.poll(6.0)
        breaker.record_success(7.0)
        hops = [(tr.src, tr.dst) for tr in breaker.transitions]
        assert hops == [(CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED)]
        assert transitions_legal(breaker.transitions)
        assert breaker.transitions[0].reason == "link_flap"
        assert breaker.transitions[-1].reason == "probe_succeeded"

    def test_validator_rejects_illegal_hop(self):
        assert not transitions_legal([(CLOSED, HALF_OPEN)])
        assert not transitions_legal([(OPEN, CLOSED)])

    def test_validator_rejects_broken_chain(self):
        # Each hop legal in isolation, but the chain teleports.
        assert not transitions_legal([(CLOSED, OPEN), (HALF_OPEN, CLOSED)])

    def test_validator_rejects_wrong_birth_state(self):
        assert not transitions_legal([(OPEN, HALF_OPEN)])
        assert transitions_legal([])  # a never-tripped breaker is legal

    def test_illegal_transition_raises_immediately(self):
        breaker = make(threshold=1)
        with pytest.raises(IllegalTransitionError):
            breaker.transition(HALF_OPEN, 0.0, "bug")  # CLOSED -> HALF_OPEN

    def test_legal_set_is_exactly_the_documented_machine(self):
        assert LEGAL_TRANSITIONS == {
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED), (HALF_OPEN, OPEN)
        }
