"""The audited state machine shared by the circuit breaker and the rollback guard."""

import pytest

from repro.adapt import RollbackGuard
from repro.fleet import CircuitBreaker
from repro.utils.errors import IllegalTransitionError

ILLEGAL_HOPS = [
    pytest.param(machine, src, dst, id=f"{machine.__name__}-{src}-{dst}")
    for machine in (CircuitBreaker, RollbackGuard)
    for src in machine.states
    for dst in machine.states
    if (src, dst) not in machine.legal
]


@pytest.mark.parametrize("machine, src, dst", ILLEGAL_HOPS)
def test_every_illegal_hop_raises_and_changes_nothing(machine, src, dst):
    sm = machine()
    sm.state = src
    with pytest.raises(IllegalTransitionError, match=f"{src} -> {dst}"):
        sm.transition(dst, 0.0, "bug")
    assert sm.state == src and sm.transitions == []
