"""Audited state machines: a legal-transition table, a birth state, a log.

The fleet's per-transfer :class:`~repro.fleet.breaker.CircuitBreaker` and
the online-adaptation :class:`~repro.adapt.guard.RollbackGuard` share one
pattern.  Every state hop is checked against the machine's complete set of
legal ``(src, dst)`` pairs; an illegal hop raises
:class:`~repro.utils.errors.IllegalTransitionError` before anything changes
(a control-plane bug fails loudly instead of corrupting a transfer), and a
legal one is appended to an audit log with its virtual timestamp and
reason.  :func:`transitions_legal` re-validates such a log independently,
which is the soak harness's breaker and guard invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.utils.errors import IllegalTransitionError

__all__ = ["AuditedStateMachine", "Transition", "transitions_legal"]


@dataclass(frozen=True)
class Transition:
    """One audited state hop."""

    t: float
    src: str
    dst: str
    reason: str

    def to_dict(self) -> dict:
        """JSON-friendly form for soak and fleet reports."""
        return {"t": round(self.t, 3), "src": self.src, "dst": self.dst, "reason": self.reason}


def transitions_legal(log, legal, initial: str) -> bool:
    """Independently validate a transition log.

    ``log`` holds :class:`Transition` records or ``(src, dst)`` pairs.
    Every hop must be in ``legal``, the chain must be contiguous (each hop
    starts where the previous one ended) and must start from ``initial``,
    the machine's only birth state.
    """
    previous = initial
    for hop in log:
        src, dst = (hop.src, hop.dst) if isinstance(hop, Transition) else (hop[0], hop[1])
        if src != previous or (src, dst) not in legal:
            return False
        previous = dst
    return True


class AuditedStateMachine:
    """A legal-transition state machine with an audit log.

    Subclasses set :attr:`legal` (the complete set of legal hops),
    :attr:`states` (the gauge order; the first state is the birth state)
    and :attr:`label` (names the machine in error messages).
    """

    legal: ClassVar[frozenset[tuple[str, str]]]
    states: ClassVar[tuple[str, ...]]
    label: ClassVar[str]

    def __init__(self, *, name: str = "") -> None:
        self.name = name
        self.state = self.states[0]
        self.transitions: list[Transition] = []

    def transition(self, dst: str, t: float, reason: str) -> None:
        """Hop to ``dst`` at virtual time ``t``, or raise if the hop is illegal."""
        if (self.state, dst) not in self.legal:
            raise IllegalTransitionError(
                f"{self.label} {self.name!r}: illegal transition {self.state} -> {dst} "
                f"at t={t:.1f} ({reason})"
            )
        self.transitions.append(Transition(t, self.state, dst, reason))
        self.state = dst

    @property
    def state_code(self) -> int:
        """Numeric gauge encoding: the state's index in :attr:`states`."""
        return self.states.index(self.state)
