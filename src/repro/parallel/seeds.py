"""Deterministic per-task seed derivation (SplitMix64).

Parallel sweeps must be bit-identical to their serial equivalents, which
rules out any seeding scheme that depends on *how* tasks are executed.
:func:`derive_seed` is a pure function of ``(root_seed, index)`` — the
same task always gets the same seed no matter the pool size, the dispatch
order, how many times it is retried, or whether it runs in a worker
process at all.

The mixer is SplitMix64 (Steele, Lea & Flood, "Fast Splittable
Pseudorandom Number Generators", OOPSLA 2014): the root seed is advanced
``index + 1`` times by the golden-ratio increment and finalised with the
standard 64-bit avalanche.  Consecutive indices therefore yield
statistically independent 64-bit seeds even for adversarial roots
(0, 1, 2, …), which plain ``root + index`` would not.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
# uint64 twins of the constants for :func:`spawn_keys`.
_ONE_U64, _GOLDEN_U64, _M1_U64, _M2_U64, _S30, _S27, _S31 = (
    np.array(v, dtype=np.uint64) for v in (1, _GOLDEN, _M1, _M2, 30, 27, 31)
)


def _mix(z: int) -> int:
    """SplitMix64 finaliser: full-avalanche 64-bit mixing."""
    z = ((z ^ (z >> 30)) * _M1) & _MASK64
    z = ((z ^ (z >> 27)) * _M2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(root_seed: int, index: int) -> int:
    """The seed for task ``index`` of a sweep rooted at ``root_seed``.

    Pure function of its arguments — stable across pool sizes, task
    orderings and retries.  Returns an unsigned 64-bit integer suitable
    for ``numpy.random.default_rng``.
    """
    if index < 0:
        raise ValueError(f"task index must be >= 0, got {index}")
    state = (int(root_seed) + (int(index) + 1) * _GOLDEN) & _MASK64
    return _mix(state)


def derive_seeds(root_seed: int, count: int) -> tuple[int, ...]:
    """Seeds for tasks ``0..count-1`` (convenience vector form)."""
    return tuple(derive_seed(root_seed, i) for i in range(count))


def spawn_key(root_seed: int, path: Sequence[int]) -> int:
    """Hierarchical derivation: a seed for a nested task coordinate.

    ``spawn_key(root, (i,))`` equals ``derive_seed(root, i)``; deeper
    paths re-root at each level, so a population member ``i`` can derive
    independent sub-streams ``(i, 0)``, ``(i, 1)``, … (training RNG,
    evaluation RNG) without collisions across members.
    """
    seed = int(root_seed)
    for index in path:
        seed = derive_seed(seed, index)
    return seed


def spawn_keys(root_seed, path: Sequence) -> np.ndarray:
    """Vector form of :func:`spawn_key` over uint64 arrays.

    ``root_seed`` and each ``path`` entry are python ints or integer
    arrays in ``[0, 2**64)``; they broadcast together, and each element of
    the result equals :func:`spawn_key` on the corresponding elements.
    uint64 arithmetic wraps modulo ``2**64``, which is exactly the scalar
    form's masking.
    """
    with np.errstate(over="ignore"):
        seed = np.asarray(root_seed, dtype=np.uint64)
        for index in path:
            z = np.asarray(index, dtype=np.uint64) + _ONE_U64  # a fresh buffer
            z *= _GOLDEN_U64
            z = z + seed  # broadcasts against the root
            z ^= z >> _S30
            z *= _M1_U64
            z ^= z >> _S27
            z *= _M2_U64
            z ^= z >> _S31
            seed = z
    return seed
