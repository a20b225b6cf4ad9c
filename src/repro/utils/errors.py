"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class SimulationError(ReproError):
    """The simulator or emulator reached an invalid state."""


class TransferError(ReproError):
    """A transfer engine failed (e.g. stalled without progress)."""


class ConvergenceError(ReproError):
    """An optimizer or training loop failed to converge within its budget."""


class CheckpointVersionError(ReproError):
    """A persisted checkpoint has an unsupported serialization version."""


class IntegrityError(ReproError):
    """Data-integrity accounting reached an inconsistent state."""


class RetryBudgetExhausted(ReproError):
    """A retry loop ran past its elapsed-time budget (see RetryBudget)."""


class IllegalTransitionError(ReproError):
    """An audited state machine (breaker, rollback guard) hopped illegally."""


class StoreError(ReproError):
    """The experiment results store is unusable or inconsistent."""


class BenchSchemaError(StoreError):
    """A BENCH_*.json report carries a missing or unsupported schema version."""
