"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
TrainingDiverged -> 4. The builtin MemoryError maps to 5 (resource error:
the message names the command and the allocation that failed).
"""


class ConfigError(Exception):
    """Invalid configuration: unknown key, bad value, or illegal combination."""


class DataError(Exception):
    """Malformed or out-of-contract input data."""


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, message, epoch=None, batch=None, history=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.history = list(history) if history is not None else []


def bind(cls, **fields):
    """``cls(**fields)`` for every config binder: the ValueError of a class's
    own checks becomes a ConfigError (exit 2)."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
