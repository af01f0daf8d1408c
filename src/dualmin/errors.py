"""Shared exception types and the state-explosion guard."""

import os

DEFAULT_MAX_STATES = 1_000_000
MAX_STATES_ENV = "DUALMIN_MAX_STATES"


class DimensionError(ValueError):
    """Matrix/vector dimensions do not line up."""


class SemiringError(ValueError):
    """Operation not supported over the given semiring, or operands mix semirings."""


class StateGuardError(RuntimeError):
    """A construction would materialise more states than the configured bound."""


class NonCongruenceError(ValueError):
    """A partition handed to a quotient is not a congruence; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class FormatError(ValueError):
    """Malformed automaton file; `path` locates the offending field."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def resolve_max_states(value=None):
    """Effective state bound: explicit argument (--max-states), else
    DUALMIN_MAX_STATES, else default; a ValueError names a bad one's source."""
    source = "--max-states"
    if value is None:
        env = os.environ.get(MAX_STATES_ENV)
        if env is None:
            return DEFAULT_MAX_STATES
        source = MAX_STATES_ENV
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{MAX_STATES_ENV} must be an integer, not {env!r}") from None
    if value < 1:
        raise ValueError(f"{source} must be at least 1, not {value}")
    return value
