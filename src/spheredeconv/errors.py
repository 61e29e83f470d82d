"""Exception types shared across the package."""

import math
import numbers


class ConfigError(ValueError):
    """Invalid configuration or malformed input data."""


class NumericalError(RuntimeError):
    """A contrast evaluated non-finite, on a degenerate grid or sample."""


def _as_int(name: str, value) -> int:
    """value as an int; ConfigError for anything not integer-valued."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and int(value) == value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_float(name: str, value) -> float:
    """value as a float; ConfigError for anything not real, or past the float range."""
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} overflows a float") from None
