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
