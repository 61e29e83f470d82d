"""Exception types shared across the package."""

import numbers


class ConfigError(ValueError):
    """Invalid configuration or malformed input data."""


class NumericalError(RuntimeError):
    """A contrast evaluated non-finite, on a degenerate grid or sample."""


def _as_int(name: str, value) -> int:
    """value as an int; ConfigError for anything not integer-valued.  An
    integer of any size is taken as it is; the caller bounds it."""
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        try:
            if int(value) == value:
                return int(value)
        except (OverflowError, ValueError):  # inf, nan
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _as_float(name: str, value) -> float:
    """value as a float; ConfigError for anything not real, or past the float range."""
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} overflows a float") from None


def _parse_fields(record, parsers: dict, label: str) -> dict:
    """{name: parse(record[name])} over parsers; ValueError names a missing or malformed field."""
    out = {}
    for name, parse in parsers.items():
        try:
            out[name] = parse(record[name])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{label} {name!r} is missing or malformed: {exc!r}") from exc
    return out
