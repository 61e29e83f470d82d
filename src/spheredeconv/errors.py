"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration or malformed input data."""


class NumericalError(RuntimeError):
    """A contrast evaluated non-finite, on a degenerate grid or sample."""
