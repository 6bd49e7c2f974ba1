"""Exception types shared across the package, and the integer and real
checks every config class uses."""
import math
import numbers


class ConfigurationError(ValueError):
    """Inconsistent dimensions or invalid configuration values."""


class DegenerateInputError(ValueError):
    """Numerically degenerate input (e.g. an all-zero precoder) that the
    caller must fix by re-initializing."""


def is_int(value, least: int = 1) -> bool:
    """An integer >= least; a bool is not one."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least)


def is_real(value) -> bool:
    """A finite real number; a bool is not one."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def require_int(name: str, value, least: int = 1) -> None:
    """Raise ConfigurationError naming the field unless is_int(value, least)."""
    if not is_int(value, least):
        raise ConfigurationError(
            f"{name} must be >= {least} and an integer; got {value!r}")
