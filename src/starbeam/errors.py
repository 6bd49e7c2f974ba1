"""Exception types shared across the package, the integer and real checks,
and the field kinds. Each config class declares the kind of each field in
one table, FIELD_KINDS, which check_fields runs when the class is built
and the CLI runs on each config-file value."""
import math
import numbers
from typing import Callable, NamedTuple

import numpy as np


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


class Kind(NamedTuple):
    """The values one config field takes: what they are, in the words of
    the error message; the test a value must pass; and the form in which
    a value that passes is stored. The kinds are class attributes (LIST,
    COUNT, SEED, POSITIVE, NON_NEGATIVE, FINITE, POSITION, FLAG, TEXT) or
    built by choice, listed and or_none."""

    what: str
    ok: Callable[[object], bool]
    store: Callable[[object], object] = lambda value: value

    def check(self, name: str, value):
        """value in its stored form; ConfigurationError naming name unless
        ok(value)."""
        if not self.ok(value):
            raise ConfigurationError(f"{name} must be {self.what}; got {value!r}")
        return self.store(value)

    @staticmethod
    def choice(*options: str) -> "Kind":
        """One of the given strings."""
        return Kind(f"one of {', '.join(map(repr, options))}",
                    lambda v: isinstance(v, str) and v in options)

    def listed(self) -> "Kind":
        """A non-empty list of values of this kind, stored as a tuple."""
        return Kind(f"a non-empty list, each {self.what}",
                    lambda v: Kind.LIST.ok(v) and len(v) > 0 and all(map(self.ok, v)),
                    lambda v: tuple(map(self.store, v)))

    def or_none(self) -> "Kind":
        """A value of this kind, or None."""
        return Kind(f"{self.what}, or None", lambda v: v is None or self.ok(v),
                    lambda v: v if v is None else self.store(v))


# a list, a tuple or an array of at least one dimension
Kind.LIST = Kind("a list", lambda v: isinstance(v, (list, tuple)) or (
    isinstance(v, np.ndarray) and v.ndim > 0), tuple)
Kind.COUNT = Kind(">= 1 and an integer", is_int)
Kind.SEED = Kind(">= 0 and an integer", lambda v: is_int(v, 0))
Kind.POSITIVE = Kind("a finite real > 0", lambda v: is_real(v) and v > 0, float)
Kind.NON_NEGATIVE = Kind("a finite real >= 0", lambda v: is_real(v) and v >= 0, float)
Kind.FINITE = Kind("a finite real", is_real, float)
Kind.POSITION = Kind("two finite reals (x, y)",
                     lambda v: Kind.LIST.ok(v) and len(v) == 2 and all(map(is_real, v)),
                     lambda v: tuple(map(float, v)))
Kind.FLAG = Kind("true or false", lambda v: isinstance(v, bool))
Kind.TEXT = Kind("a string", lambda v: isinstance(v, str))


def check_fields(obj, kinds: dict) -> None:
    """Check each field of the frozen dataclass obj against its kind in
    kinds, and store its value in the kind's form."""
    for name, kind in kinds.items():
        object.__setattr__(obj, name, kind.check(name, getattr(obj, name)))
