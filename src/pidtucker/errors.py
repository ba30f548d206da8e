"""Exception types shared across the package, and the checks of a setting.

Every integer setting goes through _check_int and every real one through
_check_real, the one place each rule and its ConfigError are written; both
refuse a bool and a string that spells a number.  error_clamp and
observed_fraction keep ranges of their own and take their values through _real.
A setting that holds a settings object, or a bool, goes through _check_type.
"""

import math
import numbers


class ConfigError(ValueError):
    """Invalid or inconsistent configuration values."""


class DataError(ValueError):
    """Malformed, inconsistent, or out-of-range input data."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite value."""


def _check_int(name: str, value, least: int) -> None:
    """ConfigError unless value is an integer (a Python or numpy one, not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value}")


def _real(value) -> bool:
    """Whether value is a real number (a Python or numpy one) and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_real(name: str, value, positive: bool = False, signed: bool = False) -> None:
    """ConfigError unless value is a finite real number, not a bool, and, unless signed,
    >= 0, or > 0 when positive."""
    try:
        ok = _real(value) and math.isfinite(value) and (
            signed or (value > 0 if positive else value >= 0))
    except OverflowError:  # an int beyond every double
        ok = False
    if not ok:
        sign = "" if signed else f" and {'>' if positive else '>='} 0"
        raise ConfigError(f"{name} must be finite{sign}, got {value}")


def _check_type(name: str, value, cls: type) -> None:
    """ConfigError unless value is an instance of cls."""
    if not isinstance(value, cls):
        raise ConfigError(f"{name} must be a {cls.__name__}, got {value!r}")
