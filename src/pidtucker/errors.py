"""Exception types shared across the package, and the checks of a numeric setting.

Every integer setting goes through _check_int and every real one through
_check_real, the one place each rule and its ConfigError are written; both
refuse a bool and a string that spells a number.  error_clamp and
observed_fraction keep ranges of their own and take their values through _real.
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


def _check_real(name: str, value, positive: bool = False) -> None:
    """ConfigError unless value is a finite real number, not a bool, >= 0, or > 0 when positive."""
    try:
        ok = _real(value) and math.isfinite(value) and (value > 0 if positive else value >= 0)
    except OverflowError:  # an int beyond every double
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value}")
