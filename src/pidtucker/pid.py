"""Per-entry proportional-integral-derivative adjustment of training residuals.

Each training entry keeps its own running error sum and previous error; the
adjusted residual fed to the SGD update is

    kp * e + ki * (sum of all errors so far, including e) + kd * (e - prev_e)

with a zero previous error on the first call.  Gains (1, 0, 0) with no clamp
make the adjustment the identity, which is plain SGD, so solver.train skips
adjust for them.  The skip is exact on the residuals training produces:
1.0*e + 0.0*total + 0.0*(e - prev) maps only a -0.0 residual to +0.0.

This formula is this package's reading of the paper's "adjusted instance
error".  The abstract (PAPER.md), the only part of the paper at hand, names
that error but does not define it.  So the choices above are ours: the
integral runs over every past epoch of the entry and includes the current
error, and the derivative is the change from that entry's previous error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError, _check_int, _check_real


@dataclass(frozen=True)
class PidGains:
    kp: float = 1.0
    ki: float = 0.1
    kd: float = 0.1

    def __post_init__(self):
        for name in ("kp", "ki", "kd"):
            _check_real(name, getattr(self, name))


class PidState:
    """Error history, one slot per training entry, keyed by stable position.

    sum_error and prev_error are lists of Python floats, not numpy arrays:
    adjust reads and writes one element of each per call, which costs a
    fifth as much on a list.  Once an entry has been adjusted, its two slots
    hold two float objects, ~64 bytes with the list pointers, against 16
    bytes in float64 arrays.
    """

    __slots__ = ("sum_error", "prev_error")

    def __init__(self, n_entries: int):
        _check_int("n_entries", n_entries, 0)
        self.sum_error = [0.0] * n_entries
        self.prev_error = [0.0] * n_entries

    def __len__(self) -> int:
        return len(self.sum_error)


def adjust(state: PidState, gains: PidGains, pos: int, e: float,
           clamp: float | None = None) -> float:
    """Fold residual e into the entry's history and return the adjusted residual.

    The running sum is updated first, so the integral term includes the
    current residual.  An optional symmetric clamp bounds the output to guard
    against integral windup on long runs.
    """
    sums = state.sum_error
    try:
        if pos < 0:
            raise IndexError
        total = sums[pos] + e
    except IndexError:
        raise DataError(f"training-entry position {pos} out of range [0, {len(sums)})") from None
    sums[pos] = total
    prevs = state.prev_error
    out = gains.kp * e + gains.ki * total + gains.kd * (e - prevs[pos])
    prevs[pos] = e
    if clamp is not None:
        if out > clamp:
            out = clamp
        elif out < -clamp:
            out = -clamp
    return float(out)
