"""COO storage and train/validation/test partitioning for 3-mode sparse tensors.

Only the observed cells of a (mostly missing) tensor are kept: an (n, 3)
integer index array plus an (n,) value array, in insertion order.  Training
code shuffles separate position permutations instead of reordering storage,
so per-entry state (e.g. PID error history) can be keyed by stable position.
A SparseTensor checks itself when it is made, so the layers that read one
(training, imputation, evaluation) check its cells and values nowhere else.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DataError, _check_int

RATIO_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SparseTensor:
    """Observed entries of a 3-mode tensor: int64 cells inside dims, finite values.

    Construction takes dims through _check_grid and indices and values through
    _entries, raises DataError naming the first entry with a cell outside dims or
    a non-finite value, and keeps read-only views (no copies) of what it checked.
    It compares and hashes by identity (eq=False), as every class holding arrays does.

    Attributes:
        dims: (|I|, |J|, |K|) mode sizes.
        indices: (n, 3) int64 array of zero-based cell coordinates.
        values: (n,) float64 array of observed values.
    """

    dims: tuple[int, int, int]
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        dims = _check_grid(self.dims)
        idx, vals = _entries(self.indices, self.values)
        _check_bounds(idx, dims, "entry")
        finite = np.isfinite(vals)
        if not finite.all():
            pos = int(np.argmin(finite))
            raise DataError(f"entry {pos}: cell {tuple(idx[pos].tolist())} has non-finite "
                            f"value {vals[pos]}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "indices", _freeze(idx))
        object.__setattr__(self, "values", _freeze(vals))

    def __len__(self) -> int:
        return self.indices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def density(self) -> float:
        return len(self) / self.n_cells


@dataclass(frozen=True, eq=False)
class DataSplit:
    """Disjoint train/validation/test positions into a SparseTensor's entries (_check_split)."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray

    def parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.train, self.validation, self.test


_PART_NAMES = ("train", "validation", "test")


def _check_split(data_split: DataSplit, n: int) -> None:
    """DataError naming the part and the first bad position unless each part is a non-empty
    1-D integer array of positions in [0, n), none of them twice in one part or two."""
    parts = []
    for name, part in zip(_PART_NAMES, map(np.asarray, data_split.parts())):
        if part.ndim != 1 or part.dtype.kind not in "iu":
            raise DataError(f"{name} split part must be a 1-D integer array, "
                            f"got dtype {part.dtype} and shape {part.shape}")
        if len(part) == 0:
            raise DataError(f"{name} split part is empty")
        outside = (part < 0) | (part >= n)
        if outside.any():
            raise DataError(f"{name} split part has position {part[np.argmax(outside)]}, "
                            f"outside [0, {n})")
        parts.append(part.astype(np.intp, copy=False))
    every = np.concatenate(parts)
    if np.bincount(every, minlength=n).max() > 1:
        first, again = _first_duplicate(every)
        ends = np.cumsum([len(part) for part in parts])
        name, earlier = (_PART_NAMES[p] for p in np.searchsorted(ends, [again, first], "right"))
        raise DataError(f"{name} split part has position {every[again]}, "
                        f"already in the {earlier} part")


def _freeze(arr: np.ndarray) -> np.ndarray:  # a read-only view; arr keeps its flags
    view = arr.view()
    view.flags.writeable = False
    return view


def _check_grid(dims, error=DataError, where: str = "") -> tuple[int, int, int]:
    """dims as three Python ints, checked before any is converted; error(where + why)
    unless they can shape a grid: three ints >= 1 whose product, the cell count, fits
    np.intp, in which np.ravel_multi_index and Generator.choice number the cells."""
    dims = tuple(dims)
    if len(dims) != 3 or not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool)
                                 and d >= 1 for d in dims):
        raise error(f"{where}dims must be three positive integers, got {dims}")
    dims, most = tuple(map(int, dims)), np.iinfo(np.intp).max
    if math.prod(dims) > most:
        raise error(f"{where}dims {dims} give {math.prod(dims)} cells, more than the {most} "
                    f"a grid can number")
    return dims


def _first_duplicate(keys: np.ndarray) -> tuple[int, int] | None:
    """(first, repeat): the lowest position of the 1-D keys whose key occurs earlier,
    and where that key first occurs; None without repeats.  Cells in dims are
    compared as np.ravel_multi_index(indices.T, dims) numbers them."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first[inverse] != np.arange(len(keys)))
    return (int(first[inverse[repeats[0]]]), int(repeats[0])) if len(repeats) else None


def _cells(indices) -> np.ndarray:
    """indices as a C-contiguous (n, 3) int64 array; DataError for another
    shape, for an entry that is not an integer (one operator.index refuses,
    so a fractional cell is refused rather than truncated; the message names
    the dtype numpy infers), or for an integer outside int64 (refused rather
    than wrapped).  A ragged list, which has no shape, is refused as one."""
    try:
        idx = np.asarray(indices)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise DataError("indices must have shape (n, 3), got a ragged list") from None
    if idx.shape in ((0,), (0, 3)):  # no cells, in whatever dtype numpy gives them
        return np.empty((0, 3), dtype=np.int64)
    if idx.dtype.kind not in "biu":
        # Integers beyond int64 beside others give float64 or object: look at
        # the entries as Python objects, on this path only.
        entries = np.array(indices, dtype=object)
        try:
            entries.flat = [operator.index(x) for x in entries.flat]
        except TypeError:
            raise DataError(f"indices must be integers, got dtype {idx.dtype}") from None
        idx = entries
    if idx.ndim != 2 or idx.shape[1] != 3:
        raise DataError(f"indices must have shape (n, 3), got {idx.shape}")
    if idx.dtype.kind in "uO":  # the kinds that can hold integers outside int64
        least, most = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        outside = (idx < least) | (idx > most)
        if outside.any():
            v = idx[outside][0]
            bound = f"minimum {least}" if v < 0 else f"maximum {most}"
            raise DataError(f"index entry {v} is beyond int64's {bound}")
    return np.ascontiguousarray(idx, dtype=np.int64)


def _first_out_of_bounds(indices: np.ndarray, dims) -> int | None:
    """The lowest position of an (n, 3) index row outside dims, or None.

    One cheap pass (the least entry, and each column's greatest) clears the
    usual all-in-bounds case; only when it fails is the first row searched.
    """
    if indices.min(initial=0) >= 0 and all(
            indices[:, m].max(initial=-1) < d for m, d in enumerate(dims)):
        return None
    oob = (indices < 0) | (indices >= np.asarray(dims, dtype=np.int64))
    return int(np.argmax(oob.any(axis=1))) if oob.any() else None


def _check_bounds(indices: np.ndarray, dims, label: str | None = None) -> None:
    """DataError naming the first (n, 3) index row outside dims, as "index (i, j, k) out of
    bounds for dims (...)", after "{label} {position}: " when a label is given."""
    pos = _first_out_of_bounds(indices, dims)
    if pos is not None:
        where = "" if label is None else f"{label} {pos}: "
        raise DataError(f"{where}index {tuple(indices[pos].tolist())} out of bounds for dims "
                        f"{tuple(dims)}")


def _entries(indices, values) -> tuple[np.ndarray, np.ndarray]:
    """Cells as _cells gives them and their (n,) float64 values; DataError unless one a cell,
    and, told by the dtype numpy infers alone, for values it cannot read as numbers (such as
    "1.5" or None; a bool reads as one) or a ragged list."""
    idx = _cells(indices)
    try:
        vals = np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise DataError("values must have shape (n,), got a ragged list") from None
    if vals.dtype.kind not in "biuf":
        raise DataError(f"values must be real numbers, got dtype {vals.dtype}")
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    if vals.shape != (len(idx),):
        raise DataError(f"{vals.size} values for {len(idx)} indices")
    return idx, vals


def from_records(dims, records) -> SparseTensor:
    """Build a SparseTensor from (i, j, k, value) records; entry p is record p.

    Raises DataError naming the offending record for one that is not four
    fields, indices _cells rejects, or a value that is not a real number (a
    bool is one; a string or None is not) or is beyond float64; SparseTensor's
    DataError for dims, a cell out of bounds or a non-finite value; and
    DataError for duplicate coordinates, naming both record positions.
    """
    records = list(records)
    n = len(records)
    indices = np.zeros((n, 3), dtype=np.int64)
    values = np.zeros(n, dtype=np.float64)
    for pos, record in enumerate(records):
        try:
            i, j, k, v = record
        except (TypeError, ValueError):
            raise DataError(f"record {pos} is {record!r}, not (i, j, k, value)") from None
        try:
            indices[pos] = _cells([(i, j, k)])[0]
        except DataError as exc:
            raise DataError(f"record {pos} has index {(i, j, k)}: {exc}") from None
        if not isinstance(v, numbers.Real):
            raise DataError(f"record {pos} has value {v!r}, not a real number")
        try:
            values[pos] = v
        except OverflowError as exc:  # an integer beyond every double
            raise DataError(f"record {pos} has a value float64 cannot hold ({exc})") from None

    tensor = SparseTensor(dims, indices, values)
    dup = _first_duplicate(np.ravel_multi_index(tensor.indices.T, tensor.dims))
    if dup is not None:
        raise DataError(
            f"duplicate index {tuple(indices[dup[1]].tolist())} at record positions "
            f"{dup[0]} and {dup[1]}"
        )
    return tensor


def split(tensor: SparseTensor, ratios, seed: int) -> DataSplit:
    """Seeded uniform partition of entry positions into train/validation/test.

    Part sizes are floor(n * ratio) with the remainder going to the test set,
    keeping the scarce train/validation parts at their exact intended sizes.
    Deterministic for a fixed (tensor, ratios, seed).

    Raises DataError if the ratios are invalid or any part would be empty,
    and ConfigError unless seed is an integer >= 0.
    """
    _check_int("seed", seed, 0)
    try:
        ratios = tuple(float(r) for r in ratios)
        ok = len(ratios) == 3 and all(0 < r < math.inf for r in ratios)
    except (TypeError, ValueError, OverflowError):  # not a sequence of reals
        ok = False
    if not ok:
        raise DataError(f"ratios must be three positive reals, got {ratios}")
    if abs(sum(ratios) - 1.0) > RATIO_SUM_TOL:
        raise DataError(f"ratios must sum to 1, got sum {sum(ratios)!r}")

    n = len(tensor)
    n_train = math.floor(n * ratios[0])
    n_val = math.floor(n * ratios[1])
    n_test = n - n_train - n_val
    sizes = {"train": n_train, "validation": n_val, "test": n_test}
    empty = [name for name, size in sizes.items() if size <= 0]
    if empty:
        raise DataError(
            f"split of {n} entries at ratios {ratios} leaves empty part(s): "
            f"{', '.join(empty)}"
        )

    perm = np.random.default_rng(seed).permutation(n)
    return DataSplit(
        train=_freeze(perm[:n_train].copy()),
        validation=_freeze(perm[n_train : n_train + n_val].copy()),
        test=_freeze(perm[n_train + n_val :].copy()),
    )
