"""Biased Tucker factor model: parameters, predictions, loss, per-entry gradients.

A value at cell (i, j, k) is modeled as

    mean + sum_{m,n,l} core[m,n,l] * F1[i,m] * F2[j,n] * F3[k,l]
         + bias1[i] + bias2[j] + bias3[k]

where F1/F2/F3 are the per-mode factor matrices and core mixes their latent
dimensions.  The loss is one half the sum, over observed entries, of the
squared residual plus Tikhonov penalties on every parameter the entry touches
(core and factor rows inside the per-entry sum, so frequently observed rows
are penalized more).

predict, predict_batch, rmse and regularized_loss run the compiled kernels
of _kernel.c when the kernel has loaded, else the numpy code here, which is
the reference; _kernel.py states how the two backends agree and fail alike.
rmse and regularized_loss are arithmetic on the four sums _sums returns.
The reference checks each index with check_index or sparse._check_bounds,
which also turn an index the kernel rejects into the same DataError.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .errors import ConfigError, DataError, _check_int, _check_real
from .sparse import _cells, _check_bounds, _check_grid, _entries

CHECKPOINT_FORMAT = "pidtucker-checkpoint-v1"

# Rows per predict_batch block.  It bounds the (rows, r2 * r3) temporary:
# blocks of 65,536 rows raised a training run's peak memory by ~6%.
_PREDICT_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class Ranks:
    """Latent dimensions per mode."""

    r1: int = 5
    r2: int = 5
    r3: int = 5

    def __post_init__(self):
        for name, r in zip(("r1", "r2", "r3"), self.as_tuple()):
            _check_int(f"rank {name}", r, 1)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.r1, self.r2, self.r3)


@dataclass(frozen=True)
class RegWeights:
    """Tikhonov weights: lambda1 for the core, lambda2 for factor rows, lambda3 for biases."""

    lambda1: float = 0.01
    lambda2: float = 0.01
    lambda3: float = 0.01

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3"):
            _check_real(name, getattr(self, name))


def _shapes(dims, ranks) -> list[tuple[int, ...]]:
    """The seven parameter shapes in checkpoint order: the factor matrices
    (|I|, r1), (|J|, r2), (|K|, r3), the core (r1, r2, r3), the bias vectors."""
    return [*zip(dims, ranks), tuple(ranks), *((n,) for n in dims)]


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """The 1-D array flat cut, in order, into views of the given shapes."""
    ends = np.cumsum([math.prod(s) for s in shapes])[:-1]
    return [a.reshape(s) for a, s in zip(np.split(flat, ends), shapes)]


@dataclass(frozen=True, eq=False)
class TuckerFactors:
    """Model parameters, held in one block.

    Construction checks dims with sparse._check_grid (DataError; they are kept
    as three ints) and the seven given arrays against the shapes dims and
    ranks imply (DataError naming both otherwise), and copies them, as
    float64, into params, one C-contiguous array in checkpoint order;
    factors, core and biases are then views of params, and the caller's
    arrays are never written.  The fields are bound once; the trainer updates
    the arrays in place, through an index (f.core[...] -= step).  Augmented
    assignment to a field (f.core -= step) raises FrozenInstanceError, after
    numpy has already updated the array.

    Attributes:
        dims: (|I|, |J|, |K|) mode sizes.
        ranks: latent dimensions.
        core: (r1, r2, r3) mixing tensor.
        factors: per-mode matrices of shapes (|I|, r1), (|J|, r2), (|K|, r3).
        biases: per-mode bias vectors of lengths |I|, |J|, |K|.
        mean: global additive offset, float(mean) (held fixed during training).
        params: every parameter but mean, flat, in the order of _shapes.
    """

    dims: tuple[int, int, int]
    ranks: Ranks
    core: np.ndarray
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]
    biases: tuple[np.ndarray, np.ndarray, np.ndarray]
    mean: float
    params: np.ndarray = field(init=False, repr=False)
    # The kernel's view of params (_kernel.handle), or None when the kernel
    # did not load and the numpy reference runs.
    _kernel_handle: _kernel._Handle | None = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", _check_grid(self.dims))
        given = (*self.factors, self.core, *self.biases)
        got, shapes = [np.shape(a) for a in given], _shapes(self.dims, self.ranks.as_tuple())
        if got != shapes:
            raise DataError(f"parameter shapes {got} do not match {shapes}, the shapes dims "
                            f"{tuple(self.dims)} and ranks {self.ranks.as_tuple()} give")
        params = np.concatenate([np.ravel(a) for a in given], dtype=np.float64)
        views = _views(params, shapes)
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "factors", tuple(views[:3]))
        object.__setattr__(self, "core", views[3])
        object.__setattr__(self, "biases", tuple(views[4:]))
        object.__setattr__(self, "_kernel_handle", _kernel.handle(self))

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """The seven parameter arrays in the order of _shapes, as views of params."""
        return (*self.factors, self.core, *self.biases)

    def __reduce__(self):
        # Through the constructor, so a copy or an unpickled object gets a
        # block and a handle of its own.
        return TuckerFactors, (self.dims, self.ranks, self.core, self.factors, self.biases,
                               self.mean)


def _drawn(dims, ranks: Ranks, mean: float, weights, biases) -> TuckerFactors:
    """A new model: factors and core from weights(shape), biases from biases(shape),
    called in the order of _shapes.  ConfigError for dims _check_grid refuses, and when the
    arrays cannot be allocated."""
    dims, mean = _check_grid(dims, ConfigError), float(mean)  # as TuckerFactors converts them
    shapes = _shapes(dims, ranks.as_tuple())
    try:
        arrays = [weights(s) for s in shapes[:4]] + [biases(s) for s in shapes[4:]]
        return TuckerFactors(dims, ranks, arrays[3], arrays[:3], arrays[4:], mean)
    except (MemoryError, ValueError) as exc:  # ValueError: "array is too big"
        raise ConfigError(f"cannot allocate factors of ranks {ranks.as_tuple()} for dims {dims}: "
                          f"{exc}") from None


@dataclass(eq=False)
class InstanceGradient:
    """Gradient of one entry's loss summand w.r.t. everything the entry touches."""

    rows: tuple[np.ndarray, np.ndarray, np.ndarray]
    core: np.ndarray
    biases: tuple[float, float, float]


def init_factors(dims, ranks: Ranks, mean: float = 0.0, init_scale: float = 0.04,
                 seed: int = 0) -> TuckerFactors:
    """Seeded random initialization.

    Core and factor entries are i.i.d. uniform on (0, init_scale]; biases start
    at zero.  Draw order is factors (mode 1, 2, 3) then core, so results are
    reproducible for a fixed seed.  ConfigError unless init_scale is finite
    and > 0 and seed an integer >= 0, and, from _drawn, for dims it refuses
    and when the arrays cannot be allocated.
    """
    _check_real("init_scale", init_scale, positive=True)
    _check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    # 1 - random() maps [0, 1) onto (0, 1].
    return _drawn(dims, ranks, mean, lambda s: init_scale * (1.0 - rng.random(s)), np.zeros)


def check_index(f: TuckerFactors, idx) -> tuple[int, int, int]:
    """One (i, j, k) index as plain ints; _cells' DataError for an index it refuses (one
    that is not three integers, or holds one outside int64), else DataError outside f.dims."""
    try:
        i, j, k = map(operator.index, idx)
    except (TypeError, ValueError):
        _cells([idx])
        raise
    if not (0 <= i < f.dims[0] and 0 <= j < f.dims[1] and 0 <= k < f.dims[2]):
        _check_bounds(_cells([idx]), f.dims)  # raises: the cell lies outside f.dims
    return i, j, k


def _dots(x, c):
    """The sum over m of x[..., m] * c[..., m], broadcast: _kernel.c's dots and its bits, the
    terms added in increasing m to +0.0 and vectorized over the other axes.  The +0.0 start
    makes terms that are all -0.0 sum to +0.0, where a sum begun from the first gives -0.0."""
    terms, w = x * c, 0.0
    for m in range(terms.shape[-1]):
        w = w + terms[..., m]
    return w


def _form_g(f: TuckerFactors, i):
    """pt_form_g: g[..., n, l] = sum over m of u[..., m] core[m, n, l], u the row(s) F1[i]."""
    return _dots(f.factors[0][i][..., None, None, :], f.core.transpose(1, 2, 0))


def _finish(f: TuckerFactors, g, i, j, k):
    """pt_finish: the value at (i, j, k), or at each cell for arrays, from the g of row i."""
    dn = _dots(f.factors[2][k][..., None, :], g)
    return f.mean + _dots(f.factors[1][j], dn) + f.biases[0][i] + f.biases[1][j] + f.biases[2][k]


def predict(f: TuckerFactors, idx) -> float:
    """Model value at one cell: mean + multilinear term + the three biases.

    Runs the compiled kernel when it is available (see the module docstring),
    else the numpy reference below, which sums in the kernel's order (_dots).
    """
    h = f._kernel_handle
    if h is not None:
        try:
            return h.value(h.model, idx)
        except _kernel.INDEX_ERRORS:
            check_index(f, idx)
            raise
    i, j, k = check_index(f, idx)
    return float(_finish(f, _form_g(f, i), i, j, k))


def _on_kernel(f: TuckerFactors, idx: np.ndarray, fn, *args):
    """fn(*args), a kernel function over the cells idx; a cell it rejects for
    lying outside f.dims raises the reference's DataError."""
    try:
        return fn(*args)
    except IndexError:
        _check_bounds(idx, f.dims)
        raise


def predict_batch(f: TuckerFactors, indices) -> np.ndarray:
    """Vectorized predict over an (n, 3) index array.

    Runs the compiled kernel when it is available (see the module
    docstring); its values are predict's, bit for bit.  The kernel contracts
    the core with a segment's factor row once for each run of rows with that
    segment, so rows sorted by segment (as missing_indices gives them) cost
    least.  The numpy reference forms g once a segment in blocks of
    _PREDICT_BLOCK_ROWS rows written into one preallocated output, so
    temporaries stay bounded however many cells are asked for.
    """
    idx = _cells(indices)
    out = np.empty(len(idx))
    h = f._kernel_handle
    if h is not None:
        _on_kernel(f, idx, h.values, h.model, idx, out)
        return out
    _check_bounds(idx, f.dims)
    for start in range(0, len(idx), _PREDICT_BLOCK_ROWS):
        stop = start + _PREDICT_BLOCK_ROWS
        ii, jj, kk = idx[start:stop].T
        segments, row_segment = np.unique(ii, return_inverse=True)
        out[start:stop] = _finish(f, _form_g(f, segments)[row_segment], ii, jj, kk)
    return out


def _sums(f: TuckerFactors, idx: np.ndarray, vals: np.ndarray) -> tuple[float, ...]:
    """Over the entries (idx, vals) as sparse._entries gives them: the sums of squared
    residuals, of the core's squares, of the touched factor rows' squares and
    of the touched biases' squares."""
    h = f._kernel_handle
    if h is not None:
        return _on_kernel(f, idx, h.sums, h.model, idx, vals)
    resid = vals - predict_batch(f, idx)
    rows = np.column_stack([_dots(a[c], a[c]) for a, c in zip(f.factors, idx.T)])
    biases = np.column_stack([b[c] * b[c] for b, c in zip(f.biases, idx.T)])
    # 0.0 + t[0] + t[1] + ... over t in C order, as the kernel's sums run (cumsum is sequential).
    return tuple(float(np.cumsum(np.append(0.0, t))[-1])
                 for t in (resid * resid, f.core * f.core, rows, biases))


def rmse(f: TuckerFactors, indices, values) -> float:
    """Root mean squared error of model predictions over a held-out entry set.

    DataError unless there is one value per index, and for an empty set.
    """
    idx, vals = _entries(indices, values)
    if vals.size == 0:
        raise DataError("rmse over an empty entry set is undefined")
    return math.sqrt(_sums(f, idx, vals)[0] / len(vals))


def reconstruct_dense(f: TuckerFactors, max_cells: int = 1_000_000) -> np.ndarray:
    """Full dense reconstruction via sequential mode products; test-scale oracle.

    Cell (i, j, k) of the result equals predict(f, (i, j, k)).  Refuses tensors
    larger than max_cells.
    """
    n_cells = f.dims[0] * f.dims[1] * f.dims[2]
    if n_cells > max_cells:
        raise DataError(
            f"dense reconstruction of {n_cells} cells exceeds the cap of {max_cells}"
        )
    out = np.tensordot(f.factors[0], f.core, axes=(1, 0))   # (|I|, r2, r3)
    out = np.tensordot(out, f.factors[1], axes=(1, 1))      # (|I|, r3, |J|)
    out = np.tensordot(out, f.factors[2], axes=(1, 1))      # (|I|, |J|, |K|)
    out += f.mean
    out += f.biases[0][:, None, None]
    out += f.biases[1][None, :, None]
    out += f.biases[2][None, None, :]
    return out


def regularized_loss(f: TuckerFactors, indices, values, reg: RegWeights) -> float:
    """Half the sum over entries of squared residual plus per-entry Tikhonov penalties.

    Each entry's summand penalizes the full core (lambda1), the three factor
    rows it touches (lambda2), and its three bias components (lambda3).
    DataError unless there is one value per index.
    """
    idx, vals = _entries(indices, values)
    if idx.size == 0:
        return 0.0
    resid, core, rows, biases = _sums(f, idx, vals)
    return 0.5 * (resid + reg.lambda1 * core * len(vals) + reg.lambda2 * rows
                  + reg.lambda3 * biases)


def instance_gradient(f: TuckerFactors, idx, err: float, reg: RegWeights) -> InstanceGradient:
    """Gradient of one entry's loss summand, with `err` in place of the raw residual.

    Passing the raw residual gives the plain stochastic gradient; passing a
    PID-adjusted residual gives the adjusted update direction.  The core
    gradient is per element: lambda1 * core[m,n,l] - err * u[m] * d[n] * t[l].
    Every sum runs as _kernel.c's pt_step runs it.
    """
    i, j, k = check_index(f, idx)
    u, d, t = f.factors[0][i], f.factors[1][j], f.factors[2][k]
    gt = _dots(t, f.core)                          # (r1, r2): sum over l
    phi, psi, chi = _dots(d, gt), _dots(u, gt.T), _dots(d, _form_g(f, i).T)  # d/du, d/dd, d/dt
    rows = (reg.lambda2 * u - err * phi, reg.lambda2 * d - err * psi, reg.lambda2 * t - err * chi)
    outer = (u[:, None] * d)[:, :, None] * t       # u x d x t
    biases = tuple(reg.lambda3 * float(b[c]) - err for b, c in zip(f.biases, (i, j, k)))
    return InstanceGradient(rows, reg.lambda1 * f.core - err * outer, biases)


def save_checkpoint(f: TuckerFactors, path) -> None:
    """Write factors to a flat binary checkpoint.

    Layout: one JSON header line (format tag, dims, ranks, mean) followed by
    the raw little-endian float64 bytes of f.params: the three factor
    matrices, the core, and the three bias vectors, each in row-major order.
    Output is byte-deterministic for identical factors.
    """
    header = {
        "format": CHECKPOINT_FORMAT,
        "dims": list(f.dims),
        "ranks": list(f.ranks.as_tuple()),
        "mean": f.mean,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(f.params.astype("<f8", copy=False).tobytes())


def _open_input(path, what: str):
    """path opened for binary reading; DataError "cannot read {what}: ..." when it cannot be."""
    try:
        return open(path, "rb")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise DataError(f"cannot read {what}: {exc}") from None


def _tagged_header(path, what: str, fmt: str, text: bytes, keys) -> list:
    """The values of keys in text, a header of the library's own file path; DataError unless
    text is a UTF-8 JSON object whose "format" is fmt and which has every key."""
    try:
        header = json.loads(text.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise DataError(f"{path}: not a {what} file ({exc})") from None
    if not isinstance(header, dict):
        raise DataError(f"{path}: not a {what} file (a JSON object is expected)")
    if header.get("format") != fmt:
        raise DataError(f"{path}: unsupported {what} format {header.get('format')!r}")
    try:
        return [header[key] for key in keys]
    except KeyError as exc:
        raise DataError(f"{path}: malformed {what} (missing {exc})") from None


def load_checkpoint(path) -> TuckerFactors:
    """Read a checkpoint written by save_checkpoint.

    Raises DataError from _open_input and _tagged_header (whose first line must
    hold dims, ranks and mean), for dims or ranks that are not three JSON
    integers >= 1, a mean that is not a finite JSON number, a payload of the
    wrong size, or any non-finite parameter.
    """
    with _open_input(path, "checkpoint") as fh:
        dims, ranks, mean = _tagged_header(path, "checkpoint", CHECKPOINT_FORMAT, fh.readline(),
                                           ("dims", "ranks", "mean"))
        dims, ranks = (tuple(v) if type(v) is list else v for v in (dims, ranks))
        for key, values in (("dims", dims), ("ranks", ranks)):
            if type(values) is not tuple or len(values) != 3 or not all(
                    type(x) is int and x >= 1 for x in values):
                raise DataError(f"{path}: checkpoint {key} must be three positive integers, "
                                f"got {values!r}")
        # A JSON number is an int or a float (a bool is neither); nan, the
        # infinities and ints beyond every float are not finite doubles.
        if type(mean) not in (int, float) or not abs(mean) <= sys.float_info.max:
            raise DataError(f"{path}: checkpoint mean must be a finite JSON number, "
                            f"got {mean!r}")
        payload = fh.read()

    shapes = _shapes(dims, ranks)
    size = 8 * sum(math.prod(s) for s in shapes)  # Python ints: no size can wrap
    if len(payload) != size:
        raise DataError(f"{path}: checkpoint payload is {len(payload)} bytes, expected {size}")
    flat = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(flat).all():
        raise DataError(f"{path}: checkpoint holds non-finite parameters")
    arrays = _views(flat, shapes)
    return TuckerFactors(dims, Ranks(*ranks), arrays[3], arrays[:3], arrays[4:], mean)
