"""Sequential SGD training loop with PID residual adjustment and early stopping.

One epoch visits every training entry once, in a seeded shuffled order.  For
each entry the residual is computed from current parameters, PID-adjusted,
and all touched parameters are updated simultaneously from their pre-update
values.  Gains (1, 0, 0) with no clamp are plain SGD: that adjustment is the
identity, so train skips it.  Training stops when the validation RMSE changes
by less than `tol` between consecutive epochs, or at the epoch cap.

Of the three per-entry calls, model.predict and sgd_step run the compiled
kernels of _kernel.c when the kernel has loaded, else the numpy reference;
pid.adjust is plain Python.  So do the epoch-end model.regularized_loss and
validation model.rmse; the divergence check _all_finite is one numpy pass
over f.params on both backends.  _kernel.py states how the backends agree
and fail alike.  On either backend sgd_step rejects a non-finite update
before the index, and an index outside dims before touching a parameter.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .errors import (ConfigError, DataError, DivergenceError, _check_int, _check_real,
                     _check_type, _real)
from .model import (
    Ranks,
    RegWeights,
    TuckerFactors,
    check_index,
    init_factors,
    instance_gradient,
    predict,
    regularized_loss,
    rmse,
)
from .pid import PidGains, PidState, adjust
from .sparse import DataSplit, SparseTensor, _check_split


@dataclass(frozen=True)
class Hyperparams:
    """Everything that determines a training run besides the data itself.
    Plain SGD is gains=PidGains(1.0, 0.0, 0.0) with error_clamp None."""

    eta: float = 0.01
    reg: RegWeights = field(default_factory=RegWeights)
    gains: PidGains = field(default_factory=PidGains)
    ranks: Ranks = field(default_factory=Ranks)
    max_epochs: int = 1000
    tol: float = 1e-5
    init_scale: float = 0.04
    seed: int = 0
    error_clamp: float | None = None

    def __post_init__(self):
        for name, cls in (("reg", RegWeights), ("gains", PidGains), ("ranks", Ranks)):
            _check_type(name, getattr(self, name), cls)
        _check_real("eta", self.eta, positive=True)
        _check_int("max_epochs", self.max_epochs, 1)
        _check_real("tol", self.tol, positive=True)
        _check_real("init_scale", self.init_scale, positive=True)
        _check_int("seed", self.seed, 0)
        clamp = self.error_clamp
        if clamp is not None and not (_real(clamp) and clamp > 0):
            raise ConfigError(f"error_clamp must be > 0 when set, got {clamp}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_rmse: float
    elapsed_s: float  # from the call to train, as train's docstring says


@dataclass
class TrainReport:
    """Whether one training run stopped by validation_converged, and its epochs' records,
    from which the rest is read (best_epoch: the first of least validation RMSE)."""

    converged: bool
    records: list[EpochRecord]

    @property
    def epochs_run(self) -> int:
        return len(self.records)

    @property
    def final_val_rmse(self) -> float:
        return self.records[-1].val_rmse

    @property
    def best_epoch(self) -> int:
        return self.records[int(np.argmin([r.val_rmse for r in self.records]))].epoch

    @property
    def seconds(self) -> float:  # training time: the last epoch's elapsed_s
        return self.records[-1].elapsed_s


def validation_converged(history, tol: float) -> bool:
    """Stopping rule: the last two validation errors (all it reads) differ by less than tol."""
    return len(history) >= 2 and abs(history[-1] - history[-2]) < tol


def sgd_step(f: TuckerFactors, idx, y: float, adjusted_err: float,
             hyper: Hyperparams) -> None:
    """Apply one entry's update in place.

    The gradient (model.instance_gradient, with adjusted_err in place of the
    raw residual) is formed from pre-update parameter values; then the touched
    factor rows, the full core, and the three bias components move one step
    of size eta against it.  Runs the compiled kernel when it is available,
    else the numpy reference below, which gives the same bits.
    """
    h = f._kernel_handle
    if h is None:
        if not math.isfinite(adjusted_err):
            raise _divergence(f, idx, y)
        grad = instance_gradient(f, idx, adjusted_err, hyper.reg)
        eta = hyper.eta
        for m, (i, row, b) in enumerate(zip(check_index(f, idx), grad.rows, grad.biases)):
            f.factors[m][i] -= eta * row
            f.biases[m][i] -= eta * b
        f.core[...] -= eta * grad.core
        return
    reg = hyper.reg
    try:
        h.step(h.model, idx, adjusted_err, hyper.eta, reg.lambda1, reg.lambda2, reg.lambda3)
    except FloatingPointError:
        raise _divergence(f, idx, y) from None
    except _kernel.INDEX_ERRORS:
        check_index(f, idx)
        raise


def _divergence(f: TuckerFactors, idx, y: float) -> DivergenceError:
    """The error for a non-finite update at idx, named as check_index returns
    it, or as given when check_index rejects it."""
    try:
        idx = check_index(f, idx)
    except (DataError, ValueError):
        pass
    return DivergenceError(f"non-finite update at entry {idx!r} (y={y!r})")


def _all_finite(f: TuckerFactors) -> bool:
    """Whether every parameter is finite."""
    return bool(np.isfinite(f.params).all())


def train(tensor: SparseTensor, data_split: DataSplit,
          hyper: Hyperparams) -> tuple[TuckerFactors, TrainReport]:
    """Fit factors to the training part; early-stop on the validation part.

    The global mean is set once from training values and held fixed.  The
    shuffle order for epoch f (1-based) is drawn from seed + f, so a run is a
    pure function of (tensor, data_split, hyper).  Returns the final-epoch
    factors; the best validation epoch is recorded in the report.

    Its times (EpochRecord.elapsed_s, TrainReport.seconds) count from the
    call, setup included, and exclude a first-use build of the kernel.
    The tensor's values are finite by construction; the split is checked
    against it once (sparse._check_split's DataError).
    """
    _kernel.library()
    start = time.perf_counter()
    _check_split(data_split, len(tensor))

    train_idx = tensor.indices[data_split.train]
    train_val = tensor.values[data_split.train]
    val_idx = tensor.indices[data_split.validation]
    val_y = tensor.values[data_split.validation]
    n_train = len(train_val)
    mean = float(np.mean(train_val))
    f = init_factors(tensor.dims, hyper.ranks, mean=mean,
                     init_scale=hyper.init_scale, seed=hyper.seed)
    plain = hyper.gains == PidGains(1.0, 0.0, 0.0) and hyper.error_clamp is None
    state = None if plain else PidState(n_train)  # plain SGD's adjustment is the identity

    # Plain-python copies keep the per-entry loop off numpy scalar overhead.
    idx_rows = [tuple(row) for row in train_idx.tolist()]
    ys = train_val.tolist()

    gains = hyper.gains
    clamp = hyper.error_clamp
    records: list[EpochRecord] = []
    converged = False

    for epoch in range(1, hyper.max_epochs + 1):
        order = np.random.default_rng(hyper.seed + epoch).permutation(n_train).tolist()
        try:
            # Overflow on the way to divergence is detected and reported below;
            # silence the interim numpy warnings.
            with np.errstate(over="ignore", invalid="ignore"):
                for pos in order:
                    idx = idx_rows[pos]
                    y = ys[pos]
                    e = y - predict(f, idx)
                    err = e if state is None else adjust(state, gains, pos, e, clamp)
                    sgd_step(f, idx, y, err, hyper)
        except DivergenceError as exc:
            raise DivergenceError(f"epoch {epoch}: {exc}") from None
        if not _all_finite(f):
            raise DivergenceError(f"epoch {epoch}: parameters became non-finite")

        train_loss = regularized_loss(f, train_idx, train_val, hyper.reg)
        val_rmse = rmse(f, val_idx, val_y)
        records.append(EpochRecord(epoch, train_loss, val_rmse,
                                   time.perf_counter() - start))
        if validation_converged([r.val_rmse for r in records[-2:]], hyper.tol):
            converged = True
            break

    return f, TrainReport(converged, records)


def write_trace(report: TrainReport, path) -> None:
    """Per-epoch trace CSV: epoch,train_loss,val_rmse,elapsed_s."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("epoch,train_loss,val_rmse,elapsed_s\n")
        for rec in report.records:
            fh.write(f"{rec.epoch},{rec.train_loss!r},{rec.val_rmse!r},{rec.elapsed_s:.6f}\n")
