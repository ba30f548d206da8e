"""Held-out RMSE and the repeated split/train/test experiment protocol."""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .datasets import _write_json
from .errors import DivergenceError, _check_int, _check_type
from .model import rmse
from .solver import Hyperparams, train
from .sparse import SparseTensor, split


@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol for repeated evaluation: re-split, re-train, re-test per repeat, with
    repeat r seeded hyper.seed + r (run_experiment)."""

    hyper: Hyperparams
    ratios: tuple[float, float, float] = (0.08, 0.02, 0.90)
    repeats: int = 20

    def __post_init__(self):
        _check_type("hyper", self.hyper, Hyperparams)
        _check_int("repeats", self.repeats, 1)


@dataclass(frozen=True)
class RepeatResult:
    repeat: int
    seed: int
    rmse: float | None
    epochs: int | None
    seconds: float | None
    error: str | None = None


@dataclass
class ExperimentSummary:
    """Per-repeat outcomes plus mean/std aggregates over the successful ones,
    None (null in summary.json) when no repeat succeeded."""

    results: list[RepeatResult]
    rmse_mean: float | None
    rmse_std: float | None
    seconds_mean: float | None
    seconds_std: float | None


def _aggregate(xs: list[float]) -> tuple[float | None, float | None]:
    if not xs:
        return None, None
    mean = float(np.mean(xs))
    std = float(np.std(xs, ddof=1)) if len(xs) > 1 else 0.0
    return mean, std


def run_experiment(tensor: SparseTensor, cfg: ExperimentConfig) -> ExperimentSummary:
    """Run `repeats` split/train/test rounds one after another; aggregate test RMSE.

    Repeat r uses seed cfg.hyper.seed + r for both the split and the model
    initialization.  A repeat's seconds are its TrainReport.seconds, which
    count training only.  A repeat that diverges is recorded with its message
    and does not abort the others.  Any other error stops the run: split's
    DataError depends on no seed, so it comes before any repeat trains.
    Results are deterministic for a fixed (tensor, cfg).
    """

    def one(r: int) -> RepeatResult:
        seed = cfg.hyper.seed + r
        parts = split(tensor, cfg.ratios, seed)
        try:
            f, report = train(tensor, parts, replace(cfg.hyper, seed=seed))
        except DivergenceError as exc:
            return RepeatResult(r, seed, None, None, None, error=f"DivergenceError: {exc}")
        test_rmse = rmse(f, tensor.indices[parts.test], tensor.values[parts.test])
        return RepeatResult(r, seed, test_rmse, report.epochs_run, report.seconds)

    results = [one(r) for r in range(cfg.repeats)]
    ok = [r for r in results if r.error is None]
    return ExperimentSummary(results, *_aggregate([r.rmse for r in ok]),
                             *_aggregate([r.seconds for r in ok]))


def write_summary_json(summary: ExperimentSummary, path) -> None:
    _write_json({
        "rmse_mean": summary.rmse_mean,
        "rmse_std": summary.rmse_std,
        "seconds_mean": summary.seconds_mean,
        "seconds_std": summary.seconds_std,
        "repeats": [asdict(r) for r in summary.results],
    }, path)


def write_summary_csv(summary: ExperimentSummary, path) -> None:
    """Flat per-repeat CSV: repeat,rmse,epochs,seconds (blank fields on failure)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("repeat,rmse,epochs,seconds\n")
        for r in summary.results:
            if r.error is None:
                fh.write(f"{r.repeat},{r.rmse!r},{r.epochs},{r.seconds:.6f}\n")
            else:
                fh.write(f"{r.repeat},,,\n")
