"""The benchmark's workloads: seeded inputs, the CLI command each runs, and its output checks.

Every workload does the same work whatever the seed, so a run's timings
measure the code rather than the seed:

* ``fit`` trains for a fixed number of epochs, with a tolerance so small
  that the stopping rule (still evaluated every epoch) does not fire first.
  Its truth model is fixed and --seed picks the split, initialization and
  shuffles.  After two epochs on a 100x30x48 grid the test RMSE spread
  (quartiles over median, ten seeds) was 26% across generated truths and 2%
  across splits of one truth.
* ``impute`` fills every missing cell of a fixed-size, fixed-density grid.
* ``protocol`` trains each repeat for a fixed number of epochs: with the
  default tolerance, repeats of this fixture stop anywhere between 22 and
  1000 epochs, and the wall time would measure the repeat seeds.

Inputs are prepared (and not timed) in the benchmark process through
``generate_synthetic`` and ``write_records_csv``; the CLI child receives only
the files.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pidtucker import (
    Ranks,
    SyntheticSpec,
    generate_synthetic,
    identity_mapping,
    load_checkpoint,
    save_checkpoint,
    save_mapping,
    write_records_csv,
)


@dataclass
class Inputs:
    argv: list[str]          # CLI arguments, without --outdir/--run-name
    csv_bytes_read: int      # size of the data CSV the command reads
    ctx: dict                # what the output checks need


@dataclass
class Outcome:
    """What one CLI command did, as read back from its run directory."""

    ops: int                          # operations attempted
    failed: int                       # non-zero exit, repeat error or failed check
    problems: list[str] = field(default_factory=list)
    test_rmse: float | None = None
    work: float | None = None         # train entries visited, or cells written
    work_seconds: float | None = None  # training seconds; None means wall time
    repeat_seconds: list[float] = field(default_factory=list)
    digest: str | None = None         # outputs with timing fields removed
    csv_bytes_written: int = 0


def _synth(cfg: dict, seed: int, workdir: Path):
    spec = SyntheticSpec(dims=cfg["dims"], ranks=Ranks(*cfg["ranks"]),
                         observed_fraction=cfg["observed_fraction"],
                         noise_sigma=cfg["noise_sigma"],
                         value_offset=cfg["value_offset"], seed=seed)
    tensor, truth = generate_synthetic(spec)
    mapping = identity_mapping(spec.dims)
    data = workdir / "data.csv"
    write_records_csv(tensor.indices, tensor.values, mapping, data)
    return tensor, truth, mapping, data


def _csv_bytes(rundir: Path) -> int:
    return sum(p.stat().st_size for p in rundir.glob("*.csv"))


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


class Fit:
    name = "fit"
    ops_per_command = 1
    config = {
        "command": "train",
        "dims": (50, 30, 48),
        "observed_fraction": 0.25,
        "ranks": (5, 5, 5),
        "noise_sigma": 0.0,
        "value_offset": 10.0,
        "generator_seed": 20240,
        "ratios": "0.8,0.1,0.1",
        "max_epochs": 2,
        "tol": 1e-12,
        "hyperparameters": "CLI defaults (eta 0.01, lambdas 0.01, gains 1/0.1/0.1, "
                           "init-scale 0.04); split and init seed = --seed",
    }

    def prepare(self, seed: int, workdir: Path) -> Inputs:
        cfg = self.config
        _tensor, _truth, _mapping, data = _synth(cfg, cfg["generator_seed"], workdir)
        argv = ["train", "--data", str(data), "--slots-per-day", str(cfg["dims"][2]),
                "--ratios", cfg["ratios"], "--max-epochs", str(cfg["max_epochs"]),
                "--tol", repr(cfg["tol"]), "--seed", str(seed)]
        return Inputs(argv, data.stat().st_size, {})

    def check(self, inputs: Inputs, rundir: Path) -> Outcome:
        summary = json.loads((rundir / "summary.json").read_text(encoding="utf-8"))
        ckpt = (rundir / "model.ckpt").read_bytes()
        problems = []
        if summary["epochs_run"] != self.config["max_epochs"]:
            problems.append(f"epochs_run {summary['epochs_run']} != cap")
        trace_rows = len((rundir / "trace.csv").read_text(encoding="utf-8").splitlines()) - 1
        if trace_rows != summary["epochs_run"]:
            problems.append(f"trace.csv has {trace_rows} rows for {summary['epochs_run']} epochs")
        f = load_checkpoint(rundir / "model.ckpt")
        arrays = (f.core, *f.factors, *f.biases)
        if not all(np.isfinite(a).all() for a in arrays) or not math.isfinite(f.mean):
            problems.append("model.ckpt holds non-finite values")
        test_rmse = summary["test_rmse"]
        if not _finite(test_rmse):
            problems.append(f"test_rmse {test_rmse!r} is not finite")
        untimed = {k: v for k, v in summary.items() if k != "train_seconds"}
        return Outcome(
            ops=1, failed=int(bool(problems)), problems=problems,
            test_rmse=test_rmse, work=summary["epochs_run"] * summary["train_entries"],
            work_seconds=summary["train_seconds"],
            repeat_seconds=[summary["train_seconds"]],
            digest=_sha(ckpt, json.dumps(untimed, sort_keys=True).encode()),
            csv_bytes_written=_csv_bytes(rundir),
        )


def truth_values(f, idx: np.ndarray) -> np.ndarray:
    """Model values by explicit mode products, independent of predict_batch's einsum."""
    r1, r2, r3 = f.core.shape
    ii, jj, kk = idx[:, 0], idx[:, 1], idx[:, 2]
    u_core = (f.factors[0][ii] @ f.core.reshape(r1, r2 * r3)).reshape(-1, r2, r3)
    phi = (u_core @ f.factors[2][kk][:, :, None])[:, :, 0]
    multi = (phi * f.factors[1][jj]).sum(axis=1)
    return f.mean + multi + f.biases[0][ii] + f.biases[1][jj] + f.biases[2][kk]


class Impute:
    name = "impute"
    ops_per_command = 1
    config = {
        "command": "impute --all-missing",
        "dims": (20, 365, 48),
        "observed_fraction": 0.02,
        "ranks": (5, 5, 5),
        "noise_sigma": 0.0,
        "value_offset": 10.0,
        "generator_seed": "--seed",
        "checkpoint": "the generator's truth model",
        "checked_sample_rows": 50_000,
    }
    HEADER = b"segment_id,day,slot,predicted_speed"

    def __init__(self):
        self._verified: dict[str, Outcome] = {}

    def prepare(self, seed: int, workdir: Path) -> Inputs:
        cfg = self.config
        tensor, truth, mapping, data = _synth(cfg, seed, workdir)
        ckpt, mapfile = workdir / "truth.ckpt", workdir / "mapping.json"
        save_checkpoint(truth, ckpt)
        save_mapping(mapping, mapfile)
        argv = ["impute", "--checkpoint", str(ckpt), "--mapping", str(mapfile),
                "--all-missing", "true", "--data", str(data),
                "--slots-per-day", str(cfg["dims"][2])]
        observed = np.ravel_multi_index(tuple(tensor.indices.T), tensor.dims)
        return Inputs(argv, data.stat().st_size, {
            "seed": seed, "dims": tensor.dims, "observed": np.sort(observed),
            "truth": ckpt,
        })

    def check(self, inputs: Inputs, rundir: Path) -> Outcome:
        path = rundir / "imputed.csv"
        raw = path.read_bytes()
        digest = _sha(raw)
        if digest not in self._verified:
            self._verified[digest] = self._verify(inputs, path, raw, digest)
        return self._verified[digest]

    def _verify(self, inputs: Inputs, path: Path, raw: bytes, digest: str) -> Outcome:
        ctx = inputs.ctx
        dims = ctx["dims"]
        problems = []
        if raw.split(b"\n", 1)[0] != self.HEADER:
            problems.append("imputed.csv header differs")
        # Segment and day ids are their own indices under the identity mapping.
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        n = len(rows)
        expected = dims[0] * dims[1] * dims[2] - len(ctx["observed"])
        if n != expected:
            problems.append(f"{n} rows written, {expected} cells missing")
        idx = rows[:, :3].astype(np.int64)
        flat = np.ravel_multi_index(tuple(idx.T), dims)
        if np.isin(flat, ctx["observed"]).any():
            problems.append("an observed cell was emitted")
        if len(np.unique(flat)) != n:
            problems.append("a cell was emitted twice")
        sample = np.random.default_rng(ctx["seed"]).choice(
            n, size=min(n, self.config["checked_sample_rows"]), replace=False)
        err = rows[sample, 3] - truth_values(load_checkpoint(ctx["truth"]), idx[sample])
        if not np.abs(err).max() < 1e-6:
            problems.append(f"sampled values differ from the truth by {np.abs(err).max():.3g}")
        rmse = float(np.sqrt(np.mean(err * err)))
        return Outcome(
            ops=1, failed=int(bool(problems)), problems=problems,
            test_rmse=rmse, work=n,
            digest=digest, csv_bytes_written=len(raw),
        )


class Protocol:
    name = "protocol"
    config = {
        "command": "benchmark",
        "dims": (20, 15, 30),
        "observed_fraction": 0.10,
        "ranks": (3, 3, 3),
        "noise_sigma": 0.01,
        # The Tier-1 fixture has offset 0, which gives negative values that
        # the CSV reader rejects as speeds.
        "value_offset": 10.0,
        "generator_seed": 20240,
        "ratios": "0.08,0.02,0.90",
        "eta": 0.02,
        "lambdas": 0.03,
        "gains": (1.0, 0.2, 0.0),
        "error_clamp": 1.0,
        "max_epochs": 50,
        "tol": 1e-12,
        "repeats": 10,
        "jobs": 1,
        "base_seed": "--seed x repeats",
    }

    ops_per_command = config["repeats"]

    def prepare(self, seed: int, workdir: Path) -> Inputs:
        cfg = self.config
        tensor, _truth, _mapping, data = _synth(cfg, cfg["generator_seed"], workdir)
        kp, ki, kd = cfg["gains"]
        lam = str(cfg["lambdas"])
        argv = ["benchmark", "--data", str(data), "--slots-per-day", str(cfg["dims"][2]),
                "--ranks", ",".join(map(str, cfg["ranks"])), "--ratios", cfg["ratios"],
                "--eta", str(cfg["eta"]), "--lambda1", lam, "--lambda2", lam, "--lambda3", lam,
                "--kp", str(kp), "--ki", str(ki), "--kd", str(kd),
                "--error-clamp", str(cfg["error_clamp"]),
                "--max-epochs", str(cfg["max_epochs"]), "--tol", repr(cfg["tol"]),
                "--repeats", str(cfg["repeats"]), "--base-seed", str(seed * cfg["repeats"]),
                "--jobs", str(cfg["jobs"])]
        n_train = math.floor(len(tensor) * float(cfg["ratios"].split(",")[0]))
        return Inputs(argv, data.stat().st_size, {"n_train": n_train})

    def check(self, inputs: Inputs, rundir: Path) -> Outcome:
        summary = json.loads((rundir / "summary.json").read_text(encoding="utf-8"))
        repeats = self.config["repeats"]
        reps = summary["repeats"]
        problems = []
        if sorted(r["repeat"] for r in reps) != list(range(repeats)):
            problems.append(f"repeats present: {sorted(r['repeat'] for r in reps)}")
        ok = [r for r in reps if r["error"] is None and _finite(r["rmse"])]
        problems += [f"repeat {r['repeat']}: {r['error'] or 'non-finite rmse'}"
                     for r in reps if r not in ok]
        untimed = {k: v for k, v in summary.items() if not k.startswith("seconds")}
        untimed["repeats"] = [{k: v for k, v in r.items() if k != "seconds"} for r in reps]
        return Outcome(
            ops=repeats, failed=repeats - len(ok), problems=problems,
            test_rmse=statistics.median(r["rmse"] for r in ok) if ok else None,
            work=sum(r["epochs"] for r in ok) * inputs.ctx["n_train"],
            work_seconds=sum(r["seconds"] for r in ok),
            repeat_seconds=[r["seconds"] for r in ok],
            digest=_sha(json.dumps(untimed, sort_keys=True).encode()),
            csv_bytes_written=_csv_bytes(rundir),
        )


WORKLOADS = {"fit": Fit, "impute": Impute, "protocol": Protocol}
