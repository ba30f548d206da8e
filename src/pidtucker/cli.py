"""Command-line entry point: train, benchmark, impute, synth, evaluate.

Options may come from a flat key=value config file (--config) and from flags;
flags override file keys, unknown keys are rejected, and the effective merged
configuration is echoed into the output directory.  Every command writes into
a fresh per-run directory (staged under a temporary name and renamed on
success, so failures leave no partial outputs).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from .datasets import (
    CsvSchema,
    SyntheticSpec,
    export_imputed,
    generate_synthetic,
    identity_mapping,
    load_csv,
    load_mapping,
    missing_indices,
    read_targets_csv,
    save_mapping,
    write_records_csv,
)
from .errors import ConfigError, DataError, DivergenceError
from .evaluation import (
    ExperimentConfig,
    rmse,
    run_experiment,
    write_summary_csv,
    write_summary_json,
)
from .model import Ranks, RegWeights, load_checkpoint, save_checkpoint
from .pid import PidGains
from .solver import Hyperparams, train, write_trace
from .sparse import split

# Option tables: key -> (type tag, default).  None defaults mark required keys
# unless the command treats the key as optional itself.
_SCHEMA_KEYS = {
    "col-segment": ("str", "segment"),
    "col-day": ("str", "day"),
    "col-slot": ("str", "slot"),
    "col-speed": ("str", "speed"),
    "slots-per-day": ("int", 288),
}

_HYPER_KEYS = {
    "ratios": ("floats3", (0.08, 0.02, 0.90)),
    "eta": ("float", 0.01),
    "lambda1": ("float", 0.01),
    "lambda2": ("float", 0.01),
    "lambda3": ("float", 0.01),
    "kp": ("float", 1.0),
    "ki": ("float", 0.1),
    "kd": ("float", 0.1),
    "error-clamp": ("optfloat", None),
    "ranks": ("ints3", (5, 5, 5)),
    "max-epochs": ("int", 1000),
    "tol": ("float", 1e-5),
    "init-scale": ("float", 0.04),
    "seed": ("int", 0),
    "plain-sgd": ("bool", False),
}

_COMMAND_KEYS = {
    "train": {"data": ("str", None), **_SCHEMA_KEYS, **_HYPER_KEYS},
    "benchmark": {
        "data": ("str", None),
        **_SCHEMA_KEYS,
        **_HYPER_KEYS,
        "repeats": ("int", 20),
        "base-seed": ("int", 0),
        "jobs": ("int", 1),
    },
    "synth": {
        "dims": ("ints3", None),
        "ranks": ("ints3", (5, 5, 5)),
        "observed-fraction": ("float", 0.1),
        "noise-sigma": ("float", 0.0),
        # speed-like offset; must keep every generated value nonnegative so the
        # emitted CSV is a valid speed-record file
        "value-offset": ("float", 10.0),
        "seed": ("int", 0),
    },
    "impute": {
        "checkpoint": ("str", None),
        "mapping": ("str", None),
        "targets": ("str", None),
        "all-missing": ("bool", False),
        "data": ("str", None),
        **_SCHEMA_KEYS,
    },
    "evaluate": {
        "checkpoint": ("str", None),
        "mapping": ("str", None),
        "data": ("str", None),
        **_SCHEMA_KEYS,
    },
}

_REQUIRED = {
    "train": ("data",),
    "benchmark": ("data",),
    "synth": ("dims",),
    "impute": ("checkpoint", "mapping"),
    "evaluate": ("checkpoint", "mapping", "data"),
}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _convert(key: str, tag: str, text: str):
    try:
        if tag == "str":
            return text
        if tag == "int":
            return int(text)
        if tag == "float":
            return float(text)
        if tag == "bool":
            return _parse_bool(text)
        if tag == "optfloat":
            return None if text.strip().lower() == "none" else float(text)
        if tag in ("floats3", "ints3"):
            parts = tuple(map(float if tag == "floats3" else int, text.split(",")))
            if len(parts) != 3:
                raise ValueError("expected three comma-separated values")
            return parts
    except ValueError as exc:
        raise ConfigError(f"invalid value for {key!r}: {exc}") from None
    raise AssertionError(f"unknown option tag {tag}")


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    keys = _COMMAND_KEYS[command]
    merged = {key: default for key, (_, default) in keys.items()}

    if args.config:
        for key, text in _read_config_file(args.config).items():
            if key not in keys:
                raise ConfigError(f"unknown config key {key!r} for command {command!r}")
            merged[key] = _convert(key, keys[key][0], text)

    for key, (tag, _) in keys.items():
        flag_value = getattr(args, key.replace("-", "_"))
        if flag_value is not None:
            merged[key] = _convert(key, tag, flag_value)

    for key in _REQUIRED[command]:
        if merged[key] is None:
            raise ConfigError(f"missing required option {key!r} for command {command!r}")
    return merged


def _write_effective_config(cfg: dict, path: Path) -> None:
    lines = [f"{key}={_format_value(cfg[key])}" for key in sorted(cfg)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _schema_from(cfg: dict) -> CsvSchema:
    return CsvSchema(
        segment=cfg["col-segment"],
        day=cfg["col-day"],
        slot=cfg["col-slot"],
        speed=cfg["col-speed"],
        slots_per_day=cfg["slots-per-day"],
    )


def _hyper_from(cfg: dict) -> Hyperparams:
    return Hyperparams(
        eta=cfg["eta"],
        reg=RegWeights(cfg["lambda1"], cfg["lambda2"], cfg["lambda3"]),
        gains=PidGains(cfg["kp"], cfg["ki"], cfg["kd"]),
        ranks=Ranks(*cfg["ranks"]),
        max_epochs=cfg["max-epochs"],
        tol=cfg["tol"],
        init_scale=cfg["init-scale"],
        seed=cfg["seed"],
        plain_sgd=cfg["plain-sgd"],
        error_clamp=cfg["error-clamp"],
    )


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def cmd_train(cfg: dict, rundir: Path) -> None:
    tensor, mapping = load_csv(cfg["data"], _schema_from(cfg))
    hyper = _hyper_from(cfg)
    parts = split(tensor, cfg["ratios"], cfg["seed"])
    t0 = time.perf_counter()
    factors, report = train(tensor, parts, hyper)
    seconds = time.perf_counter() - t0
    test_rmse = rmse(factors, tensor.indices[parts.test], tensor.values[parts.test])

    save_checkpoint(factors, rundir / "model.ckpt")
    write_trace(report, rundir / "trace.csv")
    save_mapping(mapping, rundir / "mapping.json")
    _write_json(
        {
            "epochs_run": report.epochs_run,
            "converged": report.converged,
            "final_val_rmse": report.final_val_rmse,
            "best_epoch": report.best_epoch,
            "test_rmse": test_rmse,
            "train_entries": int(len(parts.train)),
            "train_seconds": seconds,
        },
        rundir / "summary.json",
    )


def cmd_benchmark(cfg: dict, rundir: Path) -> None:
    tensor, _mapping = load_csv(cfg["data"], _schema_from(cfg))
    experiment = ExperimentConfig(
        hyper=_hyper_from(cfg),
        ratios=cfg["ratios"],
        repeats=cfg["repeats"],
        base_seed=cfg["base-seed"],
    )
    summary = run_experiment(tensor, experiment, jobs=cfg["jobs"])
    write_summary_json(summary, rundir / "summary.json")
    write_summary_csv(summary, rundir / "summary.csv")


def cmd_synth(cfg: dict, rundir: Path) -> None:
    spec = SyntheticSpec(
        dims=cfg["dims"],
        ranks=Ranks(*cfg["ranks"]),
        observed_fraction=cfg["observed-fraction"],
        noise_sigma=cfg["noise-sigma"],
        value_offset=cfg["value-offset"],
        seed=cfg["seed"],
    )
    tensor, truth = generate_synthetic(spec)
    if tensor.values.min() < 0:
        raise ConfigError(
            f"generated values reach {tensor.values.min():.4f}; raise "
            f"--value-offset so all synthetic speeds are nonnegative"
        )
    mapping = identity_mapping(spec.dims)
    write_records_csv(tensor.indices, tensor.values, mapping, rundir / "data.csv")
    save_checkpoint(truth, rundir / "truth.ckpt")
    save_mapping(mapping, rundir / "mapping.json")


def cmd_impute(cfg: dict, rundir: Path) -> None:
    if (cfg["targets"] is None) == (not cfg["all-missing"]):
        raise ConfigError("impute needs exactly one of --targets FILE or --all-missing true")
    factors = load_checkpoint(cfg["checkpoint"])
    mapping = load_mapping(cfg["mapping"])
    if cfg["all-missing"]:
        if cfg["data"] is None:
            raise ConfigError("--all-missing requires --data to locate observed cells")
        tensor, _ = load_csv(cfg["data"], _schema_from(cfg), mapping)
        targets = missing_indices(tensor)
    else:
        targets = read_targets_csv(cfg["targets"], _schema_from(cfg), mapping)
    export_imputed(factors, targets, mapping, rundir / "imputed.csv")


def cmd_evaluate(cfg: dict, rundir: Path) -> None:
    factors = load_checkpoint(cfg["checkpoint"])
    mapping = load_mapping(cfg["mapping"])
    tensor, _ = load_csv(cfg["data"], _schema_from(cfg), mapping)
    score = rmse(factors, tensor.indices, tensor.values)
    _write_json({"rmse": score, "entries": len(tensor)}, rundir / "evaluation.json")
    print(f"rmse={score!r} over {len(tensor)} entries")


_COMMANDS = {
    "train": cmd_train,
    "benchmark": cmd_benchmark,
    "synth": cmd_synth,
    "impute": cmd_impute,
    "evaluate": cmd_evaluate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pidtucker",
        description="Sparse 3-mode tensor completion with PID-adjusted SGD.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in _COMMAND_KEYS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--outdir", default="runs", help="parent directory for run outputs")
        p.add_argument("--run-name", default=None, help="output directory name under outdir")
        for key in keys:
            p.add_argument(f"--{key}", dest=key.replace("-", "_"), default=None)
    return parser


def _make_rundir(outdir: str, run_name: str | None, command: str) -> tuple[Path, Path]:
    parent = Path(outdir)
    parent.mkdir(parents=True, exist_ok=True)
    if run_name is None:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        run_name = f"{command}-{stamp}"
        counter = 1
        while (parent / run_name).exists():
            counter += 1
            run_name = f"{command}-{stamp}-{counter}"
    final = parent / run_name
    if final.exists():
        raise ConfigError(f"output directory already exists: {final}")
    # A unique staging name, so concurrent runs never share or remove each
    # other's staging directory.
    staging = Path(tempfile.mkdtemp(prefix=f".{run_name}.", suffix=".tmp", dir=parent))
    # mkdtemp's directory is private; give the run the mode a plain mkdir would.
    umask = os.umask(0)
    os.umask(umask)
    staging.chmod(0o777 & ~umask)
    return staging, final


def _publish(staging: Path, final: Path) -> None:
    """Rename the staged run into place; ConfigError if the name was taken meanwhile."""
    if final.exists():
        raise ConfigError(f"output directory already exists: {final}")
    try:
        staging.replace(final)
    except OSError as exc:
        raise ConfigError(f"cannot move the run into {final}: {exc}") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args.command, args)
        staging, final = _make_rundir(args.outdir, args.run_name, args.command)
        try:
            _write_effective_config(cfg, staging / "config.txt")
            _COMMANDS[args.command](cfg, staging)
            _publish(staging, final)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        print(final)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
