"""Command-line entry point: train, benchmark, impute, synth, evaluate.

Config keys are flags: a --config file's key=value lines count as flags put
before the command line's own, which win.  Every usage error (unknown or
abbreviated key, bad value, missing option) exits 2.  A run writes its outputs
and effective configuration (config.txt) into a fresh directory, staged under
a temporary name and renamed on success, so failures leave no partial outputs.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 divergence.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from .datasets import (
    CsvSchema,
    SyntheticSpec,
    _check_mapping,
    _write_json,
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

def _three(kind):
    """An argparse type reading three comma-separated `kind` values."""

    def parse(text: str) -> tuple:
        try:
            parts = tuple(map(kind, text.split(",")))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("expected three comma-separated values")
        return parts

    return parse


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {text!r}")


def _float_or_none(text: str) -> float | None:
    if text.strip().lower() == "none":
        return None
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# Option tables: key -> (argparse type, default).  Each default is read from
# the library class that owns the setting; only the CLI's own keys have literal
# ones.  ... marks a required key, checked after parsing since its value may
# come from a config file.  None is unset.
_SCHEMA_KEYS = {
    "col-segment": (str, CsvSchema.segment),
    "col-day": (str, CsvSchema.day),
    "col-slot": (str, CsvSchema.slot),
    "col-speed": (str, CsvSchema.speed),
    "slots-per-day": (int, CsvSchema.slots_per_day),
}

_HYPER_KEYS = {
    "ratios": (_three(float), ExperimentConfig.ratios),
    "eta": (float, Hyperparams.eta),
    "lambda1": (float, RegWeights.lambda1),
    "lambda2": (float, RegWeights.lambda2),
    "lambda3": (float, RegWeights.lambda3),
    "kp": (float, PidGains.kp),
    "ki": (float, PidGains.ki),
    "kd": (float, PidGains.kd),
    "error-clamp": (_float_or_none, Hyperparams.error_clamp),
    "ranks": (_three(int), Ranks().as_tuple()),
    "max-epochs": (int, Hyperparams.max_epochs),
    "tol": (float, Hyperparams.tol),
    "init-scale": (float, Hyperparams.init_scale),
    "plain-sgd": (_bool, Hyperparams.plain_sgd),
}

_COMMAND_KEYS = {
    "train": {"data": (str, ...), "seed": (int, Hyperparams.seed),
              **_SCHEMA_KEYS, **_HYPER_KEYS},
    "benchmark": {
        "data": (str, ...),
        **_SCHEMA_KEYS,
        **_HYPER_KEYS,
        "repeats": (int, ExperimentConfig.repeats),
        "base-seed": (int, Hyperparams.seed),  # repeat r's seed is base-seed + r
        "jobs": (int, 1),
    },
    "synth": {
        "dims": (_three(int), ...),
        "ranks": (_three(int), Ranks().as_tuple()),
        "observed-fraction": (float, 0.1),
        "noise-sigma": (float, SyntheticSpec.noise_sigma),
        # speed-like offset; must keep every generated value nonnegative so the
        # emitted CSV is a valid speed-record file
        "value-offset": (float, 10.0),
        "seed": (int, SyntheticSpec.seed),
    },
    "impute": {
        "checkpoint": (str, ...),
        "mapping": (str, ...),
        "targets": (str, None),
        "all-missing": (_bool, False),
        "data": (str, None),
        **_SCHEMA_KEYS,
    },
    "evaluate": {
        "checkpoint": (str, ...),
        "mapping": (str, ...),
        "data": (str, ...),
        **_SCHEMA_KEYS,
    },
}


def _format_value(value) -> str:
    if value is None or isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def _read_config_file(path: str) -> list[str]:
    """The file's key=value lines as --key=value arguments, in file order."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # a NUL byte in the path, or not UTF-8
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    args = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key in ("config", "outdir", "run-name"):
            raise ConfigError(f"{path}: line {lineno}: {key!r} can only be set by a flag")
        args.append(f"--{key}={value}")
    return args


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


def _hyper_from(cfg: dict, **extra) -> Hyperparams:
    return Hyperparams(
        eta=cfg["eta"],
        reg=RegWeights(cfg["lambda1"], cfg["lambda2"], cfg["lambda3"]),
        gains=PidGains(cfg["kp"], cfg["ki"], cfg["kd"]),
        ranks=Ranks(*cfg["ranks"]),
        max_epochs=cfg["max-epochs"],
        tol=cfg["tol"],
        init_scale=cfg["init-scale"],
        plain_sgd=cfg["plain-sgd"],
        error_clamp=cfg["error-clamp"],
        **extra,
    )


def cmd_train(cfg: dict, rundir: Path) -> None:
    tensor, mapping = load_csv(cfg["data"], _schema_from(cfg))
    hyper = _hyper_from(cfg, seed=cfg["seed"])
    parts = split(tensor, cfg["ratios"], cfg["seed"])
    factors, report = train(tensor, parts, hyper)
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
            "train_seconds": report.seconds,
        },
        rundir / "summary.json",
    )


def cmd_benchmark(cfg: dict, rundir: Path) -> None:
    tensor, _mapping = load_csv(cfg["data"], _schema_from(cfg))
    experiment = ExperimentConfig(
        hyper=_hyper_from(cfg, seed=cfg["base-seed"]),
        ratios=cfg["ratios"],
        repeats=cfg["repeats"],
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
    try:
        tensor, truth = generate_synthetic(spec)
    except DataError as exc:  # non-finite values, and every input here is an option
        raise ConfigError(f"{exc}; lower --noise-sigma or --value-offset") from None
    if tensor.values.min() < 0:
        raise ConfigError(
            f"generated values reach {tensor.values.min():.4f}; raise "
            f"--value-offset so all synthetic speeds are nonnegative"
        )
    mapping = identity_mapping(spec.dims)
    write_records_csv(tensor.indices, tensor.values, mapping, rundir / "data.csv")
    save_checkpoint(truth, rundir / "truth.ckpt")
    save_mapping(mapping, rundir / "mapping.json")


def _load_model(cfg: dict):
    """The checkpoint and its mapping, checked against each other before any data is read."""
    factors = load_checkpoint(cfg["checkpoint"])
    mapping = load_mapping(cfg["mapping"])
    _check_mapping(mapping, factors)
    return factors, mapping


def cmd_impute(cfg: dict, rundir: Path) -> None:
    if (cfg["targets"] is None) == (not cfg["all-missing"]):
        raise ConfigError("impute needs exactly one of --targets FILE or --all-missing true")
    factors, mapping = _load_model(cfg)
    if cfg["all-missing"]:
        if cfg["data"] is None:
            raise ConfigError("--all-missing requires --data to locate observed cells")
        tensor, _ = load_csv(cfg["data"], _schema_from(cfg), mapping)
        targets = missing_indices(tensor)
    else:
        targets = read_targets_csv(cfg["targets"], _schema_from(cfg), mapping)
    export_imputed(factors, targets, mapping, rundir / "imputed.csv")


def cmd_evaluate(cfg: dict, rundir: Path) -> None:
    factors, mapping = _load_model(cfg)
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


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ConfigError (exit 2)."""

    def error(self, message):
        raise ConfigError(message)


def _parse(argv) -> tuple[argparse.Namespace, dict]:
    """The parsed arguments and the command's option values; ConfigError on misuse.

    A --config file's lines go in right after the command name, so the
    command line's own flags, which come later, win.
    """
    parser = _Parser(
        prog="pidtucker",
        description="Sparse 3-mode tensor completion with PID-adjusted SGD.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in _COMMAND_KEYS.items():
        p = sub.add_parser(command, allow_abbrev=False)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--outdir", default="runs", help="parent directory for run outputs")
        p.add_argument("--run-name", default=None, help="output directory name under outdir")
        for key, (kind, default) in keys.items():
            p.add_argument(f"--{key}", dest=key, type=kind, default=default)
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    if args.config:
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + _read_config_file(args.config) + argv[at:])
    cfg = {key: getattr(args, key) for key in _COMMAND_KEYS[args.command]}
    for key, value in cfg.items():
        if value is ...:
            raise ConfigError(f"missing required option {key!r} for command {args.command!r}")
    return args, cfg


def _make_rundir(outdir: str, run_name: str | None, command: str) -> tuple[Path, Path]:
    parent = Path(outdir)
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
    try:
        parent.mkdir(parents=True, exist_ok=True)
        # A unique staging name, so concurrent runs never share or remove each
        # other's staging directory.
        staging = Path(tempfile.mkdtemp(prefix=f".{run_name}.", suffix=".tmp", dir=parent))
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot create run directory {final}: {exc}") from None
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
    try:
        args, cfg = _parse(argv)
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
