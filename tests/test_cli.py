import csv
import dataclasses
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pidtucker import (
    CsvSchema,
    Hyperparams,
    PidGains,
    Ranks,
    RegWeights,
    identity_mapping,
    init_factors,
    load_checkpoint,
    load_csv,
    rmse,
    save_checkpoint,
    save_mapping,
    split,
    train,
)
from pidtucker import cli
from pidtucker.cli import main


def run_cli(*args):
    return main([str(a) for a in args])


def synth_args(outdir, name, dims="6,5,8", **extra):
    args = ["synth", "--outdir", outdir, "--run-name", name, "--dims", dims,
            "--ranks", "2,2,2", "--observed-fraction", "0.6", "--noise-sigma", "0.01",
            "--seed", "3"]
    for key, val in extra.items():
        args += [f"--{key.replace('_', '-')}", str(val)]
    return args


TRAIN_FLAGS = ["--ratios", "0.5,0.2,0.3", "--max-epochs", "10", "--seed", "5",
               "--slots-per-day", "8"]


def test_missing_data_file_exit_3(tmp_path, capsys):
    code = run_cli("train", "--outdir", tmp_path, "--run-name", "r",
                   "--data", tmp_path / "nope.csv")
    assert code == 3
    assert "nope.csv" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # no partial outputs


def test_missing_required_option_exit_2(tmp_path, capsys):
    code = run_cli("train", "--outdir", tmp_path, "--run-name", "r")
    assert code == 2
    assert "data" in capsys.readouterr().err


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data=whatever.csv\nbogus-key=1\n")
    code = run_cli("train", "--config", cfg, "--outdir", tmp_path, "--run-name", "r")
    assert code == 2
    assert "bogus-key" in capsys.readouterr().err


def test_bad_value_exit_2(tmp_path, capsys):
    code = run_cli("synth", "--outdir", tmp_path, "--run-name", "r", "--dims", "6,5")
    assert code == 2


def test_synth_writes_outputs(tmp_path):
    assert run_cli(*synth_args(tmp_path, "s")) == 0
    rundir = tmp_path / "s"
    for name in ("data.csv", "truth.ckpt", "mapping.json", "config.txt"):
        assert (rundir / name).exists()


def test_synth_deterministic_files(tmp_path):
    assert run_cli(*synth_args(tmp_path, "a")) == 0
    assert run_cli(*synth_args(tmp_path, "b")) == 0
    for name in ("data.csv", "truth.ckpt", "mapping.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_existing_run_dir_rejected(tmp_path):
    assert run_cli(*synth_args(tmp_path, "dup")) == 0
    assert run_cli(*synth_args(tmp_path, "dup")) == 2


def test_run_leaves_another_runs_staging_dir_alone(tmp_path):
    other = tmp_path / ".r.tmp"
    other.mkdir()
    (other / "marker").write_text("in progress")
    assert run_cli(*synth_args(tmp_path, "s")) == 0
    code = run_cli("train", "--outdir", tmp_path, "--run-name", "r",
                   "--data", tmp_path / "s" / "data.csv", *TRAIN_FLAGS)
    assert code == 0
    assert (other / "marker").read_text() == "in progress"
    assert (tmp_path / "r" / "model.ckpt").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [".r.tmp", "r", "s"]
    # The run directory gets the mode a plain mkdir gives.
    assert (tmp_path / "r").stat().st_mode == other.stat().st_mode


def test_run_name_taken_while_running_exit_2(tmp_path, monkeypatch, capsys):
    def rival(cfg, staging):
        (tmp_path / "r").mkdir()
        (tmp_path / "r" / "config.txt").write_text("another run\n")

    monkeypatch.setitem(cli._COMMANDS, "synth", rival)
    code = run_cli(*synth_args(tmp_path, "r"))
    assert code == 2
    assert "already exists" in capsys.readouterr().err
    assert (tmp_path / "r" / "config.txt").read_text() == "another run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["r"]  # staging removed


def test_train_pipeline_outputs(tmp_path):
    assert run_cli(*synth_args(tmp_path, "s")) == 0
    code = run_cli("train", "--outdir", tmp_path, "--run-name", "t",
                   "--data", tmp_path / "s" / "data.csv", *TRAIN_FLAGS)
    assert code == 0
    rundir = tmp_path / "t"
    for name in ("model.ckpt", "trace.csv", "summary.json", "mapping.json", "config.txt"):
        assert (rundir / name).exists()
    summary = json.loads((rundir / "summary.json").read_text())
    assert summary["epochs_run"] == 10
    trace = (rundir / "trace.csv").read_text().splitlines()
    assert trace[0] == "epoch,train_loss,val_rmse,elapsed_s"
    assert len(trace) == 11


def test_config_file_with_flag_override(tmp_path):
    assert run_cli(*synth_args(tmp_path, "s")) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"data={tmp_path / 's' / 'data.csv'}\n"
        "ratios=0.5,0.2,0.3\n"
        "max-epochs=99\n"
        "slots-per-day=8\n"
        "seed=5\n"
        "# comment lines are fine\n"
    )
    code = run_cli("train", "--config", cfg, "--outdir", tmp_path, "--run-name", "t",
                   "--max-epochs", "4")
    assert code == 0
    effective = (tmp_path / "t" / "config.txt").read_text()
    assert "max-epochs=4" in effective  # flag wins over file
    assert "seed=5" in effective
    summary = json.loads((tmp_path / "t" / "summary.json").read_text())
    assert summary["epochs_run"] == 4


def test_pid_identity_flags_match_plain_sgd_flag(tmp_path):
    """Gains 1, 0, 0 with no clamp (adjust skipped) and with an infinite one
    (adjust run on every entry, never binding) write the same checkpoint."""
    assert run_cli(*synth_args(tmp_path, "s")) == 0
    data = tmp_path / "s" / "data.csv"
    base = ["--outdir", tmp_path, "--data", data, *TRAIN_FLAGS, "--kp", "1", "--ki", "0",
            "--kd", "0"]
    assert run_cli("train", "--run-name", "pid", *base, "--error-clamp", "inf") == 0
    assert run_cli("train", "--run-name", "plain", *base) == 0
    pid_bytes = (tmp_path / "pid" / "model.ckpt").read_bytes()
    plain_bytes = (tmp_path / "plain" / "model.ckpt").read_bytes()
    assert pid_bytes == plain_bytes


def test_impute_header_only_targets(tmp_path):
    assert run_cli(*synth_args(tmp_path, "s")) == 0
    data = tmp_path / "s" / "data.csv"
    assert run_cli("train", "--outdir", tmp_path, "--run-name", "t", "--data", data,
                   *TRAIN_FLAGS) == 0
    targets = tmp_path / "targets.csv"
    targets.write_text("segment,day,slot\n")
    code = run_cli("impute", "--outdir", tmp_path, "--run-name", "i",
                   "--checkpoint", tmp_path / "t" / "model.ckpt",
                   "--mapping", tmp_path / "t" / "mapping.json",
                   "--targets", targets, "--slots-per-day", "8")
    assert code == 0
    assert (tmp_path / "i" / "imputed.csv").read_text() == "segment_id,day,slot,predicted_speed\n"


def test_impute_all_missing(tmp_path):
    assert run_cli(*synth_args(tmp_path, "s")) == 0
    data = tmp_path / "s" / "data.csv"
    assert run_cli("train", "--outdir", tmp_path, "--run-name", "t", "--data", data,
                   *TRAIN_FLAGS) == 0
    code = run_cli("impute", "--outdir", tmp_path, "--run-name", "i",
                   "--checkpoint", tmp_path / "t" / "model.ckpt",
                   "--mapping", tmp_path / "t" / "mapping.json",
                   "--all-missing", "true", "--data", data, "--slots-per-day", "8")
    assert code == 0
    lines = (tmp_path / "i" / "imputed.csv").read_text().splitlines()
    n_obs = len(data.read_text().splitlines()) - 1
    assert len(lines) - 1 == 6 * 5 * 8 - n_obs


def test_impute_needs_exactly_one_target_source(tmp_path):
    assert run_cli(*synth_args(tmp_path, "s")) == 0
    code = run_cli("impute", "--outdir", tmp_path, "--run-name", "i",
                   "--checkpoint", tmp_path / "s" / "truth.ckpt",
                   "--mapping", tmp_path / "s" / "mapping.json")
    assert code == 2


def test_evaluate_matches_library_rmse(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path, "s")) == 0
    data = tmp_path / "s" / "data.csv"
    assert run_cli("train", "--outdir", tmp_path, "--run-name", "t", "--data", data,
                   *TRAIN_FLAGS) == 0
    code = run_cli("evaluate", "--outdir", tmp_path, "--run-name", "e",
                   "--checkpoint", tmp_path / "t" / "model.ckpt",
                   "--mapping", tmp_path / "t" / "mapping.json",
                   "--data", data, "--slots-per-day", "8")
    assert code == 0
    payload = json.loads((tmp_path / "e" / "evaluation.json").read_text())

    factors = load_checkpoint(tmp_path / "t" / "model.ckpt")
    tensor, _ = load_csv(data, CsvSchema(slots_per_day=8))
    expected = rmse(factors, tensor.indices, tensor.values)
    assert payload["rmse"] == expected
    assert payload["entries"] == len(tensor)


def synth_and_train(tmp_path):
    """Synthesize data.csv and train on it; return the data path and run dir."""
    assert run_cli(*synth_args(tmp_path, "s")) == 0
    data = tmp_path / "s" / "data.csv"
    assert run_cli("train", "--outdir", tmp_path, "--run-name", "t", "--data", data,
                   *TRAIN_FLAGS) == 0
    return data, tmp_path / "t"


def model_args(rundir):
    return ["--checkpoint", rundir / "model.ckpt", "--mapping", rundir / "mapping.json"]


def test_impute_all_missing_rejects_id_outside_training_mapping(tmp_path, capsys):
    data, trained = synth_and_train(tmp_path)
    header, first, *rest = data.read_text().splitlines()
    other = tmp_path / "other.csv"
    other.write_text("\n".join([header, "zz" + first[first.index(","):], *rest]) + "\n")
    code = run_cli("impute", "--outdir", tmp_path, "--run-name", "i", *model_args(trained),
                   "--all-missing", "true", "--data", other, "--slots-per-day", "8")
    assert code == 3
    assert "unknown segment id 'zz'" in capsys.readouterr().err
    assert not (tmp_path / "i").exists()


def test_impute_rejects_a_mapping_id_utf8_cannot_encode(tmp_path, capsys):
    data, trained = synth_and_train(tmp_path)
    mapping = json.loads((trained / "mapping.json").read_text())
    dropped, mapping["segments"][-1] = mapping["segments"][-1], "\ud800x"
    (trained / "mapping.json").write_text(json.dumps(mapping))  # spelled as "\ud800x"
    header, *rows = data.read_text().splitlines()
    kept = tmp_path / "kept.csv"
    kept.write_text("\n".join([header, *(r for r in rows if r.split(",")[0] != dropped)]) + "\n")
    code = run_cli("impute", "--outdir", tmp_path, "--run-name", "i", *model_args(trained),
                   "--all-missing", "true", "--data", kept)
    assert code == 3
    assert "segment id '\\ud800x'" in capsys.readouterr().err
    assert not (tmp_path / "i").exists()


def test_impute_writes_ids_that_need_quoting_as_csv_fields(tmp_path):
    segments = ["a,b", 'q"uote', "line\nbreak", "cr\rid", " spaced id "]
    cells = {(s, d, k) for s in segments for d in ("1", "2") for k in ("0", "1", "2")}
    observed = sorted(c for n, c in enumerate(sorted(cells)) if n % 3)
    data = tmp_path / "data.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["segment", "day", "slot", "speed"])
        writer.writerows([*c, 10.0 + n] for n, c in enumerate(observed))
    assert run_cli("train", "--outdir", tmp_path, "--run-name", "t", "--data", data,
                   "--slots-per-day", "3", "--ratios", "0.5,0.2,0.3", "--max-epochs", "2") == 0
    assert run_cli("impute", "--outdir", tmp_path, "--run-name", "i",
                   *model_args(tmp_path / "t"), "--all-missing", "true", "--data", data) == 0
    with open(tmp_path / "i" / "imputed.csv", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["segment_id", "day", "slot", "predicted_speed"]
    assert all(len(row) == 4 for row in rows)
    assert {tuple(row[:3]) for row in rows} == cells - set(observed)
    assert len(rows) == len(cells) - len(observed)


def test_impute_all_missing_takes_slot_count_from_mapping(tmp_path, capsys):
    data, trained = synth_and_train(tmp_path)
    args = ["impute", "--outdir", tmp_path, *model_args(trained),
            "--all-missing", "true", "--data", data]
    assert run_cli(*args, "--run-name", "given", "--slots-per-day", "8") == 0
    assert run_cli(*args, "--run-name", "default") == 0
    given = (tmp_path / "given" / "imputed.csv").read_bytes()
    assert (tmp_path / "default" / "imputed.csv").read_bytes() == given
    assert "slots-per-day=none" in (tmp_path / "default" / "config.txt").read_text()
    capsys.readouterr()
    assert run_cli(*args, "--run-name", "other", "--slots-per-day", "3") == 2
    assert capsys.readouterr().err == (
        "config error: --slots-per-day 3 does not match the mapping's 8 slots per day\n")
    assert not (tmp_path / "other").exists()


def test_evaluate_refuses_a_slot_count_other_than_the_mapping_s(tmp_path, capsys):
    data, trained = synth_and_train(tmp_path)
    capsys.readouterr()
    assert run_cli("evaluate", "--outdir", tmp_path, "--run-name", "e", *model_args(trained),
                   "--data", data, "--slots-per-day", "3") == 2
    assert capsys.readouterr().err == (
        "config error: --slots-per-day 3 does not match the mapping's 8 slots per day\n")
    assert not (tmp_path / "e").exists()


def test_evaluate_rejects_duplicate_cell(tmp_path, capsys):
    data, trained = synth_and_train(tmp_path)
    lines = data.read_text().splitlines()
    dup = tmp_path / "dup.csv"
    dup.write_text("\n".join([*lines, lines[1]]) + "\n")
    code = run_cli("evaluate", "--outdir", tmp_path, "--run-name", "e", *model_args(trained),
                   "--data", dup)
    assert code == 3
    assert "duplicate" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["dims", "ranks", "mean"])
def test_checkpoint_header_without_key_exit_3(tmp_path, capsys, key):
    data, trained = synth_and_train(tmp_path)
    ckpt = trained / "model.ckpt"
    header_line, _, payload = ckpt.read_bytes().partition(b"\n")
    header = json.loads(header_line)
    del header[key]
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    code = run_cli("evaluate", "--outdir", tmp_path, "--run-name", "e", *model_args(trained),
                   "--data", data)
    assert code == 3
    assert key in capsys.readouterr().err


def _missing_checkpoint(rundir):
    return "nope.ckpt", ["--checkpoint", rundir / "nope.ckpt", "--mapping", rundir / "mapping.json"]


def _missing_mapping(rundir):
    return "nope.json", ["--checkpoint", rundir / "model.ckpt", "--mapping", rundir / "nope.json"]


def _mapping_without_segments(rundir):
    path = rundir / "mapping.json"
    payload = json.loads(path.read_text())
    del payload["segments"]
    path.write_text(json.dumps(payload))
    return "segments", model_args(rundir)


def _mapping_not_json(rundir):
    (rundir / "mapping.json").write_text("segments: a, b\n")
    return "not a mapping file", model_args(rundir)


def _checkpoint_with_nan(rundir):
    factors = load_checkpoint(rundir / "model.ckpt")
    factors.core[0, 0, 0] = float("nan")
    save_checkpoint(factors, rundir / "model.ckpt")
    return "non-finite", model_args(rundir)


def _mapping_with_a_repeated_day(rundir):
    path = rundir / "mapping.json"
    payload = json.loads(path.read_text())
    payload["days"][-1] = payload["days"][0]
    path.write_text(json.dumps(payload))
    return f"day id {payload['days'][0]!r} is not a distinct non-empty string", model_args(rundir)


def _checkpoint_with_a_negative_dim(rundir):
    ckpt = rundir / "model.ckpt"
    header_line, _, payload = ckpt.read_bytes().partition(b"\n")
    header = json.loads(header_line)
    header["dims"][0] = -1
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    return "checkpoint dims must be three positive integers, got (-1, ", model_args(rundir)


def _checkpoint_with_header(key, values):
    """The trained checkpoint with header[key] set to values, which are not
    three positive JSON integers."""

    def breaks(rundir):
        ckpt = rundir / "model.ckpt"
        header_line, _, payload = ckpt.read_bytes().partition(b"\n")
        header = {**json.loads(header_line), key: values}
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        return (f"checkpoint {key} must be three positive integers, got {tuple(values)}",
                model_args(rundir))

    breaks.__name__ = f"_checkpoint_with_{key}_" + "_".join(map(str, values))
    return breaks


def _checkpoint_with_mean(value):
    """The trained checkpoint with a header mean that is not a finite JSON number."""

    def breaks(rundir):
        ckpt = rundir / "model.ckpt"
        header_line, _, payload = ckpt.read_bytes().partition(b"\n")
        header = {**json.loads(header_line), "mean": value}
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        return (f"checkpoint mean must be a finite JSON number, got {value!r}",
                model_args(rundir))

    breaks.__name__ = f"_checkpoint_with_mean_{type(value).__name__}"
    return breaks


def _checkpoint_with_a_huge_dim(rundir):
    ckpt = rundir / "model.ckpt"
    header_line, _, payload = ckpt.read_bytes().partition(b"\n")
    header = json.loads(header_line)
    header["dims"][0] = 2**62
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    (r1, r2, r3), (_, d2, d3) = header["ranks"], header["dims"]
    expected = 8 * (2**62 * r1 + d2 * r2 + d3 * r3 + r1 * r2 * r3 + 2**62 + d2 + d3)
    return f"payload is {len(payload)} bytes, expected {expected}", model_args(rundir)


def _mapping_of_another_grid(rundir):
    """The trained mapping with a slot count the checkpoint was not trained with."""
    path = rundir / "mapping.json"
    payload = json.loads(path.read_text())
    payload["slots_per_day"] = 10**12
    path.write_text(json.dumps(payload))
    dims = (len(payload["segments"]), len(payload["days"]), 10**12)
    return f"mapping dims {dims} do not match checkpoint dims", model_args(rundir)


@pytest.mark.parametrize("breaks", [_missing_checkpoint, _missing_mapping,
                                    _mapping_without_segments, _mapping_not_json,
                                    _checkpoint_with_nan, _mapping_with_a_repeated_day,
                                    _checkpoint_with_a_negative_dim,
                                    _checkpoint_with_header("dims", [3.5, 3, 4]),
                                    _checkpoint_with_header("dims", [3, True, 4]),
                                    _checkpoint_with_header("ranks", [2.7, 2, 2]),
                                    _checkpoint_with_header("ranks", [2, 2, True]),
                                    _checkpoint_with_mean(True), _checkpoint_with_mean("3.5"),
                                    _checkpoint_with_mean(None), _checkpoint_with_mean(10**400),
                                    _checkpoint_with_a_huge_dim, _mapping_of_another_grid])
def test_unusable_model_files_exit_3(tmp_path, capsys, breaks):
    data, trained = synth_and_train(tmp_path)
    message, args = breaks(trained)
    code = run_cli("evaluate", "--outdir", tmp_path, "--run-name", "e", *args, "--data", data)
    assert code == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--seed", "-3"),
    ("benchmark", "--base-seed", "-5"),
    ("synth", "--seed", "-1"),
])
def test_negative_seed_exit_2(tmp_path, capsys, command, flag, value):
    assert run_cli(*synth_args(tmp_path, "s")) == 0
    inputs = (["--dims", "6,5,8"] if command == "synth"
              else ["--data", tmp_path / "s" / "data.csv", "--slots-per-day", "8"])
    code = run_cli(command, "--outdir", tmp_path, "--run-name", "r", *inputs, flag, value)
    assert code == 2
    assert f"seed must be an integer >= 0, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("synth", "--noise-sigma", "nan", "noise_sigma must be finite and >= 0, got nan"),
    ("synth", "--noise-sigma", "inf", "noise_sigma must be finite and >= 0, got inf"),
    ("benchmark", "--jobs", "0", "jobs must be an integer >= 1, got 0"),
    ("benchmark", "--jobs", "-3", "jobs must be an integer >= 1, got -3"),
    ("synth", "--dims", "-2,-5,10", "dims must be three positive integers, got (-2, -5, 10)"),
    ("synth", "--dims", "6,0,8", "dims must be three positive integers, got (6, 0, 8)"),
    ("synth", "--noise-sigma", "1e308", "lower --noise-sigma or --value-offset"),
    ("synth", "--value-offset", "inf", "value_offset must be finite, got inf"),
])
def test_out_of_range_value_exit_2(tmp_path, capsys, command, flag, value, message):
    assert run_cli(*synth_args(tmp_path, "s")) == 0
    inputs = (["--dims", "6,5,8"] if command == "synth"
              else ["--data", tmp_path / "s" / "data.csv", "--slots-per-day", "8"])
    # flag=value: a value such as -2,-5,10 would otherwise read as an option.
    code = run_cli(command, "--outdir", tmp_path, "--run-name", "r", *inputs,
                   f"{flag}={value}")
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_pipeline_matches_in_process_run(tmp_path):
    assert run_cli(*synth_args(tmp_path, "s")) == 0
    data = tmp_path / "s" / "data.csv"
    assert run_cli("train", "--outdir", tmp_path, "--run-name", "t", "--data", data,
                   *TRAIN_FLAGS) == 0
    summary = json.loads((tmp_path / "t" / "summary.json").read_text())

    tensor, _ = load_csv(data, CsvSchema(slots_per_day=8))
    parts = split(tensor, (0.5, 0.2, 0.3), seed=5)
    hyper = Hyperparams(max_epochs=10, seed=5)
    factors, report = train(tensor, parts, hyper)
    assert summary["final_val_rmse"] == report.final_val_rmse
    assert summary["test_rmse"] == rmse(factors, tensor.indices[parts.test],
                                        tensor.values[parts.test])


def test_benchmark_single_repeat(tmp_path):
    assert run_cli(*synth_args(tmp_path, "s")) == 0
    data = tmp_path / "s" / "data.csv"
    code = run_cli("benchmark", "--outdir", tmp_path, "--run-name", "b", "--data", data,
                   "--repeats", "1", "--ratios", "0.5,0.2,0.3", "--max-epochs", "5",
                   "--slots-per-day", "8")
    assert code == 0
    lines = (tmp_path / "b" / "summary.csv").read_text().splitlines()
    assert lines[0] == "repeat,rmse,epochs,seconds"
    assert len(lines) == 2
    payload = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert len(payload["repeats"]) == 1


def untimed_summary(rundir):
    """summary.csv's lines without the seconds column, and summary.json without
    its timing fields."""
    csv_lines = [line.rsplit(",", 1)[0]
                 for line in (rundir / "summary.csv").read_text().splitlines()]
    payload = json.loads((rundir / "summary.json").read_text())
    payload.pop("seconds_mean"), payload.pop("seconds_std")
    for rep in payload["repeats"]:
        rep.pop("seconds")
    return csv_lines, payload


BENCHMARK_FLAGS = ["--repeats", "2", "--ratios", "0.5,0.2,0.3", "--max-epochs", "5",
                   "--slots-per-day", "8"]


def test_benchmark_rerun_identical_modulo_timing(tmp_path):
    assert run_cli(*synth_args(tmp_path, "s")) == 0
    common = ["--data", tmp_path / "s" / "data.csv", *BENCHMARK_FLAGS, "--jobs", "2"]
    assert run_cli("benchmark", "--outdir", tmp_path, "--run-name", "b1", *common) == 0
    assert run_cli("benchmark", "--outdir", tmp_path, "--run-name", "b2", *common) == 0
    assert untimed_summary(tmp_path / "b1") == untimed_summary(tmp_path / "b2")


def test_benchmark_jobs_is_echoed_and_changes_no_result(tmp_path):
    assert run_cli(*synth_args(tmp_path, "s")) == 0
    for jobs in (1, 3):
        assert run_cli("benchmark", "--outdir", tmp_path, "--run-name", f"j{jobs}",
                       "--data", tmp_path / "s" / "data.csv", *BENCHMARK_FLAGS,
                       "--jobs", jobs) == 0
        config = (tmp_path / f"j{jobs}" / "config.txt").read_text().splitlines()
        assert f"jobs={jobs}" in config
    assert untimed_summary(tmp_path / "j1") == untimed_summary(tmp_path / "j3")


def pipeline_digests(out):
    """Run synth, train (PID and plain SGD), impute (all missing cells and a
    targets file), evaluate and benchmark into out; the sha256 of each output,
    its timing fields removed, in the order the commands wrote them."""
    def run(name, command, *args):
        assert run_cli(command, "--outdir", out, "--run-name", name, *args) == 0

    run("synth", "synth", "--dims", "8,6,10", "--ranks", "2,2,2", "--observed-fraction", "0.5",
        "--noise-sigma", "0.02", "--seed", "9")
    data = out / "synth" / "data.csv"
    # Ranks past 4 take both of the kernel's sum schedules; at the default
    # init scale the multilinear term is too small for a changed rounding
    # in it to reach the outputs.
    fit = ["--data", data, "--ratios", "0.5,0.2,0.3", "--ranks", "4,3,5", "--slots-per-day", "10",
           "--init-scale", "0.5"]
    run("pid", "train", *fit, "--max-epochs", "15", "--seed", "4")
    run("plain", "train", *fit, "--max-epochs", "15", "--seed", "4", "--kp", "1", "--ki", "0",
        "--kd", "0")
    model = ["--checkpoint", out / "pid" / "model.ckpt", "--mapping", out / "pid" / "mapping.json"]
    targets = out / "targets.csv"
    targets.write_text("segment,day,slot\n" + "".join(
        f"{i},{j},{k}\n" for i in range(8) for j in (5, 0) for k in (9, 2)))
    run("all", "impute", *model, "--all-missing", "true", "--data", data)
    run("targets", "impute", *model, "--targets", targets)
    run("eval", "evaluate", *model, "--data", data)
    run("bench", "benchmark", *fit, "--max-epochs", "8", "--repeats", "3", "--base-seed", "2",
        "--jobs", "1")

    def untimed_csv(path):  # the last column is elapsed_s or seconds
        return "".join(line.rsplit(",", 1)[0] + "\n"
                       for line in path.read_text().splitlines()).encode()

    def untimed_json(path):
        payload = json.loads(path.read_text())
        for key in ("train_seconds", "seconds_mean", "seconds_std"):
            payload.pop(key, None)
        for rep in payload.get("repeats", []):
            rep.pop("seconds")
        return json.dumps(payload, sort_keys=True).encode()

    outputs = {f"synth/{name}": (out / "synth" / name).read_bytes()
               for name in ("data.csv", "truth.ckpt", "mapping.json")}
    for run_name in ("pid", "plain"):
        outputs[f"{run_name}/model.ckpt"] = (out / run_name / "model.ckpt").read_bytes()
        outputs[f"{run_name}/trace.csv"] = untimed_csv(out / run_name / "trace.csv")
        outputs[f"{run_name}/summary.json"] = untimed_json(out / run_name / "summary.json")
    for run_name in ("all", "targets"):
        outputs[f"{run_name}/imputed.csv"] = (out / run_name / "imputed.csv").read_bytes()
    outputs["eval/evaluation.json"] = (out / "eval" / "evaluation.json").read_bytes()
    outputs["bench/summary.json"] = untimed_json(out / "bench" / "summary.json")
    outputs["bench/summary.csv"] = untimed_csv(out / "bench" / "summary.csv")
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


# What pipeline_digests gives, on either backend.  A change to any of these
# is a change to the program's outputs.  synth depends on numpy's Generator
# streams and every CSV on its float formatting, so a numpy release could
# move them too.
PIPELINE_DIGESTS = {
    "synth/data.csv":
        "792ff9198490ac8e4770f1d64551a26c84818e629e5bc22ba4d0698d0f132b20",
    "synth/truth.ckpt":
        "838e5268b6777a8a66b2a611f8e40b367dff0258325d8a7b0601ad58b3774a71",
    "synth/mapping.json":
        "f2668556e903f8fd68d62ba83e55b6726b775f3dfe792881926c6807ea94a2bd",
    "pid/model.ckpt":
        "9dc40a9ab58c53909c371d80147724f809a5cd89b394ef0d7eacabf767b69fe1",
    "pid/trace.csv":
        "73005bb3049dda3dc5e39f1f6f4303d5410497ca1e4ea644bfe47f0fd2c8a4cd",
    "pid/summary.json":
        "b8722d2273f5af746a865c7a5432930ab417b37352dafae04c7e90c1cc43cce3",
    "plain/model.ckpt":
        "26fea0e2398dd55e9f2c4e1a028095f0a9adb11002c03e38cc854ed7d7f8fa9a",
    "plain/trace.csv":
        "c7eb68c447ae43ca82b1a2bb277c24accda62e58e7e663114b6f639d461bedcf",
    "plain/summary.json":
        "c2fc93e62b3655fd098b4885b3e99e9844d77cae389be811001016a2fa04ea52",
    "all/imputed.csv":
        "4f6f51b4fcc2dee7e6649ddc3b47f54b82142e561d80c91f18ad2d9456e7402e",
    "targets/imputed.csv":
        "20c5949242981b9813fe16ab90cd429d9de13657ef933c164822867999bc8a07",
    "eval/evaluation.json":
        "b7cf82fba29369f94cfa5243d793a1bfa4071c029e813e8499df5e3a4a636397",
    "bench/summary.json":
        "3e6f31bd3e468df7f51051a3eecb5fde897d15534a329c971667621e5025a87c",
    "bench/summary.csv":
        "c088c3e3b99274ddc4fe2f1f33e0da1c45a6f1e41db56c1ac99c3b51080e5e6a",
}


def test_the_pipeline_writes_the_committed_bytes_on_each_backend(tmp_path, each_backend):
    got = pipeline_digests(tmp_path)
    assert list(got) == list(PIPELINE_DIGESTS)
    moved = [name for name in got if got[name] != PIPELINE_DIGESTS[name]]
    assert not moved, (f"numpy {np.__version__}, {each_backend} backend: {moved[0]} differs "
                       f"from the committed digest ({len(moved)} outputs differ)")


def test_divergence_exit_4(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path, "s")) == 0
    code = run_cli("train", "--outdir", tmp_path, "--run-name", "t",
                   "--data", tmp_path / "s" / "data.csv", *TRAIN_FLAGS,
                   "--eta", "50", "--max-epochs", "100")
    assert code == 4
    assert "epoch" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("argv, config, key", [
    (["train", "--data", "d.csv", "--bogus", "1"], None, "--bogus"),
    (["train"], "data=d.csv\nbogus-key=1\n", "bogus-key"),
    (["train", "--data", "d.csv", "--max-epochs", "many"], None, "--max-epochs"),
    (["train", "--data", "d.csv"], "eta=fast\n", "--eta"),
    (["train", "--max-epochs", "3"], None, "'data'"),
    ([], None, "command"),
    (["benchmark", "--data", "d.csv", "--seed", "3"], None, "--seed"),
    (["train", "--data", "d.csv", "--max", "3"], None, "--max"),
    (["train", "--data", "d.csv"], "outdir=elsewhere\n", "'outdir'"),
], ids=["unknown-flag", "unknown-file-key", "bad-flag-value", "bad-file-value",
        "missing-required", "missing-command", "benchmark-seed", "abbreviated-flag",
        "file-sets-outdir"])
def test_usage_error_exit_2(tmp_path, monkeypatch, capsys, argv, config, key):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = [*argv, "--config", "run.cfg"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert [p.name for p in tmp_path.iterdir()] == ([] if config is None else ["run.cfg"])


# The effective config.txt of each command given its required options only:
# every default the option table supplies.
GOLDEN_CONFIG = {
    "train": ["--data", "d.csv"],
    "benchmark": ["--data", "d.csv"],
    "synth": ["--dims", "6,5,8"],
    "impute": ["--checkpoint", "m.ckpt", "--mapping", "m.json"],
    "evaluate": ["--checkpoint", "m.ckpt", "--mapping", "m.json", "--data", "d.csv"],
}
GOLDEN_CONFIG_TXT = {
    "train": """\
col-day=day
col-segment=segment
col-slot=slot
col-speed=speed
data=d.csv
error-clamp=none
eta=0.01
init-scale=0.04
kd=0.1
ki=0.1
kp=1.0
lambda1=0.01
lambda2=0.01
lambda3=0.01
max-epochs=1000
ranks=5,5,5
ratios=0.08,0.02,0.9
seed=0
slots-per-day=288
tol=1e-05
""",
    "benchmark": """\
base-seed=0
col-day=day
col-segment=segment
col-slot=slot
col-speed=speed
data=d.csv
error-clamp=none
eta=0.01
init-scale=0.04
jobs=1
kd=0.1
ki=0.1
kp=1.0
lambda1=0.01
lambda2=0.01
lambda3=0.01
max-epochs=1000
ranks=5,5,5
ratios=0.08,0.02,0.9
repeats=20
slots-per-day=288
tol=1e-05
""",
    "synth": """\
dims=6,5,8
noise-sigma=0.0
observed-fraction=0.1
ranks=5,5,5
seed=0
value-offset=10.0
""",
    "impute": """\
all-missing=false
checkpoint=m.ckpt
col-day=day
col-segment=segment
col-slot=slot
col-speed=speed
data=none
mapping=m.json
slots-per-day=none
targets=none
""",
    "evaluate": """\
checkpoint=m.ckpt
col-day=day
col-segment=segment
col-slot=slot
col-speed=speed
data=d.csv
mapping=m.json
slots-per-day=none
""",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_CONFIG))
def test_config_txt_of_required_options_only(tmp_path, monkeypatch, command):
    monkeypatch.setitem(cli._COMMANDS, command, lambda cfg, rundir: None)
    assert run_cli(command, *GOLDEN_CONFIG[command], "--outdir", tmp_path, "--run-name", "r") == 0
    assert (tmp_path / "r" / "config.txt").read_text() == GOLDEN_CONFIG_TXT[command]


# Each Hyperparams field but seed (a key of its own per command), with the
# train and benchmark keys that set it and a value other than each key's default.
HYPER_FIELD_KEYS = {
    "eta": {"eta": "0.02"},
    "reg": {"lambda1": "0.5", "lambda2": "0.5", "lambda3": "0.5"},
    "gains": {"kp": "2", "ki": "0.5", "kd": "0.5"},
    "ranks": {"ranks": "2,3,4"},
    "max_epochs": {"max-epochs": "7"},
    "tol": {"tol": "0.5"},
    "init_scale": {"init-scale": "0.5"},
    "error_clamp": {"error-clamp": "1"},
}


@pytest.mark.parametrize("command", ["train", "benchmark"])
def test_every_training_setting_has_a_key_that_reaches_it(command):
    """So no key is echoed in config.txt while nothing reads it."""
    fields = [fld.name for fld in dataclasses.fields(Hyperparams)]
    assert sorted(HYPER_FIELD_KEYS) == sorted(set(fields) - {"seed"})
    keys = {key for field_keys in HYPER_FIELD_KEYS.values() for key in field_keys}
    assert keys | {"ratios"} == set(cli._HYPER_KEYS)
    required = ["--data", "d.csv"]
    default = cli._hyper_from(cli._parse([command, *required])[1])
    for name, field_keys in HYPER_FIELD_KEYS.items():
        for key, value in field_keys.items():
            assert key in cli._COMMAND_KEYS[command]
            hyper = cli._hyper_from(cli._parse([command, *required, f"--{key}", value])[1])
            assert [f for f in fields if getattr(hyper, f) != getattr(default, f)] == [name]


def _non_utf8_data(tmp_path):
    (tmp_path / "d.csv").write_bytes("segment,day,slot,speed\n\xe9t\xe9,1,0,1.0\n"
                                     .encode("latin-1"))
    return 3, "d.csv: not UTF-8 text", ["train", "--data", "d.csv"]


def _oversize_field(tmp_path):
    (tmp_path / "d.csv").write_text('segment,day,slot,speed\n"' + "x" * 200_000 + '",1,0,1.0\n')
    return 3, "d.csv: line 2: field larger than field limit", ["train", "--data", "d.csv"]


def _non_utf8_config(tmp_path):
    (tmp_path / "run.cfg").write_bytes("data=\xe9t\xe9.csv\n".encode("latin-1"))
    return 2, "cannot read config file run.cfg", ["train", "--config", "run.cfg"]


def _outdir_under_a_file(tmp_path):
    (tmp_path / "runs").write_text("")
    return 2, "Not a directory: 'runs/sub'", ["synth", "--dims", "6,5,8", "--outdir", "runs/sub"]


def _run_name_with_a_slash(tmp_path):
    return 2, "cannot create run directory runs/a/b", ["synth", "--dims", "6,5,8",
                                                       "--run-name", "a/b"]


def _checkpoint_header_not_an_object(tmp_path):
    (tmp_path / "m.ckpt").write_bytes(b"[1]\n")
    return 3, "m.ckpt: not a checkpoint file", ["impute", "--checkpoint", "m.ckpt",
                                                "--mapping", "m.json", "--targets", "t.csv"]


def _mapping_nested_too_deep(tmp_path):
    args = _model_files(tmp_path, 5)
    (tmp_path / "m.json").write_text("[" * 100_000)
    return 3, "m.json: not a mapping file (maximum recursion depth", ["evaluate", *args]


def _nan_ratios(tmp_path):
    (tmp_path / "d.csv").write_text("segment,day,slot,speed\ns,d,0,1.0\n")
    return 3, "ratios must be three positive reals, got (nan, 0.5, 0.5)", [
        "train", "--data", "d.csv", "--ratios", "nan,0.5,0.5"]


def _benchmark_ratios_over_one(tmp_path):
    """Every repeat would split at these ratios, so the run stops at the first."""
    _small_csv(tmp_path)
    return 3, "data error: ratios must sum to 1, got sum 1.5", [
        "benchmark", "--data", "d.csv", "--slots-per-day", "5", "--ratios", "0.5,0.5,0.5",
        "--repeats", "2"]


def _small_csv(tmp_path):
    """d.csv holding every cell of segments s0-s3, days d0-d2 and slots 0-4."""
    rows = [f"s{i},d{j},{k},{1.0 + i + j + k}" for i in range(4) for j in range(3)
            for k in range(5)]
    (tmp_path / "d.csv").write_text("segment,day,slot,speed\n" + "\n".join(rows) + "\n")


def _oversized_ranks(command):
    """Ranks whose core the allocator refuses outright (8e15 bytes, beyond any
    address space), so nothing is allocated and then filled."""

    def case(tmp_path):
        _small_csv(tmp_path)
        ranks = ["--ranks", "100000,100000,100000"]
        message = "cannot allocate factors of ranks (100000, 100000, 100000) for dims (4, 3, "
        if command == "synth":
            return 2, message + "5)", ["synth", "--dims", "4,3,5", *ranks,
                                       "--observed-fraction", "0.5"]
        return 2, message + "288)", [command, "--data", "d.csv", "--ratios", "0.5,0.2,0.3",
                                     *ranks]

    case.__name__ = f"_oversized_ranks_{command}"
    return case


def _slots_beyond_a_grid(command, slots):
    """A slot count whose grid over d.csv's 4 segments and 3 days has more
    cells than an int64 can number."""

    def case(tmp_path):
        _small_csv(tmp_path)
        return 2, f"d.csv: dims (4, 3, {slots}) give {12 * slots} cells, more than", [
            command, "--data", "d.csv", "--ratios", "0.5,0.2,0.3", "--slots-per-day", str(slots)]

    case.__name__ = f"_slots_beyond_a_grid_{command}_{slots}"
    return case


def _synth_beyond_a_grid(tmp_path):
    return 2, "dims (3000000, 3000000, 3000000) give 27000000000000000000 cells, more than", [
        "synth", "--dims", "3000000,3000000,3000000", "--ranks", "2,2,2",
        "--observed-fraction", "1e-18"]


def _model_files(tmp_path, slots):
    """d.csv, a (4, 3, 5) checkpoint m.ckpt and its mapping m.json with the
    slot count slots; the arguments that name them."""
    _small_csv(tmp_path)
    save_checkpoint(init_factors((4, 3, 5), Ranks(2, 2, 2)), tmp_path / "m.ckpt")
    (tmp_path / "m.json").write_text(json.dumps({
        "format": "pidtucker-mapping-v1", "segments": [f"s{i}" for i in range(4)],
        "days": [f"d{j}" for j in range(3)], "slots_per_day": slots}))
    return ["--checkpoint", "m.ckpt", "--mapping", "m.json", "--data", "d.csv"]


def _evaluate_with_a_mapping_beyond_a_grid(tmp_path):
    return 3, "m.json: dims (4, 3, 10000000000000000000) give", [
        "evaluate", *_model_files(tmp_path, 10**19)]


def _impute_with_a_mapping_of_another_grid(tmp_path):
    return 3, "mapping dims (4, 3, 1000000000000) do not match checkpoint dims (4, 3, 5)", [
        "impute", *_model_files(tmp_path, 10**12), "--all-missing", "true"]


def _unlistable_grid(tmp_path):
    """A grid of 8e9 cells: listing them to draw the observed ones takes 64 GB."""
    return 2, "config error: cannot draw 4000000000 of 8000000000 cells", [
        "synth", "--dims", "2000,2000,2000", "--ranks", "2,2,2", "--observed-fraction", "0.5"]


def _all_missing_beyond_memory(dims):
    """impute --all-missing over a grid whose missing cells are more than the
    child's address space holds: a (2000, 2000, 2000) grid's one-byte mask
    (8 GB), or a (1000, 1000, 100) grid's list of cells (2.4 GB)."""

    def case(tmp_path):
        save_checkpoint(init_factors(dims, Ranks(1, 1, 1)), tmp_path / "m.ckpt")
        save_mapping(identity_mapping(dims), tmp_path / "m.json")
        (tmp_path / "d.csv").write_text("segment,day,slot,speed\n0,0,0,1.0\n1,1,1,2.0\n")
        n = dims[0] * dims[1] * dims[2]
        return 3, f"cannot list the missing cells of dims {dims} ({n} cells) in memory", [
            "impute", "--checkpoint", "m.ckpt", "--mapping", "m.json", "--data", "d.csv",
            "--all-missing", "true"]

    case.__name__ = f"_all_missing_beyond_memory_{dims[2]}"
    return case


def _nul_in_config(key):
    """A config file whose `key` path ends in a NUL byte, which open refuses."""

    def case(tmp_path):
        _model_files(tmp_path, 5)
        (tmp_path / "t.csv").write_text("segment,day,slot\ns0,d0,0\n")
        if key == "data":
            command, paths = ["train", "--ratios", "0.5,0.2,0.3"], {"data": "d.csv"}
        else:
            command, paths = ["impute"], {"checkpoint": "m.ckpt", "mapping": "m.json",
                                          "targets": "t.csv"}
        paths[key] += "\0"
        (tmp_path / "nul.cfg").write_text("".join(f"{k}={v}\n" for k, v in paths.items()))
        what = {"data": "file", "targets": "file"}.get(key, key)
        return 3, f"cannot read {what}: embedded null byte", [*command, "--config", "nul.cfg"]

    case.__name__ = f"_nul_in_config_{key}"
    return case


def _synth_overflow(tmp_path):
    return 2, "has non-finite value inf; lower --noise-sigma or --value-offset", [
        "synth", "--dims", "6,5,8", "--ranks", "2,2,2", "--observed-fraction", "0.5",
        "--noise-sigma", "1e308", "--value-offset", "1e308"]


def _limit_address_space():
    # Set in the child alone, so a case that asks for more memory than the
    # host can give fails at once.
    resource.setrlimit(resource.RLIMIT_AS, (2_500_000_000, 2_500_000_000))


@pytest.mark.parametrize("case", [_non_utf8_data, _oversize_field, _non_utf8_config,
                                  _outdir_under_a_file, _run_name_with_a_slash,
                                  _checkpoint_header_not_an_object, _mapping_nested_too_deep,
                                  _nan_ratios, _benchmark_ratios_over_one,
                                  _oversized_ranks("train"), _oversized_ranks("benchmark"),
                                  _oversized_ranks("synth"), _unlistable_grid,
                                  _synth_beyond_a_grid,
                                  _slots_beyond_a_grid("train", 10**19),
                                  _slots_beyond_a_grid("benchmark", 10**19),
                                  _slots_beyond_a_grid("train", 10**18),
                                  _slots_beyond_a_grid("benchmark", 10**18),
                                  _evaluate_with_a_mapping_beyond_a_grid,
                                  _impute_with_a_mapping_of_another_grid,
                                  _all_missing_beyond_memory((2000, 2000, 2000)),
                                  _all_missing_beyond_memory((1000, 1000, 100)),
                                  _nul_in_config("data"), _nul_in_config("targets"),
                                  _nul_in_config("checkpoint"), _nul_in_config("mapping"),
                                  _synth_overflow])
def test_unusable_input_exits_cleanly(tmp_path, case):
    code, message, argv = case(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "pidtucker.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr  # the error alone, no warning
    assert message in proc.stderr
    runs = tmp_path / "runs"
    assert not runs.is_dir() or list(runs.iterdir()) == []  # no staging directory left


@pytest.mark.parametrize("flags, message", [
    (["--config", "c.cfg\0"], "cannot read config file c.cfg\0: embedded null byte"),
    (["--outdir", "runs\0"], "cannot create run directory runs\0/r: embedded null byte"),
    (["--run-name", "r\0"], "cannot create run directory runs/r\0: embedded null byte")],
    ids=["config", "outdir", "run-name"])
def test_a_nul_byte_in_a_path_flag_exits_2(tmp_path, monkeypatch, capsys, flags, message):
    monkeypatch.chdir(tmp_path)
    argv = ["synth", "--dims", "6,5,8", "--run-name", "r", *flags]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    runs = tmp_path / "runs"
    assert not runs.is_dir() or list(runs.iterdir()) == []  # no staging directory left
