"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tuned-on-validation settings for the synthetic fixture are frozen
here as constants (the library defaults are intentionally untouched).
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from pidtucker import (
    Hyperparams,
    PidGains,
    PidState,
    Ranks,
    RegWeights,
    TuckerFactors,
    adjust,
    from_records,
    generate_synthetic,
    init_factors,
    instance_gradient,
    predict,
    reconstruct_dense,
    rmse,
    save_checkpoint,
    split,
    train,
    validation_converged,
)
from pidtucker.cli import main as cli_main

from conftest import FIXTURE_SPEC

# Settings tuned on validation parts only (grids recorded in CHANGES.md):
# accuracy-tuned for recovery on RECOVERY_SPLIT, convergence-tuned for the
# PID-vs-plain comparison on the 8/2/90 protocol split.  max_epochs is the
# recovery criterion's deterministic budget.
ACCURACY_TUNED = Hyperparams(
    eta=0.03,
    reg=RegWeights(1e-5, 1e-5, 1e-5),
    gains=PidGains(1.0, 0.0, 0.0),
    ranks=Ranks(3, 3, 3),
    max_epochs=90,
    tol=1e-8,
    init_scale=0.5,
)
CONVERGENCE_TUNED = Hyperparams(
    eta=0.02,
    reg=RegWeights(0.03, 0.03, 0.03),
    gains=PidGains(1.0, 0.2, 0.0),
    ranks=Ranks(3, 3, 3),
    max_epochs=1000,
    tol=1e-5,
    error_clamp=1.0,
)


def report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    return line


# ------------------------------------------------------------------ 1


def oracle_summand(core, u, d, t, a, b, c, mean, y, reg):
    """Literal transcription of one entry's loss summand over python lists."""
    r1, r2, r3 = len(core), len(core[0]), len(core[0][0])
    acc = 0.0
    for m in range(r1):
        for n in range(r2):
            for l in range(r3):
                acc += core[m][n][l] * u[m] * d[n] * t[l]
    e = y - (mean + acc + a + b + c)
    core_sq = sum(core[m][n][l] ** 2 for m in range(r1) for n in range(r2) for l in range(r3))
    row_sq = sum(x * x for x in u) + sum(x * x for x in d) + sum(x * x for x in t)
    return 0.5 * (e * e + reg.lambda1 * core_sq + reg.lambda2 * row_sq
                  + reg.lambda3 * (a * a + b * b + c * c))


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    reg = RegWeights(0.01, 0.01, 0.01)
    h = 1e-6
    worst = 0.0
    for ranks in (Ranks(2, 2, 2), Ranks(5, 5, 5)):
        r1, r2, r3 = ranks.as_tuple()
        for _ in range(50):
            dims = (6, 5, 7)
            f = init_factors(dims, ranks, mean=float(rng.normal()), seed=int(rng.integers(1 << 30)))
            for m in range(3):
                f.factors[m][:] = 0.6 * rng.normal(size=f.factors[m].shape)
                f.biases[m][:] = rng.normal(size=f.biases[m].shape)
            f.core[:] = 0.6 * rng.normal(size=f.core.shape)
            idx = tuple(int(rng.integers(n)) for n in dims)
            y = predict(f, idx) + float(rng.normal())
            err = y - predict(f, idx)
            grad = instance_gradient(f, idx, err, reg)

            i, j, k = idx
            state = {
                "core": f.core.tolist(),
                "u": f.factors[0][i].tolist(),
                "d": f.factors[1][j].tolist(),
                "t": f.factors[2][k].tolist(),
                "a": float(f.biases[0][i]),
                "b": float(f.biases[1][j]),
                "c": float(f.biases[2][k]),
            }

            def evaluate():
                return oracle_summand(state["core"], state["u"], state["d"], state["t"],
                                      state["a"], state["b"], state["c"], f.mean, y, reg)

            # central differences carry roundoff of order eps * |f| / h; treat
            # gaps below that scale as zero so only real disagreements count
            noise_floor = 1e-8 * max(1.0, abs(evaluate()))

            def fd(setter, getter):
                old = getter()
                setter(old + h)
                plus = evaluate()
                setter(old - h)
                minus = evaluate()
                setter(old)
                return (plus - minus) / (2 * h)

            def rel(analytic, numeric):
                gap = abs(analytic - numeric)
                if gap <= noise_floor:
                    return 0.0
                return gap / max(abs(numeric), abs(analytic))

            for mode, key, r in ((0, "u", r1), (1, "d", r2), (2, "t", r3)):
                for m in range(r):
                    numeric = fd(lambda v, m=m, key=key: state[key].__setitem__(m, v),
                                 lambda m=m, key=key: state[key][m])
                    worst = max(worst, rel(grad.rows[mode][m], numeric))
            for m in range(r1):
                for n in range(r2):
                    for l in range(r3):
                        numeric = fd(
                            lambda v, m=m, n=n, l=l: state["core"][m].__getitem__(n).__setitem__(l, v),
                            lambda m=m, n=n, l=l: state["core"][m][n][l])
                        worst = max(worst, rel(grad.core[m, n, l], numeric))
            for pos, key in enumerate(("a", "b", "c")):
                numeric = fd(lambda v, key=key: state.__setitem__(key, v),
                             lambda key=key: state[key])
                worst = max(worst, rel(grad.biases[pos], numeric))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-5 and elapsed < 10.0
    report(1, "gradient correctness", ok,
           f"worst rel err {worst:.2e} over 100 instances, {elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 10.0


# ------------------------------------------------------------------ 2


def test_criterion_2_reconstruction_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    dims, ranks = (4, 3, 5), Ranks(2, 2, 2)
    worst = 0.0
    for draw in range(20):
        f = init_factors(dims, ranks, mean=float(rng.normal()), seed=draw)
        for m in range(3):
            f.factors[m][:] = rng.normal(size=f.factors[m].shape)
            f.biases[m][:] = rng.normal(size=f.biases[m].shape)
        f.core[:] = rng.normal(size=f.core.shape)
        dense = reconstruct_dense(f)
        core = f.core.tolist()
        for i in range(dims[0]):
            for j in range(dims[1]):
                for k in range(dims[2]):
                    literal = f.mean + f.biases[0][i] + f.biases[1][j] + f.biases[2][k]
                    for m in range(2):
                        for n in range(2):
                            for l in range(2):
                                literal += (core[m][n][l] * f.factors[0][i, m]
                                            * f.factors[1][j, n] * f.factors[2][k, l])
                    p = predict(f, (i, j, k))
                    worst = max(worst, abs(p - dense[i, j, k]), abs(p - literal))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    report(2, "reconstruction oracle", ok,
           f"worst abs gap {worst:.2e} over 20 draws x 60 cells, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


# ------------------------------------------------------------------ 3


def test_criterion_3_pid_degeneracy(tmp_path, synthetic_fixture, fixture_split):
    started = time.perf_counter()
    tensor, _ = synthetic_fixture
    base = Hyperparams(ranks=Ranks(3, 3, 3), max_epochs=50, tol=1e-15, seed=12)
    f_pid, _ = train(tensor, fixture_split, replace(base, gains=PidGains(1.0, 0.0, 0.0)))
    f_plain, _ = train(tensor, fixture_split, replace(base, plain_sgd=True))
    save_checkpoint(f_pid, tmp_path / "pid.ckpt")
    save_checkpoint(f_plain, tmp_path / "plain.ckpt")
    identical = (tmp_path / "pid.ckpt").read_bytes() == (tmp_path / "plain.ckpt").read_bytes()
    elapsed = time.perf_counter() - started
    ok = identical and elapsed < 30.0
    report(3, "PID degeneracy", ok,
           f"checkpoints bit-identical after 50 epochs: {identical}, {elapsed:.1f}s")
    assert identical
    assert elapsed < 30.0


# ------------------------------------------------------------------ 4


def test_criterion_4_pid_state_correctness():
    gains = PidGains(1.0, 0.1, 0.2)
    state = PidState(1)
    first = adjust(state, gains, 0, 1.0)
    second = adjust(state, gains, 0, 0.5)
    hand_first = 1.0 * 1.0 + 0.1 * 1.0 + 0.2 * (1.0 - 0.0)       # 1.3
    hand_second = 1.0 * 0.5 + 0.1 * (1.0 + 0.5) + 0.2 * (0.5 - 1.0)  # 0.55
    exact_trace = first == hand_first and second == hand_second

    # independent replay of a random error sequence
    rng = np.random.default_rng(3)
    seq = [float(rng.normal()) for _ in range(200)]
    kp, ki, kd = 0.8, 0.25, 0.15
    state = PidState(1)
    running, prev, exact_replay = 0.0, 0.0, True
    for e in seq:
        running += e
        expected = kp * e + ki * running + kd * (e - prev)
        prev = e
        if adjust(state, PidGains(kp, ki, kd), 0, e) != expected:
            exact_replay = False
            break
    ok = exact_trace and exact_replay
    report(4, "PID state correctness", ok,
           f"hand trace [{first!r}, {second!r}] exact: {exact_trace}, "
           f"200-step replay exact: {exact_replay}")
    assert exact_trace
    assert exact_replay


# ------------------------------------------------------------------ 5


# Every cell of the fixture's planted model: generate_synthetic draws factors,
# core and biases before it samples cells, so this spec's truth is
# FIXTURE_SPEC's.  Recovery needs a sampling that identifies the model; the
# shared 8/2/90 fixture_split trains on 72 entries for ~250 degrees of freedom,
# this split on 7200.
RECOVERY_SPEC = replace(FIXTURE_SPEC, observed_fraction=1.0)
RECOVERY_SPLIT = (0.8, 0.1, 0.1)


def unseen_test_cells(tensor, parts):
    """Number of test cells whose segment, day or slot is absent from training."""
    train_idx = tensor.indices[parts.train]
    test_idx = tensor.indices[parts.test]
    unseen = np.zeros(len(test_idx), dtype=bool)
    for mode in range(3):
        unseen |= ~np.isin(test_idx[:, mode], train_idx[:, mode])
    return int(unseen.sum())


def test_criterion_5_synthetic_recovery(synthetic_fixture):
    started = time.perf_counter()
    tensor, truth = generate_synthetic(RECOVERY_SPEC)
    _, fixture_truth = synthetic_fixture
    assert reconstruct_dense(truth).tobytes() == reconstruct_dense(fixture_truth).tobytes()
    threshold = 3 * RECOVERY_SPEC.noise_sigma
    rmses = []
    for repeat in range(20):
        parts = split(tensor, RECOVERY_SPLIT, seed=repeat)
        # precondition: no estimator can recover a row it never sees
        assert unseen_test_cells(tensor, parts) == 0, f"repeat {repeat}"
        f, _ = train(tensor, parts, replace(ACCURACY_TUNED, seed=repeat))
        rmses.append(rmse(f, tensor.indices[parts.test], tensor.values[parts.test]))
    elapsed = time.perf_counter() - started
    passing = sum(1 for x in rmses if x <= threshold)
    ok = passing >= 18
    report(5, "synthetic recovery", ok,
           f"{passing}/20 repeats at test RMSE <= {threshold} within "
           f"{ACCURACY_TUNED.max_epochs} epochs, observed median "
           f"{np.median(rmses):.4f}, range [{min(rmses):.4f}, {max(rmses):.4f}], "
           f"{elapsed:.1f}s")
    assert passing >= 18


# ------------------------------------------------------------------ 6


def first_epoch_at_or_below(records, threshold):
    for rec in records:
        if rec.val_rmse <= threshold:
            return rec.epoch
    return math.inf


def test_criterion_6_convergence_rate():
    started = time.perf_counter()
    tensor, _ = generate_synthetic(FIXTURE_SPEC)
    plain_epochs, pid_epochs = [], []
    for seed in range(20):
        parts = split(tensor, (0.08, 0.02, 0.90), seed=seed)
        base = replace(CONVERGENCE_TUNED, seed=seed)
        _, plain_report = train(tensor, parts, replace(base, plain_sgd=True))
        target = plain_report.final_val_rmse * 1.01
        _, pid_report = train(tensor, parts, base)
        plain_epochs.append(first_epoch_at_or_below(plain_report.records, target))
        pid_epochs.append(first_epoch_at_or_below(pid_report.records, target))
    med_plain = float(np.median(plain_epochs))
    med_pid = float(np.median(pid_epochs))
    elapsed = time.perf_counter() - started
    ok = med_pid < med_plain
    report(6, "convergence rate", ok,
           f"median epochs to within 1% of plain-SGD final: PID {med_pid} vs "
           f"plain {med_plain} over 20 seeds, {elapsed:.1f}s")
    assert med_pid < med_plain


# ------------------------------------------------------------------ 7


def test_criterion_7_protocol_conformance():
    rng = np.random.default_rng(0)
    dims = (10, 10, 10)
    flat = rng.choice(1000, size=1000, replace=False)
    ii, jj, kk = np.unravel_index(flat, dims)
    tensor = from_records(dims, [(int(a), int(b), int(c), float(v))
                                 for a, b, c, v in zip(ii, jj, kk, rng.normal(size=1000))])
    parts = split(tensor, (0.08, 0.02, 0.90), seed=5)
    sizes_ok = (len(parts.train), len(parts.validation), len(parts.test)) == (80, 20, 900)

    def stop_epoch(sequence, tol=1e-5, cap=1000):
        history = []
        for epoch, value in enumerate(sequence, start=1):
            history.append(value)
            if validation_converged(history, tol):
                return epoch, True
            if epoch == cap:
                return epoch, False
        return len(history), False

    checks = [
        stop_epoch([5.0, 4.0, 4.0000009]) == (3, True),       # |delta| = 9e-7 < 1e-5
        stop_epoch([5.0, 4.0, 3.5, 3.2]) == (4, False),       # never fires, runs out
        stop_epoch([4.0, 4.5], tol=0.5) == (2, False),        # |delta| == tol: no stop
        stop_epoch([4.0, 4.25], tol=0.5) == (2, True),        # |delta| < tol: stop
        stop_epoch([1.0 - 1e-3 * n for n in range(1500)]) == (1000, False),  # epoch cap
        stop_epoch([3.0, 2.0, 2.0, 1.0]) == (3, True),        # fires at first chance
    ]
    rules_ok = all(checks)
    ok = sizes_ok and rules_ok
    report(7, "protocol conformance", ok,
           f"split sizes (80,20,900): {sizes_ok}; injected stopping sequences: {rules_ok}")
    assert sizes_ok
    assert rules_ok


# ------------------------------------------------------------------ 8


def _strip_timing_csv(path):
    lines = path.read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


def _strip_timing_json(path, keys):
    payload = json.loads(path.read_text())
    for key in keys:
        payload.pop(key, None)
    for rep in payload.get("repeats", []):
        rep.pop("seconds", None)
    return payload


def test_criterion_8_end_to_end_determinism(tmp_path):
    def pipeline(tag):
        out = tmp_path / tag
        synth = ["synth", "--outdir", str(out), "--run-name", "synth",
                 "--dims", "8,6,10", "--ranks", "2,2,2", "--observed-fraction", "0.5",
                 "--noise-sigma", "0.02", "--seed", "9"]
        assert cli_main(synth) == 0
        data = out / "synth" / "data.csv"
        trainer = ["train", "--outdir", str(out), "--run-name", "train",
                   "--data", str(data), "--ratios", "0.5,0.2,0.3", "--ranks", "2,2,2",
                   "--max-epochs", "15", "--seed", "4", "--slots-per-day", "10"]
        assert cli_main(trainer) == 0
        bench = ["benchmark", "--outdir", str(out), "--run-name", "bench",
                 "--data", str(data), "--ratios", "0.5,0.2,0.3", "--ranks", "2,2,2",
                 "--max-epochs", "8", "--repeats", "3", "--base-seed", "2",
                 "--slots-per-day", "10", "--jobs", "2"]
        assert cli_main(bench) == 0
        return out

    a = pipeline("a")
    b = pipeline("b")

    byte_identical = all(
        (a / sub / name).read_bytes() == (b / sub / name).read_bytes()
        for sub, name in (
            ("synth", "data.csv"), ("synth", "truth.ckpt"), ("synth", "mapping.json"),
            ("synth", "config.txt"), ("train", "model.ckpt"), ("train", "mapping.json"),
        )
    )
    # echoed configs embed the --data path, which differs between run roots
    configs_match = all(
        [ln for ln in (a / sub / "config.txt").read_text().splitlines()
         if not ln.startswith("data=")]
        == [ln for ln in (b / sub / "config.txt").read_text().splitlines()
            if not ln.startswith("data=")]
        for sub in ("train", "bench")
    )
    byte_identical = byte_identical and configs_match
    traces_match = (_strip_timing_csv(a / "train" / "trace.csv")
                    == _strip_timing_csv(b / "train" / "trace.csv"))
    bench_match = (_strip_timing_csv(a / "bench" / "summary.csv")
                   == _strip_timing_csv(b / "bench" / "summary.csv"))
    train_json_match = (
        _strip_timing_json(a / "train" / "summary.json", ("train_seconds",))
        == _strip_timing_json(b / "train" / "summary.json", ("train_seconds",)))
    bench_json_match = (
        _strip_timing_json(a / "bench" / "summary.json", ("seconds_mean", "seconds_std"))
        == _strip_timing_json(b / "bench" / "summary.json", ("seconds_mean", "seconds_std")))

    ok = byte_identical and traces_match and bench_match and train_json_match and bench_json_match
    report(8, "end-to-end determinism", ok,
           f"byte-identical artifacts: {byte_identical}; traces/summaries modulo "
           f"timing: {traces_match and bench_match and train_json_match and bench_json_match}")
    assert byte_identical
    assert traces_match and bench_match
    assert train_json_match and bench_json_match
