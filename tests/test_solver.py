import copy
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from pidtucker import (
    ConfigError,
    DataError,
    DataSplit,
    DivergenceError,
    Hyperparams,
    PidGains,
    Ranks,
    RegWeights,
    SparseTensor,
    SyntheticSpec,
    from_records,
    generate_synthetic,
    init_factors,
    predict,
    predict_batch,
    reconstruct_dense,
    regularized_loss,
    rmse,
    sgd_step,
    split,
    train,
    validation_converged,
)
from pidtucker import solver

PLAIN_GAINS = PidGains(1.0, 0.0, 0.0)


def snapshot(f):
    return copy.deepcopy((f.core, f.factors, f.biases))


def factors_equal(f, g):
    return (
        np.array_equal(f.core, g.core)
        and all(np.array_equal(a, b) for a, b in zip(f.factors, g.factors))
        and all(np.array_equal(a, b) for a, b in zip(f.biases, g.biases))
        and f.mean == g.mean
    )


# ---------------------------------------------------------------- sgd_step


def test_step_noop_when_err_and_reg_zero():
    f = init_factors((3, 3, 3), Ranks(2, 2, 2), seed=1)
    before = snapshot(f)
    hyper = Hyperparams(eta=0.1, reg=RegWeights(0, 0, 0))
    sgd_step(f, (1, 1, 1), 5.0, 0.0, hyper)
    after = snapshot(f)
    assert np.array_equal(before[0], after[0])
    for a, b in zip(before[1], after[1]):
        assert np.array_equal(a, b)


def test_step_noop_when_eta_tiny():
    # eta must be > 0; the no-learning case is err 0 with zero regularizers,
    # covered above, so here a tiny eta must leave values almost unchanged
    f = init_factors((3, 3, 3), Ranks(2, 2, 2), seed=1)
    before = copy.deepcopy(f.core)
    sgd_step(f, (1, 1, 1), 5.0, 1.0, Hyperparams(eta=1e-300, reg=RegWeights(0, 0, 0)))
    assert np.allclose(f.core, before, atol=1e-290, rtol=0)


def test_step_hand_evaluated_rank_one():
    f = init_factors((1, 1, 1), Ranks(1, 1, 1), mean=0.0, seed=0)
    f.core[:] = 1.0
    f.factors[0][:] = 1.0
    f.factors[1][:] = 1.0
    f.factors[2][:] = 1.0
    hyper = Hyperparams(eta=0.1, reg=RegWeights(0, 0, 0), gains=PLAIN_GAINS)
    e = 2.0 - predict(f, (0, 0, 0))  # = 1.0
    sgd_step(f, (0, 0, 0), 2.0, e, hyper)
    assert f.factors[0][0, 0] == pytest.approx(1.1, abs=1e-15)
    assert f.factors[1][0, 0] == pytest.approx(1.1, abs=1e-15)
    assert f.factors[2][0, 0] == pytest.approx(1.1, abs=1e-15)
    assert f.core[0, 0, 0] == pytest.approx(1.1, abs=1e-15)
    assert f.biases[0][0] == pytest.approx(0.1, abs=1e-15)
    assert f.biases[1][0] == pytest.approx(0.1, abs=1e-15)
    assert f.biases[2][0] == pytest.approx(0.1, abs=1e-15)


def test_step_update_locality():
    f = init_factors((6, 5, 4), Ranks(2, 3, 2), seed=3)
    f.biases[0][:] = 0.5
    before = snapshot(f)
    sgd_step(f, (2, 3, 1), 1.0, 0.7, Hyperparams(eta=0.05))
    core_b, factors_b, biases_b = before
    # touched rows changed
    assert not np.array_equal(f.factors[0][2], factors_b[0][2])
    assert not np.array_equal(f.factors[1][3], factors_b[1][3])
    assert not np.array_equal(f.factors[2][1], factors_b[2][1])
    assert not np.array_equal(f.core, core_b)
    # everything else bitwise unchanged
    for mode, touched in ((0, 2), (1, 3), (2, 1)):
        mask = np.ones(f.factors[mode].shape[0], dtype=bool)
        mask[touched] = False
        assert np.array_equal(f.factors[mode][mask], factors_b[mode][mask])
        assert np.array_equal(f.biases[mode][mask], biases_b[mode][mask])


def test_step_non_finite_err_raises():
    f = init_factors((2, 2, 2), Ranks(1, 1, 1), seed=0)
    with pytest.raises(DivergenceError) as exc:
        sgd_step(f, (1, 0, 1), 1.0, float("inf"), Hyperparams())
    assert "(1, 0, 1)" in str(exc.value)


@pytest.mark.parametrize("idx, named", [
    ((1.5, 0, 0), "(1.5, 0, 0)"),             # not truncated to the valid cell (1, 0, 0)
    (("a", 0, 0), "('a', 0, 0)"),             # no bare ValueError from int("a")
    ((np.int64(1), 0, 1), "(1, 0, 1)"),       # check_index's plain ints
    ((5, 0, 0), "(5, 0, 0)"),                 # outside dims: as given
])
def test_a_divergence_names_the_entry_it_was_given(each_backend, idx, named):
    f = init_factors((2, 2, 2), Ranks(1, 1, 1), seed=0)
    with pytest.raises(DivergenceError) as exc:
        sgd_step(f, idx, 2.0, float("nan"), Hyperparams())
    assert str(exc.value) == f"non-finite update at entry {named} (y=2.0)"
    assert factors_equal(f, init_factors((2, 2, 2), Ranks(1, 1, 1), seed=0))


# ---------------------------------------------------------------- train


def small_problem(seed=0, n=120, dims=(8, 6, 10)):
    rng = np.random.default_rng(seed)
    flat = rng.choice(dims[0] * dims[1] * dims[2], size=n, replace=False)
    ii, jj, kk = np.unravel_index(flat, dims)
    vals = rng.normal(1.0, 0.5, size=n)
    tensor = from_records(dims, [(int(a), int(b), int(c), float(v))
                                 for a, b, c, v in zip(ii, jj, kk, vals)])
    return tensor, split(tensor, (0.5, 0.2, 0.3), seed=seed)


def test_train_deterministic():
    tensor, parts = small_problem()
    hyper = Hyperparams(ranks=Ranks(2, 2, 2), max_epochs=15, seed=5)
    f1, r1 = train(tensor, parts, hyper)
    f2, r2 = train(tensor, parts, hyper)
    assert factors_equal(f1, f2)
    assert [rec.val_rmse for rec in r1.records] == [rec.val_rmse for rec in r2.records]
    assert [rec.train_loss for rec in r1.records] == [rec.train_loss for rec in r2.records]


def test_train_pid_identity_matches_plain_sgd_bitwise():
    """Skipping adjust for gains (1, 0, 0) with no clamp gives the bits of
    running it on every entry under a clamp that never binds."""
    tensor, parts = small_problem()
    plain = Hyperparams(ranks=Ranks(2, 2, 2), max_epochs=20, tol=1e-12, seed=9, gains=PLAIN_GAINS)
    f_pid, _ = train(tensor, parts, replace(plain, error_clamp=math.inf))
    f_plain, _ = train(tensor, parts, plain)
    assert factors_equal(f_pid, f_plain)


@pytest.mark.parametrize("gains, clamp, calls", [
    (PLAIN_GAINS, None, False), (PLAIN_GAINS, 1.0, True), (PidGains(), None, True),
    (PidGains(2.0, 0.0, 0.0), None, True)], ids=["plain", "plain-clamped", "default", "kp-2"])
def test_train_skips_adjust_only_for_the_identity(monkeypatch, gains, clamp, calls):
    seen = []  # the position of each adjusted entry
    monkeypatch.setattr(solver, "adjust",
                        lambda state, gains, pos, e, clamp: seen.append(pos) or e)
    tensor, parts = small_problem()
    hyper = Hyperparams(ranks=Ranks(2, 2, 2), max_epochs=3, tol=1e-12, seed=9,
                        gains=gains, error_clamp=clamp)
    _, report = train(tensor, parts, hyper)
    assert report.epochs_run == 3
    assert Counter(seen) == ({pos: 3 for pos in range(len(parts.train))} if calls else {})


def test_train_mean_from_training_entries_only():
    tensor, parts = small_problem()
    hyper = Hyperparams(ranks=Ranks(2, 2, 2), max_epochs=1, seed=4)
    f, _ = train(tensor, parts, hyper)
    assert f.mean == float(np.mean(tensor.values[parts.train]))


def test_train_loss_non_increasing_small_eta(synthetic_fixture, fixture_split):
    tensor, _ = synthetic_fixture
    hyper = Hyperparams(eta=1e-3, gains=PLAIN_GAINS, ranks=Ranks(3, 3, 3),
                        max_epochs=10, tol=1e-15, seed=2)
    _, report = train(tensor, fixture_split, hyper)
    losses = [rec.train_loss for rec in report.records]
    assert len(losses) == 10
    assert all(b <= a for a, b in zip(losses, losses[1:]))


def test_train_report_invariants():
    tensor, parts = small_problem()
    hyper = Hyperparams(ranks=Ranks(2, 2, 2), max_epochs=12, tol=1e-12, seed=1)
    _, report = train(tensor, parts, hyper)
    assert report.epochs_run == len(report.records) <= 12
    assert report.final_val_rmse == report.records[-1].val_rmse
    assert 1 <= report.best_epoch <= report.epochs_run
    best = min(rec.val_rmse for rec in report.records)
    assert report.records[report.best_epoch - 1].val_rmse == best
    elapsed = [rec.elapsed_s for rec in report.records]
    assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))


def test_train_empty_part_rejected():
    tensor, parts = small_problem()
    broken = DataSplit(train=parts.train, validation=np.array([], dtype=np.int64),
                       test=parts.test)
    with pytest.raises(DataError):
        train(tensor, broken, Hyperparams())


@pytest.mark.parametrize("part, positions, message", [
    ("validation", [-1], "validation split part has position -1, outside [0, 120)"),
    ("test", [10**6], "test split part has position 1000000, outside [0, 120)"),
    ("train", [0.0, 1.0],
     "train split part must be a 1-D integer array, got dtype float64 and shape (2,)"),
    ("validation", [[80]],
     "validation split part must be a 1-D integer array, got dtype int64 and shape (1, 1)"),
    ("train", [0, 1, 0], "train split part has position 0, already in the train part"),
    ("validation", [80, 5], "validation split part has position 5, already in the train part"),
    ("test", np.array([], dtype=np.int64), "test split part is empty"),
], ids=["negative", "too-large", "float", "2-d", "repeat-in-part", "repeat-across", "empty"])
def test_train_checks_a_split_built_by_hand(part, positions, message):
    tensor = generate_synthetic(SyntheticSpec((6, 5, 8), Ranks(2, 2, 2), 0.5, seed=1))[0]
    parts = {"train": np.arange(80), "validation": np.arange(80, 100),
             "test": np.arange(100, 120), part: np.asarray(positions)}
    with pytest.raises(DataError) as exc:
        train(tensor, DataSplit(**parts), Hyperparams(max_epochs=1))
    assert str(exc.value) == message


def test_train_divergence_names_epoch_and_entry():
    tensor, parts = small_problem()
    hyper = Hyperparams(eta=50.0, ranks=Ranks(2, 2, 2), max_epochs=50, seed=0)
    with pytest.raises(DivergenceError) as exc:
        train(tensor, parts, hyper)
    assert "epoch" in str(exc.value)


def test_train_error_clamp_keeps_run_alive():
    tensor, parts = small_problem()
    wild = Hyperparams(eta=0.05, gains=PidGains(1.0, 2.0, 0.0), ranks=Ranks(2, 2, 2),
                       max_epochs=60, tol=1e-12, seed=0)
    with pytest.raises(DivergenceError):
        train(tensor, parts, wild)
    clamped = replace(wild, error_clamp=5.0)
    _, report = train(tensor, parts, clamped)  # must complete
    assert report.epochs_run >= 1


# ---------------------------------------------------------------- stopping rule


def simulate_stop(sequence, tol, max_epochs):
    """Replay an injected validation-error sequence through the stopping rule."""
    history = []
    for epoch, v in enumerate(sequence, start=1):
        history.append(v)
        if validation_converged(history, tol):
            return epoch, True
        if epoch == max_epochs:
            return epoch, False
    return len(history), False


def test_stopping_rule_fires_on_small_delta():
    epoch, converged = simulate_stop([5.0, 4.0, 4.0000009], 1e-5, 1000)
    assert (epoch, converged) == (3, True)


def test_stopping_rule_needs_two_epochs():
    assert not validation_converged([4.0], 1e-5)


def test_stopping_rule_strictly_less_than_tol():
    # exact halves keep the comparison free of representation error
    assert not validation_converged([4.0, 4.5], 0.5)
    assert validation_converged([4.0, 4.25], 0.5)
    assert validation_converged([4.0, 4.0], 1e-5)


def test_stopping_rule_epoch_cap():
    epoch, converged = simulate_stop([1.0 / (n + 1) for n in range(2000)], 1e-12, 1000)
    assert (epoch, converged) == (1000, False)


def test_train_converged_flag(synthetic_fixture, fixture_split):
    tensor, _ = synthetic_fixture
    hyper = Hyperparams(ranks=Ranks(3, 3, 3), max_epochs=1000, tol=1e-3, seed=0)
    _, report = train(tensor, fixture_split, hyper)
    assert report.converged
    assert report.epochs_run < 1000
    last_two = [rec.val_rmse for rec in report.records[-2:]]
    assert abs(last_two[1] - last_two[0]) < 1e-3
    # the rule never fired earlier
    vals = [rec.val_rmse for rec in report.records]
    for a, b in zip(vals[:-2], vals[1:-1]):
        assert abs(b - a) >= 1e-3


def test_recovery_with_adequate_sampling():
    # ground-truth recovery against the generator oracle: with ~3600 training
    # entries for ~250 parameters the trainer must bring the test RMSE to
    # <= 0.05, i.e. within 5x the 0.01 noise sigma (acceptance criterion 5
    # holds the trainer to 3 sigma on a larger sampling)
    from pidtucker import SyntheticSpec, generate_synthetic

    spec = SyntheticSpec(dims=(20, 15, 30), ranks=Ranks(3, 3, 3),
                         observed_fraction=0.5, noise_sigma=0.01, seed=7)
    tensor, _ = generate_synthetic(spec)
    parts = split(tensor, (0.8, 0.1, 0.1), seed=7)
    hyper = Hyperparams(eta=0.1, reg=RegWeights(1e-4, 1e-4, 1e-4), gains=PLAIN_GAINS,
                        ranks=Ranks(3, 3, 3), max_epochs=200, tol=1e-9, seed=7)
    f, _ = train(tensor, parts, hyper)
    test_rmse = rmse(f, tensor.indices[parts.test], tensor.values[parts.test])
    assert test_rmse <= 0.05  # ~4.4x the 0.01 noise; untrained baseline is ~1.0


# ---------------------------------------------------------------- impute


def test_impute_empty():
    f = init_factors((2, 2, 2), Ranks(1, 1, 1), seed=0)
    assert predict_batch(f, []).shape == (0,)


def test_impute_single():
    f = init_factors((4, 3, 5), Ranks(2, 2, 2), mean=1.5, seed=1)
    out = predict_batch(f, [(1, 2, 3)])
    assert out.shape == (1,)
    assert out[0] == predict(f, (1, 2, 3))


def test_impute_full_grid_matches_dense():
    f = init_factors((4, 3, 5), Ranks(2, 2, 2), mean=0.7, seed=2)
    grid = np.array([(i, j, k) for i in range(4) for j in range(3) for k in range(5)])
    out = predict_batch(f, grid)
    assert np.allclose(out, reconstruct_dense(f).ravel(), atol=1e-12, rtol=0)


@pytest.mark.parametrize("part, bad", [("train", np.inf), ("train", -np.inf),
                                       ("validation", np.nan)])
def test_train_names_a_non_finite_value_before_any_update(synthetic_fixture, fixture_split,
                                                          part, bad):
    tensor, _ = synthetic_fixture
    pos = int(getattr(fixture_split, part)[3])
    values = tensor.values.copy()
    values[pos] = bad
    with pytest.raises(DataError) as exc:  # when the tensor is made, before train can run
        SparseTensor(tensor.dims, tensor.indices, values)
    assert str(exc.value) == (f"entry {pos}: cell {tuple(tensor.indices[pos].tolist())} "
                              f"has non-finite value {bad}")


def test_hyperparams_validation():
    with pytest.raises(ConfigError):
        Hyperparams(eta=0.0)
    with pytest.raises(ConfigError):
        Hyperparams(max_epochs=0)
    with pytest.raises(ConfigError):
        Hyperparams(tol=0.0)
    with pytest.raises(ConfigError):
        Hyperparams(error_clamp=0.0)
    with pytest.raises(ConfigError, match="seed"):
        Hyperparams(seed=-3)
