import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from pidtucker import (
    ConfigError,
    DataError,
    DivergenceError,
    ExperimentConfig,
    Hyperparams,
    Ranks,
    init_factors,
    predict,
    rmse,
    run_experiment,
)
from pidtucker import evaluation as evaluation_mod


def constant_model(mean, dims=(3, 3, 3)):
    f = init_factors(dims, Ranks(1, 1, 1), mean=mean, seed=0)
    f.core[:] = 0.0
    return f


def test_rmse_single_entry():
    f = constant_model(0.0)
    assert rmse(f, np.array([[0, 0, 0]]), np.array([1.0])) == 1.0


def test_rmse_symmetric_errors():
    f = constant_model(0.0)
    idx = np.array([[0, 0, 0], [1, 1, 1]])
    assert rmse(f, idx, np.array([2.0, -2.0])) == 2.0


def test_rmse_empty_rejected():
    f = constant_model(0.0)
    with pytest.raises(DataError):
        rmse(f, np.zeros((0, 3), dtype=np.int64), np.zeros(0))


@pytest.mark.parametrize("seed", range(3))
def test_rmse_matches_literal_transcription(seed):
    rng = np.random.default_rng(seed)
    f = init_factors((4, 3, 5), Ranks(2, 2, 2), mean=0.4, init_scale=1.0, seed=seed)
    idx = np.array([(int(rng.integers(4)), int(rng.integers(3)), int(rng.integers(5)))
                    for _ in range(7)])
    y = rng.normal(size=7)
    expected = math.sqrt(
        sum((yy - predict(f, tuple(row))) ** 2 for row, yy in zip(idx, y)) / 7
    )
    assert rmse(f, idx, y) == pytest.approx(expected, rel=1e-12)


def test_rmse_permutation_invariant():
    rng = np.random.default_rng(1)
    f = init_factors((4, 3, 5), Ranks(2, 2, 2), mean=0.4, init_scale=1.0, seed=1)
    idx = np.array([(int(rng.integers(4)), int(rng.integers(3)), int(rng.integers(5)))
                    for _ in range(9)])
    y = rng.normal(size=9)
    perm = rng.permutation(9)
    assert rmse(f, idx, y) == pytest.approx(rmse(f, idx[perm], y[perm]), rel=1e-14)


def test_rmse_zero_iff_exact():
    f = constant_model(3.5)
    idx = np.array([[0, 0, 0], [1, 2, 1]])
    assert rmse(f, idx, np.array([3.5, 3.5])) == 0.0
    assert rmse(f, idx, np.array([3.5, 3.6])) > 0.0


# ---------------------------------------------------------------- experiments


FAST_HYPER = Hyperparams(ranks=Ranks(2, 2, 2), max_epochs=8, tol=1e-12, seed=0)


def test_experiment_single_repeat_reduces_to_one_run(synthetic_fixture):
    tensor, _ = synthetic_fixture
    cfg = ExperimentConfig(hyper=replace(FAST_HYPER, ranks=Ranks(3, 3, 3), seed=11),
                           repeats=1)
    summary = run_experiment(tensor, cfg)
    assert len(summary.results) == 1
    only = summary.results[0]
    assert only.error is None
    assert summary.rmse_mean == only.rmse
    assert summary.rmse_std == 0.0


def test_experiment_deterministic(synthetic_fixture):
    tensor, _ = synthetic_fixture
    cfg = ExperimentConfig(hyper=replace(FAST_HYPER, seed=5), repeats=3)
    a = run_experiment(tensor, cfg)
    b = run_experiment(tensor, cfg)
    assert [r.rmse for r in a.results] == [r.rmse for r in b.results]
    assert [r.epochs for r in a.results] == [r.epochs for r in b.results]


def test_experiment_seed_schedule_concatenates(synthetic_fixture):
    tensor, _ = synthetic_fixture
    full = run_experiment(tensor, ExperimentConfig(hyper=replace(FAST_HYPER, seed=2), repeats=4))
    head = run_experiment(tensor, ExperimentConfig(hyper=replace(FAST_HYPER, seed=2), repeats=2))
    tail = run_experiment(tensor, ExperimentConfig(hyper=replace(FAST_HYPER, seed=4), repeats=2))
    assert [r.rmse for r in full.results] == [r.rmse for r in head.results] + [r.rmse for r in tail.results]


def test_experiment_isolates_failed_repeats(synthetic_fixture, monkeypatch):
    tensor, _ = synthetic_fixture
    calls = {"n": 0}
    real_train = evaluation_mod.train

    def flaky_train(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise DivergenceError("injected failure")
        return real_train(*args, **kwargs)

    monkeypatch.setattr(evaluation_mod, "train", flaky_train)
    summary = run_experiment(tensor, ExperimentConfig(hyper=FAST_HYPER, repeats=3))
    assert [r.error is None for r in summary.results] == [True, False, True]
    assert summary.results[1].error == "DivergenceError: injected failure"
    ok = [r.rmse for r in summary.results if r.error is None]
    assert summary.rmse_mean == pytest.approx(float(np.mean(ok)))


@pytest.mark.parametrize("ratios, message", [
    ((0.5, 0.5, 0.5), "ratios must sum to 1, got sum 1.5"),
    ((0.999, 0.0005, 0.0005), "leaves empty part(s): validation"),
    (("a", 1, 1), "ratios must be three positive reals, got ('a', 1, 1)"),
])
def test_a_split_the_ratios_refuse_stops_the_run_before_any_repeat_trains(
        synthetic_fixture, monkeypatch, ratios, message):
    tensor, _ = synthetic_fixture
    trained = []
    monkeypatch.setattr(evaluation_mod, "train", lambda *args: trained.append(args))
    cfg = ExperimentConfig(hyper=FAST_HYPER, ratios=ratios, repeats=3)
    with pytest.raises(DataError, match=re.escape(message)):
        run_experiment(tensor, cfg)
    assert trained == []


def test_a_summary_with_no_successful_repeat_is_strict_json(synthetic_fixture, monkeypatch,
                                                            tmp_path):
    tensor, _ = synthetic_fixture

    def failing_train(*args, **kwargs):
        raise DivergenceError("injected failure")

    monkeypatch.setattr(evaluation_mod, "train", failing_train)
    summary = run_experiment(tensor, ExperimentConfig(hyper=FAST_HYPER, repeats=2))
    assert all(r.error is not None for r in summary.results)
    evaluation_mod.write_summary_json(summary, tmp_path / "summary.json")

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    payload = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
    aggregates = ("rmse_mean", "rmse_std", "seconds_mean", "seconds_std")
    assert [payload[key] for key in aggregates] == [None] * 4
    assert [summary.rmse_mean, summary.rmse_std] == [None, None]


def test_experiment_aggregates_sample_std(synthetic_fixture):
    tensor, _ = synthetic_fixture
    cfg = ExperimentConfig(hyper=replace(FAST_HYPER, seed=7), repeats=3)
    summary = run_experiment(tensor, cfg)
    vals = [r.rmse for r in summary.results]
    assert summary.rmse_std == pytest.approx(float(np.std(vals, ddof=1)))


def test_experiment_stability_across_repeats(synthetic_fixture):
    # stability threshold observed in the pilot run for this fixture
    tensor, _ = synthetic_fixture
    hyper = Hyperparams(ranks=Ranks(3, 3, 3), max_epochs=60, seed=1)
    summary = run_experiment(tensor, ExperimentConfig(hyper=hyper, repeats=5))
    assert all(r.error is None for r in summary.results)
    assert summary.rmse_std < summary.rmse_mean / 5


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(hyper=FAST_HYPER, repeats=0)


def test_summary_files(tmp_path, synthetic_fixture):
    import csv
    import json

    tensor, _ = synthetic_fixture
    summary = run_experiment(tensor, ExperimentConfig(hyper=FAST_HYPER, repeats=2))
    evaluation_mod.write_summary_json(summary, tmp_path / "summary.json")
    evaluation_mod.write_summary_csv(summary, tmp_path / "summary.csv")

    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["rmse_mean"] == summary.rmse_mean
    assert len(payload["repeats"]) == 2

    with open(tmp_path / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["repeat"] for r in rows] == ["0", "1"]
    assert float(rows[0]["rmse"]) == summary.results[0].rmse
