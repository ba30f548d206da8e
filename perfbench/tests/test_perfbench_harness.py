"""Self-tests for the benchmark harness: span arithmetic, the percentile rule,
null reporting for layers that are not called, and the traced CLI path."""

import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from run import E2E_UNITS, LAYER_UNITS, end_to_end, median_and_tail  # noqa: E402
from tracing import BINDINGS, Tracer, install, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, truth_values  # noqa: E402


def _span(sid, name, parent, start, end, **work):
    return {"id": sid, "name": name, "parent": parent, "start": start, "end": end,
            "work": work}


def test_self_time_subtracts_direct_children_and_hot_calls():
    trace = {
        "spans": [
            _span(0, "a", None, 0.0, 10.0),
            _span(1, "b", 0, 1.0, 4.0),
            _span(2, "c", 1, 2.0, 3.0),
            _span(3, "d", 0, 5.0, 6.5),
        ],
        "hot": [["h", 0, 1000, 2.0], ["h", 1, 10, 0.5]],
    }
    assert self_times(trace) == pytest.approx({0: 3.5, 1: 1.5, 2: 1.0, 3: 1.5})


def test_tracer_links_parents_and_aggregates_hot_calls_per_parent():
    tracer = Tracer()
    hot = tracer.hot_call("h", lambda x: time.sleep(0.001) or x)
    inner = tracer.span("inner", lambda: [hot(i) for i in range(5)],
                        work=lambda result: {"n": len(result)})
    outer = tracer.span("outer", lambda: inner() + [hot(0)])
    outer()
    trace = tracer.to_dict()
    assert [(s["name"], s["parent"]) for s in trace["spans"]] == [("outer", None), ("inner", 0)]
    assert trace["spans"][1]["work"] == {"n": 5}
    assert sorted((n, p, c) for n, p, c, _s in trace["hot"]) == [("h", 0, 1), ("h", 1, 5)]
    # Self times and hot totals partition the root span exactly.
    selfs = self_times(trace)
    root = trace["spans"][0]
    assert all(v >= 0 for v in selfs.values())
    assert sum(selfs.values()) + sum(s for *_x, s in trace["hot"]) == pytest.approx(
        root["end"] - root["start"])


def test_median_and_tail_needs_ten_samples_beyond_the_percentile():
    assert median_and_tail([]) == (None, None, 0)
    assert median_and_tail(range(1, 100)) == (50, None, 99)       # p90 has 9 beyond
    assert median_and_tail(range(1, 101))[1] == (90.0, 90)        # exactly 10 beyond
    assert median_and_tail(range(1, 1000))[1] == (90.0, 900)      # p99 has 9 beyond
    assert median_and_tail(range(1, 1001))[1] == (99.0, 990)
    assert median_and_tail(range(1, 10001))[1] == (99.9, 9990)


def test_end_to_end_scales_times_to_the_reference_speed():
    from types import SimpleNamespace

    from workloads import Outcome

    def cmd(wall, scale, work_seconds):
        return {"traced": False, "wall_s": wall, "scale": scale, "peak_rss_mb": 40.0,
                "outcome": Outcome(ops=1, failed=0, test_rmse=0.5, work=1000,
                                   work_seconds=work_seconds)}

    # A host at half speed doubles the raw times and halves the scale.
    run = SimpleNamespace(setup=[0.3], commands=[cmd(2.0, 1.0, 1.0), cmd(4.0, 0.5, 2.0),
                                                 cmd(2.0, 1.0, 1.0)])
    m = end_to_end(run)
    assert m["wall_s"] == pytest.approx(2.0)
    assert m["work_per_s"] == pytest.approx(1000.0)
    assert m["setup_s"] == 0.3 and m["test_rmse"] == 0.5


def test_fused_epoch_reports_null_per_entry_layers():
    # No per-entry predict/adjust/step calls, as after fusing them into one kernel.
    trace = {
        "spans": [
            _span(0, "solver.train", None, 0.0, 10.0, epochs=2, entries=200, ranks=[2, 2, 2]),
            _span(1, "model.regularized_loss", 0, 4.0, 5.0),
            _span(2, "model.predict_batch", 1, 4.2, 4.8, cells=100),
            _span(3, "model.predict_batch", 0, 6.0, 7.0, cells=10),
        ],
        "hot": [],
    }
    m = layer_metrics(trace, wall_s=12.0)
    for name in ("solver.sgd_step_calls", "solver.sgd_step_s", "model.predict_calls",
                 "model.predict_s", "pid.adjust_calls", "pid.adjust_s",
                 "datasets.missing_indices_s", "datasets.export_imputed_self_s",
                 "evaluation.repeats", "model.checkpoint_io_s"):
        assert m[name] is None, name
    assert m["solver.sgd_pass_s"] == pytest.approx(8.0)
    assert m["solver.sgd_pass_entries_per_s"] == pytest.approx(25.0)
    assert m["solver.epoch_eval_s"] == pytest.approx(2.0)
    assert m["solver.epoch_eval_share"] == pytest.approx(0.2)
    assert m["model.predict_batch_cells"] == 110
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert set(m) <= set(LAYER_UNITS)


@pytest.fixture
def restore_bindings(monkeypatch):
    """Let install() patch pidtucker modules; monkeypatch puts the originals back."""
    for module_name, attr, _layer, _work in BINDINGS:
        module = importlib.import_module(f"pidtucker.{module_name}")
        if hasattr(module, attr):
            monkeypatch.setattr(module, attr, getattr(module, attr))
    return monkeypatch


def test_install_skips_names_the_program_no_longer_binds(restore_bindings):
    import pidtucker.solver

    restore_bindings.delattr(pidtucker.solver, "sgd_step")
    wrapped = install(Tracer())
    assert "solver.sgd_step" not in wrapped
    assert {"model.predict", "pid.adjust", "solver.train"} <= set(wrapped)


def test_traced_train_counts_every_layer(restore_bindings, tmp_path):
    import pidtucker
    import pidtucker.cli

    spec = pidtucker.SyntheticSpec((6, 5, 8), pidtucker.Ranks(2, 2, 2), 0.5,
                                   value_offset=10.0, seed=3)
    tensor, _truth = pidtucker.generate_synthetic(spec)
    data = tmp_path / "data.csv"
    pidtucker.write_records_csv(tensor.indices, tensor.values,
                                pidtucker.identity_mapping(spec.dims), data)
    tracer = Tracer()
    install(tracer)
    t0 = time.perf_counter()
    code = pidtucker.cli.main(["train", "--data", str(data), "--slots-per-day", "8",
                               "--ratios", "0.8,0.1,0.1", "--ranks", "2,2,2",
                               "--max-epochs", "2", "--tol", "1e-12",
                               "--outdir", str(tmp_path), "--run-name", "r"])
    m = layer_metrics(json.loads(json.dumps(tracer.to_dict())), time.perf_counter() - t0)
    assert code == 0
    n_train = int(len(tensor) * 0.8)
    assert m["solver.epochs"] == 2
    assert m["solver.entries_visited"] == 2 * n_train
    for name in ("solver.sgd_step_calls", "model.predict_calls", "pid.adjust_calls"):
        assert m[name] == 2 * n_train, name
    assert m["model.checkpoint_bytes"] == (tmp_path / "r" / "model.ckpt").stat().st_size
    assert m["datasets.missing_indices_s"] is None
    assert 0 < m["solver.sgd_pass_s"] < m["solver.sgd_pass_s"] + m["solver.epoch_eval_s"]


def test_truth_values_match_predict_batch():
    from pidtucker import Ranks, init_factors, predict_batch

    f = init_factors((7, 6, 5), Ranks(3, 2, 4), mean=2.0, init_scale=1.0, seed=4)
    idx = np.random.default_rng(0).integers(0, (7, 6, 5), size=(50, 3))
    assert np.allclose(truth_values(f, idx), predict_batch(f, idx), rtol=0, atol=1e-12)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
