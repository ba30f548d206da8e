"""In-memory spans around pidtucker's layer boundaries, and the per-layer metrics built from them.

Each public function is wrapped where its consumer module binds it (for
example ``pidtucker.solver.predict`` or ``pidtucker.cli.load_csv``), so the
program itself is unchanged.  A span records name, start, end, parent span
and a work count.  Per-entry functions called hundreds of thousands of times
per run are "hot": they aggregate call count and total time per
(name, parent span) instead of storing one span per call.

Spans assume one thread, which holds for every workload (``jobs`` = 1).
"""

from __future__ import annotations

import importlib
import os
import time

CLOCK = time.perf_counter


class Tracer:
    """Collects spans and hot-call aggregates in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.hot: dict[tuple[str, int | None], list] = {}
        self._stack: list[int] = []

    def span(self, name, fn, work=None):
        """Wrap fn so each call records one span; work(result, *args) gives its counts."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = {"id": len(spans), "name": name,
                   "parent": stack[-1] if stack else None,
                   "start": CLOCK(), "end": None, "work": {}}
            spans.append(rec)
            stack.append(rec["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec["end"] = CLOCK()
            if work is not None:
                rec["work"] = work(result, *args, **kwargs)
            return result

        return wrapper

    def hot_call(self, name, fn):
        """Wrap a per-entry fn: count calls and sum time per (name, parent span)."""
        hot, stack = self.hot, self._stack

        def wrapper(*args, **kwargs):
            t0 = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = CLOCK() - t0
                key = (name, stack[-1] if stack else None)
                rec = hot.get(key)
                if rec is None:
                    hot[key] = [1, elapsed]
                else:
                    rec[0] += 1
                    rec[1] += elapsed

        return wrapper

    def to_dict(self) -> dict:
        return {"spans": self.spans,
                "hot": [[name, parent, calls, secs]
                        for (name, parent), (calls, secs) in self.hot.items()]}


# --- work counts, evaluated after the wrapped call returns -----------------

def _rows(result, *args, **kwargs):
    tensor, _mapping = result
    return {"rows": len(tensor)}


def _cells(result, *args, **kwargs):
    return {"cells": len(result)}


def _grid_cells(result, tensor, *args, **kwargs):
    return {"cells": int(tensor.n_cells)}


def _train(result, tensor, data_split, hyper, *args, **kwargs):
    _factors, report = result
    return {"epochs": report.epochs_run,
            "entries": report.epochs_run * len(data_split.train),
            "ranks": list(hyper.ranks.as_tuple())}


def _repeats(result, *args, **kwargs):
    return {"repeats": len(result.results),
            "failed": sum(1 for r in result.results if r.error is not None)}


def _export(result, f, targets, mapping, path, *args, **kwargs):
    return {"rows": len(targets), "bytes": os.path.getsize(path)}


def _saved_bytes(result, f, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _loaded_bytes(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


# (consumer module, bound name, layer name, work count or "hot").
BINDINGS = [
    ("cli", "load_csv", "datasets.load_csv", _rows),
    ("cli", "split", "sparse.split", None),
    ("cli", "train", "solver.train", _train),
    ("cli", "rmse", "evaluation.rmse", None),
    ("cli", "save_checkpoint", "model.save_checkpoint", _saved_bytes),
    ("cli", "load_checkpoint", "model.load_checkpoint", _loaded_bytes),
    ("cli", "load_mapping", "datasets.load_mapping", None),
    ("cli", "save_mapping", "datasets.save_mapping", None),
    ("cli", "write_trace", "solver.write_trace", None),
    ("cli", "missing_indices", "datasets.missing_indices", _grid_cells),
    ("cli", "export_imputed", "datasets.export_imputed", _export),
    ("cli", "run_experiment", "evaluation.run_experiment", _repeats),
    ("cli", "write_summary_json", "evaluation.write_summary_json", None),
    ("cli", "write_summary_csv", "evaluation.write_summary_csv", None),
    ("datasets", "from_records", "sparse.from_records", None),
    ("datasets", "predict_batch", "model.predict_batch", _cells),
    ("evaluation", "split", "sparse.split", None),
    ("evaluation", "train", "solver.train", _train),
    ("evaluation", "rmse", "evaluation.rmse", None),
    ("evaluation", "predict_batch", "model.predict_batch", _cells),
    ("model", "predict_batch", "model.predict_batch", _cells),
    ("solver", "predict_batch", "model.predict_batch", _cells),
    ("solver", "regularized_loss", "model.regularized_loss", None),
    ("solver", "predict", "model.predict", "hot"),
    ("solver", "adjust", "pid.adjust", "hot"),
    ("solver", "sgd_step", "solver.sgd_step", "hot"),
]


def install(tracer: Tracer) -> list[str]:
    """Wrap every binding that still exists; return the layer names wrapped.

    A name the program no longer binds (for example after per-entry calls are
    fused into one kernel) is skipped, and its metrics read null.
    """
    wrapped = []
    for module_name, attr, layer, work in BINDINGS:
        module = importlib.import_module(f"pidtucker.{module_name}")
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        if work == "hot":
            setattr(module, attr, tracer.hot_call(layer, fn))
        else:
            setattr(module, attr, tracer.span(layer, fn, work))
        wrapped.append(layer)
    return wrapped


# --- per-layer metrics ------------------------------------------------------

# Epoch-end evaluation calls made directly by solver.train; the rest of
# train's time is the SGD pass, however many calls the pass is split into.
EPOCH_EVAL = ("model.regularized_loss", "model.predict_batch")


def sgd_flops_per_entry(r1: int, r2: int, r3: int) -> int:
    """Flops of one PID-adjusted SGD entry with every quantity formed once (computed).

    Prediction (core.t, then .d, then .u, plus mean and biases), PID
    adjustment, the three factor-row gradients, the rank-1 core gradient, and
    the scaled updates of rows, core and biases.
    """
    core = r1 * r2 * r3
    return 10 * core + 5 * r1 * r2 + 2 * r2 * r3 + 2 * r1 + 5 * (r1 + r2 + r3) + 27


def sgd_bytes_per_entry(r1: int, r2: int, r3: int) -> int:
    """Bytes one SGD entry reads and writes (computed): index, value, three
    factor rows, the core, three biases and two PID slots read; rows, core,
    biases and PID slots written back.  All values are 8 bytes."""
    return 8 * (2 * (r1 + r2 + r3 + r1 * r2 * r3) + 14)


def self_times(trace: dict) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover."""
    out = {s["id"]: s["end"] - s["start"] for s in trace["spans"]}
    for s in trace["spans"]:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    for _name, parent, _calls, secs in trace["hot"]:
        if parent is not None:
            out[parent] -= secs
    return out


def _ratio(num, den):
    return None if num is None or not den else num / den


def layer_metrics(trace: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced CLI command; None where a layer was not called.

    wall_s is the traced process's wall time, so cli.self_s covers the
    interpreter start, imports, argument parsing and run-directory staging.
    """
    spans = trace["spans"]
    selfs = self_times(trace)

    def dur(s):
        return s["end"] - s["start"]

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        found = named(*names)
        return sum(map(dur, found)) if found else None

    def work(key, *names):
        found = named(*names)
        return sum(s["work"][key] for s in found) if found else None

    hot: dict[str, list] = {}
    for name, _parent, calls, secs in trace["hot"]:
        acc = hot.setdefault(name, [0, 0.0])
        acc[0] += calls
        acc[1] += secs

    def hot_calls(name):
        return hot[name][0] if name in hot else None

    def hot_s(name):
        return hot[name][1] if name in hot else None

    trains = named("solver.train")
    train_ids = {s["id"] for s in trains}
    train_s = total("solver.train")
    eval_s = sgd_pass_s = flops = None
    if trains:
        eval_s = sum(dur(s) for s in spans
                     if s["parent"] in train_ids and s["name"] in EPOCH_EVAL)
        sgd_pass_s = train_s - eval_s
        flops = sum(s["work"]["entries"] * sgd_flops_per_entry(*s["work"]["ranks"])
                    for s in trains)
    ranks = trains[0]["work"]["ranks"] if trains else None
    entries = work("entries", "solver.train")
    exports = named("datasets.export_imputed")
    export_s = total("datasets.export_imputed")
    missing_s = total("datasets.missing_indices")
    load_s = total("datasets.load_csv")
    batch_s = total("model.predict_batch")
    batch_cells = work("cells", "model.predict_batch")
    return {
        "solver.sgd_pass_s": sgd_pass_s,
        "solver.sgd_pass_entries_per_s": _ratio(entries, sgd_pass_s),
        "solver.sgd_step_calls": hot_calls("solver.sgd_step"),
        "solver.sgd_step_s": hot_s("solver.sgd_step"),
        "model.predict_calls": hot_calls("model.predict"),
        "model.predict_s": hot_s("model.predict"),
        "pid.adjust_calls": hot_calls("pid.adjust"),
        "pid.adjust_s": hot_s("pid.adjust"),
        "solver.epoch_eval_s": eval_s,
        "solver.epoch_eval_share": _ratio(eval_s, train_s),
        "model.regularized_loss_s": total("model.regularized_loss"),
        "solver.epochs": work("epochs", "solver.train"),
        "solver.entries_visited": entries,
        "solver.sgd_gflops_computed": _ratio(flops and flops / 1e9, sgd_pass_s),
        "solver.sgd_flops_per_entry_computed": ranks and sgd_flops_per_entry(*ranks),
        "solver.sgd_bytes_per_entry_computed": ranks and sgd_bytes_per_entry(*ranks),
        "datasets.missing_indices_s": missing_s,
        "datasets.missing_indices_cells_per_s":
            _ratio(work("cells", "datasets.missing_indices"), missing_s),
        "datasets.export_imputed_self_s":
            sum(selfs[s["id"]] for s in exports) if exports else None,
        "datasets.export_rows_per_s": _ratio(work("rows", "datasets.export_imputed"), export_s),
        "datasets.export_bytes": work("bytes", "datasets.export_imputed"),
        "model.predict_batch_cells": batch_cells,
        "model.predict_batch_s": batch_s,
        "model.predict_batch_cells_per_s": _ratio(batch_cells, batch_s),
        "datasets.load_csv_s": load_s,
        "datasets.load_csv_rows_per_s": _ratio(work("rows", "datasets.load_csv"), load_s),
        "sparse.from_records_s": total("sparse.from_records"),
        "sparse.split_s": total("sparse.split"),
        "evaluation.repeats": work("repeats", "evaluation.run_experiment"),
        "evaluation.repeats_failed": work("failed", "evaluation.run_experiment"),
        "evaluation.rmse_s": total("evaluation.rmse"),
        "model.checkpoint_io_s": total("model.save_checkpoint", "model.load_checkpoint"),
        "model.checkpoint_bytes": work("bytes", "model.save_checkpoint", "model.load_checkpoint"),
        "cli.self_s": wall_s - sum(dur(s) for s in spans if s["parent"] is None),
    }
