"""pidtucker benchmark: end-to-end CLI timings, traced per-layer timings, output checks.

Run from the root of a checkout (the program is used from ``src/``, no install):

    python3 perfbench/run.py --workload fit --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): ``fit`` (train), ``impute`` (impute
--all-missing) and ``protocol`` (benchmark).  The loop is closed: one CLI
child at a time, each started after the previous one exits, with numpy/BLAS
thread defaults left alone.  Inputs are made from --seed and are not timed.

--trace 0 runs the untraced CLI repeatedly for --seconds and reports the
end-to-end metrics, each the median over the commands run.  Set-up time is a
fresh interpreter importing pidtucker and finishing a one-epoch train() on a
tiny tensor, probed after every command (and at least SETUP_RUNS times), so
that its median covers the whole run and not only its start.

wall_s and work_per_s are scaled to a reference host speed.  The shared
hosts this benchmark runs on slow interpreter-bound code by up to a third for
minutes at a time, and a run's raw median then measures the host.  So every
CLI command is bracketed by two runs of a fixed SGD-shaped kernel that does
not use pidtucker (reference_seconds), and its time is multiplied by
REF_NOMINAL_S over the mean of the two.  A change to pidtucker moves the
scaled times as it moves the raw ones; the host's speed cancels.  The raw
medians and the reference times are printed beside them.  setup_s is raw:
it is mostly interpreter start-up and imports, whose speed the kernel does
not follow (scaling it widened its spread on two of three workloads).

--trace 1 alternates an untraced CLI command with a traced one, which calls
pidtucker.cli.main in-process with every layer boundary wrapped (tracing.py),
and reports the per-layer metrics (medians over traced commands) and the
tracing overhead (traced minus untraced wall time).

Every command's outputs are checked, and command i runs under
PYTHONHASHSEED=i: outputs that differ between commands are reported as a
determinism failure (a check, not a bound).  Operations attempted are the
set-up probes plus one per command (fit, impute) or per repeat (protocol); a
non-zero exit, a repeat recorded with an error or a failed output check fails
them, and fail_frac is failed / attempted.  A readable report and a JSON
results file (under .perfbench_out/) come first; the last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}.  In that line a
layer a workload never calls reads 0; the report and results file say null.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 9
REF_STEPS = 6000
REF_NOMINAL_S = 0.15      # reference_seconds() on the 2-vCPU host it was tuned on
MIN_COMMANDS = 2          # the determinism probe compares at least two
RUN_BUDGET_S = 165        # a run must exit within 180 s
CLI_MAIN = "import sys; from pidtucker.cli import main; sys.exit(main())"
SETUP_CODE = """
import pidtucker as pt
cells = [(i, j, k, 1.0 + i + j * k) for i in range(4) for j in range(4)
         for k in range(4) if (i + j + k) % 2 == 0]
tensor = pt.from_records((4, 4, 4), cells)
parts = pt.split(tensor, (0.6, 0.2, 0.2), 0)
pt.train(tensor, parts, pt.Hyperparams(ranks=pt.Ranks(2, 2, 2), max_epochs=1))
"""

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "test_rmse": "speed",
}
LAYER_UNITS = {
    "solver.sgd_pass_s": "s",
    "solver.sgd_pass_entries_per_s": "1/s",
    "solver.sgd_step_calls": "count",
    "solver.sgd_step_s": "s",
    "model.predict_calls": "count",
    "model.predict_s": "s",
    "pid.adjust_calls": "count",
    "pid.adjust_s": "s",
    "solver.epoch_eval_s": "s",
    "solver.epoch_eval_share": "ratio",
    "model.regularized_loss_s": "s",
    "solver.epochs": "count",
    "solver.entries_visited": "count",
    "solver.sgd_gflops_computed": "GFLOP/s",
    "solver.sgd_flops_per_entry_computed": "FLOP",
    "solver.sgd_bytes_per_entry_computed": "B",
    "datasets.missing_indices_s": "s",
    "datasets.missing_indices_cells_per_s": "1/s",
    "datasets.export_imputed_self_s": "s",
    "datasets.export_rows_per_s": "1/s",
    "datasets.export_bytes": "B",
    "model.predict_batch_cells": "count",
    "model.predict_batch_s": "s",
    "model.predict_batch_cells_per_s": "1/s",
    "datasets.load_csv_s": "s",
    "datasets.load_csv_rows_per_s": "1/s",
    "sparse.from_records_s": "s",
    "sparse.split_s": "s",
    "evaluation.repeats": "count",
    "evaluation.repeats_failed": "count",
    "evaluation.rmse_s": "s",
    "model.checkpoint_io_s": "s",
    "model.checkpoint_bytes": "B",
    "cli.self_s": "s",
    "datasets.csv_bytes_read": "B",
    "datasets.csv_bytes_written": "B",
    "trace.overhead_s": "s",
}


def reference_seconds(steps: int = REF_STEPS) -> float:
    """Wall seconds of a fixed kernel shaped like one SGD pass (rank 3, no pidtucker).

    Tiny numpy products and scalar Python per step, as in solver.sgd_step, so
    that the host's speed for that mix of work shows in it as in pidtucker.
    Inputs are never updated, so every call does identical arithmetic.
    """
    rng = np.random.default_rng(0)
    core = rng.standard_normal((3, 3, 3))
    rows = [rng.standard_normal((m, 3)) for m in (20, 15, 30)]
    out = [np.empty_like(r) for r in rows]
    t0 = time.perf_counter()
    for step in range(steps):
        i, j, k = step % 20, step % 15, step % 30
        u, d, t = rows[0][i], rows[1][j], rows[2][k]
        gt = core @ t
        phi, psi = gt @ d, u @ gt
        err = max(-1.0, min(1.0, float(u @ phi) - 1.0))
        out[0][i] = u - 0.001 * (0.01 * u - err * phi)
        out[1][j] = d - 0.001 * (0.01 * d - err * psi)
        _core = core - 0.001 * (0.01 * core - err * ((u[:, None] * d)[:, :, None] * t))
    return time.perf_counter() - t0


def median_and_tail(values):
    """Median plus the highest of p90/p99/p99.9 with at least ten samples beyond it.

    Percentiles are nearest-rank: the p-th is the k-th smallest sample with
    k = ceil(p/100 * n), and n - k samples lie beyond it.  Returns
    (median, (p, value) or None, n).
    """
    xs = sorted(values)
    n = len(xs)
    tail = None
    for p_tenths in (900, 990, 999):
        k = -(-p_tenths * n // 1000)
        if n - k >= 10:
            tail = (p_tenths / 10, xs[k - 1])
    return (statistics.median(xs) if xs else None), tail, n


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
    }


def spawn(cmd, env, log: Path, timeout: float):
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB)."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=env)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        status = None
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            if status is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def child_env(root: Path, hashseed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = str(hashseed)
    return env


class Run:
    """One benchmark run: inputs, set-up probes, and the timed CLI commands."""

    def __init__(self, workload, seconds: float, trace: bool, root: Path, workdir: Path):
        self.wl, self.seconds, self.trace = workload, seconds, trace
        self.root, self.workdir = root, workdir
        self.started = time.perf_counter()
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.setup: list[float] = []
        self.refs: list[float] = []
        if not trace:
            reference_seconds()               # warm-up
            self.refs.append(reference_seconds())
        self.commands: list[dict] = []

    def _timeout(self) -> float:
        return max(1.0, RUN_BUDGET_S - (time.perf_counter() - self.started))

    def _scale(self) -> float:
        """REF_NOMINAL_S over the mean reference time just before and just after a command."""
        if self.trace:
            return 1.0
        self.refs.append(reference_seconds())
        return REF_NOMINAL_S / ((self.refs[-2] + self.refs[-1]) / 2)

    def setup_probe(self, i: int) -> None:
        log = self.workdir / f"setup{i}.log"
        code, wall, _rss = spawn([sys.executable, "-c", SETUP_CODE],
                                 child_env(self.root, i), log, self._timeout())
        self.attempted += 1
        if code:
            self.failed += 1
            self.problems.append(f"setup exit {code}: {_tail(log)}")
        else:
            self.setup.append(wall)

    def command(self, i: int, traced: bool, inputs) -> None:
        from workloads import Outcome

        outdir = self.workdir / "runs"
        name = f"cmd{i}"
        argv = inputs.argv + ["--outdir", str(outdir), "--run-name", name]
        spans = self.workdir / f"{name}.spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-c", CLI_MAIN, *argv]
        log = self.workdir / f"{name}.log"
        code, wall, rss = spawn(cmd, child_env(self.root, i), log, self._timeout())
        scale = self._scale()
        rundir = outdir / name
        ops = self.wl.ops_per_command
        if code:
            outcome = Outcome(ops=ops, failed=ops, problems=[f"exit {code}: {_tail(log)}"])
        else:
            try:
                outcome = self.wl.check(inputs, rundir)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                outcome = Outcome(ops=ops, failed=ops,
                                  problems=[f"outputs unreadable: {type(exc).__name__}: {exc}"])
        self.attempted += outcome.ops
        self.failed += outcome.failed
        self.problems += [f"command {i}: {p}" for p in outcome.problems]
        layers = None
        if traced and code == 0:
            layers = layer_metrics(json.loads(spans.read_text(encoding="utf-8")), wall)
        self.commands.append({"i": i, "traced": traced, "exit": code, "wall_s": wall,
                              "scale": scale, "peak_rss_mb": rss, "outcome": outcome,
                              "layers": layers})
        shutil.rmtree(rundir, ignore_errors=True)

    def measure_commands(self, inputs) -> None:
        t0 = time.perf_counter()
        i = 0
        while True:
            self.command(i, traced=self.trace and i % 2 == 1, inputs=inputs)
            if not self.trace:
                self.setup_probe(i)
            i += 1
            last = self.commands[-1]["wall_s"]
            spent = time.perf_counter() - self.started
            if spent + 2 * last > RUN_BUDGET_S:
                break
            if i >= MIN_COMMANDS and time.perf_counter() - t0 >= self.seconds:
                break


def _rate(c) -> float:
    return c["outcome"].work / (c["outcome"].work_seconds or c["wall_s"])


def end_to_end(run: Run) -> dict:
    """Medians over the untraced commands that passed; command times at the reference speed."""
    ok = [c for c in run.commands if not c["traced"] and c["outcome"].failed == 0]
    return {
        "setup_s": _median(run.setup),
        "wall_s": _median(c["wall_s"] * c["scale"] for c in ok),
        "peak_rss_mb": _median(c["peak_rss_mb"] for c in ok),
        "work_per_s": _median(_rate(c) / c["scale"] for c in ok),
        "test_rmse": _median(c["outcome"].test_rmse for c in ok),
    }


def unscaled(run: Run) -> dict:
    """The raw medians behind end_to_end's scaled times, and the reference times."""
    ok = [c for c in run.commands if not c["traced"] and c["outcome"].failed == 0]
    p50, tail, n = median_and_tail(run.refs)
    return {"wall_s": _median(c["wall_s"] for c in ok),
            "work_per_s": _median(_rate(c) for c in ok),
            "reference_s": {"p50": p50, "tail": tail, "samples": n,
                            "min": min(run.refs, default=None),
                            "max": max(run.refs, default=None),
                            "nominal": REF_NOMINAL_S}}


def per_layer(run: Run, inputs) -> dict:
    traced = [c for c in run.commands if c["layers"] is not None]
    plain = [c for c in run.commands if not c["traced"] and c["exit"] == 0]
    out = {name: _median(c["layers"][name] for c in traced)
           for name in LAYER_UNITS if traced and name in traced[0]["layers"]}
    out["datasets.csv_bytes_read"] = inputs.csv_bytes_read
    out["datasets.csv_bytes_written"] = _median(
        c["outcome"].csv_bytes_written for c in run.commands if c["exit"] == 0)
    traced_wall = _median(c["wall_s"] for c in traced)
    plain_wall = _median(c["wall_s"] for c in plain)
    out["trace.overhead_s"] = (None if traced_wall is None or plain_wall is None
                               else traced_wall - plain_wall)
    return {name: out.get(name) for name in LAYER_UNITS}


def determinism(run: Run) -> dict:
    digests = {c["i"]: c["outcome"].digest for c in run.commands if c["exit"] == 0}
    return {"commands_compared": len(digests),
            "identical": len(set(digests.values())) <= 1,
            "pythonhashseeds": sorted(digests)}


def _tail(log: Path, lines: int = 3) -> str:
    text = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(args, env: dict, config: dict, run: Run, metrics: dict, units: dict,
           extra: dict) -> list[str]:
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace} | " + " ".join(f"{k}={v}" for k, v in env.items()),
             "  config: " + json.dumps(config, default=str)]
    lines += [f"  {name:40s} {_fmt(value):>14s} {units[name]}" for name, value in metrics.items()]
    lines += [f"  {key}: {json.dumps(value, default=str)}" for key, value in extra.items()]
    lines += [f"  FAILED {p}" for p in run.problems]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit", "impute", "protocol"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "pidtucker" / "__init__.py").is_file():
        print("perfbench: src/pidtucker not found; run from the root of a pidtucker checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = root / ".perfbench_work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = Run(workload, args.seconds, bool(args.trace), root, workdir)
        inputs = workload.prepare(args.seed, workdir)
        run.measure_commands(inputs)
        if not args.trace:
            for i in range(len(run.commands), SETUP_RUNS):
                run.setup_probe(i)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [c for c in run.commands if not c["traced"] and c["outcome"].failed == 0]
    seconds_p50, tail, n = median_and_tail(
        [s for c in plain for s in c["outcome"].repeat_seconds])
    extra = {
        "fail_frac": {"value": run.failed / max(run.attempted, 1),
                      "failed": run.failed, "attempted": run.attempted},
        "commands": {"untraced": sum(not c["traced"] for c in run.commands),
                     "traced": sum(c["traced"] for c in run.commands)},
        "repeat_s": {"p50": seconds_p50, "tail": tail, "samples": n},
        "determinism": determinism(run),
    }
    if args.trace:
        metrics, units = per_layer(run, inputs), LAYER_UNITS
    else:
        metrics, units = end_to_end(run), E2E_UNITS
        extra["unscaled"] = unscaled(run)
    env = environment()
    lines = report(args, env, workload.config, run, metrics, units, extra)
    print("\n".join(lines))

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": 0 if value is None else value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    outdir = root / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    details = {"env": env, "config": workload.config, "metrics": metrics, **extra,
               "problems": run.problems, "result": result, "reference_s": run.refs,
               "commands": [{**c, "outcome": vars(c["outcome"])} for c in run.commands]}
    (outdir / f"{tag}.json").write_text(json.dumps(details, indent=2, default=str) + "\n",
                                        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
