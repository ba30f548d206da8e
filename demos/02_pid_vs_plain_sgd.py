# How the PID residual adjustment changes the training trajectory.
#
# Plain SGD steps against the raw residual of each entry.  The PID variant
# feeds the residual's history back into the update: a proportional term
# (the residual itself), an integral term (its running sum, which pushes
# harder on entries the model keeps getting wrong), and a derivative term
# (its change, which damps overshoot).  Plain SGD is gains (1, 0, 0) with no
# clamp: that adjustment is the identity, so train skips it.

from dataclasses import replace

import numpy as np

from pidtucker import (
    Hyperparams,
    PidGains,
    Ranks,
    SyntheticSpec,
    generate_synthetic,
    split,
    train,
)

spec = SyntheticSpec(dims=(20, 15, 30), ranks=Ranks(3, 3, 3),
                     observed_fraction=0.10, noise_sigma=0.01, seed=20240)
tensor, _ = generate_synthetic(spec)
parts = split(tensor, (0.08, 0.02, 0.90), seed=3)

base = Hyperparams(
    eta=0.02,
    ranks=Ranks(3, 3, 3),
    max_epochs=120,
    tol=1e-9,               # disable early stopping so the traces are comparable
    seed=3,
    error_clamp=1.0,        # bounds the adjusted residual against integral windup
)

runs = {
    "plain SGD": replace(base, gains=PidGains(1.0, 0.0, 0.0), error_clamp=None),
    "PID (ki=0.1)": replace(base, gains=PidGains(1.0, 0.1, 0.0)),
    "PID (ki=0.2)": replace(base, gains=PidGains(1.0, 0.2, 0.0)),
}

traces = {}
for label, hyper in runs.items():
    _, report = train(tensor, parts, hyper)
    traces[label] = [rec.val_rmse for rec in report.records]
    print(f"{label:14s} val RMSE after 10/40/120 epochs: "
          f"{traces[label][9]:.4f} / {traces[label][39]:.4f} / {traces[label][-1]:.4f}")

# epochs each trainer needs to get within 1% of plain SGD's final value
target = traces["plain SGD"][-1] * 1.01
for label, vals in traces.items():
    hit = next((ep for ep, v in enumerate(vals, start=1) if v <= target), None)
    print(f"{label:14s} reaches within 1% of plain-SGD final at epoch {hit}")

# sanity: skipping the identity adjustment changes no bit.  An infinite clamp
# makes train run adjust on every entry, and that clamp never binds.
plain, _ = train(tensor, parts, runs["plain SGD"])
ident, _ = train(tensor, parts, replace(runs["plain SGD"], error_clamp=float("inf")))
assert np.array_equal(ident.core, plain.core)
print("gains (1, 0, 0) reproduce the plain-SGD parameters bit for bit")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    for label, vals in traces.items():
        ax.plot(range(1, len(vals) + 1), vals, label=label)
    ax.axhline(target, color="gray", ls=":", lw=1, label="plain final +1%")
    ax.set_xlabel("epoch")
    ax.set_ylabel("validation RMSE")
    ax.legend()
    fig.tight_layout()
    fig.savefig("pid_vs_plain_convergence.png", dpi=120)
    print("wrote pid_vs_plain_convergence.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
