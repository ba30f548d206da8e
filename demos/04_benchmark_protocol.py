# The repeated-evaluation protocol: re-split, re-train, re-test, aggregate.
#
# A single train/test split can flatter or sandbag a model, especially at
# extreme missing ratios where the training set is tiny.  The benchmark
# protocol repeats the whole cycle with seeds hyper.seed, hyper.seed+1, ...,
# re-randomizing both the partition and the initialization, then reports the
# mean and sample standard deviation of the held-out RMSE and the training
# wall time (training only; data loading and scoring are excluded).

from pidtucker import (
    ExperimentConfig,
    Hyperparams,
    PidGains,
    Ranks,
    SyntheticSpec,
    generate_synthetic,
    run_experiment,
)

spec = SyntheticSpec(dims=(20, 15, 30), ranks=Ranks(3, 3, 3),
                     observed_fraction=0.5, noise_sigma=0.01, seed=5)
tensor, _ = generate_synthetic(spec)

config = ExperimentConfig(
    hyper=Hyperparams(
        eta=0.1,
        ranks=Ranks(3, 3, 3),
        gains=PidGains(1.0, 0.0, 0.0),
        max_epochs=60,
        seed=100,  # repeat r splits and trains with seed 100 + r
    ),
    ratios=(0.8, 0.1, 0.1),
    repeats=5,
)

summary = run_experiment(tensor, config)

print("repeat  seed   test RMSE   epochs   seconds")
for r in summary.results:
    if r.error is None:
        print(f"{r.repeat:>6}  {r.seed:>4}   {r.rmse:9.4f}   {r.epochs:>6}   {r.seconds:7.2f}")
    else:
        print(f"{r.repeat:>6}  {r.seed:>4}   failed: {r.error}")

print(f"\nRMSE    mean {summary.rmse_mean:.4f}  (sample std {summary.rmse_std:.4f})")
print(f"time    mean {summary.seconds_mean:.2f}s (sample std {summary.seconds_std:.2f}s)")
print("\nrerunning with the same config reproduces the same per-repeat RMSEs;")
print("only the timing columns change")
