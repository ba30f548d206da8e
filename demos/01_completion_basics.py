# Filling in missing cells of a sparse 3-mode tensor, end to end.
#
# The library models each observed value as a global mean, three per-index
# biases, and a low-rank multilinear term (a core tensor mixing per-mode
# latent factors).  Training runs stochastic gradient descent over the
# observed entries only, with each entry's residual passed through a
# proportional-integral-derivative adjustment before the update.

import numpy as np

from pidtucker import (
    Hyperparams,
    PidGains,
    Ranks,
    RegWeights,
    SyntheticSpec,
    generate_synthetic,
    missing_indices,
    predict_batch,
    rmse,
    split,
    train,
)

# ---------------------------------------------------------------------------
# 1. Make a toy dataset with known ground truth.  In real use you would call
#    load_csv on a segment,day,slot,speed file instead; here a seeded
#    generator gives us the true values for every cell, so we can score the
#    imputations exactly.
# ---------------------------------------------------------------------------
spec = SyntheticSpec(
    dims=(20, 15, 30),          # e.g. 20 road segments x 15 days x 30 slots
    ranks=Ranks(3, 3, 3),
    observed_fraction=0.5,      # half the cells carry a reading
    noise_sigma=0.01,
    value_offset=10.0,          # plays the global mean, like an average speed
    seed=7,
)
tensor, truth = generate_synthetic(spec)
print(f"tensor dims {tensor.dims}, {len(tensor)} observed entries "
      f"(density {tensor.density:.2f})")

# ---------------------------------------------------------------------------
# 2. Partition the observed entries.  Train and validation drive the fit and
#    the stopping rule; the held-out test part estimates imputation quality.
# ---------------------------------------------------------------------------
parts = split(tensor, ratios=(0.8, 0.1, 0.1), seed=7)
print(f"split: {len(parts.train)} train / {len(parts.validation)} validation "
      f"/ {len(parts.test)} test")

# ---------------------------------------------------------------------------
# 3. Train.  Training stops when the validation RMSE changes by less than
#    `tol` between epochs, or at the epoch cap.
# ---------------------------------------------------------------------------
hyper = Hyperparams(
    eta=0.1,
    reg=RegWeights(1e-4, 1e-4, 1e-4),   # light penalties; data is plentiful here
    gains=PidGains(1.0, 0.0, 0.0),      # plain SGD: the identity adjustment, which
                                        # train skips; demo 02 covers the PID gains
    ranks=Ranks(3, 3, 3),
    max_epochs=200,
    tol=1e-9,
    seed=7,
)
factors, report = train(tensor, parts, hyper)
print(f"trained {report.epochs_run} epochs, converged={report.converged}, "
      f"validation RMSE {report.final_val_rmse:.4f} "
      f"(best epoch {report.best_epoch})")

test_rmse = rmse(factors, tensor.indices[parts.test], tensor.values[parts.test])
print(f"held-out test RMSE: {test_rmse:.4f}  (noise floor is {spec.noise_sigma})")

# ---------------------------------------------------------------------------
# 4. Impute the cells that carry no reading, and score them against the
#    generator's ground truth (impossible with real data, the whole point of
#    the synthetic fixture).
# ---------------------------------------------------------------------------
holes = missing_indices(tensor)
filled = predict_batch(factors, holes)
true_values = predict_batch(truth, holes)
gap = float(np.sqrt(np.mean((filled - true_values) ** 2)))
print(f"imputed {len(holes)} missing cells; RMSE against ground truth: {gap:.4f}")
cell = tuple(int(x) for x in holes[0])
print(f"example: cell {cell} -> {filled[0]:.3f} (truth {true_values[0]:.3f})")
