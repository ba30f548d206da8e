import copy
import dataclasses
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pidtucker import (
    ConfigError,
    DataError,
    Hyperparams,
    Ranks,
    RegWeights,
    init_factors,
    instance_gradient,
    load_checkpoint,
    predict,
    predict_batch,
    reconstruct_dense,
    regularized_loss,
    rmse,
    save_checkpoint,
)
from pidtucker.model import _PREDICT_BLOCK_ROWS, _shapes


def random_factors(dims=(4, 3, 5), ranks=Ranks(2, 2, 2), seed=0, bias_scale=1.0):
    rng = np.random.default_rng(seed)
    f = init_factors(dims, ranks, mean=float(rng.normal()), init_scale=1.0, seed=seed)
    for m in range(3):
        f.factors[m][:] = rng.normal(size=f.factors[m].shape)
        f.biases[m][:] = bias_scale * rng.normal(size=f.biases[m].shape)
    f.core[:] = rng.normal(size=f.core.shape)
    return f


def triple_loop_value(f, i, j, k):
    """Independent oracle: literal element-wise sum plus mean and biases."""
    r1, r2, r3 = f.ranks.as_tuple()
    total = 0.0
    for m in range(r1):
        for n in range(r2):
            for l in range(r3):
                total += f.core[m, n, l] * f.factors[0][i, m] * f.factors[1][j, n] * f.factors[2][k, l]
    return f.mean + total + f.biases[0][i] + f.biases[1][j] + f.biases[2][k]


def loss_summand(f, idx, y, reg):
    """Independent oracle: one entry's contribution to the regularized loss."""
    i, j, k = idx
    e = y - triple_loop_value(f, i, j, k)
    return 0.5 * (
        e * e
        + reg.lambda1 * float(np.sum(f.core**2))
        + reg.lambda2 * (
            float(np.sum(f.factors[0][i] ** 2))
            + float(np.sum(f.factors[1][j] ** 2))
            + float(np.sum(f.factors[2][k] ** 2))
        )
        + reg.lambda3 * (f.biases[0][i] ** 2 + f.biases[1][j] ** 2 + f.biases[2][k] ** 2)
    )


# ---------------------------------------------------------------- init


def test_init_deterministic():
    a = init_factors((4, 3, 5), Ranks(2, 2, 2), seed=11)
    b = init_factors((4, 3, 5), Ranks(2, 2, 2), seed=11)
    assert np.array_equal(a.core, b.core)
    for m in range(3):
        assert np.array_equal(a.factors[m], b.factors[m])


def test_init_range_and_zero_biases():
    f = init_factors((30, 20, 10), Ranks(4, 4, 4), init_scale=0.04, seed=2)
    for arr in (*f.factors, f.core):
        assert (arr > 0).all() and (arr <= 0.04).all()
    for v in f.biases:
        assert not v.any()


def test_init_shapes():
    f = init_factors((4, 3, 5), Ranks(2, 2, 2), seed=0)
    assert f.factors[0].shape == (4, 2)
    assert f.factors[1].shape == (3, 2)
    assert f.factors[2].shape == (5, 2)
    assert f.core.shape == (2, 2, 2)


def test_the_layout_lists_the_arrays_in_checkpoint_order():
    f = init_factors((4, 3, 5), Ranks(2, 1, 3), seed=0)
    shapes = [(4, 2), (3, 1), (5, 3), (2, 1, 3), (4,), (3,), (5,)]
    assert _shapes(f.dims, f.ranks.as_tuple()) == shapes
    assert [a.shape for a in f.arrays] == shapes
    assert f.arrays[3] is f.core
    assert f.params.tobytes() == b"".join(a.tobytes() for a in f.arrays)


@pytest.mark.parametrize("scale", [math.inf, math.nan, 0.0])
def test_init_scale_must_be_finite_and_positive(scale):
    message = re.escape(f"init_scale must be finite and > 0, got {scale}")
    with pytest.raises(ConfigError, match=message):
        init_factors((4, 3, 5), Ranks(2, 2, 2), init_scale=scale)
    with pytest.raises(ConfigError, match=message):
        Hyperparams(init_scale=scale)


@pytest.mark.parametrize("mean, error", [(None, TypeError), ("ten", ValueError),
                                         ([1.0], TypeError)])
def test_a_mean_float_rejects_fails_at_construction(mean, error):
    f = init_factors((4, 3, 5), Ranks(2, 2, 2), seed=0)
    with pytest.raises(error):
        dataclasses.replace(f, mean=mean)
    with pytest.raises(error) as exc:
        init_factors((4, 3, 5), Ranks(2, 2, 2), mean=mean)
    assert type(exc.value) is error  # not an allocation failure's ConfigError
    g = dataclasses.replace(f, mean=np.float32(1.5))
    assert type(g.mean) is float and g.mean == 1.5
    assert predict(g, (1, 1, 1)) == predict(f, (1, 1, 1)) + 1.5


@pytest.mark.parametrize("dims", [(2.5, 3, 4), ("3", 3, 4), (True, 3, 4), (0, 3, 4), (3, 4)])
def test_dims_are_checked_before_they_are_converted(dims):
    message = re.escape(f"dims must be three positive integers, got {dims}")
    with pytest.raises(ConfigError, match=message):
        init_factors(dims, Ranks(2, 2, 2))
    f = init_factors((2, 1, 1), Ranks(1, 1, 1))
    with pytest.raises(DataError, match=re.escape("got (2.0, 1, 1)")):
        dataclasses.replace(f, dims=(2.0, 1, 1))
    g = dataclasses.replace(f, dims=[np.int64(2), 1, 1])
    assert g.dims == (2, 1, 1) and all(type(d) is int for d in g.dims)


@pytest.mark.parametrize("bad", [0, -1, 2.5, 2.0, True, "2", None])
def test_ranks_must_be_positive_integers(bad):
    with pytest.raises(ConfigError, match=f"rank r2 must be an integer >= 1, got {bad}"):
        Ranks(2, bad, 2)
    assert Ranks(np.int64(3), 1, 2).as_tuple() == (3, 1, 2)


# ---------------------------------------------------------------- predict


def test_predict_zero_model_is_mean():
    f = init_factors((2, 2, 2), Ranks(1, 1, 1), mean=10.5, seed=0)
    f.core[:] = 0.0
    assert predict(f, (0, 0, 0)) == 10.5


def test_predict_rank_one_product():
    f = init_factors((2, 2, 2), Ranks(1, 1, 1), mean=0.0, seed=0)
    f.core[:] = 2.0
    f.factors[0][0] = 1.5
    f.factors[1][0] = 1.0
    f.factors[2][0] = 2.0
    assert predict(f, (0, 0, 0)) == pytest.approx(6.0, abs=1e-15)


def test_predict_out_of_bounds():
    f = init_factors((2, 2, 2), Ranks(1, 1, 1), seed=0)
    with pytest.raises(DataError):
        predict(f, (2, 0, 0))


@pytest.mark.parametrize("seed", range(5))
def test_predict_matches_dense_and_triple_loop(seed):
    f = random_factors(seed=seed)
    dense = reconstruct_dense(f)
    for i in range(4):
        for j in range(3):
            for k in range(5):
                p = predict(f, (i, j, k))
                assert abs(p - dense[i, j, k]) <= 1e-12
                assert abs(p - triple_loop_value(f, i, j, k)) <= 1e-12


def test_predict_batch_matches_predict():
    f = random_factors(seed=9)
    idx = np.array([(i, j, k) for i in range(4) for j in range(3) for k in range(5)])
    batch = predict_batch(f, idx)
    singles = np.array([predict(f, tuple(row)) for row in idx])
    assert batch.tobytes() == singles.tobytes()


def test_predict_batch_names_an_out_of_bounds_row_in_plain_ints():
    f = init_factors((2, 3, 4), Ranks(1, 1, 1), seed=0)
    for idx, row in [([(1, 2, 3), (-1, 0, 0)], "(-1, 0, 0)"), ([(0, 3, 0)], "(0, 3, 0)")]:
        with pytest.raises(DataError) as exc:
            predict_batch(f, np.array(idx, dtype=np.int64))
        assert str(exc.value) == f"index {row} out of bounds for dims (2, 3, 4)"


@pytest.mark.parametrize("n", [0, 1, _PREDICT_BLOCK_ROWS - 1, _PREDICT_BLOCK_ROWS,
                               _PREDICT_BLOCK_ROWS + 1, 2 * _PREDICT_BLOCK_ROWS + 3])
def test_predict_batch_blocks_match_predict(n):
    f = random_factors(dims=(30, 20, 25), ranks=Ranks(3, 4, 2), seed=n)
    rng = np.random.default_rng(n)
    idx = np.column_stack([rng.integers(0, d, n) for d in f.dims])
    batch = predict_batch(f, idx)
    singles = np.array([predict(f, tuple(row)) for row in idx.tolist()])
    assert batch.shape == (n,)
    assert batch.tobytes() == singles.reshape(n).tobytes()


def test_predict_invariant_under_core_factor_rescaling():
    # scaling by a power of two keeps every float product exact
    f = random_factors(seed=6)
    g = copy.deepcopy(f)
    g.core[:] = g.core / 2.0
    g.factors[0][:] = g.factors[0] * 2.0
    for i in range(4):
        for j in range(3):
            for k in range(5):
                assert predict(f, (i, j, k)) == predict(g, (i, j, k))


def test_reconstruct_dense_zero_core_is_additive():
    f = random_factors(seed=7)
    f.core[:] = 0.0
    dense = reconstruct_dense(f)
    expected = (f.mean + f.biases[0][:, None, None] + f.biases[1][None, :, None]
                + f.biases[2][None, None, :])
    assert np.allclose(dense, expected, atol=1e-15, rtol=0)


def test_reconstruct_dense_cap():
    f = random_factors(seed=0)
    with pytest.raises(DataError):
        reconstruct_dense(f, max_cells=10)


# ---------------------------------------------------------------- error / loss


def test_instance_error_basic():
    f = init_factors((2, 2, 2), Ranks(1, 1, 1), mean=10.0, seed=0)
    f.core[:] = 0.0
    assert 12.0 - predict(f, (0, 0, 0)) == 2.0
    assert 10.0 - predict(f, (0, 0, 0)) == 0.0


def test_instance_error_identity_on_zero_model():
    f = init_factors((2, 2, 2), Ranks(1, 1, 1), mean=0.0, seed=0)
    f.core[:] = 0.0
    assert 7.0234 - predict(f, (1, 1, 1)) == 7.0234


def test_factors_and_gradients_compare_and_hash_by_identity():
    a, b = init_factors((2, 2, 2), Ranks(1, 1, 1)), init_factors((2, 2, 2), Ranks(1, 1, 1))
    assert a != b and a == a and len({a, a, b}) == 2
    g = instance_gradient(a, (0, 0, 0), 1.0, RegWeights())
    assert g != instance_gradient(a, (0, 0, 0), 1.0, RegWeights()) and len({g, g}) == 1


def test_loss_zero_model_single_entry():
    f = init_factors((2, 2, 2), Ranks(1, 1, 1), mean=0.0, seed=0)
    f.core[:] = 0.0
    loss = regularized_loss(f, np.array([[0, 0, 0]]), np.array([2.0]), RegWeights(0, 0, 0))
    assert loss == 2.0


def test_loss_zero_on_perfect_fit():
    f = random_factors(seed=3)
    idx = np.array([(0, 0, 0), (1, 2, 3), (3, 1, 4)])
    y = predict_batch(f, idx)
    assert regularized_loss(f, idx, y, RegWeights(0, 0, 0)) == 0.0


def test_loss_nonnegative():
    rng = np.random.default_rng(1)
    for seed in range(5):
        f = random_factors(seed=seed)
        idx = np.array([(i % 4, i % 3, i % 5) for i in range(9)])
        y = rng.normal(size=9)
        assert regularized_loss(f, idx, y, RegWeights(0.1, 0.2, 0.3)) >= 0.0


@pytest.mark.parametrize("n_idx, n_vals", [(4, 1), (0, 1), (4, 2), (2, 0)])
def test_rmse_and_loss_need_one_value_per_index(each_backend, n_idx, n_vals):
    f = random_factors(seed=2)
    idx = np.array([(0, 0, 0), (1, 2, 3), (3, 1, 4), (2, 2, 2)])[:n_idx]
    vals = np.ones(n_vals)
    for fn in (rmse, lambda *a: regularized_loss(*a, RegWeights())):
        with pytest.raises(DataError, match=f"^{n_vals} values for {n_idx} indices$"):
            fn(f, idx, vals)


@pytest.mark.parametrize("seed", range(5))
def test_loss_matches_literal_transcription(seed):
    f = random_factors(seed=seed)
    reg = RegWeights(0.02, 0.05, 0.01)
    rng = np.random.default_rng(seed + 100)
    idx = np.array([(int(rng.integers(4)), int(rng.integers(3)), int(rng.integers(5)))
                    for _ in range(12)])
    # literal oracle sums per-entry summands; duplicates keep per-entry penalties
    idx = np.unique(idx, axis=0)
    y = rng.normal(size=len(idx))
    expected = sum(loss_summand(f, tuple(row), yy, reg) for row, yy in zip(idx, y))
    got = regularized_loss(f, idx, y, reg)
    assert got == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- gradients


def test_gradient_zero_err_zero_reg():
    f = random_factors(seed=5)
    g = instance_gradient(f, (1, 1, 1), 0.0, RegWeights(0, 0, 0))
    assert not g.core.any()
    for row in g.rows:
        assert not row.any()
    assert g.biases == (0.0, 0.0, 0.0)


def test_gradient_pure_regularizer_term():
    f = random_factors(seed=5)
    f.factors[0][1, 0] = 1.0
    g = instance_gradient(f, (1, 1, 1), 0.0, RegWeights(0, 0.01, 0))
    assert g.rows[0][0] == pytest.approx(0.01, abs=1e-15)


def fd_gradient(f, idx, y, reg, h=1e-6):
    """Central finite differences of the per-entry loss summand."""

    def perturb(setter):
        plus, minus = copy.deepcopy(f), copy.deepcopy(f)
        setter(plus, +h)
        setter(minus, -h)
        return (loss_summand(plus, idx, y, reg) - loss_summand(minus, idx, y, reg)) / (2 * h)

    i, j, k = idx
    r1, r2, r3 = f.ranks.as_tuple()
    rows = []
    for mode, pos, r in ((0, i, r1), (1, j, r2), (2, k, r3)):
        rows.append(np.array([
            perturb(lambda fx, d, m=m, mode=mode, pos=pos: fx.factors[mode].__setitem__((pos, m), fx.factors[mode][pos, m] + d))
            for m in range(r)
        ]))
    core = np.zeros((r1, r2, r3))
    for m in range(r1):
        for n in range(r2):
            for l in range(r3):
                core[m, n, l] = perturb(
                    lambda fx, d, m=m, n=n, l=l: fx.core.__setitem__((m, n, l), fx.core[m, n, l] + d))
    biases = tuple(
        perturb(lambda fx, d, mode=mode, pos=pos: fx.biases[mode].__setitem__(pos, fx.biases[mode][pos] + d))
        for mode, pos in ((0, i), (1, j), (2, k))
    )
    return rows, core, biases


@pytest.mark.parametrize("seed", range(3))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    f = random_factors(seed=seed)
    idx = (int(rng.integers(4)), int(rng.integers(3)), int(rng.integers(5)))
    y = float(rng.normal())
    reg = RegWeights(0.01, 0.01, 0.01)
    err = y - predict(f, idx)
    g = instance_gradient(f, idx, err, reg)
    rows, core, biases = fd_gradient(f, idx, y, reg)
    for got, want in zip(g.rows, rows):
        assert np.allclose(got, want, rtol=1e-5, atol=1e-9)
    assert np.allclose(g.core, core, rtol=1e-5, atol=1e-9)
    for got, want in zip(g.biases, biases):
        assert got == pytest.approx(want, rel=1e-5, abs=1e-9)


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip(tmp_path):
    f = random_factors(seed=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(f, path)
    g = load_checkpoint(path)
    assert g.dims == f.dims
    assert g.ranks == f.ranks
    assert g.mean == f.mean
    assert np.array_equal(g.core, f.core)
    for m in range(3):
        assert np.array_equal(g.factors[m], f.factors[m])
        assert np.array_equal(g.biases[m], f.biases[m])


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(shape=st.tuples(*[st.integers(1, 6)] * 3, *[st.integers(1, 4)] * 3),
       mean=finite, data=st.data())
def test_checkpoint_round_trip_is_bit_exact(shape, mean, data, tmp_path_factory):
    dims, ranks = shape[:3], Ranks(*shape[3:])
    f = init_factors(dims, ranks, mean=mean)
    for a in (f.core, *f.factors, *f.biases):
        a[:] = data.draw(hnp.arrays(np.float64, a.shape, elements=finite))
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(f, path)
    g = load_checkpoint(path)
    assert (g.dims, g.ranks) == (f.dims, f.ranks)
    assert struct.pack("<d", g.mean) == struct.pack("<d", f.mean)  # keeps -0.0
    for got, want in zip((g.core, *g.factors, *g.biases), (f.core, *f.factors, *f.biases)):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_the_checkpoint_is_a_header_line_then_the_arrays_in_order(tmp_path):
    f = random_factors(ranks=Ranks(2, 1, 3), seed=6)
    path = tmp_path / "model.ckpt"
    save_checkpoint(f, path)
    header = {"dims": [4, 3, 5], "format": "pidtucker-checkpoint-v1", "mean": f.mean,
              "ranks": [2, 1, 3]}
    want = (json.dumps(header).encode() + b"\n"
            + b"".join(np.ascontiguousarray(a, "<f8").tobytes() for a in f.arrays))
    assert path.read_bytes() == want
    g = load_checkpoint(path)
    p = g.params
    assert p.flags.writeable and p.flags.owndata and p.flags.c_contiguous
    start = 0
    for a, shape in zip(g.arrays, _shapes(g.dims, g.ranks.as_tuple())):
        assert a.shape == shape and a.base is p
        assert a.ctypes.data == p.ctypes.data + 8 * start
        start += a.size
    assert start == p.size and p.tobytes() == f.params.tobytes()


def test_checkpoint_bytes_deterministic(tmp_path):
    f = random_factors(seed=8)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(f, p1)
    save_checkpoint(f, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"\x00\x01\x02 not a checkpoint\n1234")
    with pytest.raises(DataError):
        load_checkpoint(path)
    for header in (b"null", b"[1]", b"3", b'"x"'):
        path.write_bytes(header + b"\n1234")
        with pytest.raises(DataError, match="not a checkpoint file"):
            load_checkpoint(path)


def test_checkpoint_rejects_non_finite_parameters(tmp_path):
    path = tmp_path / "model.ckpt"
    for bad in (np.nan, np.inf):
        f = random_factors(seed=8)
        f.biases[2][1] = bad
        save_checkpoint(f, path)
        with pytest.raises(DataError, match="non-finite"):
            load_checkpoint(path)


def test_checkpoint_rejects_truncated(tmp_path):
    f = random_factors(seed=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(f, path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(DataError):
        load_checkpoint(path)
