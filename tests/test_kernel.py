"""The compiled kernels against the numpy and Python reference code (the
per-entry kernels, the batch evaluation and the CSV record writer), bit for
bit, the checks they make on their arguments, their handle on a
TuckerFactors, the build cache, and the silent fallback when no kernel can
be built."""

import contextlib
import copy
import dataclasses
import fnmatch
import json
import math
import os
import pickle
import stat
import struct
import time
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pidtucker import (
    DataError,
    DivergenceError,
    ExperimentConfig,
    Hyperparams,
    IndexMapping,
    PidGains,
    Ranks,
    RegWeights,
    SyntheticSpec,
    TuckerFactors,
    export_imputed,
    generate_synthetic,
    identity_mapping,
    init_factors,
    predict,
    predict_batch,
    regularized_loss,
    rmse,
    run_experiment,
    save_checkpoint,
    sgd_step,
    split,
    train,
    write_records_csv,
)
from pidtucker import _kernel
from pidtucker.datasets import _CSV_BLOCK_ROWS
from pidtucker.model import _sums
from pidtucker.solver import _all_finite
from pidtucker.cli import main

needs_kernel = pytest.mark.skipif(_kernel.library() is None,
                                  reason="no kernel can be built here (gcc or cache dir)")


@contextlib.contextmanager
def kernel_state(load=None, **env):
    """Forget the loaded library; load it again with `load` and `env` in force."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "_tried", False)
        mp.setattr(_kernel, "_lib", None)
        if load is not None:
            mp.setattr(_kernel, "_load", load)
        for key, value in env.items():
            mp.setenv(key, value)
        yield


def reference_backend():
    return kernel_state(load=lambda: None)


def arrays(f):
    return [f.core, *f.factors, *f.biases]


def random_factors(dims, ranks, seed):
    rng = np.random.default_rng(seed)
    f = init_factors(dims, Ranks(*ranks), mean=float(rng.normal(scale=5.0)),
                     init_scale=1.0, seed=seed)
    for a in arrays(f):
        a[:] = rng.normal(size=a.shape)
    return f


def same_bits(f, g):
    """Whether f and g hold the same parameter bytes and the same mean."""
    return f.params.tobytes() == g.params.tobytes() and f.mean.hex() == g.mean.hex()


# ---------------------------------------------------------------- parity

shapes = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
                   st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))


@needs_kernel
@settings(max_examples=40, deadline=None)
@given(shape=shapes, seed=st.integers(0, 2**16), err=st.floats(-10.0, 10.0),
       eta=st.floats(1e-4, 0.5), lambdas=st.tuples(*[st.floats(0.0, 1.0)] * 3))
def test_kernel_matches_numpy_reference(shape, seed, err, eta, lambdas):
    dims, ranks = shape[:3], shape[3:]
    f = random_factors(dims, ranks, seed)
    rng = np.random.default_rng(seed + 1)
    idx = tuple(int(rng.integers(d)) for d in dims)
    hyper = Hyperparams(eta=eta, reg=RegWeights(*lambdas))
    with reference_backend():
        g = copy.deepcopy(f)
        want = predict(g, idx)
        sgd_step(g, idx, 0.0, err, hyper)
        assert g._kernel_handle is None
    assert f._kernel_handle is not None
    assert predict(f, idx).hex() == want.hex()
    sgd_step(f, idx, 0.0, err, hyper)
    assert same_bits(f, g)


@needs_kernel
@settings(max_examples=40, deadline=None)
@given(shape=shapes, seed=st.integers(0, 2**16), n=st.integers(1, 300),
       lambdas=st.tuples(*[st.floats(0.0, 1.0)] * 3))
def test_batch_evaluation_matches_numpy_reference(shape, seed, n, lambdas):
    dims, ranks = shape[:3], shape[3:]
    f = random_factors(dims, ranks, seed)
    rng = np.random.default_rng(seed + 1)
    idx = np.column_stack([rng.integers(0, d, n) for d in dims])  # rows repeat: d <= 6
    y = f.mean + rng.normal(scale=5.0, size=n)
    reg = RegWeights(*lambdas)
    with reference_backend():
        g = copy.deepcopy(f)
        want = predict_batch(g, idx), rmse(g, idx, y), regularized_loss(g, idx, y, reg)
        assert g._kernel_handle is None
    assert f._kernel_handle is not None
    values = predict_batch(f, idx)
    assert values.tobytes() == want[0].tobytes()
    assert rmse(f, idx, y).hex() == want[1].hex()
    assert regularized_loss(f, idx, y, reg).hex() == want[2].hex()
    assert [predict(f, row) for row in idx.tolist()] == values.tolist()


@needs_kernel
@settings(max_examples=60, deadline=None)
@given(ranks=st.tuples(*[st.integers(1, 9)] * 3), seed=st.integers(0, 2**16),
       steps=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(1e-4, 0.5)), min_size=1,
                      max_size=3),
       lambdas=st.tuples(*[st.floats(0.0, 1.0)] * 3))
@example(ranks=(5, 5, 5), seed=0, steps=[(0.5, 0.01)], lambdas=(0.01, 0.01, 0.01))
@example(ranks=(9, 4, 1), seed=1, steps=[(-3.0, 0.1)] * 3, lambdas=(0.0, 0.5, 1.0))
# With (5, 5, 5) above, every dots call sees a count below 4, exactly 4, and
# 4 plus a remainder: the counts are r2*r3 (g), r1*r2 (gt), r1, r2 and r3.
@example(ranks=(4, 4, 4), seed=2, steps=[(1.5, 0.05)] * 2, lambdas=(0.01, 0.02, 0.03))
@example(ranks=(1, 1, 8), seed=3, steps=[(-0.7, 0.2)] * 2, lambdas=(0.1, 0.0, 0.01))
@example(ranks=(8, 1, 3), seed=4, steps=[(2.0, 0.01)] * 2, lambdas=(0.0, 0.3, 0.2))
def test_the_kernel_is_a_bitwise_replay_of_its_documented_order(ranks, seed, steps, lambdas):
    """The kernel against the numpy reference, which replays its order."""
    f = random_factors((3, 4, 2), ranks, seed)
    with reference_backend():
        g = copy.deepcopy(f)
    rng = np.random.default_rng(seed + 1)
    assert f._kernel_handle is not None and g._kernel_handle is None
    for err, eta in steps:
        cell = tuple(int(rng.integers(n)) for n in f.dims)
        hyper = Hyperparams(eta=eta, reg=RegWeights(*lambdas))
        assert predict(f, cell).hex() == predict(g, cell).hex()
        sgd_step(f, cell, 0.0, err, hyper)
        sgd_step(g, cell, 0.0, err, hyper)
        assert same_bits(f, g)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_all_finite_finds_a_non_finite_entry_in_every_array(each_backend, bad):
    f = random_factors((4, 3, 5), (2, 3, 2), seed=7)
    assert (f._kernel_handle is None) == (each_backend == "numpy")
    assert _all_finite(f)
    for a in arrays(f):
        flat = a.reshape(-1)
        for pos in (0, a.size - 1):
            flat[pos], keep = bad, flat[pos]
            assert not _all_finite(f)
            flat[pos] = keep
    assert _all_finite(f)


@pytest.mark.parametrize("cell", [(-1, 0, 0), (4, 0, 0), (0, 3, 0), (0, 0, 5), (2, -1, 9)])
def test_batch_evaluation_rejects_an_out_of_bounds_row_alike(each_backend, cell):
    f = random_factors((4, 3, 5), (2, 2, 2), seed=8)
    idx, y = np.array([(1, 1, 1), cell, (3, 2, 4)]), np.ones(3)
    calls = [lambda: predict_batch(f, idx), lambda: rmse(f, idx, y),
             lambda: regularized_loss(f, idx, y, RegWeights())]
    for call in calls:
        with pytest.raises(DataError) as exc:
            call()
        assert str(exc.value) == f"index {cell} out of bounds for dims (4, 3, 5)"


def _beyond_int64(v):
    bound = f"minimum {-2**63}" if v < 0 else f"maximum {2**63 - 1}"
    return f"index entry {v} is beyond int64's {bound}"


REFUSED_CELLS = [
    ([(1.7, 0, 0)], "indices must be integers, got dtype float64"),
    (np.array([(1.0, 2.0, 0.0)]), "indices must be integers, got dtype float64"),
    ([("1", "0", "0")], "indices must be integers, got dtype <U1"),
    ([(1, 2, 10**20)], _beyond_int64(10**20)),
    # A uint64 entry beyond int64 would wrap to a negative index in the cast.
    (np.array([(2**64 - 1, 0, 0)], dtype=np.uint64), _beyond_int64(2**64 - 1)),
    ([(2**63, 0, 0)], _beyond_int64(2**63)),  # numpy infers float64
    ([(0, 2**64, 0)], _beyond_int64(2**64)),  # numpy infers object
    ([(0, 0, -2**70)], _beyond_int64(-2**70)),
    ([(np.uint64(2**64 - 1), 0, 0)], _beyond_int64(2**64 - 1))]


@pytest.mark.parametrize("cells, message", REFUSED_CELLS,
                         ids=[f"cells{n}" for n in range(len(REFUSED_CELLS))])
def test_array_entry_points_refuse_cells_that_are_not_integers(tmp_path, each_backend, cells,
                                                               message):
    f = random_factors((4, 3, 5), (2, 2, 2), seed=8)
    mapping, y = identity_mapping(f.dims), np.ones(1)
    calls = [lambda: predict_batch(f, cells), lambda: rmse(f, cells, y),
             lambda: regularized_loss(f, cells, y, RegWeights()),
             lambda: write_records_csv(cells, y, mapping, tmp_path / "r.csv"),
             lambda: export_imputed(f, cells, mapping, tmp_path / "i.csv"),
             lambda: predict(f, cells[0])]  # the one cell: the same text
    for call in calls:
        with pytest.raises(DataError) as exc:
            call()
        assert str(exc.value) == message
    assert list(tmp_path.iterdir()) == []
    assert predict_batch(f, [(True, False, 4)]).tolist() == [predict(f, (1, 0, 4))]


def entry_point_calls(f, cells, values, path):
    """The five array entry points, each run on cells (and values, where it takes them)."""
    mapping = identity_mapping(f.dims)
    return [lambda: predict_batch(f, cells), lambda: rmse(f, cells, values),
            lambda: regularized_loss(f, cells, values, RegWeights()),
            lambda: write_records_csv(cells, values, mapping, path / "r.csv"),
            lambda: export_imputed(f, cells, mapping, path / "i.csv")]


RAGGED = "indices must have shape (n, 3), got a ragged list"
NOT_NUMBERS = "values must be real numbers, got"
REFUSED_CELL_LISTS = [([(1, 2, 3), (1, 2)], RAGGED), ([(1, 2, 3), [0, 0, [1]]], RAGGED),
                      ([()], "indices must have shape (n, 3), got (1, 0)")]
REFUSED_VALUES = [(["a"], f"{NOT_NUMBERS} dtype <U1"), ([None], f"{NOT_NUMBERS} dtype object"),
                  (["1.5"], f"{NOT_NUMBERS} dtype <U3"),
                  ([1.0, None], f"{NOT_NUMBERS} dtype object"),
                  ([[1.0], [1.0, 2.0]], "values must have shape (n,), got a ragged list")]


@pytest.mark.parametrize("cells, values, message", [
    *[(cells, [1.0] * len(cells), message) for cells, message in REFUSED_CELL_LISTS],
    *[([(1, 2, 3), (0, 0, 0)][:len(values)], values, message)
      for values, message in REFUSED_VALUES]],
    ids=[f"cells{n}" for n in range(len(REFUSED_CELL_LISTS))]
    + [f"values{n}" for n in range(len(REFUSED_VALUES))])
def test_array_entry_points_refuse_ragged_cells_and_values_that_are_not_numbers(
        tmp_path, each_backend, cells, values, message):
    f = random_factors((4, 3, 5), (2, 2, 2), seed=8)
    calls = entry_point_calls(f, cells, values, tmp_path)
    # predict_batch and export_imputed take no values.
    for call in calls if message.startswith("indices") else calls[1:4]:
        with pytest.raises(DataError) as exc:
            call()
        assert str(exc.value) == message
    assert list(tmp_path.iterdir()) == []


cell_parts = st.one_of(st.integers(-2, 6), st.integers(2**62, 2**65), st.booleans(),
                       st.floats(-1.0, 6.0), st.text(max_size=2), st.none(),
                       st.lists(st.integers(0, 2), max_size=2))
value_parts = st.one_of(st.floats(), st.integers(-10**6, 10**6), st.booleans(),
                        st.text(max_size=2), st.none(), st.lists(st.floats(0, 1), max_size=2))


def cells_ok(cells, dims) -> bool:
    """Whether every cell is three ints (a bool is one, as numpy reads it) inside dims."""
    return all(len(c) == 3 and all(type(x) in (int, bool) and 0 <= x < n
                                   for x, n in zip(c, dims)) for c in cells)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A directory for the files the entry points write, shared by every drawn example."""
    return tmp_path_factory.mktemp("written")


@pytest.mark.parametrize("backend", ["kernel", "numpy"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(cells=st.lists(st.one_of(st.tuples(*[st.integers(0, 2)] * 3),
                                st.lists(cell_parts, max_size=4).map(tuple)), max_size=4),
       values=st.lists(st.one_of(st.floats(0, 5), value_parts), max_size=4))
def test_malformed_cells_or_values_give_a_data_error_and_nothing_else(written, backend, cells,
                                                                      values):
    if backend == "kernel" and _kernel.library() is None:
        pytest.skip("no kernel can be built here (gcc or cache dir)")
    ctx = reference_backend() if backend == "numpy" else contextlib.nullcontext()
    with ctx, np.errstate(over="ignore", invalid="ignore"):
        f = random_factors((3, 3, 3), (2, 2, 2), seed=8)
        values_ok = len(values) == len(cells) and all(type(v) in (int, float, bool)
                                                       for v in values)
        for n, call in enumerate(entry_point_calls(f, cells, values, written)):
            accepted = cells_ok(cells, f.dims) and (values_ok or n in (0, 4))
            try:
                call()
            except DataError as exc:
                # rmse of no entries is undefined; every other refusal is of a malformed input.
                assert not accepted or (n == 1 and not cells), exc
            else:
                assert accepted


ids = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=5)
doubles = st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def record_blocks(draw):
    """Distinct ids, any text but lone surrogates, and rows over them with any doubles."""
    segments = tuple(draw(st.lists(ids, min_size=1, max_size=4, unique=True)))
    days = tuple(draw(st.lists(ids, min_size=1, max_size=3, unique=True)))
    mapping = IndexMapping(segments, days, draw(st.integers(1, 400)))
    rows = draw(st.lists(st.tuples(*[st.integers(0, n - 1) for n in mapping.dims], doubles),
                         max_size=40))
    return mapping, [r[:3] for r in rows], [r[3] for r in rows]


EDGE_VALUES = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e300, -1.7976931348623157e308, 0.0078125,
               0.0000005, 0.0000015, 2.5e-7, 999999.9999995, 123.4564999999999, 1e16]


@needs_kernel
@settings(max_examples=80, deadline=None)
@given(drawn=record_blocks())
@example(drawn=(IndexMapping(("Straße-1", "路段"), ("2024-03-01", "día"), 288),
                [(i % 2, i % 3 % 2, i % 288) for i in range(len(EDGE_VALUES))], EDGE_VALUES))
def test_the_compiled_writer_gives_the_reference_bytes(tmp_path_factory, drawn):
    mapping, rows, values = drawn
    out = tmp_path_factory.mktemp("records")
    write_records_csv(rows, values, mapping, out / "kernel.csv")
    with reference_backend():
        write_records_csv(rows, values, mapping, out / "reference.csv")
        assert _kernel.library() is None
    got = (out / "kernel.csv").read_bytes()
    assert got == (out / "reference.csv").read_bytes()
    assert got.count(b"\n") >= len(rows) + 1


def _bits(sign, exponent, mantissa):
    """Doubles from their sign bit, biased exponent field and mantissa field."""
    sign, exponent, mantissa = (np.asarray(x, dtype=np.uint64) for x in (sign, exponent, mantissa))
    return ((sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa).view(np.float64)


def _value_class(kind, rng, n):
    """n doubles of one class the records writer must format as format(v, ".6f") does."""
    sign, mantissa = rng.integers(0, 2, n), rng.integers(0, 2**52, n, dtype=np.uint64)
    if kind == "bit patterns":
        return rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    if kind == "bit patterns, 2**-21 <= |v| < 2**40":
        return _bits(sign, rng.integers(1023 - 21, 1023 + 40, n), mantissa)
    if kind == "odd multiples of 1/128":  # the exact ties at the 6th decimal
        return np.concatenate([2 * rng.integers(-2**45, 2**45, n // 2) + 1,
                               2 * rng.integers(-10**4, 10**4, n - n // 2) + 1]) / 128.0
    if kind == "around 1e12":  # both sides, within 50,000 ulps
        steps = rng.integers(-50_000, 50_000, n)
        near = (np.float64(1e12).view(np.int64) + steps).view(np.float64)
        return np.where(sign == 1, -near, near)
    if kind == "subnormals":
        return _bits(sign, np.zeros(n, dtype=np.int64), mantissa)
    if kind == "signed zeros":
        return np.where(sign == 1, -0.0, 0.0)
    if kind == "negatives that round to -0.000000":
        return -rng.uniform(0.0, 5e-7, n)
    if kind == "halves of a millionth":  # near ties that are not exact
        return (rng.integers(-10**12, 10**12, n) + 0.5) / 1e6
    assert kind == "nan and infinities"
    return rng.choice([math.nan, -math.nan, math.inf, -math.inf], n)


def _assert_rows(got, values, prefix):
    """got is the rows prefix + format(v, ".6f") + "\n" for the values, in order."""
    want = [f"{prefix}{v:.6f}".encode() for v in values.tolist()] + [b""]
    got = got.split(b"\n")
    bad = next((r for r, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert bad is None, (values[bad].hex(), got[bad], want[bad])
    assert len(got) == len(want)


@needs_kernel
@pytest.mark.parametrize("kind", [
    "bit patterns", "bit patterns, 2**-21 <= |v| < 2**40", "odd multiples of 1/128",
    "around 1e12", "subnormals", "signed zeros", "negatives that round to -0.000000",
    "halves of a millionth", "nan and infinities"])
def test_records_writes_every_class_of_double_as_format_does(tmp_path, kind):
    """records writes a block fixed6 can write and returns None for any other;
    write_records_csv writes format(v, ".6f") for every value either way."""
    values = _value_class(kind, np.random.default_rng(2304), 100_000)
    records = _kernel.library().records
    inside = np.abs(values) < 1e12  # False for nan, the infinities and |v| >= 1e12
    cells = np.zeros((len(values), 3), np.int64)

    def block(v):
        return records((b"",), (b"",), 1, cells[:len(v)], v)

    got = block(values)
    if inside.all():
        _assert_rows(got, values, "0,")
    else:
        assert got is None
        _assert_rows(block(values[inside]), values[inside], "0,")
        assert all(block(values[r:r + 1]) is None for r in np.flatnonzero(~inside))
    write_records_csv(cells, values, identity_mapping((1, 1, 1)), tmp_path / "r.csv")
    header, rows = (tmp_path / "r.csv").read_bytes().split(b"\n", 1)
    assert header == b"segment,day,slot,speed"
    _assert_rows(rows, values, "0,0,0,")


@needs_kernel
def test_a_block_with_a_nan_is_written_by_the_reference_between_kernel_blocks(tmp_path):
    rows = _CSV_BLOCK_ROWS  # 65,536
    rng = np.random.default_rng(24)
    mapping = IndexMapping(("s,1", "s2", '"s3"'), ("2024-03-01", "día"), 288)
    cells = np.column_stack([rng.integers(0, n, 3 * rows) for n in mapping.dims])
    values = rng.uniform(8.0, 137.0, 3 * rows)
    values[rows + 12_345] = math.nan
    records = _kernel.library().records
    assert [records((b"",) * 3, (b"",) * 2, 288, cells[a:a + rows], values[a:a + rows]) is None
            for a in range(0, 3 * rows, rows)] == [False, True, False]
    write_records_csv(cells, values, mapping, tmp_path / "kernel.csv")
    with reference_backend():
        write_records_csv(cells, values, mapping, tmp_path / "reference.csv")
        assert _kernel.library() is None
    got = (tmp_path / "kernel.csv").read_bytes()
    assert got == (tmp_path / "reference.csv").read_bytes()
    assert got.count(b",nan\n") == 1 and got.count(b"\n") == 3 * rows + 1


@needs_kernel
@pytest.mark.parametrize("order", ["sorted by segment", "a segment recurs", "signed zeros"])
@pytest.mark.parametrize("ranks", [(5, 5, 5), (3, 6, 2), (1, 9, 7)])
def test_batch_values_and_sums_equal_per_cell_predict_bit_for_bit(order, ranks):
    f = random_factors((3, 4, 6), ranks, seed=sum(ranks))
    rng = np.random.default_rng(5)
    grid = np.indices(f.dims).reshape(3, -1).T  # row-major: runs of one segment
    if order == "a segment recurs":  # segments 1, 2, 1, then runs and single rows mixed
        idx = grid[np.concatenate([[30, 50, 31], rng.integers(0, len(grid), 200)])]
    else:
        idx = grid
    if order == "signed zeros":
        # With mode-3 rows +0.0, each dn[n] is +0.0 and each term dn[n] d[n]
        # is -0.0: their sum is +0.0 only when begun from +0.0, and with a
        # -0.0 mean and biases only a +0.0 sum gives a +0.0 value.
        zeros = [np.full_like(a, -0.0) for a in (f.factors[1], *f.biases)]
        f = dataclasses.replace(f, factors=(f.factors[0], zeros[0], np.zeros_like(f.factors[2])),
                                biases=tuple(zeros[1:]), mean=-0.0)
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    y = f.mean + rng.normal(scale=5.0, size=len(idx))
    reg = RegWeights(0.3, 0.02, 0.7)
    with reference_backend():
        g = copy.deepcopy(f)
        want = [predict(g, c).hex() for c in idx.tolist()]
        want_sums = _sums(g, idx, y)
        want_batch = [v.hex() for v in predict_batch(g, idx).tolist()]
    assert [v.hex() for v in predict_batch(f, idx).tolist()] == want == want_batch
    assert [predict(f, c).hex() for c in idx.tolist()] == want
    assert [x.hex() for x in _sums(f, idx, y)] == [x.hex() for x in want_sums]
    resid, core, rows, biases = want_sums
    assert rmse(f, idx, y).hex() == math.sqrt(resid / len(idx)).hex()
    loss = 0.5 * (resid + reg.lambda1 * core * len(idx) + reg.lambda2 * rows
                  + reg.lambda3 * biases)
    assert regularized_loss(f, idx, y, reg).hex() == loss.hex()


# ---------------------------------------------------------------- checks

# Indices for dims (4, 3, 5): half of them in range, the rest with entries
# that may be -1, == dim or beyond, at least 2**63 (no C long holds it), or
# far below zero.
index_entries = st.one_of(st.integers(-1, 6), st.integers(2**63, 2**65), st.just(-2**70))
indices = st.one_of(st.tuples(*[st.integers(0, 2)] * 3), st.tuples(*[index_entries] * 3))


def _fits_int64(v):
    return -2**63 <= v < 2**63


INDEX_FORMS = {
    "tuple": tuple,
    "list": list,
    "ndarray row": lambda v: np.array([v], dtype=np.int64 if all(map(_fits_int64, v))
                                      else object)[0],
    "numpy ints": lambda v: tuple(np.int64(x) if _fits_int64(x)
                                  else np.uint64(x) if 0 <= x < 2**64 else x for x in v),
    # Not indices: every backend raises sparse._cells' DataError.
    "floats": lambda v: tuple(x + 0.5 for x in v),
    "float first": lambda v: (float(v[0]), *v[1:]),
    "numpy float last": lambda v: (*v[:2], np.float64(v[2])),
    "string middle": lambda v: (v[0], str(v[1]), v[2]),
    # Indices: a bool is the int 0 or 1.
    "bools": lambda v: [x == 1 if x in (0, 1) else x for x in v],
}


def outcome(fn, *args):
    """fn's result, or its DataError or DivergenceError as a string."""
    try:
        return fn(*args)
    except (DataError, DivergenceError) as exc:
        return f"{type(exc).__name__}: {exc}"


@needs_kernel
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), form=st.sampled_from(sorted(INDEX_FORMS)), entries=indices)
@example(seed=1, form="tuple", entries=(4, 0, 0))
@example(seed=1, form="list", entries=(0, 3, 0))
@example(seed=1, form="ndarray row", entries=(0, 0, 5))
@example(seed=1, form="numpy ints", entries=(3, 2, -1))
@example(seed=1, form="numpy ints", entries=(0, 2**63, 0))
@example(seed=1, form="ndarray row", entries=(0, 0, -2**70))
@example(seed=1, form="floats", entries=(1, 0, 0))
@example(seed=1, form="float first", entries=(4, 0, 0))
@example(seed=1, form="numpy float last", entries=(1, 0, 2))
@example(seed=1, form="string middle", entries=(1, 0, 2))
@example(seed=1, form="bools", entries=(1, 0, 0))
@example(seed=1, form="bools", entries=(1, 0, 5))
def test_both_backends_take_and_reject_the_same_indices(seed, form, entries):
    f = random_factors((4, 3, 5), (2, 2, 3), seed)
    idx = INDEX_FORMS[form](entries)
    hyper = Hyperparams(eta=0.1)
    with reference_backend():
        g = copy.deepcopy(f)
        want = outcome(predict, g, idx)
        want_step = outcome(sgd_step, g, idx, 1.5, 0.25, hyper)
        assert g._kernel_handle is None
    assert f._kernel_handle is not None
    got = outcome(predict, f, idx)
    got_step = outcome(sgd_step, f, idx, 1.5, 0.25, hyper)
    if "float" in form or "string" in form:  # float64, or object beside ints past int64
        message = f"DataError: indices must be integers, got dtype {np.asarray([idx]).dtype}"
        assert got == want == got_step == want_step == message
        assert same_bits(f, g)
    elif all(0 <= v < n for v, n in zip(entries, f.dims)):
        assert got.hex() == want.hex()
        assert got_step is want_step is None
        assert same_bits(f, g)
    elif not all(map(_fits_int64, entries)):  # the first entry outside int64 is named
        message = f"DataError: {_beyond_int64(next(v for v in entries if not _fits_int64(v)))}"
        assert got == want == got_step == want_step == message
        assert same_bits(f, g)
    else:
        message = f"DataError: index {entries} out of bounds for dims {f.dims}"
        assert got == want == got_step == want_step == message
        assert all(np.array_equal(a, b) for a, b in zip(arrays(f), arrays(g)))


@pytest.mark.parametrize("cell, message", [
    ((1.7, 0, 0), "indices must be integers, got dtype float64"),
    ((1, "0", 2), "indices must be integers, got dtype <U21"),
    ((1, 0, np.float64(2.0)), "indices must be integers, got dtype float64"),
    (5, "indices must have shape (n, 3), got (1,)"),
    ((1, 2), "indices must have shape (n, 3), got (1, 2)")])
def test_a_cell_of_non_integers_is_a_data_error(each_backend, cell, message):
    f = random_factors((4, 3, 5), (2, 2, 3), seed=3)
    before = f.params.tobytes()
    for call in (lambda: predict(f, cell), lambda: sgd_step(f, cell, 1.0, 0.5, Hyperparams())):
        with pytest.raises(DataError) as exc:
            call()
        assert str(exc.value) == message
    assert f.params.tobytes() == before


@pytest.mark.parametrize("backend", ["kernel", "numpy"])
@settings(max_examples=40, deadline=None)
@given(err=st.sampled_from([math.nan, math.inf, -math.inf]), entries=indices)
@example(err=math.nan, entries=(4, 0, 0))
def test_a_non_finite_update_raises_before_the_index_is_checked(backend, err, entries):
    if backend == "kernel" and _kernel.library() is None:
        pytest.skip("no kernel can be built here (gcc or cache dir)")
    ctx = reference_backend() if backend == "numpy" else contextlib.nullcontext()
    with ctx:
        f = random_factors((4, 3, 5), (2, 2, 3), seed=6)
        before = [a.tobytes() for a in arrays(f)]
        assert (f._kernel_handle is None) == (backend == "numpy")
        got = outcome(sgd_step, f, entries, 2.5, err, Hyperparams(eta=0.1))
    assert got == f"DivergenceError: non-finite update at entry {entries} (y=2.5)"
    assert [a.tobytes() for a in arrays(f)] == before


def small_run(epochs=4):
    spec = SyntheticSpec((7, 6, 8), Ranks(2, 3, 1), 0.5, noise_sigma=0.01, seed=5)
    tensor, _truth = generate_synthetic(spec)
    parts = split(tensor, (0.7, 0.15, 0.15), seed=2)
    hyper = Hyperparams(eta=0.05, ranks=Ranks(3, 1, 2), max_epochs=epochs, tol=1e-300,
                        gains=PidGains(1.0, 0.1, 0.1), seed=4)
    return train(tensor, parts, hyper)


@needs_kernel
def test_train_agrees_across_backends():
    f, report = small_run()
    with reference_backend():
        g, ref = small_run()
    assert same_bits(f, g)
    assert report.epochs_run == ref.epochs_run == 4
    untimed = [dataclasses.replace(r, elapsed_s=0.0) for r in report.records]
    assert untimed == [dataclasses.replace(r, elapsed_s=0.0) for r in ref.records]


@pytest.mark.parametrize("backend", ["kernel", "numpy"])
def test_each_backend_is_bitwise_deterministic(backend):
    if backend == "kernel" and _kernel.library() is None:
        pytest.skip("no kernel can be built here (gcc or cache dir)")
    ctx = reference_backend() if backend == "numpy" else contextlib.nullcontext()
    with ctx:
        runs = [small_run()[0] for _ in range(2)]
    assert all(np.array_equal(a, b) for a, b in zip(*map(arrays, runs)))


# ---------------------------------------------------------------- handle


def test_step_on_a_deep_copy_leaves_the_original_unchanged():
    f = random_factors((4, 3, 5), (2, 3, 2), seed=1)
    before = [a.copy() for a in arrays(f)]
    g = copy.deepcopy(f)
    sgd_step(g, (1, 2, 3), 0.0, 0.5, Hyperparams(eta=0.1))
    assert all(np.array_equal(a, b) for a, b in zip(arrays(f), before))
    assert not np.array_equal(g.core, f.core)


def test_a_replaced_array_is_read_by_the_next_predict():
    f = random_factors((4, 3, 5), (2, 2, 2), seed=2)
    predict(f, (1, 1, 1))
    g = dataclasses.replace(f, core=np.zeros_like(f.core),
                            biases=tuple(np.zeros_like(b) for b in f.biases))
    assert predict(g, (1, 1, 1)) == f.mean
    cells = np.array([[1, 1, 1], [3, 2, 4]])
    for backend in (contextlib.nullcontext, reference_backend):
        with backend():  # a new mean, read through the new object's handle or the reference
            m = dataclasses.replace(g, mean=f.mean + 7.0)
            assert (m._kernel_handle is None) == (_kernel.library() is None)
            assert predict(m, (3, 2, 4)) == m.mean != g.mean
            assert predict_batch(m, cells).tolist() == [m.mean, m.mean]
            assert rmse(m, cells, [m.mean, m.mean]) == 0.0
            assert rmse(m, cells, [g.mean, g.mean]) == abs(g.mean - m.mean)
    assert predict(g, (3, 2, 4)) == g.mean == f.mean
    g = dataclasses.replace(g, factors=(f.factors[0], f.factors[1],
                                        np.asfortranarray(f.factors[2])),
                            core=np.ones_like(f.core))
    assert (g._kernel_handle is None) == (_kernel.library() is None)  # copied into params
    with reference_backend():
        want = predict(copy.deepcopy(g), (1, 1, 1))
    assert predict(g, (1, 1, 1)) == want


def _handle_reads(f):
    """Whether f's handle, when it has one, packs f's own arrays, in f.arrays'
    order, and f's mean."""
    h = f._kernel_handle
    if h is None:
        return True
    *pointers, r1, r2, r3, d1, d2, d3, mean = struct.unpack(_kernel._PT_MODEL, h.model)
    return (pointers == [a.ctypes.data for a in (*f.arrays, h.arrays[-1])]
            and (r1, r2, r3) == f.core.shape and (d1, d2, d3) == f.dims and mean == f.mean)


def test_factors_pickle_without_their_handle():
    """The pickle holds the parameters alone; loading it builds a new handle."""
    f = random_factors((4, 3, 5), (2, 2, 2), seed=3)
    value = predict(f, (3, 2, 4))
    g = pickle.loads(pickle.dumps(f))
    assert (g._kernel_handle is None) == (f._kernel_handle is None)
    assert g._kernel_handle is None or g._kernel_handle is not f._kernel_handle
    assert predict(g, (3, 2, 4)) == value
    assert all(np.array_equal(a, b) and a is not b for a, b in zip(arrays(f), arrays(g)))
    assert _handle_reads(g)


@needs_kernel
@pytest.mark.parametrize("name", ["core", "factors", "biases", "dims"])
def test_binding_another_object_to_a_parameter_drops_the_handle(name):
    """Binding a parameter in place raises and keeps the handle; another object
    is bound by dataclasses.replace, whose new object has a handle of its own."""
    f = random_factors((4, 3, 5), (2, 3, 2), seed=9)
    h = f._kernel_handle
    value = getattr(f, name)
    other = value.copy() if name == "core" else tuple(list(value))
    for bound in (value, other):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, bound)
        assert f._kernel_handle is h
    g = dataclasses.replace(f, **{name: other})
    assert g._kernel_handle not in (None, h)
    assert predict(g, (1, 2, 3)) == predict(f, (1, 2, 3))


@needs_kernel
def test_an_in_place_update_keeps_the_handle():
    f = random_factors((4, 3, 5), (2, 3, 2), seed=10)
    h = f._kernel_handle
    f.core[...] *= 2.0
    f.factors[1][2] = 0.5
    f.biases[0][3] += 1.0
    for name in ("mean", "ranks"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, getattr(f, name))
    assert f._kernel_handle is h
    with reference_backend():
        want = predict(copy.deepcopy(f), (3, 2, 3))
    assert predict(f, (3, 2, 3)) == want


@pytest.mark.parametrize("how", ["copy", "deepcopy", "replace"])  # pickle: the test above
def test_a_copy_carries_no_handle(each_backend, how):
    """A copy carries none of the original's handle: it builds its own, over a
    parameter block of its own (a shallow copy too: construction copies)."""
    f = random_factors((4, 3, 5), (2, 3, 2), seed=11)
    value = predict(f, (3, 2, 4))
    make = {"copy": copy.copy, "deepcopy": copy.deepcopy, "replace": dataclasses.replace}
    g = make[how](f)
    assert predict(g, (3, 2, 4)) == value
    assert _handle_reads(g)
    if each_backend == "kernel":
        assert g._kernel_handle not in (None, f._kernel_handle)
    else:
        assert g._kernel_handle is None
    sgd_step(g, (3, 2, 4), 0.0, 0.5, Hyperparams(eta=0.1))
    assert predict(f, (3, 2, 4)) == value != predict(g, (3, 2, 4))


def test_factors_given_as_lists_are_stored_as_tuples():
    f = random_factors((4, 3, 5), (2, 2, 2), seed=13)
    factors, biases = list(f.factors), list(f.biases)
    g = TuckerFactors(f.dims, f.ranks, f.core, factors, biases, f.mean)
    assert type(g.factors) is type(g.biases) is tuple
    assert all(np.array_equal(a, b) and not np.shares_memory(a, b)
               for a, b in zip((*g.factors, *g.biases), (*factors, *biases)))
    biases[0] = np.full(4, 100.0)  # the caller's list, not g's parameters
    factors[2] = np.zeros((5, 2))
    with pytest.raises(TypeError):
        g.biases[0] = np.full(4, 100.0)
    with reference_backend():
        want = predict(copy.deepcopy(g), (1, 1, 1))
    assert predict(g, (1, 1, 1)) == want == predict(f, (1, 1, 1))


def test_the_kernel_build_is_not_counted_as_training_time(tmp_path):
    real = _kernel._load

    def slow_load():
        time.sleep(0.3)
        return real()

    with kernel_state(load=slow_load):
        _f, report = small_run(epochs=1)
    assert report.records[0].elapsed_s < 0.3
    _tensor, data = write_data(tmp_path)
    with kernel_state(load=slow_load):
        assert main(["train", "--data", str(data), "--slots-per-day", "8", "--ratios",
                     "0.5,0.2,0.3", "--max-epochs", "1", "--outdir", str(tmp_path),
                     "--run-name", "t"]) == 0
    assert json.loads((tmp_path / "t" / "summary.json").read_text())["train_seconds"] < 0.3
    spec = SyntheticSpec((7, 6, 8), Ranks(2, 2, 2), 0.5, noise_sigma=0.01, seed=5)
    tensor, _truth = generate_synthetic(spec)
    cfg = ExperimentConfig(Hyperparams(ranks=Ranks(2, 2, 2), max_epochs=1),
                           ratios=(0.7, 0.15, 0.15), repeats=1)
    with kernel_state(load=slow_load):
        summary = run_experiment(tensor, cfg)
    assert summary.results[0].seconds < 0.3


@needs_kernel
def test_the_module_rejects_bad_arguments_without_touching_memory():
    f = random_factors((4, 3, 5), (2, 2, 2), seed=5)
    h = f._kernel_handle
    before = [a.copy() for a in arrays(f)]
    lib = _kernel.library()
    bad = [
        (TypeError, lib.value, (h.model,)),                            # too few
        (TypeError, lib.value, (h.model, (1, 1, 1), 0.0)),             # too many
        (TypeError, lib.step, (h.model, (1, 1, 1), 0.5, 0.1, 0.0, 0.0)),
        (TypeError, lib.value, (h.model[:-1], (1, 1, 1))),             # not a whole pt_model
        (TypeError, lib.value, (bytearray(h.model), (1, 1, 1))),       # not bytes
        (TypeError, lib.value, (h.model, ("1", 1, 1))),
        (TypeError, lib.value, (h.model, (1.0, 1, 1))),
        (TypeError, lib.step, (h.model, (1, 1, 1), 0.5, 0.1, 0.0, 0.0, None)),
        (TypeError, lib.value, (h.model, 1)),                          # not a sequence
        (ValueError, lib.value, (h.model, (1, 1))),
        (OverflowError, lib.step, (h.model, (2**64, 1, 1), 0.5, 0.1, 0.0, 0.0, 0.0)),
        (IndexError, lib.value, (h.model, (4, 1, 1))),                 # == dim
        (IndexError, lib.value, (h.model, [1, -1, 1])),
        (IndexError, lib.step, (h.model, (1, 1, 5), 0.5, 0.1, 0.0, 0.0, 0.0)),
        (FloatingPointError, lib.step, (h.model, (1, 1, 1), math.nan, 0.1, 0.0, 0.0, 0.0)),
        (FloatingPointError, lib.step, (h.model, (1, 1, 1), -math.inf, 0.1, 0.0, 0.0, 0.0)),
        (FloatingPointError, lib.step, (h.model, (9, 1, 1), math.inf, 0.1, 0.0, 0.0, 0.0)),
    ]
    seg, day, cell, val = (b"a,", b"b,"), (b"x,",), np.array([[1, 0, 2]]), np.array([1.5])
    rec = lib.records
    bad += [
        (TypeError, rec, (seg, day, 3, cell)),                          # too few
        (TypeError, rec, (seg, day, 3, cell, val, val)),                # too many
        (ValueError, rec, (seg, day, 3, cell.astype(np.int32), val)),   # wrong dtype
        (ValueError, rec, (seg, day, 3, cell.astype(np.float64), val)),
        (ValueError, rec, (seg, day, 3, cell.astype(">i8"), val)),      # not native order
        (ValueError, rec, (seg, day, 3, cell, val.astype(np.float32))),
        (ValueError, rec, (seg, day, 3, cell.ravel(), val)),             # wrong shape
        (ValueError, rec, (seg, day, 3, np.zeros((1, 2), np.int64), val)),
        (ValueError, rec, (seg, day, 3, np.zeros((2, 3), np.int64), val)),  # short values
        (ValueError, rec, (seg, day, 3, cell, np.array([[1.5]]))),
        (ValueError, rec, (seg, day, 3, np.zeros((1, 6), np.int64)[:, ::2], val)),  # strided
        (TypeError, rec, (("a,", b"b,"), day, 3, cell, val)),           # not bytes
        (TypeError, rec, (seg, [b"x,"], 3, cell, val)),                 # not a tuple
        (TypeError, rec, (seg, day, 3.0, cell, val)),
        (IndexError, rec, (seg, day, 3, np.array([[0, -1, 0]]), val)),  # negative
        (IndexError, rec, (seg, day, 3, np.array([[1, 0, 3]]), val)),   # slot == slots_per_day
        (IndexError, rec, (seg, day, 3, np.array([[2, 0, 0]]), val)),   # == len(segments)
        (IndexError, rec, (seg, day, 3, np.array([[0, 0, 0], [0, 0, -5]]), np.ones(2))),
    ]
    cells, y, out = np.array([[1, 2, 3], [0, 0, 0]]), np.ones(2), np.full(2, 7.0)
    frozen = np.full(2, 7.0)
    frozen.flags.writeable = False
    values, sums = lib.values, lib.sums
    bad += [
        (TypeError, values, (h.model, cells)),                        # too few
        (TypeError, values, (h.model, cells, out, out)),              # too many
        (TypeError, sums, (h.model, cells)),
        (TypeError, sums, (h.model, cells, y, f.mean)),
        (TypeError, sums, (bytearray(h.model), cells, y)),
        (ValueError, values, (h.model, cells.astype(np.int32), out)),  # wrong dtype
        (ValueError, sums, (h.model, cells.astype(np.float64), y)),
        (ValueError, values, (h.model, cells, out.astype(np.float32))),
        (ValueError, sums, (h.model, cells, y.astype(np.int64))),
        (ValueError, sums, (h.model, cells.astype(">i8"), y)),         # not native order
        (ValueError, values, (h.model, cells, out.astype(">f8"))),
        (ValueError, values, (h.model, cells[:, :2].copy(), out)),    # shape (n, 2)
        (ValueError, sums, (h.model, cells.ravel(), y)),
        (ValueError, sums, (h.model, np.zeros((2, 6), np.int64)[:, ::2], y)),  # strided
        (ValueError, values, (h.model, cells, np.full(4, 7.0)[::2])),
        (ValueError, values, (h.model, cells, out[:1])),              # short out
        (ValueError, values, (h.model, cells, frozen)),               # read-only out
        (ValueError, sums, (h.model, cells, y[:1])),                  # y length mismatch
        (ValueError, sums, (h.model, cells, np.ones(3))),
        (IndexError, values, (h.model, np.array([[1, -1, 1]]), out[:1])),
        (IndexError, values, (h.model, np.array([[0, 0, 0], [4, 0, 0]]), out)),  # == dim
        (IndexError, sums, (h.model, np.array([[0, 0, 5], [0, 0, 0]]), y)),
        (IndexError, sums, (h.model, np.array([[0, 0, 0], [0, -1, 0]]), y)),
    ]
    for exc, fn, args in bad:
        with pytest.raises(exc):
            fn(*args)
    assert all(np.array_equal(a, b) for a, b in zip(arrays(f), before))
    assert out.tolist() == [7.0, 7.0]
    assert values(h.model, cells, out) is None
    assert out.tolist() == [predict(f, (1, 2, 3)), predict(f, (0, 0, 0))]
    assert sums(h.model, cells, out)[0] == 0.0
    none = np.zeros((0, 3), np.int64)
    core = sum(x * x for x in f.core.ravel().tolist())  # summed in C's order
    assert sums(h.model, none, np.zeros(0)) == (0.0, core, 0.0, 0.0)
    assert lib.value(h.model, (1, 2, 3)) == predict(f, (1, 2, 3))
    assert rec(seg, day, 3, cell, val) == b"b,x,2,1.500000\n"
    assert rec(seg, day, 3, np.zeros((0, 3), np.int64), np.zeros(0)) == b""


def test_parameters_that_disagree_with_dims_or_ranks_are_rejected():
    f = random_factors((4, 3, 5), (2, 1, 3), seed=4)
    given = "[(4, 2), (3, 1), (5, 3), (2, 1, 3), (4,), (3,), (5,)]"
    for changes, implied in [
            ({"ranks": Ranks(2, 2, 3)}, "[(4, 2), (3, 2), (5, 3), (2, 2, 3), (4,), (3,), (5,)]"),
            ({"dims": (5, 3, 5)}, "[(5, 2), (3, 1), (5, 3), (2, 1, 3), (5,), (3,), (5,)]")]:
        with pytest.raises(DataError) as exc:
            dataclasses.replace(f, **changes)
        assert str(exc.value).startswith(f"parameter shapes {given} do not match {implied}")


def _uncommon_arrays(f, kind):
    """f's core, factors and biases, with one array of a kind the kernel
    could not read in place."""
    core, factors, biases = f.core, list(f.factors), list(f.biases)
    if kind == "read-only":
        factors[0] = f.factors[0].copy()
        factors[0].flags.writeable = False
    elif kind == "float32":
        core = f.core.astype(np.float32)
    elif kind == "Fortran-ordered":
        factors[2] = np.asfortranarray(f.factors[2])
    else:  # overlapping: modes 1 and 3 share a factor, and a bias vector lies in it
        factors[2] = f.factors[0]
        biases[0] = f.factors[0].reshape(-1)[:4]
    return core, factors, biases


@needs_kernel
@pytest.mark.parametrize("kind", ["read-only", "float32", "Fortran-ordered", "overlapping"])
def test_arrays_the_kernel_cannot_take_are_copied_into_the_block(kind):
    f = random_factors((4, 3, 4), (2, 3, 2), seed=4)
    core, factors, biases = _uncommon_arrays(f, kind)
    given = [core, *factors, *biases]
    before = [a.tobytes() for a in given]
    g = TuckerFactors(f.dims, f.ranks, core, factors, biases, f.mean)
    assert g._kernel_handle is not None
    p = g.params
    assert p.dtype == np.float64 and p.flags.c_contiguous and p.flags.writeable
    assert all(np.array_equal(a, b) for a, b in zip(arrays(g), given))
    assert all(a.base is p and not any(np.shares_memory(a, b) for b in given)
               for a in arrays(g))
    cells, hyper = [(1, 2, 3), (3, 0, 1)], Hyperparams(eta=0.1)
    with reference_backend():
        ref = copy.deepcopy(g)
        want = [predict(ref, c) for c in cells]
        sgd_step(ref, cells[0], 0.0, 0.5, hyper)
        assert ref._kernel_handle is None
    assert [predict(g, c) for c in cells] == want
    sgd_step(g, cells[0], 0.0, 0.5, hyper)
    assert same_bits(g, ref)
    assert [a.tobytes() for a in given] == before  # the caller's arrays are not written


# ---------------------------------------------------------------- build and fallback


def test_library_builds_once_into_a_private_cache(tmp_path):
    with kernel_state(XDG_CACHE_HOME=str(tmp_path)):
        if _kernel.library() is None:
            pytest.skip("no kernel can be built here (gcc or cache dir)")
        cache = tmp_path / "pidtucker"
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        built = list(cache.iterdir())
        assert [p.name for p in built] == [p.name for p in cache.glob("kernel-*.so")]
        assert len(built) == 1
    mtime = built[0].stat().st_mtime_ns
    with kernel_state(XDG_CACHE_HOME=str(tmp_path)):
        assert _kernel.library() is not None
    assert [p.stat().st_mtime_ns for p in cache.iterdir()] == [mtime]


def test_the_compile_command_keeps_every_rounding_and_every_cpu():
    """The reference replays the kernel's bits only while gcc rounds each
    product and sum as written, and the cache, keyed by the machine name and
    not by CPU features, holds code any CPU of that machine can run."""
    flags = _kernel._COMPILE
    assert "-ffp-contract=off" in flags
    unsafe = {"-ffast-math", "-Ofast", "-funsafe-math-optimizations"}
    assert [flag for flag in flags if flag in unsafe or flag.startswith("-march=")] == []


def test_the_cache_file_name_is_keyed_on_the_interpreter_abi():
    source = _kernel._SOURCE.read_bytes()
    names = {abi: _kernel._file_name(source, abi)
             for abi in (".cpython-311-x86_64-linux-gnu.so", ".cpython-312-x86_64-linux-gnu.so",
                         ".cpython-311d-x86_64-linux-gnu.so", EXTENSION_SUFFIXES[0])}
    assert len(set(names.values())) == len(set(names))
    assert all(fnmatch.fnmatch(name, "kernel-*.so") for name in names.values())
    assert _kernel._file_name(source, EXTENSION_SUFFIXES[0]) == names[EXTENSION_SUFFIXES[0]]


def test_a_fresh_build_prunes_old_builds_of_its_own_abi_tag_only(tmp_path, monkeypatch):
    cache, abi = tmp_path / "pidtucker", EXTENSION_SUFFIXES[0]
    long_ago = time.time() - 2 * _kernel._STALE_S

    def build(version):
        source = tmp_path / f"kernel-v{version}.c"
        source.write_bytes(_kernel._SOURCE.read_bytes() + f"/* v{version} */\n".encode())
        monkeypatch.setattr(_kernel, "_SOURCE", source)
        with kernel_state(XDG_CACHE_HOME=str(tmp_path)):
            if _kernel.library() is None:
                pytest.skip("no kernel can be built here (gcc or cache dir)")
        return _kernel._file_name(source.read_bytes(), abi)

    def age(*names):
        for name in names:
            os.utime(cache / name, (long_ago, long_ago))

    def cached():
        return sorted(p.name for p in cache.iterdir())

    v1 = build(1)
    foreign = _kernel._file_name(b"another source", ".cpython-312-x86_64-linux-gnu.so")
    # Not the name of a build with this ABI tag: kept whatever its age.  The
    # first two are untagged kernel-<8 hex digits>.so names.
    lookalikes = ["kernel-0123abcd.so", "kernel-89abcdef.so", "kernel-0123abcg.so",
                  "kernel-0123ABCD.so", "kernel-0123abc.so", "kernel-0123abcd.so.bak",
                  "xkernel-0123abcd.so", v1[:-len("0.so")] + "x.so", v1.replace("-", "_", 1)]
    for name in (foreign, *lookalikes):
        (cache / name).write_bytes(b"")
    age(v1, foreign, *lookalikes)
    kept = [foreign, *lookalikes]
    v2 = build(2)
    assert cached() == sorted([v2, *kept])  # v1 leaves
    v3 = build(3)
    assert cached() == sorted([v2, v3, *kept])  # v2 is less than a day old
    age(v2)
    v4 = build(4)
    assert cached() == sorted([v3, v4, *kept])


def test_a_cache_dir_others_can_write_is_not_used(tmp_path):
    cache = tmp_path / "pidtucker"
    cache.mkdir()
    cache.chmod(0o777)
    with kernel_state(XDG_CACHE_HOME=str(tmp_path)):
        assert _kernel.library() is None
    assert list(cache.iterdir()) == []


def write_data(tmp_path):
    spec = SyntheticSpec((6, 5, 8), Ranks(2, 2, 2), 0.6, noise_sigma=0.01,
                         value_offset=10.0, seed=3)
    tensor, _truth = generate_synthetic(spec)
    data = tmp_path / "data.csv"
    write_records_csv(tensor.indices, tensor.values, identity_mapping(spec.dims), data)
    return tensor, data


def train_both_ways(tmp_path, name, capsys):
    """model.ckpt bytes from the library train and from CLI train, with stderr."""
    tensor, data = write_data(tmp_path)
    parts = split(tensor, (0.5, 0.2, 0.3), seed=5)
    f, _report = train(tensor, parts, Hyperparams(max_epochs=3, seed=5))
    save_checkpoint(f, tmp_path / f"{name}.ckpt")
    code = main(["train", "--data", str(data), "--slots-per-day", "8",
                 "--ratios", "0.5,0.2,0.3", "--max-epochs", "3", "--seed", "5",
                 "--outdir", str(tmp_path), "--run-name", name])
    assert code == 0
    err = capsys.readouterr().err
    library_ckpt = (tmp_path / f"{name}.ckpt").read_bytes()
    return library_ckpt, (tmp_path / name / "model.ckpt").read_bytes(), err


FALLBACK_CAUSES = ["forced", "unwritable-cache", "no-compiler", "no-python-headers",
                   "unloadable-cached-file"]


def fallback(cause, tmp_path, monkeypatch):
    """A context in which the kernel cannot load, for the given cause."""
    if cause == "forced":
        return reference_backend()
    if cause == "unwritable-cache":
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        return kernel_state(XDG_CACHE_HOME=str(blocker))
    if cause == "no-compiler":
        empty = tmp_path / "empty"
        empty.mkdir()
        return kernel_state(XDG_CACHE_HOME=str(tmp_path / "cache"), PATH=str(empty))
    if cause == "no-python-headers":
        empty = tmp_path / "include"
        empty.mkdir()
        monkeypatch.setattr(_kernel, "_include_dir", lambda: str(empty))
        return kernel_state(XDG_CACHE_HOME=str(tmp_path / "cache"))
    cache = tmp_path / "cache" / "pidtucker"
    cache.mkdir(mode=0o700, parents=True)
    name = _kernel._file_name(_kernel._SOURCE.read_bytes(), EXTENSION_SUFFIXES[0])
    (cache / name).write_bytes(b"not a shared object\n")
    return kernel_state(XDG_CACHE_HOME=str(tmp_path / "cache"))


@pytest.mark.parametrize("cause", FALLBACK_CAUSES)
def test_train_falls_back_to_the_numpy_reference(cause, tmp_path, capsys, monkeypatch):
    with reference_backend():
        want, want_cli, _err = train_both_ways(tmp_path, "reference", capsys)
    with fallback(cause, tmp_path, monkeypatch):
        got, got_cli, err = train_both_ways(tmp_path, "r", capsys)
        assert _kernel.library() is None
    assert err == ""
    assert (got, got_cli) == (want, want_cli)
    if _kernel.library() is not None:  # and the kernel writes the same bytes
        assert train_both_ways(tmp_path, "kernel", capsys)[:2] == (want, want_cli)


def impute_both_ways(tmp_path, name, capsys):
    """imputed.csv bytes of impute --all-missing and of impute --targets, with stderr."""
    trained = tmp_path / "t"
    if not trained.exists():
        _tensor, data = write_data(tmp_path)
        assert main(["train", "--data", str(data), "--slots-per-day", "8", "--ratios",
                     "0.5,0.2,0.3", "--max-epochs", "2", "--outdir", str(tmp_path),
                     "--run-name", "t"]) == 0
        rows = [f"{i},{j},{k}" for i in range(6) for j in (4, 0, 2) for k in (7, 0, 3)]
        (tmp_path / "targets.csv").write_text("segment,day,slot\n" + "\n".join(rows) + "\n")
    capsys.readouterr()
    model = ["--checkpoint", str(trained / "model.ckpt"), "--mapping",
             str(trained / "mapping.json"), "--outdir", str(tmp_path)]
    outputs = []
    for run, source in [("all", ["--all-missing", "true", "--data", str(tmp_path / "data.csv")]),
                        ("targets", ["--targets", str(tmp_path / "targets.csv")])]:
        assert main(["impute", *model, *source, "--run-name", f"{name}-{run}"]) == 0
        outputs.append((tmp_path / f"{name}-{run}" / "imputed.csv").read_bytes())
    return outputs, capsys.readouterr().err


@pytest.mark.parametrize("cause", FALLBACK_CAUSES)
def test_impute_output_is_the_same_with_and_without_the_kernel(cause, tmp_path, capsys,
                                                                monkeypatch):
    want, _err = impute_both_ways(tmp_path, "kernel", capsys)
    with fallback(cause, tmp_path, monkeypatch):
        got, err = impute_both_ways(tmp_path, "r", capsys)
        assert _kernel.library() is None
    assert err == ""
    assert got == want
    assert [out.count(b"\n") for out in got] == [6 * 5 * 8 - 144 + 1, 6 * 9 + 1]
