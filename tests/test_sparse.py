import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pidtucker import ConfigError, DataError, SparseTensor, from_records, missing_indices, split
from pidtucker.sparse import _first_out_of_bounds


def test_single_record_density():
    t = from_records((2, 2, 2), [(0, 0, 0, 5.0)])
    assert len(t) == 1
    assert t.density == 0.125


def test_duplicate_index_reports_both_positions():
    with pytest.raises(DataError) as exc:
        from_records((2, 2, 2), [(0, 0, 0, 1.0), (0, 0, 0, 2.0)])
    msg = str(exc.value)
    assert "0" in msg and "1" in msg and "duplicate" in msg


def test_duplicate_detected_among_many():
    records = [(i, j, k, 1.0) for i in range(2) for j in range(2) for k in range(2)]
    records.append((1, 0, 1, 3.0))  # duplicates position 5
    with pytest.raises(DataError) as exc:
        from_records((2, 2, 2), records)
    assert "5" in str(exc.value) and "8" in str(exc.value)


def test_out_of_bounds_reports_record():
    with pytest.raises(DataError) as exc:
        from_records((2, 2, 2), [(0, 0, 0, 1.0), (0, 2, 0, 1.0)])
    assert "entry 1" in str(exc.value)


def test_index_errors_show_the_cell_as_plain_ints():
    for records, message in [
        ([(0, 0, 0, 1.0), (-1, 2, 0, 1.0)],
         "entry 1: index (-1, 2, 0) out of bounds for dims (2, 2, 2)"),
        ([(0, 1, 0, 1.0), (1, 1, 1, 1.0), (1, 1, 1, 2.0)],
         "duplicate index (1, 1, 1) at record positions 1 and 2"),
        ([(0, 0, 0, 1.0), (1.7, 0, 0, 1.0)],
         "record 1 has index (1.7, 0, 0): indices must be integers, got dtype float64"),
    ]:
        with pytest.raises(DataError) as exc:
            from_records((2, 2, 2), records)
        assert str(exc.value) == message


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 4)] * 3),
       rows=st.lists(st.tuples(*[st.integers(-2, 5)] * 3), max_size=12))
@example(dims=(2, 2, 2), rows=[])
@example(dims=(2, 3, 4), rows=[(1, 2, 3), (0, 0, 4)])   # only a column maximum is out
@example(dims=(2, 3, 4), rows=[(1, 2, 3), (-1, 0, 0)])  # only the least entry is out
def test_first_out_of_bounds_finds_the_first_row_outside(dims, rows):
    idx = np.array(rows, dtype=np.int64).reshape(-1, 3)
    want = next((r for r, row in enumerate(rows)
                 if not all(0 <= x < d for x, d in zip(row, dims))), None)
    assert _first_out_of_bounds(idx, dims) == want


# What may break a hand-built tensor: a cell entry that is negative, past any dims drawn
# below, beyond int64 or not an integer; a value that is not finite or not a number.
_ODD_ENTRIES = st.one_of(st.integers(-3, -1), st.integers(4, 6), st.integers(2**63, 2**65),
                         st.integers(-2**65, -2**63 - 1), st.floats(), st.none(),
                         st.text(max_size=1))
_ODD_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, None, "1.5", [1.0]])


@st.composite
def hand_built(draw):
    """dims, cells and values for SparseTensor: those of a good tensor with at most one
    fault, the cells and values as lists or, where numpy reads them as numbers, as arrays."""
    dims = draw(st.tuples(*[st.integers(1, 4)] * 3))
    n = draw(st.integers(0, 5))
    cells = draw(st.lists(st.tuples(*[st.integers(0, d - 1) for d in dims]),
                          min_size=n, max_size=n))
    values = draw(st.lists(st.floats(-1e3, 1e3) | st.integers(-3, 3) | st.booleans(),
                           min_size=n, max_size=n))
    fault = draw(st.sampled_from([None, "dims", "count", "cell", "ragged", "value"]))
    at = draw(st.integers(0, n - 1)) if n else None
    if fault == "dims":
        dims = draw(st.tuples(*[st.integers(-1, 4)] * 3) | st.just(dims[:2]))
    elif fault == "count":
        values.append(1.0)
    elif fault == "cell" and n:
        m = draw(st.integers(0, 2))
        cells[at] = (*cells[at][:m], draw(_ODD_ENTRIES), *cells[at][m + 1:])
    elif fault == "ragged" and n:
        cells[at] = cells[at][:draw(st.integers(0, 2))]
    elif fault == "value" and n:
        values[at] = draw(_ODD_VALUES)
    as_arrays = []
    for given in (cells, values):
        try:
            array = np.asarray(given)
        except (ValueError, OverflowError):
            array = None
        use = array is not None and array.dtype.kind in "biuf" and draw(st.booleans())
        as_arrays.append(array if use else given)
    return (dims, *as_arrays)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(hand_built())
@example(((2, 2, 2), [(0, 0, 0), (5, 5, 5)], [1.0, 2.0]))
@example(((2, 2, 2), np.array([(0, 0, 0), (1, 1, 1)]), np.array([1.0, np.nan])))
def test_a_sparse_tensor_is_valid_when_made_or_refused_with_a_data_error(case):
    dims, cells, values = case
    arrays = [a for a in (cells, values) if isinstance(a, np.ndarray)]
    before = [a.copy() for a in arrays]
    try:
        tensor = SparseTensor(dims, cells, values)
    except DataError:
        tensor = None
    # The caller's arrays are never written, nor made read-only.
    assert all(a.flags.writeable and a.tobytes() == b.tobytes() for a, b in zip(arrays, before))
    if tensor is None:
        return
    idx, vals = tensor.indices, tensor.values
    assert idx.dtype == np.int64 and idx.shape == (len(tensor), 3)
    assert vals.dtype == np.float64 and vals.shape == (len(tensor),)
    assert not idx.flags.writeable and not vals.flags.writeable
    assert ((0 <= idx) & (idx < np.array(tensor.dims))).all() and np.isfinite(vals).all()
    observed = len({tuple(c) for c in idx.tolist()})
    assert len(missing_indices(tensor)) == tensor.n_cells - observed


def test_non_finite_value_rejected():
    with pytest.raises(DataError):
        from_records((2, 2, 2), [(0, 0, 0, float("nan"))])
    with pytest.raises(DataError):
        from_records((2, 2, 2), [(0, 0, 0, float("inf"))])


def test_bad_dims_rejected():
    with pytest.raises(DataError):
        from_records((0, 2, 2), [])


@pytest.mark.parametrize("dims", [(2.5, 2, 2), (2, "2", 2), (True, 2, 2)])
def test_dims_are_checked_before_they_are_converted(dims):
    with pytest.raises(DataError, match=r"dims must be three positive integers, got \("):
        from_records(dims, [(0, 0, 0, 1.0)])


@pytest.mark.parametrize("record, message", [
    ((0, 1, 0), "record 1 is (0, 1, 0), not (i, j, k, value)"),
    ((0, 1, 0, 1.0, 2.0), "record 1 is (0, 1, 0, 1.0, 2.0), not (i, j, k, value)"),
    (7, "record 1 is 7, not (i, j, k, value)"),
    ((0, 1, 0, "x"), "record 1 has value 'x', not a real number"),
    ((0, 1, 0, None), "record 1 has value None, not a real number"),
    ((0, 1, 0, "1.5"), "record 1 has value '1.5', not a real number"),
    ((0, 1, 0, 10**400),
     "record 1 has a value float64 cannot hold (int too large to convert to float)")])
def test_a_record_of_the_wrong_shape_or_value_is_named(record, message):
    with pytest.raises(DataError) as exc:
        from_records((2, 2, 2), [(0, 0, 0, 1.0), record])
    assert str(exc.value) == message


def test_tensors_and_splits_compare_and_hash_by_identity():
    records = [(0, 0, 0, 1.0), (1, 1, 1, 2.0), (0, 1, 1, 3.0), (1, 0, 0, 4.0)]
    a, b = from_records((2, 2, 2), records), from_records((2, 2, 2), records)
    assert a != b and a == a and len({a, a, b}) == 2
    parts = split(a, (0.5, 0.25, 0.25), seed=0), split(a, (0.5, 0.25, 0.25), seed=0)
    assert parts[0] != parts[1] and parts[0] == parts[0] and len(set(parts)) == 2


def test_round_trip_values_exact():
    rng = np.random.default_rng(3)
    records = [(i, j, k, float(rng.normal())) for i in range(3) for j in range(2)
               for k in range(4)]
    t = from_records((3, 2, 4), records)
    for pos, (i, j, k, v) in enumerate(records):
        assert tuple(t.indices[pos]) == (i, j, k)
        assert t.values[pos] == v


def test_density_traffic_scale_dims():
    # 18 road sections x 28 days x 288 slots, 8000 observed entries
    dims = (18, 28, 288)
    rng = np.random.default_rng(0)
    flat = rng.choice(dims[0] * dims[1] * dims[2], size=8000, replace=False)
    ii, jj, kk = np.unravel_index(flat, dims)
    t = from_records(dims, [(int(a), int(b), int(c), 1.0) for a, b, c in zip(ii, jj, kk)])
    assert t.density == pytest.approx(8000 / 145152, rel=1e-12)


def _tensor(n, seed=0):
    rng = np.random.default_rng(seed)
    dims = (10, 10, 50)
    flat = rng.choice(5000, size=n, replace=False)
    ii, jj, kk = np.unravel_index(flat, dims)
    return from_records(dims, [(int(a), int(b), int(c), float(v))
                               for a, b, c, v in zip(ii, jj, kk, rng.normal(size=n))])


def test_split_sizes_paper_protocol():
    parts = split(_tensor(1000), (0.08, 0.02, 0.90), seed=7)
    assert (len(parts.train), len(parts.validation), len(parts.test)) == (80, 20, 900)


def test_split_deterministic():
    t = _tensor(1000)
    a = split(t, (0.08, 0.02, 0.90), seed=7)
    b = split(t, (0.08, 0.02, 0.90), seed=7)
    for pa, pb in zip(a.parts(), b.parts()):
        assert np.array_equal(pa, pb)


def test_split_seed_changes_partition():
    t = _tensor(1000)
    a = split(t, (0.08, 0.02, 0.90), seed=7)
    b = split(t, (0.08, 0.02, 0.90), seed=8)
    assert not np.array_equal(a.train, b.train)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_split_disjoint_and_exhaustive(seed):
    t = _tensor(997, seed=seed)
    parts = split(t, (0.1, 0.1, 0.8), seed=seed)
    merged = np.concatenate(parts.parts())
    assert len(merged) == len(t)
    assert np.array_equal(np.sort(merged), np.arange(len(t)))


def test_split_remainder_goes_to_test():
    parts = split(_tensor(1001), (0.08, 0.02, 0.90), seed=0)
    # floor sizes 80 / 20, remainder of 1 lands in test
    assert (len(parts.train), len(parts.validation), len(parts.test)) == (80, 20, 901)


def test_split_empty_part_error():
    with pytest.raises(DataError) as exc:
        split(_tensor(10), (0.08, 0.02, 0.90), seed=0)
    assert "empty" in str(exc.value)


def test_split_ratio_validation():
    t = _tensor(100)
    with pytest.raises(DataError):
        split(t, (0.5, 0.5, 0.5), seed=0)
    with pytest.raises(DataError):
        split(t, (0.5, -0.1, 0.6), seed=0)
    for bad in (math.nan, math.inf):
        for pos in range(3):
            ratios = [0.5, 0.25, 0.25]
            ratios[pos] = bad
            with pytest.raises(DataError, match="ratios must be three positive reals"):
                split(t, ratios, seed=0)


def test_split_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed"):
        split(_tensor(100), (0.5, 0.2, 0.3), seed=-1)


def test_tensor_arrays_are_read_only():
    t = _tensor(50)
    with pytest.raises(ValueError):
        t.values[0] = 99.0
    with pytest.raises(ValueError):
        t.indices[0, 0] = 1
