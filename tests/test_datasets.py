import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pidtucker
from pidtucker import (
    ConfigError,
    CsvSchema,
    DataError,
    Ranks,
    SparseTensor,
    SyntheticSpec,
    export_imputed,
    from_records,
    generate_synthetic,
    identity_mapping,
    init_factors,
    load_checkpoint,
    load_csv,
    load_mapping,
    missing_indices,
    predict,
    predict_batch,
    rmse,
    save_mapping,
    write_records_csv,
)
from pidtucker.datasets import _CSV_BLOCK_ROWS, IndexMapping, _sorted_ids, read_targets_csv

SCHEMA = CsvSchema()


def write_csv(path, rows, header="segment,day,slot,speed"):
    path.write_text(header + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    return path


# ---------------------------------------------------------------- load_csv


def test_load_small_file(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["a,1,0,30.5", "a,1,1,31.0", "b,1,0,12.0"])
    tensor, mapping = load_csv(path, SCHEMA)
    assert len(tensor) == 3
    assert tensor.dims == (2, 1, 288)
    assert mapping.segments == ("a", "b")
    assert mapping.days == ("1",)


def test_load_slot_out_of_range(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["a,1,288,30.5"])
    with pytest.raises(DataError) as exc:
        load_csv(path, SCHEMA)
    assert "slot 288" in str(exc.value)


def test_load_malformed_row_names_line(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["a,1,0,30.5", "a,1,oops,31.0"])
    with pytest.raises(DataError) as exc:
        load_csv(path, SCHEMA)
    assert "line 3" in str(exc.value)


@pytest.mark.parametrize("before", [["a,1,0,1.0", ""], ['"seg\nment",1,0,1.0']],
                         ids=["blank-line", "quoted-newline"])
def test_errors_name_the_physical_line(tmp_path, before):
    # lines 2-3 hold a row and a blank line, or one row whose quoted id spans both
    path = write_csv(tmp_path / "d.csv", before + ["a,1,oops,2.0"])
    with pytest.raises(DataError, match="malformed row at line 4:"):
        load_csv(path, SCHEMA)
    path = write_csv(tmp_path / "d.csv", before + ["b,1,0,2.0", "b,1,0,3.0"])
    with pytest.raises(DataError, match="at lines 4 and 5$"):
        load_csv(path, SCHEMA)
    targets = write_csv(tmp_path / "t.csv", [r.rsplit(",", 1)[0] for r in before] + ["a,7,0"],
                        header="segment,day,slot")
    mapping = IndexMapping(("a", "seg\nment"), ("1",), 288)
    with pytest.raises(DataError, match="line 4: unknown day '7'"):
        read_targets_csv(targets, SCHEMA, mapping)


def test_load_duplicate_cell_names_both_lines(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["a,1,0,30.5", "b,1,0,9.9", "a,1,0,31.0"])
    with pytest.raises(DataError) as exc:
        load_csv(path, SCHEMA)
    assert "lines 2 and 4" in str(exc.value)


def test_load_negative_speed_rejected(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["a,1,0,-3.0"])
    with pytest.raises(DataError):
        load_csv(path, SCHEMA)


def test_load_zero_speed_is_valid(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["a,1,0,0.0"])
    tensor, _ = load_csv(path, SCHEMA)
    assert tensor.values[0] == 0.0


def test_load_missing_column(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["a,1,0"], header="segment,day,slot")
    with pytest.raises(DataError) as exc:
        load_csv(path, SCHEMA)
    assert "speed" in str(exc.value)


def test_load_missing_file():
    with pytest.raises(DataError) as exc:
        load_csv("/nonexistent/speeds.csv", SCHEMA)
    assert "speeds.csv" in str(exc.value)


@pytest.mark.parametrize("body, message", [
    ("a,1,0,1.0\n\xe9t\xe9,1,1,1.0\n".encode("latin-1"), "d.csv: not UTF-8 text"),
    (b'a,1,0,1.0\n"' + b"x" * 200_000 + b'",1,1,1.0\n', "d.csv: line 3: field larger"),
], ids=["latin-1", "oversize-field"])
def test_unreadable_text_is_a_data_error(tmp_path, body, message):
    path = tmp_path / "d.csv"
    path.write_bytes(b"segment,day,slot,speed\n" + body)
    for read in (lambda: load_csv(path, SCHEMA),
                 lambda: read_targets_csv(path, SCHEMA, identity_mapping((2, 2, 288)))):
        with pytest.raises(DataError) as exc:
            read()
        assert str(exc.value).startswith(str(tmp_path / message))


def test_load_custom_schema(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["s7,2024-01-03,11,55.2"],
                     header="sensor,date,interval,kmh")
    schema = CsvSchema(segment="sensor", day="date", slot="interval", speed="kmh",
                       slots_per_day=144)
    tensor, mapping = load_csv(path, schema)
    assert tensor.dims == (1, 1, 144)
    assert mapping.days == ("2024-01-03",)


def test_load_detector_scale_dims(tmp_path):
    # sparse file touching 323 detectors and 28 days yields dims (323, 28, 288)
    rng = np.random.default_rng(0)
    rows = [f"{seg},{day},0,10.0" for seg in range(323) for day in (0, 27)]
    rows += [f"0,{day},5,10.0" for day in range(1, 27)]
    path = write_csv(tmp_path / "d2.csv", rows)
    tensor, mapping = load_csv(path, SCHEMA)
    assert tensor.dims == (323, 28, 288)


def test_numeric_ids_sort_numerically(tmp_path):
    path = write_csv(tmp_path / "d.csv", [f"{seg},0,0,1.0" for seg in (10, 2, 1)])
    _, mapping = load_csv(path, SCHEMA)
    assert mapping.segments == ("1", "2", "10")


def test_id_order_is_total_whatever_the_hash_seed():
    # NaN compares false with every number; the order must not follow set order
    src = Path(pidtucker.__file__).resolve().parents[1]
    code = ("from pidtucker.datasets import _sorted_ids; "
            "print(_sorted_ids({'3', 'nan', '1', '10', '2', 'inf', 'NaN'}))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    orders = {
        subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": str(seed)},
                       capture_output=True, text=True, check=True).stdout
        for seed in range(6)
    }
    assert orders == {"['1', '2', '3', '10', 'inf', 'NaN', 'nan']\n"}
    # without a NaN id the order is the (number, string) order, as it has always been
    ids = ["20", "2e1", "1.0", "01", "1", "-inf", "-3", "inf"]
    assert _sorted_ids(ids) == sorted(ids, key=lambda s: (float(s), s))


def test_mapping_deterministic(tmp_path):
    rows = ["b,2,0,1.0", "a,1,0,2.0", "c,1,5,3.0"]
    p1 = write_csv(tmp_path / "one.csv", rows)
    p2 = write_csv(tmp_path / "two.csv", list(reversed(rows)))
    _, m1 = load_csv(p1, SCHEMA)
    _, m2 = load_csv(p2, SCHEMA)
    assert m1 == m2


def test_mapping_round_trip(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["x,5,3,7.0", "y,6,1,8.0"])
    _, mapping = load_csv(path, SCHEMA)
    save_mapping(mapping, tmp_path / "map.json")
    assert load_mapping(tmp_path / "map.json") == mapping



def _broken_mapping(tmp_path, **change):
    path = tmp_path / "map.json"
    save_mapping(IndexMapping(("a", "b"), ("1", "2"), 4), path)
    payload = json.loads(path.read_text())
    payload.update(change)
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("change, message", [
    pytest.param({"segments": [0, 1]}, "segment id 0 is not a distinct non-empty string",
                 id="int-ids"),
    pytest.param({"segments": "ab"}, "segment ids must be a list, got 'ab'", id="string-ids"),
    pytest.param({"days": {"1": 0}}, "day ids must be a list, got {'1': 0}", id="object-ids"),
    pytest.param({"days": ["1", "2", "1"]}, "day id '1' is not a distinct non-empty string",
                 id="repeated-id"),
    pytest.param({"segments": ["a", ""]}, "segment id '' is not a distinct non-empty string",
                 id="empty-id"),
    pytest.param({"days": ["1", None]}, "day id None is not a distinct non-empty string",
                 id="null-id"),
    pytest.param({"slots_per_day": 0}, "slots_per_day must be an integer >= 1, got 0",
                 id="zero-slots"),
    pytest.param({"slots_per_day": 2.7}, "slots_per_day must be an integer >= 1, got 2.7",
                 id="fractional-slots"),
    pytest.param({"slots_per_day": True}, "slots_per_day must be an integer >= 1, got True",
                 id="bool-slots"),
    pytest.param({"slots_per_day": "4"}, "slots_per_day must be an integer >= 1, got '4'",
                 id="string-slots"),
])
def test_load_mapping_rejects_ids_and_slot_counts_it_cannot_use(tmp_path, change, message):
    path = _broken_mapping(tmp_path, **change)
    with pytest.raises(DataError) as exc:
        load_mapping(path)
    assert str(exc.value) == f"{path}: {message}"


def test_checkpoints_and_mappings_share_one_opener_and_header_reader(tmp_path):
    path = tmp_path / "f"
    for load, what, tag, key in [(load_checkpoint, "checkpoint", "pidtucker-checkpoint-v1", "dims"),
                                 (load_mapping, "mapping", "pidtucker-mapping-v1", "segments")]:
        for text, message in [
                (b"\xff{}\n", f"{path}: not a {what} file ('utf-8' codec can't decode byte 0xff"),
                (b"[1]\n", f"{path}: not a {what} file (a JSON object is expected)"),
                (b"[" * 100_000 + b"\n", f"{path}: not a {what} file (maximum recursion depth"),
                (b'{"format": "v0"}\n', f"{path}: unsupported {what} format 'v0'"),
                (json.dumps({"format": tag}).encode() + b"\n",
                 f"{path}: malformed {what} (missing '{key}')")]:
            path.write_bytes(text)
            with pytest.raises(DataError) as exc:
                load(path)
            assert str(exc.value).startswith(message)
        with pytest.raises(DataError, match=f"^cannot read {what}: embedded null byte$"):
            load(f"{path}\0")

# ---------------------------------------------------------------- synthetic


def test_synthetic_noiseless_values_exact():
    spec = SyntheticSpec(dims=(6, 5, 7), ranks=Ranks(2, 2, 2), observed_fraction=0.3,
                         noise_sigma=0.0, seed=4)
    tensor, truth = generate_synthetic(spec)
    assert np.array_equal(tensor.values, predict_batch(truth, tensor.indices))
    assert rmse(truth, tensor.indices, tensor.values) == 0.0


def test_synthetic_full_observation():
    spec = SyntheticSpec(dims=(4, 4, 4), ranks=Ranks(2, 2, 2), observed_fraction=1.0, seed=0)
    tensor, _ = generate_synthetic(spec)
    assert tensor.density == 1.0


def test_synthetic_entry_count():
    spec = SyntheticSpec(dims=(20, 15, 30), ranks=Ranks(3, 3, 3), observed_fraction=0.1, seed=0)
    tensor, _ = generate_synthetic(spec)
    assert len(tensor) == 900


def test_synthetic_deterministic():
    spec = SyntheticSpec(dims=(6, 5, 7), ranks=Ranks(2, 2, 2), observed_fraction=0.2,
                         noise_sigma=0.05, seed=9)
    t1, f1 = generate_synthetic(spec)
    t2, f2 = generate_synthetic(spec)
    assert np.array_equal(t1.indices, t2.indices)
    assert np.array_equal(t1.values, t2.values)
    assert np.array_equal(f1.core, f2.core)


def test_synthetic_parameter_ranges():
    spec = SyntheticSpec(dims=(10, 10, 10), ranks=Ranks(3, 3, 3), observed_fraction=0.5,
                         value_offset=2.5, seed=1)
    _, truth = generate_synthetic(spec)
    for m in (*truth.factors, truth.core):
        assert (m > 0).all() and (m <= 1).all()
    for v in truth.biases:
        assert (v > -0.5).all() and (v <= 0.5).all()
    assert truth.mean == 2.5


def test_synthetic_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(dims=(2, 2, 2), ranks=Ranks(1, 1, 1), observed_fraction=0.5)
    with pytest.raises(ConfigError):
        SyntheticSpec(dims=(10, 10, 10), ranks=Ranks(1, 1, 1), observed_fraction=1.5)
    for sigma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="noise_sigma must be finite and >= 0"):
            SyntheticSpec(dims=(10, 10, 10), ranks=Ranks(1, 1, 1), observed_fraction=0.5,
                          noise_sigma=sigma)
    with pytest.raises(ConfigError, match="seed"):
        SyntheticSpec(dims=(10, 10, 10), ranks=Ranks(1, 1, 1), observed_fraction=0.5, seed=-1)
    for dims in ((-2, -5, 10), (10, 0, 10), (10, 10, -1), (10, 10)):
        with pytest.raises(ConfigError, match=r"dims must be three positive integers, got \("):
            SyntheticSpec(dims=dims, ranks=Ranks(1, 1, 1), observed_fraction=0.5)
    for offset in (float("nan"), float("inf"), True, "1"):
        with pytest.raises(ConfigError, match="value_offset must be finite, got"):
            SyntheticSpec(dims=(10, 10, 10), ranks=Ranks(1, 1, 1), observed_fraction=0.5,
                          value_offset=offset)
    with pytest.raises(DataError, match="non-finite"):
        generate_synthetic(SyntheticSpec(dims=(10, 10, 10), ranks=Ranks(1, 1, 1),
                                         observed_fraction=0.5, noise_sigma=1e308,
                                         value_offset=1e308))


# ---------------------------------------------------------------- export


def test_export_zero_targets_header_only(tmp_path):
    f = init_factors((2, 2, 2), Ranks(1, 1, 1), seed=0)
    mapping = identity_mapping((2, 2, 2))
    path = tmp_path / "out.csv"
    export_imputed(f, np.zeros((0, 3), dtype=np.int64), mapping, path)
    assert path.read_text() == "segment_id,day,slot,predicted_speed\n"


def test_export_single_target_predict_value(tmp_path):
    f = init_factors((3, 3, 3), Ranks(2, 2, 2), mean=4.0, seed=5)
    mapping = identity_mapping((3, 3, 3))
    path = tmp_path / "out.csv"
    export_imputed(f, [(1, 2, 0)], mapping, path)
    lines = path.read_text().splitlines()
    assert lines[1] == f"1,2,0,{predict(f, (1, 2, 0)):.6f}"


def test_export_untrained_factors_direct_predict_oracle(tmp_path):
    # freshly initialized factors over all observed cells: every exported value
    # must equal predict at 6 decimal places (near the mean since biases are 0)
    spec = SyntheticSpec(dims=(5, 4, 6), ranks=Ranks(2, 2, 2), observed_fraction=0.5, seed=3)
    tensor, _ = generate_synthetic(spec)
    f = init_factors(tensor.dims, Ranks(2, 2, 2), mean=7.0, seed=0)
    mapping = identity_mapping(tensor.dims)
    path = tmp_path / "out.csv"
    export_imputed(f, tensor.indices, mapping, path)
    lines = path.read_text().splitlines()[1:]
    assert len(lines) == len(tensor)
    for line, row in zip(lines, tensor.indices):
        assert line.split(",")[3] == f"{predict(f, tuple(row)):.6f}"


def test_export_zero_core_equals_mean_plus_biases(tmp_path):
    f = init_factors((3, 2, 2), Ranks(1, 1, 1), mean=5.0, seed=0)
    f.core[:] = 0.0
    f.biases[0][:] = [0.1, 0.2, 0.3]
    mapping = identity_mapping((3, 2, 2))
    path = tmp_path / "out.csv"
    export_imputed(f, [(0, 0, 0), (2, 1, 1)], mapping, path)
    lines = path.read_text().splitlines()
    assert lines[1].endswith(f"{5.0 + 0.1:.6f}")
    assert lines[2].endswith(f"{5.0 + 0.3:.6f}")


def test_export_mapping_dims_mismatch(tmp_path):
    f = init_factors((2, 2, 2), Ranks(1, 1, 1), seed=0)
    with pytest.raises(DataError):
        export_imputed(f, [(0, 0, 0)], identity_mapping((3, 2, 2)), tmp_path / "x.csv")


def test_export_rejects_targets_that_are_not_n_by_3(tmp_path):
    f = init_factors((2, 2, 2), Ranks(1, 1, 1), seed=0)
    with pytest.raises(DataError, match=r"indices must have shape \(n, 3\), got \(1, 6\)"):
        export_imputed(f, np.zeros((1, 6), dtype=np.int64), identity_mapping((2, 2, 2)),
                       tmp_path / "x.csv")
    assert not (tmp_path / "x.csv").exists()


def test_load_export_round_trip_ids(tmp_path):
    rows = ["seg-b,mon,3,12.0", "seg-a,tue,1,9.5", "seg-b,tue,0,11.0"]
    data = write_csv(tmp_path / "d.csv", rows)
    tensor, mapping = load_csv(data, SCHEMA)
    f = init_factors(tensor.dims, Ranks(1, 1, 1), mean=1.0, seed=0)
    out = tmp_path / "imputed.csv"
    export_imputed(f, tensor.indices, mapping, out)
    got = [line.split(",")[:3] for line in out.read_text().splitlines()[1:]]
    assert got == [["seg-b", "mon", "3"], ["seg-a", "tue", "1"], ["seg-b", "tue", "0"]]


def test_missing_indices_complement():
    spec = SyntheticSpec(dims=(4, 3, 5), ranks=Ranks(1, 1, 1), observed_fraction=0.4, seed=2)
    tensor, _ = generate_synthetic(spec)
    missing = missing_indices(tensor)
    assert len(missing) + len(tensor) == 60
    obs = {tuple(r) for r in tensor.indices.tolist()}
    assert all(tuple(r) not in obs for r in missing.tolist())


def test_missing_indices_are_contiguous_int64_rows_in_row_major_order():
    dims = (3, 4, 5)
    full = [(0, j, k) for j in range(4) for k in range(5)]  # segment 0 fully observed
    observed = [(2, 3, 0), *full, (2, 1, 3)]                 # segment 1 fully missing
    tensor = from_records(dims, [(*c, 1.0) for c in observed])
    got = missing_indices(tensor)
    assert got.dtype == np.int64 and got.shape == (60 - 22, 3)
    assert got.flags.c_contiguous
    assert [tuple(r) for r in got.tolist()] == [
        c for c in itertools.product(*map(range, dims)) if c not in set(observed)]


@pytest.mark.parametrize("segments, days, slots, message", [
    (("a", "a"), ("d",), 2, "segment id 'a' is not a distinct non-empty string"),
    (("a",), ("d", ""), 2, "day id '' is not a distinct non-empty string"),
    (("a",), (7,), 2, "day id 7 is not a distinct non-empty string"),
    (("\ud800",), ("d",), 2, "segment id '\\ud800' is not encodable as UTF-8"),
    (("a",), ("d",), 0, "slots_per_day must be an integer >= 1, got 0"),
    (("a",), ("d",), 2.0, "slots_per_day must be an integer >= 1, got 2.0"),
], ids=["repeat", "empty", "not-a-string", "surrogate", "no-slots", "float-slots"])
def test_a_mapping_built_by_hand_is_checked_when_it_is_made(segments, days, slots, message):
    with pytest.raises(DataError) as exc:
        IndexMapping(segments, days, slots)
    assert str(exc.value) == message


def test_missing_indices_names_a_cell_outside_the_dims_of_a_tensor_built_by_hand():
    with pytest.raises(DataError) as exc:  # when it is made, before missing_indices can run
        SparseTensor((2, 2, 2), np.array([(0, 0, 0), (1, 1, 1), (5, 5, 5)]), np.ones(3))
    assert str(exc.value) == "entry 2: index (5, 5, 5) out of bounds for dims (2, 2, 2)"


@st.composite
def grids(draw):
    """Grid dims plus a set of observed flat cells, in random insertion order."""
    dims = draw(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)))
    n_cells = dims[0] * dims[1] * dims[2]
    return dims, draw(st.lists(st.integers(0, n_cells - 1), unique=True))


@settings(max_examples=40, deadline=None)
@given(grids())
@example(((3, 4, 5), []))                   # nothing observed
@example(((3, 4, 5), list(range(60))[::-1]))  # fully observed
def test_missing_indices_matches_setdiff_reference(grid):
    dims, observed = grid
    ii, jj, kk = np.unravel_index(np.asarray(observed, dtype=np.int64), dims)
    tensor = from_records(dims, [(i, j, k, 1.0) for i, j, k in zip(ii, jj, kk)])
    flat = np.setdiff1d(np.arange(tensor.n_cells), np.asarray(observed, dtype=np.int64))
    expected = np.column_stack(np.unravel_index(flat, dims)).astype(np.int64)
    got = missing_indices(tensor)
    assert got.dtype == np.int64
    assert got.shape == expected.shape == (tensor.n_cells - len(observed), 3)
    assert np.array_equal(got, expected)


def write_rows_one_by_one(indices, values, mapping, path, schema):
    """Reference writer: one write call per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{schema.segment},{schema.day},{schema.slot},{schema.speed}\n")
        for (i, j, k), v in zip(np.asarray(indices).tolist(), np.asarray(values).tolist()):
            fh.write(f"{mapping.segments[i]},{mapping.days[j]},{k},{v:.6f}\n")


@pytest.mark.parametrize(
    "n, each_backend",
    [pytest.param(n, backend, id=str(n) if backend == "kernel" else f"{n}-{backend}")
     for backend in ("kernel", "numpy")
     for n in (0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1,
               2 * _CSV_BLOCK_ROWS + 3)],
    indirect=["each_backend"],
)
def test_write_records_csv_matches_row_by_row_reference(tmp_path, n, each_backend):
    rng = np.random.default_rng(n)
    mapping = IndexMapping(
        segments=tuple(f"seg-{s}" for s in rng.permutation(37)),
        days=tuple(f"2024-03-{d:02d}" for d in range(1, 12)),
        slots_per_day=288,
    )
    idx = np.column_stack([rng.integers(0, d, n) for d in mapping.dims])
    values = rng.random(n) * 120.0
    values[: n // 3] = np.round(values[: n // 3], 1)  # values with trailing zeros
    schema = CsvSchema("segment_id", "day", "slot", "predicted_speed")
    write_records_csv(idx, values, mapping, tmp_path / "blocked.csv", schema)
    write_rows_one_by_one(idx, values, mapping, tmp_path / "reference.csv", schema)
    got = (tmp_path / "blocked.csv").read_bytes()
    assert got == (tmp_path / "reference.csv").read_bytes()
    assert got.count(b"\n") == n + 1


def test_write_records_csv_rejects_rows_outside_the_mapping(tmp_path, each_backend):
    mapping = identity_mapping((3, 2, 4))
    path = tmp_path / "out.csv"
    for rows, message in [
        ([(0, 0, 9), (-1, -1, -3)], "row 0: index (0, 0, 9)"),
        ([(2, 1, 3), (-1, -1, -3)], "row 1: index (-1, -1, -3)"),
        ([(0, 0, 0), (1, 1, 1), (3, 0, 0)], "row 2: index (3, 0, 0)"),
        ([(0, 2, 0)], "row 0: index (0, 2, 0)"),
    ]:
        with pytest.raises(DataError) as exc:
            write_records_csv(rows, [1.0] * len(rows), mapping, path)
        assert str(exc.value) == f"{message} out of bounds for dims (3, 2, 4)"
    with pytest.raises(DataError, match="^1 values for 2 indices$"):
        write_records_csv([(0, 0, 0), (1, 1, 1)], [1.0], mapping, path)
    assert not path.exists()


def test_write_records_csv_quotes_ids_so_they_read_back(tmp_path, each_backend):
    mapping = IndexMapping(
        segments=("a,b", 'say "hi"', "two\nlines", "cr\rhere", " padded ", "plain"),
        days=("d 1", "d,2", '"d3"', "d\r\n4"),
        slots_per_day=3,
    )
    cells = np.argwhere(np.ones(mapping.dims, dtype=bool))
    values = np.random.default_rng(6).random(len(cells)) * 100.0
    schema = CsvSchema("segment id", "day,name", 'slot "k"', "speed", slots_per_day=3)
    path = tmp_path / "d.csv"
    write_records_csv(cells, values, mapping, path, schema)
    tensor, loaded = load_csv(path, schema, mapping)
    assert loaded == mapping
    assert np.array_equal(tensor.indices, cells)
    assert np.allclose(tensor.values, values, rtol=0, atol=5e-7)
    assert path.read_bytes().startswith(b'segment id,"day,name","slot ""k""",speed\n"a,b",d 1,0,')


def test_write_and_read_records_round_trip(tmp_path):
    spec = SyntheticSpec(dims=(5, 4, 6), ranks=Ranks(2, 2, 2), observed_fraction=0.5,
                         value_offset=3.0, seed=8)
    tensor, _ = generate_synthetic(spec)
    mapping = identity_mapping(tensor.dims)
    path = tmp_path / "d.csv"
    write_records_csv(tensor.indices, tensor.values, mapping,
                      path, CsvSchema(slots_per_day=6))
    loaded, loaded_mapping = load_csv(path, CsvSchema(slots_per_day=6))
    assert loaded.dims == tensor.dims
    assert np.array_equal(loaded.indices, tensor.indices)
    assert np.allclose(loaded.values, tensor.values, atol=5e-7, rtol=0)
    assert loaded_mapping == mapping


def test_read_targets_csv(tmp_path):
    mapping = identity_mapping((4, 3, 5))
    path = write_csv(tmp_path / "t.csv", ["2,1,4", "0,0,0"], header="segment,day,slot")
    targets = read_targets_csv(path, SCHEMA, mapping)
    assert targets.tolist() == [[2, 1, 4], [0, 0, 0]]
    bad = write_csv(tmp_path / "bad.csv", ["9,1,4"], header="segment,day,slot")
    with pytest.raises(DataError):
        read_targets_csv(bad, SCHEMA, mapping)
    for rows, header, match in [
        (["1,1"], "segment,day", "missing required column"),
        (["1,1,x"], "segment,day,slot", "malformed row at line 2"),
        (["1,1,5"], "segment,day,slot", r"line 2: slot 5 out of range \[0, 5\)"),
        (["1,7,0"], "segment,day,slot", "unknown day '7'"),
    ]:
        with pytest.raises(DataError, match=match):
            read_targets_csv(write_csv(tmp_path / "t.csv", rows, header=header), SCHEMA, mapping)


def test_load_csv_with_mapping_uses_training_mapping(tmp_path):
    # ids and the slot count come from the sidecar even when the file holds a subset
    data = write_csv(tmp_path / "d.csv", ["a,1,0,30.0", "b,1,0,20.0", "c,1,0,10.0"])
    _, mapping = load_csv(data, CsvSchema(slots_per_day=4))
    subset = write_csv(tmp_path / "s.csv", ["c,1,0,10.0"])
    tensor, used = load_csv(subset, SCHEMA, mapping)  # SCHEMA says 288 slots
    assert used is mapping
    assert tensor.dims == (3, 1, 4)
    assert tensor.indices.tolist() == [[2, 0, 0]]
    assert tensor.values.tolist() == [10.0]
    unknown = write_csv(tmp_path / "u.csv", ["zzz,1,0,10.0"])
    with pytest.raises(DataError, match="unknown segment id 'zzz'"):
        load_csv(unknown, SCHEMA, mapping)
    late = write_csv(tmp_path / "late.csv", ["a,1,4,30.0"])
    with pytest.raises(DataError, match=r"slot 4 out of range \[0, 4\)"):
        load_csv(late, SCHEMA, mapping)


# ---------------------------------------------------------------- CSV properties

_IDS = st.text("abcXYZ019.-_", min_size=1, max_size=4)


@st.composite
def record_files(draw):
    """Sorted segment ids and days, plus cells that use every one, in any order."""
    segments = tuple(_sorted_ids(draw(st.sets(_IDS, min_size=1, max_size=5))))
    days = tuple(_sorted_ids(draw(st.sets(_IDS, min_size=1, max_size=4))))
    slots = draw(st.integers(1, 6))
    cover = {(i, 0, 0) for i in range(len(segments))} | {(0, j, 0) for j in range(len(days))}
    extra = draw(st.sets(st.tuples(st.integers(0, len(segments) - 1),
                                   st.integers(0, len(days) - 1), st.integers(0, slots - 1))))
    cells = draw(st.permutations(sorted(cover | extra)))
    values = draw(st.lists(st.floats(0.0, 1e5), min_size=len(cells), max_size=len(cells)))
    return IndexMapping(segments, days, slots), np.array(cells, dtype=np.int64), values


@settings(max_examples=30, deadline=None)
@given(record_files())
def test_write_then_load_csv_round_trips(tmp_path_factory, drawn):
    mapping, cells, values = drawn
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    schema = CsvSchema(slots_per_day=mapping.slots_per_day)
    write_records_csv(cells, values, mapping, path, schema)
    tensor, loaded = load_csv(path, schema)
    assert loaded == mapping
    assert np.array_equal(tensor.indices, cells)
    assert np.allclose(tensor.values, values, rtol=0, atol=5e-7)


@settings(max_examples=30, deadline=None)
@given(record_files(), st.randoms(use_true_random=False))
def test_row_order_changes_neither_mapping_nor_entries(tmp_path_factory, drawn, rnd):
    mapping, cells, values = drawn
    rows = [f"{mapping.segments[i]},{mapping.days[j]},{k},{v!r}"
            for (i, j, k), v in zip(cells.tolist(), values)]
    shuffled = rows[:]
    rnd.shuffle(shuffled)
    schema = CsvSchema(slots_per_day=mapping.slots_per_day)
    out = tmp_path_factory.mktemp("perm")
    loads = [load_csv(write_csv(out / f"{n}.csv", r), schema) for n, r in ((0, rows), (1, shuffled))]
    (a, map_a), (b, map_b) = loads
    assert map_a == map_b == mapping
    entries = [set(zip(map(tuple, t.indices.tolist()), t.values.tolist())) for t in (a, b)]
    assert entries[0] == entries[1]


@settings(max_examples=30, deadline=None)
@given(record_files(), st.data())
def test_duplicates_name_the_earliest_repeat(tmp_path_factory, drawn, data):
    mapping, cells, _ = drawn
    assume(len(cells) >= 2)
    keys = [f"{mapping.segments[i]},{mapping.days[j]},{k}" for i, j, k in cells.tolist()]
    # repeat two different cells, each somewhere after its first row
    for key in data.draw(st.lists(st.sampled_from(keys), min_size=2, max_size=2, unique=True)):
        keys.insert(data.draw(st.integers(keys.index(key) + 1, len(keys))), key)
    first_line = {}
    for line, key in enumerate(keys, start=2):
        if key in first_line:
            break
        first_line[key] = line
    seg, day, slot = key.split(",")
    path = write_csv(tmp_path_factory.mktemp("dup") / "d.csv", [f"{k},1.5" for k in keys])
    with pytest.raises(DataError) as exc:
        load_csv(path, CsvSchema(slots_per_day=mapping.slots_per_day))
    assert str(exc.value).endswith(
        f"duplicate (segment, day, slot) {(seg, day, int(slot))} "
        f"at lines {first_line[key]} and {line}"
    )
