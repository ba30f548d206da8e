"""CSV ingestion, synthetic ground-truth fixtures, and imputation export.

The sole ingestion format is a UTF-8 CSV with a header and four columns
(segment id, day, time slot, speed); column names and the number of slots per
day come from a CsvSchema.  Missing cells are encoded purely by row absence;
a speed of zero is a valid observation.  One row parser checks every file
read here (data records, and target cells, which have no speed column).
load_csv either builds the id-to-index mapping from the file or is given the
one a checkpoint was trained with.  A built mapping assigns distinct segment
ids and days contiguous indices in deterministic sorted order (numeric when
every id parses as a number, lexicographic otherwise); a given mapping fixes
the indices and the slot count, and ids outside it are an error.  The mapping
is kept in a JSON sidecar so imputations can be written back under original
identifiers.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .model import Ranks, TuckerFactors, predict_batch
from .sparse import SparseTensor, from_records

MAPPING_FORMAT = "pidtucker-mapping-v1"

# Rows formatted per write in write_records_csv (about 1-2 MB of text).
_CSV_BLOCK_ROWS = 65_536


@dataclass(frozen=True)
class CsvSchema:
    """Column names and slot count for speed-record CSV files."""

    segment: str = "segment"
    day: str = "day"
    slot: str = "slot"
    speed: str = "speed"
    slots_per_day: int = 288

    def __post_init__(self):
        if self.slots_per_day < 1:
            raise ConfigError(f"slots_per_day must be >= 1, got {self.slots_per_day}")


@dataclass(frozen=True)
class IndexMapping:
    """Original segment/day identifiers in index order, plus the slot count."""

    segments: tuple[str, ...]
    days: tuple[str, ...]
    slots_per_day: int

    @property
    def dims(self) -> tuple[int, int, int]:
        return (len(self.segments), len(self.days), self.slots_per_day)


def save_mapping(mapping: IndexMapping, path) -> None:
    payload = {
        "format": MAPPING_FORMAT,
        "segments": list(mapping.segments),
        "days": list(mapping.days),
        "slots_per_day": mapping.slots_per_day,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_mapping(path) -> IndexMapping:
    """Read a mapping written by save_mapping; DataError if it cannot be used."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read mapping: {exc}") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise DataError(f"{path}: not a mapping file ({exc})") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: not a mapping file (a JSON object is expected)")
    if payload.get("format") != MAPPING_FORMAT:
        raise DataError(f"{path}: unsupported mapping format {payload.get('format')!r}")
    try:
        return IndexMapping(
            segments=tuple(payload["segments"]),
            days=tuple(payload["days"]),
            slots_per_day=int(payload["slots_per_day"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed mapping ({exc!r})") from None


def _numeric_key(s: str):
    # NaN compares false with everything, so it would leave the order to the
    # input's (hash-seeded) set order; a total order puts NaN ids last.
    x = float(s)
    return (True, 0.0, s) if math.isnan(x) else (False, x, s)


def _sorted_ids(ids) -> list[str]:
    """Sort ids numerically when they all parse as numbers, else lexicographically.

    Ids whose number is NaN sort after every other id, by their string.
    """
    ids = list(ids)
    try:
        return sorted(ids, key=_numeric_key)
    except ValueError:
        return sorted(ids)


def _read_rows(path, schema: CsvSchema, slots_per_day: int, speed: bool = True):
    """Checked (line, segment, day, slot, speed) rows of a speed-record CSV.

    With speed=False the file needs no speed column and each row's speed is
    None.  Raises DataError naming the line for malformed rows, out-of-range
    slots, and negative or non-finite speeds.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read file: {exc}") from None
    columns = (schema.segment, schema.day, schema.slot) + ((schema.speed,) if speed else ())
    rows = []
    with fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or [])]
        if missing:
            raise DataError(f"{path}: missing required column(s) {missing}")
        for lineno, row in enumerate(reader, start=2):
            seg = row[schema.segment]
            day = row[schema.day]
            try:
                slot = int(row[schema.slot])
                value = float(row[schema.speed]) if speed else None
            except (TypeError, ValueError):
                raise DataError(f"{path}: malformed row at line {lineno}: {row}") from None
            if not seg or not day:
                raise DataError(f"{path}: malformed row at line {lineno}: {row}")
            if not 0 <= slot < slots_per_day:
                raise DataError(
                    f"{path}: line {lineno}: slot {slot} out of range [0, {slots_per_day})"
                )
            if speed and (not math.isfinite(value) or value < 0):
                raise DataError(f"{path}: line {lineno}: invalid speed {value}")
            rows.append((lineno, seg, day, slot, value))
    return rows


def _index_rows(path, rows, mapping: IndexMapping) -> list[tuple[int, int, int]]:
    """Cell indices of parsed rows; ids absent from the mapping are an error."""
    seg_index = {s: i for i, s in enumerate(mapping.segments)}
    day_index = {d: j for j, d in enumerate(mapping.days)}
    out = []
    for lineno, seg, day, slot, _ in rows:
        if seg not in seg_index:
            raise DataError(f"{path}: line {lineno}: unknown segment id {seg!r}")
        if day not in day_index:
            raise DataError(f"{path}: line {lineno}: unknown day {day!r}")
        out.append((seg_index[seg], day_index[day], slot))
    return out


def load_csv(path, schema: CsvSchema,
             mapping: IndexMapping | None = None) -> tuple[SparseTensor, IndexMapping]:
    """Read speed records into a SparseTensor plus its id-to-index mapping.

    Without a mapping, one is built from the file's distinct ids and mode
    sizes are (distinct segments, distinct days, schema.slots_per_day).  With
    one (the mapping a checkpoint was trained with), ids map through it,
    unknown ids are an error, and the slot count is mapping.slots_per_day.
    Raises DataError naming the line for malformed rows, out-of-range slots,
    negative or non-finite speeds, and duplicated (segment, day, slot) cells.
    """
    slots = schema.slots_per_day if mapping is None else mapping.slots_per_day
    rows = _read_rows(path, schema, slots)
    if not rows:
        raise DataError(f"{path}: no data rows")
    seen: dict[tuple[str, str, int], int] = {}
    for lineno, seg, day, slot, _ in rows:
        key = (seg, day, slot)
        if key in seen:
            raise DataError(
                f"{path}: duplicate (segment, day, slot) {key} at lines "
                f"{seen[key]} and {lineno}"
            )
        seen[key] = lineno

    if mapping is None:
        mapping = IndexMapping(
            segments=tuple(_sorted_ids({r[1] for r in rows})),
            days=tuple(_sorted_ids({r[2] for r in rows})),
            slots_per_day=slots,
        )
    cells = _index_rows(path, rows, mapping)
    records = [(i, j, k, r[4]) for (i, j, k), r in zip(cells, rows)]
    return from_records(mapping.dims, records), mapping


def read_targets_csv(path, schema: CsvSchema, mapping: IndexMapping) -> np.ndarray:
    """Read (segment, day, slot) target cells and map them to indices."""
    rows = _read_rows(path, schema, mapping.slots_per_day, speed=False)
    return np.asarray(_index_rows(path, rows, mapping), dtype=np.int64).reshape(-1, 3)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a seeded ground-truth fixture of known Tucker structure."""

    dims: tuple[int, int, int]
    ranks: Ranks
    observed_fraction: float
    noise_sigma: float = 0.0
    value_offset: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.observed_fraction <= 1.0:
            raise ConfigError(
                f"observed_fraction must be in (0, 1], got {self.observed_fraction}"
            )
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        cells = self.dims[0] * self.dims[1] * self.dims[2]
        if self.observed_fraction * cells < 10:
            raise ConfigError(
                f"observed_fraction {self.observed_fraction} of {cells} cells "
                f"leaves fewer than 10 entries"
            )


def generate_synthetic(spec: SyntheticSpec) -> tuple[SparseTensor, TuckerFactors]:
    """Sample a ground-truth model and an observed subset of its cells.

    Factor and core entries are i.i.d. uniform on (0, 1], biases uniform on
    (-0.5, 0.5], and the global offset is value_offset.  Cells are drawn
    uniformly without replacement at observed_fraction; observed values are
    the model value plus Gaussian noise of the given sigma.  Fully
    deterministic per seed (draw order: factors, core, biases, cells, noise).
    """
    rng = np.random.default_rng(spec.seed)
    dims = tuple(int(x) for x in spec.dims)
    r1, r2, r3 = spec.ranks.as_tuple()

    factors = tuple(1.0 - rng.random((d, r)) for d, r in zip(dims, (r1, r2, r3)))
    core = 1.0 - rng.random((r1, r2, r3))
    biases = tuple(0.5 - rng.random(d) for d in dims)
    truth = TuckerFactors(dims, spec.ranks, core, factors, biases,
                          float(spec.value_offset))

    n_cells = dims[0] * dims[1] * dims[2]
    n_obs = int(round(spec.observed_fraction * n_cells))
    flat = np.sort(rng.choice(n_cells, size=n_obs, replace=False))
    ii, jj, kk = np.unravel_index(flat, dims)
    indices = np.column_stack((ii, jj, kk)).astype(np.int64)

    values = predict_batch(truth, indices)
    if spec.noise_sigma > 0:
        values = values + rng.normal(0.0, spec.noise_sigma, size=n_obs)

    records = [(int(a), int(b), int(c), float(v))
               for (a, b, c), v in zip(indices, values)]
    return from_records(dims, records), truth


def identity_mapping(dims) -> IndexMapping:
    """Mapping whose original ids are the stringified indices themselves."""
    return IndexMapping(
        segments=tuple(str(i) for i in range(dims[0])),
        days=tuple(str(j) for j in range(dims[1])),
        slots_per_day=int(dims[2]),
    )


def missing_indices(tensor: SparseTensor) -> np.ndarray:
    """All cells of the tensor grid that carry no observation, row-major order.

    Works on a one-byte-per-cell mask of the grid with the observed cells
    cleared; the result is an (n, 3) int64 array holding every missing cell.
    """
    missing = np.ones(tensor.n_cells, dtype=bool)
    missing[np.ravel_multi_index(
        (tensor.indices[:, 0], tensor.indices[:, 1], tensor.indices[:, 2]), tensor.dims
    )] = False
    ii, jj, kk = np.unravel_index(np.flatnonzero(missing), tensor.dims)
    return np.column_stack((ii, jj, kk)).astype(np.int64)


def write_records_csv(indices, values, mapping: IndexMapping, path,
                      schema: CsvSchema | None = None) -> None:
    """Write observed entries as a speed-record CSV (6 decimal places).

    Rows are formatted _CSV_BLOCK_ROWS at a time and each block is written
    with one call; the bytes equal one write per row.
    """
    schema = schema or CsvSchema()
    idx = np.asarray(indices, dtype=np.int64)
    vals = np.asarray(values, dtype=np.float64)
    segments = [f"{s}," for s in mapping.segments]
    days = [f"{d}," for d in mapping.days]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{schema.segment},{schema.day},{schema.slot},{schema.speed}\n")
        for start in range(0, len(idx), _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            ii, jj, kk = idx[start:stop].T.tolist()
            fh.write("".join([
                f"{segments[i]}{days[j]}{k},{v:.6f}\n"
                for i, j, k, v in zip(ii, jj, kk, vals[start:stop].tolist())
            ]))


_IMPUTED_SCHEMA = CsvSchema("segment_id", "day", "slot", "predicted_speed")


def export_imputed(f: TuckerFactors, targets, mapping: IndexMapping, path) -> None:
    """Write model values for the target cells under original identifiers.

    Output CSV: segment_id,day,slot,predicted_speed with 6 decimal places.
    """
    if mapping.dims != tuple(f.dims):
        raise DataError(
            f"mapping dims {mapping.dims} do not match checkpoint dims {tuple(f.dims)}"
        )
    idx = np.asarray(targets, dtype=np.int64).reshape(-1, 3)
    write_records_csv(idx, predict_batch(f, idx), mapping, path, _IMPUTED_SCHEMA)
