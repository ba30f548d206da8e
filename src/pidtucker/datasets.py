"""CSV ingestion, synthetic ground-truth fixtures, and imputation export.

The sole ingestion format is a UTF-8 CSV with a header and four columns
(segment id, day, time slot, speed); column names and the number of slots per
day come from a CsvSchema.  Missing cells are encoded purely by row absence;
a speed of zero is a valid observation.  One reader checks every file read
here (data records, and target cells, which have no speed column): a single
csv.reader pass appends typed columns and stops at the first bad row, naming
its physical line; ids then map to indices in bulk, and load_csv finds
duplicated cells with the one vectorized check sparse.from_records also
uses.  load_csv either builds the id-to-index mapping from the file or is
given the one a checkpoint was trained with.  A built mapping assigns
distinct segment ids and days contiguous indices in deterministic sorted
order (numeric when every id parses as a number, lexicographic otherwise); a
given mapping fixes the indices and the slot count, and ids outside it are an
error.  The mapping is kept in a JSON sidecar so imputations can be written
back under original identifiers.
"""

from __future__ import annotations

import csv
import io
import json
import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .errors import ConfigError, DataError, _check_int, _check_real, _check_type, _real
from .model import Ranks, TuckerFactors, _drawn, _open_input, _tagged_header, predict_batch
from .sparse import (SparseTensor, _cells, _check_bounds, _check_grid, _entries,
                     _first_duplicate)

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
        _check_int("slots_per_day", self.slots_per_day, 1)


@dataclass(frozen=True)
class IndexMapping:
    """Original segment/day identifiers in index order, plus the slot count; DataError
    naming the first id that is not a distinct, non-empty string UTF-8 can encode
    (imputations are written back under them), or a slots_per_day not an int >= 1."""

    segments: tuple[str, ...]
    days: tuple[str, ...]
    slots_per_day: int

    def __post_init__(self):
        for kind, ids in (("segment", self.segments), ("day", self.days)):
            seen = set()
            for s in ids:
                if not (isinstance(s, str) and s and s not in seen):
                    raise DataError(f"{kind} id {s!r} is not a distinct non-empty string")
                try:
                    s.encode()
                except UnicodeEncodeError:
                    raise DataError(f"{kind} id {s!r} is not encodable as UTF-8") from None
                seen.add(s)
        if type(self.slots_per_day) is not int or self.slots_per_day < 1:
            raise DataError(f"slots_per_day must be an integer >= 1, got {self.slots_per_day!r}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (len(self.segments), len(self.days), self.slots_per_day)


def _write_json(payload: dict, path) -> None:
    """Write payload as JSON with sorted keys, a 2-space indent and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def save_mapping(mapping: IndexMapping, path) -> None:
    _write_json({
        "format": MAPPING_FORMAT,
        "segments": list(mapping.segments),
        "days": list(mapping.days),
        "slots_per_day": mapping.slots_per_day,
    }, path)


def load_mapping(path) -> IndexMapping:
    """Read a mapping written by save_mapping; DataError if it cannot be used.

    DataError from model._open_input and model._tagged_header (the file is
    one JSON object with segments, days and slots_per_day) and unless segments
    and days are lists; then IndexMapping's and _check_grid's, after "{path}: "
    (JSON's \\u escapes can spell an id that UTF-8 cannot encode).
    """
    with _open_input(path, "mapping") as fh:
        segments, days, slots = _tagged_header(path, "mapping", MAPPING_FORMAT, fh.read(),
                                               ("segments", "days", "slots_per_day"))
    for kind, ids in (("segment", segments), ("day", days)):
        if not isinstance(ids, list):
            raise DataError(f"{path}: {kind} ids must be a list, got {ids!r}")
    try:
        mapping = IndexMapping(tuple(segments), tuple(days), slots)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    _check_grid(mapping.dims, DataError, f"{path}: ")
    return mapping


def _check_mapping(mapping: IndexMapping, f: TuckerFactors) -> None:
    """DataError unless mapping has f's dims, as the mapping f was trained with has."""
    if mapping.dims != tuple(f.dims):
        raise DataError(
            f"mapping dims {mapping.dims} do not match checkpoint dims {tuple(f.dims)}"
        )


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


def _as_dict(header, row) -> dict:
    """A row as csv.DictReader shows it, for error messages."""
    extra = {None: row[len(header):]} if len(row) > len(header) else {}
    return {**dict(zip(header, row)), **dict.fromkeys(header[len(row):]), **extra}


def _read_rows(path, schema: CsvSchema, mapping: IndexMapping | None, speed: bool = True):
    """Checked, indexed columns of a speed-record CSV, read in one pass.

    Returns (lines, cells, speeds, mapping): each row's physical (last) line,
    its (n, 3) int64 cell, the speeds (all 0 with speed=False, when no speed
    column is needed), and the mapping, built from the file's ids when None
    is given.  Blank lines are skipped.  Raises DataError naming the line for
    malformed rows, out-of-range slots, negative or non-finite speeds, ids
    outside a given mapping and text the csv module rejects, and naming only
    the file for text that is not UTF-8.
    """
    slots_per_day = schema.slots_per_day if mapping is None else mapping.slots_per_day
    fh = io.TextIOWrapper(_open_input(path, "file"), encoding="utf-8", newline="")
    columns = (schema.segment, schema.day, schema.slot) + ((schema.speed,) if speed else ())
    lines, codes, speeds = array("q"), array("q"), array("d")
    segments, days = {}, {}  # id -> code, in first-seen order
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None) or []
            position = {name: pos for pos, name in enumerate(header)}  # last one wins
            missing = [c for c in columns if c not in position]
            if missing:
                raise DataError(f"{path}: missing required column(s) {missing}")
            s, d, t, v = (position.get(c) for c in (*columns[:3], schema.speed))
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                try:
                    seg, day, slot = row[s], row[d], int(row[t])
                    value = float(row[v]) if speed else 0.0
                    if not seg or not day:
                        raise ValueError
                except (IndexError, ValueError):
                    raise DataError(
                        f"{path}: malformed row at line {line}: {_as_dict(header, row)}"
                    ) from None
                if not 0 <= slot < slots_per_day:
                    raise DataError(
                        f"{path}: line {line}: slot {slot} out of range [0, {slots_per_day})"
                    )
                if not 0 <= value < math.inf:
                    raise DataError(f"{path}: line {line}: invalid speed {value}")
                lines.append(line)
                codes.extend((segments.setdefault(seg, len(segments)),
                              days.setdefault(day, len(days)), slot))
                speeds.append(value)
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None

    if mapping is None:
        mapping = IndexMapping(tuple(_sorted_ids(segments)), tuple(_sorted_ids(days)),
                               int(slots_per_day))  # CsvSchema takes a numpy integer too
    cells = np.asarray(codes).reshape(-1, 3)
    mapped = np.empty((len(cells), 2), dtype=np.int64)
    for m, (coded, ids) in enumerate(((segments, mapping.segments), (days, mapping.days))):
        index = {x: i for i, x in enumerate(ids)}
        mapped[:, m] = np.array([index.get(x, -1) for x in coded], dtype=np.int64)[cells[:, m]]
    unknown = (mapped < 0).ravel()  # row-major: a row's segment comes before its day
    if unknown.any():
        pos, m = divmod(int(np.argmax(unknown)), 2)
        what, ids = ("segment id", segments) if m == 0 else ("day", days)
        raise DataError(f"{path}: line {lines[pos]}: unknown {what} {list(ids)[cells[pos, m]]!r}")
    cells[:, :2] = mapped
    return lines, cells, np.asarray(speeds), mapping


def load_csv(path, schema: CsvSchema,
             mapping: IndexMapping | None = None) -> tuple[SparseTensor, IndexMapping]:
    """Read speed records into a SparseTensor plus its id-to-index mapping.

    Without a mapping, one is built from the file's distinct ids and mode
    sizes are (distinct segments, distinct days, schema.slots_per_day).  With
    one (the mapping a checkpoint was trained with), ids map through it,
    unknown ids are an error, and the slot count is mapping.slots_per_day.
    Raises DataError naming the line for malformed rows, out-of-range slots,
    negative or non-finite speeds, and duplicated (segment, day, slot) cells,
    and ConfigError for a grid _check_grid rejects (a slot count too large).
    """
    lines, cells, speeds, mapping = _read_rows(path, schema, mapping)
    if not lines:
        raise DataError(f"{path}: no data rows")
    _check_grid(mapping.dims, ConfigError, f"{path}: ")
    dup = _first_duplicate(np.ravel_multi_index(cells.T, mapping.dims))
    if dup is not None:
        i, j, k = cells[dup[1]].tolist()
        raise DataError(
            f"{path}: duplicate (segment, day, slot) {(mapping.segments[i], mapping.days[j], k)} "
            f"at lines {lines[dup[0]]} and {lines[dup[1]]}"
        )
    return SparseTensor(mapping.dims, cells, speeds), mapping


def read_targets_csv(path, schema: CsvSchema, mapping: IndexMapping) -> np.ndarray:
    """Read (segment, day, slot) target cells and map them to indices."""
    return _read_rows(path, schema, mapping, speed=False)[1]


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
        if not (_real(self.observed_fraction) and 0.0 < self.observed_fraction <= 1.0):
            raise ConfigError(
                f"observed_fraction must be in (0, 1], got {self.observed_fraction}"
            )
        _check_type("ranks", self.ranks, Ranks)
        _check_real("noise_sigma", self.noise_sigma)
        _check_real("value_offset", self.value_offset, signed=True)
        _check_int("seed", self.seed, 0)
        _check_grid(self.dims, ConfigError)
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
    ConfigError, from model._drawn, when the model cannot be allocated, and
    SparseTensor's DataError when a value is not finite.
    """
    rng = np.random.default_rng(spec.seed)
    truth = _drawn(spec.dims, spec.ranks, spec.value_offset, lambda s: 1.0 - rng.random(s),
                   lambda s: 0.5 - rng.random(s))
    n_cells = math.prod(truth.dims)
    n_obs = int(round(spec.observed_fraction * n_cells))
    try:  # rng.choice lists every cell of the grid
        flat = np.sort(rng.choice(n_cells, size=n_obs, replace=False))
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"cannot draw {n_obs} of {n_cells} cells: {exc}") from None
    ii, jj, kk = np.unravel_index(flat, truth.dims)
    indices = np.column_stack((ii, jj, kk)).astype(np.int64)

    with np.errstate(over="ignore", invalid="ignore"):  # SparseTensor refuses non-finite values
        values = predict_batch(truth, indices)
        if spec.noise_sigma > 0:
            values = values + rng.normal(0.0, spec.noise_sigma, size=n_obs)
    return SparseTensor(truth.dims, indices, values), truth


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
    cleared, and lists the cells it still holds in one pass (np.nonzero on
    the grid-shaped mask).  The result is a C-contiguous (n, 3) int64 array
    of every missing cell, sorted by segment, then day, then slot, which is
    the order in which predict_batch's kernel reuses a segment's work.
    DataError naming the dims and the cell count when the mask or the list
    does not fit in memory.
    """
    try:
        missing = np.ones(tensor.n_cells, dtype=bool)
        missing[np.ravel_multi_index(tensor.indices.T, tensor.dims)] = False
        cells = np.stack(np.nonzero(missing.reshape(tensor.dims)), axis=1)
    except MemoryError as exc:
        raise DataError(f"cannot list the missing cells of dims {tensor.dims} "
                        f"({tensor.n_cells} cells) in memory: {exc}") from None
    return cells.astype(np.int64, copy=False)  # a copy only where intp is not int64


def _csv_line(fields) -> str:
    """fields as csv.writer writes them, each quoted only where it must be, without a line end."""
    out = io.StringIO()
    csv.writer(out).writerow(fields)
    return out.getvalue()[:-2]


def write_records_csv(indices, values, mapping: IndexMapping, path,
                      schema: CsvSchema | None = None) -> None:
    """Write observed entries as a speed-record CSV (6 decimal places).

    Ids and column names are quoted as csv.writer quotes them, so any id
    reads back as itself.  Every index is checked against mapping.dims before
    the file is opened; DataError names the first row outside them.  Rows are
    formatted _CSV_BLOCK_ROWS at a time and each block is written with one
    call.  A block's bytes come from the compiled `records` writer in
    _kernel.c, or from the f-string code below, the reference, when the
    kernel did not load or `records` returns None (for a block holding a nan,
    an infinity or a |v| >= 1e12); both format a value as format(v, ".6f")
    does, so the bytes are the same.
    """
    schema = schema or CsvSchema()
    idx, vals = _entries(indices, values)
    _check_bounds(idx, mapping.dims, "row")
    segments, days = (tuple(f"{_csv_line([x])},".encode() for x in ids)
                      for ids in (mapping.segments, mapping.days))
    columns = (schema.segment, schema.day, schema.slot, schema.speed)
    lib = _kernel.library()
    with open(path, "wb") as fh:
        fh.write(f"{_csv_line(columns)}\n".encode())
        for start in range(0, len(idx), _CSV_BLOCK_ROWS):
            cells, block = idx[start:start + _CSV_BLOCK_ROWS], vals[start:start + _CSV_BLOCK_ROWS]
            rows = None if lib is None else lib.records(segments, days, mapping.slots_per_day,
                                                        cells, block)
            if rows is None:
                ii, jj, kk = cells.T.tolist()
                rows = b"".join([segments[i] + days[j] + f"{k},{v:.6f}\n".encode()
                                 for i, j, k, v in zip(ii, jj, kk, block.tolist())])
            fh.write(rows)


_IMPUTED_SCHEMA = CsvSchema("segment_id", "day", "slot", "predicted_speed")


def export_imputed(f: TuckerFactors, targets, mapping: IndexMapping, path) -> None:
    """Write model values for the target cells under original identifiers.

    Output CSV: segment_id,day,slot,predicted_speed with 6 decimal places.
    DataError from _check_mapping unless mapping has f's dims, and from
    sparse._cells unless targets is an (n, 3) array of integers.
    """
    _check_mapping(mapping, f)
    idx = _cells(targets)
    write_records_csv(idx, predict_batch(f, idx), mapping, path, _IMPUTED_SCHEMA)
