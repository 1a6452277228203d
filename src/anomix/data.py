"""Dataset ingestion, normalization, splitting, and synthetic generators.

A Dataset couples a float64 feature matrix with ground-truth anomaly
flags and a per-row role: labeled anomaly, unlabeled (the training pool,
possibly contaminated), validation, or test. All operations are pure:
they return new datasets and never mutate their inputs. CSV files are
read CHUNK_ROWS lines at a time by numpy's C parser, up to the first
chunk it cannot take; from there csv.reader and float() read on, with
the same values. A bad file fails at its first fault, by row and column,
and a missing label column at the header. Ingest holds the float blocks
plus one chunk of text, never the whole file as text.
Every file anomix writes goes through `atomic_writer` below, so a failed
write leaves the previous file intact; `_write_table` streams numeric tables.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import (
    ContractViolationError,
    DatasetError,
    InvalidParameterError,
    UnusableDatasetError,
)
from .rng import substream


class Role(IntEnum):
    UNASSIGNED = 0
    LABELED_ANOMALY = 1
    UNLABELED = 2
    VALID = 3
    TEST = 4


_TRAIN_ROLES = (Role.LABELED_ANOMALY, Role.UNLABELED)
_LABEL_VALUES = (0.0, 1.0, -1.0)  # accepted in a CSV label column; 1 marks an anomaly
# Lines (or csv records) that the CSV reader holds as text and converts at a time.
CHUNK_ROWS = 4096
# Train / validation / test shares of each class in split_dataset.
SPLIT_RATIOS = (0.6, 0.2, 0.2)
# Protocol defaults, written only here: labeled anomalies, the target anomaly
# share of the unlabeled pool and the anomaly share of synthetic data. The
# feature share spliced per injected anomaly is fixed.
LABELED_ANOMALIES = 30
CONTAMINATION = 0.02
ANOMALY_FRACTION = 0.05
FEATURE_FRACTION = 0.05


@dataclass
class NormState:
    """Per-feature (min, max) from training-role rows: finite, min <= max, equal if constant.

    Already-normalized features take identity bounds, `NormState(np.zeros(d), np.ones(d))`,
    and pass `normalize_features` bit for bit: x - 0.0 and x / 1.0 are exact.
    """

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        try:
            bounds = np.asarray(self.mins), np.asarray(self.maxs)
        except ValueError as exc:  # a ragged nest; numpy >= 1.24 raises (NEP 34, gh-22004)
            raise ContractViolationError("normalization bounds must be matching vectors") from exc
        for bound in bounds:
            if bound.dtype.kind not in "iuf":  # a string, bool, None or int past uint64
                raise ContractViolationError("normalization bounds hold a value that is not "
                                             f"a number (read as {bound.dtype})")
        self.mins, self.maxs = (bound.astype(np.float64, copy=False) for bound in bounds)
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1:
            raise ContractViolationError("normalization bounds must be matching vectors")
        if not (np.isfinite(self.mins).all() and np.isfinite(self.maxs).all()):
            raise ContractViolationError("normalization bounds hold non-finite values")
        if not (self.mins <= self.maxs).all():
            raise ContractViolationError("normalization bounds have a min above the max")


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    roles: np.ndarray
    feature_names: list[str] = field(default_factory=list)
    norm_state: NormState | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        # Values are checked before the int64 cast, which would truncate 0.5 to 0.
        y, roles = np.asarray(self.y), np.asarray(self.roles)
        if self.X.ndim != 2:
            raise ContractViolationError("X must be a 2-d matrix")
        n = self.X.shape[0]
        if y.shape != (n,) or roles.shape != (n,):
            raise ContractViolationError("labels and roles must have one entry per row")
        if not self.feature_names:
            self.feature_names = [f"f{i}" for i in range(self.X.shape[1])]
        if len(self.feature_names) != self.X.shape[1]:
            raise ContractViolationError("feature name count must match columns")
        if not np.isin(y, (0, 1)).all():
            raise ContractViolationError("labels must be 0 (normal) or 1 (anomaly)")
        if not np.isin(roles, [int(r) for r in Role]).all():
            raise ContractViolationError("unknown role code")
        self.y, self.roles = np.asarray(y, dtype=np.int64), np.asarray(roles, dtype=np.int64)
        bad = (self.roles == Role.LABELED_ANOMALY) & (self.y == 0)
        if bad.any():
            raise ContractViolationError("a labeled-anomaly row must have y = 1")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def indices(self, role: Role) -> np.ndarray:
        return np.flatnonzero(self.roles == int(role))

    def train_indices(self) -> np.ndarray:
        return np.flatnonzero(np.isin(self.roles, [int(r) for r in _TRAIN_ROLES]))


# ---------------------------------------------------------------------------
# CSV in / out, and the one atomic writer
# ---------------------------------------------------------------------------


@contextmanager
def atomic_writer(path):
    """Text handle on a temp file beside `path`, synced and renamed over it on success.

    Writers stream into it, so memory stays flat. A reader, or a run that
    dies mid-write, sees the old file or the new one, never a partial one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_table(path, header, columns, format_rows) -> None:
    """Atomically write `header` via csv.writer, then `format_rows(start, *slices)`, joined.

    Each slice of `columns` is CHUNK_ROWS // len(header) rows as a list, about CHUNK_ROWS
    cells; the rows must be csv.writer's bytes (CRLF line ends, each float as its repr).
    """
    step = max(1, CHUNK_ROWS // len(header))
    with atomic_writer(path) as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, len(columns[0]), step):
            fh.write("".join(format_rows(lo, *(c[lo:lo + step].tolist() for c in columns))))


def write_rows(path, header, rows) -> None:
    """Atomically write a CSV: the header, then each row (floats as their repr)."""
    with atomic_writer(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """Atomically write `json.dumps(payload, indent=1, allow_nan=False)`."""
    with atomic_writer(path) as fh:
        fh.write(json.dumps(payload, indent=1, allow_nan=False))


def _read_matrix(path, label_column: str | None) -> tuple[list[str], np.ndarray]:
    """(header, all cells as an (n, width) float64 matrix) of a headered CSV.

    The file is read as UTF-8, with or without a BOM; bytes that are not
    UTF-8 survive as lone surrogates, so they fail as the cell (or header
    name) that holds them. Rows are read CHUNK_ROWS at a time, so at most
    one chunk of text is held.

    A bad file raises at its first fault in file order, and nothing after
    it is read: the header (each name UTF-8, the label column named once),
    then row by row, each readable by csv.reader, as wide as the header,
    then its cells left to right.

    Fast path: chunks of physical lines go through numpy's C parser and
    the shared `_checked` shape, finiteness and label checks, up to the
    first chunk it cannot take (a quote, a blank line, a spelling only
    float() accepts, a bad cell, a ragged row, an overlong line).

    csv path: from that chunk to the end of the file, one `csv.reader`
    hands out batches of CHUNK_ROWS records, so a record may span any
    chunk or batch boundary, and `_convert` turns each into a block.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:
        raise DatasetError(f"cannot open {path}: {exc}") from exc
    with fh:
        try:
            header = [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise DatasetError(f"{path}: empty file, expected a header row") from None
        except csv.Error as exc:
            raise DatasetError(f"{path}: row 1: {exc}") from None
        for i, name in enumerate(header, start=1):
            try:
                name.encode("utf-8")  # fails on a lone surrogate, i.e. an escaped byte
            except UnicodeEncodeError:
                raise DatasetError(
                    f"{path}: header column {i} ({name!r}) is not valid UTF-8") from None
        label_count = header.count(label_column)
        if label_column is not None and label_count != 1:
            where = "not in" if label_count == 0 else f"named {label_count} times in"
            raise DatasetError(f"{path}: label column {label_column!r} {where} header {header}")
        label_idx = None if label_column is None else header.index(label_column)
        width = len(header)
        blocks: list[np.ndarray] = []
        row = 2
        while lines := list(itertools.islice(fh, CHUNK_ROWS)):
            block = _parse_lines(lines, width, label_idx)
            if block is None:
                break
            blocks.append(block)
            row += len(lines)
        # From the first chunk numpy's parser refused (none if it took them all), csv.reader
        # reads the rest of the file.
        reader = csv.reader(itertools.chain(lines, fh))
        while records := _records(reader, path, header, row, label_idx):
            blocks.append(_convert(path, header, row, records, label_idx))
            row += len(records)
            del records  # so the batch's str cells are freed before the next is read
    X = np.concatenate(blocks) if blocks else np.empty((0, width))
    return header, X


def _records(reader, path, header, row: int, label_idx: int | None) -> list[list[str]]:
    """The next CHUNK_ROWS records of `reader` (fewer at its end), the first being row `row`.

    A record csv.reader cannot read (e.g. a field over csv.field_size_limit()) is a
    DatasetError naming the file and its row, raised once the records before it pass `_convert`.
    """
    records = []
    try:
        for record in itertools.islice(reader, CHUNK_ROWS):
            records.append(record)
    except csv.Error as exc:
        if records:
            _convert(path, header, row, records, label_idx)
        raise DatasetError(f"{path}: row {row + len(records)}: {exc}") from None
    return records


# The ASCII separators: numpy strips them around a number, float() does not.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _parse_lines(lines: list[str], width: int, label_idx: int | None) -> np.ndarray | None:
    """One chunk of physical lines as a float64 block via numpy's C parser, or None.

    None sends the chunk to the csv path. That covers every line the
    parser would read differently from csv.reader plus float(): it skips
    blank lines (the shape check), does not know quotes (the quote fails
    to parse), would end a line at `#` without comments=None, has no
    field-size limit and strips the four ASCII separators as whitespace.
    """
    text = "".join(lines)
    if max(map(len, lines)) > csv.field_size_limit() or any(c in text for c in _SEPARATORS):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data": only blank lines
            block = np.loadtxt(lines, delimiter=",", dtype=np.float64, ndmin=2, comments=None)
    except (ValueError, UserWarning):
        return None
    return _checked(block, len(lines), width, label_idx)


def _convert(path, header, row: int, records, label_idx: int | None) -> np.ndarray:
    """A batch of csv records, the first being row `row`, as a float64 block.

    One bulk conversion (it accepts exactly the spellings float() does) and
    the `_checked` checks take a clean batch. Any other batch is scanned
    record by record, width before cells, and its first fault raised.
    """
    try:
        block = _checked(np.array(records, dtype=np.float64), len(records), len(header),
                         label_idx)
    except ValueError:
        block = None
    if block is not None:
        return block
    for line_no, record in enumerate(records, start=row):
        if len(record) != len(header):
            raise DatasetError(
                f"{path}: row {line_no} has {len(record)} fields, expected {len(header)}")
        for i, raw in enumerate(record):
            try:
                value = float(raw)
            except ValueError:
                raise DatasetError(
                    f"{path}: row {line_no}, column {header[i]!r}: non-numeric value {raw!r}"
                ) from None
            if not math.isfinite(value):
                raise DatasetError(
                    f"{path}: row {line_no}, column {header[i]!r}: non-finite value {raw!r}")
            if i == label_idx and value not in _LABEL_VALUES:
                raise DatasetError(f"{path}: row {line_no}: label {raw!r} is not binary "
                                   "(accepted: 0/1 or -1/+1)")
    raise DatasetError(f"{path}: rows {row}-{line_no} failed the bulk conversion "
                       "but pass the per-cell scan")


def _checked(block: np.ndarray, n: int, width: int, label_idx: int | None) -> np.ndarray | None:
    """`block` if it is (n, width), all finite, with every label in _LABEL_VALUES; else None."""
    if block.shape != (n, width) or not np.isfinite(block).all() or (
            label_idx is not None and not np.isin(block[:, label_idx], _LABEL_VALUES).all()):
        return None
    return block


def load_csv(path, label_column: str) -> Dataset:
    """Parse a headered CSV into a Dataset with roles unassigned.

    Feature columns must be numeric and finite; the label column accepts
    {0, 1} or {-1, +1} and maps to 0/1 with 1 meaning anomaly. Errors
    name the offending row and column.
    """
    header, cells = _read_matrix(path, label_column)
    i = header.index(label_column)
    return Dataset(np.delete(cells, i, axis=1), cells[:, i] == 1.0,
                   np.full(len(cells), int(Role.UNASSIGNED)), header[:i] + header[i + 1:])


def load_features(path) -> tuple[np.ndarray, list[str]]:
    """Parse an unlabeled CSV: every column is a numeric feature."""
    header, X = _read_matrix(path, None)
    return X, header


def write_csv(dataset: Dataset, path, label_column: str = "label") -> None:
    """Write features plus the 0/1 label column; round-trips via load_csv."""
    if label_column in dataset.feature_names:
        raise DatasetError(f"label column {label_column!r} collides with a feature name")
    _write_table(path, [*dataset.feature_names, label_column], (dataset.X, dataset.y),
                 lambda _lo, rows, labels: (",".join(map(repr, [*row, label])) + "\r\n"
                                            for row, label in zip(rows, labels)))


def write_scores(path, scores) -> None:
    """Write scores.csv: `row_index,score`, one row per score in input order."""
    _write_table(path, ["row_index", "score"], (scores,),
                 lambda lo, values: (f"{i},{v!r}\r\n" for i, v in enumerate(values, lo)))


# ---------------------------------------------------------------------------
# Normalization and splitting
# ---------------------------------------------------------------------------


def minmax_normalize(dataset: Dataset) -> Dataset:
    """Min-max scale every feature using training-role statistics.

    Training rows land in [0, 1]; validation and test rows reuse the
    training bounds and may fall outside. Constant features map to 0.
    Applying the op twice is the identity on X. A training row holding a
    non-finite value gives NormState's ContractViolationError; the scaling
    and its DatasetErrors are those of `normalize_features`.
    """
    train = dataset.train_indices()
    if len(train) == 0:
        raise DatasetError("normalization requires assigned training rows")
    state = NormState(dataset.X[train].min(axis=0), dataset.X[train].max(axis=0))
    return replace(dataset, X=normalize_features(dataset.X, state), norm_state=state)


def normalize_features(X: np.ndarray, state: NormState) -> np.ndarray:
    """(X - mins) / span by recorded bounds, computed in one output array.

    A constant feature divides by an infinite span, so its finite values map to 0. Raises
    DatasetError naming the first feature whose span (max - min) overflows float64, or else the
    first row whose result is not finite and that row's first such feature, both 0-based: a
    non-finite input in any feature, or a finite value far outside the bounds of a tiny span.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(state.mins):
        width = X.shape[1] if X.ndim == 2 else f"shape {X.shape}"
        raise DatasetError(f"the min-max bounds cover {len(state.mins)} features, "
                           f"the data has {width}")
    with np.errstate(over="ignore", invalid="ignore"):
        span = state.maxs - state.mins
        if not np.isfinite(span).all():
            raise DatasetError(f"the min-max bounds of feature {int(np.argmin(np.isfinite(span)))} "
                               "span (max - min) beyond the float64 range")
        out = np.subtract(X, state.mins)
        out /= np.where(span > 0.0, span, np.inf)
        # min and max carry any nan or inf, without a temporary the size of X.
        finite = out.size == 0 or math.isfinite(out.min()) and math.isfinite(out.max())
    if not finite:
        ok = np.isfinite(out)
        row = int(np.argmin(ok.all(axis=1)))
        col = int(np.argmin(ok[row]))
        cause = ("holds a non-finite value" if not math.isfinite(X[row, col])
                 else "became non-finite when scaled by the min-max bounds")
        raise DatasetError(f"input row {row}, feature {col} {cause}")
    return out


def split_dataset(dataset: Dataset, seed: int) -> Dataset:
    """Random train/valid/test split at SPLIT_RATIOS, stratified by the anomaly label.

    Draws from the seed's "split" substream. Each class is split
    independently so the anomaly proportion is preserved; rounding
    remainders go to train. Train rows start as unlabeled.
    """
    if dataset.n_rows < 5:
        raise DatasetError("need at least 5 rows to split")
    _, valid_share, test_share = SPLIT_RATIOS
    rng = substream(seed, "split")
    roles = np.full(dataset.n_rows, int(Role.UNLABELED))
    for cls in (0, 1):
        idx = rng.permutation(np.flatnonzero(dataset.y == cls))
        n_valid = int(valid_share * len(idx))
        n_test = int(test_share * len(idx))
        n_train = len(idx) - n_valid - n_test
        roles[idx[n_train:n_train + n_valid]] = int(Role.VALID)
        roles[idx[n_train + n_valid:]] = int(Role.TEST)
    return replace(dataset, roles=roles)


def select_labeled_anomalies(dataset: Dataset, n: int, rng: np.random.Generator) -> Dataset:
    """Mark n >= 1 random training anomalies as labeled.

    Every other training row, leftover anomalies included, becomes
    unlabeled; those leftovers are the contamination. A budget above the
    training anomalies available is an UnusableDatasetError, not a smaller
    labeled set.
    """
    check_labeled_anomalies(n)
    train = dataset.train_indices()
    candidates = train[dataset.y[train] == 1]
    if len(candidates) == 0:
        raise UnusableDatasetError("the training split contains no anomalies to label")
    if n > len(candidates):
        raise UnusableDatasetError(f"labeled_anomalies asks for {n} labeled anomalies, but the "
                                   f"training split holds only {len(candidates)}")
    roles = dataset.roles.copy()
    roles[train] = int(Role.UNLABELED)
    roles[rng.choice(candidates, size=n, replace=False)] = int(Role.LABELED_ANOMALY)
    return replace(dataset, roles=roles)


def check_labeled_anomalies(n: int) -> None:
    """Raise InvalidParameterError unless `n` is a usable labeled-anomaly budget, >= 1."""
    if n < 1:
        raise InvalidParameterError("labeled_anomalies must be positive: training needs "
                                    f"anomaly examples, got {n!r}")


def check_contamination(level: float) -> None:
    """Raise InvalidParameterError unless `level` is a usable target share, in [0, 0.5)."""
    if not 0.0 <= level < 0.5:
        raise InvalidParameterError(f"contamination must lie in [0, 0.5), got {level!r}")


def adjust_contamination(dataset: Dataset, level: float, rng: np.random.Generator) -> Dataset:
    """Move the unlabeled pool's anomaly share to the target `level`.

    Above target: random unlabeled anomalies are dropped. Below target:
    synthetic anomalies are appended, each a real training anomaly a with
    ceil(FEATURE_FRACTION * D) random features copied from a second one b
    (a itself when a is the only one). Injected rows enter the unlabeled
    pool with y = 1 and are never reused as splice sources. The achieved
    ratio lands within 1/|pool| of the target (exactly zero at target zero).
    """
    check_contamination(level)
    pool = dataset.indices(Role.UNLABELED)
    n_pool = len(pool)
    if n_pool == 0:
        raise UnusableDatasetError("no unlabeled pool to adjust")
    pool_anomalies = pool[dataset.y[pool] == 1]
    n_anom = len(pool_anomalies)
    ratio = n_anom / n_pool

    if level == 0.0:
        n_remove = n_anom
    elif ratio > level + 1.0 / n_pool:
        n_remove = math.ceil((n_anom - level * n_pool - 1.0) / (1.0 - level))
        n_remove = min(max(n_remove, 0), n_anom)
    else:
        n_remove = 0

    if n_remove > 0:
        drop = rng.choice(pool_anomalies, size=n_remove, replace=False)
        keep = np.setdiff1d(np.arange(dataset.n_rows), drop)
        return replace(dataset, X=dataset.X[keep], y=dataset.y[keep], roles=dataset.roles[keep])

    if level > 0.0 and ratio < level - 1.0 / n_pool:
        n_inject = math.ceil((level * n_pool - n_anom - 1.0) / (1.0 - level))
    else:
        n_inject = 0
    if n_inject <= 0:
        return dataset

    train = dataset.train_indices()
    sources = train[dataset.y[train] == 1]
    if len(sources) == 0:
        raise UnusableDatasetError(
            "contamination target unreachable: no real anomalies to splice from"
        )
    d = dataset.n_features
    n_spliced = math.ceil(FEATURE_FRACTION * d)
    new_rows = np.empty((n_inject, d))
    for row in new_rows:
        a = int(rng.choice(sources))
        others = sources[sources != a]
        b = int(rng.choice(others)) if len(others) else a
        positions = rng.choice(d, size=n_spliced, replace=False)
        row[:] = dataset.X[a]
        row[positions] = dataset.X[b, positions]
    return replace(
        dataset,
        X=np.vstack([dataset.X, new_rows]),
        y=np.concatenate([dataset.y, np.ones(n_inject, dtype=np.int64)]),
        roles=np.concatenate([dataset.roles, np.full(n_inject, int(Role.UNLABELED))]),
    )


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

# 10-feature toy family: 3 informative coordinates drawn from Gaussian
# clusters (one normal cluster, three anomaly clusters), 5 redundant
# features that are fixed linear combinations of the informative three,
# and 2 pure-noise features. Constants are fixed; only draws depend on
# the seed.
TOY_NORMAL_CENTER = np.zeros(3)
TOY_NORMAL_SCALE = 1.0
TOY_ANOMALY_CENTERS = np.array([
    [3.2, 0.6, 0.2],
    [2.5, 2.7, -0.5],
    [2.8, -1.6, 2.1],
])
TOY_ANOMALY_SCALE = 0.9
TOY_MIXING = np.array([
    [0.61, -0.43, 0.12],
    [-0.25, 0.88, 0.34],
    [0.47, 0.19, -0.72],
    [-0.58, -0.31, 0.55],
    [0.20, 0.64, 0.41],
])
TOY_NOISE_FEATURES = 2


def _check_generator_args(kind: str, n: int, n_min: int, seed: int,
                          anomaly_fraction: float) -> None:
    """Raise InvalidParameterError stating the first rejected argument and its value."""
    if n < n_min:
        raise InvalidParameterError(f"{kind} generator needs n >= {n_min}, got {n!r}")
    if seed < 0:
        raise InvalidParameterError(f"seed cannot be negative, got {seed!r}")
    if not 0.0 < anomaly_fraction < 0.5:
        raise InvalidParameterError(
            f"anomaly_fraction must lie in (0, 0.5), got {anomaly_fraction!r}")


def generate_toy(n: int, seed: int = 0, anomaly_fraction: float = ANOMALY_FRACTION) -> Dataset:
    """Seeded 10-feature toy dataset with a 3-cluster anomaly class."""
    _check_generator_args("toy", n, 50, seed, anomaly_fraction)
    rng = np.random.default_rng(seed)
    n_anom = int(round(anomaly_fraction * n))
    n_norm = n - n_anom
    clusters = rng.integers(0, len(TOY_ANOMALY_CENTERS), size=n_anom)
    normal = TOY_NORMAL_CENTER + TOY_NORMAL_SCALE * rng.standard_normal((n_norm, 3))
    anomalous = TOY_ANOMALY_CENTERS[clusters] + TOY_ANOMALY_SCALE * rng.standard_normal((n_anom, 3))
    informative = np.vstack([normal, anomalous])
    redundant = informative @ TOY_MIXING.T
    noise = rng.standard_normal((n, TOY_NOISE_FEATURES))
    X = np.hstack([informative, redundant, noise])
    y = np.concatenate([np.zeros(n_norm, dtype=np.int64), np.ones(n_anom, dtype=np.int64)])
    order = rng.permutation(n)
    return Dataset(X[order], y[order], np.full(n, int(Role.UNASSIGNED)))


# 2-d case family. Normals are two fixed Gaussian blobs; anomaly layout
# depends on the case kind.
CASE_KINDS = ("clustered", "scattered", "novel")
CASE_NORMAL_CENTERS = np.array([[-1.6, 0.0], [1.6, 0.0]])
CASE_NORMAL_SCALE = 0.55
CASE_ANOMALY_SCALE = 0.3
CASE_CLUSTERED_CENTERS = np.array([[0.0, 2.4], [-0.4, -2.6]])
CASE_NOVEL_TRAIN_CENTERS = np.array([[0.0, 2.4], [-4.0, -1.2]])
CASE_NOVEL_HELD_OUT = np.array([4.6, 0.4])
CASE_SCATTER_BOX = 5.5
CASE_SCATTER_MIN_SIGMA = 3.0


def _case_clusters(centers: np.ndarray, scale: float, n: int,
                   rng: np.random.Generator) -> np.ndarray:
    which = rng.integers(0, len(centers), size=n)
    return centers[which] + scale * rng.standard_normal((n, 2))


def _case_scattered(n: int, rng: np.random.Generator) -> np.ndarray:
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        batch = rng.uniform(-CASE_SCATTER_BOX, CASE_SCATTER_BOX, size=(4 * n, 2))
        dist = np.linalg.norm(batch[:, None, :] - CASE_NORMAL_CENTERS[None, :, :], axis=2)
        keep = batch[(dist / CASE_NORMAL_SCALE > CASE_SCATTER_MIN_SIGMA).all(axis=1)]
        take = min(len(keep), n - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    return out


def _case_split(kind: str, n: int, rng: np.random.Generator,
                anomaly_fraction: float, training: bool) -> tuple[np.ndarray, np.ndarray]:
    n_anom = int(round(anomaly_fraction * n))
    normals = _case_clusters(CASE_NORMAL_CENTERS, CASE_NORMAL_SCALE, n - n_anom, rng)
    if kind == "clustered":
        anomalies = _case_clusters(CASE_CLUSTERED_CENTERS, CASE_ANOMALY_SCALE, n_anom, rng)
    elif kind == "scattered":
        anomalies = _case_scattered(n_anom, rng)
    else:  # novel: one extra anomaly cluster appears only at test time
        n_novel = 0 if training else n_anom // 3
        known = _case_clusters(CASE_NOVEL_TRAIN_CENTERS, CASE_ANOMALY_SCALE, n_anom - n_novel, rng)
        novel = CASE_NOVEL_HELD_OUT + CASE_ANOMALY_SCALE * rng.standard_normal((n_novel, 2))
        anomalies = np.vstack([known, novel])
    X = np.vstack([normals, anomalies])
    y = np.concatenate([
        np.zeros(len(normals), dtype=np.int64),
        np.ones(len(anomalies), dtype=np.int64),
    ])
    order = rng.permutation(len(X))
    return X[order], y[order]


def generate_case(kind: str, n: int, seed: int = 0,
                  anomaly_fraction: float = ANOMALY_FRACTION) -> tuple[Dataset, Dataset]:
    """(train, test) pair for one 2-d anomaly-layout case.

    clustered: anomaly blobs near the normal blobs, same mixture in both
    splits. scattered: anomalies uniform outside the 3-sigma support of
    every normal blob. novel: the test split adds an anomaly cluster on
    the far right that never occurs in training. Train rows come back as
    unlabeled, test rows as test.
    """
    if kind not in CASE_KINDS:
        raise InvalidParameterError(f"unknown case kind {kind!r}; expected one of {CASE_KINDS}")
    _check_generator_args("case", n, 100, seed, anomaly_fraction)
    rng = np.random.default_rng(seed)
    X_tr, y_tr = _case_split(kind, n, rng, anomaly_fraction, training=True)
    X_te, y_te = _case_split(kind, n, rng, anomaly_fraction, training=False)
    train = Dataset(X_tr, y_tr, np.full(len(X_tr), int(Role.UNLABELED)))
    test = Dataset(X_te, y_te, np.full(len(X_te), int(Role.TEST)))
    return train, test


# ---------------------------------------------------------------------------
# Protocol pipelines
# ---------------------------------------------------------------------------


def prepare_training(dataset: Dataset, *, labeled_anomalies: int, contamination: float,
                     seed: int) -> Dataset:
    """normalize -> label selection -> contamination control.

    Expects roles already assigned (via split_dataset or a generator).
    Each stage draws from its own named substream of the seed, so
    prepare_training(split_dataset(dataset, seed), ..., seed=seed) is the
    data side of an `anomix train` run.
    """
    dataset = minmax_normalize(dataset)
    dataset = select_labeled_anomalies(dataset, labeled_anomalies, substream(seed, "labeling"))
    return adjust_contamination(dataset, contamination, substream(seed, "contamination"))

