"""Dataset ingestion, normalization, splitting, and synthetic generators.

A Dataset couples a float64 feature matrix with ground-truth anomaly
flags and a per-row role: labeled anomaly, unlabeled (the training pool,
possibly contaminated), validation, or test. All operations are pure:
they return new datasets and never mutate their inputs. CSV files are
read CHUNK_ROWS lines at a time. numpy's C parser takes each chunk of
plain numeric lines; a chunk it cannot take goes, alone, through
csv.reader and float(), which give the same values and name the first
bad row and column. Ingest holds the float blocks plus one chunk of
text, never the whole file as text.
Every file anomix writes goes through `atomic_writer` below, so a failed
write leaves the previous file intact.
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
# Protocol defaults, written only here: labeled anomalies and the target anomaly
# share of the unlabeled pool. The feature share spliced per injected anomaly is fixed.
LABELED_ANOMALIES = 30
CONTAMINATION = 0.02
FEATURE_FRACTION = 0.05


@dataclass
class NormState:
    """Per-feature (min, max) recorded from training-role rows."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float64)
        self.maxs = np.asarray(self.maxs, dtype=np.float64)
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1:
            raise ContractViolationError("normalization bounds must be matching vectors")


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    roles: np.ndarray
    feature_names: list[str] = field(default_factory=list)
    norm_state: NormState | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.roles = np.asarray(self.roles, dtype=np.int64)
        if self.X.ndim != 2:
            raise ContractViolationError("X must be a 2-d matrix")
        n = self.X.shape[0]
        if self.y.shape != (n,) or self.roles.shape != (n,):
            raise ContractViolationError("labels and roles must have one entry per row")
        if not self.feature_names:
            self.feature_names = [f"f{i}" for i in range(self.X.shape[1])]
        if len(self.feature_names) != self.X.shape[1]:
            raise ContractViolationError("feature name count must match columns")
        if not np.isin(self.y, (0, 1)).all():
            raise ContractViolationError("labels must be 0 (normal) or 1 (anomaly)")
        if not np.isin(self.roles, [int(r) for r in Role]).all():
            raise ContractViolationError("unknown role code")
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


def write_rows(path, header, rows) -> None:
    """Atomically write a CSV: the header, then each row (floats as their repr)."""
    with atomic_writer(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload, **dumps_options) -> None:
    """Atomically write `json.dumps(payload, **dumps_options)`."""
    with atomic_writer(path) as fh:
        fh.write(json.dumps(payload, **dumps_options))


def _read_matrix(path, label_column: str | None) -> tuple[list[str], np.ndarray]:
    """(header, all cells as an (n, width) float64 matrix) of a headered CSV.

    The file is read as UTF-8, with or without a BOM; bytes that are not
    UTF-8 survive as lone surrogates, so they fail as the cell (or header
    name) that holds them. Rows are read CHUNK_ROWS at a time, so at most
    one chunk of text is held.

    Fast path: each chunk of physical lines goes through numpy's C parser
    and the shared `_checked` shape, finiteness and label checks. A chunk
    it cannot take (a quote, a blank line, a spelling only float()
    accepts, a bad cell, a ragged row, an overlong line) goes to the csv
    path, and the next chunk starts on the fast path again.

    csv path: the chunk's `csv.reader` records, read on to the end of a
    record the chunk cut, one bulk conversion (it accepts exactly the
    spellings float() does) and the same checks. The first chunk that fails
    is kept, and only it gets the per-cell scan that names the first fault
    in row-major order. Every chunk is still read, so a ragged row (or an
    unreadable one) anywhere wins over a bad cell, and both over a label
    column that is missing or named twice.
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
        label_idx = header.index(label_column) if label_count == 1 else None
        blocks: list[np.ndarray] = []
        failed = None  # (row number of its first record, records) of the first chunk that failed
        row = 2
        while lines := list(itertools.islice(fh, CHUNK_ROWS)):
            block = _parse_lines(lines, len(header), label_idx)
            if block is None:  # this chunk, and only this one, takes the csv path
                records = _records(lines, fh, path, len(header), row)
                block = _convert(records, len(header), label_idx)
                if block is None and failed is None:
                    failed = (row, records)
                row += len(records)
                del records  # so the chunk's str cells are freed before the next is read
            else:
                row += len(lines)
            if block is not None:
                blocks.append(block)
    if label_column is not None and label_count != 1:
        where = "not in" if label_count == 0 else f"named {label_count} times in"
        raise DatasetError(f"{path}: label column {label_column!r} {where} header {header}")
    if failed is not None:
        _raise_first_fault(path, header, *failed, label_idx)
    X = np.concatenate(blocks) if blocks else np.empty((0, len(header)))
    return header, X


def _records(lines: list[str], fh, path, width: int, row: int) -> list[list[str]]:
    """csv records of a chunk of lines, reading on in fh only to end a record the chunk cut.

    Each record must hold `width` fields. A csv error (e.g. a field over
    csv.field_size_limit()) becomes a DatasetError naming the file and the
    row, like a ragged row.
    """
    fed = 0

    def feed():
        nonlocal fed
        for fed, line in enumerate(itertools.chain(lines, fh), start=1):
            yield line

    records = []
    try:
        for record in csv.reader(feed()):
            if len(record) != width:
                raise DatasetError(f"{path}: row {row} has {len(record)} fields, expected {width}")
            records.append(record)
            row += 1
            if fed >= len(lines):  # csv.reader reads no line past the record it returns
                break
    except csv.Error as exc:
        raise DatasetError(f"{path}: row {row}: {exc}") from None
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


def _convert(rows, width: int, label_idx: int | None) -> np.ndarray | None:
    """One chunk of csv records as a float64 block, or None if any cell fails a check."""
    try:
        block = np.array(rows, dtype=np.float64)
    except ValueError:
        return None
    return _checked(block, len(rows), width, label_idx)


def _checked(block: np.ndarray, n: int, width: int, label_idx: int | None) -> np.ndarray | None:
    """`block` if it is (n, width), all finite, with every label in _LABEL_VALUES; else None."""
    if block.shape != (n, width) or not np.isfinite(block).all() or (
            label_idx is not None and not np.isin(block[:, label_idx], _LABEL_VALUES).all()):
        return None
    return block


def _raise_first_fault(path, header, first_line: int, rows, label_idx) -> None:
    """The per-cell scan of a chunk that failed its bulk pass: name its first bad cell."""
    for line_no, row in enumerate(rows, start=first_line):
        for i, raw in enumerate(row):
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
    """Write features plus the 0/1 label column; round-trips via load_csv.

    The bytes are csv.writer's; rows of reprs are joined about CHUNK_ROWS cells per write.
    """
    if label_column in dataset.feature_names:
        raise DatasetError(f"label column {label_column!r} collides with a feature name")
    step = max(1, CHUNK_ROWS // (dataset.n_features + 1))
    with atomic_writer(path) as fh:
        csv.writer(fh).writerow([*dataset.feature_names, label_column])
        for lo in range(0, len(dataset.X), step):
            rows = zip(dataset.X[lo:lo + step].tolist(), dataset.y[lo:lo + step].tolist())
            fh.write("".join(",".join(map(repr, [*row, label])) + "\r\n" for row, label in rows))


# ---------------------------------------------------------------------------
# Normalization and splitting
# ---------------------------------------------------------------------------


def _transform(X: np.ndarray, state: NormState) -> np.ndarray:
    """(X - mins) / span, computed in one output array; constant features map to 0."""
    span = state.maxs - state.mins
    varying = span > 0.0
    out = np.subtract(X, state.mins)
    out /= np.where(varying, span, 1.0)
    out[:, ~varying] = 0.0
    return out


def minmax_normalize(dataset: Dataset) -> Dataset:
    """Min-max scale every feature using training-role statistics.

    Training rows land in [0, 1]; validation and test rows reuse the
    training bounds and may fall outside. Constant features map to 0.
    Applying the op twice is the identity on X. Raises DatasetError naming
    the first feature column whose training span (max - min) overflows
    float64, or whose scaled values are not finite.
    """
    train = dataset.train_indices()
    if len(train) == 0:
        raise DatasetError("normalization requires assigned training rows")
    state = NormState(dataset.X[train].min(axis=0), dataset.X[train].max(axis=0))
    with np.errstate(over="ignore", invalid="ignore"):
        X = _transform(dataset.X, state)
        # min and max carry any nan or inf of a column, without a temporary the size of X.
        finite = np.isfinite(X.min(axis=0)) & np.isfinite(X.max(axis=0))
    if not finite.all():
        bad = int(np.argmin(finite))
        span = float(state.maxs[bad]) - float(state.mins[bad])  # a Python float: no warning
        cause = ("became non-finite when scaled by its training min-max bounds"
                 if math.isfinite(span)
                 else "has a training span (max - min) beyond the float64 range")
        raise DatasetError(f"feature column {dataset.feature_names[bad]!r} {cause}")
    return replace(dataset, X=X, norm_state=state)


def normalize_features(X: np.ndarray, state: NormState) -> np.ndarray:
    """Scale a bare matrix by recorded bounds (e.g. from a saved model).

    Raises DatasetError naming the first row (0-based) that scaling made
    non-finite, e.g. a finite value far outside the bounds of a tiny span.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(state.mins):
        raise DatasetError(f"expected (n, {len(state.mins)}) features, got {X.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _transform(X, state)
        # min and max carry any nan or inf, without a temporary the size of X.
        finite = out.size == 0 or math.isfinite(out.min()) and math.isfinite(out.max())
    if not finite:
        bad = int(np.argmin(np.isfinite(out).all(axis=1)))
        cause = ("holds a non-finite value" if not np.isfinite(X[bad]).all()
                 else "became non-finite when scaled by the model's min-max bounds")
        raise DatasetError(f"input row {bad} {cause}")
    return out


def split_dataset(dataset: Dataset, rng: np.random.Generator) -> Dataset:
    """Random train/valid/test split at SPLIT_RATIOS, stratified by the anomaly label.

    Each class is split independently so the anomaly proportion is
    preserved; rounding remainders go to train. Train rows start as
    unlabeled.
    """
    if dataset.n_rows < 5:
        raise DatasetError("need at least 5 rows to split")
    _, valid_share, test_share = SPLIT_RATIOS
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
    """Mark n random training anomalies as labeled.

    Every other training row, leftover anomalies included, becomes
    unlabeled; those leftovers are the contamination. A budget above the
    training anomalies available is an UnusableDatasetError, not a smaller
    labeled set.
    """
    if n < 0:
        raise InvalidParameterError("labeled-anomaly count cannot be negative")
    train = dataset.train_indices()
    candidates = train[dataset.y[train] == 1]
    if len(candidates) == 0:
        raise UnusableDatasetError("the training split contains no anomalies to label")
    if n > len(candidates):
        raise UnusableDatasetError(f"labeled_anomalies asks for {n} labeled anomalies, but the "
                                   f"training split holds only {len(candidates)}")
    roles = dataset.roles.copy()
    roles[train] = int(Role.UNLABELED)
    if n > 0:
        picked = rng.choice(candidates, size=n, replace=False)
        roles[picked] = int(Role.LABELED_ANOMALY)
    return replace(dataset, roles=roles)


def inject_anomaly(source_a, source_b, rng: np.random.Generator) -> np.ndarray:
    """Copy of source_a with ceil(FEATURE_FRACTION * D) random features taken from source_b."""
    a = np.asarray(source_a, dtype=np.float64)
    b = np.asarray(source_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ContractViolationError("sources must be two feature vectors of equal length")
    n_replace = math.ceil(FEATURE_FRACTION * len(a))
    positions = rng.choice(len(a), size=n_replace, replace=False)
    out = a.copy()
    out[positions] = b[positions]
    return out


def check_contamination(level: float) -> None:
    """Raise InvalidParameterError unless `level` is a usable target share, in [0, 0.5)."""
    if not 0.0 <= level < 0.5:
        raise InvalidParameterError(f"contamination must lie in [0, 0.5), got {level!r}")


def adjust_contamination(dataset: Dataset, level: float, rng: np.random.Generator) -> Dataset:
    """Move the unlabeled pool's anomaly share to the target `level`.

    Above target: random unlabeled anomalies are dropped. Below target:
    synthetic anomalies are appended, each a real training anomaly with
    ceil(FEATURE_FRACTION * D) features copied from a second one; injected rows
    enter the unlabeled pool with y = 1 and are never reused as splice
    sources. The achieved ratio lands within 1/|pool| of the target
    (exactly zero when the target is zero).
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
    new_rows = np.empty((n_inject, dataset.n_features))
    for i in range(n_inject):
        a = int(rng.choice(sources))
        others = sources[sources != a]
        b = int(rng.choice(others)) if len(others) else a
        new_rows[i] = inject_anomaly(dataset.X[a], dataset.X[b], rng)
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


def generate_toy(n: int, seed: int = 0, anomaly_fraction: float = 0.05) -> Dataset:
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


def _case_normals(n: int, rng: np.random.Generator) -> np.ndarray:
    which = rng.integers(0, len(CASE_NORMAL_CENTERS), size=n)
    return CASE_NORMAL_CENTERS[which] + CASE_NORMAL_SCALE * rng.standard_normal((n, 2))


def _case_clusters(centers: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    which = rng.integers(0, len(centers), size=n)
    return centers[which] + CASE_ANOMALY_SCALE * rng.standard_normal((n, 2))


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
    normals = _case_normals(n - n_anom, rng)
    if kind == "clustered":
        anomalies = _case_clusters(CASE_CLUSTERED_CENTERS, n_anom, rng)
    elif kind == "scattered":
        anomalies = _case_scattered(n_anom, rng)
    else:  # novel: one extra anomaly cluster appears only at test time
        if training:
            anomalies = _case_clusters(CASE_NOVEL_TRAIN_CENTERS, n_anom, rng)
        else:
            n_novel = n_anom // 3
            known = _case_clusters(CASE_NOVEL_TRAIN_CENTERS, n_anom - n_novel, rng)
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
                  anomaly_fraction: float = 0.05) -> tuple[Dataset, Dataset]:
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
    Each stage draws from its own named substream of the seed.
    """
    dataset = minmax_normalize(dataset)
    dataset = select_labeled_anomalies(dataset, labeled_anomalies, substream(seed, "labeling"))
    return adjust_contamination(dataset, contamination, substream(seed, "contamination"))


def prepare_dataset(dataset: Dataset, *, labeled_anomalies: int = LABELED_ANOMALIES,
                    contamination: float = CONTAMINATION, seed: int) -> Dataset:
    """Full pipeline from an unsplit dataset: split_dataset, then prepare_training."""
    return prepare_training(split_dataset(dataset, substream(seed, "split")),
                            labeled_anomalies=labeled_anomalies, contamination=contamination,
                            seed=seed)
