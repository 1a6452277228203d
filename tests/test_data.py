import csv
import io
import math
import re
import warnings
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from anomix.data import (
    CASE_NORMAL_CENTERS,
    CASE_NORMAL_SCALE,
    CASE_NOVEL_HELD_OUT,
    CASE_SCATTER_MIN_SIGMA,
    TOY_ANOMALY_CENTERS,
    FEATURE_FRACTION,
    TOY_MIXING,
    Dataset,
    NormState,
    Role,
    adjust_contamination,
    atomic_writer,
    check_contamination,
    generate_case,
    generate_toy,
    load_csv,
    load_features,
    minmax_normalize,
    normalize_features,
    prepare_training,
    select_labeled_anomalies,
    split_dataset,
    write_csv,
    write_rows,
    write_scores,
)
from anomix.errors import (
    ContractViolationError,
    DatasetError,
    InvalidParameterError,
    UnusableDatasetError,
)
from anomix.metrics import auc_roc
from anomix.scorer import TANH_LIMIT
from tests.conftest import identity_bounds


def _dataset(X, y, role=Role.UNLABELED):
    return Dataset(np.asarray(X, float), np.asarray(y), np.full(len(y), int(role)))


# -- csv ------------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    ds = _dataset([[1.25, -3.5], [0.0, 2.0], [7.0, 0.125]], [0, 1, 0])
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    back = load_csv(path, "label")
    assert back.n_rows == 3 and back.n_features == 2
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)
    assert np.all(back.roles == int(Role.UNASSIGNED))


def test_csv_label_aliases(tmp_path):
    path = tmp_path / "pm.csv"
    path.write_text("a,b,label\n1,2,-1\n3,4,1\n", encoding="utf-8")
    ds = load_csv(path, "label")
    assert ds.y.tolist() == [0, 1]
    path01 = tmp_path / "01.csv"
    path01.write_text("a,b,label\n1,2,0\n3,4,1\n", encoding="utf-8")
    assert load_csv(path01, "label").y.tolist() == [0, 1]


def test_csv_rejects_text_cell_naming_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n1,2,0\n1,oops,1\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"row 3.*'b'.*'oops'"):
        load_csv(path, "label")


def test_csv_rejects_nan_and_ragged_and_nonbinary(tmp_path):
    nan_path = tmp_path / "nan.csv"
    nan_path.write_text("a,label\nnan,0\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="non-finite"):
        load_csv(nan_path, "label")

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b,label\n1,2,0\n1,2\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="row 3"):
        load_csv(ragged, "label")

    nonbin = tmp_path / "nb.csv"
    nonbin.write_text("a,label\n1,2\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="not binary"):
        load_csv(nonbin, "label")

    # Two faults: the first in row-major order is the one named.
    two = tmp_path / "two.csv"
    two.write_text("a,label\n1,2\noops,0\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"row 2: label '2' is not binary"):
        load_csv(two, "label")


# Cell spellings where a bulk parse could disagree with float().
SPELLINGS = [" 1.5 ", "1_000", "+3", "-0", "0x10", "\u0661\u0662", "nan", "inf", "-inf", "",
             "1,5", "1e400", "5e-324", "1__0", ".5", "2#3", "\x1c1", "1\x1f", "1\u2003"]


@pytest.mark.parametrize("cell", SPELLINGS)
def test_load_features_accepts_exactly_what_float_accepts(cell, tmp_path):
    path = tmp_path / "cell.csv"
    write_rows(path, ["a", "b"], [["1", cell]])
    try:
        expected = float(cell)
    except ValueError:
        with pytest.raises(DatasetError, match=r"row 2, column 'b': non-numeric value"):
            load_features(path)
        return
    if not math.isfinite(expected):
        with pytest.raises(DatasetError, match=r"row 2, column 'b': non-finite value"):
            load_features(path)
        return
    X, header = load_features(path)
    assert header == ["a", "b"]
    assert X.tobytes() == np.array([[1.0, expected]]).tobytes()


def test_header_only_file_gives_empty_matrix(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("a,b,label\n", encoding="utf-8")
    X, header = load_features(path)
    assert X.shape == (0, 3) and X.dtype == np.float64 and header == ["a", "b", "label"]
    ds = load_csv(path, "label")
    assert ds.X.shape == (0, 2) and ds.y.shape == (0,) and ds.feature_names == ["a", "b"]


_EDGE_VALUES = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1.7e308, -1.7e308]


@st.composite
def _labeled_matrices(draw):
    X = draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                                     max_side=12),
                        elements=st.sampled_from(_EDGE_VALUES)
                        | st.floats(allow_nan=False, allow_infinity=False)))
    y = draw(hnp.arrays(np.int64, len(X), elements=st.integers(0, 1)))
    return X, y


@settings(deadline=None, derandomize=True)
@given(data=_labeled_matrices(), plus_minus=st.booleans())
def test_csv_round_trip_is_bitwise(data, plus_minus, tmp_path_factory):
    X, y = data
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    ds = _dataset(X, y)
    if plus_minus:  # the {-1, +1} label encoding, written by hand
        write_rows(path, [*ds.feature_names, "label"],
                   (row + [("-1", "+1")[label]] for row, label in zip(X.tolist(), y.tolist())))
    else:
        write_csv(ds, path)
    back = load_csv(path, "label")
    assert back.X.shape == X.shape
    assert back.X.tobytes() == X.tobytes()
    assert back.y.tolist() == y.tolist()
    assert back.feature_names == ds.feature_names


@contextmanager
def _tapped_writes():
    """Record every text that a writer hands to `anomix.data.atomic_writer`'s handle."""
    writes, real = [], atomic_writer

    @contextmanager
    def tapped(path):
        with real(path) as fh:
            yield SimpleNamespace(write=lambda text: writes.append(text) or fh.write(text))

    with mock.patch("anomix.data.atomic_writer", tapped):
        yield writes


@st.composite
def _named_matrices(draw):
    """A labeled matrix and feature names that need quoting: commas, quotes, line breaks."""
    X, y = draw(_labeled_matrices())
    names = draw(st.lists(st.text(st.sampled_from('ab,"\r\n '), min_size=1, max_size=4),
                          min_size=X.shape[1], max_size=X.shape[1]))
    return X, y, names


@settings(deadline=None, derandomize=True)
@given(data=_named_matrices())
@example(data=(np.empty((3, 0)), np.array([0, 1, 0]), []))
@example(data=(np.array([[-0.0, 5e-324, 1e308]]), np.array([1]), ["a,b", 'q"t', "n\nl"]))
def test_write_csv_bytes_equal_csv_writer(data, tmp_path_factory):
    # write_csv joins the reprs itself, a few rows per write; its bytes stay csv.writer's
    X, y, names = data
    path = tmp_path_factory.getbasetemp() / "written.csv"
    with mock.patch("anomix.data.CHUNK_ROWS", 8), _tapped_writes() as writes:
        write_csv(Dataset(X, y, np.full(len(y), int(Role.UNLABELED)), names), path)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow([*names, "label"])
    writer.writerows(row + [label] for row, label in zip(X.tolist(), y.tolist()))
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
    # The patched CHUNK_ROWS, read at call time, sets the rows per write.
    step = max(1, 8 // (len(names) + 1))
    assert len(writes) == 1 + -(-len(y) // step)


def test_write_scores_bytes_equal_csv_writer(tmp_path):
    # Signed zeros, the clipped tanh ends and a subnormal, two rows per write.
    scores = np.array([-0.0, TANH_LIMIT, -TANH_LIMIT, 0.0, 5e-324, 0.1])
    path = tmp_path / "scores.csv"
    with mock.patch("anomix.data.CHUNK_ROWS", 4), _tapped_writes() as writes:
        write_scores(path, scores)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["row_index", "score"])
    writer.writerows(enumerate(scores.tolist()))
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
    assert len(writes) == 4
    back, header = load_features(path)
    assert header == ["row_index", "score"] and back[:, 1].tobytes() == scores.tobytes()


CHUNK = 4


@pytest.mark.parametrize("n", [0, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_chunked_read_equals_one_shot_conversion(n, tmp_path, monkeypatch, rng):
    monkeypatch.setattr("anomix.data.CHUNK_ROWS", CHUNK)
    rows = [[repr(v) for v in row] for row in rng.normal(size=(n, 3)).tolist()]
    labels = [("0", "1", "-1")[i % 3] for i in range(n)]
    path = tmp_path / "rows.csv"
    write_rows(path, ["a", "b", "c", "label"], (row + [y] for row, y in zip(rows, labels)))
    X, header = load_features(path)
    expected = np.array([row + [y] for row, y in zip(rows, labels)],
                        dtype=np.float64).reshape(n, 4)
    assert header == ["a", "b", "c", "label"]
    assert X.tobytes() == expected.tobytes() and X.shape == (n, 4)
    ds = load_csv(path, "label")
    assert ds.X.tobytes() == np.ascontiguousarray(expected[:, :3]).tobytes()
    assert ds.y.tolist() == [int(y == "1") for y in labels]


def _chunked_file(tmp_path, faults, header=("a", "label")):
    """A 12-row file, chunks of CHUNK rows, with `faults` mapping line number -> row."""
    rows = {line: ["0.5", "0"] for line in range(2, 14)}
    rows.update(faults)
    path = tmp_path / "faults.csv"
    write_rows(path, header, (rows[line] for line in sorted(rows)))
    return path


@pytest.mark.parametrize("faults,header,expected", [
    # A bad cell in chunk 1 and a ragged row in chunk 3: the first fault, the bad cell.
    pytest.param({3: ["oops", "0"], 11: ["1"]}, ("a", "label"),
                 r"row 3, column 'a': non-numeric value 'oops'$", id="bad-cell-then-ragged-row"),
    # No label column and a ragged row in a later chunk: the header fails first.
    pytest.param({12: ["1", "0", "2"]}, ("a", "b"), r"label column 'label' not in header",
                 id="no-label-column-then-ragged-row"),
    ({2: ["0.5", "0"]}, ("a", "b"), r"label column 'label' not in header"),
    # Bad cells in chunks 2 and 3: the chunk-2 cell, with its line number.
    ({8: ["0.5", "7"], 10: ["inf", "0"]}, ("a", "label"), r"row 8: label '7' is not binary"),
    ({9: ["nan", "0"], 12: ["x", "0"]}, ("a", "label"),
     r"row 9, column 'a': non-finite value 'nan'$"),
    ({7: ["0.5", "0"], 13: ["0.5", "1,0"]}, ("a", "label"),
     r"row 13, column 'label': non-numeric value '1,0'$"),
])
def test_fault_precedence_across_chunks(faults, header, expected, tmp_path, monkeypatch):
    monkeypatch.setattr("anomix.data.CHUNK_ROWS", CHUNK)
    path = _chunked_file(tmp_path, faults, header)
    with pytest.raises(DatasetError, match=expected):
        load_csv(path, "label")


def test_a_batch_the_bulk_pass_refuses_is_never_dropped(tmp_path, monkeypatch):
    # Were the bulk checks to refuse a batch whose every cell passes the scan, the
    # batch must not go missing from the matrix: the converter raises instead.
    monkeypatch.setattr("anomix.data.CHUNK_ROWS", CHUNK)
    monkeypatch.setattr("anomix.data._checked", lambda *_args: None)
    path = _chunked_file(tmp_path, {})
    with pytest.raises(DatasetError, match=r"rows 2-5 failed the bulk conversion but pass the "
                                           r"per-cell scan$"):
        load_csv(path, "label")


@pytest.mark.parametrize("header, expected", [
    (("a", "b"), "label column 'label' not in header ['a', 'b']"),
    (("label", "label"), "label column 'label' named 2 times in header ['label', 'label']"),
])
def test_a_bad_label_column_fails_before_any_row_is_read(header, expected, tmp_path,
                                                         monkeypatch):
    # the header alone decides, whatever the rows hold, on a file of any length
    path = _chunked_file(tmp_path, {3: ["oops", "0"], 11: ["1"]}, header)

    def a_row_was_read(*_args):
        raise AssertionError("a row was read before the label column was checked")

    monkeypatch.setattr("anomix.data._parse_lines", a_row_was_read)
    monkeypatch.setattr("anomix.data._records", a_row_was_read)
    with pytest.raises(DatasetError, match=re.escape(f"{path}: {expected}") + "$"):
        load_csv(path, "label")


def test_csv_missing_pieces(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(DatasetError):
        load_csv(missing, "label")
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DatasetError, match="header"):
        load_csv(empty, "label")
    nolabel = tmp_path / "nolabel.csv"
    nolabel.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="label column"):
        load_csv(nolabel, "label")
    twice = tmp_path / "twice.csv"
    twice.write_text("a,label,label\n1,0,1\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"label column 'label' named 2 times in header"):
        load_csv(twice, "label")
    assert load_features(twice)[1] == ["a", "label", "label"]


def test_oversized_field_names_the_file_and_row(tmp_path, monkeypatch):
    monkeypatch.setattr("anomix.data.CHUNK_ROWS", CHUNK)
    big = "0" * (csv.field_size_limit() + 1)  # reads as 0.0 if no limit applied
    for line, expected in [(3, r"row 3: field larger than field limit"),
                           (9, r"row 9: field larger than field limit")]:
        path = _chunked_file(tmp_path, {line: ["0.5", big]}, header=("a", "b"))
        with pytest.raises(DatasetError, match=re.escape(str(path)) + ": " + expected):
            load_features(path)
    # An unreadable record is the first fault only if its batch holds none before it.
    for faults, expected in [({3: ["oops", "0"], 4: ["0.5", big]},
                              r"row 3, column 'a': non-numeric value 'oops'$"),
                             ({3: ["0.5", big], 4: ["oops", "0"]},
                              r"row 3: field larger than field limit")]:
        path = _chunked_file(tmp_path, faults, header=("a", "b"))
        with pytest.raises(DatasetError, match=re.escape(str(path)) + ": " + expected):
            load_features(path)
    path = tmp_path / "header.csv"
    path.write_text(f"a,{big}\n1,2\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"row 1: field larger than field limit"):
        load_features(path)


def test_bytes_that_are_not_utf8_name_their_cell(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,b\n1,2\n3,\xff\n")
    with pytest.raises(DatasetError, match=r"row 3, column 'b': non-numeric value '\\udcff'$"):
        load_features(path)
    path.write_bytes(b"a,\xffb,label\n1,2,0\n")
    with pytest.raises(DatasetError,
                       match=r"header column 2 \('\\udcffb'\) is not valid UTF-8$"):
        load_csv(path, "label")


def test_a_utf8_bom_is_not_part_of_the_first_column_name(tmp_path):
    path = tmp_path / "excel.csv"
    path.write_bytes("label,a,b\r\n0,1.5,2\r\n1,3,-4\r\n".encode("utf-8-sig"))
    ds = load_csv(path, "label")
    assert ds.feature_names == ["a", "b"] and ds.y.tolist() == [0, 1]
    assert ds.X.tolist() == [[1.5, 2.0], [3.0, -4.0]]
    assert load_features(path)[1] == ["label", "a", "b"]


def test_a_chunk_of_blank_lines_is_a_ragged_row_not_a_warning(tmp_path, monkeypatch):
    monkeypatch.setattr("anomix.data.CHUNK_ROWS", CHUNK)
    path = tmp_path / "blank.csv"
    path.write_text("a,b\n1,2\n3,4\n5,6\n7,8\n" + "\n" * CHUNK, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DatasetError, match=r"row 6 has 0 fields, expected 2$"):
            load_features(path)
    assert [str(w.message) for w in caught] == []


def test_a_clean_file_never_takes_the_csv_path(tmp_path, monkeypatch, rng):
    monkeypatch.setattr("anomix.data.CHUNK_ROWS", CHUNK)
    X = rng.normal(size=(3 * CHUNK + 1, 3))
    path = tmp_path / "clean.csv"
    write_rows(path, ["a", "b", "c"], X.tolist())

    def csv_path(*_args):
        raise AssertionError("a clean chunk went to the csv path")

    monkeypatch.setattr("anomix.data._convert", csv_path)
    assert load_features(path)[0].tobytes() == X.tobytes()


@pytest.mark.parametrize("quoted_line, newline, fast", [
    pytest.param(2, False, [False], id="row-2"),
    pytest.param(2, True, [False], id="row-2-multiline"),
    # the multi-line record starts on chunk 1's last line and ends in chunk 2
    pytest.param(CHUNK + 1, True, [False], id="cut-by-the-chunk"),
    pytest.param(CHUNK + 2, True, [True, False], id="opens-chunk-2"),
])
def test_the_csv_path_reads_on_from_the_first_quoted_chunk(quoted_line, newline, fast,
                                                           tmp_path, monkeypatch, rng):
    # numpy's parser takes the chunks before the quoted cell; from the chunk
    # that holds it, csv.reader reads the rest of the file
    from anomix.data import _parse_lines as parse

    monkeypatch.setattr("anomix.data.CHUNK_ROWS", CHUNK)
    X = rng.normal(size=(4 * CHUNK, 2))
    lines = [f"{a!r},{b!r}\n" for a, b in X.tolist()]
    a, b = X[quoted_line - 2].tolist()
    lines[quoted_line - 2] = f'"{a!r}{chr(10) * newline}",{b!r}\n'
    path = tmp_path / "quoted.csv"
    path.write_text("a,b\n" + "".join(lines), encoding="utf-8")
    taken = []

    def spy(chunk, *args):
        block = parse(chunk, *args)
        taken.append(block is not None)
        return block

    monkeypatch.setattr("anomix.data._parse_lines", spy)
    assert load_features(path)[0].tobytes() == X.tobytes()
    assert taken == fast


@pytest.mark.parametrize("fault, expected", [
    pytest.param("0.5,0", None, id="clean"),
    pytest.param("1", r"row 11 has 1 fields, expected 2$", id="ragged"),
    pytest.param("0.5,x", r"row 11, column 'b': non-numeric value 'x'$", id="bad-cell"),
])
def test_csv_path_rows_count_records_across_batches(fault, expected, tmp_path, monkeypatch):
    # Row 2's quote sends the file to the csv path. Rows 5 and 6, the last
    # record of one CHUNK-record batch and the first of the next, span three
    # physical lines each, and row 5 starts on chunk 1's last line, so physical
    # lines and records part ways before the fault in row 11.
    monkeypatch.setattr("anomix.data.CHUNK_ROWS", CHUNK)
    rows = {line: "0.5,0" for line in range(2, 14)}
    rows.update({2: '"0.5",0', 5: '"\n\n0.25",0', 6: '1,"2\n\n"', 11: fault})
    path = tmp_path / "records.csv"
    path.write_text("a,b\n" + "".join(rows[line] + "\n" for line in sorted(rows)),
                    encoding="utf-8")
    if expected is not None:
        with pytest.raises(DatasetError, match=re.escape(str(path)) + ": " + expected):
            load_features(path)
        return
    X, _header = load_features(path)
    cells = [[0.5, 0.0]] * 12
    cells[3], cells[4] = [0.25, 0.0], [1.0, 2.0]
    assert X.tobytes() == np.array(cells).tobytes()


def _reference_read(path, label_column):
    """What _read_matrix returns or raises, rebuilt from csv.reader records and float():
    the label column is checked first, then row by row, each row's width before its cells."""
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        if label_column is not None and label_column not in header:
            raise DatasetError(f"{path}: label column {label_column!r} not in header {header}")
        rows = []
        for row_no, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise DatasetError(f"{path}: row {row_no} has {len(record)} fields, "
                                   f"expected {len(header)}")
            for name, raw in zip(header, record):
                try:
                    value = float(raw)
                except ValueError:
                    raise DatasetError(f"{path}: row {row_no}, column {name!r}: "
                                       f"non-numeric value {raw!r}") from None
                if not math.isfinite(value):
                    raise DatasetError(f"{path}: row {row_no}, column {name!r}: "
                                       f"non-finite value {raw!r}")
                if name == label_column and value not in (0.0, 1.0, -1.0):
                    raise DatasetError(f"{path}: row {row_no}: label {raw!r} is not binary "
                                       "(accepted: 0/1 or -1/+1)")
            rows.append(record)
    cells = np.array([[float(raw) for raw in record] for record in rows])
    return header, cells.reshape(len(rows), len(header))


# Beyond SPELLINGS: bytes that are not UTF-8, multi-line values and a quote mark.
_PARITY_CELLS = SPELLINGS + ["\udcff", "1.5\n", "\r\n2", 'x"y', "-1e-400"]


@st.composite
def _csv_texts(draw):
    """CSV text with mostly repr floats, some odd cells, blank lines and mixed endings."""
    names = draw(st.permutations(["a", "b", "label"]))[:draw(st.integers(1, 3))]
    plain = {"label": st.sampled_from(["0", "1", "-1"])}
    odd = {"label": st.sampled_from(["+1", " 1 ", "1.0", "-0", "2"])}

    def cell(name):
        if draw(st.integers(0, 9)):  # most cells are plain
            return draw(plain.get(name, st.floats(allow_nan=False, allow_infinity=False).map(repr)))
        return draw(odd.get(name, st.sampled_from(_PARITY_CELLS)))

    def quoted(raw):
        if any(c in raw for c in ',"\r\n') or draw(st.integers(0, 9)) == 0:
            return '"' + raw.replace('"', '""') + '"'
        return raw

    lines = [",".join(quoted(name) for name in names)]
    for _ in range(draw(st.integers(0, 13))):
        lines.append(",".join(quoted(cell(name)) for name in names))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):  # blank or whitespace-only runs
        at = draw(st.integers(1, len(lines)))
        lines[at:at] = [draw(st.sampled_from(["", "", " ", "\t"]))] * draw(st.integers(1, 5))
    endings = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    text = "".join(line + draw(endings) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    return ("\ufeff" if draw(st.integers(0, 3)) == 0 else "") + text


def _outcome(read):
    try:
        return read()
    except DatasetError as exc:
        return str(exc)


@settings(deadline=None, derandomize=True, max_examples=400)
@given(text=_csv_texts())
def test_fast_and_csv_paths_agree_with_csv_reader_and_float(text, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "parity.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("anomix.data.CHUNK_ROWS", CHUNK)
        got = _outcome(lambda: load_features(path))
        expected = _outcome(lambda: _reference_read(path, None))
        if isinstance(expected, str):
            assert got == expected
        else:
            assert not isinstance(got, str), got
            X, header = got
            assert header == expected[0] and X.shape == expected[1].shape
            assert X.tobytes() == expected[1].tobytes()

        got = _outcome(lambda: load_csv(path, "label"))
        expected = _outcome(lambda: _reference_read(path, "label"))
        if isinstance(expected, str):
            assert got == expected
        else:
            assert not isinstance(got, str), got
            header, cells = expected
            i = header.index("label")
            assert got.feature_names == header[:i] + header[i + 1:]
            assert got.X.tobytes() == np.delete(cells, i, axis=1).tobytes()
            assert got.y.tolist() == (cells[:, i] == 1.0).tolist()


# -- normalization ----------------------------------------------------------------


def test_minmax_affine_map():
    ds = _dataset([[0.0], [5.0], [10.0]], [0, 0, 1])
    out = minmax_normalize(ds)
    assert np.allclose(out.X[:, 0], [0.0, 0.5, 1.0])
    assert out.norm_state.mins[0] == 0.0 and out.norm_state.maxs[0] == 10.0


def test_minmax_constant_feature_maps_to_zero():
    ds = _dataset([[3.0, 1.0], [3.0, 2.0]], [0, 1])
    out = minmax_normalize(ds)
    assert np.all(out.X[:, 0] == 0.0)
    # New rows too, whatever their finite value in the constant feature: -0.0 below it.
    fresh = normalize_features(np.array([[7.0, 1.5], [-2.0, 3.0], [1e300, 1.0]]), out.norm_state)
    assert fresh.tolist() == [[0.0, 0.5], [0.0, 2.0], [0.0, 0.0]]
    assert np.signbit(fresh[:, 0]).tolist() == [False, True, False]
    # A constant feature scales by the rule of every feature, so a non-finite value is refused,
    # and so is a finite one whose distance from the constant overflows float64.
    with pytest.raises(DatasetError, match=r"^input row 0, feature 0 holds a non-finite value$"):
        normalize_features(np.array([[np.nan, 0.5], [np.inf, 0.25]]),
                           NormState([3.0, 0.0], [3.0, 1.0]))
    with pytest.raises(DatasetError, match=r"^input row 1, feature 0 holds a non-finite value$"):
        normalize_features(np.array([[2.0, 1.5], [-np.inf, 1.5]]), out.norm_state)
    with pytest.raises(DatasetError, match=r"^input row 0, feature 0 became non-finite when "
                                           r"scaled by the min-max bounds$"):
        normalize_features(np.array([[-1e308, 0.5]]), NormState([1e308, 0.0], [1e308, 1.0]))


def test_minmax_uses_training_stats_only():
    X = [[0.0], [10.0], [12.0]]
    roles = [int(Role.UNLABELED), int(Role.UNLABELED), int(Role.TEST)]
    ds = Dataset(np.array(X), np.array([0, 0, 1]), np.array(roles))
    out = minmax_normalize(ds)
    assert out.X[2, 0] == pytest.approx(1.2, abs=1e-15)  # test rows may leave [0, 1]
    train = out.X[:2, 0]
    assert train.min() == 0.0 and train.max() == 1.0


def test_minmax_idempotent():
    ds = _dataset(np.random.default_rng(0).normal(size=(20, 4)), np.zeros(20, dtype=int))
    once = minmax_normalize(ds)
    twice = minmax_normalize(once)
    assert np.array_equal(once.X, twice.X)


def test_minmax_requires_training_rows():
    ds = _dataset([[1.0], [2.0]], [0, 1], role=Role.TEST)
    with pytest.raises(DatasetError):
        minmax_normalize(ds)


def test_minmax_names_the_column_whose_span_or_scale_overflows():
    X = np.zeros((4, 3))
    X[:, 2] = [0.5, 1.0, 0.0, 2.0]
    X[0, 1], X[1, 1] = 1.5e308, -1.5e308  # each finite, their span is not
    ds = _dataset(X, [0, 0, 0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings would fail here
        with pytest.raises(DatasetError) as err:
            minmax_normalize(ds)
        assert str(err.value) == ("the min-max bounds of feature 1 span (max - min) "
                                  "beyond the float64 range")
        # A finite span of 1e-10 sends a finite test row past the float range.
        roles = [int(Role.UNLABELED)] * 2 + [int(Role.TEST)]
        tiny = Dataset(np.array([[0.0, 0.0], [1.0, 1e-10], [0.5, 1e300]]), np.array([0, 0, 1]),
                       np.array(roles))
        with pytest.raises(DatasetError) as err:
            minmax_normalize(tiny)
        assert str(err.value) == ("input row 2, feature 1 became non-finite when scaled by "
                                  "the min-max bounds")


def test_normalize_features_dimension_check():
    state = minmax_normalize(_dataset([[0.0], [2.0]], [0, 0])).norm_state
    with pytest.raises(DatasetError, match=r"^the min-max bounds cover 1 features, the data has 2$"):
        normalize_features(np.array([[1.0, 2.0]]), state)
    with pytest.raises(DatasetError,
                       match=r"^the min-max bounds cover 1 features, the data has shape \(2,\)$"):
        normalize_features(np.array([1.0, 2.0]), state)


def test_normalize_features_names_the_first_bad_row_and_its_first_bad_feature():
    state = NormState([0.0, 0.0, 0.0], [1.0, 1e-10, 1.0])
    X = np.array([[0.5, 0.5e-10, 0.5], [0.5, 1e300, np.nan], [np.inf, 0.0, 0.5]])
    with pytest.raises(DatasetError, match=r"^input row 1, feature 1 became non-finite when "
                                           r"scaled by the min-max bounds$"):
        normalize_features(X, state)
    X[1, 1] = 0.0
    with pytest.raises(DatasetError, match=r"^input row 1, feature 2 holds a non-finite value$"):
        normalize_features(X, state)


def test_minmax_refuses_a_non_finite_training_value():
    # nan bounds would scale the column to zeros, inf bounds to nan
    for bad in (np.nan, np.inf):
        ds = _dataset([[0.0, 1.0], [bad, 2.0], [1.0, 3.0]], [0, 0, 1])
        with pytest.raises(ContractViolationError, match="bounds hold non-finite values"):
            minmax_normalize(ds)


def test_identity_bounds_give_the_features_bit_for_bit():
    # x - 0.0 and x / 1.0 are exact, signed zeros, subnormals and the float64 extremes included
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300, 1e308, -1e308,
             np.finfo(np.float64).max, -np.finfo(np.float64).max, 0.5, -3.75]
    X = np.concatenate([edges, np.random.default_rng(3).normal(size=34)]).reshape(12, 4)
    out = normalize_features(X, identity_bounds(4))
    assert out.tobytes() == X.tobytes()
    assert np.signbit(out[0, 1]) and not np.signbit(out[0, 0])


# -- splitting ----------------------------------------------------------------------


def test_split_stratified_counts():
    y = np.array([1] * 10 + [0] * 90)
    ds = Dataset(np.random.default_rng(1).normal(size=(100, 3)), y,
                 np.full(100, int(Role.UNASSIGNED)))
    out = split_dataset(ds, 2)
    for role, n_anom, n_norm in ((Role.UNLABELED, 6, 54), (Role.VALID, 2, 18), (Role.TEST, 2, 18)):
        idx = out.indices(role)
        assert out.y[idx].sum() == n_anom
        assert len(idx) - out.y[idx].sum() == n_norm


def test_split_remainders_go_to_train():
    y = np.array([1, 0, 0, 0, 0])
    ds = Dataset(np.arange(10.0).reshape(5, 2), y, np.full(5, int(Role.UNASSIGNED)))
    out = split_dataset(ds, 0)
    anomaly_role = out.roles[out.y == 1][0]
    assert anomaly_role == int(Role.UNLABELED)  # single anomaly lands in train


def test_split_roles_partition_everything():
    ds = generate_toy(500, seed=4)
    out = split_dataset(ds, 1)
    assert (out.roles != int(Role.UNASSIGNED)).all()
    assert len(out.train_indices()) + len(out.indices(Role.VALID)) + len(out.indices(Role.TEST)) == 500


def test_split_determinism_and_validation():
    ds = generate_toy(200, seed=4)
    a = split_dataset(ds, 9)
    b = split_dataset(ds, 9)
    assert np.array_equal(a.roles, b.roles)
    tiny = _dataset([[1.0]] * 4, [0, 0, 0, 1])
    with pytest.raises(DatasetError):
        split_dataset(tiny, 0)


# -- label selection -------------------------------------------------------------------


def _training_pool(n_anom=50, n_norm=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_anom + n_norm, 3))
    y = np.array([1] * n_anom + [0] * n_norm)
    return Dataset(X, y, np.full(len(y), int(Role.UNLABELED)))


def test_select_labeled_anomalies_counts():
    ds = select_labeled_anomalies(_training_pool(), 30, np.random.default_rng(0))
    assert len(ds.indices(Role.LABELED_ANOMALY)) == 30
    pool = ds.indices(Role.UNLABELED)
    assert ds.y[pool].sum() == 20  # leftover anomalies contaminate the pool


def test_select_labeled_anomalies_boundaries():
    # A budget of 0 leaves training no anomaly examples: refused as the CLI refuses it.
    for n in (0, -1):
        with pytest.raises(InvalidParameterError, match=re.escape(
                "labeled_anomalies must be positive: training needs anomaly examples, "
                f"got {n}")):
            select_labeled_anomalies(_training_pool(), n, np.random.default_rng(0))
    exact = select_labeled_anomalies(_training_pool(n_anom=5), 5, np.random.default_rng(0))
    assert len(exact.indices(Role.LABELED_ANOMALY)) == 5
    # A budget the data cannot meet fails; it is never met by labeling fewer.
    with pytest.raises(UnusableDatasetError, match="asks for 30 labeled anomalies, but the "
                                                   "training split holds only 5"):
        select_labeled_anomalies(_training_pool(n_anom=5), 30, np.random.default_rng(0))
    with pytest.raises(UnusableDatasetError):
        select_labeled_anomalies(_training_pool(n_anom=0), 30, np.random.default_rng(0))


# -- contamination control --------------------------------------------------------------


def _pool_with(n_anom, n_norm, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n_anom + n_norm, 4))
    y = np.array([1] * n_anom + [0] * n_norm)
    return Dataset(X, y, np.full(len(y), int(Role.UNLABELED)))


def test_contamination_removal_worked_example():
    ds = _pool_with(40, 960)  # pool of 1000 with 40 anomalies
    out = adjust_contamination(ds, 0.02, np.random.default_rng(0))
    pool = out.indices(Role.UNLABELED)
    assert len(pool) == 980  # 20 removed
    assert out.y[pool].sum() == 20


def test_contamination_injection_worked_example():
    ds = _pool_with(10, 990)  # pool of 1000 with 10 anomalies
    out = adjust_contamination(ds, 0.02, np.random.default_rng(0))
    pool = out.indices(Role.UNLABELED)
    assert len(pool) == 1010  # 10 injected
    assert out.y[pool].sum() == 20


def test_contamination_fixed_point():
    ds = _pool_with(20, 980)
    out = adjust_contamination(ds, 0.02, np.random.default_rng(0))
    assert out is ds


def test_contamination_zero_target_removes_everything():
    ds = _pool_with(15, 100)
    out = adjust_contamination(ds, 0.0, np.random.default_rng(0))
    pool = out.indices(Role.UNLABELED)
    assert out.y[pool].sum() == 0


def test_contamination_tolerance_holds_on_random_cases():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n_anom = int(rng.integers(0, 80))
        n_norm = int(rng.integers(200, 1200))
        target = float(rng.uniform(0.005, 0.1))
        ds = _pool_with(n_anom, n_norm, seed=int(rng.integers(1e6)))
        if n_anom == 0:
            continue
        out = adjust_contamination(ds, target, rng)
        pool = out.indices(Role.UNLABELED)
        achieved = out.y[pool].sum() / len(pool)
        assert abs(achieved - target) <= 1.0 / len(pool) + 1e-12


def test_contamination_unreachable_without_sources():
    ds = _pool_with(0, 100)
    with pytest.raises(UnusableDatasetError):
        adjust_contamination(ds, 0.02, np.random.default_rng(0))


def test_contamination_level_must_lie_in_zero_to_half():
    # The one rule for a target level, checked alike by the CLI and by adjust_contamination.
    for level in (0.5, 0.7, -0.01, math.nan):
        message = re.escape(f"contamination must lie in [0, 0.5), got {level!r}")
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            check_contamination(level)
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            adjust_contamination(_pool_with(10, 90), level, np.random.default_rng(0))
    check_contamination(0.0)
    check_contamination(0.499)


def test_injected_rows_are_unlabeled_anomalies():
    ds = _pool_with(5, 995)
    out = adjust_contamination(ds, 0.02, np.random.default_rng(1))
    added = out.n_rows - ds.n_rows
    assert added > 0
    assert np.all(out.y[ds.n_rows:] == 1)
    assert np.all(out.roles[ds.n_rows:] == int(Role.UNLABELED))


# -- anomaly injection ---------------------------------------------------------------------


def _injected(sources, rng):
    """The rows adjust_contamination appends when `sources` are the only training anomalies.

    The sources are labeled anomalies; 200 unlabeled normal rows of 0.5 make the
    pool, which a 0.1 target fills with 22 injected rows.
    """
    sources = np.asarray(sources, dtype=float)
    n_norm = 200
    roles = [int(Role.LABELED_ANOMALY)] * len(sources) + [int(Role.UNLABELED)] * n_norm
    ds = Dataset(np.vstack([sources, np.full((n_norm, sources.shape[1]), 0.5)]),
                 [1] * len(sources) + [0] * n_norm, roles)
    out = adjust_contamination(ds, 0.1, rng)
    assert out.n_rows == ds.n_rows + 22 and np.array_equal(out.X[:ds.n_rows], ds.X)
    return out.X[ds.n_rows:]


def test_inject_anomaly_counts(rng):
    assert FEATURE_FRACTION == 0.05  # the fixed splice share the README states
    for d, spliced in ((20, 1), (78, 4)):  # ceil(0.05 * 20), ceil(0.05 * 78) = ceil(3.9)
        rows = _injected([np.zeros(d), np.ones(d)], rng)
        # The sources differ everywhere: each row is one of them with `spliced`
        # features of the other, and both serve as the copied source.
        assert set(rows.sum(axis=1).tolist()) == {spliced, d - spliced}


def test_inject_anomaly_self_is_identity(rng):
    # A lone training anomaly splices with itself.
    row = rng.normal(size=13)
    assert (_injected([row], rng) == row).all()


def test_inject_anomaly_changes_only_differing_positions(rng):
    a = rng.normal(size=200)
    b = a.copy()
    b[:50] += 1.0  # only the first fifty positions differ
    for row in _injected([a, b], rng):
        assert np.array_equal(row[50:], a[50:])
        assert min((row != a).sum(), (row != b).sum()) <= math.ceil(FEATURE_FRACTION * 200)


def test_inject_anomaly_fraction_domain(rng):
    # The fixed share splices at least one feature and never more than D: each
    # injected row holds one source's features at all but ceil(0.05 * D)
    # positions and a second source's there.
    assert 0.0 < FEATURE_FRACTION <= 1.0
    for d in (1, 2, 19, 20, 21):
        spliced = math.ceil(FEATURE_FRACTION * d)
        assert 1 <= spliced <= d
        for row in _injected([np.full(d, 1.0), np.full(d, 2.0), np.full(d, 3.0)], rng):
            values, counts = np.unique(row, return_counts=True)
            assert set(values.tolist()) <= {1.0, 2.0, 3.0}
            assert sorted(counts.tolist()) == sorted(n for n in (spliced, d - spliced) if n)


# -- toy generator ---------------------------------------------------------------------------


def test_toy_redundant_features_are_exact_combinations():
    ds = generate_toy(500, seed=1)
    informative = ds.X[:, :3]
    redundant = ds.X[:, 3:8]
    assert np.array_equal(redundant, informative @ TOY_MIXING.T)


def test_toy_noise_features_uncorrelated_with_labels():
    ds = generate_toy(10000, seed=2)
    for col in (8, 9):
        corr = np.corrcoef(ds.X[:, col], ds.y)[0, 1]
        assert abs(corr) < 0.1


def test_toy_anomalies_occupy_three_recoverable_clusters():
    ds = generate_toy(10000, seed=3)
    anomalies = ds.X[ds.y == 1][:, :3]
    dist = np.linalg.norm(anomalies[:, None, :] - TOY_ANOMALY_CENTERS[None], axis=2)
    nearest = dist.argmin(axis=1)
    assert set(nearest.tolist()) == {0, 1, 2}
    assert np.all(dist.min(axis=1) < 5.0)


def test_toy_linear_probe_reaches_high_auc():
    ds = generate_toy(6000, seed=4)
    informative = ds.X[:, :3]
    mu1 = informative[ds.y == 1].mean(axis=0)
    mu0 = informative[ds.y == 0].mean(axis=0)
    pooled = np.cov(informative.T) + 1e-6 * np.eye(3)
    direction = np.linalg.solve(pooled, mu1 - mu0)
    assert auc_roc(informative @ direction, ds.y) >= 0.95


def test_toy_fraction_and_validation():
    ds = generate_toy(1000, seed=5, anomaly_fraction=0.1)
    assert ds.y.sum() == 100
    with pytest.raises(InvalidParameterError, match=r"toy generator needs n >= 50, got 10$"):
        generate_toy(10, seed=0)
    with pytest.raises(InvalidParameterError, match=r"seed cannot be negative, got -1$"):
        generate_toy(100, seed=-1)
    with pytest.raises(InvalidParameterError,
                       match=r"anomaly_fraction must lie in \(0, 0\.5\), got 0\.7$"):
        generate_toy(100, seed=0, anomaly_fraction=0.7)


def test_toy_deterministic():
    a = generate_toy(300, seed=6)
    b = generate_toy(300, seed=6)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


# -- case generators ---------------------------------------------------------------------------


def test_case_roles_and_shapes():
    train, test = generate_case("clustered", 400, seed=1)
    assert np.all(train.roles == int(Role.UNLABELED))
    assert np.all(test.roles == int(Role.TEST))
    assert train.n_rows == 400 and test.n_rows == 400
    assert train.n_features == 2


def test_case_clustered_train_test_same_mixture():
    train, test = generate_case("clustered", 4000, seed=2)
    for cls in (0, 1):
        delta = np.abs(train.X[train.y == cls].mean(axis=0) - test.X[test.y == cls].mean(axis=0))
        assert np.all(delta < 0.2)


def test_case_scattered_anomalies_outside_normal_support():
    train, test = generate_case("scattered", 2000, seed=3)
    for ds in (train, test):
        anomalies = ds.X[ds.y == 1]
        dist = np.linalg.norm(anomalies[:, None, :] - CASE_NORMAL_CENTERS[None], axis=2)
        assert np.all(dist / CASE_NORMAL_SCALE > CASE_SCATTER_MIN_SIGMA)


def test_case_novel_cluster_absent_from_training():
    train, test = generate_case("novel", 3000, seed=4)
    r = 1.0
    train_anom = train.X[train.y == 1]
    test_anom = test.X[test.y == 1]
    train_near = np.linalg.norm(train_anom - CASE_NOVEL_HELD_OUT, axis=1) < r
    test_near = np.linalg.norm(test_anom - CASE_NOVEL_HELD_OUT, axis=1) < r
    assert train_near.sum() == 0
    assert test_near.sum() > 0


def test_case_validation():
    with pytest.raises(InvalidParameterError):
        generate_case("weird", 500, seed=0)
    with pytest.raises(InvalidParameterError, match=r"case generator needs n >= 100, got 50$"):
        generate_case("clustered", 50, seed=0)
    with pytest.raises(InvalidParameterError, match=r"seed cannot be negative, got -2$"):
        generate_case("novel", 500, seed=-2)
    with pytest.raises(InvalidParameterError,
                       match=r"anomaly_fraction must lie in \(0, 0\.5\), got 0\.0$"):
        generate_case("scattered", 500, seed=0, anomaly_fraction=0.0)


# -- protocol pipeline -------------------------------------------------------------------------


def test_prepare_training_end_state():
    toy = generate_toy(4000, seed=7)
    prepared = prepare_training(split_dataset(toy, 7), labeled_anomalies=30, contamination=0.02,
                                seed=7)
    assert len(prepared.indices(Role.LABELED_ANOMALY)) == 30
    pool = prepared.indices(Role.UNLABELED)
    achieved = prepared.y[pool].sum() / len(pool)
    assert abs(achieved - 0.02) <= 1.0 / len(pool) + 1e-12
    train_rows = prepared.X[prepared.train_indices()]
    assert train_rows.min() >= 0.0 and train_rows.max() <= 1.0
    assert (prepared.roles != int(Role.UNASSIGNED)).all()


_X = np.zeros((3, 2))
_Y = np.zeros(3)
_ROLES = np.full(3, int(Role.UNLABELED))


@pytest.mark.parametrize("make, error, message", [
    pytest.param(lambda _: NormState([0.0, 0.0], [1.0]), ContractViolationError,
                 "normalization bounds must be matching vectors", id="bounds-unequal"),
    pytest.param(lambda _: NormState(np.zeros((1, 2)), np.ones((1, 2))), ContractViolationError,
                 "normalization bounds must be matching vectors", id="bounds-2d"),
    pytest.param(lambda _: Dataset(np.zeros(3), _Y, _ROLES), ContractViolationError,
                 "X must be a 2-d matrix", id="X-1d"),
    pytest.param(lambda _: Dataset(_X, np.zeros(2), _ROLES), ContractViolationError,
                 "labels and roles must have one entry per row", id="labels-short"),
    pytest.param(lambda _: Dataset(_X, _Y, _ROLES[:2]), ContractViolationError,
                 "labels and roles must have one entry per row", id="roles-short"),
    pytest.param(lambda _: Dataset(_X, _Y, _ROLES, ["a"]), ContractViolationError,
                 "feature name count must match columns", id="names-short"),
    pytest.param(lambda _: Dataset(_X, [0, 2, 0], _ROLES), ContractViolationError,
                 "labels must be 0 (normal) or 1 (anomaly)", id="label-2"),
    pytest.param(lambda _: Dataset(_X, _Y, [2, 9, 2]), ContractViolationError,
                 "unknown role code", id="role-9"),
    pytest.param(lambda _: Dataset(_X, np.array([0.5, 1.7, 0.0]), _ROLES), ContractViolationError,
                 "labels must be 0 (normal) or 1 (anomaly)", id="label-0.5"),
    pytest.param(lambda _: Dataset(_X, _Y, [2, 2.5, 2]), ContractViolationError,
                 "unknown role code", id="role-2.5"),
    pytest.param(lambda _: Dataset(_X, _Y, [int(Role.LABELED_ANOMALY), 2, 2]),
                 ContractViolationError, "a labeled-anomaly row must have y = 1",
                 id="labeled-normal"),
    pytest.param(lambda tmp: write_csv(Dataset(_X, _Y, _ROLES, ["label", "b"]), tmp / "t.csv"),
                 DatasetError, "label column 'label' collides with a feature name",
                 id="label-collides"),
    pytest.param(lambda _: adjust_contamination(Dataset(_X, _Y, np.full(3, int(Role.VALID))),
                                                0.1, np.random.default_rng(0)),
                 UnusableDatasetError, "no unlabeled pool to adjust", id="no-pool"),
])
def test_data_contract_errors(make, error, message, tmp_path):
    with pytest.raises(error) as caught:
        make(tmp_path)
    assert type(caught.value) is error
    assert str(caught.value) == message
    assert not (tmp_path / "t.csv").exists()
