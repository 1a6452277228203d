import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from anomix.data import (
    CASE_NORMAL_CENTERS,
    CASE_NORMAL_SCALE,
    CASE_NOVEL_HELD_OUT,
    CASE_SCATTER_MIN_SIGMA,
    TOY_ANOMALY_CENTERS,
    TOY_MIXING,
    ContaminationSpec,
    Dataset,
    Role,
    adjust_contamination,
    generate_case,
    generate_toy,
    inject_anomaly,
    load_csv,
    load_features,
    minmax_normalize,
    normalize_features,
    prepare_dataset,
    prepare_training,
    select_labeled_anomalies,
    split_dataset,
    write_csv,
    write_rows,
)
from anomix.errors import (
    ContractViolationError,
    DatasetError,
    InvalidParameterError,
    UnusableDatasetError,
)
from anomix.metrics import auc_roc
from anomix.rng import substream


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
             "1,5", "1e400", "5e-324", "1__0", ".5"]


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
    # A bad cell in chunk 1 and a ragged row in chunk 3: the ragged row wins.
    ({3: ["oops", "0"], 11: ["1"]}, ("a", "label"), r"row 11 has 1 fields, expected 2"),
    # No label column and a ragged row in a later chunk: the ragged row wins.
    ({12: ["1", "0", "2"]}, ("a", "b"), r"row 12 has 3 fields, expected 2"),
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
    # New rows too, whatever their value in the constant feature.
    fresh = normalize_features(np.array([[7.0, 1.5], [-2.0, 3.0]]), out.norm_state)
    assert fresh.tolist() == [[0.0, 0.5], [0.0, 2.0]]


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


def test_normalize_features_dimension_check():
    state = minmax_normalize(_dataset([[0.0], [2.0]], [0, 0])).norm_state
    with pytest.raises(DatasetError):
        normalize_features(np.array([[1.0, 2.0]]), state)


# -- splitting ----------------------------------------------------------------------


def test_split_stratified_counts():
    y = np.array([1] * 10 + [0] * 90)
    ds = Dataset(np.random.default_rng(1).normal(size=(100, 3)), y,
                 np.full(100, int(Role.UNASSIGNED)))
    out = split_dataset(ds, rng=np.random.default_rng(2))
    for role, n_anom, n_norm in ((Role.UNLABELED, 6, 54), (Role.VALID, 2, 18), (Role.TEST, 2, 18)):
        idx = out.indices(role)
        assert out.y[idx].sum() == n_anom
        assert len(idx) - out.y[idx].sum() == n_norm


def test_split_remainders_go_to_train():
    y = np.array([1, 0, 0, 0, 0])
    ds = Dataset(np.arange(10.0).reshape(5, 2), y, np.full(5, int(Role.UNASSIGNED)))
    out = split_dataset(ds, rng=np.random.default_rng(0))
    anomaly_role = out.roles[out.y == 1][0]
    assert anomaly_role == int(Role.UNLABELED)  # single anomaly lands in train


def test_split_roles_partition_everything():
    ds = generate_toy(500, seed=4)
    out = split_dataset(ds, rng=np.random.default_rng(1))
    assert (out.roles != int(Role.UNASSIGNED)).all()
    assert len(out.train_indices()) + len(out.indices(Role.VALID)) + len(out.indices(Role.TEST)) == 500


def test_split_determinism_and_validation():
    ds = generate_toy(200, seed=4)
    a = split_dataset(ds, rng=np.random.default_rng(9))
    b = split_dataset(ds, rng=np.random.default_rng(9))
    assert np.array_equal(a.roles, b.roles)
    tiny = _dataset([[1.0]] * 4, [0, 0, 0, 1])
    with pytest.raises(DatasetError):
        split_dataset(tiny, rng=np.random.default_rng(0))


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
    none = select_labeled_anomalies(_training_pool(), 0, np.random.default_rng(0))
    assert len(none.indices(Role.LABELED_ANOMALY)) == 0
    clamped = select_labeled_anomalies(_training_pool(n_anom=5), 30, np.random.default_rng(0))
    assert len(clamped.indices(Role.LABELED_ANOMALY)) == 5
    with pytest.raises(UnusableDatasetError):
        select_labeled_anomalies(_training_pool(n_anom=0), 30, np.random.default_rng(0))
    with pytest.raises(InvalidParameterError):
        select_labeled_anomalies(_training_pool(), -1, np.random.default_rng(0))


# -- contamination control --------------------------------------------------------------


def _pool_with(n_anom, n_norm, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n_anom + n_norm, 4))
    y = np.array([1] * n_anom + [0] * n_norm)
    return Dataset(X, y, np.full(len(y), int(Role.UNLABELED)))


def test_contamination_removal_worked_example():
    ds = _pool_with(40, 960)  # pool of 1000 with 40 anomalies
    out = adjust_contamination(ds, ContaminationSpec(0.02), np.random.default_rng(0))
    pool = out.indices(Role.UNLABELED)
    assert len(pool) == 980  # 20 removed
    assert out.y[pool].sum() == 20


def test_contamination_injection_worked_example():
    ds = _pool_with(10, 990)  # pool of 1000 with 10 anomalies
    out = adjust_contamination(ds, ContaminationSpec(0.02), np.random.default_rng(0))
    pool = out.indices(Role.UNLABELED)
    assert len(pool) == 1010  # 10 injected
    assert out.y[pool].sum() == 20


def test_contamination_fixed_point():
    ds = _pool_with(20, 980)
    out = adjust_contamination(ds, ContaminationSpec(0.02), np.random.default_rng(0))
    assert out is ds


def test_contamination_zero_target_removes_everything():
    ds = _pool_with(15, 100)
    out = adjust_contamination(ds, ContaminationSpec(0.0), np.random.default_rng(0))
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
        out = adjust_contamination(ds, ContaminationSpec(target), rng)
        pool = out.indices(Role.UNLABELED)
        achieved = out.y[pool].sum() / len(pool)
        assert abs(achieved - target) <= 1.0 / len(pool) + 1e-12


def test_contamination_unreachable_without_sources():
    ds = _pool_with(0, 100)
    with pytest.raises(UnusableDatasetError):
        adjust_contamination(ds, ContaminationSpec(0.02), np.random.default_rng(0))


def test_contamination_spec_validation():
    with pytest.raises(InvalidParameterError):
        ContaminationSpec(0.5)
    with pytest.raises(InvalidParameterError):
        ContaminationSpec(0.02, feature_fraction=0.0)


def test_injected_rows_are_unlabeled_anomalies():
    ds = _pool_with(5, 995)
    out = adjust_contamination(ds, ContaminationSpec(0.02), np.random.default_rng(1))
    added = out.n_rows - ds.n_rows
    assert added > 0
    assert np.all(out.y[ds.n_rows:] == 1)
    assert np.all(out.roles[ds.n_rows:] == int(Role.UNLABELED))


# -- anomaly injection ---------------------------------------------------------------------


def test_inject_anomaly_counts():
    rng = np.random.default_rng(0)
    a, b = np.zeros(20), np.ones(20)
    out = inject_anomaly(a, b, 0.05, rng)
    assert int(out.sum()) == 1  # ceil(0.05 * 20) = 1 feature replaced

    a78, b78 = np.zeros(78), np.ones(78)
    out78 = inject_anomaly(a78, b78, 0.05, rng)
    assert int(out78.sum()) == 4  # ceil(3.9)


def test_inject_anomaly_self_is_identity(rng):
    row = rng.normal(size=13)
    assert np.array_equal(inject_anomaly(row, row, 0.05, rng), row)


def test_inject_anomaly_changes_only_differing_positions(rng):
    a = rng.normal(size=40)
    b = a.copy()
    b[:10] += 1.0  # only the first ten positions differ
    out = inject_anomaly(a, b, 0.25, rng)
    changed = np.flatnonzero(out != a)
    assert len(changed) <= math.ceil(0.25 * 40)
    assert np.all(changed < 10)


def test_inject_anomaly_fraction_domain(rng):
    with pytest.raises(InvalidParameterError):
        inject_anomaly(np.zeros(3), np.ones(3), 0.0, rng)
    with pytest.raises(InvalidParameterError):
        inject_anomaly(np.zeros(3), np.ones(3), 1.5, rng)
    with pytest.raises(ContractViolationError):
        inject_anomaly(np.zeros(3), np.ones(4), 0.5, rng)


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
    with pytest.raises(InvalidParameterError):
        generate_toy(20, seed=0)
    with pytest.raises(InvalidParameterError):
        generate_toy(100, seed=0, anomaly_fraction=0.9)


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
    with pytest.raises(InvalidParameterError):
        generate_case("clustered", 50, seed=0)


# -- protocol pipeline -------------------------------------------------------------------------


def test_prepare_dataset_end_state():
    toy = generate_toy(4000, seed=7)
    prepared = prepare_dataset(toy, labeled_anomalies=30, contamination=0.02, seed=7)
    assert len(prepared.indices(Role.LABELED_ANOMALY)) == 30
    pool = prepared.indices(Role.UNLABELED)
    achieved = prepared.y[pool].sum() / len(pool)
    assert abs(achieved - 0.02) <= 1.0 / len(pool) + 1e-12
    train_rows = prepared.X[prepared.train_indices()]
    assert train_rows.min() >= 0.0 and train_rows.max() <= 1.0
    assert (prepared.roles != int(Role.UNASSIGNED)).all()


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_prepare_dataset_is_split_then_prepare_training(seed):
    # The sweep runs prepare_dataset, while `anomix train` splits first (to
    # write test_split.csv) and then calls prepare_training: both must agree.
    toy = generate_toy(1500, seed=seed)
    knobs = dict(labeled_anomalies=12, contamination=0.05, feature_fraction=0.3)
    one_call = prepare_dataset(toy, seed=seed, **knobs)
    two_steps = prepare_training(split_dataset(toy, substream(seed, "split")), seed=seed, **knobs)
    for name in ("X", "y", "roles"):
        assert np.array_equal(getattr(one_call, name), getattr(two_steps, name)), name
    assert np.array_equal(one_call.norm_state.mins, two_steps.norm_state.mins)
    assert np.array_equal(one_call.norm_state.maxs, two_steps.norm_state.maxs)
