"""The benchmark times training, ingest and scoring by wrapping package
names from outside (perfbench/tracer.py). A refactor that removes, renames or bypasses one of
those names makes a traced benchmark run fail; this catches it in the
tier-1 suite. `anomix.nn` is the hooks module: it holds only the two names
the tracer patches to time a training step, `Var` and `v_linear`."""

import importlib
from pathlib import Path

import anomix.nn
from anomix.artifact import load_model
from anomix.cli import main
from anomix.data import generate_toy, write_csv, write_rows
from anomix.scorer import LAYER_NAMES, layer_shapes

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_the_hooks_module_defines_only_the_two_hooks():
    # Anything else in `nn` has an owner elsewhere; deleting the tracer's
    # patches of these two deletes the module.
    defined = {name for name in vars(anomix.nn) if not name.startswith("_")}
    assert defined - {"annotations", "np"} == {"Var", "v_linear"}


def test_tracer_sees_every_stage_of_a_cli_train(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    data = tmp_path / "toy.csv"
    toy = generate_toy(400, seed=1, anomaly_fraction=0.1)
    write_csv(toy, data)
    features = tmp_path / "features.csv"
    write_rows(features, toy.feature_names, toy.X.tolist())
    traced = tracer.Tracer({})
    with traced.installed():
        assert main(["train", "--data", str(data), "--label-col", "label",
                     "--labeled-anomalies", "5", "--epochs", "2",
                     "--batches-per-epoch", "3", "--batch-size", "8", "--rep-dim", "8",
                     "--out", str(tmp_path / "run")]) == 0
    acc = traced.accounting()
    assert (acc["steps"], acc["epochs"]) == (6, 2)
    for name in tracer.STEP_STAGES:
        assert acc["stage_calls"][name] == 6, name
    for name in tracer.VALIDATION:
        assert acc["stage_calls"][name] == 2, name
    for name in tracer.STEP_STAGES + tracer.VALIDATION:
        assert acc["stage_parents"][name] == [tracer.TRAIN], name
    # One stacked forward per step, inside the scoring loss: in `full` mode
    # it holds 2b mixed rows and the b anomaly, b unlabeled and b anchor
    # rows, each once. `Var` (one handle per parameter array, 8 a step),
    # `v_linear`, `ScorerGraph.represent` and `training.backward` stay
    # because perfbench/tracer.py wraps them.
    assert traced.counts["scorer.rows_forwarded"] == 6 * 5 * 8
    assert traced.counts["nn.var_nodes"] == 6 * 8
    linear = {name: sorted(map(str, parents)) for name, parents in traced.parents.items()
              if name.startswith("nn.v_linear")}
    assert linear and traced.calls["nn.v_linear.other"] == 6 * 4
    # A dense layer timed outside the scoring loss would land in train()'s
    # self time and break check.py's accounting of train().
    assert all(parents == ["losses.scoring_loss_graph"] for parents in linear.values()), linear

    # perfbench/session.py and check.py read these names off the trained model.
    params = load_model(tmp_path / "run" / "model.json").params
    assert (params.d_in, params.rep_dim) == (toy.X.shape[1], 8)
    named = params.named_layers()
    assert [name for name, _layer in named] == list(LAYER_NAMES)
    assert ([layer.weights.shape for _name, layer in named]
            == layer_shapes(params.d_in, params.rep_dim))

    # The data layer is timed through the names the CLI reaches as `D.<name>`.
    with traced.installed():
        assert main(["score", "--model", str(tmp_path / "run" / "model.json"),
                     "--data", str(features), "--out", str(tmp_path / "run")]) == 0
    calls = {name: traced.calls[name] for name in (
        "data.load_csv", "data.write_csv", "data.load_features", "scorer.score_batch")}
    assert calls == {"data.load_csv": 1, "data.write_csv": 1,
                     "data.load_features": 1, "scorer.score_batch": 1}
