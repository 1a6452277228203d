"""Correctness checks on one run's outputs.

`run_checks()` returns `attempted` and `failed` operations, and each
check by name. An operation is a CLI command (failed if it exits
non-zero), a single-row call (failed if it raises or disagrees with the
batch score of its row) or one of the checks in `run_checks`.
"""

from __future__ import annotations

import csv
import sys

import numpy as np

from anomix.artifact import load_model
from anomix.data import load_features, normalize_features
from anomix.errors import AnomixError
from anomix.scorer import score_batch

from session import COMMANDS
from tracer import STEP_STAGES, VALIDATION

SINGLE_ROW_TOLERANCE = 1e-12
# AUC-PR of a useful scorer sits well above the hold-out set's anomaly share.
AUC_PR_OVER_BASE_RATE = 3.0
STEP_METRICS = tuple(f"{name}.ms" for name in STEP_STAGES) + ("training.train.self_ms",)


def _read_scores(path) -> tuple[list[int], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["row_index", "score"]:
            raise ValueError("unexpected header")
        rows = [(int(i), float(s)) for i, s in reader]
    return [i for i, _ in rows], np.array([s for _, s in rows])


def _stages_account_for_train(result: dict) -> tuple[bool, str]:
    layers, acc = result["layers"], result["accounting"]
    nested = {name: parents for name, parents in acc["stage_parents"].items()
              if parents != ["training.train"]}
    # A stage whose wrapper stopped firing would read 0 and move its time
    # into self time, so every stage must run once per step or epoch.
    expected = {**{name: acc["steps"] for name in STEP_STAGES},
                **{name: acc["epochs"] for name in VALIDATION}}
    miscounted = {name: f"{acc['stage_calls'][name]} calls, expected {n}"
                  for name, n in expected.items() if acc["stage_calls"][name] != n}
    accounted_s = (sum(layers[name] for name in STEP_METRICS) * acc["steps"]
                   + layers["training.validation.ms_per_epoch"] * acc["epochs"]) / 1e3
    ok = (not nested and not miscounted and acc["steps"] > 0 and acc["epochs"] > 0
          and layers["training.train.self_ms"] >= 0.0
          and abs(accounted_s - acc["train_s"]) <= 1e-6 * acc["train_s"])
    return ok, (f"stages + self = {accounted_s:.6f} s, train() = {acc['train_s']:.6f} s, "
                f"{acc['steps']} steps, {acc['epochs']} epochs, "
                f"self share {layers['training.train.self_ms'] * acc['steps'] / 1e3 / acc['train_s']:.3f}"
                + (f", stages outside train(): {nested}" if nested else "")
                + (f", miscounted stages: {miscounted}" if miscounted else ""))


def run_checks(plan: dict, result: dict) -> dict:
    reps = result["reps"]
    outputs = plan["outputs"]
    checks, call_checks = [], []

    def check(name, fn):
        try:
            ok, detail = fn()
        except (AnomixError, OSError, ValueError, KeyError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    attempted = failed = 0
    for rep in reps:
        for name in COMMANDS:
            attempted += 1
            failed += rep[f"{name}_exit"] != 0

    single_calls = sum(plan["single_calls"] for rep in reps if "single_failures" in rep)
    single_failed = sum(rep.get("single_failures", 0) for rep in reps)
    attempted += single_calls
    failed += single_failed

    digests = {rep.get("model_sha256") for rep in reps}
    check("model.json is identical in every session",
          lambda: (len(digests) == 1 and None not in digests, f"{len(digests)} distinct digest(s)"))
    if any(rep["traced"] for rep in reps):
        untraced = {rep.get("model_sha256") for rep in reps if not rep["traced"]}
        traced = {rep.get("model_sha256") for rep in reps if rep["traced"]}
        check("traced model.json is byte-identical to the untraced one",
              lambda: (traced == untraced and len(traced) == 1, f"{traced} vs {untraced}"))
        check("stage times plus train() self time account for train()",
              lambda: _stages_account_for_train(result))

    artifact = None

    def reloads():
        nonlocal artifact
        artifact = load_model(outputs["model"])
        return True, f"d_in={artifact.params.d_in}, rep_dim={artifact.params.rep_dim}"

    check("model.json reloads via load_model", reloads)

    last = reps[-1]

    def beats_base_rate():
        base = last["n_pos"] / (last["n_pos"] + last["n_neg"])
        values = {rep["auc_pr"] for rep in reps}
        return (len(values) == 1 and last["auc_pr"] >= AUC_PR_OVER_BASE_RATE * base,
                f"auc_pr {last['auc_pr']:.4f} vs base rate {base:.4f}")

    check(f"auc_pr is at least {AUC_PR_OVER_BASE_RATE:g}x the hold-out anomaly rate",
          beats_base_rate)

    if artifact is not None and last["score_exit"] == 0:
        rows = plan["inputs"]["score.csv"]["rows"]
        try:
            index, batch = _read_scores(outputs["scores"])
        except (OSError, ValueError) as exc:
            index, batch = [], np.empty(0)
            print(f"cannot read scores.csv: {exc}", file=sys.stderr)
        check("scores.csv has one row per input row, in order",
              lambda: (index == list(range(rows)), f"{len(index)} rows for {rows} inputs"))
        check("every score lies in (-1, 1)",
              lambda: (bool(np.all(np.abs(batch) < 1.0)), f"max |score| {np.abs(batch).max():.17g}"))

        def matches_in_process():
            X, _names = load_features(plan["inputs"]["score.csv"]["path"])
            reference = score_batch(artifact.params, normalize_features(X, artifact.norm_state))
            return (reference.shape == batch.shape and bool(np.array_equal(reference, batch)),
                    "scores.csv equals score_batch(load_model(...).params, "
                    "normalize_features(load_features(...)))")

        check("scores.csv equals in-process batch scoring", matches_in_process)

        single = np.load(outputs["single_scores"])
        if single.size and len(batch) == rows:
            error = np.abs(single - batch[np.arange(single.size) % rows])
            # NaN marks a call that raised; those are counted already.
            mismatched = int(np.count_nonzero(error > SINGLE_ROW_TOLERANCE))
            failed += mismatched
            call_checks.append({
                "name": f"single-row score() matches its batch row within {SINGLE_ROW_TOLERANCE:g}",
                "ok": mismatched == 0 and single_failed == 0,
                "detail": f"{mismatched} of {single.size} calls differ, {single_failed} raised; "
                          f"max |diff| {np.nanmax(error):.3g}",
            })

    attempted += len(checks)
    failed += sum(not c["ok"] for c in checks)
    return {"attempted": attempted, "failed": failed, "checks": checks + call_checks}
