"""Per-layer timing of anomix, taken from outside the package.

Each wrapper replaces a name where its caller looks it up: `train()`
calls `augment_batch` through the global of `anomix.training`, and the
CLI reaches the data layer as `D.load_csv`, so wrapping
`anomix.training.augment_batch` and `anomix.data.load_csv` times those
calls without editing `src/`. Spans nest on one stack: a span's self
time is its duration minus the durations of the spans opened directly
inside it. Wrappers pass arguments and results through unchanged and
draw no random numbers, so a traced run trains the same bytes as an
untraced one.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

import anomix.cli
import anomix.data
import anomix.losses
import anomix.nn
import anomix.scorer
import anomix.training

TRAIN = "training.train"
# Spans opened directly inside train(): the per-step stages, then validation.
STEP_STAGES = (
    "training.sample_batches",
    "interpolation.augment_batch",
    "losses.scoring_loss_graph",
    "losses.feature_regularizer_graph",
    "nn.backward",
    "nn.adam_step",
)
VALIDATION = ("training.validation.score_batch", "training.validation.auc_pr")


def _rows_loaded(key):
    def count(_args, result):
        return {key: len(result.X) if hasattr(result, "X") else len(result[0])}
    return count


def _rows_scored(_args, result):
    return {"scorer.score_batch.rows": len(result)}


def _planned(args, result):
    # What train() was asked to do, read from its config and history, so
    # the check can tell a stage wrapper that never fired from a fast one.
    config, (_params, history) = args[1], result
    return {"training.planned_steps": config.n_epoch * config.n_batch,
            "training.epochs_run": len(history)}


def _rows_sampled(_args, result):
    return {"training.sample_batches.rows": sum(len(block) for block in result)}


def _rows_mixed(_args, result):
    return {"interpolation.augment_batch.rows": len(result)}


# (owner, attribute, span name, counter or None). A counter maps the call's
# arguments and result to amounts added to the tracer's counts.
SPANS = (
    (anomix.cli, "cmd_train", "cli.cmd_train", None),
    (anomix.cli, "cmd_score", "cli.cmd_score", None),
    (anomix.data, "load_csv", "data.load_csv", _rows_loaded("data.load_csv.rows")),
    (anomix.data, "load_features", "data.load_features", _rows_loaded("data.load_features.rows")),
    (anomix.data, "write_csv", "data.write_csv", None),
    (anomix.data, "split_dataset", "data.split_dataset", None),
    (anomix.data, "prepare_training", "data.prepare_training", None),
    (anomix.data, "normalize_features", "data.normalize_features", None),
    (anomix.cli, "train", TRAIN, _planned),
    (anomix.cli, "score_batch", "scorer.score_batch", _rows_scored),
    (anomix.cli, "save_model", "artifact.save_model", None),
    (anomix.cli, "load_model", "artifact.load_model", None),
    (anomix.cli, "write_manifest", "artifact.write_manifest", None),
    (anomix.cli, "file_fingerprint", "artifact.file_fingerprint", None),
    (anomix.training, "sample_batches", "training.sample_batches", _rows_sampled),
    (anomix.training, "augment_batch", "interpolation.augment_batch", _rows_mixed),
    (anomix.losses, "scoring_loss_graph", "losses.scoring_loss_graph", None),
    (anomix.losses, "feature_regularizer_graph", "losses.feature_regularizer_graph", None),
    (anomix.training, "backward", "nn.backward", None),
    (anomix.training, "adam_step", "nn.adam_step", None),
    (anomix.training, "score_batch", "training.validation.score_batch", None),
    (anomix.training, "auc_pr", "training.validation.auc_pr", None),
)


class Tracer:
    """Aggregated spans and counters; patch the package with `installed()`.

    `layer_names` maps a dense layer's weight shape to its name, so each
    `nn.v_linear` call is charged to the layer it computes.
    """

    def __init__(self, layer_names: dict[tuple[int, int], str]):
        self.layer_names = dict(layer_names)
        self.total = defaultdict(float)    # span name -> seconds
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.parents = defaultdict(set)    # span name -> names of enclosing spans
        self.counts = defaultdict(int)     # rows handled, tape nodes, planned steps, ...
        self._stack: list[list] = []       # open spans: [name, child seconds]

    def _record(self, name: str, fn, counter=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append([name, 0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                _, child = stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.parents[name].add(stack[-1][0] if stack else None)
                self.total[name] += elapsed
                self.self_time[name] += elapsed - child
                self.calls[name] += 1
            if counter is not None:
                for key, amount in counter(args, result).items():
                    self.counts[key] += amount
            return result

        return wrapper

    def _linear(self, fn):
        by_shape = {shape: self._record(f"nn.v_linear.{layer}", fn)
                    for shape, layer in self.layer_names.items()}
        other = self._record("nn.v_linear.other", fn)

        def v_linear(x, w, b):
            return by_shape.get(w.value.shape, other)(x, w, b)

        return v_linear

    def _counting_init(self, fn):
        counts = self.counts

        def __init__(var, *args, **kwargs):
            counts["nn.var_nodes"] += 1
            fn(var, *args, **kwargs)

        return __init__

    def _counting_represent(self, fn):
        counts = self.counts

        def represent(graph, X):
            counts["scorer.rows_forwarded"] += len(X)
            return fn(graph, X)

        return represent

    @contextlib.contextmanager
    def installed(self):
        patches = [(owner, attr, self._record(name, getattr(owner, attr), counter))
                   for owner, attr, name, counter in SPANS]
        patches += [
            (anomix.nn, "v_linear", self._linear(anomix.nn.v_linear)),
            (anomix.nn.Var, "__init__", self._counting_init(anomix.nn.Var.__init__)),
            (anomix.scorer.ScorerGraph, "represent",
             self._counting_represent(anomix.scorer.ScorerGraph.represent)),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def layer_metrics(self) -> dict:
        """Per-layer figures from everything recorded so far.

        Stage times are per training step (one Adam step), validation per
        epoch, ingest as rows per second, artifact calls per call.
        """
        steps = max(self.counts["training.planned_steps"], 1)
        epochs = max(self.counts["training.epochs_run"], 1)
        # Each stage reports as "<span>.ms"; check.py relies on that naming.
        ms_per_step = {name: 1e3 * self.total[name] / steps for name in STEP_STAGES}

        def per_call(name, scale):
            return scale * self.total[name] / max(self.calls[name], 1)

        def self_per_call(name):
            return self.self_time[name] / max(self.calls[name], 1)

        def rate(name):
            return self.counts[f"{name}.rows"] / self.total[name] if self.total[name] > 0 else 0.0

        forwarded = self.counts["scorer.rows_forwarded"] / steps
        mixed = self.counts["interpolation.augment_batch.rows"] / steps
        distinct = self.counts["training.sample_batches.rows"] / steps + mixed
        out = {
            "interpolation.augment_batch.ms": ms_per_step["interpolation.augment_batch"],
            "interpolation.rows_mixed_per_step": mixed,
            "losses.scoring_loss_graph.ms": ms_per_step["losses.scoring_loss_graph"],
            "losses.feature_regularizer_graph.ms": ms_per_step["losses.feature_regularizer_graph"],
            "scorer.rows_forwarded_per_step": forwarded,
            "scorer.rows_distinct_per_step": distinct,
            "scorer.forward_useful_ratio": distinct / forwarded if forwarded else 0.0,
            "nn.v_linear.calls_per_step":
                sum(self.calls[f"nn.v_linear.{layer}"] for layer in self.layer_names.values())
                / steps,
        }
        for layer in self.layer_names.values():
            out[f"nn.v_linear.{layer}.us"] = per_call(f"nn.v_linear.{layer}", 1e6)
        out.update({
            "nn.backward.ms": ms_per_step["nn.backward"],
            "nn.var_nodes_per_step": self.counts["nn.var_nodes"] / steps,
            "nn.adam_step.ms": ms_per_step["nn.adam_step"],
            "training.sample_batches.ms": ms_per_step["training.sample_batches"],
            "training.validation.ms_per_epoch":
                1e3 * sum(self.total[name] for name in VALIDATION) / epochs,
            "training.train.self_ms": 1e3 * self.self_time[TRAIN] / steps,
            "data.load_csv.rows_per_s": rate("data.load_csv"),
            "data.write_csv.s": per_call("data.write_csv", 1.0),
            "data.prepare_training.s": per_call("data.prepare_training", 1.0),
            "data.split_dataset.s": per_call("data.split_dataset", 1.0),
            "data.load_features.rows_per_s": rate("data.load_features"),
            "data.normalize_features.ms": per_call("data.normalize_features", 1e3),
            "scorer.score_batch.rows_per_s": rate("scorer.score_batch"),
            "artifact.save_model.ms": per_call("artifact.save_model", 1e3),
            "artifact.load_model.ms": per_call("artifact.load_model", 1e3),
            "artifact.write_manifest.ms": per_call("artifact.write_manifest", 1e3),
            "artifact.file_fingerprint.ms": per_call("artifact.file_fingerprint", 1e3),
            "cli.cmd_train.self_s": self_per_call("cli.cmd_train"),
            "cli.cmd_score.self_s": self_per_call("cli.cmd_score"),
        })
        return out

    def accounting(self) -> dict:
        """What the check needs to confirm the stages account for train()."""
        return {
            "train_s": self.total[TRAIN],
            "steps": self.counts["training.planned_steps"],
            "epochs": self.counts["training.epochs_run"],
            "stage_calls": {name: self.calls[name] for name in STEP_STAGES + VALIDATION},
            "stage_parents": {name: sorted(map(str, self.parents[name]))
                              for name in STEP_STAGES + VALIDATION},
        }
