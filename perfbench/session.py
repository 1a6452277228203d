"""One workload's session, repeated in this process for a fixed time.

    python3 perfbench/session.py PLAN.json RESULT.json SECONDS TRACE

Runs the plan's `anomix` commands through `anomix.cli.main`, then a
closed loop of single-row `anomix.score(params, x)` calls (one caller,
each call issued when the previous one returns), and repeats the whole
session until SECONDS have passed, at least once. With TRACE=1 untraced
and traced sessions alternate, starting untraced, so the per-layer split
and the tracing overhead come from the same run. Throughout, a timer
signal samples the host's speed (see HostSpeed). Writes timings and the
digests of the outputs to RESULT.json; check.py judges the outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import anomix
import anomix.cli
from anomix.artifact import load_model
from anomix.data import normalize_features

from probe import mean_ms, probe_ms
from tracer import Tracer

COMMANDS = ("train", "evaluate", "score")
# The host's speed shifts by tens of percent over seconds. A median over
# all calls snaps to whichever speed held for more than half of them; the
# mean of per-block medians follows the share of time at each speed.
BLOCK_CALLS = 1000
# The host's speed, sampled while the program runs: every PROBE_EVERY_S a
# timer signal interrupts the worker and the handler takes one probe
# (about 0.6 ms, so about 3% of the worker's time). Each timing is stored
# with the trimmed mean of the probes that fell inside it.
PROBE_EVERY_S = 0.02


class HostSpeed:
    """Probe times in ms, taken from a timer signal."""

    def __init__(self):
        self.samples: list[float] = []

    def probe(self, _signum=None, _frame=None) -> None:
        self.samples.append(probe_ms())

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mean_ms(self, since: int) -> float:
        """probe.mean_ms() of the samples from `since` on, after one more
        probe, so a window shorter than the period still has a sample."""
        self.probe()
        return mean_ms(self.samples[since:])


def run_command(argv: list[str]) -> tuple[float, int]:
    """(wall seconds, exit code) of one CLI command run in this process."""
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = anomix.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = -1
    return perf_counter() - start, code


def single_row_loop(params, X: np.ndarray, calls: int):
    """(latencies in ns, scores, failures) of `calls` closed-loop score() calls."""
    latency = np.empty(calls)
    scores = np.full(calls, np.nan)
    failures = 0
    score = anomix.score
    clock = perf_counter_ns
    n = len(X)
    for i in range(calls):
        x = X[i % n]
        start = clock()
        try:
            s = score(params, x)
        except Exception:
            failures += 1
            s = np.nan
        latency[i] = clock() - start
        scores[i] = s
    return latency, scores, failures


def p50_us(latency_ns: np.ndarray) -> float:
    """Mean over blocks of BLOCK_CALLS consecutive calls of each block's median."""
    blocks = np.array_split(latency_ns / 1e3, max(len(latency_ns) // BLOCK_CALLS, 1))
    return float(np.mean([np.median(block) for block in blocks]))


def session(plan: dict, tracer: Tracer | None,
            speed: HostSpeed) -> tuple[dict, np.ndarray, np.ndarray]:
    rec = {"traced": tracer is not None}
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        for name in COMMANDS:
            since = len(speed.samples)
            rec[f"{name}_s"], rec[f"{name}_exit"] = run_command(plan["commands"][name])
            rec[f"{name}_probe_ms"] = speed.mean_ms(since)
    outputs = plan["outputs"]
    model = Path(outputs["model"])
    latency = scores = np.empty(0)
    if rec["train_exit"] == 0:
        rec["model_sha256"] = hashlib.sha256(model.read_bytes()).hexdigest()
        artifact = load_model(model)
        rec["layer_shapes"] = [[name, list(layer.weights.shape)]
                               for name, layer in artifact.params.named_layers()]
        X = normalize_features(np.load(outputs["score_features"]), artifact.norm_state)
        since = len(speed.samples)
        latency, scores, rec["single_failures"] = single_row_loop(
            artifact.params, X, plan["single_calls"])
        rec["single_p50_us"], rec["single_probe_ms"] = p50_us(latency), speed.mean_ms(since)
    if rec["evaluate_exit"] == 0:
        report = json.loads(Path(outputs["metrics"]).read_text(encoding="utf-8"))
        rec.update({key: report[key] for key in ("auc_pr", "auc_roc", "n_pos", "n_neg")})
    return rec, latency, scores


def main(argv=None) -> int:
    plan_path, result_path, seconds, trace = (argv or sys.argv[1:])
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    seconds, trace = float(seconds), trace == "1"
    reps, latencies = [], []
    tracer = None
    last_scores = np.empty(0)
    speed = HostSpeed()
    started = perf_counter()
    with speed.sampling():
        while True:
            traced = trace and len(reps) % 2 == 1
            if traced and tracer is None:
                tracer = Tracer({tuple(shape): name for name, shape in reps[0]["layer_shapes"]})
            rec, latency, last_scores = session(plan, tracer if traced else None, speed)
            if not reps:
                # After one session, so the figure does not depend on how many fit.
                peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reps.append(rec)
            latencies.append(latency)
            if any(rec[f"{name}_exit"] != 0 for name in COMMANDS):
                break
            if perf_counter() - started >= seconds and (traced or not trace):
                break
    np.save(plan["outputs"]["single_scores"], last_scores)
    pooled = np.concatenate(latencies) / 1e3
    result = {
        "reps": reps,
        "peak_rss_kib": peak_rss_kib,
        # The peak at the end of the run: growth past the first session's
        # peak is memory that later sessions kept or added.
        "final_peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe_ms": float(np.median(speed.samples)),
        "single": {
            "calls": int(pooled.size),
            "p50_us": p50_us(np.concatenate(latencies)) if pooled.size else None,
            "p99_us": float(np.percentile(pooled, 99)) if pooled.size else None,
        },
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["accounting"] = tracer.accounting()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
