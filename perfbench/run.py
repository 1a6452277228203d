"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; `anomix` is imported from its
`src/`. A run generates the workload's inputs from the seed, times
`import anomix` in fresh interpreters (setup_s), repeats the workload's
CLI session in one worker process for --seconds, checks every output and
prints a report. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. The full record of the run goes to perfbench/_work/results/.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads here or in any child: never
# more than the cores any machine has, and batch scoring and train_wide
# then do not depend on the environment.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({name: BLAS_THREADS for name in BLAS_ENV})

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import REFERENCE_MS, scaled  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train_toy", "train_wide", "score")

SETUP_SAMPLES = 11
SETUP_PROBES = 10
# Times `import anomix`, then probes the host's speed right after it.
SETUP_CHILD = ("import sys, time; start = time.perf_counter(); import anomix; "
               "seconds = time.perf_counter() - start; "
               f"sys.path.insert(0, {str(HERE)!r}); from probe import mean_ms, probe_ms; "
               f"print(seconds, mean_ms([probe_ms() for _ in range({SETUP_PROBES})]))")
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def child(args: list[str], timeout: float) -> str:
    """Stdout of a Python child with `src` on its path; stderr passes through."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    try:
        done = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} exceeded {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{args[0]} exited with {done.returncode}")
    return done.stdout


def measure_setup() -> list[list[float]]:
    """[seconds, mean probe ms] of `import anomix` in fresh interpreters,
    after one warm-up."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        seconds, mean_probe_ms = map(float, child(["-c", SETUP_CHILD], timeout=60).split())
        if i:
            samples.append([seconds, mean_probe_ms])
    return samples


def timings(plan: dict, result: dict, scale: bool) -> dict:
    """Medians over the untraced sessions, scaled or as measured."""
    untraced = [rep for rep in result["reps"] if not rep["traced"]]
    rows = plan["inputs"]["score.csv"]["rows"]

    def median(key: str, probe_key: str) -> float:
        return statistics.median(scaled(rep[key], rep[probe_key]) if scale else rep[key]
                                 for rep in untraced)

    return {"train_s": median("train_s", "train_probe_ms"),
            "score_rows_per_s": rows / median("score_s", "score_probe_ms"),
            "score_one_us_p50": median("single_p50_us", "single_probe_ms")}


def end_to_end(plan: dict, result: dict, setup: list[list[float]]) -> dict:
    last = [rep for rep in result["reps"] if not rep["traced"]][-1]
    return {
        "setup_s": statistics.median(scaled(seconds, ms) for seconds, ms in setup),
        "auc_pr": last["auc_pr"],
        "auc_roc": last["auc_roc"],
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
        **timings(plan, result, scale=True),
    }


def per_layer(result: dict) -> dict:
    reps = result["reps"]
    traced = statistics.median(rep["train_s"] for rep in reps if rep["traced"])
    untraced = statistics.median(rep["train_s"] for rep in reps if not rep["traced"])
    return {
        **result["layers"],
        "scorer.score.us_p99": result["single"]["p99_us"],
        "trace.train_overhead_s": traced - untraced,
        "host.probe_ms": result["probe_ms"],
        "worker.rss_growth_mb_per_session":
            (result["final_peak_rss_kib"] - result["peak_rss_kib"]) / 1024.0 / (len(reps) - 1),
    }


def run(args) -> dict:
    from check import run_checks
    from prepare import plan as make_plan

    started = time.perf_counter()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = HERE / "_work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        plan = make_plan(args.workload, args.seed, workdir, args.tiny)
        plan_path, result_path = workdir / "plan.json", workdir / "result.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        setup = [] if args.trace else measure_setup()
        remaining = RUN_BUDGET_S - (time.perf_counter() - started)
        child([str(HERE / "session.py"), str(plan_path), str(result_path), str(args.seconds),
               str(args.trace)], timeout=remaining - 15)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        checked = run_checks(plan, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    try:
        values = per_layer(result) if args.trace else end_to_end(plan, result, setup)
    except (KeyError, TypeError, statistics.StatisticsError) as exc:
        failures = [c["name"] for c in checked["checks"] if not c["ok"]]
        raise BenchError(f"metrics unavailable ({exc!r}); failed checks: {failures}") from exc
    return {"tag": tag, "plan": plan, "setup_s": setup, "result": result,
            "checks": checked, "values": values}


def report(args, record: dict, spec: dict) -> dict:
    plan, result, checked = record["plan"], record["result"], record["checks"]
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": record["values"][m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    attempted, failed = checked["attempted"], checked["failed"]
    print(f"perfbench {record['tag']} seconds={args.seconds}{' tiny' if args.tiny else ''}")
    print(f"machine: {json.dumps(plan['machine'])}")
    for name, info in plan["inputs"].items():
        print(f"input {name}: rows={info['rows']} columns={info['columns']} "
              f"sha256={info['sha256']} (seed {args.seed})")
    for i, rep in enumerate(result["reps"]):
        print(f"session {i}{' traced' if rep['traced'] else ''}: "
              + " ".join(f"{k}={rep[k]:.4f}" for k in ("train_s", "evaluate_s", "score_s"))
              + " probe_ms " + " ".join(f"{rep[f'{k}_probe_ms']:.4f}"
                                        for k in ("train", "evaluate", "score")))
    print(f"single-row score(): {result['single']['calls']} calls, "
          f"p50 {result['single']['p50_us']:.3f} us, p99 {result['single']['p99_us']:.3f} us")
    raw = timings(plan, result, scale=False)
    print(f"as measured, before scaling: train_s {raw['train_s']:.4f}, "
          f"score_rows_per_s {raw['score_rows_per_s']:.1f}, "
          f"score_one_us_p50 {raw['score_one_us_p50']:.3f}; "
          f"median probe {result['probe_ms']:.4f} ms against {REFERENCE_MS} ms")
    print(f"worker peak RSS: {result['peak_rss_kib'] / 1024:.1f} MiB after the first session, "
          f"{result['final_peak_rss_kib'] / 1024:.1f} MiB after {len(result['reps'])}")
    if record["setup_s"]:
        print("setup_s samples, as measured / probe ms: "
              + " ".join(f"{s:.4f}/{ms:.3f}" for s, ms in record["setup_s"]))
    for c in checked["checks"]:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.3g}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload once.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="shrink inputs and training to seconds (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "anomix" / "__init__.py").is_file():
        print(f"perfbench: no anomix package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        record = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    line = report(args, record, spec)
    results = HERE / "_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{record['tag']}.json").write_text(
        json.dumps({**record, "output": line}, indent=1), encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
