"""Repeat run.py over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workloads train_toy score --seeds 0-9 --trace 0
    python3 perfbench/sweep.py --seeds 0-9 --trace 0 --record "label"

For every workload and metric this prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (Q3 - Q1) / median,
beside the metric's bound from BENCHMARK.json. --record appends the
summary, with each run's input fingerprints and the machine, to
perfbench/trajectory.json as one trajectory point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from datetime import date
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited with {done.returncode}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}"
    record = json.loads((HERE / "_work" / "results" / f"{tag}.json").read_text(encoding="utf-8"))
    return {"line": line, "plan": record["plan"]}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the benchmark over several seeds.")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL", help="append the summary to trajectory.json")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    summary, machine = {}, None
    for workload in args.workloads:
        runs = {seed: run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds}
        machine = next(iter(runs.values()))["plan"]["machine"]
        first = next(iter(runs.values()))["line"]["metrics"]
        metrics = {}
        print(f"== {workload} (trace {args.trace}, {len(runs)} seeds, {args.seconds} s)")
        for name, info in first.items():
            stats = summarise([r["line"]["metrics"][name]["value"] for r in runs.values()])
            metrics[name] = {"unit": info["unit"], **stats}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and stats["spread"] is not None:
                flag = ("  OVER BOUND" if stats["spread"] > bound
                        else "  over bound/3" if stats["spread"] > bound / 3 else "")
            print(f"{name:40s} median {stats['median']:<14.6g} {info['unit']:7s} "
                  f"spread {stats['spread'] if stats['spread'] is not None else float('nan'):.4f}"
                  f"{f'  bound {bound}' if bound is not None else ''}{flag}")
        failed = sum(r["line"]["failed"] for r in runs.values())
        print(f"failed {failed} of {sum(r['line']['attempted'] for r in runs.values())}; "
              f"all correct: {all(r['line']['correct'] for r in runs.values())}")
        summary[workload] = {
            "trace": args.trace,
            "seeds": args.seeds,
            "inputs": {str(seed): {name: info["sha256"] for name, info in r["plan"]["inputs"].items()}
                       for seed, r in runs.items()},
            "attempted": sum(r["line"]["attempted"] for r in runs.values()),
            "failed": failed,
            "metrics": metrics,
        }

    if args.record:
        trajectory = (json.loads(TRAJECTORY.read_text(encoding="utf-8"))
                      if TRAJECTORY.exists() else {"points": []})
        point = next((p for p in trajectory["points"] if p["label"] == args.record), None)
        if point is None:
            point = {"label": args.record, "date": date.today().isoformat(),
                     "run_seconds": args.seconds, "machine": machine, "workloads": {}}
            trajectory["points"].append(point)
        for workload, data in summary.items():
            point["workloads"].setdefault(workload, {})[f"trace{args.trace}"] = data
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
