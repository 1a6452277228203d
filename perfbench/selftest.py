"""Self-test of the benchmark at a tiny size; takes well under a minute.

    python3 perfbench/selftest.py

Runs every workload once with --tiny, untraced and traced, and asserts
that the result line carries exactly the metrics BENCHMARK.json names
for that pass, each with its unit, and that every correctness check
passed. Then runs the benchmark in a directory that holds only
BENCHMARK.json and perfbench/, and asserts that it fails without
printing a result. Exits non-zero at the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class SelfTestError(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    done = run(ROOT, workload, trace)
    expect(done.returncode == 0, f"{workload} trace {trace}: exit {done.returncode}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    expect(set(line) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(line)}")
    expect(line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1,
           f"{workload} trace {trace}: correct={line['correct']} failed={line['failed']}\n"
           + done.stdout)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    expect(got == wanted, f"{workload} trace {trace}: metrics {got} != {wanted}")
    for name, m in line["metrics"].items():
        expect(isinstance(m["value"], (int, float)) and m["value"] == m["value"],
               f"{workload}: {name} = {m['value']!r} is not a number")
    print(f"ok {workload} trace {trace}: {len(got)} metrics, {line['attempted']} operations")


def check_bare_directory() -> None:
    bare = HERE / "_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run(bare, "train_toy", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0, "run without src/ exited 0")
    expect("metrics" not in done.stdout, "run without src/ printed a result")
    print(f"ok without src/: exit {done.returncode}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                check_workload(spec, workload, trace)
        check_bare_directory()
    except SelfTestError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
