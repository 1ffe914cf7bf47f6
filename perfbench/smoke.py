"""Smoke test of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Every workload run.py offers (those of BENCHMARK.json and the ungated
interp_2d_large) runs at the shortest length (one pass) with a fixed seed,
untraced once and traced twice.  The test checks that each run
prints every metric named in BENCHMARK.json with its unit, that no output
check failed (fail_frac = 0), and that the computed per-layer counts of the
two traced runs are bit-identical.  Last, it runs the benchmark in a
directory holding only BENCHMARK.json and perfbench/, where it must fail
without printing a result.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import WORKLOAD_NAMES

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3
EXACT_UNITS = ("count", "ratio", "bytes")


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def checked_run(workload, trace, problems):
    proc = bench(workload, trace)
    tag = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
        return {}
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != want:
        problems.append(f"{tag}: metrics {got} differ from {want}")
    if not result["correct"] or result["failed"] or report["fail_frac"]:
        problems.append(f"{tag}: {result['failed']} of "
                        f"{result['attempted']} checks failed")
    print(f"ok  {tag}: {result['attempted']} checks", flush=True)
    return {name: entry["value"] for name, entry in result["metrics"].items()
            if entry["unit"] in EXACT_UNITS}


def bare_run(problems):
    """The benchmark must refuse to run without the program's source."""
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run without src/ did not fail cleanly")
    else:
        print(f"ok  run without src/ exits {proc.returncode}", flush=True)


def main():
    problems = []
    for name in WORKLOAD_NAMES:
        checked_run(name, 0, problems)
        first = checked_run(name, 1, problems)
        second = checked_run(name, 1, problems)
        if first != second:
            problems.append(f"{name}: counts differ between traced runs: "
                            f"{first} vs {second}")
    bare_run(problems)
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
