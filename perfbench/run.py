"""lisscheb benchmark: one workload per process, checked outputs, JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload interp_nd_small --seed 1 \\
        --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
Set-up runs several times and is timed; then passes over the
workload's spec ladder run until ``--seconds`` have elapsed.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the first half of the time runs untraced and the second half
traced, and the last line holds the per-layer metrics.  The line before it
is a detailed report.  ``--workload all`` runs every workload, each in a
fresh process, and prints one table.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# Set-up repeats at least this often and for at least this long.  Small
# workloads set up in milliseconds and need many samples.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# interp_2d_large is not in BENCHMARK.json: on the 2-vCPU host the benchmark
# was defined on, its 131k-node calls spread 0.24-0.35 (IQR over median)
# between runs, above the largest allowed bound.  It stays runnable for
# measuring the large-array path by hand.
WORKLOAD_NAMES = ("interp_nd_small", "verify_audit", "cli_roundtrip",
                  "interp_2d_large")


def load_package():
    """Import lisscheb from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lisscheb

    if Path(lisscheb.__file__).resolve().parent.parent != src:
        raise ImportError(f"lisscheb resolved to {lisscheb.__file__}")
    return lisscheb


def cache_sizes():
    """L2 and L3 sizes of cpu0 as the kernel reports them (read only)."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            out[f"l{level}"] = size
    return out


def size_bytes(text):
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text else None


def environment(workload):
    import numpy as np
    from workloads import largest_grid_bytes

    grid = largest_grid_bytes(workload)
    caches = cache_sizes()
    l3 = size_bytes(caches.get("l3"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        **caches,
        "largest_grid_bytes": grid,
        "largest_mirror_grid_bytes": 2 * grid,
        "grid_fits_l3": l3 is not None and 2 * grid < l3,
        "note": "byte figures are computed from array shapes, not measured; "
                "the grids fit in L3, so DRAM bandwidth is not measured",
    }


def tail(samples):
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None
    return {"percentile": 100 * (n - 10) // n,
            "value": sorted(samples)[n - 11]}


def quartiles(values):
    out = {"median": statistics.median(values), "samples": len(values),
           "tail": tail(values)}
    if len(values) > 1:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def run_passes(workload, state, seconds, before_pass=None):
    """Passes until the deadline; at least one."""
    from workloads import PassRecord

    records = []
    deadline = time.perf_counter() + seconds
    while True:
        if before_pass is not None:
            before_pass(len(records))
        rec = PassRecord()
        workload.run_pass(state, len(records), rec)
        records.append(rec)
        if time.perf_counter() >= deadline:
            return records


def upper_quartile(values):
    """Time estimate that stays in the slow state of a host that switches.

    The machine the benchmark was defined on runs the same code up to 2x
    faster in some stretches than in others; medians jump between the two
    states from run to run, the upper quartile far less (see README.md).
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def ladder_costs(records, estimate):
    """(seconds per operation, operations per pass) per (kind, spec)."""
    times = collections.defaultdict(list)
    ops = collections.Counter()
    for rec in records:
        for kind, case, seconds, count in rec.calls:
            times[kind, case].append(seconds / count)
            ops[kind, case] += count
    return {key: (estimate(v), ops[key] / len(records))
            for key, v in times.items()}


def end_to_end(records, estimate):
    """Pass time and per-kind rates from per-operation time estimates."""
    costs = ladder_costs(records, estimate)

    def rate(kind):
        sel = [(t, n) for (k, _), (t, n) in costs.items() if k == kind]
        return sum(n for _, n in sel) / sum(t * n for t, n in sel)

    return {
        "pass_s": sum(t * n for t, n in costs.values()),
        "interp_per_s": rate("interp"),
        "eval_points_per_s": rate("eval"),
        "quad_per_s": rate("quad"),
    }


def measure(args):
    import numpy as np

    lisscheb = sys.modules["lisscheb"]
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_times = []
        state = None
        while (len(setup_times) < SETUP_REPEATS
               or sum(setup_times) < SETUP_SECONDS):
            state = None  # each set-up starts without the previous one's data
            t0 = time.perf_counter()
            state = workload.setup(np.random.default_rng(args.seed), workdir)
            setup_times.append(time.perf_counter() - t0)
        untraced_seconds = args.seconds / 2 if args.trace else args.seconds
        records = run_passes(workload, state, untraced_seconds)
        state = None
        values = {"setup_s": upper_quartile(setup_times),
                  **end_to_end(records, upper_quartile)}
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(workload),
            "setup_times": quartiles(setup_times),
            "pass_totals": quartiles(
                [sum(c[2] for c in r.calls) for r in records]),
            "median_estimates": end_to_end(records, statistics.median),
        }
        if args.trace:
            report["traced"] = trace_run(args, lisscheb, tracing, workload,
                                         workdir, values["pass_s"])
            records = records + report["traced"].pop("records")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    report["end_to_end"] = values
    report["fail_frac"] = failed / attempted
    alias = {"verify_audit": "verify_s", "cli_roundtrip": "cli_roundtrip_s"}
    if args.workload in alias:
        report[alias[args.workload]] = values["pass_s"]

    if args.trace:
        metrics = report["traced"]["per_layer"]
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_METRICS}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


E2E_METRICS = (("setup_s", "s"), ("pass_s", "s"), ("interp_per_s", "1/s"),
               ("eval_points_per_s", "1/s"), ("quad_per_s", "1/s"),
               ("peak_rss_mb", "MB"))

# Per-layer metrics reported on every workload: (name, span, statistic).
LAYER_TIMES = (
    ("nodes.build_node_set_s", "nodes.build_node_set", "median_s"),
    ("nodes.lookup_s", "nodes.lookup", "median_s"),
    ("spectral.build_gamma_s", "spectral.build_gamma", "median_s"),
    ("transform.aligned_values_s", "transform.aligned_values", "median_s"),
    ("transform.embed_grid_s", "transform.embed_grid", "median_s"),
    ("transform.coefficients_fast_s", "transform.coefficients_fast",
     "median_s"),
    ("transform.coefficients_fast.self_s", "transform.coefficients_fast",
     "self_median_s"),
    ("transform.discrete_integral_s", "transform.discrete_integral",
     "median_s"),
    ("interp.interpolate_s", "interp.interpolate", "median_s"),
    ("interp.expansion_eval_s", "interp.expansion_eval", "median_s"),
    ("quad.integrate_s", "quad.integrate", "median_s"),
)
LAYER_COUNTS = (
    ("spectral.keep_ratio", "ratio"),
    ("transform.fill_ratio", "ratio"),
    ("transform.grid_bytes", "bytes"),
    ("trig.cos_pi_ratio.calls", "count"),
)
# Reported in the detail line only: these layers run on one workload.
DETAIL_TIMES = (
    ("nodes.nodes_s", "nodes.nodes", "median_s"),
    ("transform.coefficients_naive_s", "transform.coefficients_naive",
     "median_s"),
    ("interp.fundamental_s", "interp.fundamental", "median_s"),
    ("interp.kernel_eval_s", "interp.kernel_eval", "median_s"),
    ("quad.exactness_table_s", "quad.exactness_table", "median_s"),
    ("verify.suite_orthogonality_s", "verify.suite_orthogonality",
     "median_s"),
    ("verify.suite_curve_s", "verify.suite_curve", "median_s"),
    ("verify.suite_quadrature_s", "verify.suite_quadrature", "median_s"),
    ("verify.suite_transform_s", "verify.suite_transform", "median_s"),
    ("cli.cmd_interp.self_s", "cli.cmd_interp", "self_median_s"),
    ("cli.cmd_eval.self_s", "cli.cmd_eval", "self_median_s"),
    ("cli.cmd_quad.self_s", "cli.cmd_quad", "self_median_s"),
)
DETAIL_COUNTS = ("quad.exactness_chi_evals", "curves.lc_eval_at_index.calls")


def trace_run(args, lisscheb, tracing, workload, workdir, untraced_pass_s):
    """Second half of a traced run: spans on, one set-up, then passes."""
    import numpy as np

    tracer = tracing.install(lisscheb)
    t0 = time.perf_counter()
    state = workload.setup(np.random.default_rng(args.seed), workdir)
    traced_setup_s = time.perf_counter() - t0

    pass_counts = []

    def before_pass(i):
        if i:
            pass_counts.append(tracing.pass_counts(tracer.counts))
        tracer.counts.clear()

    records = run_passes(workload, state, args.seconds / 2, before_pass)
    before_pass(len(records))
    counts = pass_counts[0]
    stats = tracing.span_stats(tracer.spans)
    traced_pass_s = end_to_end(records, upper_quartile)["pass_s"]

    per_layer = {}
    missing = []
    for name, span, key in LAYER_TIMES:
        if span in stats:
            per_layer[name] = {"value": stats[span][key], "unit": "s"}
        else:
            missing.append(name)
    for name, unit in LAYER_COUNTS:
        if counts[name]:
            per_layer[name] = {"value": counts[name], "unit": unit}
        else:
            missing.append(name)
    per_layer["trace.overhead_pct"] = {
        "value": 100.0 * (traced_pass_s / untraced_pass_s - 1.0), "unit": "%"}
    if missing:
        print(f"perfbench: layers not observed: {', '.join(missing)}",
              file=sys.stderr)

    detail = {name: (stats[span][key] if span in stats else None)
              for name, span, key in DETAIL_TIMES}
    detail.update({name: counts[name] for name in DETAIL_COUNTS})

    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_file, "w") as out:
        json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns",
                              "child_ns"], "spans": tracer.spans}, out)
    return {
        "records": records,
        "per_layer": per_layer,
        "detail": detail,
        "spans": stats,
        "counts": counts,
        "counts_repeat_across_passes": all(c == counts for c in pass_counts),
        "setup_s": traced_setup_s,
        "pass_s": traced_pass_s,
        "untraced_pass_s": untraced_pass_s,
        "passes": len(records),
        "trace_file": str(trace_file.relative_to(ROOT)),
    }


def run_all(args):
    """Every workload in its own process; one table of results."""
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])["report"]
        status |= not result["correct"]
        rows.append((name, "fail_frac", report["fail_frac"], ""))
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, entry["value"], entry["unit"]))
        for extra in ("verify_s", "cli_roundtrip_s"):
            if extra in report:
                rows.append((name, extra, report[extra], "s"))
    for name, metric, value, unit in rows:
        print(f"{name:16} {metric:38} {value:>16.6g} {unit}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    # One thread: the load is a single process on a 2-core machine.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        load_package()
    except ImportError as exc:
        print(f"perfbench: cannot import lisscheb from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
