import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from lisscheb import verify
from lisscheb.congruence import validate_pairwise_coprime
from lisscheb.errors import InvalidParameter
from lisscheb.nodes import NodeSet, NodeSpec, build_node_set
from lisscheb.spectral import build_gamma

ROOT = Path(__file__).resolve().parent.parent
N53 = validate_pairwise_coprime((5, 3))


@pytest.mark.parametrize("spec", [NodeSpec(n=N53), NodeSpec(n=N53, kappa=(0, 1))])
def test_each_suite_audits_the_node_set_it_is_given(spec):
    suites = verify._suites()
    ns = build_node_set(spec)
    for name in verify.SUITE_NAMES:
        assert all(r.passed for r in suites[name](ns)), name
    ns.weights[0] *= 1.0 + 1e-6
    failed = {
        (r.suite, r.name)
        for name in verify.SUITE_NAMES
        for r in suites[name](ns)
        if not r.passed
    }
    assert failed == {
        ("orthogonality", "off-diagonal Gram entries"),
        ("orthogonality", "diagonal norms"),
        ("quadrature", "weights normalized"),
        ("quadrature", "rule equals alias prediction on the box"),
    }


def test_orthogonality_memory_is_bounded():
    # The whole Gram matrix and its chi matrix took 140 MB here.
    ns = build_node_set(NodeSpec(n=validate_pairwise_coprime((65, 64))))
    build_gamma(ns.spec)  # the cached set is not the suite's memory
    tracemalloc.start()
    try:
        results = verify.suite_orthogonality(ns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak < 64 << 20


@pytest.mark.parametrize("n, kappa", [
    ((5, 3), None), ((7, 5, 3, 2), None), ((17, 16), None), ((9, 7), (0, 1)),
])
@pytest.mark.parametrize("rows", [1, 5, 64])
def test_gram_blocks_give_the_results_of_one_block(n, kappa, rows, monkeypatch):
    ns = build_node_set(NodeSpec(n=validate_pairwise_coprime(n), kappa=kappa))
    assert verify._GRAM_BLOCK_ENTRIES >= len(ns) ** 2  # one block
    whole = verify.suite_orthogonality(ns)
    ns.weights[-1] *= 1.0 + 1e-6
    tampered = verify.suite_orthogonality(ns)
    assert not all(r.passed for r in tampered)
    monkeypatch.setattr(verify, "_GRAM_BLOCK_ENTRIES", rows * len(ns))
    assert verify.suite_orthogonality(ns) == tampered
    ns.weights[-1] /= 1.0 + 1e-6
    blocked = verify.suite_orthogonality(ns)
    assert [r.passed for r in blocked] == [r.passed for r in whole]
    # The untampered maxima are rounding noise, about 1e-16.  OpenBLAS
    # rounds products of fewer than about 35 rows in another order, which
    # moves that noise; from 64 rows on the blocks give the same bits.
    if rows >= 64:
        assert blocked == whole


def test_orthogonality_of_an_empty_node_set_fails():
    ns = build_node_set(NodeSpec(n=N53))
    empty = NodeSet(ns.spec, *(a[:0] for a in (ns.indices, ns.points,
                                              ns.weights, ns.parities)))
    results = verify.suite_orthogonality(empty)
    assert [r.passed for r in results] == [False, True, False]


def test_unknown_suite_rejected_before_any_suite_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(
        verify, "suite_orthogonality", lambda ns: ran.append(ns) or []
    )
    with pytest.raises(InvalidParameter, match="'bogus'"):
        verify.run_suites(NodeSpec(n=N53), ("orthogonality", "bogus"))
    assert ran == []
    # the rebound module name is the one that runs
    verify.run_suites(NodeSpec(n=N53), ("orthogonality",))
    assert len(ran) == 1


def test_benchmark_tracer_installs():
    # perfbench/tracing.py wraps library functions and NodeSet properties by
    # name; renaming or deleting one must fail here, not only in the slower
    # perfbench/smoke.py.
    script = """
import sys
sys.path.insert(0, "perfbench")
import lisscheb, tracing
from lisscheb import verify
from lisscheb.nodes import NodeSpec
tracer = tracing.install(lisscheb)
verify.run_suites(NodeSpec(n=lisscheb.validate_pairwise_coprime((5, 3))))
names = {span[2] for span in tracer.spans}
want = {"verify." + f for f in tracing.SPANNED["verify"]}
assert want <= names, sorted(want - names)
"""
    _run_in_checkout(script)


def test_benchmark_layers_are_observed():
    # perfbench/run.py reports a per-layer metric only when its span was
    # recorded or its counter is above 0 in a traced pass, and
    # perfbench/smoke.py fails otherwise.  As run.py does, each workload of
    # BENCHMARK.json sets up and runs a pass untraced; then, traced, each
    # sets up again, clears the counts and runs pass 0.  Each traced set-up
    # and pass must observe every layer, including the lazy lookup and the
    # cos_pi_ratio calls that a cache could remove, and check no wrong
    # output.  BENCHMARK.json must list the per-layer metrics run.py reports.
    script = """
import atexit, json, os, shutil, sys, tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
import run
os.environ.update(dict.fromkeys(run.THREAD_VARS, "1"))
import numpy as np
import lisscheb, tracing
from workloads import WORKLOADS, PassRecord
bench = json.loads(Path("BENCHMARK.json").read_text())
reported = ([name for name, _, _ in run.LAYER_TIMES]
            + [name for name, _ in run.LAYER_COUNTS] + ["trace.overhead_pct"])
assert [m["name"] for m in bench["per_layer"]] == reported, reported
names = [w["name"] for w in bench["workloads"]]
tmp = Path(tempfile.mkdtemp())
atexit.register(shutil.rmtree, tmp, True)
def set_up(name):
    (tmp / name).mkdir(exist_ok=True)
    return WORKLOADS[name].setup(np.random.default_rng(1), tmp / name)
def pass_0(name, state):
    rec = PassRecord()
    WORKLOADS[name].run_pass(state, 0, rec)
    assert rec.attempted and not rec.failed, (name, rec.failed)
for name in names:
    pass_0(name, set_up(name))
tracer = tracing.install(lisscheb)
for name in names:
    first = len(tracer.spans)
    state = set_up(name)
    tracer.counts.clear()
    pass_0(name, state)
    seen = {span[2] for span in tracer.spans[first:]}
    missing = {span for _, span, _ in run.LAYER_TIMES} - seen
    assert not missing, (name, sorted(missing))
    counts = tracing.pass_counts(tracer.counts)
    unseen = [metric for metric, _ in run.LAYER_COUNTS if not counts[metric]]
    assert not unseen, (name, unseen)
"""
    _run_in_checkout(script)


def _run_in_checkout(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("suites, match", [
    # A string is a sequence of one-letter names; it read as 'c', 'u', ...
    ("curve", "sequence of names, got 'curve'"),
    (None, "sequence of names, got None"),
    (5, "sequence of names, got 5"),
    ([["curve"]], r"unknown suite \['curve'\]"),
])
def test_run_suites_rejects_suites_that_are_not_names(suites, match):
    with pytest.raises(InvalidParameter, match=match):
        verify.run_suites(NodeSpec(n=(5, 3)), suites)
    assert verify.run_suites(NodeSpec(n=(5, 3)), ["curve"])[0].passed
