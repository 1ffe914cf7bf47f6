import os
import subprocess
import sys
from pathlib import Path

import pytest

from lisscheb import verify
from lisscheb.congruence import validate_pairwise_coprime
from lisscheb.errors import InvalidParameter
from lisscheb.nodes import NodeSpec, build_node_set

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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
