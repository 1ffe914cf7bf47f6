"""The benchmark's layer tracer still finds every name it wraps.

perfbench/tracing.py rebinds public functions and NodeSet properties by
name, so deleting or renaming one breaks the traced benchmark run.  This
installs the tracer in a fresh process, which keeps the rebinding out of
the test session, and times one call through it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import lisscheb, tracing
tracer = tracing.install(lisscheb)
spec = lisscheb.NodeSpec(n=lisscheb.validate_pairwise_coprime((5, 3)))
lisscheb.build_node_set(spec)
assert [s[2] for s in tracer.spans] == ["nodes.build_node_set"], tracer.spans
"""


def test_tracer_installs():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
