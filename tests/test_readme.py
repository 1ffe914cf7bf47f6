"""The README's Python example and command lines run against the current API."""

import math
import re
import shlex
from pathlib import Path

import numpy as np

from lisscheb.cli import main
from lisscheb.nodes import NodeSpec, build_node_set

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    scope = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), scope)
    p, gamma, q = scope["p"], scope["gamma"], scope["q"]
    assert p.coeffs.shape == (len(gamma),) == (12,)
    assert scope["as_dict"] == dict(zip(gamma, p.coeffs.tolist()))
    assert np.ndim(scope["value"]) == 0 and scope["values"].shape == (2,)
    assert q.coeffs[0] == 1.0 and np.count_nonzero(q.coeffs) == 2


def test_command_lines_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(), re.S)
    argvs = [shlex.split(line, comments=True)
             for block in blocks for line in block.splitlines()]
    commands = [argv[1:] for argv in argvs if argv[:1] == ["lisscheb"]]
    assert len(commands) >= 7
    # The files the command lines name: samples at the 12 nodes of (5, 3)
    # and two evaluation points.
    ns = build_node_set(NodeSpec(n=(5, 3)))
    rows = [f"{i},{j},{math.sin(x) + y**2!r}"
            for (i, j), (x, y) in zip(ns.indices.tolist(), ns.points.tolist())]
    (tmp_path / "samples.csv").write_text("\n".join(["i_1,i_2,value", *rows]))
    (tmp_path / "pts.csv").write_text("x_1,x_2\n0.2,-0.7\n1.0,0.5\n")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
