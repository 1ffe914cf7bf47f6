"""The README's Python example runs against the current API."""

import re
from pathlib import Path

import numpy as np

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
