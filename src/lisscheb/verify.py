"""Self-verification: runnable invariant suites over a node set.

Each suite takes the one node set it audits and reads the spec from it.
It re-derives a structural property from first principles and compares it
against what the library computes.  The suites back the CLI verify
command; they are also reused directly by the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from . import quad, transform
from .curves import LCCurve, lc_eval_at_index
from .errors import InvalidParameter
from .nodes import NodeSet, NodeSpec, build_node_set
from .spectral import build_gamma

_TRANSFORM_TRIALS = 5
_TRANSFORM_SEED = 0


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def suite_orthogonality(node_set: NodeSet) -> List[CheckResult]:
    """Gram matrix of the basis functions is diagonal with the stated norms."""
    spec = node_set.spec
    gs = build_gamma(spec)
    results = []
    results.append(
        CheckResult(
            "orthogonality",
            "cardinality match",
            len(gs) == len(node_set),
            f"#gamma={len(gs)} #nodes={len(node_set)}",
        )
    )
    x = transform.chi_matrix(spec, gs.elements, node_set.indices)
    gram = (x * node_set.weights) @ x.T
    off = gram - np.diag(np.diag(gram))
    max_off = float(np.abs(off).max()) if len(gs) > 1 else 0.0
    diag_err = float(np.abs(np.diag(gram) - gs.norm_sq).max())
    results.append(
        CheckResult(
            "orthogonality",
            "off-diagonal Gram entries",
            max_off < 1e-10,
            f"max |off-diagonal| = {max_off:.3e}",
        )
    )
    results.append(
        CheckResult(
            "orthogonality",
            "diagonal norms",
            diag_err < 1e-10,
            f"max |diagonal - norm| = {diag_err:.3e}",
        )
    )
    return results


def suite_curve(node_set: NodeSet) -> List[CheckResult]:
    """Curve samples at the grid parameters reproduce the node set."""
    spec = node_set.spec
    n = spec.n
    d = spec.dim
    # lc_eval_at_index makes samples bit-identical to node coordinates.
    node_points = set(map(tuple, node_set.points.tolist()))
    sampled = set()
    if spec.is_shifted:
        # u_g = 1 and every sign pattern on the other axes
        for signs in itertools.product((1, -1), repeat=d - 1):
            u = signs[: spec.g_index] + (1,) + signs[spec.g_index :]
            curve = LCCurve(n=n, epsilon=2, kappa=spec.kappa, u=u)
            for l in range(4 * n.product):
                sampled.add(lc_eval_at_index(curve, l))
    else:
        curve = LCCurve(n=n, epsilon=1, kappa=(0,) * d, u=(1,) * d)
        for l in range(2 * n.product):
            sampled.add(lc_eval_at_index(curve, l))
    ok = sampled == node_points
    return [
        CheckResult(
            "curve",
            "sampled curve reproduces node set",
            ok,
            f"{len(sampled)} sampled points vs {len(node_points)} nodes",
        )
    ]


def suite_quadrature(node_set: NodeSet) -> List[CheckResult]:
    """Weights are positive, normalized, and the rule matches the alias table."""
    results = []
    total = float(node_set.weights.sum())
    results.append(
        CheckResult(
            "quadrature",
            "weights normalized",
            node_set.weights.min() > 0 and abs(total - 1.0) < 1e-14,
            f"sum of weights = {total!r}",
        )
    )
    box = [2 * mj - 1 for mj in node_set.spec.m]
    ok = quad.exactness_table(node_set, box).ok
    bad = int(np.count_nonzero(~ok))
    results.append(
        CheckResult(
            "quadrature",
            "rule equals alias prediction on the box",
            not bad,
            f"{ok.size} frequencies checked, {bad} mismatches",
        )
    )
    return results


def suite_transform(node_set: NodeSet) -> List[CheckResult]:
    """Fast and naive coefficient paths agree on random samples."""
    rng = np.random.default_rng(_TRANSFORM_SEED)
    worst = 0.0
    for _ in range(_TRANSFORM_TRIALS):
        values = dict(
            zip(node_set.lookup, rng.standard_normal(len(node_set)).tolist())
        )
        h = transform.SampleVector(spec=node_set.spec, values=values)
        fast = transform.coefficients_fast(h, node_set=node_set).coeffs
        naive = transform.coefficients_naive(h, node_set=node_set).coeffs
        scale = float(np.abs(naive).max()) or 1.0
        worst = max(worst, float(np.abs(naive - fast).max()) / scale)
    return [
        CheckResult(
            "transform",
            "fast path matches the naive oracle",
            worst < 1e-12,
            f"max relative deviation = {worst:.3e} "
            f"over {_TRANSFORM_TRIALS} samples",
        )
    ]


def _suites() -> Dict[str, Callable[[NodeSet], List[CheckResult]]]:
    # Read per call, so a suite rebound on the module (as the benchmark's
    # tracer does) is the one that runs.
    return {
        "orthogonality": suite_orthogonality,
        "curve": suite_curve,
        "quadrature": suite_quadrature,
        "transform": suite_transform,
    }


SUITE_NAMES = tuple(_suites())


def run_suites(
    spec: NodeSpec, suites: Sequence[str] = SUITE_NAMES
) -> List[CheckResult]:
    """Run the requested invariant suites against one node set of a spec.

    Raises InvalidParameter, before any suite runs, for an unknown name.
    """
    dispatch = _suites()
    for name in suites:
        if name not in dispatch:
            raise InvalidParameter(f"unknown suite {name!r}")
    node_set = build_node_set(spec)
    results: List[CheckResult] = []
    for name in suites:
        results.extend(dispatch[name](node_set))
    return results
