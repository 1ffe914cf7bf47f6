"""Self-verification: runnable invariant suites over a node spec.

Each suite re-derives a structural property from first principles and
compares it against what the library computes.  The suites back the CLI
verify command; they are also reused directly by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import quad, transform
from .curves import LCCurve, lc_eval_at_index
from .nodes import NodeSet, NodeSpec, build_node_set
from .spectral import build_gamma

SUITE_NAMES = ("orthogonality", "curve", "quadrature", "transform")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def suite_orthogonality(
    spec: NodeSpec, node_set: Optional[NodeSet] = None
) -> List[CheckResult]:
    """Gram matrix of the basis functions is diagonal with the stated norms."""
    if node_set is None:
        node_set = build_node_set(spec)
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


def suite_curve(
    spec: NodeSpec, node_set: Optional[NodeSet] = None
) -> List[CheckResult]:
    """Curve samples at the grid parameters reproduce the node set."""
    if node_set is None:
        node_set = build_node_set(spec)
    n = spec.n
    d = spec.dim
    node_points = {
        tuple(round(c, 9) for c in node.point) for node in node_set.nodes
    }
    sampled = set()
    if spec.is_shifted:
        g = spec.g_index
        for bits in range(2 ** (d - 1)):
            u = []
            pos = 0
            for j in range(d):
                if j == g:
                    u.append(1)
                else:
                    u.append(1 if (bits >> pos) & 1 == 0 else -1)
                    pos += 1
            curve = LCCurve(n=n, epsilon=2, kappa=spec.kappa, u=tuple(u))
            for l in range(4 * n.product):
                pt = lc_eval_at_index(curve, l)
                sampled.add(tuple(round(c, 9) for c in pt))
    else:
        curve = LCCurve(n=n, epsilon=1, kappa=(0,) * d, u=(1,) * d)
        for l in range(2 * n.product):
            pt = lc_eval_at_index(curve, l)
            sampled.add(tuple(round(c, 9) for c in pt))
    ok = sampled == node_points
    return [
        CheckResult(
            "curve",
            "sampled curve reproduces node set",
            ok,
            f"{len(sampled)} sampled points vs {len(node_points)} nodes",
        )
    ]


def suite_quadrature(
    spec: NodeSpec, node_set: Optional[NodeSet] = None
) -> List[CheckResult]:
    """Weights are positive, normalized, and the rule matches the alias table."""
    if node_set is None:
        node_set = build_node_set(spec)
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
    box = [2 * mj - 1 for mj in spec.m]
    table = quad.exactness_table(spec, box, node_set=node_set)
    bad = [g for g, entry in table.items() if not entry.ok]
    results.append(
        CheckResult(
            "quadrature",
            "rule equals alias prediction on the box",
            not bad,
            f"{len(table)} frequencies checked, {len(bad)} mismatches",
        )
    )
    return results


def suite_transform(
    spec: NodeSpec,
    node_set: Optional[NodeSet] = None,
    trials: int = 5,
    seed: int = 0,
) -> List[CheckResult]:
    """Fast and naive coefficient paths agree on random samples."""
    if node_set is None:
        node_set = build_node_set(spec)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        values = {
            node.index: float(v)
            for node, v in zip(node_set.nodes, rng.standard_normal(len(node_set)))
        }
        h = transform.SampleVector(spec=spec, values=values)
        fast = transform.coefficients_fast(h, node_set=node_set)
        naive = transform.coefficients_naive(h, node_set=node_set)
        scale = max(abs(v) for v in naive.coeffs.values()) or 1.0
        for gamma, c in naive.coeffs.items():
            worst = max(worst, abs(c - fast.coeffs[gamma]) / scale)
    return [
        CheckResult(
            "transform",
            "fast path matches the naive oracle",
            worst < 1e-12,
            f"max relative deviation = {worst:.3e} over {trials} samples",
        )
    ]


def run_suites(
    spec: NodeSpec,
    suites: Sequence[str] = SUITE_NAMES,
    tamper_weight: bool = False,
) -> List[CheckResult]:
    """Run the requested invariant suites against one spec.

    ``tamper_weight`` deliberately corrupts one quadrature weight before
    running; it exists so callers can confirm the checks actually bite.
    """
    node_set = build_node_set(spec)
    if tamper_weight:
        node_set.weights[0] *= 1.0 + 1e-6
    dispatch = {
        "orthogonality": suite_orthogonality,
        "curve": suite_curve,
        "quadrature": suite_quadrature,
        "transform": suite_transform,
    }
    results: List[CheckResult] = []
    for name in suites:
        if name not in dispatch:
            raise ValueError(f"unknown suite {name!r}")
        results.extend(dispatch[name](spec, node_set=node_set))
    return results
