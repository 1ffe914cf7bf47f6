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
from .nodes import NodeSet, NodeSpec, build_node_set, chi_tables
from .spectral import build_gamma

_TRANSFORM_TRIALS = 5
_TRANSFORM_SEED = 0
# Most chi-matrix entries in one Gram block of suite_orthogonality: 8 MB.
_GRAM_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def suite_orthogonality(node_set: NodeSet) -> List[CheckResult]:
    """Gram matrix of the basis functions is diagonal with the stated norms.

    It is formed one pair of gamma-row blocks at a time, from chi blocks of
    at most _GRAM_BLOCK_ENTRIES entries, so memory is bounded.
    """
    spec = node_set.spec
    gs = build_gamma(spec)
    w = node_set.weights
    tables = chi_tables(spec)
    rows = max(1, _GRAM_BLOCK_ENTRIES // max(1, len(node_set)))
    starts = range(0, len(gs), rows)

    def chi(start):
        gammas = gs.elements[start : start + rows]
        return transform.chi_matrix(spec, gammas, node_set.indices, tables)

    offs, diags = [], []
    for a, i in enumerate(starts):
        x = chi(i)
        xw = x * w
        gram = xw @ x.T
        diags.append(np.abs(np.diag(gram) - gs.norm_sq[i : i + rows]).max())
        np.fill_diagonal(gram, 0.0)
        offs.append(np.abs(gram).max())
        # Both blocks of a pair: their entries multiply in another order.
        for y in map(chi, starts[a + 1 :]):
            offs += [np.abs(xw @ y.T).max(), np.abs((y * w) @ x.T).max()]
    # np.max, unlike max, keeps a NaN.
    max_off, diag_err = float(np.max(offs)), float(np.max(diags))
    return [
        CheckResult(
            "orthogonality",
            "cardinality match",
            len(gs) == len(node_set),
            f"#gamma={len(gs)} #nodes={len(node_set)}",
        ),
        CheckResult(
            "orthogonality",
            "off-diagonal Gram entries",
            max_off < 1e-10,
            f"max |off-diagonal| = {max_off:.3e}",
        ),
        CheckResult(
            "orthogonality",
            "diagonal norms",
            diag_err < 1e-10,
            f"max |diagonal - norm| = {diag_err:.3e}",
        ),
    ]


def suite_curve(node_set: NodeSet) -> List[CheckResult]:
    """Curve samples at the grid parameters reproduce the node set.

    The standard family has one epsilon=1 curve; the shifted family has an
    epsilon=2 curve per sign pattern off axis g.  Both sample l < 2 eps P[n].
    """
    spec = node_set.spec
    g = spec.g_index
    eps = 2 if spec.is_shifted else 1
    # lc_eval_at_index makes samples bit-identical to node coordinates.
    node_points = set(map(tuple, node_set.points.tolist()))
    sampled = set()
    # (1, -1)[:1] gives the one all-ones pattern of the standard family.
    for signs in itertools.product((1, -1)[:eps], repeat=spec.dim - 1):
        u = signs[:g] + (1,) + signs[g:]
        curve = LCCurve(n=spec.n, epsilon=eps, kappa=spec.shift, u=u)
        steps = range(2 * eps * spec.n.product)
        sampled.update(lc_eval_at_index(curve, l) for l in steps)
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
    total = float(node_set.weights.sum())
    box = [2 * mj - 1 for mj in node_set.spec.m]
    ok = quad.exactness_table(node_set, box).ok
    bad = int(np.count_nonzero(~ok))
    return [
        CheckResult(
            "quadrature",
            "weights normalized",
            node_set.weights.min() > 0 and abs(total - 1.0) < 1e-14,
            f"sum of weights = {total!r}",
        ),
        CheckResult(
            "quadrature",
            "rule equals alias prediction on the box",
            not bad,
            f"{ok.size} frequencies checked, {bad} mismatches",
        ),
    ]


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
    return [r for name in suites for r in dispatch[name](node_set)]
