import functools
import itertools
import time

import numpy as np
import pytest

from lisscheb.congruence import validate_pairwise_coprime
from lisscheb.nodes import NodeSpec, build_node_set
from lisscheb.quad import exactness_table, integrate
from lisscheb.transform import SampleVector, alias_integral, chi_eval
from lisscheb.trig import cos_pi_ratio
from lisscheb.verify import run_suites

N53 = validate_pairwise_coprime((5, 3))

# The specs of the audit benchmark plus a shifted 4-D spec.
AUDIT_SPECS = [
    NodeSpec(n=validate_pairwise_coprime((7, 5, 3, 2))),
    NodeSpec(n=validate_pairwise_coprime((17, 16))),
    NodeSpec(n=validate_pairwise_coprime((9, 7)), kappa=(0, 1)),
    NodeSpec(n=validate_pairwise_coprime((7, 5, 3, 2)), kappa=(0, 1, 0, 1)),
]


def loop_rule(spec, box):
    """The rule sum_i w_i chi_gamma(i) by the double loop over gamma and i."""
    ns = build_node_set(spec)
    rows = [tuple(int(v) for v in row) for row in ns.indices]
    out = {}
    for gamma in itertools.product(*(range(b + 1) for b in box)):
        rule = 0.0
        for w, idx in zip(ns.weights, rows):
            rule += w * chi_eval(spec, gamma, idx)
        out[gamma] = rule
    return out


def node_rule(spec, box):
    """The same sums over the whole box, accumulated one node at a time.

    Per-axis factors multiply in chi_eval's axis order and the nodes add in
    loop_rule's order, so every value equals loop_rule's bit for bit.
    """
    ns = build_node_set(spec)
    acc = np.zeros([b + 1 for b in box])
    for w, idx in zip(ns.weights, ns.indices):
        factors = [
            np.array([cos_pi_ratio(g * int(ij), mj) for g in range(b + 1)])
            for b, ij, mj in zip(box, idx, spec.m)
        ]
        acc += w * functools.reduce(np.multiply.outer, factors)
    return acc


def test_integrate_constant():
    for spec in (NodeSpec(n=N53), NodeSpec(n=N53, kappa=(0, 1))):
        ns = build_node_set(spec)
        h = SampleVector(
            spec=spec, values={node.index: 1.0 for node in ns.nodes}
        )
        assert integrate(h) == pytest.approx(1.0, abs=1e-14)


def test_d1_x_squared():
    # integral of x^2 against dx / (pi sqrt(1 - x^2)) equals 1/2
    spec = NodeSpec(n=validate_pairwise_coprime((4,)))
    ns = build_node_set(spec)
    h = SampleVector(
        spec=spec,
        values={node.index: node.point[0] ** 2 for node in ns.nodes},
    )
    assert integrate(h) == pytest.approx(0.5, abs=1e-14)


def test_alias_frequency_integrates_to_one():
    spec = NodeSpec(n=N53)
    ns = build_node_set(spec)
    h = SampleVector(
        spec=spec,
        values={
            node.index: chi_eval(spec, (5, 3), node.index)
            for node in ns.nodes
        },
    )
    assert integrate(h) == pytest.approx(1.0, abs=1e-14)


def test_exactness_table_standard():
    spec = NodeSpec(n=N53)
    table = exactness_table(spec, [9, 5])
    assert all(entry.ok for entry in table.values())
    assert table[(0, 0)].rule_value == pytest.approx(1.0)
    assert table[(0, 0)].true_value == 1.0
    assert table[(5, 3)].rule_value == pytest.approx(1.0, abs=1e-14)
    assert table[(5, 3)].true_value == 0.0
    assert table[(2, 1)].rule_value == pytest.approx(0.0, abs=1e-14)


def test_exactness_table_shifted_signed_alias():
    spec = NodeSpec(n=N53, kappa=(0, 1))
    table = exactness_table(spec, [11, 7])
    assert all(entry.ok for entry in table.values())
    assert table[(10, 6)].rule_value == pytest.approx(-1.0, abs=1e-14)


def test_exactness_table_flags_a_wrong_rule():
    spec = NodeSpec(n=N53)
    table = exactness_table(spec, [9, 5], tol=1e-30)
    # an absurdly tight tolerance must produce at least one failure
    assert any(not entry.ok for entry in table.values())


@pytest.mark.parametrize("n", [4, 8, 16])
def test_d1_weights_are_clenshaw_curtis_like(n):
    spec = NodeSpec(n=validate_pairwise_coprime((n,)))
    ns = build_node_set(spec)
    for node in ns.nodes:
        if node.index[0] in (0, n):
            assert node.weight == pytest.approx(1.0 / (2 * n))
        else:
            assert node.weight == pytest.approx(1.0 / n)


def test_weights_positive():
    for spec in (
        NodeSpec(n=N53),
        NodeSpec(n=validate_pairwise_coprime((5, 3, 2))),
        NodeSpec(n=N53, kappa=(0, 0)),
    ):
        ns = build_node_set(spec)
        assert ns.weights.min() > 0


@pytest.mark.parametrize(
    "spec", [NodeSpec(n=N53), NodeSpec(n=N53, kappa=(0, 1))]
)
def test_node_rule_oracle_equals_loop(spec):
    box = [2 * mj + 1 for mj in spec.m]
    loop = loop_rule(spec, box)
    acc = node_rule(spec, box)
    assert all(acc[gamma] == rule for gamma, rule in loop.items())


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("spec", AUDIT_SPECS)
def test_exactness_table_matches_oracle(spec, wide):
    # The wide box runs past 2 m_j, where the rule wraps around.
    box = [2 * mj + (1 if wide else -1) for mj in spec.m]
    tol = 1e-12
    table = exactness_table(spec, box, tol=tol)
    acc = node_rule(spec, box)
    gammas = list(itertools.product(*(range(b + 1) for b in box)))
    assert len(table) == len(gammas)
    rules = np.array([table[g].rule_value for g in gammas])
    oks = np.array([table[g].ok for g in gammas])
    # the alias value where it is nonzero, else the integral
    targets = np.array(
        [alias_integral(spec, g) or float(not any(g)) for g in gammas]
    )
    want = acc.ravel()
    assert np.abs(rules - want).max() <= 1e-13
    assert np.array_equal(oks, np.abs(want - targets) < tol)


def test_tampered_weight_fails_both_quadrature_checks():
    spec = NodeSpec(n=N53)
    assert all(r.passed for r in run_suites(spec, ("quadrature",)))
    results = run_suites(spec, ("quadrature",), tamper_weight=True)
    assert [r.name for r in results] == [
        "weights normalized",
        "rule equals alias prediction on the box",
    ]
    assert not any(r.passed for r in results)


def test_quadrature_suite_scales():
    spec = NodeSpec(n=validate_pairwise_coprime((13, 11)), kappa=(0, 1))
    start = time.perf_counter()
    results = run_suites(spec, ("quadrature",))
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in results)
    assert elapsed < 0.5, f"quadrature suite took {elapsed:.3f} s"
