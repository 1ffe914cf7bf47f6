import functools
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import small_specs

from lisscheb import interp, nodes, transform
from lisscheb.congruence import validate_pairwise_coprime
from lisscheb.errors import InvalidParameter, OverflowDimension
from lisscheb.interp import fundamental
from lisscheb.nodes import NodeSpec, build_node_set, int_tuples
from lisscheb.quad import exactness_table, integrate
from lisscheb.transform import (
    SampleVector,
    alias_integral,
    chi_eval,
    chi_matrix,
)
from lisscheb.trig import cos_pi_ratio
from lisscheb.verify import run_suites, suite_curve, suite_quadrature

N53 = validate_pairwise_coprime((5, 3))

# The specs of the audit benchmark plus a shifted 4-D spec.
AUDIT_SPECS = [
    NodeSpec(n=validate_pairwise_coprime((7, 5, 3, 2))),
    NodeSpec(n=validate_pairwise_coprime((17, 16))),
    NodeSpec(n=validate_pairwise_coprime((9, 7)), kappa=(0, 1)),
    NodeSpec(n=validate_pairwise_coprime((7, 5, 3, 2)), kappa=(0, 1, 0, 1)),
]

# The specs of the benchmark's gated workloads.
BENCHMARK_SPECS = [
    NodeSpec(n=validate_pairwise_coprime(nv), kappa=kappa)
    for nv, kappa in [
        ((13, 11, 7, 5), None), ((11, 9, 7, 5, 2), None),
        ((7, 5, 3, 2), (0, 1, 0, 1)), ((9, 7, 4), (1, 0, 0)),
        ((31, 29, 16), None), ((7, 5, 3, 2), None), ((17, 16), None),
        ((9, 7), (0, 1)), ((129, 128), None),
    ]
]


def _random_samples(spec, seed, complex_values=False):
    """Seeded samples on every node, keyed in a shuffled order."""
    ns = build_node_set(spec)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(len(ns))
    if complex_values:
        values = values + 1j * rng.standard_normal(len(ns))
    keys = list(int_tuples(ns.indices))
    order = rng.permutation(len(ns)).tolist()
    return SampleVector(spec, {keys[k]: values[k].item() for k in order})


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
    table = exactness_table(build_node_set(spec), [9, 5])
    for values in (table.rule_value, table.true_value, table.ok):
        assert values.shape == (10, 6)
    assert table.ok.all()
    assert table.rule_value[0, 0] == pytest.approx(1.0)
    assert table.true_value[0, 0] == 1.0
    assert table.rule_value[5, 3] == pytest.approx(1.0, abs=1e-14)
    assert table.true_value[5, 3] == 0.0
    assert table.rule_value[2, 1] == pytest.approx(0.0, abs=1e-14)
    assert np.count_nonzero(table.true_value) == 1


def test_exactness_table_shifted_signed_alias():
    spec = NodeSpec(n=N53, kappa=(0, 1))
    table = exactness_table(build_node_set(spec), [11, 7])
    assert table.ok.shape == (12, 8)
    assert table.ok.all()
    assert table.rule_value[10, 6] == pytest.approx(-1.0, abs=1e-14)


def test_exactness_table_flags_a_wrong_rule():
    spec = NodeSpec(n=N53)
    table = exactness_table(build_node_set(spec), [9, 5], tol=1e-30)
    # an absurdly tight tolerance must produce at least one failure
    assert not table.ok.all()


@pytest.mark.parametrize(
    "box, error, match",
    [
        ([9], InvalidParameter, "box must have 2 entries"),
        ([9, 5, 3], InvalidParameter, "box must have 2 entries"),
        ([-1, 5], InvalidParameter, "2 entries >= 0"),
        ([9.5, 5], InvalidParameter, "must be integers, got 9.5"),
        ([True, 5], InvalidParameter, "must be integers, got True"),
        ([10**30, 5], OverflowDimension, "exceeds the limit"),
    ],
)
def test_exactness_table_rejects_bad_boxes(box, error, match):
    node_set = build_node_set(NodeSpec(n=N53))
    with pytest.raises(error, match=match):
        exactness_table(node_set, box)


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
    table = exactness_table(build_node_set(spec), box, tol=tol)
    acc = node_rule(spec, box)
    gammas = list(itertools.product(*(range(b + 1) for b in box)))
    assert table.rule_value.shape == table.ok.shape == acc.shape
    rules = table.rule_value.ravel()
    oks = table.ok.ravel()
    # the alias value where it is nonzero, else the integral
    targets = np.array(
        [alias_integral(spec, g) or float(not any(g)) for g in gammas]
    )
    want = acc.ravel()
    assert np.abs(rules - want).max() <= 1e-13
    assert np.array_equal(oks, np.abs(want - targets) < tol)


def test_exactness_table_on_an_axis_longer_than_the_dense_limit():
    spec = NodeSpec(n=validate_pairwise_coprime((300,)))
    assert spec.m[0] + 1 > transform._DENSE_AXIS
    box = [2 * spec.m[0] + 1]
    table = exactness_table(build_node_set(spec), box)
    assert np.abs(table.rule_value - node_rule(spec, box)).max() <= 1e-13
    assert table.ok.all()


def test_tampered_weight_fails_both_quadrature_checks():
    node_set = build_node_set(NodeSpec(n=N53))
    assert all(r.passed for r in suite_quadrature(node_set))
    node_set.weights[0] *= 1.0 + 1e-6
    results = suite_quadrature(node_set)
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


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(spec=small_specs())
def test_rule_and_curve_properties(spec):
    ns = build_node_set(spec)
    narrow = exactness_table(ns, [2 * mj - 1 for mj in spec.m])
    wide = exactness_table(ns, [2 * mj + 1 for mj in spec.m])
    assert narrow.ok.all() and wide.ok.all()
    rows = np.indices(narrow.ok.shape).reshape(spec.dim, -1).T
    want = np.concatenate([
        chi_matrix(spec, rows[k : k + 1024], ns.indices) @ ns.weights
        for k in range(0, len(rows), 1024)
    ])
    assert np.abs(narrow.rule_value.ravel() - want).max() <= 1e-13
    # The narrow box is the corner [0, 2m - 1] of the wide one.
    corner = tuple(slice(2 * mj) for mj in spec.m)
    assert np.array_equal(wide.rule_value[corner], narrow.rule_value)
    assert all(r.passed for r in suite_curve(ns))


BAD_TOLERANCES = ["a", None, 1j, math.nan, math.inf, -1, -1e-300, 10**400]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_exactness_table_rejects_a_bad_tolerance(tol):
    # NaN and negative tolerances used to fail every frequency silently.
    ns = build_node_set(NodeSpec(n=(5, 3)))
    with pytest.raises(InvalidParameter, match="tol must be"):
        exactness_table(ns, [2, 2], tol=tol)


@pytest.mark.parametrize("tol", [0, 0.0, np.float64(1e-12), 1e300])
def test_exactness_table_takes_a_finite_tolerance(tol):
    ns = build_node_set(NodeSpec(n=(5, 3)))
    # ok is |rule - target| < tol, so a tolerance of 0 passes nothing.
    assert exactness_table(ns, [2, 2], tol=tol).ok[0, 0] == (tol > 0)


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("spec", BENCHMARK_SPECS)
def test_integrate_is_the_node_order_dot_product(
    empty_cache, spec, complex_values
):
    # The rule sums w_i h(i) in node-set order, on a cold and a warm cache.
    h = _random_samples(spec, 5, complex_values)
    ns = build_node_set(spec)
    want = np.dot(ns.weights, transform.aligned_values(h, ns))
    for _ in range(2):
        got = integrate(h)
        assert type(got) is (complex if complex_values else float)
        assert np.array(got).tobytes() == want.tobytes()


def test_warm_integrate_and_fundamental_build_no_node_set(
    monkeypatch, empty_cache
):
    spec = NodeSpec(n=validate_pairwise_coprime((9, 7, 4)), kappa=(1, 0, 0))
    h = _random_samples(spec, 1)
    node = next(int_tuples(build_node_set(spec).indices[5:6]))
    calls = []

    def counted(s):
        calls.append(s)
        return build_node_set(s)

    for module in (nodes, transform, interp):
        monkeypatch.setattr(module, "build_node_set", counted, raising=False)
    want = integrate(h), fundamental(spec, node).coeffs
    assert calls == [spec]  # the warm-up builds the spec's set once
    calls.clear()
    for _ in range(3):
        assert integrate(h) == want[0]
        assert np.array_equal(fundamental(spec, node).coeffs, want[1])
    assert calls == []


@pytest.mark.parametrize("nv, kappa", [
    ((129, 128), None), ((31, 29, 16), None), ((11, 9, 7, 5, 2), None),
    ((257, 256), (0, 1)),
])
def test_warm_integrate_peaks_at_32_bytes_per_node(nv, kappa):
    # The aligned samples, their positions and the value list; the node set
    # and its lookup come from the cache.
    h = _random_samples(NodeSpec(n=validate_pairwise_coprime(nv), kappa=kappa), 2)
    integrate(h)
    tracemalloc.start()
    try:
        integrate(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * len(h.values)


@pytest.mark.parametrize("spec", [[5, 3], {}, None, (5, 3), "5,3"])
def test_integrate_checks_the_spec_before_the_cache(spec):
    # An unhashable spec must not reach the cache's dict as a key.
    with pytest.raises(InvalidParameter, match="expected a NodeSpec"):
        integrate(SampleVector(spec=spec, values={}))
