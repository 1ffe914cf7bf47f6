import itertools
import math

import numpy as np
import pytest

from lisscheb.congruence import validate_pairwise_coprime
from lisscheb.curves import LCCurve, lc_eval_at_index
from lisscheb.errors import (
    DomainViolation,
    IndexOutOfRange,
    InvalidParameter,
    OverflowDimension,
)
from lisscheb.nodes import (
    MAX_BOX_CELLS,
    NodeSpec,
    build_node_set,
    cgl_point,
    class_map_shifted,
    check_point,
    check_points,
    class_map_standard,
    variety_membership,
)

N53 = validate_pairwise_coprime((5, 3))
N532 = validate_pairwise_coprime((5, 3, 2))

STANDARD_SPECS = [
    NodeSpec(n=validate_pairwise_coprime(nv))
    for nv in [(5, 3), (7, 4), (5, 3, 2), (7, 5, 3, 2)]
]
SHIFTED_SPECS = [
    NodeSpec(n=validate_pairwise_coprime(nv), kappa=kv)
    for nv, kv in [((5, 3), (0, 1)), ((5, 3), (0, 0)), ((3, 1, 2), (0, 0, 0))]
]


def brute_force_indices(spec):
    """Direct enumeration of the parity-constrained index box."""
    d = spec.dim
    m = spec.m
    kappa = spec.kappa if spec.is_shifted else (0,) * d
    out = []
    for idx in itertools.product(*(range(mj + 1) for mj in m)):
        for r in (0, 1):
            if all((idx[j] - kappa[j] - r) % 2 == 0 for j in range(d)):
                out.append((idx, r))
                break
    return out


def test_cgl_examples():
    assert cgl_point(4, 0) == 1.0
    assert cgl_point(4, 2) == 0.0
    assert cgl_point(4, 4) == -1.0
    assert cgl_point(3, 1) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(IndexOutOfRange):
        cgl_point(4, 5)
    with pytest.raises(IndexOutOfRange):
        cgl_point(4, -1)


@pytest.mark.parametrize("m, i", [(0, 0), (-1, 0), (-2, -1)])
def test_cgl_point_rejects_non_positive_order(m, i):
    with pytest.raises(InvalidParameter, match="must be positive"):
        cgl_point(m, i)


def test_standard_counts():
    ns = build_node_set(NodeSpec(n=N53))
    assert len(ns) == 12
    assert int((ns.parities == 0).sum()) == 6
    assert int((ns.parities == 1).sum()) == 6

    assert len(build_node_set(NodeSpec(n=N532))) == 18


def test_shifted_counts():
    ns = build_node_set(NodeSpec(n=N53, kappa=(0, 1)))
    assert len(ns) == 38
    assert int((ns.parities == 0).sum()) == 18
    assert int((ns.parities == 1).sum()) == 20


@pytest.mark.parametrize("spec", STANDARD_SPECS + SHIFTED_SPECS)
def test_enumeration_matches_brute_force(spec):
    ns = build_node_set(spec)
    expected = brute_force_indices(spec)
    got = [
        (tuple(int(v) for v in row), int(r))
        for row, r in zip(ns.indices, ns.parities)
    ]
    assert sorted(got) == sorted(expected)
    # Lexicographic order of the stored indices.
    keys = [tuple(int(v) for v in row) for row in ns.indices]
    assert keys == sorted(keys)


@pytest.mark.parametrize("spec", STANDARD_SPECS + SHIFTED_SPECS)
def test_points_weights_faces(spec):
    ns = build_node_set(spec)
    m = spec.m
    d = spec.dim
    denom = (
        2 ** (d + 1) * spec.n.product
        if spec.is_shifted
        else 2 * spec.n.product
    )
    for node in ns.nodes:
        for j in range(d):
            assert node.point[j] == pytest.approx(
                math.cos(node.index[j] * math.pi / m[j]), abs=1e-15
            )
        face = {j for j in range(d) if 0 < node.index[j] < m[j]}
        assert node.face == frozenset(face)
        assert node.weight == pytest.approx(2 ** len(face) / denom)
    assert ns.weights.sum() == pytest.approx(1.0, abs=1e-14)
    # index -> point is injective
    points = {tuple(round(c, 12) for c in node.point) for node in ns.nodes}
    assert len(points) == len(ns)


def test_class_map_standard_examples():
    assert class_map_standard(N532, 0) == (0, 0, 0)
    assert class_map_standard(N53, 7) == (3, 1)
    assert class_map_standard(N53, 15) == (5, 3)
    with pytest.raises(IndexOutOfRange):
        class_map_standard(N53, 30)


def test_class_map_standard_parity_and_fibers():
    spec = NodeSpec(n=N53)
    ns = build_node_set(spec)
    fibers = {}
    for l in range(2 * N53.product):
        i = class_map_standard(N53, l)
        assert i in ns.lookup
        node = ns.nodes[ns.lookup[i]]
        assert node.parity == l % 2
        fibers.setdefault(i, 0)
        fibers[i] += 1
    for i, count in fibers.items():
        node = ns.nodes[ns.lookup[i]]
        assert count == 2 ** len(node.face)
    assert len(fibers) == len(ns)


def test_class_map_standard_hits_curve_samples():
    curve = LCCurve(n=N53, epsilon=1, kappa=(0, 0), u=(1, 1))
    spec = NodeSpec(n=N53)
    ns = build_node_set(spec)
    for l in range(2 * N53.product):
        i = class_map_standard(N53, l)
        node = ns.nodes[ns.lookup[i]]
        assert lc_eval_at_index(curve, l) == node.point


def test_class_map_shifted_examples():
    spec = NodeSpec(n=N53, kappa=(0, 1))
    assert spec.g_index == 0
    assert class_map_shifted(spec, 1, (0,)) == (1, 0)
    spec0 = NodeSpec(n=N532, kappa=(0, 0, 0))
    assert spec0.g_index == 2
    assert class_map_shifted(spec0, 0, (0, 0)) == (0, 0, 0)


@pytest.mark.parametrize("spec", SHIFTED_SPECS)
def test_class_map_shifted_fibers(spec):
    ns = build_node_set(spec)
    d = spec.dim
    fibers = {}
    for l in range(4 * spec.n.product):
        for rho in itertools.product((0, 1), repeat=d - 1):
            i = class_map_shifted(spec, l, rho)
            assert i in ns.lookup
            node = ns.nodes[ns.lookup[i]]
            assert node.parity == l % 2
            fibers.setdefault(i, 0)
            fibers[i] += 1
    assert len(fibers) == len(ns)
    total = 0
    for i, count in fibers.items():
        node = ns.nodes[ns.lookup[i]]
        assert count == 2 ** len(node.face)
        total += count
    assert total == 4 * spec.n.product * 2 ** (d - 1)


@pytest.mark.parametrize("spec", STANDARD_SPECS[:2] + SHIFTED_SPECS)
def test_nodes_on_variety(spec):
    ns = build_node_set(spec)
    for node in ns.nodes:
        assert variety_membership(spec, node.point, tol=1e-12)


def test_variety_counterexamples():
    spec = NodeSpec(n=N53)
    assert variety_membership(spec, (1.0, 1.0))
    assert not variety_membership(
        spec, (math.cos(math.pi / 10), 1.0), tol=1e-9
    )


BAD_POINTS = [
    ((math.nan, math.nan), "not finite"),
    ((math.inf, 1.0), "not finite"),
    ((1.0,), "1 coordinates, expected 2"),
    ((1.0, 1.0, 1.0), "3 coordinates, expected 2"),
    ((1.5, 1.0), "outside"),
    ((1.0, -1.0 - 1e-9), "outside"),
]


@pytest.mark.parametrize("x, match", BAD_POINTS)
def test_variety_membership_rejects_bad_points(x, match):
    with pytest.raises(DomainViolation, match=match):
        variety_membership(NodeSpec(n=N53), x)


@pytest.mark.parametrize("x, match", BAD_POINTS)
def test_check_points_names_the_bad_row(x, match):
    # check_point is the one-row case: same message, and row 0.
    with pytest.raises(DomainViolation, match=match) as one:
        check_point(x, 2)
    assert one.value.row == 0
    good = [(0.5, -0.25), (1.0, -1.0)]
    with pytest.raises(DomainViolation) as batch:
        check_points(good + [x] + good, 2)
    assert str(batch.value) == str(one.value)
    assert batch.value.row == 2


def test_check_points_clamps_the_slack():
    x = np.array([[1.0 + 1e-13, -1.0 - 1e-12], [0.25, -0.0]])
    got = check_points(x, 2)
    assert got.dtype == np.float64
    assert np.array_equal(got, [[1.0, -1.0], [0.25, 0.0]])
    assert x[0, 0] > 1.0  # the input is not modified
    assert check_point(x[0], 2) == [1.0, -1.0]
    assert check_points([], 2).shape == (0, 2)


def test_variety_membership_keeps_rounding_slack():
    # A node coordinate off by rounding is clamped, as expansion_eval does.
    assert variety_membership(NodeSpec(n=N53), (1.0 + 1e-13, 1.0))


@pytest.mark.parametrize("spec", SHIFTED_SPECS)
def test_reflection_symmetry(spec):
    ns = build_node_set(spec)
    points = {tuple(round(c, 9) for c in node.point) for node in ns.nodes}
    for axis in range(spec.dim):
        reflected = set()
        for pt in points:
            q = list(pt)
            q[axis] = round(-q[axis], 9)
            # -0.0 and 0.0 must compare equal after rounding
            if q[axis] == 0:
                q[axis] = 0.0
            reflected.add(tuple(q))
        assert reflected == points


def test_index_arguments_must_be_integers():
    shifted = NodeSpec(n=N53, kappa=(0, 1))
    for call in (
        lambda: class_map_standard(N53, 1.5),
        lambda: class_map_standard(N53, True),
        lambda: class_map_shifted(shifted, 1.5, (0,)),
        lambda: class_map_shifted(shifted, 3, (1.0,)),
        lambda: cgl_point(4, 1.5),
        lambda: cgl_point(4.0, 1),
    ):
        with pytest.raises(InvalidParameter, match="must be integers"):
            call()
    assert class_map_standard(N53, np.int64(7)) == (3, 1)
    assert cgl_point(np.int64(4), 2) == cgl_point(4, 2)


def test_class_map_shifted_rejects_standard_spec():
    with pytest.raises(InvalidParameter, match="needs a shifted spec"):
        class_map_shifted(NodeSpec(n=N53), 0, (0,))


def test_g_index_forced_by_even_entry():
    assert NodeSpec(n=N532, kappa=(0, 0, 0)).g_index == 2
    assert NodeSpec(n=N53, kappa=(0, 0)).g_index == 0


def test_node_spec_rejects_bad_kappa():
    with pytest.raises(InvalidParameter, match="dimension"):
        NodeSpec(n=N53, kappa=(0, 1, 2))
    with pytest.raises(InvalidParameter, match="integers"):
        NodeSpec(n=N53, kappa=(0.5, 1))
    # InvalidParameter is also a ValueError, as the bare error was before.
    with pytest.raises(ValueError):
        NodeSpec(n=N53, kappa=(0,))


def test_box_size_limit():
    from lisscheb.spectral import build_gamma

    spec = NodeSpec(n=validate_pairwise_coprime((1000003, 1000033)))
    for build in (build_node_set, build_gamma):
        with pytest.raises(OverflowDimension, match="1000038000136 cells"):
            build(spec)
    # The largest spec of the tests and benchmark stays far inside the limit.
    big = NodeSpec(n=validate_pairwise_coprime((257, 256)), kappa=(0, 1))
    assert 50 * math.prod(mj + 1 for mj in big.m) < MAX_BOX_CELLS


@pytest.mark.parametrize(
    "spec",
    STANDARD_SPECS
    + SHIFTED_SPECS
    + [NodeSpec(n=validate_pairwise_coprime((4,)))],
)
def test_lookup_keys_are_python_ints(spec):
    ns = build_node_set(spec)
    rows = [tuple(int(v) for v in row) for row in ns.indices]
    assert ns.lookup == {row: pos for pos, row in enumerate(rows)}
    assert list(ns.lookup) == rows
    for key in ns.lookup:
        assert type(key) is tuple and len(key) == spec.dim
        assert all(type(v) is int for v in key)
