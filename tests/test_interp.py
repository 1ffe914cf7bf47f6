import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.chebyshev import chebvander
from strategies import small_specs

from lisscheb import interp, transform
from lisscheb.congruence import validate_pairwise_coprime
from lisscheb.errors import (
    DomainViolation,
    IndexOutOfRange,
    InvalidParameter,
    LisschebError,
    NotInGammaSet,
    SpecMismatch,
)
from lisscheb.interp import (
    ChebExpansion,
    cheb_T_eval,
    expansion_eval,
    expansion_inner_product,
    fundamental,
    interpolate,
    kernel_eval,
)
from lisscheb.nodes import NodeSpec, build_node_set
from lisscheb.spectral import build_gamma
from lisscheb.transform import SampleVector, chi_eval, coefficients_naive

N53 = validate_pairwise_coprime((5, 3))

ALL_SPECS = [
    NodeSpec(n=validate_pairwise_coprime(nv))
    for nv in [(5, 3), (7, 4), (5, 3, 2)]
] + [
    NodeSpec(n=validate_pairwise_coprime(nv), kappa=kv)
    for nv, kv in [((5, 3), (0, 1)), ((3, 1, 2), (0, 0, 0))]
]


def random_samples(spec, rng):
    ns = build_node_set(spec)
    return SampleVector(
        spec=spec,
        values={
            n.index: float(v)
            for n, v in zip(ns.nodes, rng.standard_normal(len(ns)))
        },
    )


def test_cheb_T_examples():
    assert cheb_T_eval((1,), (0.3,)) == pytest.approx(0.3)
    assert cheb_T_eval((2,), (0.5,)) == pytest.approx(-0.5)
    assert cheb_T_eval((3, 2), (1.0, -1.0)) == pytest.approx(1.0)
    assert cheb_T_eval((0, 0), (0.1, 0.9)) == 1.0


@pytest.mark.parametrize("gamma", [(1.5, 0), (0, 1.0), (True, 0)])
def test_cheb_T_rejects_non_integer_degree(gamma):
    with pytest.raises(InvalidParameter, match="must be integers"):
        cheb_T_eval(gamma, (0.3, 0.2))


def test_domain_violation():
    with pytest.raises(DomainViolation):
        cheb_T_eval((1,), (1.5,))
    with pytest.raises(DomainViolation):
        cheb_T_eval((1, 1), (0.0,))
    # a point within roundoff slack of the boundary is clamped, not rejected
    assert cheb_T_eval((2,), (1.0 + 1e-14,)) == pytest.approx(1.0)


def test_non_finite_coordinates_rejected():
    spec = NodeSpec(n=N53)
    gs = build_gamma(spec)
    p = ChebExpansion(gamma_set=gs, coeffs={(2, 1): 3.0})
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainViolation):
            cheb_T_eval((1, 1), (bad, 0.5))
        with pytest.raises(DomainViolation):
            expansion_eval(p, (0.5, bad))
        with pytest.raises(DomainViolation):
            kernel_eval(spec, (bad, 0.5), (0.1, 0.2))
        with pytest.raises(DomainViolation):
            kernel_eval(spec, (0.1, 0.2), (0.5, bad))


def test_mapping_fills_missing_gammas_with_zero():
    gs = build_gamma(NodeSpec(n=N53))
    p = ChebExpansion(gamma_set=gs, coeffs={(2, 1): 3.0, (0, 0): -1.0})
    want = np.zeros(len(gs))
    want[list(gs).index((2, 1))] = 3.0
    want[list(gs).index((0, 0))] = -1.0
    assert p.coeffs.dtype == np.float64 and np.array_equal(p.coeffs, want)
    complex_p = ChebExpansion(gamma_set=gs, coeffs={(1, 0): 1j})
    assert complex_p.coeffs.dtype == np.complex128
    ints = ChebExpansion(gamma_set=gs, coeffs=np.arange(len(gs)))
    assert ints.coeffs.dtype == np.float64
    assert np.array_equal(ints.coeffs, np.arange(len(gs)))


@pytest.mark.parametrize("coeffs, error, match", [
    # (4, 2) lies in the box of (5, 3) but not in its spectral set.
    ({(4, 2): 1.0}, NotInGammaSet, r"\(4, 2\) is not in the spectral set"),
    ({(0, 0): 1.0, (0, 3): 1.0, (5, 0): 1.0}, NotInGammaSet, r"\(5, 0\)"),
    ({(10**30, 0): 1.0}, NotInGammaSet, "not in the spectral set"),
    ({(-1, 0): 1.0}, NotInGammaSet, "not in the spectral set"),
    ({(0.5, 0): 1.0}, InvalidParameter, "must be integers, got 0.5"),
    ({(True, 0): 1.0}, InvalidParameter, "must be integers, got True"),
    ({(0, 0, 0): 1.0}, InvalidParameter, "not a tuple of 2 integers"),
    ({0: 1.0}, InvalidParameter, "not a tuple of 2 integers"),
    ({(0, 0): "1.5"}, InvalidParameter, r"'1.5' at gamma \(0, 0\)"),
    ({(0, 0): None}, InvalidParameter, "is not a number"),
    ({(0, 0): 2**2000}, DomainViolation, "too large for a float"),
    (np.ones(11), InvalidParameter, r"shape \(11,\), expected \(12,\)"),
    (np.ones((12, 1)), InvalidParameter, r"expected \(12,\)"),
    ([1.0] * 11 + [[1.0]], InvalidParameter, r"expected \(12,\)"),
    (3.0, InvalidParameter, r"expected \(12,\)"),
    (["1.5"] * 12, InvalidParameter, r"'1.5' at gamma \(0, 0\)"),
    ({(0, 0): 1.0, (2, 1): math.nan}, DomainViolation,
     r"coefficient nan at gamma \(2, 1\) is not finite"),
    ({(1, 0): -math.inf}, DomainViolation, r"-inf at gamma \(1, 0\)"),
    # position 4 of the (5, 3) set is gamma (1, 1)
    (np.where(np.arange(12) == 4, math.inf, 1.0), DomainViolation,
     r"coefficient inf at gamma \(1, 1\) is not finite"),
    (np.where(np.arange(12) == 4, complex(0, math.nan), 1j), DomainViolation,
     r"at gamma \(1, 1\) is not finite"),
], ids=[
    "gamma_4_2", "outside_among_members", "huge_entry", "negative_entry",
    "float_entry", "bool_entry", "long_key", "int_key", "string_value",
    "none_value", "int_beyond_float", "short_array", "column_array",
    "ragged_list", "scalar", "string_array", "nan_value", "inf_value",
    "inf_array", "nan_complex_array",
])
def test_constructor_rejects_bad_coefficients(coeffs, error, match):
    gs = build_gamma(NodeSpec(n=N53))
    with pytest.raises(error, match=match):
        ChebExpansion(gamma_set=gs, coeffs=coeffs)


def test_coefficient_rows_reads_lists_as_the_constructor_reads_a_mapping():
    gs = build_gamma(NodeSpec(n=N53))
    rows, values = [[2, 1], [0, 0], [1, 0]], [3.0, -1.0, 0.5j]
    want = ChebExpansion(gs, dict(zip(map(tuple, rows), values))).coeffs
    got = transform.coefficient_rows(gs, rows, values)
    assert got.dtype == want.dtype == np.complex128
    assert np.array_equal(got, want)
    repeat = r"repeated gamma \(2, 1\)"
    with pytest.raises(InvalidParameter, match=repeat) as err:
        transform.coefficient_rows(gs, rows + [(2, 1)], values + [1.0])
    assert err.value.row == 3


@pytest.mark.parametrize("coeffs, row", [
    ({(0, 0): 1.0, (1, 0): 1.0, (4, 2): 1.0}, 2),
    ({(0, 0): 1.0, (0.5, 0): 1.0}, 1),
    ({(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0, (0, 0, 0): 1.0}, 3),
    ({(0, 0): 1.0, (1, 0): "x"}, 1),
    ({(0, 0): 1.0, (1, 0): 2.0, (2, 0): math.nan}, 2),
    ({(0, 0): 10**400}, 0),
])
def test_constructor_errors_name_the_mapping_row(coeffs, row):
    gs = build_gamma(NodeSpec(n=N53))
    with pytest.raises(LisschebError) as info:
        ChebExpansion(gamma_set=gs, coeffs=coeffs)
    assert info.value.row == row


def test_expansion_eval_simple():
    gs = build_gamma(NodeSpec(n=N53))
    zero = ChebExpansion(gamma_set=gs, coeffs={})
    assert expansion_eval(zero, (0.2, -0.7)) == 0.0

    single = ChebExpansion(gamma_set=gs, coeffs={(2, 1): 3.0})
    x = (0.4, -0.6)
    assert expansion_eval(single, x) == pytest.approx(
        3.0 * cheb_T_eval((2, 1), x), abs=1e-14
    )


# The interp_nd_small benchmark ladder, a large 2-D spec, shifted (5,3)
# and a one-dimensional spec.
BATCH_SPECS = [
    NodeSpec(n=validate_pairwise_coprime(nv), kappa=kv)
    for nv, kv in [
        ((13, 11, 7, 5), None),
        ((11, 9, 7, 5, 2), None),
        ((7, 5, 3, 2), (0, 1, 0, 1)),
        ((9, 7, 4), (1, 0, 0)),
        ((31, 29, 16), None),
        ((129, 128), None),
        ((5, 3), (0, 1)),
        ((12,), None),
    ]
]


def _batch_points(rng, dim, count):
    """Random points plus the corners, a zero and points within the slack."""
    x = rng.uniform(-1.0, 1.0, size=(count, dim))
    x[0], x[1], x[2] = 1.0, -1.0, -0.0
    x[3], x[4] = 1.0 + 1e-13, -1.0 - 1e-13
    x[5, 0] = 1.0 + 1e-12
    return x


def _per_point(p, x):
    return np.array([expansion_eval(p, pt) for pt in x.tolist()])


@pytest.mark.parametrize("spec", BATCH_SPECS)
@pytest.mark.parametrize("kind", ["real", "complex", "sparse"])
def test_batched_eval_is_bit_identical(spec, kind, monkeypatch):
    rng = np.random.default_rng(31)
    gs = build_gamma(spec)
    gammas = list(gs)
    values = rng.uniform(-1.0, 1.0, size=len(gs))
    if kind == "complex":
        values = values + 1j * rng.uniform(-1.0, 1.0, size=len(gs))
    if kind == "sparse":
        # A third of the set, in shuffled order; the rest is zero.
        keep = rng.permutation(len(gs))[: max(1, len(gs) // 3)]
        gammas = [gammas[k] for k in keep]
        values = values[keep]
    p = ChebExpansion(gamma_set=gs, coeffs=dict(zip(gammas, values.tolist())))
    x = _batch_points(rng, spec.dim, 24)
    want = _per_point(p, x)

    got = expansion_eval(p, x)
    assert got.shape == (24,)
    assert got.dtype == (np.complex128 if kind == "complex" else np.float64)
    assert np.array_equal(got, want)
    # Points within the slack are clamped, as the one-point path does.
    assert np.array_equal(got, expansion_eval(p, np.clip(x, -1.0, 1.0)))
    # Blocks of five points: the block boundaries change nothing.
    monkeypatch.setattr(interp, "_EVAL_BLOCK", 5 * len(p.coeffs))
    assert np.array_equal(expansion_eval(p, x), want)


def test_batched_eval_edge_cases():
    spec = NodeSpec(n=N53)
    gs = build_gamma(spec)
    x = np.array([[0.2, -0.7], [1.0, 0.5], [-0.3, 0.0]])
    zero = expansion_eval(ChebExpansion(gamma_set=gs, coeffs={}), x)
    assert zero.dtype == np.float64 and np.array_equal(zero, np.zeros(3))

    p = ChebExpansion(gamma_set=gs, coeffs={(2, 1): 3.0, (0, 0): -1.0})
    empty = expansion_eval(p, np.empty((0, 2)))
    assert empty.shape == (0,)
    # A list of points is batched too; a single point stays a scalar.
    assert np.array_equal(expansion_eval(p, x.tolist()), _per_point(p, x))
    value = expansion_eval(p, (0.4, -0.6))
    assert isinstance(value, float) and np.ndim(value) == 0
    # The one-point sum starts from 0.0, so a lone -0.0 term gives 0.0.
    odd = ChebExpansion(gamma_set=gs, coeffs={(1, 0): 1.0})
    assert not np.signbit(expansion_eval(odd, (-0.0, 0.5)))
    assert not np.signbit(expansion_eval(odd, [[-0.0, 0.5]])[0])


@pytest.mark.parametrize("bad, row, match", [
    ([[0.1, 0.2], [0.1, 0.2, 0.3]], 1, "point has 3 coordinates, expected 2"),
    (np.zeros((3, 1)), 0, "point has 1 coordinates, expected 2"),
    ([[0.1, 0.2], [0.3, 0.4], [math.nan, 1.5]], 2, "coordinate nan is not"),
])
def test_batched_eval_rejects_bad_points(bad, row, match):
    gs = build_gamma(NodeSpec(n=N53))
    p = ChebExpansion(gamma_set=gs, coeffs={(2, 1): 3.0})
    with pytest.raises(DomainViolation, match=match) as info:
        expansion_eval(p, bad)
    assert info.value.row == row


# chebvander's float64 recurrence drifts by up to 1.6e-12 from T_k near
# +-1 at degree 514, so the high degrees take it in extended precision.
@pytest.mark.parametrize("degree, dtype", [
    (130, np.float64),
    pytest.param(514, np.longdouble, marks=pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="long double is no wider than float64 here")),
])
def test_cheb_table_matches_chebvander(degree, dtype):
    rng = np.random.default_rng(33)
    x = np.concatenate([
        rng.uniform(-1.0, 1.0, 2000), [1.0, -1.0, 0.0, -0.0],
        1.0 - rng.uniform(0.0, 1e-6, 200), rng.uniform(0.0, 1e-6, 200) - 1.0,
    ]).reshape(-1, 2)
    table = interp._cheb_table(x, (degree, degree - 1))
    assert table.shape == (x.shape[0], 2, degree + 1)
    for j in range(2):
        want = chebvander(x[:, j].astype(dtype), degree)
        assert np.abs(table[:, j] - want).max() <= 1e-12
    # T_k(1) = 1 and T_k(-1) = (-1)^k exactly.
    corners = interp._cheb_table(np.array([[1.0, -1.0]]), (degree,))[0]
    assert np.array_equal(corners[0], np.ones(degree + 1))
    assert np.array_equal(corners[1], (-1.0) ** np.arange(degree + 1))


def test_expansion_eval_matches_cheb_T_eval():
    rng = np.random.default_rng(21)
    spec = NodeSpec(n=N53, kappa=(0, 1))
    gs = build_gamma(spec)
    coeffs = {
        gamma: float(c)
        for gamma, c in zip(gs, rng.standard_normal(len(gs)))
    }
    p = ChebExpansion(gamma_set=gs, coeffs=coeffs)
    for _ in range(50):
        x = tuple(rng.uniform(-1, 1, size=2))
        direct = sum(c * cheb_T_eval(g, x) for g, c in coeffs.items())
        assert expansion_eval(p, x) == pytest.approx(direct, abs=1e-13)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_interpolation_roundtrip(spec):
    rng = np.random.default_rng(22)
    ns = build_node_set(spec)
    h = random_samples(spec, rng)
    p = interpolate(h)
    for node in ns.nodes:
        assert expansion_eval(p, node.point) == pytest.approx(
            h.values[node.index], abs=1e-11
        )


def test_interpolation_recovers_space_member():
    spec = NodeSpec(n=N53)
    gs = build_gamma(spec)
    ns = build_node_set(spec)
    rng = np.random.default_rng(23)
    coeffs = {
        gamma: float(c)
        for gamma, c in zip(gs, rng.standard_normal(len(gs)))
    }
    h = SampleVector(
        spec=spec,
        values={
            node.index: sum(
                c * chi_eval(spec, g, node.index) for g, c in coeffs.items()
            )
            for node in ns.nodes
        },
    )
    p = interpolate(h)
    want = np.array([coeffs[gamma] for gamma in gs])
    assert p.coeffs == pytest.approx(want, abs=1e-12)


def test_kernel_symmetry_and_corner_value():
    spec = NodeSpec(n=N53)
    rng = np.random.default_rng(25)
    for _ in range(10):
        x = tuple(rng.uniform(-1, 1, size=2))
        y = tuple(rng.uniform(-1, 1, size=2))
        assert kernel_eval(spec, x, y) == pytest.approx(
            kernel_eval(spec, y, x), abs=1e-11
        )
    # d = 1, n = 2: the kernel at (1, 1) sums 1 + 2 T_1^2 + 2 T_2^2 = 5
    spec1 = NodeSpec(n=validate_pairwise_coprime((2,)))
    assert kernel_eval(spec1, (1.0,), (1.0,)) == pytest.approx(5.0)


@pytest.mark.parametrize(
    "spec",
    [
        NodeSpec(n=validate_pairwise_coprime((5, 3, 2))),
        NodeSpec(n=validate_pairwise_coprime((3, 1, 2)), kappa=(0, 1, 1)),
    ],
)
def test_kernel_matches_direct_sum(spec):
    gs = build_gamma(spec)
    rng = np.random.default_rng(30)
    for _ in range(5):
        x = tuple(rng.uniform(-1, 1, size=spec.dim))
        y = tuple(rng.uniform(-1, 1, size=spec.dim))
        direct = sum(
            2.0 ** int(gs.e_counts[pos])
            * cheb_T_eval(gamma, x)
            * cheb_T_eval(gamma, y)
            for pos, gamma in enumerate(gs)
        )
        assert kernel_eval(spec, x, y) == pytest.approx(
            direct, rel=1e-12, abs=1e-12
        )


def test_kernel_reproduces_space_members():
    # The kernel section at y, written as an expansion with coefficients
    # 2^e T_gamma(y), evaluates consistently and reproduces any member of
    # the space under the continuous inner product.
    spec = NodeSpec(n=N53)
    gs = build_gamma(spec)
    rng = np.random.default_rng(26)
    coeffs = {
        gamma: float(c)
        for gamma, c in zip(gs, rng.standard_normal(len(gs)))
    }
    p = ChebExpansion(gamma_set=gs, coeffs=coeffs)
    for _ in range(5):
        x = tuple(rng.uniform(-1, 1, size=2))
        y = tuple(rng.uniform(-1, 1, size=2))
        section = ChebExpansion(
            gamma_set=gs,
            coeffs={
                gamma: 2.0 ** int(gs.e_counts[pos]) * cheb_T_eval(gamma, y)
                for pos, gamma in enumerate(gs)
            },
        )
        assert expansion_eval(section, x) == pytest.approx(
            kernel_eval(spec, x, y), abs=1e-11
        )
        assert expansion_inner_product(p, section) == pytest.approx(
            expansion_eval(p, y), abs=1e-11
        )


@pytest.mark.parametrize(
    "spec",
    [NodeSpec(n=N53), NodeSpec(n=N53, kappa=(0, 1))],
)
def test_fundamental_delta_property(spec):
    ns = build_node_set(spec)
    for i in [ns.nodes[0].index, ns.nodes[len(ns) // 2].index]:
        L = fundamental(spec, i)
        for node in ns.nodes:
            want = 1.0 if node.index == i else 0.0
            assert expansion_eval(L, node.point) == pytest.approx(
                want, abs=1e-11
            )


@pytest.mark.parametrize(
    "spec",
    [
        NodeSpec(n=N53),
        NodeSpec(n=validate_pairwise_coprime((7, 5, 3, 2))),
        NodeSpec(n=N53, kappa=(0, 1)),
        NodeSpec(n=validate_pairwise_coprime((9, 7)), kappa=(1, 0)),
    ],
)
def test_fundamental_matches_delta_interpolant(spec):
    ns = build_node_set(spec)
    for pos in (0, 1, len(ns) // 2, len(ns) - 1):
        i = ns.nodes[pos].index
        values = {node.index: 0.0 for node in ns.nodes}
        values[i] = 1.0
        oracle = coefficients_naive(SampleVector(spec=spec, values=values))
        L = fundamental(spec, i)
        assert L.coeffs.shape == oracle.coeffs.shape == (len(ns),)
        assert np.abs(L.coeffs - oracle.coeffs).max() <= 1e-14


def test_fundamental_partition_of_unity():
    spec = NodeSpec(n=N53)
    ns = build_node_set(spec)
    polys = [fundamental(spec, node.index) for node in ns.nodes]
    rng = np.random.default_rng(27)
    for _ in range(10):
        x = tuple(rng.uniform(-1, 1, size=2))
        total = sum(expansion_eval(L, x) for L in polys)
        assert total == pytest.approx(1.0, abs=1e-11)


def test_fundamental_rejects_bad_index():
    with pytest.raises(IndexOutOfRange):
        fundamental(NodeSpec(n=N53), (0, 1))


@pytest.mark.parametrize("index", [(1.0, 1.0), (True, 1), (1, 1.5), ("1", 1)])
def test_fundamental_rejects_non_integer_index(index):
    # (1, 1) is a node of (5, 3); a float or bool index used to match it.
    with pytest.raises(InvalidParameter, match="must be integers"):
        fundamental(NodeSpec(n=N53), index)
    assert fundamental(NodeSpec(n=N53), (np.int64(1), 1)).coeffs.shape == (12,)


def test_inner_product_examples():
    gs = build_gamma(NodeSpec(n=N53))
    p = ChebExpansion(gamma_set=gs, coeffs={(0, 0): 2.0, (1, 0): 4.0})
    q = ChebExpansion(gamma_set=gs, coeffs={(1, 0): 1.0, (0, 1): 9.0})
    # only the shared (1, 0) term contributes, with weight 2^(-1)
    assert expansion_inner_product(p, q) == pytest.approx(2.0)
    assert expansion_inner_product(p, p) == pytest.approx(4.0 + 8.0)


def test_inner_product_matches_quadrature():
    spec = NodeSpec(n=N53)
    ns = build_node_set(spec)
    gs = build_gamma(spec)
    rng = np.random.default_rng(28)
    coeffs = {
        gamma: float(c)
        for gamma, c in zip(gs, rng.standard_normal(len(gs)))
    }
    p = ChebExpansion(gamma_set=gs, coeffs=coeffs)
    # independent oracle: tensor Gauss-Chebyshev quadrature, exact for the
    # squared polynomial because its per-axis degree stays below 2K
    K = 32
    t = (2 * np.arange(K) + 1) * math.pi / (2 * K)
    x = np.cos(t)
    total = 0.0
    for xi in x:
        for xj in x:
            v = expansion_eval(p, (float(xi), float(xj)))
            total += v * v
    total /= K * K
    assert expansion_inner_product(p, p) == pytest.approx(total, abs=1e-11)


def _gauss_chebyshev_inner_product(p, q):
    """Tensor Gauss-Chebyshev quadrature of p conj(q), exact for the space.

    m_j + 1 nodes per axis integrate degree 2 m_j + 1 exactly, above the
    per-axis degree 2 m_j of the product.
    """
    axes = [
        np.cos((2 * np.arange(mj + 1) + 1) * math.pi / (2 * (mj + 1)))
        for mj in p.gamma_set.spec.m
    ]
    x = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], -1)
    return np.mean(expansion_eval(p, x) * np.conj(expansion_eval(q, x)))


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(spec=small_specs(), seed=st.integers(0, 2**32 - 1))
def test_expansion_array_properties(spec, seed):
    rng = np.random.default_rng(seed)
    gs = build_gamma(spec)
    n = len(gs)
    # Coefficients of unit size on average, so p and q have norms near 1.
    p_vals, q_vals = (
        (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) / math.sqrt(n)
        for _ in range(2)
    )
    p = ChebExpansion(gamma_set=gs, coeffs=p_vals)
    q = ChebExpansion(gamma_set=gs, coeffs=q_vals)

    # A {gamma: value} mapping in any order gives the same array.
    order = rng.permutation(n)
    gammas = list(gs)
    shuffled = {gammas[k]: complex(p_vals[k]) for k in order}
    from_map = ChebExpansion(gamma_set=gs, coeffs=shuffled)
    assert from_map.coeffs.dtype == p.coeffs.dtype == np.complex128
    assert np.array_equal(from_map.coeffs, p.coeffs)

    # One-point evaluation equals the batched call bit for bit, at random
    # points and at the corners of the cube.
    corners = rng.choice([-1.0, 1.0], size=(4, spec.dim))
    corners[0], corners[1] = 1.0, -1.0
    x = np.concatenate([rng.uniform(-1, 1, size=(8, spec.dim)), corners])
    batched = expansion_eval(p, x)
    single = np.array([expansion_eval(p, pt) for pt in x.tolist()])
    assert np.array_equal(batched, single)

    want = _gauss_chebyshev_inner_product(p, q)
    assert abs(expansion_inner_product(p, q) - want) <= 1e-11


def test_inner_product_spec_mismatch():
    p = ChebExpansion(
        gamma_set=build_gamma(NodeSpec(n=N53)), coeffs={(0, 0): 1.0}
    )
    q = ChebExpansion(
        gamma_set=build_gamma(NodeSpec(n=N53, kappa=(0, 1))),
        coeffs={(0, 0): 1.0},
    )
    with pytest.raises(SpecMismatch):
        expansion_inner_product(p, q)


def test_d1_matches_barycentric_reference():
    """One-dimensional interpolation agrees with a classical formula.

    The reference is barycentric interpolation on the cosine-spaced grid
    with weights (-1)^i, halved at the endpoints.
    """
    n = 12
    spec = NodeSpec(n=validate_pairwise_coprime((n,)))
    ns = build_node_set(spec)
    f = lambda x: math.exp(x) * math.sin(2 * x)
    h = SampleVector(
        spec=spec,
        values={node.index: f(node.point[0]) for node in ns.nodes},
    )
    p = interpolate(h)

    xs = np.array([node.point[0] for node in ns.nodes])
    fs = np.array([h.values[node.index] for node in ns.nodes])
    w = np.array([(-1.0) ** i for i in range(n + 1)])
    w[0] *= 0.5
    w[-1] *= 0.5

    rng = np.random.default_rng(29)
    for _ in range(20):
        x = float(rng.uniform(-1, 1))
        diff = x - xs
        if np.any(diff == 0):
            continue
        bary = float(np.sum(w * fs / diff) / np.sum(w / diff))
        assert expansion_eval(p, (x,)) == pytest.approx(bary, abs=1e-11)


@pytest.mark.parametrize("gamma, x", [
    ((10**400, 1), (0.1, 0.2)),
    ((1, -(10**400)), (0.1, 0.2)),
    ((10**400, 0), (1.0, 1.0)),  # acos(1) = 0 does not save the product
])
def test_cheb_T_eval_rejects_a_degree_past_the_float_range(gamma, x):
    with pytest.raises(InvalidParameter, match="too large for a float"):
        cheb_T_eval(gamma, x)
