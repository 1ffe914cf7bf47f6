import math
import subprocess
from fractions import Fraction
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from lisscheb import interp, transform, verify
from lisscheb.congruence import validate_pairwise_coprime
from lisscheb.errors import (
    DomainViolation,
    IndexOutOfRange,
    InvalidParameter,
    SpecMismatch,
)
from lisscheb.interp import interpolate
from lisscheb.nodes import NodeSpec, build_node_set
from lisscheb.quad import integrate
from lisscheb.spectral import build_gamma
from lisscheb.transform import (
    SampleVector,
    aligned_values,
    alias_integral,
    chi_eval,
    coefficients_fast,
    coefficients_naive,
    discrete_integral,
    embed_grid,
)

N53 = validate_pairwise_coprime((5, 3))

ALL_SPECS = [
    NodeSpec(n=validate_pairwise_coprime(nv))
    for nv in [(5, 3), (7, 4), (5, 3, 2), (7, 5, 3, 2)]
] + [
    NodeSpec(n=validate_pairwise_coprime(nv), kappa=kv)
    for nv, kv in [((5, 3), (0, 1)), ((5, 3), (0, 0)), ((3, 1, 2), (0, 0, 0))]
]


SHIFTED_13_11 = NodeSpec(n=validate_pairwise_coprime((13, 11)), kappa=(0, 1))

# The specs of the verify_audit benchmark workload, plus shifted (13, 11).
ORACLE_SPECS = [
    NodeSpec(n=validate_pairwise_coprime((7, 5, 3, 2))),
    NodeSpec(n=validate_pairwise_coprime((17, 16))),
    NodeSpec(n=validate_pairwise_coprime((9, 7)), kappa=(0, 1)),
    SHIFTED_13_11,
]


def loop_naive(h, node_set, gamma_set):
    """The per-pair oracle: sum_k w_k h(i_k) chi_eval(gamma, i_k) / norm."""
    vals = aligned_values(h, node_set)
    weights = node_set.weights
    index_rows = [tuple(int(v) for v in row) for row in node_set.indices]
    coeffs = []
    for pos, gamma in enumerate(gamma_set):
        acc = 0.0
        for k, idx in enumerate(index_rows):
            acc = acc + weights[k] * vals[k] * chi_eval(h.spec, gamma, idx)
        coeffs.append(acc / gamma_set.norm_sq[pos])
    return coeffs


def constant_samples(spec, value=1.0):
    ns = build_node_set(spec)
    return SampleVector(
        spec=spec, values={node.index: value for node in ns.nodes}
    )


def random_samples(spec, rng, complex_valued=False):
    ns = build_node_set(spec)
    vals = rng.standard_normal(len(ns))
    if complex_valued:
        vals = vals + 1j * rng.standard_normal(len(ns))
        return SampleVector(
            spec=spec,
            values={n.index: complex(v) for n, v in zip(ns.nodes, vals)},
        )
    return SampleVector(
        spec=spec, values={n.index: float(v) for n, v in zip(ns.nodes, vals)}
    )


def test_chi_eval_examples():
    spec = NodeSpec(n=N53)
    assert chi_eval(spec, (0, 0), (3, 1)) == 1.0
    assert chi_eval(spec, (5, 0), (1, 0)) == -1.0
    assert chi_eval(spec, (1, 1), (0, 0)) == 1.0
    # chi equals the tensor Chebyshev polynomial at the node point
    assert chi_eval(spec, (2, 1), (1, 2)) == pytest.approx(
        math.cos(2 * math.pi / 5) * math.cos(2 * math.pi / 3), abs=1e-15
    )


def test_discrete_integral_examples():
    spec = NodeSpec(n=N53)
    assert discrete_integral(constant_samples(spec)) == pytest.approx(1.0)

    ns = build_node_set(spec)
    # chi_(1,0) averages to zero over the node set
    h = SampleVector(
        spec=spec,
        values={n.index: chi_eval(spec, (1, 0), n.index) for n in ns.nodes},
    )
    assert discrete_integral(h) == pytest.approx(0.0, abs=1e-15)

    # delta at the (0, 0) corner picks out its weight 1/(2 * 15)
    delta = {n.index: 0.0 for n in ns.nodes}
    delta[(0, 0)] = 1.0
    h = SampleVector(spec=spec, values=delta)
    assert discrete_integral(h) == pytest.approx(1.0 / 30.0)


def test_discrete_integral_spec_mismatch():
    other = build_node_set(NodeSpec(n=validate_pairwise_coprime((7, 4))))
    with pytest.raises(SpecMismatch):
        coefficients_fast(constant_samples(NodeSpec(n=N53)), node_set=other)


def test_alias_integral_examples():
    spec = NodeSpec(n=N53)
    assert alias_integral(spec, (0, 0)) == 1
    assert alias_integral(spec, (5, 3)) == 1
    assert alias_integral(spec, (5, 0)) == 0
    assert alias_integral(spec, (10, 0)) == 1
    assert alias_integral(spec, (10, 6)) == 1
    assert alias_integral(spec, (4, 3)) == 0

    shifted = NodeSpec(n=N53, kappa=(0, 1))
    assert alias_integral(shifted, (5, 3)) == 0
    assert alias_integral(shifted, (10, 6)) == -1
    assert alias_integral(shifted, (20, 12)) == 1
    assert alias_integral(shifted, (10, 0)) == 0

    even_shift = NodeSpec(n=N53, kappa=(0, 0))
    assert alias_integral(even_shift, (10, 6)) == 1


@pytest.mark.parametrize("spec", ALL_SPECS[:2] + ALL_SPECS[4:6])
def test_alias_matches_brute_force_rule(spec):
    ns = build_node_set(spec)
    rows = [tuple(int(v) for v in r) for r in ns.indices]
    for g0 in range(2 * spec.m[0]):
        for g1 in range(2 * spec.m[1]):
            gamma = (g0, g1)
            rule = sum(
                w * chi_eval(spec, gamma, idx)
                for w, idx in zip(ns.weights, rows)
            )
            assert rule == pytest.approx(
                float(alias_integral(spec, gamma)), abs=1e-12
            )


def test_naive_constant_gives_unit_dc_coefficient():
    spec = NodeSpec(n=N53)
    p = coefficients_naive(constant_samples(spec))
    for gamma, c in zip(p.gamma_set, p.coeffs):
        want = 1.0 if gamma == (0, 0) else 0.0
        assert c == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_naive_recovers_single_basis_function(spec):
    gs = build_gamma(spec)
    ns = build_node_set(spec)
    target = list(gs)[len(gs) // 2]
    h = SampleVector(
        spec=spec,
        values={n.index: chi_eval(spec, target, n.index) for n in ns.nodes},
    )
    p = coefficients_naive(h, node_set=ns)
    for gamma, c in zip(p.gamma_set, p.coeffs):
        want = 1.0 if gamma == target else 0.0
        assert c == pytest.approx(want, abs=1e-13)


def test_d1_recovers_chebyshev_degree():
    n = validate_pairwise_coprime((16,))
    spec = NodeSpec(n=n)
    ns = build_node_set(spec)
    h = SampleVector(
        spec=spec,
        values={
            node.index: math.cos(7 * node.index[0] * math.pi / 16)
            for node in ns.nodes
        },
    )
    p = coefficients_fast(h)
    for gamma, c in zip(p.gamma_set, p.coeffs):
        want = 1.0 if gamma == (7,) else 0.0
        assert c == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_fast_matches_naive(spec):
    rng = np.random.default_rng(7)
    ns = build_node_set(spec)
    for _ in range(5):
        h = random_samples(spec, rng)
        fast = coefficients_fast(h, node_set=ns)
        naive = coefficients_naive(h, node_set=ns)
        scale = max(abs(v) for v in naive.coeffs)
        for f, c in zip(fast.coeffs, naive.coeffs):
            assert abs(f - c) / scale < 1e-12


def test_fast_handles_complex_samples():
    spec = NodeSpec(n=N53, kappa=(0, 1))
    rng = np.random.default_rng(8)
    h = random_samples(spec, rng, complex_valued=True)
    fast = coefficients_fast(h)
    naive = coefficients_naive(h)
    assert fast.coeffs.dtype == np.complex128
    for f, c in zip(fast.coeffs, naive.coeffs):
        assert isinstance(f, complex)
        assert abs(f - c) < 1e-12


def test_transform_is_linear():
    spec = NodeSpec(n=N53)
    rng = np.random.default_rng(9)
    h1 = random_samples(spec, rng)
    h2 = random_samples(spec, rng)
    combo = SampleVector(
        spec=spec,
        values={
            key: 2.5 * h1.values[key] - 0.75 * h2.values[key]
            for key in h1.values
        },
    )
    p1 = coefficients_fast(h1)
    p2 = coefficients_fast(h2)
    pc = coefficients_fast(combo)
    for c, c1, c2 in zip(pc.coeffs, p1.coeffs, p2.coeffs):
        assert c == pytest.approx(2.5 * c1 - 0.75 * c2, abs=1e-13)


def test_embed_grid_shape_and_mass():
    spec = NodeSpec(n=N53)
    ns = build_node_set(spec)
    h = constant_samples(spec)
    grid = embed_grid(h, ns)
    assert grid.shape == (6, 4)
    assert grid.sum() == pytest.approx(1.0)
    # off-pattern grid positions stay zero
    assert grid[0, 1] == 0.0
    assert np.count_nonzero(grid) == len(ns)


def _max_relative_deviation(got, want):
    scale = max(abs(v) for v in want)
    return max(abs(g - c) for g, c in zip(got, want, strict=True)) / scale


@pytest.mark.parametrize(
    "spec, complex_valued",
    [(spec, False) for spec in ORACLE_SPECS] + [(ORACLE_SPECS[2], True)],
)
def test_naive_matches_loop_oracle(spec, complex_valued):
    ns = build_node_set(spec)
    gs = build_gamma(spec)
    h = random_samples(spec, np.random.default_rng(31), complex_valued)
    naive = coefficients_naive(h, node_set=ns)
    assert list(naive.gamma_set) == list(gs)
    kind = np.complex128 if complex_valued else np.float64
    assert naive.coeffs.dtype == kind and naive.coeffs.shape == (len(gs),)
    assert _max_relative_deviation(naive.coeffs, loop_naive(h, ns, gs)) < 1e-14


def test_suite_transform_catches_scaled_coefficient(monkeypatch):
    spec = ORACLE_SPECS[2]
    assert all(r.passed for r in verify.suite_transform(build_node_set(spec)))
    original = transform.coefficients_fast

    def scaled(*args, **kwargs):
        p = original(*args, **kwargs)
        top = int(np.argmax(np.abs(p.coeffs)))
        p.coeffs[top] *= 1.0 + 1e-9
        return p

    monkeypatch.setattr(transform, "coefficients_fast", scaled)
    results = verify.suite_transform(build_node_set(spec))
    assert results and not any(r.passed for r in results)


def test_transform_suite_scales():
    start = time.perf_counter()
    results = verify.run_suites(SHIFTED_13_11, ("transform",))
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in results)
    assert elapsed < 0.5


def test_naive_memory_is_blocked():
    spec = NodeSpec(n=validate_pairwise_coprime((61, 60)))
    ns = build_node_set(spec)
    h = random_samples(spec, np.random.default_rng(33))
    n = len(ns)
    assert n == 1891
    tracemalloc.start()
    try:
        coefficients_naive(h, node_set=ns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4


def test_unknown_sample_index_rejected():
    spec = NodeSpec(n=N53)
    values = dict(constant_samples(spec).values)
    values.pop((0, 0))
    values[(99, 99)] = 1.0
    with pytest.raises(IndexOutOfRange, match=r"\(99, 99\)"):
        discrete_integral(SampleVector(spec=spec, values=values))
    values.pop((99, 99))
    with pytest.raises(IndexOutOfRange, match="11 entries, expected 12"):
        coefficients_fast(SampleVector(spec=spec, values=values))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
def test_non_finite_samples_rejected(bad):
    spec = NodeSpec(n=N53)
    values = dict(constant_samples(spec).values)
    values[(1, 3)] = bad
    h = SampleVector(spec=spec, values=values)
    for op in (
        integrate,
        interpolate,
        coefficients_naive,
    ):
        with pytest.raises(DomainViolation, match=r"\(1, 3\)"):
            op(h)


@pytest.mark.parametrize("bad", ["1.5", None, "abc", [1.0], b"1"])
def test_non_numeric_samples_rejected(bad):
    spec = NodeSpec(n=N53)
    values = dict(constant_samples(spec).values)
    values[(1, 3)] = bad
    h = SampleVector(spec=spec, values=values)
    for op in (integrate, interpolate, coefficients_naive):
        with pytest.raises(
            InvalidParameter, match=r"at node \(1, 3\) is not a number"
        ):
            op(h)


@pytest.mark.parametrize(
    "big",
    [2**2000, -(2**2000), Fraction(10**400)],
    ids=["2**2000", "-2**2000", "Fraction(10**400)"],
)
def test_samples_beyond_float_range_rejected(big):
    spec = NodeSpec(n=N53)
    values = dict(constant_samples(spec).values)
    values[(1, 3)] = big
    h = SampleVector(spec=spec, values=values)
    for op in (integrate, interpolate, coefficients_naive):
        with pytest.raises(
            DomainViolation, match=r"at node \(1, 3\) is too large for a float"
        ):
            op(h)


@pytest.mark.parametrize(
    "good, want",
    [
        (7, 7.0),
        (np.int64(-3), -3.0),
        (2**70, 2.0**70),
        (np.float32(0.1), float(np.float32(0.1))),
        (Fraction(1, 3), 1 / 3),
        (True, 1.0),
        (np.array(1.5), 1.5),
    ],
)
def test_numeric_samples_keep_their_value(good, want):
    spec = NodeSpec(n=N53)
    ns = build_node_set(spec)
    values = dict(constant_samples(spec).values)
    values[(1, 3)] = good
    vals = aligned_values(SampleVector(spec=spec, values=values), ns)
    assert vals.dtype == np.float64
    assert vals[ns.lookup[(1, 3)]] == want


def test_overflowing_samples_rejected():
    # Finite samples near the float64 maximum overflow the transform: the
    # constant coefficient of h = 1.7e308 is 1.7e308, but its sum is inf.
    h = constant_samples(NodeSpec(n=N53), 1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainViolation, match=r"\(0, 0\) is not finite"):
            coefficients_fast(h)
        with pytest.raises(DomainViolation, match="not finite"):
            interpolate(h)


def test_transform_does_not_import_interp():
    # Load the package without its __init__, which imports every module, so
    # only what transform itself pulls in ends up in sys.modules.
    package_dir = Path(transform.__file__).parent
    script = f"""
import sys, types
pkg = types.ModuleType("lisscheb")
pkg.__path__ = [{str(package_dir)!r}]
sys.modules["lisscheb"] = pkg
from lisscheb import nodes, transform
from lisscheb.congruence import validate_pairwise_coprime
spec = nodes.NodeSpec(n=validate_pairwise_coprime((5, 3)))
ns = nodes.build_node_set(spec)
h = transform.SampleVector(spec, {{key: 1.0 for key in ns.lookup}})
transform.coefficients_fast(h)
transform.coefficients_naive(h)
assert "lisscheb.interp" not in sys.modules, sorted(sys.modules)
"""
    subprocess.run([sys.executable, "-c", script], check=True)


def test_one_expansion_type():
    assert interp.ChebExpansion is transform.ChebExpansion
