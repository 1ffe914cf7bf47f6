"""An oracle for interpolation that shares nothing with the transform.

The interpolation matrix V[i, gamma] = prod_j T_{gamma_j}(z_ij) is built
with numpy's Chebyshev Vandermonde matrices at the node points, and V c = h
is solved by LU.  No chi tables, no discrete orthogonality and no cosine
transform are involved.  The paper's unique-interpolation theorem says V
is square and nonsingular.
"""

import itertools

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from lisscheb.congruence import validate_pairwise_coprime
from lisscheb.interp import interpolate
from lisscheb.nodes import NodeSpec, build_node_set
from lisscheb.spectral import build_gamma
from lisscheb.transform import SampleVector

# N from 12 to 1,008: the solve is O(N^3), so N stays near 1,000.
SPECS = [
    NodeSpec(n=validate_pairwise_coprime(nv))
    for nv in [(5, 3), (7, 4), (5, 3, 2), (7, 5, 3, 2), (17, 16),
               (13, 11, 7, 5)]
] + [
    NodeSpec(n=validate_pairwise_coprime(nv), kappa=kv)
    for nv, kv in [((5, 3), (0, 1)), ((5, 3), (0, 0)), ((3, 1, 2), (0, 0, 0)),
                   ((13, 11), (0, 1)), ((9, 7, 4), (1, 0, 0))]
]


def vandermonde(spec):
    """V[i, gamma] in node-set by gamma-set order, from chebvander."""
    points = build_node_set(spec).points
    gammas = build_gamma(spec).elements
    v = np.ones((len(points), len(gammas)))
    for j in range(spec.dim):
        table = chebyshev.chebvander(points[:, j], int(gammas[:, j].max()))
        v *= table[:, gammas[:, j]]
    return v


def solve_and_compare(spec, rng, complex_valued=False):
    """The relative deviation of interpolate from the solve of V c = h."""
    v = vandermonde(spec)
    assert v.shape[0] == v.shape[1]
    assert np.linalg.cond(v) < 100.0
    h = rng.standard_normal(v.shape[0])
    if complex_valued:
        h = h + 1j * rng.standard_normal(v.shape[0])
    ns = build_node_set(spec)
    samples = SampleVector(
        spec, dict(zip(map(tuple, ns.indices.tolist()), h.tolist()))
    )
    want = np.linalg.solve(v, h)
    got = interpolate(samples).coeffs
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("spec", SPECS)
def test_interpolate_matches_the_vandermonde_solve(spec):
    assert solve_and_compare(spec, np.random.default_rng(41)) < 1e-12


def test_interpolate_matches_the_vandermonde_solve_complex():
    spec = SPECS[-1]
    assert solve_and_compare(spec, np.random.default_rng(42), True) < 1e-12


@pytest.mark.parametrize("k", range(1, 9))
def test_padua_points(k):
    # n = (k + 1, k) gives the Padua points: Bos, De Marchi, Vianello and
    # Xu, J. Approx. Theory 143 (2006).  The space is the total degree k.
    spec = NodeSpec(n=validate_pairwise_coprime((k + 1, k)))
    indices = set(map(tuple, build_node_set(spec).indices.tolist()))
    box = itertools.product(range(k + 2), range(k + 1))
    assert indices == {i for i in box if (i[0] + i[1]) % 2 == 0}
    assert len(indices) == (k + 1) * (k + 2) // 2
    gammas = set(map(tuple, build_gamma(spec).elements.tolist()))
    assert gammas == {
        g for g in itertools.product(range(k + 1), repeat=2) if sum(g) <= k
    }
    assert solve_and_compare(spec, np.random.default_rng(k)) < 1e-12
