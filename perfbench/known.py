"""Known-answer inputs: random sparse polynomials in a spec's own space.

A polynomial p = sum_gamma c_gamma T_gamma built from spectral indices of
the spec is reproduced exactly by interpolation of its node samples, so every
benchmark operation has an answer computed here without the library's
algorithms:

- the interpolation coefficients are the c_gamma themselves;
- ``expansion_eval`` at x is sum_gamma c_gamma prod_j cos(gamma_j arccos x_j);
- the quadrature value is c_0, because no index of the space other than 0
  lies on the alias lattice (the special corner (0, ..., 0, m_d) has an odd
  lattice sum and integrates to 0 under the rule as in the continuum).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

TOL = 1e-10


@dataclass
class KnownPoly:
    terms: Dict[Tuple[int, ...], float]
    values: np.ndarray  # samples in node-set order

    @property
    def c0(self) -> float:
        return next(c for g, c in self.terms.items() if not any(g))

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Reference values at the rows of an (M, d) point array."""
        theta = np.arccos(np.clip(points, -1.0, 1.0))
        out = np.zeros(points.shape[0])
        for gamma, c in self.terms.items():
            out += c * np.prod(np.cos(np.asarray(gamma) * theta), axis=1)
        return out


def chi_at_nodes(gamma, indices: np.ndarray, m) -> np.ndarray:
    """chi_gamma at every node row, with exact angle reduction mod 2m_j."""
    out = np.ones(indices.shape[0])
    for j, (gj, mj) in enumerate(zip(gamma, m)):
        k = (gj * indices[:, j]) % (2 * mj)
        out *= np.cos(np.pi * k / mj)
    return out


def sparse_poly(rng, spec, gamma_rows: np.ndarray, indices: np.ndarray,
                n_terms: int = 6) -> KnownPoly:
    """A polynomial with ``n_terms`` seeded indices plus 0 and the corner."""
    d = spec.dim
    zero = (0,) * d
    corner = (0,) * (d - 1) + (spec.m[-1],)
    picks = rng.choice(gamma_rows.shape[0], size=n_terms + 2, replace=False)
    chosen: List[Tuple[int, ...]] = [zero, corner]
    for row in gamma_rows[picks]:
        g = tuple(int(v) for v in row)
        if g not in chosen and len(chosen) < n_terms + 2:
            chosen.append(g)
    coeffs = rng.uniform(-1.0, 1.0, size=len(chosen))
    terms = dict(zip(chosen, coeffs.tolist()))
    values = np.zeros(indices.shape[0])
    for gamma, c in terms.items():
        values += c * chi_at_nodes(gamma, indices, spec.m)
    return KnownPoly(terms=terms, values=values)


def coefficient_error(expansion, gamma_keys, terms) -> float:
    """Largest |computed - known| coefficient over the whole spectral set."""
    coeffs = expansion.coeffs
    if hasattr(coeffs, "keys"):
        if len(coeffs) != len(gamma_keys):
            return float("inf")
        got = np.array([coeffs[k] for k in gamma_keys])
    else:  # array in gamma-set order
        got = np.asarray(coeffs)
    want = np.array([terms.get(k, 0.0) for k in gamma_keys])
    return float(np.max(np.abs(got - want)))


def kernel_reference(gamma_rows: np.ndarray, x, y) -> float:
    """sum_gamma 2^e(gamma) T_gamma(x) T_gamma(y), e = #nonzero entries."""
    tx = np.cos(gamma_rows * np.arccos(np.asarray(x)))
    ty = np.cos(gamma_rows * np.arccos(np.asarray(y)))
    weight = np.exp2((gamma_rows > 0).sum(axis=1))
    return float(np.sum(weight * np.prod(tx * ty, axis=1)))
