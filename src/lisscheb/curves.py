"""Lissajous curve evaluation, normalization and self-intersection analysis.

Two curve families are covered: general cosine curves with arbitrary
frequencies, phases and sign flips, and the node-generating family whose
frequencies are the coproducts of a pairwise-coprime vector n, with phases
that are rational multiples of pi controlled by an integer shift vector
kappa and a scale epsilon in {1, 2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .congruence import DimensionVector, crt_solve, integer_tuple
from .errors import IndexOutOfRange, InvalidParameter, InvalidRange, ZeroEntry
from .trig import cos_pi_ratio

Point = Tuple[float, ...]


@dataclass(frozen=True)
class GeneralCurve:
    """Curve t -> (u_1 cos(q_1 t - alpha_1), ..., u_d cos(q_d t - alpha_d))."""

    q: Tuple[int, ...]
    alpha: Tuple[float, ...]
    u: Tuple[int, ...]

    def __post_init__(self):
        if not self.q:
            raise ZeroEntry("frequency tuple must be non-empty")
        if len(self.alpha) != len(self.q) or len(self.u) != len(self.q):
            raise InvalidParameter("q, alpha and u must have equal length")
        if math.gcd(*self.q) != 1:
            raise InvalidParameter("frequencies must have overall gcd 1")
        if any(s not in (-1, 1) for s in self.u):
            raise InvalidParameter("signs must be -1 or +1")


@dataclass(frozen=True)
class LCCurve:
    """Node-generating curve with frequencies P_i[n] and phases kappa_i*pi/(eps*n_i).

    The epsilon=1 curve with shift kappa coincides pointwise with the
    epsilon=2 curve with shift 2*kappa.
    """

    n: DimensionVector
    epsilon: int
    kappa: Tuple[int, ...]
    u: Tuple[int, ...]

    def __post_init__(self):
        if self.epsilon not in (1, 2):
            raise InvalidParameter("epsilon must be 1 or 2")
        d = self.n.dim
        integer_tuple(self.kappa, "kappa")
        if len(self.kappa) != d or len(self.u) != d:
            raise InvalidParameter("kappa and u must match the dimension of n")
        if any(s not in (-1, 1) for s in self.u):
            raise InvalidParameter("signs must be -1 or +1")

    @property
    def dim(self) -> int:
        return self.n.dim


@dataclass(frozen=True)
class NormalForm:
    """Standard form of an epsilon=2 curve under a time shift.

    ``kappa_prime``/``u_prime``/``r_prime`` give the all-{0,1} shift form;
    ``trig_tags`` together with ``r_prime_trig``/``u_prime_trig`` give the
    equivalent per-dimension sin/cos form.
    """

    kappa_prime: Tuple[int, ...]
    u_prime: Tuple[int, ...]
    r_prime: int
    trig_tags: Tuple[str, ...]
    r_prime_trig: int
    u_prime_trig: Tuple[int, ...]


def general_eval(curve: GeneralCurve, t: float) -> Point:
    """Evaluate a general cosine curve at parameter t."""
    return tuple(
        s * math.cos(q * t - a)
        for q, a, s in zip(curve.q, curve.alpha, curve.u)
    )


def lc_eval(curve: LCCurve, t: float) -> Point:
    """Evaluate component i as u_i * cos(P_i[n]*t - kappa_i*pi/(eps*n_i))."""
    n = curve.n
    eps = curve.epsilon
    return tuple(
        s * math.cos(p * t - k * math.pi / (eps * ni))
        for p, ni, k, s in zip(n.coproducts, n.entries, curve.kappa, curve.u)
    )


def lc_eval_at_index(curve: LCCurve, l: int) -> Point:
    """Evaluate at the grid parameter t_l = l*pi/(eps*P[n]), exactly.

    The trigonometric argument of component i reduces to the rational angle
    P_i[n]*(l - kappa_i)*pi / (eps*P[n]); evaluating it through the exact
    reduction makes curve samples bit-identical to node coordinates.
    """
    if type(l) is not int:  # plain ints, as suite_curve passes, skip the check
        (l,) = integer_tuple((l,), "parameter index")
    n = curve.n
    denom = curve.epsilon * n.product
    return tuple(
        s * cos_pi_ratio(p * (l - k), denom)
        for p, k, s in zip(n.coproducts, curve.kappa, curve.u)
    )


def is_degenerate(curve: LCCurve) -> bool:
    """A curve is degenerate iff a time shift removes all phases.

    For epsilon=2 this holds iff all kappa_i share one parity; every
    epsilon=1 curve is degenerate.
    """
    if curve.epsilon == 1:
        return True
    parities = {k % 2 for k in curve.kappa}
    return len(parities) == 1


def normalize(curve: LCCurve) -> NormalForm:
    """Bring an epsilon=2 curve into its shifted standard forms.

    Returns the smallest shift index r' in [0, 4*P[n]) such that
    shifting the curve by t_{r'} yields the curve with kappa'_1 = 0 and
    kappa'_i in {0, 1}, together with the per-dimension sin/cos form
    (kappa'_i a multiple of n_i).  Both are found by solving simultaneous
    congruences; the shift always exists.
    """
    if curve.epsilon != 2:
        raise InvalidParameter("normalize expects an epsilon=2 curve")
    n = curve.n
    kappa = curve.kappa
    d = n.dim
    two_p = 2 * n.product

    # {0,1} form: kappa'_i is forced by parity once kappa'_1 = 0 is imposed,
    # and r' must satisfy r' = kappa'_i - kappa_i mod 2*n_i for every i.
    kp = tuple((kappa[i] - kappa[0]) % 2 for i in range(d))
    r_prime = crt_solve(
        [(kp[i] - kappa[i], 2 * n.entries[i]) for i in range(d)]
    )
    rho = tuple(
        ((r_prime + kappa[i] - kp[i]) % (4 * n.entries[i])) // (2 * n.entries[i])
        for i in range(d)
    )
    up = tuple((-1) ** rho[i] * curve.u[i] for i in range(d))

    # sin/cos form: kappa'_i = delta_i * n_i, so r' = -kappa_i mod n_i.
    r_trig = crt_solve([(-kappa[i], n.entries[i]) for i in range(d)])
    delta = tuple(
        ((r_trig + kappa[i]) % (2 * n.entries[i])) // n.entries[i]
        for i in range(d)
    )
    rho_trig = tuple(
        ((r_trig + kappa[i] - delta[i] * n.entries[i]) % (4 * n.entries[i]))
        // (2 * n.entries[i])
        for i in range(d)
    )
    u_trig = tuple((-1) ** rho_trig[i] * curve.u[i] for i in range(d))
    tags = tuple("sin" if delta[i] == 1 else "cos" for i in range(d))

    return NormalForm(
        kappa_prime=kp,
        u_prime=up,
        r_prime=r_prime % (2 * two_p),
        trig_tags=tags,
        r_prime_trig=r_trig % (2 * two_p),
        u_prime_trig=u_trig,
    )


def multiplicity_profile(
    n: DimensionVector, l: int
) -> Tuple[FrozenSet[int], int]:
    """Face set and revisit count of the degenerate curve sample at t_l.

    ``M`` collects the (0-based) dimensions where l is not a multiple of
    n_i; the curve passes through the sampled point 2**len(M) times per
    period.  l must lie in [0, 2*P[n]).
    """
    (l,) = integer_tuple((l,), "parameter index")
    if not 0 <= l < 2 * n.product:
        raise IndexOutOfRange(f"l={l} outside [0, {2 * n.product})")
    face = frozenset(i for i, ni in enumerate(n.entries) if l % ni != 0)
    return face, 2 ** len(face)


def self_intersection_counts(n: DimensionVector) -> Dict[FrozenSet[int], int]:
    """Node counts of the standard degenerate curve, grouped by face set.

    The count for face set M is 2**(1-len(M)) * prod_{i in M}(n_i - 1),
    with the empty product equal to 1; points with len(M) >= 2 are the
    self-intersections.  The counts sum to the total node count
    2**(1-d) * prod(n_i + 1).
    """
    d = n.dim
    counts: Dict[FrozenSet[int], int] = {}
    for mask in range(2**d):
        face = frozenset(i for i in range(d) if mask >> i & 1)
        prod = 1
        for i in face:
            prod *= n.entries[i] - 1
        # 2**(1-#M) * prod is integral: prod is even unless it vanishes
        # or every n_i in M is even (at most one entry of n is even).
        counts[face] = prod * 2 // (2 ** len(face))
    return counts


def total_node_count(n: DimensionVector) -> int:
    """Total number of distinct points the degenerate curve visits."""
    prod = 1
    for ni in n.entries:
        prod *= ni + 1
    return prod // 2 ** (n.dim - 1)


def sample_curve(
    curve: LCCurve,
    num_samples: int,
    t_range: Tuple[float, float] = (0.0, 2.0 * math.pi),
) -> List[Point]:
    """Sample the curve at equispaced parameters over [t0, t1]."""
    (num_samples,) = integer_tuple((num_samples,), "sample count")
    t0, t1 = t_range
    if t1 < t0:
        raise InvalidRange(f"empty parameter range [{t0}, {t1}]")
    if num_samples < 2:
        raise InvalidRange("need at least two samples")
    step = (t1 - t0) / (num_samples - 1)
    return [lc_eval(curve, t0 + i * step) for i in range(num_samples)]
