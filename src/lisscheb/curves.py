"""Lissajous curve evaluation, normalization and self-intersection analysis.

Two curve families are covered: general cosine curves with arbitrary
frequencies, phases and sign flips, and the node-generating family whose
frequencies are the coproducts of a pairwise-coprime vector n, with phases
that are rational multiples of pi controlled by an integer shift vector
kappa and a scale epsilon in {1, 2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from .congruence import DimensionVector, crt_solve, integer_tuple
from .congruence import validate_pairwise_coprime
from .errors import InvalidParameter, InvalidRange, ZeroEntry
from .errors import as_tuple, check_real, check_type
from .nodes import MAX_BOX_CELLS, class_map_standard
from .trig import cos_pi_ratio

Point = Tuple[float, ...]


@dataclass(frozen=True)
class GeneralCurve:
    """Curve t -> (u_1 cos(q_1 t - alpha_1), ..., u_d cos(q_d t - alpha_d))."""

    q: Tuple[int, ...]
    alpha: Tuple[float, ...]
    u: Tuple[int, ...]

    def __post_init__(self):
        q = integer_tuple(self.q, "frequency")
        if not q:
            raise ZeroEntry("frequency tuple must be non-empty")
        if math.gcd(*q) != 1:
            raise InvalidParameter("frequencies must have overall gcd 1")
        alpha = tuple(check_real(a, "phase")
                      for a in as_tuple(self.alpha, "phases", len(q)))
        u = _signs(self.u, len(q))
        for name, value in ("q", q), ("alpha", alpha), ("u", u):
            object.__setattr__(self, name, value)


def _signs(u, d: int) -> Tuple[int, ...]:
    """u as a tuple of d ints, each -1 or +1."""
    u = integer_tuple(u, "signs", d)
    if any(s not in (-1, 1) for s in u):
        raise InvalidParameter("signs must be -1 or +1")
    return u


@dataclass(frozen=True)
class LCCurve:
    """Node-generating curve with frequencies P_i[n] and phases kappa_i*pi/(eps*n_i).

    The epsilon=1 curve with shift kappa coincides pointwise with the
    epsilon=2 curve with shift 2*kappa.  ``n``, a DimensionVector or a
    sequence of integers, is validated as NodeSpec validates it.  It is the
    GeneralCurve (q, alpha, u) of its read-only q = P[n] and alpha_i =
    pi r_i/(eps*n_i), r_i = kappa_i reduced exactly into (-eps*n_i, eps*n_i].
    """

    n: DimensionVector
    epsilon: int
    kappa: Tuple[int, ...]
    u: Tuple[int, ...]
    q: Tuple[int, ...] = field(init=False, compare=False, repr=False)
    alpha: Tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        (epsilon,) = integer_tuple((self.epsilon,), "epsilon")
        if epsilon not in (1, 2):
            raise InvalidParameter("epsilon must be 1 or 2")
        n = validate_pairwise_coprime(self.n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "kappa",
                           integer_tuple(self.kappa, "kappa", n.dim))
        object.__setattr__(self, "u", _signs(self.u, n.dim))
        m = [epsilon * ni for ni in n.entries]
        r = [mi - (mi - k) % (2 * mi) for k, mi in zip(self.kappa, m)]
        object.__setattr__(self, "q", n.coproducts)
        object.__setattr__(self, "alpha", tuple(
            ri * math.pi / mi for ri, mi in zip(r, m)))

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
    """Evaluate a general cosine curve at parameter t.

    Raises InvalidRange for a t that curve_parameters would reject.
    """
    check_type(curve, GeneralCurve)
    _check_finite(max(map(abs, curve.q)), t)
    return _point(curve, t)


def lc_eval(curve: LCCurve, t: float) -> Point:
    """Evaluate component i as u_i * cos(P_i[n]*t - alpha_i), LCCurve's alpha.

    Raises InvalidRange for a t that curve_parameters would reject.
    """
    check_type(curve, LCCurve)
    _check_finite(max(curve.q), t)
    return _point(curve, t)


def _point(curve, t: float) -> Point:
    """u_i cos(q_i t - alpha_i) at a t already checked."""
    return tuple(
        s * math.cos(q * t - a)
        for q, a, s in zip(curve.q, curve.alpha, curve.u)
    )


def lc_eval_at_index(curve: LCCurve, l: int) -> Point:
    """Evaluate at the grid parameter t_l = l*pi/(eps*P[n]), exactly.

    The trigonometric argument of component i reduces to the rational angle
    P_i[n]*(l - kappa_i)*pi / (eps*P[n]); evaluating it through the exact
    reduction makes curve samples bit-identical to node coordinates.
    """
    check_type(curve, LCCurve)
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
    check_type(curve, LCCurve)
    if curve.epsilon == 1:
        return True
    parities = {k % 2 for k in curve.kappa}
    return len(parities) == 1


def normalize(curve: LCCurve) -> NormalForm:
    """Bring an epsilon=2 curve into its shifted standard forms.

    Returns the smallest shift index r' in [0, 2*P[n]) such that
    shifting the curve by t_{r'} yields the curve with kappa'_1 = 0 and
    kappa'_i in {0, 1}, together with the per-dimension sin/cos form
    (kappa'_i a multiple of n_i).  Both are found by solving simultaneous
    congruences; the shift always exists.
    """
    check_type(curve, LCCurve)
    if curve.epsilon != 2:
        raise InvalidParameter("normalize expects an epsilon=2 curve")
    n, kappa = curve.n.entries, curve.kappa

    def signs(r, kappa_prime):  # u_i flips per 2 n_i of r + kappa_i - kappa'_i
        return tuple(s * (-1) ** ((r + k - b) % (4 * ni) // (2 * ni))
                     for s, k, b, ni in zip(curve.u, kappa, kappa_prime, n))

    # {0,1} form: kappa'_i is forced by parity once kappa'_1 = 0 is imposed,
    # and r' must satisfy r' = kappa'_i - kappa_i mod 2*n_i for every i.
    kp = tuple((k - kappa[0]) % 2 for k in kappa)
    r_prime = crt_solve([(b - k, 2 * ni) for b, k, ni in zip(kp, kappa, n)])

    # sin/cos form: kappa'_i = delta_i * n_i, so r' = -kappa_i mod n_i.
    r_trig = crt_solve([(-k, ni) for k, ni in zip(kappa, n)])
    delta = tuple((r_trig + k) % (2 * ni) // ni for k, ni in zip(kappa, n))

    return NormalForm(
        kappa_prime=kp,
        u_prime=signs(r_prime, kp),
        r_prime=r_prime,
        trig_tags=tuple("sin" if b else "cos" for b in delta),
        r_prime_trig=r_trig,
        u_prime_trig=signs(r_trig, [b * ni for b, ni in zip(delta, n)]),
    )


def multiplicity_profile(
    n: DimensionVector, l: int
) -> Tuple[FrozenSet[int], int]:
    """Face set and revisit count of the degenerate curve sample at t_l.

    ``M`` collects the (0-based) dimensions where l is not a multiple of
    n_i; the curve passes through the sampled point 2**len(M) times per
    period.  l must lie in [0, 2*P[n]).
    """
    n = validate_pairwise_coprime(n)
    index = class_map_standard(n, l)
    face = frozenset(j for j, (i, nj) in enumerate(zip(index, n.entries))
                     if 0 < i < nj)
    return face, 2 ** len(face)


def self_intersection_counts(n: DimensionVector) -> Dict[FrozenSet[int], int]:
    """Node counts of the standard degenerate curve, grouped by face set.

    The count for face set M is 2**(1-len(M)) * prod_{i in M}(n_i - 1),
    with the empty product equal to 1; points with len(M) >= 2 are the
    self-intersections.  The counts sum to the total node count
    2**(1-d) * prod(n_i + 1).
    """
    n = validate_pairwise_coprime(n)
    d = n.dim
    counts: Dict[FrozenSet[int], int] = {}
    for mask in range(2**d):
        face = frozenset(i for i in range(d) if mask >> i & 1)
        prod = math.prod(n.entries[i] - 1 for i in face)
        # 2**(1-#M) * prod is integral: prod is even unless it vanishes
        # or every n_i in M is even (at most one entry of n is even).
        counts[face] = prod * 2 // (2 ** len(face))
    return counts


def total_node_count(n: DimensionVector) -> int:
    """Total number of distinct points the degenerate curve visits."""
    n = validate_pairwise_coprime(n)
    return math.prod(ni + 1 for ni in n.entries) // 2 ** (n.dim - 1)


def sample_curve(
    curve: LCCurve,
    num_samples: int,
    t_range: Tuple[float, float] = (0.0, 2.0 * math.pi),
) -> List[Point]:
    """Sample the curve at curve_parameters(curve, num_samples, t_range)."""
    t = curve_parameters(curve, num_samples, t_range)
    return [_point(curve, ti) for ti in t]


def curve_parameters(
    curve: LCCurve, num_samples: int, t_range: Tuple[float, float]
) -> List[float]:
    """num_samples equispaced parameters over [t0, t1], both ends included.

    Raises InvalidRange for fewer than two or more than MAX_BOX_CELLS
    samples, a reversed range, and a range whose ends are NaN or infinite or
    overflow once multiplied by the curve's frequencies, and InvalidParameter
    for a curve that is not an LCCurve or a t_range that is not two values.
    """
    check_type(curve, LCCurve)
    (num_samples,) = integer_tuple((num_samples,), "sample count")
    t0, t1 = as_tuple(t_range, "t_range", 2)
    _check_finite(max(curve.q), t0, t1)
    if t1 < t0:
        raise InvalidRange(f"empty parameter range [{t0}, {t1}]")
    if not 2 <= num_samples <= MAX_BOX_CELLS:
        raise InvalidRange(f"need from 2 to {MAX_BOX_CELLS} samples, "
                           f"got {num_samples}")
    step = (t1 - t0) / (num_samples - 1)
    return [t0 + i * step for i in range(num_samples)]


def _check_finite(freq: int, *ts) -> None:
    """Raise InvalidRange unless the ts are finite reals whose magnitudes
    sum, times freq, to a finite float.  Two ts are a range, and their sum
    bounds its length."""
    span = sum(abs(check_real(t, "parameter", InvalidRange)) for t in ts)
    check_real(check_real(freq, "frequency", InvalidRange) * span,
               "parameter times frequency", InvalidRange)
