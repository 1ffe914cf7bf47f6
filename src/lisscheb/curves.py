"""Lissajous curve evaluation, normalization and self-intersection analysis.

Two curve families are covered: general cosine curves with arbitrary
frequencies, phases and sign flips, and the node-generating family whose
frequencies are the coproducts of a pairwise-coprime vector n, with phases
that are rational multiples of pi controlled by an integer shift vector
kappa and a scale epsilon in {1, 2}.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from .congruence import DimensionVector, crt_solve, integer_tuple
from .congruence import validate_pairwise_coprime
from .errors import IndexOutOfRange, InvalidParameter, InvalidRange, ZeroEntry
from .nodes import MAX_BOX_CELLS
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
        alpha, u = _phases(self.alpha), integer_tuple(self.u, "sign")
        if len(alpha) != len(q) or len(u) != len(q):
            raise InvalidParameter("q, alpha and u must have equal length")
        if math.gcd(*q) != 1:
            raise InvalidParameter("frequencies must have overall gcd 1")
        if any(s not in (-1, 1) for s in u):
            raise InvalidParameter("signs must be -1 or +1")
        for name, value in ("q", q), ("alpha", alpha), ("u", u):
            object.__setattr__(self, name, value)


def _phases(alpha) -> Tuple[float, ...]:
    """alpha as a tuple of floats; InvalidParameter for a value that is not
    a finite real number (a bool, a string, None, a complex number)."""
    if not isinstance(alpha, Iterable):
        raise InvalidParameter(f"phases must be a sequence, got {alpha!r}")
    out = []
    for a in alpha:
        try:
            finite = not isinstance(a, bool) and math.isfinite(a)
        except (TypeError, OverflowError):  # not a number; an int past floats
            finite = False
        if not finite or not isinstance(a, numbers.Real):
            raise InvalidParameter(f"phases must be finite reals, got {a!r}")
        out.append(float(a))
    return tuple(out)


@dataclass(frozen=True)
class LCCurve:
    """Node-generating curve with frequencies P_i[n] and phases kappa_i*pi/(eps*n_i).

    The epsilon=1 curve with shift kappa coincides pointwise with the
    epsilon=2 curve with shift 2*kappa.  ``n``, a DimensionVector or a
    sequence of integers, is validated as NodeSpec validates it.
    """

    n: DimensionVector
    epsilon: int
    kappa: Tuple[int, ...]
    u: Tuple[int, ...]

    def __post_init__(self):
        if self.epsilon not in (1, 2):
            raise InvalidParameter("epsilon must be 1 or 2")
        n = validate_pairwise_coprime(self.n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "kappa", integer_tuple(self.kappa, "kappa"))
        object.__setattr__(self, "u", integer_tuple(self.u, "sign"))
        if len(self.kappa) != n.dim or len(self.u) != n.dim:
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
    """Evaluate a general cosine curve at parameter t.

    Raises InvalidRange for a t that curve_parameters would reject.
    """
    _check_finite(max(map(abs, curve.q)), t)
    return tuple(
        s * math.cos(q * t - a)
        for q, a, s in zip(curve.q, curve.alpha, curve.u)
    )


def lc_eval(curve: LCCurve, t: float) -> Point:
    """Evaluate component i as u_i * cos(P_i[n]*t - kappa_i*pi/(eps*n_i)).

    Raises InvalidRange for a t that curve_parameters would reject.
    """
    _check_finite(max(curve.n.coproducts), t)
    return _lc_point(curve, t)


def _lc_point(curve: LCCurve, t: float) -> Point:
    """lc_eval's value at a t already checked, as sample_curve's are."""
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
    n = validate_pairwise_coprime(n)
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
    return [_lc_point(curve, ti) for ti in t]


def curve_parameters(
    curve: LCCurve, num_samples: int, t_range: Tuple[float, float]
) -> List[float]:
    """num_samples equispaced parameters over [t0, t1], both ends included.

    Raises InvalidRange for fewer than two or more than MAX_BOX_CELLS
    samples, a reversed range, and a range whose ends are NaN or infinite or
    overflow once multiplied by the curve's frequencies.
    """
    (num_samples,) = integer_tuple((num_samples,), "sample count")
    t0, t1 = t_range
    _check_finite(max(curve.n.coproducts), t0, t1)
    if t1 < t0:
        raise InvalidRange(f"empty parameter range [{t0}, {t1}]")
    if not 2 <= num_samples <= MAX_BOX_CELLS:
        raise InvalidRange(f"need from 2 to {MAX_BOX_CELLS} samples, "
                           f"got {num_samples}")
    step = (t1 - t0) / (num_samples - 1)
    return [t0 + i * step for i in range(num_samples)]


def _check_finite(freq: int, *ts) -> None:
    """Raise InvalidRange unless the ts are real numbers whose magnitudes
    sum, times freq, to a finite float: none is NaN, infinite or a number
    that leaves the float range at that frequency.  Two ts are a range, and
    their sum bounds its length.  Python floats keep numpy scalars from
    warning on overflow."""
    try:
        finite = all(isinstance(t, numbers.Real) for t in ts) and (
            math.isfinite(freq * sum(abs(float(t)) for t in ts)))
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        what = "range [%s, %s]" % ts if len(ts) == 2 else repr(ts[0])
        raise InvalidRange(
            f"parameter {what} is not finite at the curve's frequencies")
