import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lisscheb.congruence import DimensionVector, validate_pairwise_coprime
from lisscheb.curves import (
    GeneralCurve,
    LCCurve,
    general_eval,
    is_degenerate,
    lc_eval,
    lc_eval_at_index,
    multiplicity_profile,
    normalize,
    sample_curve,
    self_intersection_counts,
    total_node_count,
)
from lisscheb.errors import CoprimalityViolation, IndexOutOfRange, InvalidParameter
from lisscheb.errors import InvalidRange
from lisscheb.nodes import MAX_BOX_CELLS, NodeSpec, variety_membership

N53 = validate_pairwise_coprime((5, 3))
N532 = validate_pairwise_coprime((5, 3, 2))


def test_general_eval_examples():
    c = GeneralCurve(q=(1, 2), alpha=(0.0, math.pi / 2), u=(1, 1))
    x = general_eval(c, math.pi / 2)
    assert x[0] == pytest.approx(0.0, abs=1e-15)
    assert x[1] == pytest.approx(0.0, abs=1e-15)

    c = GeneralCurve(q=(2, 3), alpha=(0.0, 0.0), u=(1, -1))
    assert general_eval(c, math.pi) == pytest.approx((1.0, 1.0))

    c = GeneralCurve(q=(3, 4), alpha=(0.0, 0.0), u=(1, 1))
    assert general_eval(c, 0.0) == (1.0, 1.0)


def test_general_curve_requires_gcd_one():
    with pytest.raises(ValueError):
        GeneralCurve(q=(2, 4), alpha=(0.0, 0.0), u=(1, 1))


@pytest.mark.parametrize("q", [(1.5, 2), (1, 2.0), ("1", 2), 3])
def test_general_curve_requires_integer_frequencies(q):
    with pytest.raises(InvalidParameter):
        GeneralCurve(q=q, alpha=(0.0, 0.0), u=(1, 1))


@pytest.mark.parametrize("alpha, u, match", [
    ((0.0, 0.0), (1.0, True), "integers"),
    ((0.0, 0.0), (1, True), "integers"),
    ((0.0, 0.0), (1, 1.0), "integers"),
    (("a", None), (1, 1), "finite reals"),
    ((0.0, None), (1, 1), "finite reals"),
    ((0.0, math.nan), (1, 1), "finite reals"),
    ((-math.inf, 0.0), (1, 1), "finite reals"),
    ((0.0, 10**400), (1, 1), "finite reals"),
    ((0.0, 1j), (1, 1), "finite reals"),
    ((True, 0.0), (1, 1), "finite reals"),
    (0.5, (1, 1), "sequence"),
    ((0.0,), (1, 1), "phases must have 2 entries"),
])
def test_general_curve_checks_phases_and_signs(alpha, u, match):
    with pytest.raises(InvalidParameter, match=match):
        GeneralCurve(q=(1, 2), alpha=alpha, u=u)


def test_general_curve_keeps_plain_numbers():
    c = GeneralCurve(q=[np.int64(1), 2], alpha=[np.float64(0.5), 3],
                     u=(np.int64(-1), 1))
    assert c == GeneralCurve(q=(1, 2), alpha=(0.5, 3.0), u=(-1, 1))
    assert [type(v) for v in c.q + c.u] == [int] * 4
    assert [type(v) for v in c.alpha] == [float] * 2
    assert general_eval(c, 0.25) == (-math.cos(0.25 - 0.5), math.cos(0.5 - 3))


def test_lc_curve_rejects_bad_parameters():
    with pytest.raises(InvalidParameter, match="kappa must have 2 entries"):
        LCCurve(n=N53, epsilon=1, kappa=(0,), u=(1, 1))
    # An array epsilon made `epsilon not in (1, 2)` raise a bare ValueError.
    for epsilon in (np.array([[0.5, 0.0]]), np.array([1, 2]), True, 1.0):
        with pytest.raises(InvalidParameter, match="epsilon entries"):
            LCCurve(n=N53, epsilon=epsilon, kappa=(0, 0), u=(1, 1))
    assert LCCurve(n=N53, epsilon=np.int64(2), kappa=(0, 1), u=(1, 1)) == (
        LCCurve(n=N53, epsilon=2, kappa=(0, 1), u=(1, 1)))
    with pytest.raises(InvalidParameter, match="signs"):
        LCCurve(n=N53, epsilon=1, kappa=(0, 0), u=(1, 2))
    with pytest.raises(InvalidParameter, match="integers"):
        LCCurve(n=N53, epsilon=2, kappa=(0.5, 0), u=(1, 1))


def test_lc_curve_validates_n_as_node_spec_does():
    curve = LCCurve(n=(5, 3), epsilon=2, kappa=[0, 1], u=[1, -1])
    assert curve == LCCurve(n=N53, epsilon=2, kappa=(0, 1), u=(1, -1))
    assert sample_curve(curve, 5) == sample_curve(
        LCCurve(n=N53, epsilon=2, kappa=(0, 1), u=(1, -1)), 5)


def test_lc_curve_revalidates_a_hand_built_dimension_vector():
    forged = DimensionVector(entries=(4, 2), product=8, coproducts=(2, 4))
    with pytest.raises(CoprimalityViolation):
        LCCurve(n=forged, epsilon=1, kappa=(0, 0), u=(1, 1))


@pytest.mark.parametrize("u", [(1.0, 1), (1, True), (1, -1.0)])
def test_lc_curve_signs_must_be_integers(u):
    with pytest.raises(InvalidParameter, match="integers"):
        LCCurve(n=N53, epsilon=1, kappa=(0, 0), u=u)


def test_lc_eval_examples():
    c = LCCurve(n=N53, epsilon=1, kappa=(0, 0), u=(1, 1))
    assert lc_eval(c, 0.0) == (1.0, 1.0)

    c = LCCurve(n=N53, epsilon=2, kappa=(5, 0), u=(1, 1))
    x = lc_eval(c, 0.0)
    assert x[0] == pytest.approx(0.0, abs=1e-15)
    assert x[1] == 1.0


def test_epsilon_scaling_identity():
    n = validate_pairwise_coprime((2, 3))
    a = LCCurve(n=n, epsilon=1, kappa=(1, 1), u=(1, 1))
    b = LCCurve(n=n, epsilon=2, kappa=(2, 2), u=(1, 1))
    for t in (0.37, 1.1, 4.9):
        assert lc_eval(a, t) == pytest.approx(lc_eval(b, t), abs=1e-14)


@given(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.floats(0.0, 2.0 * math.pi, allow_nan=False),
)
def test_epsilon_scaling_identity_random(kappa, t):
    a = LCCurve(n=N53, epsilon=1, kappa=kappa, u=(1, 1))
    b = LCCurve(n=N53, epsilon=2, kappa=(2 * kappa[0], 2 * kappa[1]), u=(1, 1))
    assert lc_eval(a, t) == pytest.approx(lc_eval(b, t), abs=1e-12)


def test_periodicity():
    rng = random.Random(3)
    c = LCCurve(n=N532, epsilon=2, kappa=(1, 0, 2), u=(1, -1, 1))
    for _ in range(100):
        t = rng.uniform(0, 2 * math.pi)
        assert lc_eval(c, t) == pytest.approx(
            lc_eval(c, t + 2 * math.pi), abs=1e-12
        )


def test_degenerate_reversal():
    rng = random.Random(4)
    c = LCCurve(n=N53, epsilon=1, kappa=(0, 0), u=(1, 1))
    for _ in range(100):
        t = rng.uniform(0, 2 * math.pi)
        assert lc_eval(c, t) == pytest.approx(
            lc_eval(c, 2 * math.pi - t), abs=1e-12
        )


def test_is_degenerate():
    assert is_degenerate(LCCurve(n=N532, epsilon=2, kappa=(0, 0, 0), u=(1, 1, 1)))
    assert not is_degenerate(LCCurve(n=N53, epsilon=2, kappa=(0, 1), u=(1, 1)))
    assert is_degenerate(LCCurve(n=N53, epsilon=2, kappa=(3, 1), u=(1, 1)))
    assert is_degenerate(LCCurve(n=N53, epsilon=1, kappa=(0, 7), u=(1, 1)))


def _shift_identity_error(curve, form, samples=1000):
    shifted = LCCurve(
        n=curve.n,
        epsilon=2,
        kappa=form.kappa_prime,
        u=form.u_prime,
    )
    t_shift = form.r_prime * math.pi / (2 * curve.n.product)
    worst = 0.0
    for k in range(samples):
        t = 2.0 * math.pi * k / samples
        a = lc_eval(curve, t - t_shift)
        b = lc_eval(shifted, t)
        worst = max(worst, max(abs(p - q) for p, q in zip(a, b)))
    return worst


def test_index_arguments_must_be_integers():
    curve = LCCurve(n=N53, epsilon=1, kappa=(0, 0), u=(1, 1))
    for call in (
        lambda: multiplicity_profile(N53, 1.5),
        lambda: lc_eval_at_index(curve, 1.5),
        lambda: lc_eval_at_index(curve, "1"),
        lambda: sample_curve(curve, 2.5),
    ):
        with pytest.raises(InvalidParameter, match="must be integers"):
            call()
    assert multiplicity_profile(N53, 6) == (frozenset({0}), 2)


def test_normalize_rejects_epsilon_1():
    curve = LCCurve(n=N53, epsilon=1, kappa=(0, 1), u=(1, 1))
    with pytest.raises(InvalidParameter, match="epsilon=2"):
        normalize(curve)


def test_normalize_trivial():
    c = LCCurve(n=N53, epsilon=2, kappa=(0, 0), u=(1, -1))
    form = normalize(c)
    assert form.kappa_prime == (0, 0)
    assert form.r_prime == 0
    assert form.u_prime == (1, -1)
    assert form.trig_tags == ("cos", "cos")


def test_normalize_shift_identity():
    c = LCCurve(n=N53, epsilon=2, kappa=(5, 0), u=(1, 1))
    form = normalize(c)
    assert form.kappa_prime[0] == 0
    assert all(k in (0, 1) for k in form.kappa_prime)
    assert _shift_identity_error(c, form, samples=100) < 1e-10


def test_normalize_degenerate_gives_all_zero_kappa():
    c = LCCurve(n=N53, epsilon=2, kappa=(2, 2), u=(1, 1))
    form = normalize(c)
    assert form.kappa_prime == (0, 0)


def test_normalize_random_identity():
    rng = random.Random(11)
    for _ in range(20):
        kappa = (rng.randrange(-10, 10), rng.randrange(-10, 10))
        u = (rng.choice([-1, 1]), rng.choice([-1, 1]))
        c = LCCurve(n=N53, epsilon=2, kappa=kappa, u=u)
        form = normalize(c)
        assert form.kappa_prime[0] == 0
        assert all(k in (0, 1) for k in form.kappa_prime)
        assert 0 <= form.r_prime < 4 * N53.product
        assert _shift_identity_error(c, form) < 1e-10


def test_normalize_trig_form():
    rng = random.Random(12)
    n = N53
    for _ in range(10):
        kappa = (rng.randrange(-8, 8), rng.randrange(-8, 8))
        u = (rng.choice([-1, 1]), rng.choice([-1, 1]))
        c = LCCurve(n=n, epsilon=2, kappa=kappa, u=u)
        form = normalize(c)
        t_shift = form.r_prime_trig * math.pi / (2 * n.product)
        for k in range(50):
            t = 2.0 * math.pi * k / 50
            point = lc_eval(c, t - t_shift)
            for j in range(2):
                freq = n.coproducts[j]
                if form.trig_tags[j] == "cos":
                    want = form.u_prime_trig[j] * math.cos(freq * t)
                else:
                    want = form.u_prime_trig[j] * math.sin(freq * t)
                assert point[j] == pytest.approx(want, abs=1e-10)


def test_multiplicity_profile_examples():
    assert multiplicity_profile(N53, 0) == (frozenset(), 1)
    assert multiplicity_profile(N53, 3) == (frozenset({0}), 2)
    assert multiplicity_profile(N53, 1) == (frozenset({0, 1}), 4)
    assert multiplicity_profile(N53, 15) == (frozenset(), 1)
    with pytest.raises(IndexOutOfRange):
        multiplicity_profile(N53, 30)
    with pytest.raises(IndexOutOfRange):
        multiplicity_profile(N53, -1)


@pytest.mark.parametrize("n", [N53, N532])
def test_multiplicity_grouping_oracle(n):
    # Group all samples of the standard degenerate curve by coincidence;
    # the group containing t_l must have exactly the predicted size.
    curve = LCCurve(n=n, epsilon=1, kappa=(0,) * n.dim, u=(1,) * n.dim)
    groups = {}
    for l in range(2 * n.product):
        pt = tuple(round(c, 9) for c in lc_eval_at_index(curve, l))
        groups.setdefault(pt, []).append(l)
    for members in groups.values():
        _, mult = multiplicity_profile(n, members[0])
        assert len(members) == mult


def test_self_intersection_counts():
    counts = self_intersection_counts(N53)
    assert counts[frozenset({0, 1})] == 4
    assert total_node_count(N53) == 12
    assert sum(counts.values()) == 12

    counts3 = self_intersection_counts(N532)
    assert total_node_count(N532) == 18
    assert sum(v for m, v in counts3.items() if len(m) >= 2) == 9
    assert sum(counts3.values()) == 18


def test_self_intersection_counts_d1():
    n = validate_pairwise_coprime((4,))
    counts = self_intersection_counts(n)
    assert all(len(m) < 2 for m in counts)
    assert total_node_count(n) == 5


def test_sample_curve_degenerate_interval():
    c = LCCurve(n=N53, epsilon=1, kappa=(0, 0), u=(1, 1))
    pts = sample_curve(c, 2, (0.0, 0.0))
    assert len(pts) == 2
    assert pts[0] == pts[1]


def test_sample_curve_errors():
    c = LCCurve(n=N53, epsilon=1, kappa=(0, 0), u=(1, 1))
    with pytest.raises(InvalidRange):
        sample_curve(c, 10, (1.0, 0.0))
    with pytest.raises(InvalidRange):
        sample_curve(c, 1, (0.0, 1.0))


@pytest.mark.parametrize("t_range", [
    (math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0),
    (-math.inf, math.inf),
    # Finite ends that overflow: t1 - t0, and 5 t (5 is a frequency).
    (-1e308, 1e308), (1e308, 1e308),
    # Python ints beyond the float range, and one that overflows at 5 t.
    (0, 10**400), (-(10**400), 0.0), (0, 10**308),
    # numpy floats that overflow at 5 t, and in the sum of the ends.
    (0.0, np.float64(1e308)), (np.float64(-1e308), np.float64(1e308)),
])
def test_sample_curve_rejects_non_finite_range(t_range):
    c = LCCurve(n=N53, epsilon=1, kappa=(0, 0), u=(1, 1))
    with pytest.raises(InvalidRange, match="finite real"):
        sample_curve(c, 10, t_range)


@pytest.mark.parametrize(
    "t", [math.inf, 1e308, "a", math.nan, 10**400, np.float64(1e308)]
)
def test_lc_eval_rejects_a_parameter_that_is_not_finite(t):
    c = LCCurve(n=N53, epsilon=1, kappa=(0, 0), u=(1, 1))
    with pytest.raises(InvalidRange, match="finite real"):
        lc_eval(c, t)


@pytest.mark.parametrize("t", [math.nan, -math.inf, 1e308, None, 1j])
def test_general_eval_rejects_a_parameter_that_is_not_finite(t):
    c = GeneralCurve(q=(1, 2), alpha=(0.0, 0.0), u=(1, 1))
    with pytest.raises(InvalidRange, match="finite real"):
        general_eval(c, t)


@pytest.mark.parametrize("count", [MAX_BOX_CELLS + 1, 10**30])
def test_sample_curve_rejects_too_many_samples(count):
    c = LCCurve(n=N53, epsilon=1, kappa=(0, 0), u=(1, 1))
    with pytest.raises(InvalidRange, match=f"got {count}"):
        sample_curve(c, count)


def test_samples_lie_on_variety():
    spec = NodeSpec(n=N53)
    c = LCCurve(n=N53, epsilon=1, kappa=(0, 0), u=(1, 1))
    for pt in sample_curve(c, 301, (0.0, math.pi)):
        assert variety_membership(spec, pt, tol=1e-9)


_LC_NS = [(5, 3), (7, 5, 3), (4, 3), (5, 3, 2), (1,), (12,), (9, 7, 4)]
# Shift entries inside and far outside the window (-eps n_i, eps n_i]: one
# past the float range, and ints whose phase rounds differently in floats.
_LC_KAPPA = st.integers(-50, 50) | st.sampled_from(
    [10**23 + 1, 2**64, -(2**63) - 1, 10**400])


@st.composite
def _lc_curves(draw):
    n = draw(st.sampled_from(_LC_NS))
    eps = draw(st.sampled_from((1, 2)))
    kappa = draw(st.tuples(*[_LC_KAPPA for _ in n]))
    u = draw(st.tuples(*[st.sampled_from((1, -1)) for _ in n]))
    return LCCurve(n=n, epsilon=eps, kappa=kappa, u=u)


def _reduced(curve):
    """The same curve with each kappa_i moved into (-eps n_i, eps n_i]."""
    m = [curve.epsilon * ni for ni in curve.n.entries]
    kappa = tuple((k + mi - 1) % (2 * mi) - (mi - 1)
                  for k, mi in zip(curve.kappa, m))
    assert all(-mi < k <= mi for k, mi in zip(kappa, m))
    return LCCurve(n=curve.n, epsilon=curve.epsilon, kappa=kappa, u=curve.u)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(curve=_lc_curves(), t=st.floats(-20.0, 20.0))
def test_lc_eval_reduces_kappa_exactly(curve, t):
    # lc_eval and the exact lc_eval_at_index differed by at most 6.5e-14
    # over 560 curves of these n with kappa in -50..50.
    eps, p = curve.epsilon, curve.n.product
    for l in range(2 * eps * p):
        exact = lc_eval_at_index(curve, l)
        assert lc_eval(curve, l * math.pi / (eps * p)) == pytest.approx(
            exact, rel=0, abs=1e-12)
    assert lc_eval(curve, t) == lc_eval(_reduced(curve), t)
    assert sample_curve(curve, 5) == sample_curve(_reduced(curve), 5)


def test_lc_curve_is_its_general_curve():
    curve = LCCurve(n=(5, 3), epsilon=2, kappa=(10**23 + 1, -3), u=(1, -1))
    same = LCCurve(n=(5, 3), epsilon=2, kappa=(1, -3), u=(1, -1))
    assert curve.q == (3, 5) and curve.alpha == same.alpha
    assert curve.alpha == (math.pi / 10, -3 * math.pi / 6)
    general = GeneralCurve(q=curve.q, alpha=curve.alpha, u=curve.u)
    assert general_eval(general, 0.7) == lc_eval(curve, 0.7)
    # kappa stays as given: q and alpha take no part in ==, hash or repr.
    assert curve != same and curve.kappa[0] == 10**23 + 1
    assert "alpha" not in repr(curve) and hash(same) == hash(
        LCCurve(n=(5, 3), epsilon=2, kappa=(1, -3), u=(1, -1)))
    with pytest.raises(AttributeError):
        curve.alpha = (0.0, 0.0)


@pytest.mark.parametrize("call", [
    lambda c: lc_eval(c, 0.0),
    lambda c: lc_eval_at_index(c, 0),
    lambda c: sample_curve(c, 3),
    normalize,
    is_degenerate,
], ids=["lc_eval", "lc_eval_at_index", "sample_curve", "normalize",
        "is_degenerate"])
def test_lc_curve_functions_reject_a_general_curve(call):
    curve = GeneralCurve(q=(3, 5), alpha=(0.0, 0.0), u=(1, 1))
    with pytest.raises(InvalidParameter, match="expected a LCCurve"):
        call(curve)
