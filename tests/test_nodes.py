import itertools
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import small_specs

from lisscheb.congruence import DimensionVector, validate_pairwise_coprime
from lisscheb.curves import LCCurve, lc_eval_at_index, multiplicity_profile
from lisscheb.curves import self_intersection_counts, total_node_count
from lisscheb.curves import general_eval, is_degenerate, lc_eval, normalize
from lisscheb.curves import curve_parameters, sample_curve
from lisscheb.errors import (
    CoprimalityViolation,
    DomainViolation,
    IndexOutOfRange,
    InvalidParameter,
    OverflowDimension,
)
from lisscheb.interp import ChebExpansion, cheb_T_eval, expansion_eval
from lisscheb.interp import expansion_inner_product, fundamental, interpolate
from lisscheb.interp import kernel_eval
from lisscheb import quad, transform, verify
from lisscheb.nodes import (
    MAX_BOX_CELLS,
    Node,
    NodeSet,
    NodeSpec,
    build_node_set,
    cgl_point,
    class_map_shifted,
    check_points,
    class_map_standard,
    int_tuples,
    variety_membership,
)
from lisscheb.spectral import build_gamma, norm_sq
from lisscheb.verify import run_suites

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
    # One point is the one-row case: same message, and row 0.
    with pytest.raises(DomainViolation, match=match) as one:
        check_points([x], 2)
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
    one = check_points([x[0]], 2)
    assert one.dtype == np.float64
    assert np.array_equal(one, [[1.0, -1.0]])
    assert check_points([], 2).shape == (0, 2)


@pytest.mark.parametrize(
    "shape", [(3, 2, 1), (2, 1, 2), (1, 1, 2), (0, 2, 1), (4,), (2,)]
)
def test_check_points_rejects_arrays_that_are_not_two_dimensional(shape):
    with pytest.raises(DomainViolation, match=r"shape .*expected \(M, 2\)"):
        check_points(np.zeros(shape), 2)
    if len(shape) > 2:  # a flat array is one point to expansion_eval
        p = ChebExpansion(build_gamma(NodeSpec(n=N53)), {(0, 0): 1.0})
        with pytest.raises(DomainViolation, match="shape"):
            expansion_eval(p, np.zeros(shape))


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


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(spec=small_specs())
def test_node_set_matches_definition(spec):
    # The indices i of the box [0, m] whose entries i_j - kappa_j all share
    # one parity, in lexicographic order; the parity is that shared bit.
    kappa = (0,) * spec.dim if spec.kappa is None else spec.kappa
    box = itertools.product(*(range(mj + 1) for mj in spec.m))
    want = [
        list(i) for i in box
        if len({(ij - kj) % 2 for ij, kj in zip(i, kappa)}) == 1
    ]
    ns = build_node_set(spec)
    assert len(ns) == len(want)
    assert ns.indices.tolist() == want
    assert ns.parities.tolist() == [(i[0] - kappa[0]) % 2 for i in want]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(spec=small_specs())
def test_nodes_match_a_per_element_reference(spec):
    ns = build_node_set(spec)
    want = []
    for row, pt, w, r in zip(ns.indices, ns.points, ns.weights, ns.parities):
        index = tuple(int(v) for v in row)
        face = frozenset(j for j, v in enumerate(index) if 0 < v < spec.m[j])
        point = tuple(float(v) for v in pt)
        want.append(Node(index, point, float(w), int(r), face))
    assert ns.nodes == want
    for got, ref in zip(ns.nodes, want):
        for name in ("index", "point", "weight", "parity", "face"):
            a, b = getattr(got, name), getattr(ref, name)
            assert type(a) is type(b), name
            if isinstance(a, tuple):
                assert list(map(type, a)) == list(map(type, b)), name


def test_equal_specs_share_one_read_only_lookup():
    ns = build_node_set(NodeSpec(n=N53))
    lookup = ns.lookup
    assert build_node_set(NodeSpec(n=(5, 3))).lookup is lookup
    assert lookup == dict(zip(int_tuples(ns.indices), range(len(ns))))
    with pytest.raises(TypeError):
        lookup[(0, 0)] = 7
    with pytest.raises(TypeError):
        del lookup[(0, 0)]
    assert lookup[(0, 0)] == 0
    # Each family of the same n has its own lookup.
    shifted = [build_node_set(NodeSpec(n=N53, kappa=k)) for k in [(0, 1), (0, 0)]]
    assert len({id(lookup)} | {id(other.lookup) for other in shifted}) == 3
    for other in shifted:
        assert list(other.lookup) == list(int_tuples(other.indices))


@given(small_specs())
@settings(max_examples=60, deadline=None)
def test_lookup_is_the_index_to_position_dict(spec):
    ns = build_node_set(spec)
    assert ns.lookup == dict(zip(int_tuples(ns.indices), range(len(ns))))
    assert list(ns.lookup.values()) == list(range(len(ns)))


def _reversed(ns):
    return NodeSet(ns.spec, *(a[::-1] for a in (ns.indices, ns.points,
                                                ns.weights, ns.parities)))


@pytest.mark.parametrize("warm", [False, True])
def test_hand_built_node_set_builds_its_own_lookup(empty_cache, warm):
    # A node set not from build_node_set maps its own rows, and neither
    # reads nor fills the spec's lookup, on a cold or a warm cache.
    spec = NodeSpec(n=validate_pairwise_coprime((7, 5, 3)))
    built = build_node_set(spec)
    want = dict(zip(int_tuples(built.indices), range(len(built))))
    if warm:
        assert built.lookup == want
    rev = _reversed(built)
    assert rev.lookup == dict(zip(int_tuples(rev.indices), range(len(rev))))
    assert rev.lookup[tuple(built.indices[0].tolist())] == len(rev) - 1
    values = {key: float(sum(key)) for key in want}
    h = transform.SampleVector(spec=spec, values=values)
    assert transform.aligned_values(h, rev).tolist() == [
        float(sum(key)) for key in rev.lookup
    ]
    with pytest.raises(TypeError):
        rev.lookup[(0, 0, 0)] = 1
    # Node sets from build_node_set still get the spec's map in their order.
    assert build_node_set(spec).lookup == want
    assert list(build_node_set(spec).lookup) == list(want)
    assert quad.integrate(h) == pytest.approx(
        float(np.dot(built.weights, [values[k] for k in want])), rel=1e-14
    )


def test_empty_node_set_has_an_empty_lookup(empty_cache):
    built = build_node_set(NodeSpec(n=N53))
    arrays = (built.indices, built.points, built.weights, built.parities)
    assert NodeSet(built.spec, *(a[:0] for a in arrays)).lookup == {}
    assert built.lookup == dict(zip(int_tuples(built.indices), range(len(built))))
    # On a warm cache too.
    assert NodeSet(built.spec, *(a[:0] for a in arrays)).lookup == {}


def test_lookup_follows_the_spec_not_a_changed_array(empty_cache):
    # The shared map is built from the spec, so writing into a node set's
    # indices before its first lookup leaves the other node sets' map right.
    spec = NodeSpec(n=N53)
    want = list(int_tuples(build_node_set(spec).indices))
    changed = build_node_set(spec)
    changed.indices[:] = changed.indices[::-1].copy()
    assert list(changed.lookup) == want
    assert list(build_node_set(spec).lookup) == want


def test_node_set_pickles_after_its_lookup_is_used():
    for ns in (build_node_set(NodeSpec(n=N53)),
               _reversed(build_node_set(NodeSpec(n=N53)))):
        lookup = dict(ns.lookup)
        back = pickle.loads(pickle.dumps(ns))
        assert np.array_equal(back.indices, ns.indices)
        assert back.lookup == lookup and list(back.lookup) == list(lookup)


def test_node_set_fields_are_frozen():
    ns = build_node_set(NodeSpec(n=N53))
    lookup = ns.lookup
    for name in ("spec", "indices", "points", "weights", "parities"):
        with pytest.raises(AttributeError):
            setattr(ns, name, getattr(ns, name))
    assert ns.lookup is lookup
    # Node sets compare and hash by identity, so a WeakSet can hold them.
    assert ns != build_node_set(NodeSpec(n=N53))
    assert ns in weakref.WeakSet([ns])


@pytest.mark.parametrize("call, row", [
    (lambda p, spec: expansion_eval(p, [["a", "b"]]), 0),
    (lambda p, spec: kernel_eval(spec, "ab", "cd"), 0),
    (lambda p, spec: kernel_eval(spec, (0.5, 0.5), (0.5, 1j)), 1),
    (lambda p, spec: cheb_T_eval((1, 2), "ab"), 0),
    (lambda p, spec: variety_membership(spec, "ab"), 0),
    (lambda p, spec: expansion_eval(p, [0.1 + 1j, 0.2]), 0),
    (lambda p, spec: expansion_eval(p, np.array([[0.1 + 1j, 0.2]])), 0),
    (lambda p, spec: expansion_eval(p, 0.5), 0),
    (lambda p, spec: expansion_eval(p, None), 0),
    (lambda p, spec: expansion_eval(p, [[0.5, -0.25], [None, 0.1]]), 1),
])
def test_non_real_coordinates_raise_domain_violation(call, row):
    spec = NodeSpec(n=N53)
    p = ChebExpansion(build_gamma(spec), {(0, 0): 1.0})
    with pytest.raises(DomainViolation, match="not a sequence of real") as info:
        call(p, spec)
    assert info.value.row == row


@pytest.mark.parametrize("n", [(5, 3), [5, 3], np.array([5, 3]), N53])
def test_node_spec_validates_n(n):
    spec = NodeSpec(n=n)
    assert spec == NodeSpec(n=N53) and hash(spec) == hash(NodeSpec(n=N53))
    assert spec.n.product == 15 and spec.n.coproducts == (3, 5)
    assert len(build_node_set(spec)) == 12


def test_node_spec_rejects_bad_n():
    with pytest.raises(InvalidParameter, match="must be a sequence"):
        NodeSpec(n=5)
    with pytest.raises(InvalidParameter, match="integers"):
        NodeSpec(n=(5.0, 3))
    # A hand-built vector is checked too, not trusted.
    forged = DimensionVector(entries=(4, 2), product=8, coproducts=(2, 4))
    with pytest.raises(CoprimalityViolation):
        NodeSpec(n=forged)
    with pytest.raises(CoprimalityViolation):
        NodeSpec(n=forged, kappa=(0, 1))


# Entry points that take a NodeSpec, or a frequency vector n (TAKES_N),
# each as a function of that argument; then those that take samples, a node
# set, an expansion or a curve, as a function of that.
H53 = transform.SampleVector(NodeSpec(n=N53), dict.fromkeys(
    build_node_set(NodeSpec(n=N53)).lookup, 1.0))
P53 = interpolate(H53)
SPEC_CALLS = {
    "build_node_set": build_node_set,
    "build_gamma": build_gamma,
    "variety_membership": lambda s: variety_membership(s, (0.0, 0.0)),
    "class_map_shifted": lambda s: class_map_shifted(s, 0, (0,)),
    "alias_integral": lambda s: transform.alias_integral(s, (0, 0)),
    "integrate": lambda s: quad.integrate(transform.SampleVector(s, {})),
    "fundamental": lambda s: fundamental(s, (0, 0)),
    "kernel_eval": lambda s: kernel_eval(s, (0.0, 0.0), (0.0, 0.0)),
    "norm_sq": lambda s: norm_sq(s, (0, 0)),
    "run_suites": run_suites,
    "ChebExpansion": lambda s: ChebExpansion(gamma_set=s, coeffs=[1.0]),
    "class_map_standard": lambda n: class_map_standard(n, 7),
    "multiplicity_profile": lambda n: multiplicity_profile(n, 7),
    "self_intersection_counts": self_intersection_counts,
    "total_node_count": total_node_count,
    "interpolate": interpolate,
    "integrate_samples": quad.integrate,
    "coefficients_naive": transform.coefficients_naive,
    "coefficients_fast": transform.coefficients_fast,
    "coefficients_fast_node_set":
        lambda b: transform.coefficients_fast(H53, node_set=b),
    "aligned_values": lambda b: transform.aligned_values(H53, b),
    "aligned_values_samples":
        lambda b: transform.aligned_values(b, build_node_set(H53.spec)),
    "expansion_eval": lambda b: expansion_eval(b, (0.1, 0.2)),
    "expansion_inner_product": lambda b: expansion_inner_product(P53, b),
    "exactness_table": lambda b: quad.exactness_table(b, [2, 2]),
    "suite_orthogonality": verify.suite_orthogonality,
    "suite_curve": verify.suite_curve,
    "suite_quadrature": verify.suite_quadrature,
    "suite_transform": verify.suite_transform,
    "lc_eval": lambda b: lc_eval(b, 0.0),
    "lc_eval_at_index": lambda b: lc_eval_at_index(b, 0),
    "sample_curve": lambda b: sample_curve(b, 3),
    "curve_parameters": lambda b: curve_parameters(b, 3, (0.0, 1.0)),
    "normalize": normalize,
    "is_degenerate": is_degenerate,
    "general_eval": lambda b: general_eval(b, 0.0),
}
TAKES_N = ("class_map_standard", "multiplicity_profile",
           "self_intersection_counts", "total_node_count")
# None is the default of these optional arguments.
TAKES_NONE = ("coefficients_fast_node_set",)


@pytest.mark.parametrize("name", list(SPEC_CALLS))
@pytest.mark.parametrize("bad", [(5, 3), None, "5,3"])
def test_entry_points_reject_a_spec_of_the_wrong_type(name, bad):
    call = SPEC_CALLS[name]
    if name in TAKES_N and bad == (5, 3):
        # A frequency vector may be a plain sequence, as NodeSpec's n is.
        assert call(bad) == call(N53)
        return
    if name in TAKES_NONE and bad is None:
        assert call(bad).coeffs.tolist() == P53.coeffs.tolist()
        return
    with pytest.raises(InvalidParameter):
        call(bad)


@pytest.mark.parametrize("tol", ["a", None, 1j, math.nan, math.inf, -1, 10**400])
def test_variety_membership_rejects_a_bad_tolerance(tol):
    # A NaN or negative tolerance used to report a node as off the variety.
    with pytest.raises(InvalidParameter, match="tol must be"):
        variety_membership(NodeSpec(n=N53), (1.0, 1.0), tol=tol)
    assert variety_membership(NodeSpec(n=N53), (1.0, 1.0), tol=0)
