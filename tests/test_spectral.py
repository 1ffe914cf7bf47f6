import itertools
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import small_specs

from lisscheb.congruence import validate_pairwise_coprime
from lisscheb.errors import InvalidParameter, NotInGammaSet
from lisscheb.nodes import NodeSet, NodeSpec, build_node_set, int_tuples
from lisscheb import nodes, spectral, transform
from lisscheb.spectral import (
    build_gamma,
    involution,
    norm_sq,
)

N53 = validate_pairwise_coprime((5, 3))

ALL_SPECS = [
    NodeSpec(n=validate_pairwise_coprime(nv))
    for nv in [(5, 3), (7, 4), (5, 3, 2), (7, 5, 3, 2)]
] + [
    NodeSpec(n=validate_pairwise_coprime(nv), kappa=kv)
    for nv, kv in [((5, 3), (0, 1)), ((5, 3), (0, 0)), ((3, 1, 2), (0, 0, 0))]
]


def test_standard_5_3_contents():
    gs = build_gamma(NodeSpec(n=N53))
    elements = set(gs)
    assert len(gs) == 12
    assert (2, 2) not in elements
    assert gs.special == (0, 3)
    assert (0, 3) in elements
    # every non-special element satisfies the strict pairwise bound
    for g in elements - {(0, 3)}:
        assert g[0] * 3 + g[1] * 5 < 15


def test_d1_collapses_to_degree_range():
    n = validate_pairwise_coprime((4,))
    gs = build_gamma(NodeSpec(n=n))
    assert list(gs) == [(0,), (1,), (2,), (3,), (4,)]
    assert gs.special == (4,)


def test_shifted_5_3_kappa_01():
    spec01 = NodeSpec(n=N53, kappa=(0, 1))
    spec00 = NodeSpec(n=N53, kappa=(0, 0))
    g01 = set(build_gamma(spec01))
    g00 = set(build_gamma(spec00))
    assert len(g01) == 38
    assert g00 - g01 == {(5, 3)}


def test_graded_lex_order():
    gs = build_gamma(NodeSpec(n=N53))
    seq = list(gs)
    keyed = sorted(seq, key=lambda g: (sum(g), g))
    assert seq == keyed


def test_involution_examples():
    assert involution((5, 3), (0, 0)) == (0, 3)
    assert involution((5, 3), (2, 1)) == (3, 1)


def test_involution_is_involutive_on_strict_half_box():
    gs = build_gamma(NodeSpec(n=N53))
    part = [
        g for g in gs if all(2 * gi < ni for gi, ni in zip(g, N53.entries))
    ]
    assert part
    for g in part:
        assert involution((5, 3), involution((5, 3), g)) == g


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_cardinality_matches_node_set(spec):
    assert len(build_gamma(spec)) == len(build_node_set(spec))


def test_involution_bijection_standard():
    # Reflecting the strict half-box tiles the complement of the closed
    # half-box, splitting the set into two counted pieces.
    for nv in [(5, 3), (7, 4), (5, 3, 2), (7, 5, 3, 2)]:
        n = validate_pairwise_coprime(nv)
        spec = NodeSpec(n=n)
        gs = build_gamma(spec)
        full = set(gs)
        closed = {
            g for g in full if all(2 * gi <= ni for gi, ni in zip(g, nv))
        }
        strict = {
            g for g in full if all(2 * gi < ni for gi, ni in zip(g, nv))
        }
        images = {involution(nv, g) for g in strict}
        assert len(images) == len(strict)
        assert images == full - closed


def test_involution_bijection_shifted():
    for nv, kv in [((5, 3), (0, 1)), ((5, 3), (0, 0)), ((3, 1, 2), (0, 0, 0))]:
        n = validate_pairwise_coprime(nv)
        spec = NodeSpec(n=n, kappa=kv)
        gs = build_gamma(spec)
        m = spec.m
        full = set(gs)

        def in_class(g, r):
            for gi, ni, ki in zip(g, nv, kv):
                if (ki - r) % 2 == 0:
                    if gi > ni:
                        return False
                else:
                    if gi >= ni:
                        return False
            return True

        class0 = {g for g in full if in_class(g, 0)}
        class1 = {g for g in full if in_class(g, 1)}
        images = {involution(m, g) for g in class1}
        assert len(images) == len(class1)
        assert images == full - class0


def test_norm_sq_examples():
    spec = NodeSpec(n=N53)
    assert norm_sq(spec, (0, 3)) == 1.0
    assert norm_sq(spec, (2, 1)) == 0.25
    assert norm_sq(spec, (0, 0)) == 1.0
    assert norm_sq(spec, (1, 0)) == 0.5

    shifted = NodeSpec(n=N53, kappa=(0, 0))
    assert norm_sq(shifted, (5, 3)) == 0.5
    assert norm_sq(shifted, (0, 6)) == 1.0


def test_norm_sq_rejects_non_members():
    spec = NodeSpec(n=N53)
    with pytest.raises(NotInGammaSet):
        norm_sq(spec, (2, 2))
    with pytest.raises(NotInGammaSet):
        norm_sq(spec, (5, 0))


def test_norm_one_only_at_zero_and_special():
    for nv in [(5, 3), (5, 3, 2)]:
        spec = NodeSpec(n=validate_pairwise_coprime(nv))
        gs = build_gamma(spec)
        ones = [g for pos, g in enumerate(gs) if gs.norm_sq[pos] == 1.0]
        zero = tuple(0 for _ in nv)
        assert sorted(ones) == sorted([zero, gs.special])


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_contains_agrees_with_enumeration(spec):
    gs = build_gamma(spec)
    members = set(gs)
    box = [mj + 1 for mj in spec.m]
    cand = list(itertools.product(*(range(-1, b + 1) for b in box)))
    rows = gs.positions(np.array(cand, dtype=np.int64)) >= 0
    assert rows.tolist() == [g in members for g in cand]
    # norm_sq takes one gamma: members have a norm, every other row raises.
    for g in cand:
        if g in members:
            assert norm_sq(spec, g) > 0
        else:
            with pytest.raises(NotInGammaSet):
                norm_sq(spec, g)
    zero = (0,) * spec.dim
    for bad in (zero + (0,), zero[1:], (-1,) + zero[1:], (10**30,) + zero[1:]):
        with pytest.raises(NotInGammaSet):
            norm_sq(spec, bad)
    for bad in ((-0.5,) + zero[1:], (1.0,) + zero[1:]):
        with pytest.raises(InvalidParameter, match="must be integers"):
            norm_sq(spec, bad)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_norm_sq_positive_and_consistent(spec):
    gs = build_gamma(spec)
    assert np.all(gs.norm_sq > 0)
    for pos, g in enumerate(gs):
        assert norm_sq(spec, g) == gs.norm_sq[pos]


def test_norm_sq_rejects_non_integer_gamma():
    spec = NodeSpec(n=N53)
    for bad in [(0.5, 0), (0, 1.0), (True, 0), ("0", 0)]:
        with pytest.raises(InvalidParameter, match="must be integers"):
            norm_sq(spec, bad)
    assert norm_sq(spec, (np.int64(1), 0)) == 0.5


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_positions_maps_rows_to_the_set(spec):
    gs = build_gamma(spec)
    assert np.array_equal(gs.positions(gs.elements), np.arange(len(gs)))
    # Every row of the box one wider than the grid, members or not.
    axes = (range(-1, mj + 2) for mj in spec.m)
    box = np.array(list(itertools.product(*axes)))
    members = set(gs)
    member = np.array([row in members for row in map(tuple, box.tolist())])
    pos = gs.positions(box)
    assert np.array_equal(pos >= 0, member)
    assert np.array_equal(gs.elements[pos[member]], box[member])
    # Python ints beyond int64 in an object array are outside.
    huge = np.array([[10**30] + [0] * (spec.dim - 1),
                     [-(10**30)] * spec.dim], dtype=object)
    assert gs.positions(huge).tolist() == [-1, -1]
    assert gs.positions(np.empty((0, spec.dim), np.int64)).shape == (0,)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_positions_maps_int64_and_object_rows_alike(spec):
    gs = build_gamma(spec)
    rng = np.random.default_rng(5)
    span = max(spec.m) + 3
    rows = rng.integers(-3, span, size=(200, spec.dim))
    rows = np.vstack([gs.elements, rows, -rows, rows + max(spec.m)])
    want = gs.positions(rows)
    assert want.dtype == np.intp and (want >= 0).sum() >= len(gs)
    assert np.array_equal(gs.positions(rows.astype(object)), want)
    # Entries past int64 only come in object rows; they are outside.
    huge = rows.astype(object)
    huge[::3, 0] = 2**63
    huge[1::3, -1] = -(2**70)
    want[::3] = want[1::3] = -1
    assert np.array_equal(gs.positions(huge), want)
    # coefficient_rows reads both through positions.
    gammas = gs.elements.tolist()
    values = np.arange(len(gs), dtype=np.float64)
    assert np.array_equal(
        transform.coefficient_rows(gs, gammas, values.tolist()), values
    )
    for big in (2**63, -(2**63) - 1, 10**30):
        with pytest.raises(NotInGammaSet) as err:
            transform.coefficient_rows(gs, gammas + [[big] * spec.dim],
                                       values.tolist() + [1.0])
        assert err.value.row == len(gs)


@pytest.mark.parametrize(
    "spec", ALL_SPECS + [NodeSpec(n=validate_pairwise_coprime((4,)))]
)
def test_gamma_tuples_are_python_ints(spec):
    gs = build_gamma(spec)
    rows = [tuple(int(v) for v in row) for row in gs.elements]
    assert list(gs) == rows
    assert gs.special == rows[gs.special_pos]
    for key in list(gs) + [gs.special]:
        assert type(key) is tuple and len(key) == spec.dim
        assert all(type(v) is int for v in key)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(spec=small_specs())
def test_gamma_set_matches_definition(spec):
    # gamma in the box [0, m) with gamma_i/n_i + gamma_j/n_j < 1 for every
    # pair (standard), or <= 2, strict where kappa_i and kappa_j differ in
    # parity (shifted); plus the special (0, ..., 0, m_d); in graded
    # lexicographic order.  As many elements as nodes.
    n = spec.n.entries

    def within(g, i, j):
        total = Fraction(g[i], n[i]) + Fraction(g[j], n[j])
        if spec.kappa is None:
            return total < 1
        if (spec.kappa[i] - spec.kappa[j]) % 2:
            return total < 2
        return total <= 2

    pairs = list(itertools.combinations(range(spec.dim), 2))
    box = itertools.product(*(range(mj) for mj in spec.m))
    want = [g for g in box if all(within(g, i, j) for i, j in pairs)]
    want.append((0,) * (spec.dim - 1) + (spec.m[-1],))
    want.sort(key=lambda g: (sum(g), g))
    gs = build_gamma(spec)
    assert len(gs) == len(want) == len(build_node_set(spec))
    assert list(gs) == want
    assert gs.special == want[gs.special_pos]


def _spec(n, kappa=None):
    return NodeSpec(n=validate_pairwise_coprime(n), kappa=kappa)


def _nbytes(gs):
    """The bytes build_gamma counts for a set: its arrays and box grid."""
    arrays = (gs.elements, gs.norm_sq, gs.e_counts, gs._box_grid())
    return sum(array.nbytes for array in arrays)


def test_equal_specs_share_one_gamma_set():
    gs = build_gamma(_spec((7, 5, 3)))
    assert build_gamma(_spec((7, 5, 3))) is gs
    assert build_gamma(_spec([7, 5, 3], kappa=[0, np.int64(1), 1])) is (
        build_gamma(_spec((7, 5, 3), kappa=(0, 1, 1)))
    )


def test_each_family_gets_its_own_gamma_set():
    # Same n: standard, shifted, and shifted with another kappa.
    specs = [_spec((5, 3)), _spec((5, 3), (0, 1)), _spec((5, 3), (0, 0))]
    sets = [build_gamma(spec) for spec in specs]
    assert len({id(gs) for gs in sets}) == 3
    assert [gs.spec for gs in sets] == specs
    assert [len(gs) for gs in sets] == [12, 38, 39]


def test_gamma_set_is_read_only():
    gs = build_gamma(_spec((5, 3), (0, 1)))
    for array in (gs.elements, gs.norm_sq, gs.e_counts):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7
    with pytest.raises(AttributeError):
        gs.norm_sq = gs.norm_sq * 2


# The specs of the benchmark workloads, plus (17, 16), (129, 128), (513, 512)
# and two one-dimensional ones.
CACHE_SPECS = [
    _spec(n, kappa) for n, kappa in [
        ((13, 11, 7, 5), None), ((11, 9, 7, 5, 2), None),
        ((7, 5, 3, 2), (0, 1, 0, 1)), ((9, 7, 4), (1, 0, 0)),
        ((31, 29, 16), None), ((17, 16), None), ((9, 7), (0, 1)),
        ((129, 128), None), ((513, 512), None), ((257, 256), (0, 1)),
        ((5,), None), ((4,), (0,)),
    ]
]


@pytest.mark.parametrize("spec", CACHE_SPECS)
def test_cached_gamma_set_matches_a_fresh_enumeration(spec):
    build_gamma(spec)
    cached, fresh = build_gamma(spec), spectral._enumerate_gamma(spec)
    assert cached.spec == fresh.spec and cached.special_pos == fresh.special_pos
    for name in ("elements", "norm_sq", "e_counts"):
        got, want = getattr(cached, name), getattr(fresh, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_set_over_the_budget_is_returned_not_kept(monkeypatch, empty_cache):
    small, large = _spec((5, 3)), _spec((31, 29, 16))
    budget = _nbytes(spectral._enumerate_gamma(small))
    monkeypatch.setattr(nodes, "SPEC_CACHE_BYTES", budget)
    kept = build_gamma(small)
    first = build_gamma(large)
    assert len(first) == 4080 and _nbytes(first) > budget
    assert build_gamma(large) is not first
    assert list(nodes._cache) == [("gamma", small)]
    assert build_gamma(small) is kept
    assert nodes._cache_bytes == budget


def test_least_recently_used_set_is_dropped(monkeypatch, empty_cache):
    a, b, c = _spec((5, 3)), _spec((7, 4)), _spec((5, 3), (0, 1))
    sizes = {s: _nbytes(spectral._enumerate_gamma(s)) for s in (a, b, c)}
    monkeypatch.setattr(nodes, "SPEC_CACHE_BYTES", sizes[a] + sizes[c])
    first_a = build_gamma(a)
    build_gamma(b)
    assert build_gamma(a) is first_a  # a is now the most recently used
    build_gamma(c)  # over the budget: b goes, a stays
    assert list(nodes._cache) == [("gamma", a), ("gamma", c)]
    assert nodes._cache_bytes == sizes[a] + sizes[c]
    assert build_gamma(a) is first_a


def _lookup_size(spec):
    return nodes._new_lookup(spec)[1]


def test_least_recently_used_entry_of_any_kind_is_dropped(
    monkeypatch, empty_cache
):
    a, b, c = _spec((5, 3)), _spec((7, 4)), _spec((5, 3), (0, 1))
    sizes = {
        ("gamma", a): _nbytes(spectral._enumerate_gamma(a)),
        ("lookup", b): _lookup_size(b),
        ("gamma", c): _nbytes(spectral._enumerate_gamma(c)),
    }
    # Room for a's set, b's lookup and c's set but one byte.
    budget = sizes["gamma", a] + sizes["lookup", b] + sizes["gamma", c] - 1
    monkeypatch.setattr(nodes, "SPEC_CACHE_BYTES", budget)
    first_a = build_gamma(a)
    first_b = build_node_set(b).lookup
    assert build_gamma(a) is first_a  # a is now the most recently used
    assert list(nodes._cache) == [("lookup", b), ("gamma", a)]
    # Over the budget: b's lookup goes, a's set stays.
    build_gamma(c)
    assert list(nodes._cache) == [("gamma", a), ("gamma", c)]
    assert nodes._cache_bytes == sizes["gamma", a] + sizes["gamma", c]
    assert build_gamma(a) is first_a
    # And a lookup pushes out the least recently used set, c's.
    again = build_node_set(b).lookup
    assert again is not first_b and again == first_b
    assert list(nodes._cache) == [("gamma", a), ("lookup", b)]
    assert nodes._cache_bytes == sizes["gamma", a] + sizes["lookup", b]


@pytest.mark.parametrize("warm", [False, True])
def test_hand_built_gamma_set_maps_its_own_rows(empty_cache, warm):
    # A set not from build_gamma finds positions in its own rows, and
    # neither reads nor changes build_gamma's set or its grid.
    spec = _spec((7, 5, 3))
    fresh = spectral._enumerate_gamma(spec)
    if warm:
        build_gamma(spec)
    rev = spectral.GammaSet(spec, fresh.elements[::-1], fresh.norm_sq[::-1],
                            fresh.e_counts[::-1], len(fresh) - 1 - fresh.special_pos)
    n = len(rev)
    assert rev.positions(fresh.elements[:3]).tolist() == [n - 1, n - 2, n - 3]
    assert np.array_equal(rev.positions(rev.elements), np.arange(n))
    assert transform.coefficient_rows(
        rev, fresh.elements[:2].tolist(), [1.0, 2.0]
    )[[n - 1, n - 2]].tolist() == [1.0, 2.0]
    gs = build_gamma(spec)
    assert np.array_equal(gs.elements, fresh.elements)
    assert np.array_equal(gs.positions(fresh.elements), np.arange(n))
    assert list(nodes._cache) == [("gamma", spec)]


def test_gamma_grid_is_kept_with_its_set(empty_cache):
    spec = _spec((9, 7), (0, 1))
    gs = build_gamma(spec)
    with pytest.raises(ValueError, match="read-only"):
        gs._grid[0] = 7
    assert np.array_equal(gs._grid, spectral._enumerate_gamma(spec)._box_grid())
    assert nodes._cache_bytes == _nbytes(gs) == (
        _nbytes(spectral._enumerate_gamma(spec))
    )


def test_lookup_over_the_budget_is_returned_not_kept(monkeypatch, empty_cache):
    spec = _spec((31, 29, 16))
    monkeypatch.setattr(nodes, "SPEC_CACHE_BYTES", _lookup_size(spec) - 1)
    ns, other = build_node_set(spec), build_node_set(spec)
    lookup = ns.lookup
    assert len(lookup) == 4080
    assert other.lookup is not lookup and other.lookup == lookup
    assert ns.lookup is lookup  # kept on its node set
    assert list(nodes._cache) == [] and nodes._cache_bytes == 0
    # A Γ under the budget is still kept.
    gs = build_gamma(spec)
    assert list(nodes._cache) == [("gamma", spec)] and build_gamma(spec) is gs


def test_lookup_bytes_count_what_tracemalloc_sees():
    # The lookup's table, key tuples and ints past the small-int cache;
    # tracemalloc reads 0.97-1.01 MB for (129, 128)'s 8,385 entries.
    for nv, lo, hi in [((129, 128), 110, 130), ((513, 512), 140, 165)]:
        spec = _spec(nv)
        size, n = _lookup_size(spec), len(build_node_set(spec))
        assert lo * n < size < hi * n


def test_cache_bookkeeping_holds_under_threads(monkeypatch, empty_cache):
    specs = [_spec(n) for n in [(5, 3), (7, 4), (9, 7), (11, 5), (7, 5, 3)]]
    fresh = {s: spectral._enumerate_gamma(s) for s in specs}
    lookups = {s: dict(zip(int_tuples(fresh_ns.indices), range(len(fresh_ns))))
               for s, fresh_ns in ((s, build_node_set(s)) for s in specs)}
    sizes = {}
    for s in specs:
        sizes["gamma", s] = _nbytes(fresh[s])
        sizes["lookup", s] = _lookup_size(s)
    # Room for about two specs' entries, so threads keep evicting one
    # another's, of both kinds.
    budget = sum(sorted(sizes.values())[-4:])
    monkeypatch.setattr(nodes, "SPEC_CACHE_BYTES", budget)
    errors = []

    def work(k):
        try:
            for i in range(200):
                spec = specs[(k + i) % len(specs)]
                gs = build_gamma(spec)
                ns = build_node_set(spec)
                if (
                    gs.spec != spec
                    or not np.array_equal(gs.elements, fresh[spec].elements)
                    or ns.lookup != lookups[spec]
                    or not np.array_equal(
                        gs.positions(fresh[spec].elements), np.arange(len(gs))
                    )
                ):
                    errors.append((k, i))
        except Exception as exc:  # a failure in a thread fails the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    kept = nodes._cache.items()
    assert nodes._cache_bytes == sum(size for _, (_, size) in kept) <= budget
    assert all(sizes[key] == size for key, (_, size) in kept)
    assert {kind for kind, _ in nodes._cache} <= {"gamma", "lookup"}


@pytest.mark.parametrize("rows", [
    np.zeros((2, 3), int),
    np.zeros(2, int),
    np.zeros((2, 2, 2), int),
    np.zeros((0,), int),
])
def test_positions_rejects_rows_that_are_not_an_m_by_d_array(rows):
    gs = build_gamma(NodeSpec(n=(5, 3)))
    with pytest.raises(InvalidParameter, match=r"expected \(M, 2\)"):
        gs.positions(rows)
    assert gs.positions(np.zeros((0, 2), int)).shape == (0,)


@pytest.mark.parametrize("m", [(0, 5), (-5, 3), (5, 0)])
def test_involution_rejects_an_m_below_one(m):
    with pytest.raises(InvalidParameter, match="at least 1"):
        involution(m, (1, 1))
