import itertools

import numpy as np
import pytest

from lisscheb.congruence import validate_pairwise_coprime
from lisscheb.errors import InvalidParameter, NotInGammaSet
from lisscheb.nodes import NodeSpec, build_node_set
from lisscheb.spectral import (
    build_gamma,
    contains_rows,
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
    rows = contains_rows(spec, np.array(cand, dtype=np.int64))
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
    member = contains_rows(spec, box)
    pos = gs.positions(box)
    assert np.array_equal(pos >= 0, member)
    assert np.array_equal(gs.elements[pos[member]], box[member])
    # Python ints beyond int64 in an object array are outside.
    huge = np.array([[10**30] + [0] * (spec.dim - 1),
                     [-(10**30)] * spec.dim], dtype=object)
    assert gs.positions(huge).tolist() == [-1, -1]
    assert gs.positions(np.empty((0, spec.dim), np.int64)).shape == (0,)


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
