import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lisscheb.congruence import (
    crt_solve,
    validate_pairwise_coprime,
)
from lisscheb.errors import (
    CoprimalityViolation,
    EmptyDimension,
    IncompatibleCongruences,
    InvalidParameter,
    LisschebError,
    OverflowDimension,
    ZeroEntry,
)


def test_products_5_3_2():
    n = validate_pairwise_coprime((5, 3, 2))
    assert n.product == 30
    assert n.coproducts == (6, 10, 15)


def test_single_entry_vacuous():
    n = validate_pairwise_coprime((7,))
    assert n.product == 7
    assert n.coproducts == (1,)


def test_coprimality_violation_reports_pair():
    with pytest.raises(CoprimalityViolation) as exc:
        validate_pairwise_coprime((4, 6))
    assert exc.value.i == 1
    assert exc.value.j == 2
    assert exc.value.gcd == 2


def test_empty_and_zero_entries():
    with pytest.raises(EmptyDimension):
        validate_pairwise_coprime(())
    with pytest.raises(ZeroEntry):
        validate_pairwise_coprime((3, 0))
    with pytest.raises(ZeroEntry):
        validate_pairwise_coprime((3, -2))


@pytest.mark.parametrize("bad", [[5.5, 3], [5.0, 3], "53", [True, 3]])
def test_non_integer_entries_rejected(bad):
    with pytest.raises(LisschebError, match="must be integers"):
        validate_pairwise_coprime(bad)


def test_numpy_integer_entries_accepted():
    n = validate_pairwise_coprime(np.array([5, 3], dtype=np.int32))
    assert n.entries == (5, 3)
    assert all(type(e) is int for e in n.entries)


def test_overflow_guard():
    with pytest.raises(OverflowDimension):
        validate_pairwise_coprime((2**31, 2**31 - 1))


def test_crt_zero_residues():
    assert crt_solve([(0, 2), (0, 3)]) == 0


def test_crt_known_value():
    assert crt_solve([(1, 3), (2, 5)]) == 7


def test_crt_incompatible():
    with pytest.raises(IncompatibleCongruences):
        crt_solve([(1, 2), (0, 4)])


def test_crt_negative_residues():
    l = crt_solve([(-1, 5), (-1, 3)])
    assert l == 14


@pytest.mark.parametrize("bad", [
    [(1.5, 3), (2, 5)],
    [(1, 3.9), (2, 5)],
    [(1, 3), ("2", 5)],
    [(1, True), (2, 5)],
])
def test_crt_rejects_non_integers(bad):
    with pytest.raises(InvalidParameter, match="must be integers"):
        crt_solve(bad)


def test_crt_accepts_numpy_integers():
    assert crt_solve([(np.int64(1), np.int32(3)), (2, np.int64(5))]) == 7


@given(
    st.lists(
        st.tuples(st.integers(0, 10**5), st.integers(1, 100)),
        min_size=1,
        max_size=4,
    ),
    st.integers(0, 10**6),
)
def test_crt_random_compatible(moduli_seed, base):
    # Build a guaranteed-compatible instance by reducing one integer.
    congruences = [(base % k, k) for _, k in moduli_seed]
    l = crt_solve(congruences)
    lcm = 1
    for _, k in congruences:
        lcm = lcm * k // math.gcd(lcm, k)
    assert 0 <= l < lcm
    for a, k in congruences:
        assert l % k == a % k


@given(st.integers(0, 500), st.integers(2, 12), st.integers(2, 12))
def test_crt_uniqueness_brute_force(base, k1, k2):
    congruences = [(base % k1, k1), (base % k2, k2)]
    l = crt_solve(congruences)
    lcm = k1 * k2 // math.gcd(k1, k2)
    solutions = [
        x for x in range(lcm) if x % k1 == base % k1 and x % k2 == base % k2
    ]
    assert solutions == [l]
