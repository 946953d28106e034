"""Tests for the elementary number-theory layer."""

import math

import pytest
from hypothesis import given, strategies as st

from weightcomb import UnsupportedRegimeError
from weightcomb.arith import (
    EllParams,
    PrimePower,
    d_of,
    divisors,
    ellprime_part,
    factorial_valuation,
    factorize,
    is_prime,
    mobius,
    multiplicative_order,
    valuation,
)

PRIMES_TO_100 = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
]


def test_is_prime_small_table():
    assert [n for n in range(101) if is_prime(n)] == PRIMES_TO_100


def test_factorize_rebuilds_n():
    for n in range(1, 500):
        fac = factorize(n)
        assert math.prod(p**k for p, k in fac.items()) == n
        assert all(is_prime(p) for p in fac)


def test_divisors_example():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(49) == [1, 7, 49]


def test_divisors_by_scan():
    for n in range(1, 200):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_mobius_values_and_sum():
    known = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]
    assert [mobius(n) for n in range(1, 21)] == known
    for n in range(1, 60):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_ellprime_part():
    assert ellprime_part(24, 2) == 3
    assert ellprime_part(24, 3) == 8
    assert ellprime_part(-45, 3) == 5
    assert ellprime_part(7, 5) == 7
    for n in range(1, 80):
        for ell in (2, 3, 5):
            part = ellprime_part(n, ell)
            assert n % part == 0
            assert part % ell != 0
            assert n // part == ell ** valuation(n, ell)


def test_valuation_basic():
    assert valuation(24, 2) == 3
    assert valuation(-24, 2) == 3
    assert valuation(24, 3) == 1
    assert valuation(7, 5) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_factorial_valuation_matches_direct():
    for n in range(1, 40):
        for ell in (2, 3, 5, 7):
            assert factorial_valuation(n, ell) == valuation(math.factorial(n), ell)
    assert factorial_valuation(0, 3) == 0
    assert factorial_valuation(10, 2) == 8


def test_multiplicative_order_basic():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    with pytest.raises(ValueError):
        multiplicative_order(6, 9)


@given(st.integers(min_value=2, max_value=400), st.integers(min_value=1, max_value=400))
def test_multiplicative_order_is_order(m, a):
    if math.gcd(a, m) != 1:
        return
    k = multiplicative_order(a, m)
    assert pow(a, k, m) == 1
    assert all(pow(a, j, m) != 1 for j in range(1, k))


def test_e_ell_frozen_values():
    """e_ell(q), the order of q modulo ell (modulo 4 for ell = 2), is
    d_of(q, 1, ell)."""
    assert d_of(4, 1, 3) == 1
    assert d_of(2, 1, 5) == 4
    assert d_of(7, 1, 2) == 2  # 7 = 3 mod 4
    assert d_of(5, 1, 2) == 1  # 5 = 1 mod 4
    assert d_of(2, 1, 7) == 3


@pytest.mark.parametrize("q, ell", [(6, 3), (4, 2)])
def test_e_ell_rejects_q_divisible_by_ell(q, ell):
    with pytest.raises(ValueError):
        d_of(q, 1, ell)


def test_d_of_frozen_values():
    assert d_of(2, 1, 3) == 2
    assert d_of(2, -1, 3) == 1
    assert d_of(3, -1, 5) == 4
    assert d_of(7, 1, 2) == 2
    assert d_of(7, -1, 2) == 1  # -7 = 1 mod 4


@pytest.mark.parametrize("ell", [3, 5, 7, 11])
def test_d_versus_e_relation(ell):
    """d is determined by e: equal for eps=+1; for eps=-1 it is 2e, e/2, or e
    according to e odd, e = 2 mod 4, or 4 | e."""
    for q in range(2, 33):
        if not is_prime(ell) or q % ell == 0:
            continue
        e = d_of(q, 1, ell)
        d_minus = d_of(q, -1, ell)
        if e % 2 == 1:
            assert d_minus == 2 * e
        elif e % 4 == 2:
            assert d_minus == e // 2
        else:
            assert d_minus == e


def test_prime_power_parse():
    assert PrimePower.from_q(8) == PrimePower(2, 3, 8)
    assert PrimePower.from_q(9) == PrimePower(3, 2, 9)
    assert PrimePower.from_q(7) == PrimePower(7, 1, 7)
    with pytest.raises(ValueError):
        PrimePower.from_q(6)
    with pytest.raises(ValueError):
        PrimePower.from_q(1)


def test_ellparams_compute():
    pr = EllParams.compute(2, 1, 3)
    assert (pr.p, pr.d) == (2, 2)
    pr = EllParams.compute(2, -1, 3)
    assert (pr.p, pr.d) == (2, 1)


def test_ellparams_ell2_gate():
    # 4 | (q - eps) is required when ell = 2.
    assert EllParams.compute(7, -1, 2).d == 1
    assert EllParams.compute(5, 1, 2).d == 1
    with pytest.raises(UnsupportedRegimeError):
        EllParams.compute(7, 1, 2)
    with pytest.raises(UnsupportedRegimeError):
        EllParams.compute(5, -1, 2)


def test_ellparams_rejects_bad_input():
    with pytest.raises(ValueError):
        EllParams.compute(6, 1, 3)  # not a prime power
    with pytest.raises(ValueError):
        EllParams.compute(9, 1, 3)  # ell | q
    with pytest.raises(ValueError):
        EllParams.compute(5, 2, 3)  # bad eps
    with pytest.raises(ValueError):
        EllParams.compute(5, 1, 4)  # ell not prime
