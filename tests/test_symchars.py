"""Tests for symmetric-group and wreath-product character utilities."""

import math
from collections import Counter

import pytest

from weightcomb import BoundExceededError
from weightcomb.partitions import (
    degree,
    hooks,
    is_d_core,
    partitions_of,
)
from weightcomb.symchars import (
    MN_BOUND,
    dz_chars_sym,
    mn_value,
    wreath_char_degree,
)


def centralizer_order(rho):
    mult = Counter(rho)
    z = 1
    for part, m in mult.items():
        z *= part**m * math.factorial(m)
    return z


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama values.


def test_s3_character_table():
    # Classes (1,1,1), (2,1), (3); rows chi^(3), chi^(2,1), chi^(1,1,1).
    table = {
        (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
        (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
        (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
    }
    for mu, row in table.items():
        for rho, value in row.items():
            assert mn_value(mu, rho) == value


def test_identity_column_is_degree():
    for n in range(9):
        for mu in partitions_of(n):
            assert mn_value(mu, (1,) * n) == degree(mu)


def test_sign_character():
    for n in range(1, 8):
        for rho in partitions_of(n):
            sign = (-1) ** (n - len(rho))
            assert mn_value((1,) * n, rho) == sign
            assert mn_value((n,), rho) == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_column_orthogonality(n):
    for rho in partitions_of(n):
        square_sum = sum(mn_value(mu, rho) ** 2 for mu in partitions_of(n))
        assert square_sum == centralizer_order(rho)


@pytest.mark.parametrize("n", range(1, 7))
def test_row_orthogonality(n):
    rhos = partitions_of(n)
    weights = [math.factorial(n) // centralizer_order(r) for r in rhos]
    for mu in partitions_of(n):
        for nu in partitions_of(n):
            dot = sum(
                w * mn_value(mu, r) * mn_value(nu, r)
                for w, r in zip(weights, rhos)
            )
            assert dot == (math.factorial(n) if mu == nu else 0)


def test_mn_value_direct_for_s4():
    """Brute-force character of S_4 from the permutation action on tabloids
    is not needed; instead check values against the classical S_4 table."""
    classes = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    table = {
        (4,): [1, 1, 1, 1, 1],
        (3, 1): [3, 1, -1, 0, -1],
        (2, 2): [2, 0, 2, -1, 0],
        (2, 1, 1): [3, -1, -1, 0, 1],
        (1, 1, 1, 1): [1, -1, 1, 1, -1],
    }
    for mu, row in table.items():
        assert [mn_value(mu, rho) for rho in classes] == row


def test_mn_bound_enforced():
    with pytest.raises(BoundExceededError):
        mn_value((MN_BOUND + 1,), (MN_BOUND + 1,))
    with pytest.raises(ValueError):
        mn_value((2, 1), (2,))


def test_mn_value_independent_of_part_order():
    assert mn_value((3, 2), (2, 2, 1)) == mn_value((3, 2), (1, 2, 2))


# ---------------------------------------------------------------------------
# ell-prime characters of S_(ell**i).


@pytest.mark.parametrize("ell,i", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (5, 1)])
def test_irr_ellprime_sym_is_hooks_and_exhaustive(ell, i):
    """The characters of S_(ell**i) of degree prime to ell are the hooks."""
    labels = hooks(ell**i)
    assert len(labels) == ell**i
    # Exhaustiveness: these are exactly the characters of ell-prime degree.
    expected = [mu for mu in partitions_of(ell**i) if degree(mu) % ell != 0]
    assert sorted(labels) == sorted(expected)


# ---------------------------------------------------------------------------
# Defect-zero characters of S_m.


def test_dz_frozen_values():
    assert dz_chars_sym(4, 3) == ((3, 1), (2, 1, 1))
    assert dz_chars_sym(2, 2) == ()
    assert dz_chars_sym(4, 2) == ()
    assert dz_chars_sym(0, 3) == ((),)


def test_dz_equals_cores():
    for ell in (2, 3, 5):
        for m in range(10):
            assert dz_chars_sym(m, ell) == tuple(
                mu for mu in partitions_of(m) if is_d_core(mu, ell)
            )


# ---------------------------------------------------------------------------
# Wreath products.


def test_wreath_degree_examples():
    assert wreath_char_degree(2, ((2, 1), ())) == 2
    assert wreath_char_degree(2, ((1,), (1,))) == 2  # multinomial 2 choose 1
    assert wreath_char_degree(1, ((2, 1),)) == 2
    assert wreath_char_degree(3, ((1,), (1,), (1,))) == 6
    with pytest.raises(ValueError):
        wreath_char_degree(2, ((1,),))


def test_wreath_degrees_square_sum():
    """Sum of squared degrees over all of Irr(C_e wr S_n) equals the group
    order e**n * n."""
    for e in (1, 2, 3):
        for n in (1, 2, 3):
            total = 0
            for sizes in _weak_compositions(n, e):
                for mus in _multipartitions(sizes):
                    total += wreath_char_degree(e, mus) ** 2
            assert total == e**n * math.factorial(n)


def _weak_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def _multipartitions(sizes):
    if not sizes:
        yield ()
        return
    for head in partitions_of(sizes[0]):
        for tail in _multipartitions(sizes[1:]):
            yield (head,) + tail


@pytest.mark.parametrize("e,i,ell", [(1, 1, 3), (2, 0, 3), (2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_irr_ellprime_wreath_exhaustive(e, i, ell):
    """The multipartitions of C_e wr S_(ell**i) of ell-prime degree are
    exactly the e * ell**i with one hook of ell**i in one component."""
    n = ell**i
    got = sorted(
        tuple(hook if t == k else () for t in range(e))
        for k in range(e)
        for hook in hooks(n)
    )
    assert len(got) == e * n
    expected = sorted(
        mus
        for sizes in _weak_compositions(n, e)
        for mus in _multipartitions(sizes)
        if wreath_char_degree(e, mus) % ell != 0
    )
    assert got == expected
