"""Tests for block and weight enumeration of GL_n(q) and GU_n(q)."""

import hashlib
import itertools
import json
import math
import time

import pytest

from weightcomb import BoundExceededError, UnsupportedRegimeError, glblocks
from weightcomb.arith import EllParams, d_of, divisors, ellprime_part, multiplicative_order
from weightcomb.glblocks import (
    AFWeightLabel,
    BlockLabel,
    CountingReport,
    FracLabel,
    GenericWeightLabel,
    HookEGC,
    SemisimpleLabel,
    SeriesCharLabel,
    act_on_block,
    act_on_semisimple,
    act_on_series,
    act_on_weight,
    af_weights,
    block_irr,
    blocks,
    covered_blocks,
    ellprime_label_count,
    ellprime_labels,
    generic_weights,
    grid_points,
    is_defect_zero,
    is_ellprime_label,
    principal_block,
    semisimple_labels,
    shape_count_identity,
    unipotent_hook_eGC,
    verify_counting,
)
from weightcomb.glblocks import (
    _core_choices,
    _degree_labels,
    _first_labels,
    _label,
    _orbit,
    _unit_orbit_labels,
)
from weightcomb.partitions import (
    _core_quotient,
    _is_d_core,
    d_core,
    hooks,
    is_d_core,
    partition_count,
    partitions_of,
)

TRIVIAL = FracLabel(1, 1, 0)


# ---------------------------------------------------------------------------
# Labels.


def test_label_canonicalization():
    # the orbit of 1/5 under multiplication by 4 is {1/5, 4/5}
    lab = _label(4, 5, 4)
    assert lab == FracLabel(2, 5, 1)
    assert str(lab) == "1/5"
    assert _orbit(1, 5, 4) == [1, 4]
    assert _label(0, 1, 4) == TRIVIAL
    assert _label(7, 5, 4) == FracLabel(2, 5, 2)  # 7/5 wraps to 2/5
    assert _label(6, 10, 4) == FracLabel(2, 5, 2)  # 6/10 reduces to 3/5


def test_label_validation():
    with pytest.raises(ValueError):
        FracLabel(1, 4, 2)  # not reduced
    with pytest.raises(ValueError):
        FracLabel(1, 3, 3)  # not in [0, 1)
    with pytest.raises(ValueError):
        FracLabel(0, 1, 0)  # degree must be positive


def every_label(q, eps, deg):
    """Every label of exact degree deg, ell-singular ones too: an ell above
    |(eps*q)**deg - 1| divides no denominator, so the walk skips none."""
    return list(_degree_labels(q, eps, deg, abs((eps * q) ** deg - 1) + 1))


def test_degree_one_label_counts():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for eps in (1, -1):
            assert len(every_label(q, eps, 1)) == q - eps


def test_all_labels_census_bridges_polynomial_side():
    """Frozen degree censuses matching the polynomial-label enumeration."""
    by_deg = lambda q, eps, n: {d: len(every_label(q, eps, d)) for d in range(1, n + 1)}
    assert by_deg(2, -1, 3) == {1: 3, 2: 0, 3: 2}
    assert by_deg(3, -1, 3) == {1: 4, 2: 2, 3: 8}
    assert by_deg(4, 1, 3) == {1: 3, 2: 6, 3: 20}
    assert by_deg(2, 1, 3) == {1: 1, 2: 1, 3: 2}


def test_ellprime_labels_frozen():
    assert ellprime_labels(4, 1, 3, 2) == (
        TRIVIAL,
        FracLabel(2, 5, 1),
        FracLabel(2, 5, 2),
    )
    # all of F_4* has order dividing 3, so only the trivial root survives
    assert ellprime_labels(4, 1, 3, 1) == (TRIVIAL,)
    assert len(ellprime_labels(4, 1, 7, 1)) == 3
    assert len(ellprime_labels(2, -1, 5, 1)) == 3
    assert len(ellprime_labels(2, -1, 3, 3)) == 1  # orders 3 and 9 all vanish


def test_ellprime_label_count_matches_enumeration():
    for q, eps in [(2, 1), (3, 1), (4, 1), (5, 1), (2, -1), (3, -1), (4, -1)]:
        for ell in (2, 3, 5, 7):
            if q % ell == 0 or (ell == 2 and (q - eps) % 4):
                continue
            labs = ellprime_labels(q, eps, ell, 4)
            for d in range(1, 5):
                expected = sum(1 for lab in labs if lab.deg == d)
                assert ellprime_label_count(q, eps, ell, d) == expected


def test_ellprime_walk_matches_filter_over_every_label():
    """The walk skips each divisor r with ell | r before it walks r's orbits.
    At every n <= 4 grid point it yields what the filter over every label of
    every divisor yields, in the same order, and _first_labels is a prefix."""
    for n, q, eps, ell in grid_points(4):
        step = eps * q
        oracle = tuple(
            lab
            for m in range(1, n + 1)
            for r in divisors(abs(step**m - 1))
            if (1 if r == 1 else multiplicative_order(step % r, r)) == m
            for lab in _unit_orbit_labels(r, step)
            if is_ellprime_label(lab, ell)
        )
        assert ellprime_labels(q, eps, ell, n) == oracle, (n, q, eps, ell)
        of_deg = [lab for lab in oracle if lab.deg == n]
        for k in {0, 1, len(of_deg) // 2, len(of_deg), len(of_deg) + 1}:
            assert _first_labels(q, eps, ell, n, k) == tuple(of_deg[:k]), (n, q, eps, ell, k)


def test_first_labels_prefix_of_enumeration():
    for q, eps, ell in [(4, 1, 3), (3, -1, 2), (5, 1, 3), (2, -1, 5)]:
        labs = ellprime_labels(q, eps, ell, 3)
        for d in range(1, 4):
            of_deg = [lab for lab in labs if lab.deg == d]
            for k in range(len(of_deg) + 1):
                assert _first_labels(q, eps, ell, d, k) == tuple(of_deg[:k])


def test_d_gamma_frozen():
    assert EllParams.compute(4, 1, 3).d_gamma(1) == 1
    assert EllParams.compute(2, 1, 3).d_gamma(1) == 2
    assert EllParams.compute(2, 1, 3).d_gamma(2) == 1
    assert EllParams.compute(5, 1, 2).d_gamma(1) == 1  # 5 = 1 mod 4
    assert EllParams.compute(3, -1, 2).d_gamma(1) == 1  # -3 = 1 mod 4
    params = EllParams.compute(9, -1, 7)
    assert [params.d_gamma(m) for m in range(1, 7)] == [6, 3, 2, 3, 6, 1]
    assert EllParams.compute(4, 1, 5).d_gamma(1) == 2  # 4 has order 2 mod 5


def test_d_gamma_vs_base_parameter():
    """d / gcd(d, deg) is the order of (eps*q)**deg that d_of computes from
    scratch, at every grid (q, eps, ell) and every degree up to 12."""
    points = {(q, eps, ell) for _, q, eps, ell in grid_points(1)}
    assert len(points) == 38
    for q, eps, ell in points:
        params = EllParams.compute(q, eps, ell)
        for deg in range(1, 13):
            assert params.d_gamma(deg) == d_of(q**deg, eps**deg, ell), (q, eps, ell, deg)


def test_d_gamma_errors():
    with pytest.raises(ValueError):
        EllParams.compute(4, 1, 4).d_gamma(1)  # not prime
    with pytest.raises(ValueError):
        EllParams.compute(9, 1, 3).d_gamma(1)  # ell divides q
    with pytest.raises(UnsupportedRegimeError):
        EllParams.compute(5, -1, 2).d_gamma(1)  # 4 does not divide q - eps


def test_is_ellprime_label():
    assert is_ellprime_label(FracLabel(2, 5, 1), 3)
    assert not is_ellprime_label(FracLabel(2, 15, 1), 3)
    assert is_ellprime_label(TRIVIAL, 2)


# ---------------------------------------------------------------------------
# Semisimple labels.


def test_semisimple_frozen_counts():
    assert len(semisimple_labels(1, 2, 1, 3)) == 1
    ss = semisimple_labels(2, 4, 1, 3)
    assert len(ss) == 3
    assert ss[0].assignments == ((TRIVIAL, 2),)
    assert {lab.deg for s in ss[1:] for lab, _ in s.assignments} == {2}
    assert len(semisimple_labels(2, 4, 1, 7)) == 12
    assert len(semisimple_labels(2, 2, -1, 5)) == 6


def test_semisimple_invariants():
    for n, q, eps, ell in [(3, 3, -1, 2), (4, 2, 1, 3), (3, 2, -1, 5), (2, 3, -1, 2)]:
        out = semisimple_labels(n, q, eps, ell)
        assert len(set(out)) == len(out)
        for s in out:
            assert sum(lab.deg * m for lab, m in s.assignments) == n
            labs = [lab for lab, _ in s.assignments]
            assert labs == sorted(labs) and len(set(labs)) == len(labs)
            assert all(is_ellprime_label(lab, ell) for lab in labs)
            assert all(m >= 1 for _, m in s.assignments)


def test_semisimple_validation():
    with pytest.raises(ValueError):
        SemisimpleLabel(4, 1, 3, 2, ((TRIVIAL, 1),))  # degree sum mismatch
    with pytest.raises(ValueError):
        SemisimpleLabel(4, 1, 3, 2, ((TRIVIAL, 1), (TRIVIAL, 1)))  # repeat
    with pytest.raises(ValueError):
        SemisimpleLabel(4, 1, 3, 0, ((TRIVIAL, 0),))  # zero multiplicity


@pytest.mark.parametrize(
    "q, lab",
    [
        (9, FracLabel(2, 3, 1)),  # 3 | q: multiplying by 9 is not a unit mod 3
        (9, FracLabel(2, 8, 3)),  # 3/8 is fixed by 9, so its degree is 1
        (2, FracLabel(3, 7, 5)),  # the orbit {5, 3, 6} of 5/7 starts at 3/7
    ],
)
def test_semisimple_rejects_non_orbit_labels(q, lab):
    # the actions walk a label's orbit, which never closes for such labels
    with pytest.raises(ValueError):
        SemisimpleLabel(q, 1, 5, lab.deg, ((lab, 1),))


HALF = FracLabel(1, 2, 1)
QUARTER = FracLabel(1, 4, 1)
NOT_ORBIT = FracLabel(2, 8, 3)  # 3/8 is fixed by 9, so its degree is 1


@pytest.mark.parametrize(
    "point, n, assignments, error, message",
    [
        ((9, 0, 5), 1, ((TRIVIAL, 1),), ValueError, "eps must be +1 or -1, got 0"),
        ((5, -1, 2), 1, ((TRIVIAL, 1),), UnsupportedRegimeError,
         "ell=2 requires 4 | (q - eps); got q=5, eps=-1"),
        # a bad triple comes before a repeated divisor
        ((5, -1, 2), 2, ((TRIVIAL, 1), (TRIVIAL, 1)), UnsupportedRegimeError,
         "ell=2 requires 4 | (q - eps); got q=5, eps=-1"),
        ((9, 1, 5), 2, ((TRIVIAL, 1), (TRIVIAL, 1)), ValueError,
         "elementary divisors must be pairwise distinct"),
        # a repeat comes before a zero multiplicity and the order
        ((9, 1, 5), 1, ((TRIVIAL, 0), (TRIVIAL, 1)), ValueError,
         "elementary divisors must be pairwise distinct"),
        ((9, 1, 5), 3, ((HALF, 1), (TRIVIAL, 1), (HALF, 1)), ValueError,
         "elementary divisors must be pairwise distinct"),
        ((9, 1, 5), 0, ((TRIVIAL, 0),), ValueError, "multiplicities must be >= 1"),
        # a zero multiplicity comes before the order
        ((9, 1, 5), 1, ((HALF, 1), (TRIVIAL, 0)), ValueError,
         "multiplicities must be >= 1"),
        ((9, 1, 5), 2, ((HALF, 1), (TRIVIAL, 1)), ValueError,
         "assignments must be sorted by label"),
        # the order comes before an orbit label
        ((9, 1, 5), 3, ((NOT_ORBIT, 1), (TRIVIAL, 1)), ValueError,
         "assignments must be sorted by label"),
        ((9, 1, 5), 3, ((TRIVIAL, 1), (NOT_ORBIT, 1)), ValueError,
         "3/8 of degree 2 is not an orbit label"),
        # the first of two non-orbit labels is named, before the degree sum
        ((9, 1, 5), 7, ((TRIVIAL, 1), (NOT_ORBIT, 1), (FracLabel(3, 8, 5), 1)),
         ValueError, "3/8 of degree 2 is not an orbit label"),
        ((9, 1, 5), 2, ((TRIVIAL, 1),), ValueError, "degrees sum to 1, expected n=2"),
        ((9, 1, 5), 4, ((TRIVIAL, 1), (HALF, 1), (QUARTER, 1)), ValueError,
         "degrees sum to 3, expected n=4"),
    ],
)
def test_semisimple_rule_precedence(point, n, assignments, error, message):
    with pytest.raises(error) as caught:
        SemisimpleLabel(*point, n, assignments)
    assert type(caught.value) is error and str(caught.value) == message


def test_semisimple_rejects_a_label_whose_orbit_never_closes():
    # 9 is not a unit modulo 3, so walking the orbit of 1/3 would never
    # stop: the check must refuse the label before it walks
    with pytest.raises(ValueError) as caught:
        SemisimpleLabel(9, 1, 5, 1, ((FracLabel(1, 3, 1), 1),))
    assert str(caught.value) == "1/3 of degree 1 is not an orbit label"


def test_label_refuses_a_step_that_is_not_a_unit():
    """A step that is not a unit modulo the reduced den is a broken
    invariant, raised before the orbit walk that would never end."""
    for num, den, step in ((1, 3, 9), (3, 9, 3), (2, 4, 2)):
        with pytest.raises(AssertionError, match="is not a unit modulo"):
            _label(num, den, step)
    assert _label(4, 6, 2) == FracLabel(2, 3, 1)  # 2 is a unit mod 3


def _checked(s):
    """s rebuilt through the public constructor, which checks every rule."""
    out = SemisimpleLabel(s.q, s.eps, s.ell, s.n, s.assignments)
    assert out == s and out.params is s.params and out.d_gammas == s.d_gammas
    return out


def test_trusted_values_equal_their_checked_rebuilds():
    """The enumeration and the actions build labels and blocks unchecked;
    each must equal what the checking constructors build from its fields,
    down to params and d_gammas, which equality does not compare."""
    for n, q, eps, ell in grid_points(3):
        for s in semisimple_labels(n, q, eps, ell):
            _checked(s)
        for b in blocks(n, q, eps, ell):
            assert BlockLabel(_checked(b.s), b.kappa) == b
            for action in (1, "frob"):
                image = act_on_block(action, b)
                assert BlockLabel(_checked(image.s), image.kappa) == image


def test_semisimple_d_gammas_are_fixed_at_construction():
    for n, q, eps, ell in [(4, 9, 1, 5), (4, 7, -1, 3), (3, 8, 1, 7)]:
        for s in semisimple_labels(n, q, eps, ell):
            assert s.d_gammas == tuple(
                s.params.d_gamma(lab.deg) for lab, _ in s.assignments
            )


def test_semisimple_repr_equality_and_hash_ignore_d_gammas():
    first = SemisimpleLabel(9, 1, 5, 2, ((TRIVIAL, 1), (HALF, 1)))
    second = SemisimpleLabel(9, 1, 5, 2, ((TRIVIAL, 1), (HALF, 1)))
    assert repr(first) == (
        "SemisimpleLabel(q=9, eps=1, ell=5, n=2, assignments=("
        "(FracLabel(deg=1, den=1, num=0), 1), (FracLabel(deg=1, den=2, num=1), 1)))"
    )
    assert first == second and hash(first) == hash(second)
    assert first in semisimple_labels(2, 9, 1, 5)
    object.__setattr__(second, "d_gammas", (7, 7))
    object.__setattr__(second, "params", EllParams.compute(9, -1, 5))
    assert first == second and hash(first) == hash(second)
    assert repr(second) == repr(first)
    assert first.params is EllParams.compute(9, 1, 5)


def test_grid_bounds():
    with pytest.raises(BoundExceededError):
        semisimple_labels(7, 2, 1, 3)
    with pytest.raises(BoundExceededError):
        blocks(2, 11, 1, 3)
    with pytest.raises(BoundExceededError):
        verify_counting(2, 4, 1, 11)
    with pytest.raises(UnsupportedRegimeError):
        semisimple_labels(2, 5, -1, 2)
    with pytest.raises(ValueError):
        semisimple_labels(2, 9, 1, 3)  # ell divides q
    with pytest.raises(ValueError):
        semisimple_labels(0, 4, 1, 3)
    with pytest.raises(ValueError):
        semisimple_labels(2, 4, 0, 3)


# ---------------------------------------------------------------------------
# Blocks.


def test_blocks_frozen_gl2_q4():
    out = blocks(2, 4, 1, 3)
    assert len(out) == 3
    principal = out[0]
    assert principal.s.assignments == ((TRIVIAL, 2),)
    assert principal.kappa == ((),)
    assert principal.weights == (2,)  # d = 1, so the whole multiplicity is weight
    for b in out[1:]:
        assert b.s.assignments[0][0].deg == 2
        assert b.weights == (1,)


def test_blocks_frozen_gl2_q2():
    out = blocks(2, 2, 1, 3)
    assert len(out) == 1
    (b,) = out
    assert b.s.assignments == ((TRIVIAL, 2),)
    assert b.kappa == ((),)
    assert b.weights == (1,)
    assert b.to_json_dict() == {
        "q": 2,
        "eps": 1,
        "ell": 3,
        "n": 2,
        "s": [["0/1", 2]],
        "kappa": [["0/1", []]],
        "weights": [1],
    }


def test_principal_block():
    pb = principal_block(9, 4, 1, 3)
    assert pb.s.assignments == ((TRIVIAL, 9),)
    assert pb.kappa == ((),) and pb.weights == (9,)
    pb = principal_block(3, 2, 1, 3)  # d = 2
    assert pb.kappa == ((1,),) and pb.weights == (1,)
    pb = principal_block(2, 2, 1, 3)
    assert pb.kappa == ((),) and pb.weights == (1,)


def test_principal_block_at_large_n():
    """Validating one kappa never builds the core table, which for d >= n
    holds every partition of n (about 1.9e8 at n = 100)."""
    start = time.perf_counter()
    pb = principal_block(100, 2, 1, 101)  # d = 100
    assert pb.kappa == ((),) and pb.weights == (1,)
    pb = principal_block(150, 2, 1, 101)
    assert pb.kappa == ((50,),) and pb.weights == (1,)
    assert time.perf_counter() - start < 1.0


def test_block_check_never_builds_the_core_table():
    start = time.perf_counter()
    pb = principal_block(150, 2, 1, 101)  # d = 100 > n / 2
    assert BlockLabel(pb.s, pb.kappa) == pb
    with pytest.raises(ValueError):
        BlockLabel(pb.s, ((49, 2),))  # |kappa| = 51 is not 150 mod 100
    assert time.perf_counter() - start < 1.0


def test_block_rejects_an_unhashable_kappa_entry():
    s = SemisimpleLabel(2, 1, 3, 3, ((TRIVIAL, 3),))
    with pytest.raises(TypeError):
        BlockLabel(s, ([2, 1],))
    s = SemisimpleLabel(2, 1, 3, 4, ((TRIVIAL, 2), (FracLabel(2, 3, 1), 1)))
    with pytest.raises(TypeError):
        BlockLabel(s, ((), [1]))


def test_block_validation():
    s = SemisimpleLabel(2, 1, 3, 2, ((TRIVIAL, 2),))  # d_Gamma = 2
    with pytest.raises(ValueError):
        BlockLabel(s, ((1,),))  # |kappa| = 1 has wrong parity
    with pytest.raises(ValueError):
        BlockLabel(s, ((2,),))  # (2) is not a 2-core
    assert BlockLabel(s, ((),)).weights == (1,)  # and this one is fine
    s = SemisimpleLabel(2, 1, 7, 3, ((TRIVIAL, 3),))  # d_Gamma = 3
    for kappa in ((1, 2), (0,), (3, 0)):  # not partitions
        with pytest.raises(ValueError):
            BlockLabel(s, (kappa,))


def test_one_runner_abacus_gives_the_empty_core():
    """d = 1 takes the abacus path of every other d: the core on one runner
    is empty, the quotient is mu itself, and only () is a 1-core."""
    for n in range(9):
        for mu in partitions_of(n):
            assert _core_quotient(mu, 1) == ((), (mu,))
            assert _is_d_core(mu, 1) == (mu == ())
    s = SemisimpleLabel(4, 1, 3, 1, ((TRIVIAL, 1),))  # d = 1
    assert s.d_gammas == (1,)
    assert BlockLabel(s, ((),)).weights == (1,)
    with pytest.raises(ValueError):
        BlockLabel(s, ((1,),))


def test_core_table_is_the_core_predicate():
    """Membership in the core table is exactly the rule it replaced: a
    d-core (only () for d = 1) of size at most m and congruent to m mod d."""
    for d in range(1, 8):
        for m in range(11):
            table = _core_choices(m, d)
            assert len(set(table)) == len(table)
            for size in range(11):
                for kappa in partitions_of(size):
                    is_core = kappa == () if d == 1 else is_d_core(kappa, d)
                    expected = is_core and size <= m and (m - size) % d == 0
                    assert (kappa in table) == expected, (kappa, m, d)


# One grid point per d_Gamma = 1..7 for the trivial divisor.
_POINT_OF_D = {
    1: (2, -1, 3), 2: (2, 1, 3), 3: (2, 1, 7), 4: (2, 1, 5),
    5: (2, 1, 31), 6: (3, 1, 7), 7: (2, 1, 127),
}


def test_block_label_accepts_the_core_table():
    """BlockLabel checks kappa by the table's rule without building the
    table; it accepts exactly the table's entries."""
    for d, (q, eps, ell) in _POINT_OF_D.items():
        assert EllParams.compute(q, eps, ell).d == d
        for m in range(1, 11):
            s = SemisimpleLabel(q, eps, ell, m, ((TRIVIAL, m),))
            table = _core_choices(m, d)
            for size in range(11):
                for kappa in partitions_of(size):
                    try:
                        BlockLabel(s, (kappa,))
                        accepted = True
                    except ValueError:
                        accepted = False
                    assert accepted == (kappa in table), (kappa, m, d)


def test_blocks_partition_series_labels():
    for n, q, eps, ell in [
        (3, 2, 1, 3),
        (4, 2, 1, 3),
        (2, 4, 1, 3),
        (3, 2, -1, 3),
        (2, 3, -1, 2),
        (4, 3, -1, 2),
        (5, 2, 1, 5),
    ]:
        all_series = [
            SeriesCharLabel(s, combo)
            for s in semisimple_labels(n, q, eps, ell)
            for combo in itertools.product(
                *(partitions_of(m) for _, m in s.assignments)
            )
        ]
        expected = 0
        for s in semisimple_labels(n, q, eps, ell):
            expected_s = math.prod(partition_count(m) for _, m in s.assignments)
            expected += expected_s
        assert len(all_series) == expected
        seen = []
        for b in blocks(n, q, eps, ell):
            members = block_irr(b)
            for lab in members:
                # the block's cores are exactly the cores of the member
                for (glab, _), mu, core in zip(
                    lab.s.assignments, lab.mu, b.kappa
                ):
                    d = EllParams.compute(q, eps, ell).d_gamma(glab.deg)
                    actual = () if d == 1 else d_core(mu, d)
                    assert actual == core
            seen.extend(members)
        assert sorted(map(repr, seen)) == sorted(map(repr, all_series))


def test_block_irr_count_is_product_of_multipartition_counts():
    def multipartition_count(w, d):
        total = 0
        for combo in itertools.product(range(w + 1), repeat=d):
            if sum(combo) == w:
                total += math.prod(partition_count(c) for c in combo)
        return total

    for n, q, eps, ell in [(4, 2, 1, 3), (3, 2, 1, 3), (4, 3, -1, 2), (5, 2, 1, 3)]:
        for b in blocks(n, q, eps, ell):
            expected = 1
            for (lab, _), w in zip(b.s.assignments, b.weights):
                expected *= multipartition_count(w, b.s.params.d_gamma(lab.deg))
            assert len(block_irr(b)) == expected


# ---------------------------------------------------------------------------
# Weight enumeration.


def test_generic_weights_principal_hooks():
    pb = principal_block(9, 4, 1, 3)
    out = generic_weights(pb)
    assert len(out) == 9
    assert [w.hook for w in out] == list(hooks(9))
    assert all(w.series is None for w in out)


def test_generic_weights_not_ell_power():
    assert generic_weights(principal_block(2, 4, 1, 3)) == ()
    assert generic_weights(principal_block(5, 4, 1, 3)) == ()
    # positive weight at ell not dividing q - eps: both sets empty
    b = blocks(2, 2, 1, 3)[0]
    assert generic_weights(b) == () and af_weights(b) == ()


def test_defect_zero_block_weights():
    # GL_2(5), ell = 3: s with two distinct linear divisors and kappa = ((1),(1))
    target = None
    for b in blocks(2, 5, 1, 3):
        if len(b.s.assignments) == 2 and all(w == 0 for w in b.weights):
            target = b
            break
    assert target is not None and is_defect_zero(target)
    gen = generic_weights(target)
    assert len(gen) == 1
    assert gen[0].series == SeriesCharLabel(target.s, target.kappa)
    afs = af_weights(target)
    assert len(afs) == 1
    assert afs[0].gamma_exp == 0 and afs[0].c_seq == () and afs[0].psi_index == (0, ())


def test_af_weights_delta_one():
    pb = principal_block(3, 4, 1, 3)
    out = af_weights(pb)
    assert len(out) == 3
    shapes = [(w.gamma_exp, w.c_seq, w.psi_index) for w in out]
    assert shapes == [
        (1, (), (0, ())),
        (0, (1,), (0, (0,))),
        (0, (1,), (0, (1,))),
    ]


def test_af_weights_delta_two_shape_histogram():
    pb = principal_block(9, 4, 1, 3)
    out = af_weights(pb)
    assert len(out) == 9
    hist = {}
    for w in out:
        key = (w.gamma_exp, w.c_seq)
        hist[key] = hist.get(key, 0) + 1
    assert hist == {(2, ()): 1, (1, (1,)): 2, (0, (2,)): 2, (0, (1, 1)): 4}


def test_af_weights_base_scale_data():
    # single degree-3 divisor with m = 1 at ell | q - eps: delta = 0, d_Gamma = 1
    found = None
    for b in blocks(3, 4, 1, 3):
        if len(b.s.assignments) == 1 and b.s.assignments[0][0].deg == 3:
            found = b
            break
    assert found is not None
    (label,) = af_weights(found)
    assert (label.gamma_exp, label.c_seq, label.psi_index) == (0, (), (0, ()))


def test_counts_match_all_cases():
    pb = principal_block(1, 4, 1, 3)
    assert len(generic_weights(pb)) == len(af_weights(pb)) == 1


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_shape_count_identity(ell):
    for delta in range(7):
        assert shape_count_identity(delta, ell)


def test_series_label_rejects_non_partitions():
    """Each mu_Gamma is checked as a partition, as BlockLabel checks kappa:
    a zero or negative part, or parts out of order, are refused even where
    they sum to the multiplicity."""
    s = SemisimpleLabel(4, 1, 3, 2, ((TRIVIAL, 2),))
    for mu in ((0, 2), (1, 1, 0), (3, -1), (1, 2)):
        with pytest.raises(ValueError):
            SeriesCharLabel(s, (mu,))
    for mu in ((2,), (1, 1)):
        assert SeriesCharLabel(s, (mu,)).mu == (mu,)
    with pytest.raises(ValueError):
        SeriesCharLabel(s, ((1,),))  # |mu| = 1 differs from m = 2
    with pytest.raises(TypeError):
        SeriesCharLabel(s, ([2],))  # a list would make the label unhashable


def test_generic_weight_series_must_lie_over_its_s():
    # at (9, +, 5), d = 2 and (1) is a 2-core: the series of a defect-zero block
    trivial = SemisimpleLabel(9, 1, 5, 1, ((TRIVIAL, 1),))
    half = SemisimpleLabel(9, 1, 5, 1, ((FracLabel(1, 2, 1), 1),))
    series = SeriesCharLabel(trivial, ((1,),))
    assert GenericWeightLabel(trivial, None, series).series == series
    with pytest.raises(ValueError):
        GenericWeightLabel(half, None, series)


def test_weight_label_validation():
    s = SemisimpleLabel(4, 1, 3, 3, ((TRIVIAL, 3),))
    with pytest.raises(ValueError):
        GenericWeightLabel(s, (2, 2), None)  # not a hook
    assert GenericWeightLabel(s, (1, 1, 1), None).hook == (1, 1, 1)
    with pytest.raises(ValueError):
        GenericWeightLabel(s, (0, 1, 1, 1), None)  # sums to 3, not a partition
    with pytest.raises(ValueError):
        GenericWeightLabel(s, None, None)
    with pytest.raises(ValueError):
        AFWeightLabel(s, -1, (2,), (0, (0,)))  # gamma < 0, gamma + |c| = delta = 1
    with pytest.raises(ValueError):
        AFWeightLabel(s, 1, (0,), (0, (0,)))  # a c part of 0
    with pytest.raises(ValueError):
        AFWeightLabel(s, 0, (1,), (0, ()))  # psi vector length mismatch


# Over s = (0/1)^3 at (4, +, 3), where delta = 1, d_Gamma = 1 and ell - 1 = 2,
# labels that break exactly one slot rule of the AFWeightLabel constructor
# (test_weight_label_validation breaks the shape-part and psi-length rules).
AF_RULE_BREAKERS = {
    "gamma + |c| above delta": (1, (1,), (0, (0,))),
    "gamma + |c| below delta": (0, (), (0, ())),
    "residue below 0": (0, (1,), (-1, (0,))),
    "residue at d_Gamma": (0, (1,), (1, (0,))),
    "psi longer than c": (1, (), (0, (0,))),
    "psi entry below 0": (0, (1,), (0, (-1,))),
    "psi entry at ell - 1": (0, (1,), (0, (2,))),
}


@pytest.mark.parametrize("rule", AF_RULE_BREAKERS)
def test_af_label_breaking_one_rule_is_refused(rule):
    s = SemisimpleLabel(4, 1, 3, 3, ((TRIVIAL, 3),))
    with pytest.raises(ValueError):
        AFWeightLabel(s, *AF_RULE_BREAKERS[rule])


def test_weight_labels_no_block_lists_are_refused():
    """Labels that built before the constructors took only what some block
    lists: two AF labels off the slots of (0/1)^3 at (4, +, 3), hooks over an
    s without hook weights (2 is not a power of 3; d = 2 at 9 mod 5; two
    divisors), and series characters of no defect-zero block."""
    s = SemisimpleLabel(4, 1, 3, 3, ((TRIVIAL, 3),))
    for args in ((0, (1,), (99, (99,))), (5, (7,), (0, (0,)))):
        with pytest.raises(ValueError):
            AFWeightLabel(s, *args)
    for s, hook in (
        (SemisimpleLabel(4, 1, 3, 2, ((TRIVIAL, 2),)), (1, 1)),
        (SemisimpleLabel(9, 1, 5, 2, ((TRIVIAL, 2),)), (2,)),
        (SemisimpleLabel(4, 1, 3, 2, ((TRIVIAL, 1), (FracLabel(1, 3, 1), 1))), (1,)),
    ):
        with pytest.raises(ValueError):
            GenericWeightLabel(s, hook, None)
    # series characters of no defect-zero block: (2) is neither a 1-core nor a 2-core
    for q, ell in ((4, 3), (9, 5)):
        s = SemisimpleLabel(q, 1, ell, 2, ((TRIVIAL, 2),))
        with pytest.raises(ValueError):
            GenericWeightLabel(s, None, SeriesCharLabel(s, ((2,),)))


def test_af_label_without_delta_is_the_defect_zero_one():
    s = SemisimpleLabel(9, 1, 5, 2, ((TRIVIAL, 2),))  # d = 2: no delta
    assert AFWeightLabel(s, 0, (), (0, ())).psi_index == (0, ())
    for args in ((1, (), (0, ())), (0, (1,), (0, (0,))), (0, (), (1, ())), (0, (), (0, (0,)))):
        with pytest.raises(ValueError):
            AFWeightLabel(s, *args)


def test_af_label_refuses_lists_at_once():
    s = SemisimpleLabel(4, 1, 3, 3, ((TRIVIAL, 3),))
    for args in ((0, [1], (0, (0,))), (0, (1,), (0, [0])), (0, (1,), [0, (0,)])):
        with pytest.raises(TypeError):
            AFWeightLabel(s, *args)


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_slots_are_distinct_and_count_d_ell_to_the_delta(ell):
    for d_gamma in range(1, 4):
        for delta in range(5):
            slots = list(glblocks._slots(d_gamma, delta, ell))
            assert len(set(slots)) == len(slots) == d_gamma * ell**delta


def weight_round_trips(point):
    """Rebuild every listed weight label of the grid point, and its images
    under an ell'-order central shift, an ell-power-order central shift and
    the Frobenius, through its public constructor; each must equal the label
    the library built unchecked.  Returns the number of labels rebuilt."""
    _, q, eps, ell = point
    z_order = q - eps
    ellprime = ellprime_part(z_order, ell)
    # the shift by k has order z_order / gcd(k, z_order)
    actions = (z_order // ellprime, ellprime, "frob")
    rebuilt = 0
    for b in blocks(*point):
        for w in (*generic_weights(b), *af_weights(b)):
            for label in (w, *(act_on_weight(action, w) for action in actions)):
                again = type(label)(*(getattr(label, name) for name in type(label)._args))
                assert again == label, (point, label)
                rebuilt += 1
    return rebuilt


def test_listed_weight_labels_rebuild_through_their_constructors():
    """Every n <= 3 point and every sixth n = 4 point; CI takes all n <= 4."""
    points = grid_points(3) + [p for p in grid_points(4) if p[0] == 4][::6]
    assert sum(weight_round_trips(p) for p in points) == 54_768


# ---------------------------------------------------------------------------
# The counting report.


def brute_force_report(n, q, eps, ell):
    block_list = blocks(n, q, eps, ell)
    s_count = len(semisimple_labels(n, q, eps, ell))
    nonempty = weights_total = af_total = 0
    passed = True
    for b in block_list:
        gen = generic_weights(b)
        afs = af_weights(b)
        if (len(gen) == 0) != (len(afs) == 0) or len(gen) != len(afs):
            passed = False
        if gen:
            nonempty += 1
            weights_total += len(gen)
            af_total += len(afs)
    return (s_count, len(block_list), nonempty, weights_total, af_total, passed)


def test_verify_counting_frozen():
    r = verify_counting(2, 4, 1, 3)
    assert (r.s_count, r.blocks_checked, r.nonempty_blocks) == (3, 3, 2)
    assert r.weights_total == r.af_total == 2
    assert r.passed and r.mismatches == ()
    r = verify_counting(3, 4, 1, 3)
    assert (r.s_count, r.blocks_checked, r.nonempty_blocks) == (5, 5, 3)
    assert r.weights_total == r.af_total == 5
    assert r.passed


def test_verify_counting_matches_brute_force():
    """The shape-class pass (representatives from _first_labels, class sizes
    from the Moebius count) against a walk over every block (labels from
    ellprime_labels): every n <= 4 grid point and every sixth n = 5 point."""
    fifth = [p for p in grid_points(5) if p[0] == 5][::6]
    points = grid_points(4) + fifth
    assert (len(points), len(fifth)) == (152 + 7, 7)
    for n, q, eps, ell in points:
        r = verify_counting(n, q, eps, ell)
        brute = brute_force_report(n, q, eps, ell)
        got = (
            r.s_count,
            r.blocks_checked,
            r.nonempty_blocks,
            r.weights_total,
            r.af_total,
            r.passed,
        )
        assert got == brute, (n, q, eps, ell)


def test_verify_counting_reports_keep_their_bytes():
    """Every CountingReport of the n <= 6 grid, pinned by one sha256 over
    their sorted-key JSON, point by point."""
    digest = hashlib.sha256()
    points = grid_points(6)
    assert len(points) == 228
    for point in points:
        report = verify_counting(*point).to_json_dict()
        digest.update(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "db172c6ded9aa209bb63b217ebdc21436201e42a882656bc8fdb41bec76fadac"
    )


def test_verify_counting_checks_every_block_of_a_representative(monkeypatch):
    """With af_weights emptied on defect-zero blocks, each representative
    block is its own mismatch entry: at (4, 2, +, 7) seven entries, whose
    class sizes add up to the nine nonempty blocks of the grid point."""
    af_weights = glblocks.af_weights
    monkeypatch.setattr(
        glblocks, "af_weights", lambda b: () if is_defect_zero(b) else af_weights(b)
    )
    r = verify_counting(4, 2, 1, 7)
    assert not r.passed
    assert len(r.mismatches) == 7
    assert all((m["generic"], m["af"]) == (1, 0) for m in r.mismatches)
    assert sum(m["class_size"] for m in r.mismatches) == r.nonempty_blocks == 9
    assert len({json.dumps(m["block"]) for m in r.mismatches}) == 7


def test_verify_counting_report_json():
    r = verify_counting(2, 4, 1, 3)
    data = r.to_json_dict()
    assert data["pass"] is True
    assert data["mismatches"] == []
    assert data["s_count"] == 3
    assert set(data) == {
        "n", "q", "eps", "ell", "s_count", "blocks_checked",
        "nonempty_blocks", "weights_total", "af_total", "pass", "mismatches",
    }


def test_verify_counting_heavy_corner():
    r = verify_counting(6, 9, -1, 7)
    assert r.passed
    assert r.blocks_checked > 500_000


# ---------------------------------------------------------------------------
# Actions.


def test_act_identity_and_group_law():
    for n, q, eps, ell in [(2, 4, 1, 3), (2, 3, -1, 5), (2, 5, 1, 3)]:
        z_order = q - eps
        for s in semisimple_labels(n, q, eps, ell):
            assert act_on_semisimple(0, s) == s
            assert act_on_semisimple(z_order, s) == s
            for k1 in range(z_order):
                for k2 in range(z_order):
                    once = act_on_semisimple(k1, act_on_semisimple(k2, s))
                    assert once == act_on_semisimple(k1 + k2, s)


def test_frob_full_power_is_identity():
    for q, eps, f, ell in [
        (4, 1, 2, 3),
        (8, 1, 3, 3),
        (2, -1, 1, 3),
        (3, -1, 1, 5),
        (9, -1, 2, 5),
    ]:
        steps = f if eps == 1 else 2 * f
        for s in semisimple_labels(2, q, eps, ell):
            out = s
            for _ in range(steps):
                out = act_on_semisimple("frob", out)
            assert out == s


def test_action_commutes_with_block_irr():
    for n, q, eps, ell in [(2, 4, 1, 3), (2, 5, 1, 3), (2, 3, -1, 2)]:
        for b in blocks(n, q, eps, ell):
            for action in [1, 2, "frob"]:
                moved = act_on_block(action, b)
                lhs = sorted(repr(act_on_series(action, lab)) for lab in block_irr(b))
                rhs = sorted(repr(lab) for lab in block_irr(moved))
                assert lhs == rhs


def test_orbit_stabilizer_on_linear_labels():
    # q = 4, eps = +1: the central group has order 3
    for ell, expected_orbit in [(5, 3), (7, 3), (3, 1)]:
        ellprime_zs = [
            k for k in range(3) if (3 // math.gcd(k, 3)) % ell != 0
        ]
        s = SemisimpleLabel(4, 1, ell, 1, ((TRIVIAL, 1),))
        orbit = {act_on_semisimple(k, s) for k in ellprime_zs}
        stab = sum(1 for k in ellprime_zs if act_on_semisimple(k, s) == s)
        assert len(orbit) == expected_orbit
        assert len(orbit) * stab == len(ellprime_zs)


def test_act_on_weight_labels():
    pb = principal_block(3, 4, 1, 3)
    for action in [1, "frob"]:
        for w in generic_weights(pb):
            moved = act_on_weight(action, w)
            assert moved.hook == w.hook
            assert moved.s == act_on_semisimple(action, w.s)
        for w in af_weights(pb):
            moved = act_on_weight(action, w)
            assert (moved.gamma_exp, moved.c_seq, moved.psi_index) == (
                w.gamma_exp, w.c_seq, w.psi_index,
            )


def test_equivariance_of_weight_bijection():
    """Matching i-th generic with i-th AF label commutes with every
    ell'-central shift and with the field automorphism."""
    cases = [principal_block(3, 4, 1, 3), principal_block(1, 4, 1, 3)]
    for b in blocks(3, 4, 1, 3):
        if generic_weights(b):
            cases.append(b)
    for b in cases:
        z_order = b.s.q - b.s.eps
        actions = ["frob"] + [
            k for k in range(z_order)
            if (z_order // math.gcd(k, z_order)) % b.s.ell != 0
        ]
        gen = generic_weights(b)
        afs = af_weights(b)
        for action in actions:
            moved_block = act_on_block(action, b)
            assert tuple(act_on_weight(action, w) for w in gen) == generic_weights(
                moved_block
            )
            assert tuple(act_on_weight(action, w) for w in afs) == af_weights(
                moved_block
            )


def _reference_relabel(action, s, carried):
    """The image of s under the action, and ``carried`` permuted along,
    rebuilt through the public constructors from the uncached orbit walk."""
    q, eps = s.q, s.eps
    moved = []
    for (lab, m), entry in zip(s.assignments, carried):
        if action == "frob":
            num, den = lab.num * s.params.p, lab.den
        else:
            num, den = lab.num * (q - eps) + action * lab.den, lab.den * (q - eps)
        image = _label.__wrapped__(num, den, eps * q)
        moved.append(((FracLabel(image.deg, image.den, image.num), m), entry))
    moved.sort(key=lambda item: item[0])
    new_s = SemisimpleLabel(q, eps, s.ell, s.n, tuple(pair for pair, _ in moved))
    return new_s, tuple(entry for _, entry in moved)


@pytest.mark.parametrize("point", [(4, 7, -1, 3), (3, 7, -1, 2)])
def test_act_on_block_matches_the_uncached_reference(point):
    """Every block under every central element and the Frobenius: the image
    equals the one the public constructors build from the uncached orbit
    walk, and the d_Gamma it carries over equals d_Gamma recomputed.  A
    sample of series characters and every weight label move alike."""
    _, q, eps, _ = point
    every_block = blocks(*point)
    actions = [*range(q - eps), "frob"]
    for i, b in enumerate(every_block):
        for action in actions:
            ref_s, ref_kappa = _reference_relabel(action, b.s, b.kappa)
            moved = act_on_block(action, b)
            assert moved == BlockLabel(ref_s, ref_kappa), (b, action)
            assert moved.s.d_gammas == ref_s.d_gammas
            assert moved.s.d_gammas == glblocks._d_gammas(moved.s.params, moved.s.assignments)
            if i % 50 == 0:
                for chi in block_irr(b)[:3]:
                    _, ref_mu = _reference_relabel(action, chi.s, chi.mu)
                    assert act_on_series(action, chi) == SeriesCharLabel(ref_s, ref_mu)
            for w in generic_weights(b):
                series = w.series and SeriesCharLabel(ref_s, ref_kappa)  # mu = kappa there
                assert act_on_weight(action, w) == GenericWeightLabel(ref_s, w.hook, series)
            for w in af_weights(b):
                assert act_on_weight(action, w) == AFWeightLabel(
                    ref_s, w.gamma_exp, w.c_seq, w.psi_index
                )
    assert any(generic_weights(b) for b in every_block)


# ---------------------------------------------------------------------------
# Covered blocks.


def test_covered_blocks_trivial():
    assert covered_blocks(principal_block(3, 4, 1, 3)) == 1
    assert covered_blocks(principal_block(1, 2, 1, 3)) == 1


def test_covered_blocks_gl2_5():
    # s pairing a with -a, kappa = ((1), (1)): fixed by the order-2 shift
    counts = []
    for b in blocks(2, 5, 1, 3):
        if len(b.s.assignments) == 2 and all(w == 0 for w in b.weights):
            counts.append(covered_blocks(b))
    assert sorted(counts) == [1, 1, 1, 1, 2, 2]
    # the pairs {a, -a}: {1, 4} and {2, 3} give the two 2's
    fixed = [
        b
        for b in blocks(2, 5, 1, 3)
        if len(b.s.assignments) == 2
        and all(w == 0 for w in b.weights)
        and covered_blocks(b) == 2
    ]

    def plus_half(num, den):
        g = math.gcd(2 * num + den, 2 * den)
        return ((2 * num + den) // g % (2 * den // g), 2 * den // g)

    for b in fixed:
        fracs = {(lab.num, lab.den) for lab, _ in b.s.assignments}
        assert {plus_half(*fr) for fr in fracs} == fracs


def test_covered_blocks_cubic_census():
    """At q = 4, eps = +1, ell = 5 the 20 defect-zero cubic blocks split
    into 18 with trivial stabilizer and 2 fixed by the whole center."""
    counts = []
    for b in blocks(3, 4, 1, 5):
        if len(b.s.assignments) == 1 and b.s.assignments[0][0].deg == 3:
            assert is_defect_zero(b)
            counts.append(covered_blocks(b))
    assert sorted(counts) == [1] * 18 + [3, 3]


def test_ell_singular_label_builds_and_has_no_weights():
    """semisimple_labels yields ell'-labels only, but a central shift of
    ell-power order leaves that set, so SemisimpleLabel accepts a divisor
    whose roots have order divisible by ell; its block has no weights."""
    shifted = act_on_semisimple(1, SemisimpleLabel(4, 1, 3, 1, ((TRIVIAL, 1),)))
    assert shifted.assignments == ((FracLabel(1, 3, 1), 1),)  # 1/3 at ell = 3
    lab = FracLabel(2, 5, 1)
    s = SemisimpleLabel(9, 1, 5, 2, ((lab, 1),))
    assert not is_ellprime_label(lab, 5)
    assert s not in semisimple_labels(2, 9, 1, 5)
    block = BlockLabel(s, ((),))
    assert generic_weights(block) == () and af_weights(block) == ()
    with pytest.raises(ValueError):
        covered_blocks(block)


def test_covered_blocks_requires_weight_case():
    b = blocks(2, 4, 1, 3)[0]  # positive weight, m not an ell-power
    with pytest.raises(ValueError):
        covered_blocks(b)


def test_covered_blocks_invariance():
    for b in blocks(2, 5, 1, 3):
        if not generic_weights(b):
            continue
        base = covered_blocks(b)
        assert covered_blocks(act_on_block("frob", b)) == base
        for k in range(4):
            if (4 // math.gcd(k, 4)) % 3 != 0:
                assert covered_blocks(act_on_block(k, b)) == base


def test_covered_divides_ellprime_center_order():
    for n, q, eps, ell in [(2, 5, 1, 3), (3, 4, 1, 5), (2, 3, -1, 5)]:
        for b in blocks(n, q, eps, ell):
            if generic_weights(b):
                count = covered_blocks(b)
                assert ellprime_part(q - eps, ell) % count == 0


# ---------------------------------------------------------------------------
# Hook classification.


def test_hook_egc_frozen():
    out = unipotent_hook_eGC(9, 4, 1, 3)
    assert out.mode == "hooks" and out.partitions == hooks(9)
    assert unipotent_hook_eGC(5, 4, 1, 3).mode == "none"
    out = unipotent_hook_eGC(3, 3, 1, 2)
    assert out.mode == "all" and out.partitions == partitions_of(3)
    assert unipotent_hook_eGC(4, 5, 1, 2).mode == "hooks"
    assert unipotent_hook_eGC(4, 7, 1, 2).mode == "all"
    assert unipotent_hook_eGC(2, 7, -1, 2).mode == "hooks"
    assert unipotent_hook_eGC(2, 7, -1, 2).to_json_dict() == {
        "mode": "hooks",
        "partitions": [[2], [1, 1]],
    }


def test_hook_listing_bound_holds_from_44_to_45():
    """Mode "all" lists n * p(n) cells: 3,307,700 at n = 44, within the
    bound of 4,000,000, and 4,011,030 at n = 45, refused before listing."""
    out = unipotent_hook_eGC(44, 3, 1, 2)
    assert out.mode == "all" and len(out.partitions) == 75175
    with pytest.raises(BoundExceededError, match="every partition of 45 "):
        unipotent_hook_eGC(45, 3, 1, 2)
    with pytest.raises(BoundExceededError, match="the hooks of 2048 "):
        unipotent_hook_eGC(2048, 3, -1, 2)  # mode "hooks": 2048 * 2048 cells


def test_hook_egc_errors():
    with pytest.raises(ValueError):
        unipotent_hook_eGC(1, 4, 1, 3)
    with pytest.raises(ValueError):
        unipotent_hook_eGC(4, 4, 1, 4)
    with pytest.raises(ValueError):
        unipotent_hook_eGC(4, 6, 1, 5)  # q not a prime power
