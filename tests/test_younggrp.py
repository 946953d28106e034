"""Tests for the Young-subgroup triple parametrization."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from weightcomb import BoundExceededError
from weightcomb.arith import factorial_valuation, valuation
from weightcomb.partitions import (
    EllExpansion,
    core_tower,
    defect,
    degree,
    ell_expansions,
    nu,
    partition_count,
    partitions_of,
)
from weightcomb.symchars import wreath_char_degree
from weightcomb.younggrp import (
    TowerTuple,
    YoungPair,
    YoungTriple,
    _hook_defect,
    _multipartitions,
    triple_to_tower,
    triples,
    tower_to_triple,
    verify_bijection,
)


# ---------------------------------------------------------------------------
# Young subgroups.


def sym_young_classes(n, ell):
    """One (expansion, nu) per conjugacy class of ell-Young subgroups of S_n."""
    return [
        (exp, YoungPair("sym", n, 1, ell, exp, ()).nu())
        for exp in ell_expansions(n, ell)
    ]


def test_young_subgroups_examples():
    classes = sym_young_classes(3, 3)
    assert len(classes) == 2
    assert sorted(nu for _, nu in classes) == [0, 1]
    assert len(sym_young_classes(4, 2)) == 4


def test_young_subgroup_nu_matches_legendre():
    """nu = (n - sum b_i) / (ell - 1) equals sum b_i * val_ell(ell^i !)."""
    for ell in (2, 3, 5):
        for n in range(21):
            for exp, nu in sym_young_classes(n, ell):
                direct = sum(
                    b * factorial_valuation(ell**i, ell)
                    for i, b in enumerate(exp.coeffs)
                )
                assert nu == direct


def test_young_subgroups_validation():
    with pytest.raises(ValueError):
        triples("wreath", 3, 3, 3)  # ell | e
    with pytest.raises(ValueError):
        triples("typed", 3, 1, 2)  # typed needs odd ell
    with pytest.raises(ValueError):
        triples("sym", 3, 2, 3)
    with pytest.raises(ValueError):
        triples("weird", 3, None, 3)
    for n, ell in ((8, 4), (9, 6)):  # ell must be prime
        with pytest.raises(ValueError, match="prime"):
            triples("sym", n, None, ell)
        with pytest.raises(ValueError, match="prime"):
            verify_bijection("sym", n, None, ell)


# ---------------------------------------------------------------------------
# Triple enumeration: frozen counts.


def test_sym_4_2_triples():
    trips = triples("sym", 4, None, 2)
    assert len(trips) == 5
    by_exp = {}
    for t in trips:
        by_exp.setdefault(t.pair.expansion.coeffs, []).append(t)
    # Four triples use the subgroup S_4 itself (one hook each), one uses
    # S_2 x S_2 with the two distinct labels.
    assert len(by_exp[(0, 0, 1)]) == 4
    assert len(by_exp[(0, 2)]) == 1
    assert set(by_exp) == {(0, 0, 1), (0, 2)}
    assert sorted(t.pair.nu() for t in trips) == [2, 3, 3, 3, 3]


def test_sym_large_ell_gives_all_partitions():
    for n in range(7):
        trips = triples("sym", n, None, 7)
        assert len(trips) == partition_count(n)
        assert all(t.pair.expansion.coeffs in ((n,), ()) for t in trips)
        assert all(t.pair.nu() == 0 for t in trips)
        # lam is a single partition of n (or nothing when n = 0).
        lams = sorted(t.lam[0] for t in trips if t.lam)
        assert lams == sorted(partitions_of(n)) if n else lams == []


def test_wreath_frozen_counts():
    assert len(triples("wreath", 1, 2, 3)) == 2
    assert len(triples("wreath", 2, 2, 3)) == 5


def test_typed_frozen_count():
    trips = triples("typed", 2, 1, 3)
    assert len(trips) == 4
    splits = [t.split for t in trips]
    assert splits.count(0) == 1 and splits.count(1) == 1
    assert splits.count(None) == 2


def test_typed_split_requires_full_symmetry():
    """A class whose zeta is swap-symmetric but whose lam is not does not
    split: ((2),(1,1)) versus ((1,1),(2)) are swapped into each other."""
    trips = triples("typed", 4, 1, 3)
    for t in trips:
        if t.split is not None:
            zeta_labels = [label for label, _ in t.pair.zeta]
            # symmetric classes must have matching lam across the half-swap
            paired = {
                ((k + t.pair.e) % (2 * t.pair.e), i, j): lm
                for (k, i, j), lm in zip(zeta_labels, t.lam)
            }
            for label, lm in zip(zeta_labels, t.lam):
                assert paired[label] == lm


# ---------------------------------------------------------------------------
# Tower correspondence.


def test_triple_to_tower_frozen_example():
    trips = triples("sym", 4, None, 2)
    (t22,) = [t for t in trips if t.pair.expansion.coeffs == (0, 2)]
    tower = triple_to_tower(t22)
    assert len(tower.towers) == 1
    assert tower.towers[0].rows == (((),), ((1,), (1,)))
    assert tower.total() == 4


def test_tower_sum_invariant_and_round_trip():
    cases = [
        ("sym", 10, None, 2),
        ("sym", 8, None, 3),
        ("wreath", 4, 2, 3),
        ("wreath", 3, 3, 2),
        ("typed", 3, 2, 3),
        ("typed", 4, 1, 5),
    ]
    for kind, n, e, ell in cases:
        for t in triples(kind, n, e, ell):
            towers = triple_to_tower(t)
            assert towers.total() == n
            assert tower_to_triple(kind, towers, ell) == t


def test_towers_are_distinct_across_triples():
    for kind, n, e, ell in [("sym", 9, None, 2), ("wreath", 3, 2, 3)]:
        seen = set()
        for t in triples(kind, n, e, ell):
            towers = triple_to_tower(t)
            key = (tuple(tw.rows for tw in towers.towers), towers.split)
            assert key not in seen
            seen.add(key)


def test_tower_to_triple_validation():
    from weightcomb.partitions import CoreTower

    bad = TowerTuple(
        kind="sym", e=1, ell=3, towers=(CoreTower(ell=3, rows=(((3,),),)),)
    )
    with pytest.raises(ValueError):
        tower_to_triple("sym", bad, 3)  # (3,) is not a 3-core

    good = TowerTuple(kind="sym", e=1, ell=3, towers=(CoreTower(ell=3, rows=()),))
    with pytest.raises(ValueError):
        tower_to_triple("wreath", good, 3)  # kind mismatch


@pytest.mark.parametrize(
    "rows, message",
    [
        ((((),), ((1,),)), r"^row 1 must have 3 slots, has 1$"),
        ((((3,),),), r"^row 0 entry \(3,\) is not an 3-core$"),
    ],
)
def test_tower_rules_have_one_owner(rows, message):
    """tower_to_triple reports a bad row or a non-core entry with from_tower's
    own message."""
    from weightcomb.partitions import CoreTower, from_tower

    tower = CoreTower(ell=3, rows=rows)
    with pytest.raises(ValueError, match=message):
        from_tower(tower)
    with pytest.raises(ValueError, match=message):
        tower_to_triple("sym", TowerTuple(kind="sym", e=1, ell=3, towers=(tower,)), 3)


def test_sym_triples_match_partition_towers():
    """The composite partition -> tower -> triple hits every triple once."""
    from weightcomb.partitions import core_tower

    for n, ell in [(6, 2), (6, 3), (5, 5)]:
        from_partitions = set()
        for mu in partitions_of(n):
            tower = TowerTuple(
                kind="sym", e=1, ell=ell, towers=(core_tower(mu, ell),)
            )
            from_partitions.add(tower_to_triple("sym", tower, ell))
        assert from_partitions == set(triples("sym", n, None, ell))


# ---------------------------------------------------------------------------
# Full verification reports.


@pytest.mark.parametrize("ell", [2, 3, 5])
@pytest.mark.parametrize("n", range(0, 9))
def test_verify_sym(n, ell):
    report = verify_bijection("sym", n, None, ell)
    assert report.passed
    assert report.count_irr == report.count_triples == partition_count(n)
    assert report.defect_histogram_irr == report.defect_histogram_triples


def test_verify_sym_4_2_report_content():
    report = verify_bijection("sym", 4, None, 2)
    assert report.to_json_dict() == {
        "kind": "sym",
        "n": 4,
        "e": 1,
        "ell": 2,
        "count_irr": 5,
        "count_triples": 5,
        "defect_histogram_irr": {"2": 1, "3": 4},
        "defect_histogram_triples": {"2": 1, "3": 4},
        "pass": True,
    }


@pytest.mark.parametrize(
    "e,n,ell",
    [(1, 4, 3), (2, 3, 3), (2, 4, 5), (3, 3, 2), (3, 4, 7)],
)
def test_verify_wreath(e, n, ell):
    report = verify_bijection("wreath", n, e, ell)
    assert report.passed
    expected = sum(1 for _ in _multipartitions(n, e))
    assert report.count_irr == expected


@pytest.mark.parametrize("e,n,ell", [(1, 2, 3), (1, 3, 3), (2, 2, 3), (1, 4, 5), (2, 3, 5)])
def test_verify_typed(e, n, ell):
    report = verify_bijection("typed", n, e, ell)
    assert report.passed
    A = sum(1 for _ in _multipartitions(n, 2 * e))
    B = (
        sum(1 for _ in _multipartitions(n // 2, e)) if n % 2 == 0 else 0
    )
    assert report.count_irr == (A + 3 * B) // 2


def test_verify_typed_frozen_example():
    report = verify_bijection("typed", 2, 1, 3)
    assert (report.count_irr, report.count_triples, report.passed) == (4, 4, True)


def _nus(n, ell):
    return [0] + [valuation(h, ell) for h in range(1, n + 1)]


def test_hook_defect_is_degree_defect():
    """verify_bijection reads each defect off hook lengths; the big-integer
    degrees are the oracle: nu_ell(n!) - nu_ell(deg) for S_n, and for
    C_e wr S_N (ell not dividing e) nu_ell(N!) - nu_ell(deg) over every
    e-multipartition of N."""
    for ell in (2, 3, 5, 7):
        for n in range(21):
            nus = _nus(n, ell)
            for mu in partitions_of(n):
                expected = factorial_valuation(n, ell) - valuation(degree(mu), ell)
                assert _hook_defect((mu,), ell, nus) == expected, (mu, ell)
        for e in (1, 2, 3, 4):
            if e % ell == 0:
                continue
            for big_n in range(8):
                nus = _nus(big_n, ell)
                for mus in _multipartitions(big_n, e):
                    deg = wreath_char_degree(e, mus)
                    expected = factorial_valuation(big_n, ell) - valuation(deg, ell)
                    assert _hook_defect(mus, ell, nus) == expected, (mus, ell)


STREAM_POINTS = (
    [("sym", n, None, ell) for n in range(13) for ell in (2, 3, 5)]
    + [("wreath", n, e, ell) for e, n, ell in ((1, 4, 3), (2, 4, 3), (3, 4, 2))]
    + [("typed", n, e, ell) for e, n, ell in ((1, 4, 3), (2, 3, 5), (2, 4, 3))]
)


@pytest.mark.parametrize("kind,n,e,ell", STREAM_POINTS)
def test_verify_stream_matches_triple_list(kind, n, e, ell):
    """verify_bijection counts the class stream without building triples; its
    count and histogram are those of the triples() list."""
    report = verify_bijection(kind, n, e, ell)
    trips = triples(kind, n, e, ell)
    assert report.count_triples == len(trips)
    assert report.defect_histogram_triples == tuple(
        sorted(Counter(t.pair.nu() for t in trips).items())
    )


def test_verify_bound():
    with pytest.raises(BoundExceededError):
        verify_bijection("sym", 31, None, 2)


def test_degenerate_whole_tier():
    """When n = ell^m, the expansion with beta_m = 1 contributes exactly
    ell^m triples for S_n and e * ell^m for the wreath product."""
    for ell, m in [(2, 2), (3, 1), (2, 3)]:
        n = ell**m
        top = [
            t
            for t in triples("sym", n, None, ell)
            if t.pair.expansion.coeffs == (0,) * m + (1,)
        ]
        assert len(top) == n
    for e, ell, m in [(2, 3, 1), (4, 3, 1), (2, 5, 1)]:
        n = ell**m
        top = [
            t
            for t in triples("wreath", n, e, ell)
            if t.pair.expansion.coeffs == (0,) * m + (1,)
        ]
        assert len(top) == e * n


def test_typed_orbit_reduction_across_tiers():
    """Every tau-orbit of raw triples is kept exactly once (twice with
    split bits when fixed), including orbits whose labels span several
    tiers — the regression seen at (n, e, ell) = (4, 2, 3)."""
    from weightcomb.younggrp import _raw_triples, _tau_image

    for n, e, ell in [(4, 2, 3), (5, 2, 3), (6, 2, 3), (4, 1, 3), (5, 3, 5)]:
        raws = list(_raw_triples("typed", n, e, ell))
        fixed = sum(1 for _, z, l in raws if (z, l) == _tau_image(z, l, e))
        kept = triples("typed", n, e, ell)
        assert len(kept) == (len(raws) - fixed) // 2 + 2 * fixed
        # each representative appears once; split pairs share their class
        seen = {}
        for t in kept:
            key = (t.pair.zeta, t.lam)
            seen[key] = seen.get(key, 0) + 1
        for key, copies in seen.items():
            tau_key = _tau_image(key[0], key[1], e)
            assert copies == (2 if tau_key == key else 1)
            # the kept representative is the smaller member of its orbit
            assert key <= tau_key


def test_typed_count_matches_oracle_at_regression_point():
    report = verify_bijection("typed", 4, 2, 3)
    assert report.passed
    assert report.count_irr == report.count_triples == 60


def test_nu_agrees_with_partition_defect():
    """The tower row sizes of a partition of n are an ell-expansion of n; the
    Young pair on it has nu equal to the partition's defect, which is the
    ell-adic valuation of n! / degree."""
    for ell in (2, 3, 5):
        for n in range(13):
            for mu in partitions_of(n):
                sizes = core_tower(mu, ell).row_sizes()
                expansion = EllExpansion(ell, tuple(sizes))
                assert expansion.total() == n
                pair = YoungPair("sym", n, 1, ell, expansion, ())
                expected = factorial_valuation(n, ell) - valuation(degree(mu), ell)
                assert pair.nu() == defect(mu, ell) == nu(n, sizes, ell) == expected


def test_nu_check_survives_optimize():
    """nu() rejects an expansion whose coefficient sum is not congruent to n
    modulo ell - 1, also under python -O, which strips bare asserts."""
    code = (
        "from weightcomb.partitions import EllExpansion\n"
        "from weightcomb.younggrp import YoungPair\n"
        "pair = YoungPair(kind='sym', n=5, e=1, ell=3,"
        " expansion=EllExpansion(3, (2,)), zeta=())\n"
        "print(pair.nu())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
    assert "AssertionError" in done.stderr
