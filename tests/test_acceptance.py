"""Acceptance suite: the ten headline verification criteria.

Each criterion is exact (integer equalities, no tolerances) and prints one
``[C#] PASS``/``[C#] FAIL`` line; run ``pytest tests/test_acceptance.py -v -s``
to see the lines as the suite executes.
"""

import itertools
import math

from weightcomb.arith import factorial_valuation, valuation
from weightcomb.ffpoly import (
    CentralScalar,
    F_set,
    Poly,
    PrimePower,
    ctx_for,
    frob_act,
    tilde,
    z_act,
)
from weightcomb.ffpoly import _decode, _irreducible_codes, _pow_x_mod
from weightcomb.glblocks import (
    GRID_MAX_N,
    act_on_block,
    act_on_series,
    act_on_weight,
    af_weights,
    blocks,
    block_irr,
    generic_weights,
    grid_points,
    principal_block,
    semisimple_labels,
    shape_count_identity,
    unipotent_hook_eGC,
    verify_counting,
)
from weightcomb.partitions import (
    core_tower,
    defect,
    degree,
    from_tower,
    partition_count,
    partitions_of,
)
from weightcomb.younggrp import verify_bijection, wreath_char_degree

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[C{num}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion C{num} failed: {detail}"


def test_c01_hook_classification():
    """Exactly n hooks iff n = ell^k and ell | (q - eps) (4 | (q - eps) for
    ell = 2); every partition iff ell = 2 and 4 | (q + eps); else nothing.
    Points with ell | q are rejected with ValueError."""
    checked = rejected = 0
    ok = True
    for n in range(2, 10):
        for q in PRIME_POWERS:
            for eps in (1, -1):
                for ell in (2, 3, 5):
                    if q % ell == 0:
                        try:
                            unipotent_hook_eGC(n, q, eps, ell)
                        except ValueError:
                            rejected += 1
                        else:
                            ok = False
                        continue
                    out = unipotent_hook_eGC(n, q, eps, ell)
                    checked += 1
                    split = (q - eps) % (4 if ell == 2 else ell) == 0
                    m = n
                    while m % ell == 0:
                        m //= ell
                    if split and m == 1:
                        good = (
                            out.mode == "hooks"
                            and len(out.partitions) == n
                            and all(
                                sum(p) == n and all(x == 1 for x in p[1:])
                                for p in out.partitions
                            )
                            and len(set(out.partitions)) == n
                        )
                    elif ell == 2 and (q + eps) % 4 == 0:
                        good = (
                            out.mode == "all"
                            and out.partitions == partitions_of(n)
                        )
                    else:
                        good = out.mode == "none" and out.partitions == ()
                    ok = ok and good
    _criterion(
        1,
        ok,
        f"hook classification exact on {checked} points, "
        f"{rejected} points with ell | q rejected",
    )


def test_c02_weight_counting_corollary():
    """Every block on the grid has equally many generic and Alperin-style
    weights (equal emptiness), with count m = ell^delta in the positive
    defect case."""
    points = grid_points(GRID_MAX_N)
    ok = len(points) == 228  # the regime rules keep 228 points with n <= 6
    blocks_total = 0
    for n, q, eps, ell in points:
        report = verify_counting(n, q, eps, ell)
        blocks_total += report.blocks_checked
        ok = ok and report.passed
    # independent cardinality check in the positive defect case, n <= 4
    case2 = 0
    for n, q, eps, ell in grid_points(4):
        if (q - eps) % ell:
            continue
        for b in blocks(n, q, eps, ell):
            if len(b.s.assignments) != 1:
                continue
            _, m = b.s.assignments[0]
            reduced = m
            while reduced % ell == 0:
                reduced //= ell
            if reduced != 1:
                continue
            case2 += 1
            ok = ok and len(generic_weights(b)) == m == len(af_weights(b))
    _criterion(
        2,
        ok,
        f"{blocks_total} blocks over {len(points)} grid points; "
        f"{case2} positive-defect blocks have exactly m = ell^delta weights",
    )


def test_c03_shape_identity():
    ok = all(
        shape_count_identity(delta, ell)
        for ell in (3, 5, 7)
        for delta in range(7)
    )
    _criterion(3, ok, "sum over (gamma, c) shapes equals ell^delta, delta <= 6")


def test_c04_symmetric_group_bijection():
    ok = True
    cases = 0
    for n in range(1, 13):
        for ell in (2, 3, 5):
            report = verify_bijection("sym", n, None, ell)
            cases += 1
            ok = ok and report.passed
            ok = ok and report.count_irr == partition_count(n)
            ok = ok and report.count_triples == partition_count(n)
    _criterion(4, ok, f"triples match Irr(S_n) with defects, {cases} cases")


def test_c05_wreath_and_typed_counts():
    ok = True
    cases = 0
    wreath_params = [
        (e, n, ell)
        for e in (1, 2, 3)
        for n in range(1, 7)
        for ell in (5, 7)
    ] + [(2, n, 3) for n in range(1, 7)]
    for e, n, ell in wreath_params:
        report = verify_bijection("wreath", n, e, ell)
        cases += 1
        ok = ok and report.passed
    for e in (1, 2):
        for n in range(1, 5):
            for ell in (3, 5):
                report = verify_bijection("typed", n, e, ell)
                cases += 1
                ok = ok and report.passed
    _criterion(5, ok, f"wreath and type-D bijections pass, {cases} cases")


def test_c06_ellprime_character_count():
    """Brute-force degree scan: C_e wr S_n with n = ell^m has exactly e*n
    characters of degree prime to ell."""
    ok = True
    cases = 0
    for ell, n in [(2, 2), (3, 3), (2, 4), (5, 5), (7, 7), (2, 8), (3, 9)]:
        for e in (1, 2, 3, 4):
            if e % ell == 0:
                continue
            count = 0
            for combo in itertools.product(range(n + 1), repeat=e):
                if sum(combo) != n:
                    continue
                for mus in itertools.product(
                    *(partitions_of(c) for c in combo)
                ):
                    if valuation(wreath_char_degree(e, mus), ell) == 0:
                        count += 1
            cases += 1
            ok = ok and count == e * n
    _criterion(6, ok, f"|Irr_ell'(C_e wr S_n)| = e*n in all {cases} cases")


def test_c07_tower_roundtrip():
    ok = True
    cases = 0
    for ell in (2, 3, 5):
        for n in range(19):
            for mu in partitions_of(n):
                tower = core_tower(mu, ell)
                ok = ok and from_tower(tower) == mu and tower.total() == n
                cases += 1
    _criterion(7, ok, f"tower roundtrip exact for {cases} (partition, ell) pairs")


def test_c08_defect_cross_check():
    ok = True
    cases = 0
    for n in range(26):
        nfact = {ell: factorial_valuation(n, ell) for ell in (2, 3, 5, 7)}
        for mu in partitions_of(n):
            deg = degree(mu)
            for ell in (2, 3, 5, 7):
                ok = ok and defect(mu, ell) == nfact[ell] - valuation(deg, ell)
                cases += 1
    _criterion(8, ok, f"defect equals nu(n!) - nu(degree) in {cases} cases")


def _necklace(Q: int, m: int) -> int:
    def mobius(k):
        out, rem, d = 1, k, 2
        while d * d <= rem:
            if rem % d == 0:
                rem //= d
                if rem % d == 0:
                    return 0
                out = -out
            d += 1
        return -out if rem > 1 else out

    return sum(mobius(d) * Q ** (m // d) for d in range(1, m + 1) if m % d == 0) // m


def _irreducibles_but_x(field, deg):
    """The monic irreducibles of degree ``deg`` over ``field`` other than x,
    as ``Poly``, read off the sieve's codes (x has code ``field.order``)."""
    return [
        Poly(field, _decode(c, field.order))
        for c in _irreducible_codes(field, deg)
        if c != field.order
    ]


def test_c09_polynomial_label_suite():
    ok = True
    # necklace counts
    for q in (2, 3, 4, 5):
        ctx = ctx_for(q)
        for m in range(1, 7):
            ok = ok and len(_irreducible_codes(ctx.base, m)) == _necklace(q, m)
    # involution and dichotomy over F_4 and F_9
    for q in (2, 3):
        ctx = ctx_for(q)
        for m in range(1, 4):
            fixed = 0
            for delta in _irreducibles_but_x(ctx.quadratic, m):
                twisted = tilde(delta, ctx)
                ok = ok and tilde(twisted, ctx) == delta
                ok = ok and twisted.degree == m
                power = _pow_x_mod(delta.field, q**m + 1, delta.coeffs)
                in_unitary = power[0] == 1 and not any(power[1:])
                if twisted == delta:
                    fixed += 1
                    ok = ok and m % 2 == 1 and in_unitary
                elif m % 2 == 1:
                    ok = ok and not in_unitary
            labels = [lab for lab in F_set(ctx, -1, m) if lab.deg == m]
            if m % 2 == 1:
                ok = ok and sum(1 for l in labels if l.family == "F1") == fixed
    # group-action laws
    for q, eps in [(4, 1), (3, -1), (5, 1)]:
        ctx = ctx_for(q)
        order = q - eps
        for lab in F_set(ctx, eps, 2):
            for k1, k2 in itertools.product(range(order), repeat=2):
                lhs = z_act(CentralScalar(k1, order), z_act(CentralScalar(k2, order), lab))
                rhs = z_act(CentralScalar((k1 + k2) % order, order), lab)
                ok = ok and lhs.gamma == rhs.gamma
    for q, eps in [(4, 1), (2, -1), (3, -1)]:
        ctx = ctx_for(q)
        full_power = ctx.f if eps == 1 else 2 * ctx.f
        for lab in F_set(ctx, eps, 3):
            out = lab
            for _ in range(full_power):
                out = frob_act(out, ctx)
            ok = ok and out.gamma == lab.gamma
        order = q - eps
        for lab in F_set(ctx, eps, 2):
            for k in range(order):
                lhs = frob_act(z_act(CentralScalar(k, order), lab), ctx)
                rhs = z_act(
                    CentralScalar(k * ctx.p % order, order), frob_act(lab, ctx)
                )
                ok = ok and lhs.gamma == rhs.gamma
    _criterion(9, ok, "necklace counts, involution dichotomy, action laws")


def test_c10_equivariance():
    """Central shifts and the field automorphism permute blocks, carry
    block contents to block contents, and transport the weight matching."""
    ok = True
    moved_blocks = 0

    def check_block(b, actions):
        nonlocal ok, moved_blocks
        gen = generic_weights(b)
        afs = af_weights(b)
        for action in actions:
            moved = act_on_block(action, b)
            moved_blocks += 1
            lhs = sorted(repr(act_on_series(action, lab)) for lab in block_irr(b))
            good = lhs == sorted(map(repr, block_irr(moved)))
            good = good and tuple(
                act_on_weight(action, w) for w in gen
            ) == generic_weights(moved)
            good = good and tuple(
                act_on_weight(action, w) for w in afs
            ) == af_weights(moved)
            if action == 0:
                good = good and moved == b
            ok = ok and good

    for n, q, eps, ell in grid_points(3):
        all_blocks = blocks(n, q, eps, ell)
        for b in all_blocks:
            check_block(b, [0, 1, "frob"])
        # an ell' central shift and the frobenius permute the block list
        # (a shift of ell-power order may leave the ell'-label grid)
        k0 = ell ** valuation(q - eps, ell)
        for action in (k0, "frob"):
            image = {repr(act_on_block(action, b)) for b in all_blocks}
            ok = ok and image == {repr(b) for b in all_blocks}
    for n, q, eps, ell in grid_points(GRID_MAX_N):
        if n <= 3:
            continue
        check_block(principal_block(n, q, eps, ell), [1, "frob"])
    _criterion(
        10,
        ok,
        f"actions transport blocks, contents, and matchings "
        f"({moved_blocks} block moves)",
    )
