"""Tests for finite fields, irreducible enumeration, and the label calculus."""

import math
from types import SimpleNamespace

import pytest

from weightcomb import BoundExceededError
from weightcomb.arith import EllParams, d_of, divisors
from weightcomb.ffpoly import (
    CentralScalar,
    F_set,
    FieldCtx,
    Poly,
    _decode,
    _irreducible_codes,
    _pmul,
    _pow_x_mod,
    ctx_for,
    d_Gamma,
    extension_field,
    field_of_order,
    frob_act,
    is_ellprime,
    prime_field,
    stabilizer_count,
    tilde,
    z_act,
)

# ---------------------------------------------------------------------------
# Field arithmetic.


def test_prime_field_arith():
    F = prime_field(5)
    assert F.add(3, 4) == 2
    assert F.mul(3, 4) == 2
    assert F.neg(2) == 3
    assert F.inv(3) == 2
    assert F.pow(2, 4) == 1


def test_field_of_order_4():
    F = field_of_order(4)
    # F_4 = F_2[x]/(x^2+x+1); element 2 is the class of x.
    assert F.modulus == (1, 1, 1)
    w = 2
    assert F.mul(w, w) == F.add(w, 1) == 3  # w^2 = w + 1
    assert F.pow(w, 3) == 1
    assert F.generator() == 2


def test_field_of_order_9():
    F = field_of_order(9)
    # F_9 = F_3[x]/(x^2+1); element 3 is the class of x, so 3*3 = -1 = 2.
    assert F.modulus == (1, 0, 1)
    assert F.mul(3, 3) == 2
    assert F.element_order(3) == 4
    assert F.generator() == 4  # 1 + x has order 8
    assert F.element_order(4) == 8


# Every field of order <= 81 that q <= 9 reaches, with its least-code generator.
GENERATORS = {2: 1, 3: 2, 4: 2, 5: 2, 7: 3, 8: 2, 9: 4, 16: 2, 25: 6, 27: 3, 49: 9, 64: 2, 81: 3}


def _square_and_multiply(F, a, k):
    """a^k for k >= 0 by square-and-multiply on the digit-recursive product."""
    result, square = 1, a
    while k:
        if k & 1:
            result = F._raw_mul(result, square)
        square = F._raw_mul(square, square)
        k >>= 1
    return result


def _check_against_definition(F):
    """Every table answer equals the digit-recursive definition."""
    n = F.order
    for a in range(n):
        assert F.neg(a) == F._raw_neg(a)
        for b in range(n):
            assert F.add(a, b) == F._raw_add(a, b)
            assert F.mul(a, b) == F._raw_mul(a, b)
    for a in range(n):
        for k in (0, 1, 2, F.p, n - 2, n - 1, n, 2 * n + 1):
            assert F.pow(a, k) == _square_and_multiply(F, a, k)
    for a in range(1, n):
        inv = _square_and_multiply(F, a, n - 2)
        assert F.inv(a) == inv and F._raw_mul(a, inv) == 1
        assert F.pow(a, -1) == inv and F.pow(a, -3) == _square_and_multiply(F, inv, 3)
        order, x = 1, a
        while x != 1:
            order, x = order + 1, F._raw_mul(x, a)
        assert F.element_order(a) == order
    assert F.generator() == GENERATORS[n]
    assert F.element_order(F.generator()) == n - 1


def test_field_axioms_sample():
    for q in GENERATORS:
        F = field_of_order(q)
        for a in range(q):
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            if a:
                assert F.mul(a, F.inv(a)) == 1
        _check_against_definition(F)
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)


def test_field_of_order_529_against_the_definition():
    """F_529 = F_{23^2}, above the old 512-element table limit: a fixed
    sample of answers against the digit-recursive definition, and the
    unitary labels of degree <= 2, which took over a minute by it."""
    ctx = ctx_for(23)
    F = ctx.quadratic
    n = F.order
    sample = [0, 1, 2, 22, 23, 24, 100, 263, 264, 500, 527, 528]
    for a in sample:
        assert F.neg(a) == F._raw_neg(a)
        for b in sample:
            assert F.add(a, b) == F._raw_add(a, b)
            assert F.mul(a, b) == F._raw_mul(a, b)
    for a in sample[1:]:
        walk = [1]  # a^0, a^1, ... until a^k = 1 again
        while len(walk) == 1 or walk[-1] != 1:
            walk.append(F._raw_mul(walk[-1], a))
        order = len(walk) - 1
        assert F.element_order(a) == order
        for k in (0, 1, 2, 23, 263, n - 2, n - 1, 3 * n + 5, -1, -24):
            assert F.pow(a, k) == walk[k % order]
        assert F.inv(a) == walk[-2]

    def raw_order(a):
        order, x = 1, a
        while x != 1:
            order, x = order + 1, F._raw_mul(x, a)
        return order

    g = F.generator()
    assert raw_order(g) == n - 1
    assert all(raw_order(a) < n - 1 for a in range(1, g))
    assert len(F_set(ctx, -1, 2)) == 276


def test_fields_stay_within_the_size_budget():
    with pytest.raises(BoundExceededError):
        prime_field(1_048_583)  # the least prime above 2^20


def test_quadratic_extension_tower():
    ctx = ctx_for(4)
    assert ctx.base.order == 4
    assert ctx.quadratic.order == 16
    assert ctx.quadratic.base is ctx.base
    assert ctx.working(1) is ctx.base
    assert ctx.working(-1) is ctx.quadratic
    with pytest.raises(ValueError):
        ctx.working(0)


def test_generator_has_full_order():
    for q in (2, 3, 4, 5, 8, 9, 16, 25, 49, 81):
        F = field_of_order(q)
        g = F.generator()
        assert F.element_order(g) == q - 1


# ---------------------------------------------------------------------------
# Irreducible enumeration.


def mobius(n):
    fac = {}
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            fac[d] = fac.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        fac[m] = fac.get(m, 0) + 1
    if any(k > 1 for k in fac.values()):
        return 0
    return (-1) ** len(fac)


def necklace_count(Q, m):
    return sum(mobius(d) * Q ** (m // d) for d in divisors(m)) // m


def irreducibles(field, deg, exclude_x=False):
    """The monic irreducibles of degree ``deg`` over ``field`` as ``Poly``,
    by ascending code, read off the sieve; ``exclude_x`` drops x itself."""
    polys = [Poly(field, _decode(c, field.order)) for c in _irreducible_codes(field, deg)]
    return [p for p in polys if p.coeffs[0]] if exclude_x else polys


def test_irreducibles_frozen_counts():
    ctx2, ctx3 = ctx_for(2), ctx_for(3)
    assert len(irreducibles(ctx2.base, 3)) == 2
    ones = irreducibles(ctx2.base, 1, exclude_x=True)
    assert [p.coeffs for p in ones] == [(1, 1)]  # just x + 1
    assert len(irreducibles(ctx3.base, 2)) == 3


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_necklace_formula(q):
    ctx = ctx_for(q)
    for m in range(1, 7):
        polys = irreducibles(ctx.base, m)
        assert len(polys) == necklace_count(q, m)
        codes = [p.code for p in polys]
        assert codes == sorted(codes)


def test_irreducibles_really_are_irreducible():
    """The sieve against trial products of monics: degree 4 over F_3, and
    over the extension codes of F_4 at degree 3 and F_9 at degree 2."""
    for q, which, deg in ((3, "base", 4), (2, "quadratic", 3), (3, "quadratic", 2)):
        ctx = ctx_for(q)
        F = ctx.base if which == "base" else ctx.quadratic
        Q = F.order

        def monics(m):
            return [tuple((c // Q**i) % Q for i in range(m)) + (1,) for c in range(Q**m)]

        products = {
            _pmul(F, a, b)
            for k in range(1, deg // 2 + 1)
            for a in monics(k)
            for b in monics(deg - k)
        }
        irreducible = {p.coeffs for p in irreducibles(F, deg)}
        assert irreducible == set(monics(deg)) - products
        assert len(irreducible) == necklace_count(Q, deg)


def test_budget_error():
    ctx = ctx_for(9)
    with pytest.raises(BoundExceededError):
        irreducibles(ctx.quadratic, 4)  # 81^4 > 2^20


# ---------------------------------------------------------------------------
# tilde.


def test_tilde_linear():
    ctx = ctx_for(2)
    F = ctx.quadratic  # F_4
    for a in range(1, 4):
        delta = Poly(F, (F.neg(a), 1))
        out = tilde(delta, ctx)
        root = F.pow(F.inv(a), 2)  # a^(-q)
        assert out.coeffs == (F.neg(root), 1)


@pytest.mark.parametrize("q", [2, 3])
def test_tilde_involution_and_fixed_points(q):
    ctx = ctx_for(q)
    for m in range(1, 4):
        for delta in irreducibles(ctx.quadratic, m, exclude_x=True):
            twisted = tilde(delta, ctx)
            assert tilde(twisted, ctx) == delta
            assert twisted.degree == m
            # fixed iff all roots have order dividing q^m + 1 (m odd)
            fixed = twisted == delta
            power = _pow_x_mod(delta.field, q**m + 1, delta.coeffs)
            roots_in_unitary = power[0] == 1 and not any(power[1:])
            if m % 2 == 1:
                assert fixed == roots_in_unitary
            else:
                assert not fixed


def test_tilde_rejects():
    ctx = ctx_for(2)
    with pytest.raises(ValueError):
        tilde(Poly(ctx.quadratic, (0, 1)), ctx)  # constant term zero
    with pytest.raises(ValueError):
        tilde(Poly(ctx.base, (1, 1)), ctx)  # wrong field


# ---------------------------------------------------------------------------
# The label families.


def test_F_set_eps_plus():
    ctx = ctx_for(2)
    labels = F_set(ctx, 1, 1)
    assert len(labels) == 1
    assert labels[0].family == "F0"
    assert labels[0].gamma.coeffs == (1, 1)


def test_F_set_eps_minus_frozen_q2():
    ctx = ctx_for(2)
    by_deg = {}
    for lab in F_set(ctx, -1, 3):
        by_deg.setdefault(lab.deg, []).append(lab)
    # a^3 = 1 for every a in F_4*, so all three linear labels are fixed
    assert len(by_deg[1]) == 3
    assert all(lab.family == "F1" for lab in by_deg[1])
    assert 2 not in by_deg  # no F1 of even degree, no non-fixed linears
    assert len(by_deg[3]) == 2  # order-9 root orbits
    assert all(lab.family == "F1" for lab in by_deg[3])


def test_F_set_eps_minus_frozen_q3():
    ctx = ctx_for(3)
    by_deg = {}
    for lab in F_set(ctx, -1, 3):
        by_deg.setdefault(lab.deg, []).append(lab)
    assert len(by_deg[1]) == 4  # a^4 = 1
    assert all(lab.family == "F1" for lab in by_deg[1])
    f2 = [lab for lab in by_deg[2]]
    assert len(f2) == 2 and all(lab.family == "F2" for lab in f2)
    assert len(by_deg[3]) == 8  # root orders dividing 28 but not 4
    assert all(lab.family == "F1" for lab in by_deg[3])


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_degree_one_label_counts(q):
    ctx = ctx_for(q)
    plus = [lab for lab in F_set(ctx, 1, 1)]
    assert len(plus) == q - 1
    minus = [lab for lab in F_set(ctx, -1, 1)]
    assert len(minus) == q + 1
    assert all(lab.family == "F1" for lab in minus)


@pytest.mark.parametrize("q", [2, 3])
def test_dichotomy_every_irreducible_lands_once(q):
    """Each irreducible over F_{q^2} (except x) is F1 or belongs to exactly
    one F2 pair; total degrees match."""
    ctx = ctx_for(q)
    n = 4
    labels = F_set(ctx, -1, n)
    # reconstruct membership: F1 labels and F2 products
    f1 = [lab.gamma for lab in labels if lab.family == "F1"]
    f2 = [lab.gamma for lab in labels if lab.family == "F2"]
    for m in range(1, n // 2 + 1):
        deltas = irreducibles(ctx.quadratic, m, exclude_x=True)
        for delta in deltas:
            twisted = tilde(delta, ctx)
            in_f1 = delta in f1
            in_f2 = any(
                g.degree == 2 * m
                and _divides(delta, g)
                for g in f2
            )
            assert in_f1 == (twisted == delta)
            assert in_f2 == (twisted != delta)


def _divides(p, q):
    from weightcomb.ffpoly import _pmod

    rem = _pmod(p.field, q.coeffs, p.coeffs)
    return not any(rem)


# ---------------------------------------------------------------------------
# ell-prime tests and d_Gamma.


def test_is_ellprime_examples():
    ctx = ctx_for(4)
    F = ctx.base
    x_minus_1 = PolyLabelHelper(ctx, 1, (F.neg(1), 1))
    assert is_ellprime(x_minus_1, ctx, 1, 3) is True
    # a of order 3 (the class of x, code 2): root order = ell
    x_minus_w = PolyLabelHelper(ctx, 1, (F.neg(2), 1))
    assert is_ellprime(x_minus_w, ctx, 1, 3) is False
    # the two degree-2 irreducibles with order-5 roots are ell-prime at ell=3
    labels = [lab for lab in F_set(ctx, 1, 2) if lab.deg == 2]
    flags = [is_ellprime(lab, ctx, 1, 3) for lab in labels]
    assert flags.count(True) == 2
    assert len(labels) == 6


def PolyLabelHelper(ctx, deg, coeffs):
    from weightcomb.ffpoly import PolyLabel

    return PolyLabel(gamma=Poly(ctx.base, coeffs), family="F0", deg=deg)


def test_is_ellprime_against_root_order():
    """For linear labels x - a over F_q the answer is just: ell does not
    divide the multiplicative order of a."""
    for q, eps in [(4, 1), (5, 1), (3, -1)]:
        ctx = ctx_for(q)
        F = ctx.working(eps)
        for lab in F_set(ctx, eps, 1):
            a = F.neg(lab.gamma.coeffs[0])
            order = F.element_order(a)
            for ell in (2, 3, 5):
                if q % ell == 0:
                    continue
                assert is_ellprime(lab, ctx, eps, ell) == (order % ell != 0)


def test_d_Gamma_examples():
    ctx4, ctx2 = ctx_for(4), ctx_for(2)
    deg1_label = F_set(ctx4, 1, 1)[0]
    for q, eps, ell in [(4, 1, 3), (4, 1, 5), (4, -1, 3)]:
        ctx = ctx_for(q)
        lab = F_set(ctx, eps, 1)[0]
        assert d_Gamma(lab, eps, ell, q) == d_of(q, eps, ell)
    two = [lab for lab in F_set(ctx4, 1, 2) if lab.deg == 2][0]
    assert d_Gamma(two, 1, 3, 4) == 1  # 16 = 1 mod 3
    two2 = [lab for lab in F_set(ctx2, 1, 2) if lab.deg == 2][0]
    assert d_Gamma(two2, 1, 3, 2) == 1  # 4 = 1 mod 3
    with pytest.raises(ValueError):
        d_Gamma(deg1_label, 1, 2, 4)  # ell | q


def test_d_Gamma_is_the_order_of_the_power():
    """d_Gamma, taken as the order of a power of eps*q, equals d_of run on the
    power itself for every q < 50 that ell does not divide, a prime power or
    not; so does EllParams.d_gamma wherever the triple is valid.  d_Gamma
    reads only the degree of its label, so a stand-in carries it."""
    for q in range(2, 50):
        for eps in (1, -1):
            for ell in (2, 3, 5, 7, 11, 13):
                if q % ell == 0:
                    continue
                try:
                    params = EllParams.compute(q, eps, ell)
                except ValueError:  # q not a prime power, or ell = 2 off its regime
                    params = None
                for deg in range(1, 13):
                    expected = d_of(q**deg, eps**deg, ell)
                    assert d_Gamma(SimpleNamespace(deg=deg), eps, ell, q) == expected
                    assert params is None or params.d_gamma(deg) == expected


# ---------------------------------------------------------------------------
# Actions.


def test_central_scalar_needs_a_group_of_order_at_least_one():
    F = field_of_order(4)
    for order in (0, -3):
        with pytest.raises(ValueError, match="order >= 1"):
            CentralScalar(1, order).element(F)
    assert CentralScalar(1, 1).element(F) == 1


def test_z_act_linear_and_identity():
    ctx = ctx_for(4)
    F = ctx.base
    zgroup = ctx.q - 1
    lab = PolyLabelHelper(ctx, 1, (F.neg(3), 1))  # x - w^2
    ident = z_act(CentralScalar(0, zgroup), lab)
    assert ident.gamma == lab.gamma
    z = CentralScalar(1, zgroup)
    zeta = z.element(F)
    moved = z_act(z, lab)
    assert moved.gamma.coeffs == (F.neg(F.mul(zeta, 3)), 1)


def test_z_act_is_group_action():
    for q, eps in [(4, 1), (3, -1), (5, 1)]:
        ctx = ctx_for(q)
        order = q - eps
        labels = F_set(ctx, eps, 2)
        for lab in labels:
            for k1 in range(order):
                for k2 in range(order):
                    lhs = z_act(
                        CentralScalar(k1, order),
                        z_act(CentralScalar(k2, order), lab),
                    )
                    rhs = z_act(CentralScalar((k1 + k2) % order, order), lab)
                    assert lhs.gamma == rhs.gamma


def test_z_act_orbit_partition_degree_one():
    ctx = ctx_for(4)
    labels = F_set(ctx, 1, 1)
    assert len(labels) == 3
    z = CentralScalar(1, 3)
    seen = set()
    lab = labels[0]
    for _ in range(3):
        seen.add(lab.gamma)
        lab = z_act(z, lab)
    assert len(seen) == 3  # a single free orbit covering q - 1 points


def test_frob_act_properties():
    for q, eps in [(4, 1), (2, -1), (3, -1)]:
        ctx = ctx_for(q)
        full_power = ctx.f if eps == 1 else 2 * ctx.f
        for lab in F_set(ctx, eps, 3):
            out = lab
            for _ in range(full_power):
                out = frob_act(out, ctx)
                assert out.deg == lab.deg
                assert out.family == lab.family
            assert out.gamma == lab.gamma  # full field map is the identity


def test_frob_twists_z_act():
    """frob(z . Gamma) = z^p . frob(Gamma)."""
    for q, eps in [(4, 1), (3, -1)]:
        ctx = ctx_for(q)
        order = q - eps
        for lab in F_set(ctx, eps, 2):
            for k in range(order):
                z = CentralScalar(k, order)
                zp = CentralScalar(k * ctx.p % order, order)
                lhs = frob_act(z_act(z, lab), ctx)
                rhs = z_act(zp, frob_act(lab, ctx))
                assert lhs.gamma == rhs.gamma


def test_ellprime_invariance_under_actions():
    for q, eps, ell in [(4, 1, 3), (3, -1, 2), (5, 1, 3)]:
        ctx = ctx_for(q)
        order = q - eps
        for lab in F_set(ctx, eps, 2):
            flag = is_ellprime(lab, ctx, eps, ell)
            assert is_ellprime(frob_act(lab, ctx), ctx, eps, ell) == flag
            for k in range(order):
                z = CentralScalar(k, order)
                if z.element_order() % ell == 0:
                    continue
                assert is_ellprime(z_act(z, lab), ctx, eps, ell) == flag


@pytest.mark.parametrize(
    "eps, ell",
    [(1, 0), (1, 1), (1, 4), (1, 6), (0, 3), (2, 3), (1, 5), (-1, 5)],
    ids=["ell0", "ell1", "ell4", "ell6", "eps0", "eps2", "ell_divides_q", "ell_divides_q_minus"],
)
def test_ellprime_and_stabilizer_refuse_bad_eps_and_ell(eps, ell):
    """Both apply d_Gamma's rules: eps = +-1, ell a prime that does not divide q."""
    ctx = ctx_for(5)
    lab = F_set(ctx, 1, 1)[0]
    with pytest.raises(ValueError):
        is_ellprime(lab, ctx, eps, ell)
    with pytest.raises(ValueError):
        stabilizer_count(lab, eps, ell, ctx)
    with pytest.raises(ValueError):
        d_Gamma(lab, eps, ell, ctx.q)


# ---------------------------------------------------------------------------
# Stabilizers.


def test_stabilizer_x_minus_1():
    for q, eps in [(4, 1), (5, 1), (2, -1), (3, -1)]:
        ctx = ctx_for(q)
        F = ctx.working(eps)
        lab = [l for l in F_set(ctx, eps, 1) if l.gamma.coeffs == (F.neg(1), 1)][0]
        for ell in (3, 5, 7):
            if q % ell:
                assert stabilizer_count(lab, eps, ell, ctx) == 1


def test_stabilizer_divides_zgroup_order():
    for q, eps, ell in [(4, 1, 3), (3, -1, 2), (5, 1, 2)]:
        ctx = ctx_for(q)
        for lab in F_set(ctx, eps, 2):
            count = stabilizer_count(lab, eps, ell, ctx)
            assert (q - eps) % count == 0


def test_stabilizer_three_on_kummer_cubics():
    """Over F_4 with eps=+1 and ell=5, the whole central group (order 3,
    all of it ell-prime) fixes exactly the cubics x^3 - c whose root sets
    are closed under scaling by the cube roots of unity; those are the two
    labels with roots of order 9."""
    ctx = ctx_for(4)
    F = ctx.base
    cubics = [lab for lab in F_set(ctx, 1, 3) if lab.deg == 3]
    assert len(cubics) == 20
    counts = sorted(stabilizer_count(lab, 1, 5, ctx) for lab in cubics)
    assert counts == [1] * 18 + [3, 3]
    fixed = [lab for lab in cubics if stabilizer_count(lab, 1, 5, ctx) == 3]
    for lab in fixed:
        # pure cubics x^3 - c: middle coefficients vanish
        assert lab.gamma.coeffs[1] == 0 and lab.gamma.coeffs[2] == 0
        # and the roots have order 9: x^9 = 1 but x^3 != 1 mod Gamma
        nine = _pow_x_mod(F, 9, lab.gamma.coeffs)
        three = _pow_x_mod(F, 3, lab.gamma.coeffs)
        assert nine[0] == 1 and not any(nine[1:])
        assert not (three[0] == 1 and not any(three[1:]))
