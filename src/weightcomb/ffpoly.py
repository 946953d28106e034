"""Finite fields, irreducible polynomials, and the polynomial-label calculus.

Fields are built deterministically: F_p as residues, F_q (q = p^f) as
F_p[x]/(m) and F_{q^2} as F_q[y]/(m') where m, m' are the lexicographically
least irreducibles of the right degree (least by integer code, see below).
Elements of an extension are encoded as integers 0..order-1 whose base-|K|
digits, least significant first, are the coefficients over the base field K.

A polynomial over a field of order Q likewise has the integer code
sum(c_i * Q**i); monic polynomials of degree m occupy codes [Q^m, 2*Q^m).
All enumeration respects this code order, which makes "lexicographically
least" mean "least code" throughout.

Labels: for a sign eps, the working field is F_q (eps = +1) or F_{q^2}
(eps = -1).  The label set F consists of

* F0 (eps = +1): monic irreducibles over F_q other than x;
* F1 (eps = -1): monic irreducibles Delta != x over F_{q^2} fixed by the
  twist Delta ~> tilde(Delta) with root map a -> a^(-q);
* F2 (eps = -1): products Delta * tilde(Delta) for non-fixed Delta, one
  canonical representative (least code factor first) per unordered pair.

The central scalars z with z^(q-eps) = 1 act by scaling roots; the field
automorphism sigma acts by the p-power map on coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from math import gcd

from .arith import PrimePower, _check_eps, d_of, factorize, valuation
from .errors import BoundExceededError

__all__ = [
    "SIZE_BUDGET",
    "FiniteField",
    "prime_field",
    "extension_field",
    "field_of_order",
    "FieldCtx",
    "ctx_for",
    "Poly",
    "irreducibles",
    "tilde",
    "PolyLabel",
    "F_set",
    "is_ellprime",
    "d_Gamma",
    "annotate",
    "CentralScalar",
    "z_act",
    "frob_act",
    "stabilizer_count",
]

SIZE_BUDGET = 2**20
_TABLE_LIMIT = 512


class FiniteField:
    """A finite field with integer-coded elements.

    Instances are canonical: obtain them through :func:`prime_field`,
    :func:`extension_field`, or :func:`field_of_order`, never directly.
    Equality and hashing are by identity, which those cached constructors
    make reliable.
    """

    def __init__(self, p: int, order: int, base: "FiniteField | None", modulus: tuple[int, ...] | None):
        self.p = p
        self.order = order
        self.base = base
        self.modulus = modulus  # ascending monic coefficients over base
        self.degree = 1 if base is None else len(modulus) - 1
        self._mul_table: list[int] | None = None
        self._generator: int | None = None

    def __repr__(self) -> str:
        return f"FiniteField({self.order})"

    # -- digit codecs for extensions ------------------------------------
    def _digits(self, a: int) -> list[int]:
        b = self.base.order
        return [(a // b**i) % b for i in range(self.degree)]

    def _undigits(self, digits) -> int:
        b = self.base.order
        return sum(d * b**i for i, d in enumerate(digits))

    # -- arithmetic ------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        if self.base is None:
            return (a + b) % self.p
        base = self.base
        return self._undigits(
            base.add(x, y) for x, y in zip(self._digits(a), self._digits(b))
        )

    def neg(self, a: int) -> int:
        if self.base is None:
            return -a % self.p
        return self._undigits(self.base.neg(x) for x in self._digits(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        table = self._mul_table
        if table is not None:
            return table[a * self.order + b]
        if self.order <= _TABLE_LIMIT:
            self._build_table()
            return self._mul_table[a * self.order + b]
        return self._raw_mul(a, b)

    def _raw_mul(self, a: int, b: int) -> int:
        if self.base is None:
            return (a * b) % self.p
        base = self.base
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    if y:
                        prod[i + j] = base.add(prod[i + j], base.mul(x, y))
        mod = self.modulus
        for k in range(len(prod) - 1, self.degree - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for t in range(self.degree):
                    prod[k - self.degree + t] = base.sub(
                        prod[k - self.degree + t], base.mul(c, mod[t])
                    )
        return self._undigits(prod[: self.degree])

    def _build_table(self) -> None:
        n = self.order
        table = [0] * (n * n)
        for a in range(n):
            for b in range(a, n):
                v = self._raw_mul(a, b)
                table[a * n + b] = v
                table[b * n + a] = v
        self._mul_table = table

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        result, square = 1, a
        while k:
            if k & 1:
                result = self.mul(result, square)
            square = self.mul(square, square)
            k >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.order - 2)

    def generator(self) -> int:
        """The least element (by code) of multiplicative order ``order - 1``."""
        if self._generator is None:
            n = self.order - 1
            primes = list(factorize(n)) if n > 1 else []
            for g in range(1, self.order):
                if all(self.pow(g, n // r) != 1 for r in primes):
                    self._generator = g
                    break
        return self._generator

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        n = self.order - 1
        order = n
        for r, k in factorize(n).items() if n > 1 else ():
            for _ in range(k):
                if self.pow(a, order // r) == 1:
                    order //= r
                else:
                    break
        return order


@lru_cache(maxsize=None)
def prime_field(p: int) -> FiniteField:
    pp = PrimePower.from_q(p)
    if pp.f != 1:
        raise ValueError(f"{p} is not prime")
    return FiniteField(p=p, order=p, base=None, modulus=None)


@lru_cache(maxsize=None)
def extension_field(base: FiniteField, deg: int) -> FiniteField:
    """Extend by the least-code monic irreducible of degree ``deg``."""
    if deg < 2:
        raise ValueError(f"extension degree must be >= 2, got {deg}")
    modulus = _irreducible_codes(base, deg)[0]
    return FiniteField(
        p=base.p,
        order=base.order**deg,
        base=base,
        modulus=_decode(modulus, base.order),
    )


@lru_cache(maxsize=None)
def field_of_order(q: int) -> FiniteField:
    pp = PrimePower.from_q(q)
    if pp.f == 1:
        return prime_field(pp.p)
    return extension_field(prime_field(pp.p), pp.f)


@dataclass(frozen=True)
class FieldCtx:
    """The pair of fields F_q and F_{q^2} used by the label calculus."""

    p: int
    f: int
    q: int

    @property
    def base(self) -> FiniteField:
        return field_of_order(self.q)

    @property
    def quadratic(self) -> FiniteField:
        return extension_field(self.base, 2)

    def working(self, eps: int) -> FiniteField:
        _check_eps(eps)
        return self.base if eps == 1 else self.quadratic


@lru_cache(maxsize=None)
def ctx_for(q: int) -> FieldCtx:
    pp = PrimePower.from_q(q)
    return FieldCtx(p=pp.p, f=pp.f, q=q)


# ---------------------------------------------------------------------------
# Polynomials (coefficient tuples, ascending; public face is Poly).


def _decode(code: int, Q: int) -> tuple[int, ...]:
    digits = []
    while code:
        code, d = divmod(code, Q)
        digits.append(d)
    return tuple(digits) if digits else (0,)


def _encode(coeffs, Q: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * Q + c
    return out


def _pmul(field: FiniteField, a, b):
    out = [0] * (len(a) + len(b) - 1)
    mul, add = field.mul, field.add
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    return tuple(out)


def _pmod(field: FiniteField, a, m):
    """Remainder of a modulo the monic polynomial m, padded to deg(m) terms."""
    r = list(a)
    deg_m = len(m) - 1
    for k in range(len(r) - 1, deg_m - 1, -1):
        c = r[k]
        if c:
            r[k] = 0
            for t in range(deg_m):
                r[k - deg_m + t] = field.sub(r[k - deg_m + t], field.mul(c, m[t]))
    r = r[:deg_m]
    return tuple(r) + (0,) * (deg_m - len(r))


def _pow_x_mod(field: FiniteField, t: int, m) -> tuple[int, ...]:
    """x^t reduced modulo the monic polynomial m."""
    result = _pmod(field, (1,), m)
    square = _pmod(field, (0, 1), m)
    while t:
        if t & 1:
            result = _pmod(field, _pmul(field, result, square), m)
        square = _pmod(field, _pmul(field, square, square), m)
        t >>= 1
    return result


@dataclass(frozen=True)
class Poly:
    """A monic polynomial with ascending coefficient codes."""

    field: FiniteField
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("polynomials here have degree >= 1")
        if self.coeffs[-1] != 1:
            raise ValueError(f"must be monic, got leading {self.coeffs[-1]}")
        if any(not 0 <= c < self.field.order for c in self.coeffs):
            raise ValueError("coefficient code out of range")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def code(self) -> int:
        return _encode(self.coeffs, self.field.order)


@lru_cache(maxsize=None)
def _irreducible_codes(field: FiniteField, deg: int) -> tuple[int, ...]:
    """Codes of all monic irreducibles of degree ``deg``, ascending.

    Sieve: every reducible monic polynomial of degree m has an irreducible
    factor of degree <= m/2, so marking the products p*g for irreducible p
    of degree k <= m/2 and arbitrary monic g of degree m-k leaves exactly
    the irreducibles unmarked.
    """
    if deg < 1:
        raise ValueError(f"degree must be >= 1, got {deg}")
    Q = field.order
    if Q**deg > SIZE_BUDGET:
        raise BoundExceededError(
            f"enumerating degree {deg} over order {Q} exceeds the "
            f"{SIZE_BUDGET} size budget"
        )
    span = Q**deg
    reducible = bytearray(span)
    for k in range(1, deg // 2 + 1):
        cofactor_span = Q ** (deg - k)
        cofactors = [_decode(cofactor_span + r, Q) for r in range(cofactor_span)]
        for pcode in _irreducible_codes(field, k):
            pdigits = _decode(pcode, Q)
            for g in cofactors:
                reducible[_encode(_pmul(field, pdigits, g), Q) - span] = 1
    return tuple(span + r for r in range(span) if not reducible[r])


def irreducibles(
    ctx: FieldCtx, which: str, deg: int, *, exclude_x: bool = False
) -> list[Poly]:
    """All monic irreducibles of the given degree over the chosen field."""
    if which not in ("base", "quadratic"):
        raise ValueError(f"which must be 'base' or 'quadratic', got {which!r}")
    field = ctx.base if which == "base" else ctx.quadratic
    polys = [Poly(field, _decode(c, field.order)) for c in _irreducible_codes(field, deg)]
    if exclude_x:
        polys = [p for p in polys if p.coeffs[0] != 0]
    return polys


def tilde(delta: Poly, ctx: FieldCtx) -> Poly:
    """The twist x^m * a_0^(-q) * Delta^q(1/x); roots map a -> a^(-q)."""
    F = delta.field
    if F is not ctx.quadratic:
        raise ValueError("tilde is defined over the quadratic extension")
    a0 = delta.coeffs[0]
    if a0 == 0:
        raise ValueError("tilde needs a nonzero constant term")
    q = ctx.q
    m = delta.degree
    scale = F.inv(F.pow(a0, q))
    return Poly(
        F, tuple(F.mul(scale, F.pow(delta.coeffs[m - k], q)) for k in range(m + 1))
    )


@dataclass(frozen=True)
class PolyLabel:
    """An element of the label set F, with optional ell-dependent notes."""

    gamma: Poly
    family: str  # "F0" | "F1" | "F2"
    deg: int
    d_gamma: int | None = dc_field(default=None, compare=False)
    ellprime: bool | None = dc_field(default=None, compare=False)


def F_set(ctx: FieldCtx, eps: int, n: int) -> list[PolyLabel]:
    """All labels of degree <= n, sorted by (degree, code)."""
    _check_eps(eps)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    labels = []
    if eps == 1:
        for m in range(1, n + 1):
            for delta in irreducibles(ctx, "base", m, exclude_x=True):
                labels.append(PolyLabel(gamma=delta, family="F0", deg=m))
    else:
        F = ctx.quadratic
        for m in range(1, n + 1):
            for delta in irreducibles(ctx, "quadratic", m, exclude_x=True):
                twisted = tilde(delta, ctx)
                if twisted == delta:
                    labels.append(PolyLabel(gamma=delta, family="F1", deg=m))
                elif 2 * m <= n and delta.code < twisted.code:
                    product = Poly(F, _pmul(F, delta.coeffs, twisted.coeffs))
                    labels.append(PolyLabel(gamma=product, family="F2", deg=2 * m))
    labels.sort(key=lambda lab: (lab.deg, lab.gamma.code))
    return labels


def is_ellprime(label: PolyLabel, ctx: FieldCtx, eps: int, ell: int) -> bool:
    """True iff every root of the label has order prime to ell: x^t = 1
    modulo gamma for t the ell-prime part of |(eps*q)^deg - 1|."""
    N = abs((eps * ctx.q) ** label.deg - 1)
    t = N // ell ** valuation(N, ell)
    F = label.gamma.field
    remainder = _pow_x_mod(F, t, label.gamma.coeffs)
    return remainder[0] == 1 and not any(remainder[1:])


def d_Gamma(label: PolyLabel, eps: int, ell: int, q: int) -> int:
    """Multiplicative order of (eps*q)^deg modulo ell (modulo 4 if ell = 2)."""
    return d_of(q**label.deg, eps**label.deg, ell)


def annotate(label: PolyLabel, ctx: FieldCtx, eps: int, ell: int) -> PolyLabel:
    """The same label with d_gamma and ellprime filled in."""
    return PolyLabel(
        gamma=label.gamma,
        family=label.family,
        deg=label.deg,
        d_gamma=d_Gamma(label, eps, ell, ctx.q),
        ellprime=is_ellprime(label, ctx, eps, ell),
    )


@dataclass(frozen=True)
class CentralScalar:
    """An element of the central group of order q - eps, as an exponent of
    the fixed generator (the least-code primitive element of the working
    field raised to (order of the field group) / (q - eps))."""

    exponent: int
    order: int

    def element(self, working: FiniteField) -> int:
        group = working.order - 1
        if group % self.order:
            raise ValueError(
                f"no subgroup of order {self.order} in a group of order {group}"
            )
        root = working.pow(working.generator(), group // self.order)
        return working.pow(root, self.exponent % self.order)

    def element_order(self) -> int:
        return self.order // gcd(self.exponent % self.order, self.order)


def z_act(z: CentralScalar, label: PolyLabel) -> PolyLabel:
    """Scale the root set by z: (z Gamma)(x) = z^deg * Gamma(x / z)."""
    F = label.gamma.field
    zeta = z.element(F)
    m = label.deg
    coeffs = tuple(
        F.mul(c, F.pow(zeta, m - k)) for k, c in enumerate(label.gamma.coeffs)
    )
    return PolyLabel(gamma=Poly(F, coeffs), family=label.family, deg=m)


def frob_act(label: PolyLabel, ctx: FieldCtx) -> PolyLabel:
    """Apply the p-power automorphism: roots a map to a^p."""
    F = label.gamma.field
    coeffs = tuple(F.pow(c, ctx.p) for c in label.gamma.coeffs)
    return PolyLabel(gamma=Poly(F, coeffs), family=label.family, deg=label.deg)


def stabilizer_count(label: PolyLabel, eps: int, ell: int, ctx: FieldCtx) -> int:
    """|{z of ell-prime order with z Gamma = Gamma}| by direct enumeration."""
    order = ctx.q - eps
    count = 0
    for k in range(order):
        z = CentralScalar(exponent=k, order=order)
        if z.element_order() % ell == 0:
            continue
        if z_act(z, label).gamma == label.gamma:
            count += 1
    return count
