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

Arithmetic is defined digit-recursively (the ``_raw_*`` methods).  Every
field builds three tables from it at construction, from order raw products
and order raw sums: exp and log of the least-code generator g, and the Zech
logarithms zech[k] = log(1 + g^k).  Then mul is exp[log a + log b], add is
exp[log a + zech[log b - log a]], and pow, inv and element_order are one
lookup.  The tables hold O(order) entries, so no field exceeds SIZE_BUDGET.

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

from functools import lru_cache

from .arith import PrimePower, _check_eps, _order_of_power, _Value, d_of, ellprime_part, is_prime
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
    "tilde",
    "PolyLabel",
    "F_set",
    "is_ellprime",
    "d_Gamma",
    "CentralScalar",
    "z_act",
    "frob_act",
    "stabilizer_count",
]

SIZE_BUDGET = 2**20


class FiniteField:
    """A finite field with integer-coded elements.

    Instances are canonical: obtain them through :func:`prime_field`,
    :func:`extension_field`, or :func:`field_of_order`, never directly.
    Equality and hashing are by identity, which the caches of the first two
    make reliable; pickle and copy also return the canonical field.
    """

    def __init__(self, p: int, order: int, base: "FiniteField | None", modulus: tuple[int, ...] | None):
        if order > SIZE_BUDGET:
            raise BoundExceededError(
                f"a field of order {order} exceeds the {SIZE_BUDGET} size budget"
            )
        self.p = p
        self.order = order
        self.base = base
        self.modulus = modulus  # ascending monic coefficients over base
        self.degree = 1 if base is None else len(modulus) - 1
        units = order - 1
        # The walk g, g^2, ... of the least-code g whose powers reach every
        # unit; exp holds it twice so that a sum of two logs needs no %, then
        # zeros, which the stand-in log[0] = 2 * units points at.
        for g in range(1, order):
            exp, x = [1], g
            while x != 1:
                exp.append(x)
                x = self._raw_mul(x, g)
            if len(exp) == units:
                break
        log = [2 * units] * order
        for k, x in enumerate(exp):
            log[x] = k
        self._exp, self._log = exp * 2 + [0] * units, log
        # Zech logarithms: g^zech[k] = 1 + g^k, so exp[l + zech[k]] is
        # g^l * (1 + g^k) for every log l, 0 where 1 + g^k = 0.
        self._zech = [log[self._raw_add(1, x)] for x in exp]

    def __repr__(self) -> str:
        return f"FiniteField({self.order})"

    def __reduce__(self):
        if self.base is None:
            return prime_field, (self.p,)
        return extension_field, (self.base, self.degree)

    # -- the definition: digit-recursive arithmetic -----------------------
    def _digits(self, a: int) -> list[int]:
        b = self.base.order
        return [(a // b**i) % b for i in range(self.degree)]

    def _raw_add(self, a: int, b: int) -> int:
        if self.base is None:
            return (a + b) % self.p
        base = self.base
        pairs = zip(self._digits(a), self._digits(b))
        return _encode((base.add(x, y) for x, y in pairs), base.order)

    def _raw_neg(self, a: int) -> int:
        if self.base is None:
            return -a % self.p
        return _encode((self.base.neg(x) for x in self._digits(a)), self.base.order)

    def _raw_mul(self, a: int, b: int) -> int:
        if self.base is None:
            return (a * b) % self.p
        base = self.base
        prod = _pmul(base, self._digits(a), self._digits(b))
        return _encode(_pmod(base, prod, self.modulus), base.order)

    # -- arithmetic ------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        """a + b = g^la * (1 + g^(lb - la)); a negative index into zech
        wraps, as (lb - la) % (order - 1) would."""
        if not a or not b:
            return a or b
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] - la]]

    def neg(self, a: int) -> int:
        return self.mul(a, self.p - 1)  # -1 is the constant p - 1

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def pow(self, a: int, k: int) -> int:
        if a:
            return self._exp[self._log[a] * k % (self.order - 1)]
        if k < 0:
            raise ZeroDivisionError("0 has no inverse")
        return 0**k

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def generator(self) -> int:
        """The least element (by code) of multiplicative order ``order - 1``."""
        return self._exp[1]

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        n = self.order - 1
        return _order_of_power(n, self._log[a])


@lru_cache(maxsize=None)
def prime_field(p: int) -> FiniteField:
    if not is_prime(p):
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


def field_of_order(q: int) -> FiniteField:
    pp = PrimePower.from_q(q)
    if pp.f == 1:
        return prime_field(pp.p)
    return extension_field(prime_field(pp.p), pp.f)


class FieldCtx(_Value):
    """The pair of fields F_q and F_{q^2} used by the label calculus."""

    __slots__ = ("p", "f", "q")

    @property
    def base(self) -> FiniteField:
        return field_of_order(self.q)

    @property
    def quadratic(self) -> FiniteField:
        return extension_field(self.base, 2)

    def working(self, eps: int) -> FiniteField:
        _check_eps(eps)
        return self.base if eps == 1 else self.quadratic


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
    return sum(c * Q**i for i, c in enumerate(coeffs))


def _pmul(field: FiniteField, a, b):
    out = [0] * (len(a) + len(b) - 1)
    add, mul = field.add, field.mul
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    return tuple(out)


def _pmod(field: FiniteField, a, m):
    """Remainder of a modulo the monic polynomial m, padded to deg(m) terms."""
    add, mul = field.add, field.mul
    r = list(a)
    deg_m = len(m) - 1
    for k in range(len(r) - 1, deg_m - 1, -1):
        c = r[k]
        if c:
            r[k] = 0
            c = field.neg(c)
            for t in range(deg_m):
                i = k - deg_m + t
                r[i] = add(r[i], mul(c, m[t]))
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


class Poly(_Value):
    """A monic polynomial with ascending coefficient codes."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: tuple[int, ...]):
        if len(coeffs) < 2:
            raise ValueError("polynomials here have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError(f"must be monic, got leading {coeffs[-1]}")
        if min(coeffs) < 0 or max(coeffs) >= field.order:
            raise ValueError("coefficient code out of range")
        self._fill(field, coeffs)

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
    factor of degree <= m/2, so marking the monic multiples of each
    irreducible p of degree k <= m/2 leaves exactly the irreducibles
    unmarked.  Those multiples are x^m + x^k*h + low for every h of degree
    < m-k, with low = -(x^m + x^k*h) mod p; each digit of low is affine in
    the digits of h, so it is built for all h at once, in code order.
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
    mul, exp, log, zech = field.mul, field._exp, field._log, field._zech
    minus_one = field.neg(1)
    for k in range(1, deg // 2 + 1):
        for pcode in _irreducible_codes(field, k):
            p = _decode(pcode, Q)
            # -x^(k+j) mod p for j = 0 .. deg-k; the last is -x^deg mod p
            v = [_pmod(field, (0,) * (k + j) + (minus_one,), p) for j in range(deg - k + 1)]
            codes = range(0, span, Q**k)  # x^k*h for every h, in code order
            for i in range(k):
                low = [v[-1][i]]
                for j in range(deg - k):
                    # a + t = g^lt * (1 + g^(la - lt)) for units a and t,
                    # added in the log domain: one zech lookup per entry.
                    terms = [(t, log[t]) for t in [mul(c, v[j][i]) for c in range(Q)]]
                    pairs = [(a, log[a]) for a in low]
                    low = [
                        exp[lt + zech[la - lt]] if a and t else a or t
                        for t, lt in terms
                        for a, la in pairs
                    ]
                step = Q**i
                codes = [r + a * step for r, a in zip(codes, low)]
            for r in codes:
                reducible[r] = 1
    return tuple(span + r for r in range(span) if not reducible[r])


def tilde(delta: Poly, ctx: FieldCtx) -> Poly:
    """The twist x^m * a_0^(-q) * Delta^q(1/x); roots map a -> a^(-q)."""
    F = delta.field
    if F is not ctx.quadratic:
        raise ValueError("tilde is defined over the quadratic extension")
    if delta.coeffs[0] == 0:
        raise ValueError("tilde needs a nonzero constant term")
    return Poly(F, _twist(F, ctx.q, delta.coeffs))


def _twist(F: FiniteField, q: int, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficients a_0^(-q) * a_(m-k)^q of tilde, k = 0..m, by log
    lookups; a_0 must be nonzero."""
    exp, log, units = F._exp, F._log, F.order - 1
    la0 = log[coeffs[0]]
    return tuple(exp[q * (log[c] - la0) % units] if c else 0 for c in reversed(coeffs))


class PolyLabel(_Value):
    """An element of the label set F, of family "F0", "F1" or "F2"."""

    __slots__ = ("gamma", "family", "deg")


def F_set(ctx: FieldCtx, eps: int, n: int) -> list[PolyLabel]:
    """All labels of degree <= n, sorted by (degree, code)."""
    _check_eps(eps)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    F, labels = ctx.working(eps), []
    # Candidates stay coefficient tuples; only the labels kept become Polys.
    for m in range(1, n + 1):
        for code in _irreducible_codes(F, m):
            delta = _decode(code, F.order)
            if delta[0] == 0:
                continue  # x is no label
            twisted = delta if eps == 1 else _twist(F, ctx.q, delta)
            if twisted == delta:  # every Delta for eps = +1 (F0)
                family = "F0" if eps == 1 else "F1"
                labels.append(PolyLabel(gamma=Poly(F, delta), family=family, deg=m))
            elif 2 * m <= n and code < _encode(twisted, F.order):
                product = Poly(F, _pmul(F, delta, twisted))
                labels.append(PolyLabel(gamma=product, family="F2", deg=2 * m))
    labels.sort(key=lambda lab: (lab.deg, lab.gamma.code))
    return labels


def is_ellprime(label: PolyLabel, ctx: FieldCtx, eps: int, ell: int) -> bool:
    """True iff every root of the label has order prime to ell: x^t = 1
    modulo gamma for t the ell-prime part of |(eps*q)^deg - 1|."""
    d_of(ctx.q, eps, ell)  # the rules of d_Gamma: eps = +-1, ell a prime not dividing q
    t = ellprime_part((eps * ctx.q) ** label.deg - 1, ell)
    F = label.gamma.field
    remainder = _pow_x_mod(F, t, label.gamma.coeffs)
    return remainder[0] == 1 and not any(remainder[1:])


def d_Gamma(label: PolyLabel, eps: int, ell: int, q: int) -> int:
    """Multiplicative order of (eps*q)^deg modulo ell (modulo 4 if ell = 2):
    as the order of a power of eps*q, d_of(q, eps, ell) / gcd(it, deg)."""
    return _order_of_power(d_of(q, eps, ell), label.deg)


class CentralScalar(_Value):
    """An element of the central group of order q - eps, as an exponent of
    the fixed generator (the least-code primitive element of the working
    field raised to (order of the field group) / (q - eps))."""

    __slots__ = ("exponent", "order")

    def __init__(self, exponent: int, order: int):
        if order < 1:
            raise ValueError(f"the central group has order >= 1, got {order}")
        self._fill(exponent, order)

    def element(self, working: FiniteField) -> int:
        group = working.order - 1
        if group % self.order:
            raise ValueError(
                f"no subgroup of order {self.order} in a group of order {group}"
            )
        k = group // self.order * (self.exponent % self.order)
        return working.pow(working.generator(), k)

    def element_order(self) -> int:
        return _order_of_power(self.order, self.exponent)


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
    d_of(ctx.q, eps, ell)
    order = ctx.q - eps
    count = 0
    for k in range(order):
        z = CentralScalar(exponent=k, order=order)
        if z.element_order() % ell == 0:
            continue
        if z_act(z, label).gamma == label.gamma:
            count += 1
    return count
