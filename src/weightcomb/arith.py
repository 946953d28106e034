"""Elementary number theory used throughout the package.

Conventions
-----------
* ``eps`` is always the integer ``+1`` or ``-1``.
* For the prime ``ell = 2`` all multiplicative orders are taken modulo 4
  (the group ``(Z/4)^x``).
* A triple ``(q, eps, ell)`` is validated in one place, the cached
  :meth:`EllParams.compute`, which also owns ``d_Gamma``; see its docstring.
* The package's value classes derive from :class:`_Value`, defined here
  since every module that has one imports this module.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

from .errors import UnsupportedRegimeError

__all__ = [
    "is_prime",
    "factorize",
    "divisors",
    "valuation",
    "factorial_valuation",
    "multiplicative_order",
    "d_of",
    "PrimePower",
    "EllParams",
]


def is_prime(n: int) -> bool:
    """Whether ``n`` is prime, read off its factorization (inputs here are small)."""
    return n >= 2 and factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of ``n >= 1`` as ``{prime: exponent}``."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    out: dict[int, int] = {}
    m = n
    for p in (2, 3):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    f = 5
    while f <= isqrt(m):
        for p in (f, f + 2):
            while m % p == 0:
                out[p] = out.get(p, 0) + 1
                m //= p
        f += 6
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return dict(sorted(out.items()))


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n >= 1``, sorted ascending."""
    if n < 1:
        raise ValueError(f"divisors expects n >= 1, got {n}")
    out = [1]
    for p, k in factorize(n).items():
        out = [d * p**i for d in out for i in range(k + 1)]
    return sorted(out)


def mobius(n: int) -> int:
    """The Moebius function of ``n >= 1``."""
    fac = factorize(n)
    if any(k > 1 for k in fac.values()):
        return 0
    return (-1) ** len(fac)


def valuation(n: int, ell: int) -> int:
    """Largest ``v`` with ``ell**v | n`` (``n`` nonzero; sign ignored)."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if ell < 2:
        raise ValueError(f"valuation base must be >= 2, got {ell}")
    m, v = abs(n), 0
    while m % ell == 0:
        m //= ell
        v += 1
    return v


def ellprime_part(n: int, ell: int) -> int:
    """The largest divisor of ``n`` coprime to ``ell`` (``n`` nonzero; sign ignored)."""
    return abs(n) // ell ** valuation(n, ell)


def factorial_valuation(n: int, ell: int) -> int:
    """``valuation(n!, ell)`` by Legendre's formula, for ``n >= 0``."""
    if n < 0:
        raise ValueError(f"factorial_valuation expects n >= 0, got {n}")
    if ell < 2:
        raise ValueError(f"valuation base must be >= 2, got {ell}")
    total, power = 0, ell
    while power <= n:
        total += n // power
        power *= ell
    return total


def multiplicative_order(a: int, m: int) -> int:
    """Order of ``a`` in ``(Z/m)^x``; requires ``m >= 2`` and ``gcd(a, m) == 1``."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    a %= m
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit modulo {m}")
    k, x = 1, a
    while x != 1:
        x = x * a % m
        k += 1
    return k


@lru_cache(maxsize=None)
def d_of(q: int, eps: int, ell: int) -> int:
    """Order of ``eps * q`` modulo ``ell`` (modulo 4 when ``ell == 2``), for
    any ``q`` coprime to ``ell``: neither the prime-power nor the regime rule
    of :class:`EllParams` applies."""
    _check_eps(eps)
    _check_ell(ell)
    if q % ell == 0:
        raise ValueError(f"ell={ell} must not divide q={q}")
    modulus = 4 if ell == 2 else ell
    return multiplicative_order(eps * q, modulus)


def _order_of_power(order: int, k: int) -> int:
    """The order of ``x**k`` for an ``x`` of order ``order``."""
    return order // gcd(order, k)


def _check_eps(eps: int) -> None:
    if eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps!r}")


def _check_ell(ell: int) -> None:
    if not is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")


class _Value:
    """Base of the value classes: immutable, hashable ``__slots__`` objects,
    equal only to an object of the same class with equal compared fields.
    ``__slots__`` names the fields once.  A record, a class with nothing to
    check or default, writes no ``__init__``: its constructor is the compiled
    :meth:`_fill`, which takes every slot by position or keyword.  Any other
    ``__init__`` checks its arguments, then sets the fields with :meth:`_fill`;
    :meth:`_trusted` only sets them, for values built from checked ones.  ``_args``
    names the constructor's arguments (default: ``__slots__``): the fields of
    repr, pickle, equality and hashing; the other slots are derived from them.
    A class compiles at its first construction (:meth:`_compile`), the only way
    to an instance, since pickle and copy call the constructor; an import
    compiles nothing."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._args = cls.__dict__.get("_args", cls.__slots__)

    @classmethod
    def _compile(cls):
        """Set ``_fill``, ``_trusted``, ``__eq__`` and ``__hash__`` on ``cls``, written
        out for its fields, and ``__init__`` to ``_fill`` where ``cls`` writes none."""
        if "_fill" in cls.__dict__:  # compiled, but called by a trampoline bound before
            return cls
        slots, fields = cls.__slots__, cls._args
        params = ", ".join(slots)
        stores = "".join(f"    _set_{f}(self, {f})\n" for f in slots)
        equal = " and ".join(f"self.{f} == other.{f}" for f in fields)
        source = (
            f"def _fill(self, {params}):\n{stores}"
            f"def _trusted(cls, {params}):\n    self = _new(cls)\n{stores}    return self\n"
            "def __eq__(self, other):\n"
            f"    if other.__class__ is self.__class__:\n        return {equal}\n"
            "    return NotImplemented\n"
            # "(self.a)" hashes the bare field, "(self.a, self.b)" the tuple
            f"def __hash__(self):\n    return hash(({', '.join(f'self.{f}' for f in fields)}))\n"
        )
        namespace = dict({f"_set_{f}": getattr(cls, f).__set__ for f in slots}, _new=object.__new__)
        exec(source, namespace)
        for name in ("_fill", "_trusted", "__eq__", "__hash__"):  # errors name the class
            namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
        if "__init__" not in cls.__dict__:
            cls.__init__ = namespace["_fill"]
        cls._fill = namespace["_fill"]
        cls._trusted = classmethod(namespace["_trusted"])
        cls.__eq__ = namespace["__eq__"]
        cls.__hash__ = namespace["__hash__"]
        return cls

    # The three ways to an instance compile its class, then redo the call.
    def __init__(self, *args, **kwargs) -> None:
        type(self)._compile().__init__(self, *args, **kwargs)

    def _fill(self, *values) -> None:
        type(self)._compile()._fill(self, *values)

    @classmethod
    def _trusted(cls, *values):
        """An instance with its slots set to ``values``, without ``__init__``."""
        return cls._compile()._trusted(*values)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot set or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._args)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._args)


class PrimePower(_Value):
    """A prime power ``q = p**f``."""

    __slots__ = ("p", "f", "q")

    @classmethod
    def from_q(cls, q: int) -> "PrimePower":
        if q < 2:
            raise ValueError(f"q must be >= 2, got {q}")
        fac = factorize(q)
        if len(fac) != 1:
            raise ValueError(f"q={q} is not a prime power")
        (p, f), = fac.items()
        return cls(p=p, f=f, q=q)


class EllParams(_Value):
    """Validated parameter bundle ``(q, eps, ell)`` with derived orders.

    :meth:`compute` applies the base rules (``eps = +-1``, ``q`` a prime
    power, ``ell`` a prime not dividing ``q``), then the ``ell = 2`` regime
    rule ``4 | (q - eps)``, which raises :class:`UnsupportedRegimeError`.
    ``p`` is the characteristic of ``F_q`` and ``d`` the order of ``eps*q``
    modulo ``ell`` (modulo 4 when ``ell == 2``).
    """

    __slots__ = ("q", "eps", "ell", "p", "d")

    @classmethod
    @lru_cache(maxsize=None)
    def compute(cls, q: int, eps: int, ell: int) -> "EllParams":
        _check_eps(eps)
        p = PrimePower.from_q(q).p
        d = d_of(q, eps, ell)  # checks that ell is a prime not dividing q
        if ell == 2 and (q - eps) % 4 != 0:
            raise UnsupportedRegimeError(
                f"ell=2 requires 4 | (q - eps); got q={q}, eps={eps:+d}"
            )
        return cls(q=q, eps=eps, ell=ell, p=p, d=d)

    def d_gamma(self, deg: int) -> int:
        """``d_Gamma`` of a degree-``deg`` elementary divisor: the order of
        ``(eps*q)**deg`` modulo ``ell`` (modulo 4 when ``ell == 2``), which as
        the order of a power of ``eps*q`` is ``d / gcd(d, deg)``."""
        return _order_of_power(self.d, deg)
