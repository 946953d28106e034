"""Characters of symmetric groups and of wreath products C_e wr S_N.

Character values are computed by the Murnaghan-Nakayama rule phrased on
beta-sets: removing a rim hook of length r moves one bead from position x
to the free position x - r, with sign (-1)^(number of beads strictly
between).  Exact but exponential, so guarded by a small size bound.
"""

from __future__ import annotations

from math import comb

from .errors import BoundExceededError
from .partitions import (
    Partition,
    beta_set,
    defect,
    degree,
    partitions_of,
)

__all__ = [
    "MN_BOUND",
    "mn_value",
    "dz_chars_sym",
    "wreath_char_degree",
]

MN_BOUND = 12


def mn_value(mu: Partition, rho: Partition) -> int:
    """Irreducible character value chi^mu at cycle type rho (both of size n)."""
    n = sum(mu)
    if n > MN_BOUND:
        raise BoundExceededError(
            f"character values are supported for n <= {MN_BOUND}, got {n}"
        )
    if sum(rho) != n:
        raise ValueError(f"size mismatch: |mu|={n} but |rho|={sum(rho)}")
    beta = frozenset(beta_set(mu, len(mu)))
    return _mn(beta, tuple(sorted(rho, reverse=True)))


def _mn(beta: frozenset[int], rho: tuple[int, ...]) -> int:
    if not rho:
        return 1
    r, rest = rho[0], rho[1:]
    total = 0
    for x in beta:
        y = x - r
        if y >= 0 and y not in beta:
            crossed = sum(1 for z in beta if y < z < x)
            term = _mn(beta - {x} | {y}, rest)
            total += -term if crossed % 2 else term
    return total


def dz_chars_sym(m: int, ell: int) -> tuple[Partition, ...]:
    """Labels of the defect-zero irreducible characters of S_m: the
    ell-cores of size m, in reverse lexicographic order."""
    return tuple(mu for mu in partitions_of(m) if defect(mu, ell) == 0)


def wreath_char_degree(e: int, mus) -> int:
    """Degree of the irreducible character of C_e wr S_N labelled by an
    e-tuple of partitions with total size N: the multinomial coefficient
    N choose (|mu_0|, ..., |mu_(e-1)|) times the product of the degrees."""
    mus = tuple(tuple(m) for m in mus)
    if len(mus) != e:
        raise ValueError(f"expected {e} components, got {len(mus)}")
    sizes = [sum(m) for m in mus]
    remaining = sum(sizes)
    deg = 1
    for m, s in zip(mus, sizes):
        deg *= comb(remaining, s) * degree(m)
        remaining -= s
    return deg
