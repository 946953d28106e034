"""Partition combinatorics: hooks, beta-sets, cores, quotients, core towers.

Conventions
-----------
* A partition is a tuple of weakly decreasing positive integers; the empty
  partition is ``()``.
* Beta-sets are tuples of distinct nonnegative integers, sorted descending.
  The beta-set of ``mu`` on ``b`` beads (``b >= len(mu)``) is
  ``{mu_i + (b - 1 - i)}`` with ``mu`` padded by zeros.
* On the abacus with ``d`` runners, a bead ``x`` sits on runner ``x % d``
  at position ``x // d``.  Pushing all beads down yields the ``d``-core;
  the per-runner position sets, read as beta-sets, yield the
  ``d``-quotient.  Runner ``j`` indexes quotient component ``j`` when the
  number of beads is a multiple of ``d``, which we guarantee by padding to
  the least multiple of ``d`` that is ``>= len(mu)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

__all__ = [
    "Partition",
    "as_partition",
    "partitions_of",
    "partition_count",
    "conjugate",
    "hook_lengths",
    "degree",
    "hooks",
    "beta_set",
    "beta_to_partition",
    "d_core",
    "d_quotient",
    "is_d_core",
    "from_core_quotient",
    "CoreTower",
    "core_tower",
    "from_tower",
    "defect",
    "EllExpansion",
    "ell_expansions",
]

Partition = tuple[int, ...]


def as_partition(parts) -> Partition:
    """Validate and normalize a partition given as any iterable of ints."""
    mu = tuple(int(x) for x in parts)
    if any(x <= 0 for x in mu):
        raise ValueError(f"partition parts must be positive: {mu}")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {mu}")
    return mu


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n`` in reverse lexicographic order, ``(n)`` first."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")

    def gen(m: int, maxpart: int):
        if m == 0:
            yield ()
            return
        for k in range(min(m, maxpart), 0, -1):
            for rest in gen(m - k, k):
                yield (k,) + rest

    return tuple(gen(n, n))


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """Number of partitions of ``n`` via Euler's pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total, k = 0, 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n:
            break
        sign = 1 if k % 2 == 1 else -1
        total += sign * partition_count(n - g1)
        if g2 <= n:
            total += sign * partition_count(n - g2)
        k += 1
    return total


def conjugate(mu: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not mu:
        return ()
    return tuple(sum(1 for part in mu if part > j) for j in range(mu[0]))


def hook_lengths(mu: Partition) -> tuple[tuple[int, ...], ...]:
    """Hook length of every cell, row by row."""
    conj = conjugate(mu)
    return tuple(
        tuple(mu[i] - j + conj[j] - i - 1 for j in range(mu[i]))
        for i in range(len(mu))
    )


def degree(mu: Partition) -> int:
    """Number of standard Young tableaux of shape ``mu`` (hook length formula)."""
    n = sum(mu)
    prod = 1
    for row in hook_lengths(mu):
        for h in row:
            prod *= h
    deg, rem = divmod(factorial(n), prod)
    if rem:
        raise AssertionError(f"hook product {prod} does not divide {n}!")
    return deg


def hooks(n: int) -> tuple[Partition, ...]:
    """Hook partitions of ``n`` ordered by leg length: ``(n), (n-1,1), ..., (1^n)``."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return ((),)
    return tuple((n - j,) + (1,) * j for j in range(n))


def beta_set(mu: Partition, beads: int) -> tuple[int, ...]:
    """Beta-set of ``mu`` on ``beads`` beads, sorted descending."""
    if beads < len(mu):
        raise ValueError(f"need at least {len(mu)} beads, got {beads}")
    padded = mu + (0,) * (beads - len(mu))
    return tuple(padded[i] + (beads - 1 - i) for i in range(beads))


def beta_to_partition(beta) -> Partition:
    """Partition encoded by a set of distinct bead positions."""
    b = sorted(beta, reverse=True)
    if len(set(b)) != len(b) or (b and b[-1] < 0):
        raise ValueError(f"beta-set must be distinct nonnegative ints: {beta}")
    mu = tuple(b[i] - (len(b) - 1 - i) for i in range(len(b)))
    return tuple(x for x in mu if x > 0)


def _padded_beads(mu: Partition, d: int) -> int:
    """Least multiple of ``d`` that is ``>= len(mu)``."""
    return -(-len(mu) // d) * d


def _runner_positions(mu: Partition, d: int) -> list[list[int]]:
    """Bead positions on each of the ``d`` runners, positions sorted ascending."""
    runners: list[list[int]] = [[] for _ in range(d)]
    for x in beta_set(mu, _padded_beads(mu, d)):
        runners[x % d].append(x // d)
    for r in runners:
        r.sort()
    return runners


def d_core(mu: Partition, d: int) -> Partition:
    """The ``d``-core: push all abacus beads down on each runner."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    beta = [
        d * pos + j
        for j, r in enumerate(_runner_positions(mu, d))
        for pos in range(len(r))
    ]
    return beta_to_partition(beta)


def is_d_core(mu: Partition, d: int) -> bool:
    return d_core(mu, d) == mu


def d_quotient(mu: Partition, d: int) -> tuple[Partition, ...]:
    """The ``d``-quotient: runner ``j``'s bead positions, read as a beta-set."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return tuple(beta_to_partition(r) for r in _runner_positions(mu, d))


def from_core_quotient(core: Partition, quotient, d: int) -> Partition:
    """Inverse of ``(d_core, d_quotient)``; requires ``core`` to be a ``d``-core."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    quotient = tuple(quotient)
    if len(quotient) != d:
        raise ValueError(f"quotient must have exactly {d} components")
    if not is_d_core(core, d):
        raise ValueError(f"{core} is not a {d}-core")
    counts = [len(r) for r in _runner_positions(core, d)]
    # Growing the bead count by d adds one bead at the bottom of every
    # runner, so one uniform growth step raises every runner capacity by 1.
    grow = max([0] + [len(q) - c for q, c in zip(quotient, counts)])
    beta = [
        d * pos + j
        for j, (q, c) in enumerate(zip(quotient, counts))
        for pos in beta_set(q, c + grow)
    ]
    return beta_to_partition(beta)


@dataclass(frozen=True)
class CoreTower:
    """Rows of ``ell``-cores; row ``i`` has ``ell**i`` slots, and the children
    of slot ``j`` in row ``i`` are slots ``j*ell + r`` (``r = 0..ell-1``) in
    row ``i+1``.  Trailing all-empty rows are trimmed, so the empty partition
    has no rows at all."""

    ell: int
    rows: tuple[tuple[Partition, ...], ...]

    def row_sizes(self) -> tuple[int, ...]:
        """Total number of cells appearing in each row."""
        return tuple(sum(sum(mu) for mu in row) for row in self.rows)

    def total(self) -> int:
        """Size of the partition the tower encodes."""
        return sum(s * self.ell**i for i, s in enumerate(self.row_sizes()))


def core_tower(mu: Partition, ell: int) -> CoreTower:
    """Iterated core/quotient decomposition of ``mu``."""
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    rows: list[tuple[Partition, ...]] = []
    frontier = [mu]
    while any(lam for lam in frontier):
        rows.append(tuple(d_core(lam, ell) for lam in frontier))
        frontier = [q for lam in frontier for q in d_quotient(lam, ell)]
    while rows and all(lam == () for lam in rows[-1]):
        rows.pop()
    return CoreTower(ell=ell, rows=tuple(rows))


def from_tower(tower: CoreTower) -> Partition:
    """Partition encoded by a core tower (inverse of :func:`core_tower`)."""
    ell = tower.ell
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    for i, row in enumerate(tower.rows):
        if len(row) != ell**i:
            raise ValueError(f"row {i} must have {ell**i} slots, has {len(row)}")
        for lam in row:
            if not is_d_core(lam, ell):
                raise ValueError(f"row {i} entry {lam} is not an {ell}-core")
    # Collapse bottom-up: the partitions of row i are rebuilt from their row-i
    # core and the ell children already collapsed from row i+1.
    level: list[Partition] = [()] * (ell ** len(tower.rows))
    for i in range(len(tower.rows) - 1, -1, -1):
        level = [
            from_core_quotient(
                tower.rows[i][j], level[j * ell : (j + 1) * ell], ell
            )
            for j in range(ell**i)
        ]
    return level[0]


def defect(mu: Partition, ell: int) -> int:
    """``valuation(n!, ell) - valuation(degree(mu), ell)`` for ``|mu| = n``,
    computed combinatorially as ``(n - sum of tower row sizes) / (ell - 1)``."""
    tower = core_tower(mu, ell)
    num = sum(mu) - sum(tower.row_sizes())
    quo, rem = divmod(num, ell - 1)
    if rem:
        raise AssertionError(f"{num} is not divisible by ell - 1 = {ell - 1}")
    return quo


@dataclass(frozen=True)
class EllExpansion:
    """``n = sum(coeffs[i] * ell**i)`` with arbitrary nonnegative coefficients
    (no trailing zeros)."""

    ell: int
    coeffs: tuple[int, ...]

    def total(self) -> int:
        return sum(c * self.ell**i for i, c in enumerate(self.coeffs))


def ell_expansions(n: int, ell: int) -> list[EllExpansion]:
    """All expansions of ``n`` in powers of ``ell`` with unbounded nonnegative
    coefficients, ordered with the plain expansion ``(n,)`` first (coefficient
    tuples in descending lexicographic order)."""
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")

    def gen(m: int) -> list[tuple[int, ...]]:
        if m == 0:
            return [()]
        # Every b0 in the range satisfies b0 = m (mod ell), so the
        # remainder (m - b0) / ell is a whole number.
        return [
            (b0,) + rest
            for b0 in range(m, -1, -ell)
            for rest in gen((m - b0) // ell)
        ]

    return [EllExpansion(ell=ell, coeffs=c) for c in gen(n)]
