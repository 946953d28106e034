"""Partition combinatorics: hooks, beta-sets, cores, quotients, core towers,
and the compositions (ordered partitions) of an integer.

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
* ``mu`` is a ``d``-core iff every bead ``x >= d`` of its beta-set has a
  bead at ``x - d`` (a missing one marks a removable ``d``-hook), so the
  core test never rebuilds a partition.  :func:`core_tower` reads the core
  and the quotient of each slot off one abacus pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .arith import _check_ell

__all__ = [
    "Partition",
    "as_partition",
    "partitions_of",
    "partition_count",
    "compositions",
    "conjugate",
    "hook_lengths",
    "degree",
    "hooks",
    "beta_set",
    "beta_to_partition",
    "d_core",
    "d_quotient",
    "is_d_core",
    "cores_of_size",
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
    # Reverse lex successor: drop the 1s, lower the last part, refill greedily.
    parts, out = ([n], [(n,)]) if n else ([], [()])
    while parts and parts[0] > 1:
        freed = 1
        while parts[-1] == 1:
            freed += parts.pop()
        parts[-1] -= 1
        count, rest = divmod(freed, parts[-1])
        parts += [parts[-1]] * count + [rest] * (rest > 0)
        out.append(tuple(parts))
    return tuple(out)


def compositions(total: int, parts: int | None = None):
    """Compositions of ``total`` into positive parts, exactly ``parts`` of them
    if given, in reverse lexicographic order: first part descending."""
    if total <= 0 or (parts is not None and parts < 1):
        if total == 0 and not parts:
            yield ()
        return
    rest = None if parts is None else parts - 1
    for head in range(total - (rest or 0), 0, -1):
        for tail in compositions(total - head, rest):
            yield (head,) + tail


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
    conj: list[int] = []
    for rows in range(len(mu), 0, -1):
        conj += [rows] * (mu[rows - 1] - (mu[rows] if rows < len(mu) else 0))
    return tuple(conj)


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
    conj = conjugate(mu)
    prod = 1
    for i, part in enumerate(mu):
        for j in range(part):
            prod *= part - j + conj[j] - i - 1
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
    top = beads - 1
    beta = [part + top - i for i, part in enumerate(mu)]
    beta += range(top - len(mu), -1, -1)
    return tuple(beta)


def beta_to_partition(beta) -> Partition:
    """Partition encoded by a set of distinct bead positions."""
    b = sorted(beta, reverse=True)
    if len(set(b)) != len(b) or (b and b[-1] < 0):
        raise ValueError(f"beta-set must be distinct nonnegative ints: {beta}")
    return _decode(b)


def _decode(b) -> Partition:
    """Partition of a strictly decreasing sequence of nonnegative beads."""
    top = len(b) - 1
    mu = [x - top + i for i, x in enumerate(b)]
    return tuple(mu[: len(mu) - mu.count(0)])


def _runners(mu: Partition, d: int) -> list[list[int]]:
    """Bead positions on each of the ``d`` runners, positions descending, for
    the least multiple of ``d`` beads that is ``>= len(mu)``."""
    runners: list[list[int]] = [[] for _ in range(d)]
    for x in beta_set(mu, -(-len(mu) // d) * d):
        runners[x % d].append(x // d)
    return runners


def _pushed_down(counts: list[int]) -> Partition:
    """The core whose abacus has ``counts[j]`` beads pushed down on runner ``j``."""
    d = len(counts)
    beta = [d * pos + j for j, c in enumerate(counts) for pos in range(c)]
    return _decode(sorted(beta, reverse=True))


def _core_quotient(mu: Partition, d: int) -> tuple[Partition, tuple[Partition, ...]]:
    """The ``d``-core and the ``d``-quotient of ``mu`` from one abacus pass."""
    runners = _runners(mu, d)
    return _pushed_down([len(r) for r in runners]), tuple(_decode(r) for r in runners)


def d_core(mu: Partition, d: int) -> Partition:
    """The ``d``-core: push all abacus beads down on each runner."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return _pushed_down([len(r) for r in _runners(mu, d)])


def is_d_core(mu: Partition, d: int) -> bool:
    """Whether ``mu`` is a ``d``-core: every bead ``x >= d`` has a bead at ``x - d``."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    beads = set(beta_set(mu, len(mu)))
    return all(x - d in beads for x in beads if x >= d)


@lru_cache(maxsize=None)
def cores_of_size(k: int, d: int) -> tuple[Partition, ...]:
    """The ``d``-cores of size ``k``, in the order of :func:`partitions_of`."""
    return tuple(mu for mu in partitions_of(k) if is_d_core(mu, d))


def d_quotient(mu: Partition, d: int) -> tuple[Partition, ...]:
    """The ``d``-quotient: runner ``j``'s bead positions, read as a beta-set."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return _core_quotient(mu, d)[1]


def from_core_quotient(core: Partition, quotient, d: int) -> Partition:
    """Inverse of ``(d_core, d_quotient)``; requires ``core`` to be a ``d``-core."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    quotient = tuple(quotient)
    if len(quotient) != d:
        raise ValueError(f"quotient must have exactly {d} components")
    if not is_d_core(core, d):
        raise ValueError(f"{core} is not a {d}-core")
    return _from_core_quotient(core, quotient, d)


def _from_core_quotient(core: Partition, quotient, d: int) -> Partition:
    """:func:`from_core_quotient` on inputs already checked."""
    counts = [len(r) for r in _runners(core, d)]
    # Growing the bead count by d adds one bead at the bottom of every
    # runner, so one uniform growth step raises every runner capacity by 1.
    grow = max([0] + [len(q) - c for q, c in zip(quotient, counts)])
    beta = [
        d * pos + j
        for j, (q, c) in enumerate(zip(quotient, counts))
        for pos in beta_set(q, c + grow)
    ]
    return _decode(sorted(beta, reverse=True))


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
    empty_split = ((), ((),) * ell)
    rows: list[tuple[Partition, ...]] = []
    frontier = [mu]
    while any(frontier):
        split = [_core_quotient(lam, ell) if lam else empty_split for lam in frontier]
        rows.append(tuple(core for core, _ in split))
        frontier = [q for _, quot in split for q in quot]
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
            if lam and not is_d_core(lam, ell):
                raise ValueError(f"row {i} entry {lam} is not an {ell}-core")
    # Collapse bottom-up: the partitions of row i are rebuilt from their row-i
    # core and the ell children already collapsed from row i+1.
    level: list[Partition] = [()] * (ell ** len(tower.rows))
    for row in reversed(tower.rows):
        kids = [level[j : j + ell] for j in range(0, len(level), ell)]
        level = [
            _from_core_quotient(core, quot, ell) if core or any(quot) else ()
            for core, quot in zip(row, kids)
        ]
    return level[0]


def defect(mu: Partition, ell: int) -> int:
    """``valuation(n!, ell) - valuation(degree(mu), ell)`` for ``|mu| = n``,
    computed combinatorially as ``(n - sum of tower row sizes) / (ell - 1)``."""
    _check_ell(ell)
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
