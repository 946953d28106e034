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
* :func:`cores_of_size` builds sparse cores from the lowest empty position
  of each runner (Garvan-Kim-Stanton charge vectors), pruned by size; where
  cores are dense (``d * d > 2 * k``, or ``k < d``) it walks
  ``partitions_of(k)``, under the bound of a listing of every partition.
* The split ``mu -> (core, quotient)`` and its inverse each sit behind an
  ``lru_cache`` bounded at ``_SPLIT_CACHE_SIZE`` entries, so a sub-partition
  that recurs across towers is split once per process.
* A listing printed whole, :func:`hooks` or every partition of ``n``, is
  refused past ``_LISTING_CELLS`` cells, counted before it is enumerated:
  ``n * n`` (n <= 2000) and ``n * p(n)`` (n <= 44).
* The public core, quotient and tower functions run :func:`as_partition` on
  every partition argument: a non-partition raises ``ValueError`` and a list
  is taken as its tuple.  Private helpers take checked tuples; callers that
  walk :func:`partitions_of` use them directly.  They also take ``d = 1``,
  which the public functions refuse: on one runner ``_core_quotient(mu, 1)``
  is ``((), (mu,))`` and ``_is_d_core(mu, 1)`` holds only for ``()``.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, isqrt

from .arith import _check_ell, _Value
from .errors import BoundExceededError

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
    "nu",
    "defect",
    "EllExpansion",
    "ell_expansions",
]

Partition = tuple[int, ...]
_SPLIT_CACHE_SIZE = 4096  # entries in each of the two core/quotient split caches
_LISTING_CELLS = 4_000_000  # cells (boxes) in one listing of partitions of n


def as_partition(parts) -> Partition:
    """Validate and normalize a partition given as any iterable of ints."""
    mu = tuple(map(int, parts))
    if mu and min(mu) <= 0:
        raise ValueError(f"partition parts must be positive: {mu}")
    if mu != tuple(sorted(mu, reverse=True)):
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
    """Number of partitions of ``n`` via Euler's pentagonal-number recurrence,
    filled bottom-up, so that a large ``n`` does not recurse."""
    if n < 0:
        return 0
    counts = [1]
    for m in range(1, n + 1):
        total, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 == 1 else -1
            total += sign * counts[m - g]
            if g + k <= m:
                total += sign * counts[m - g - k]
            k += 1
        counts.append(total)
    return counts[n]


def _check_listing(n: int, every: bool = False) -> None:
    """Refuse, before enumerating, a listing of the hooks of ``n`` (n * n
    cells) or of ``every`` partition of ``n`` (n * p(n) cells) above
    ``_LISTING_CELLS``.  As p(n) >= n, a large ``n`` is refused uncounted."""
    cells = n * n
    if every and cells <= _LISTING_CELLS:
        cells = n * partition_count(n)
    if cells > _LISTING_CELLS:
        what = "every partition" if every else "the hooks"
        raise BoundExceededError(
            f"listing {what} of {n} would hold more than {_LISTING_CELLS} cells"
        )


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
    _check_listing(n)
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


def _check_base(name: str, value: int) -> None:
    if value < 2:
        raise ValueError(f"{name} must be >= 2, got {value}")


def _runners(mu: Partition, d: int) -> list[list[int]]:
    """Bead positions on each of the ``d`` runners, positions descending, for
    the least multiple of ``d`` beads that is ``>= len(mu)``."""
    runners: list[list[int]] = [[] for _ in range(d)]
    top = -(-len(mu) // d) * d - 1
    for i, part in enumerate(mu):
        pos, j = divmod(part + top - i, d)
        runners[j].append(pos)
    for j in range(top - len(mu), -1, -1):  # the beads below mu: x = j < d
        runners[j].append(0)
    return runners


@lru_cache(maxsize=_SPLIT_CACHE_SIZE)
def _core_quotient(mu: Partition, d: int) -> tuple[Partition, tuple[Partition, ...]]:
    """The ``d``-core (every runner's beads pushed down) and the ``d``-quotient
    of the unchecked partition ``mu``, from one abacus pass."""
    runners = _runners(mu, d)
    beta = [d * pos + j for j, r in enumerate(runners) for pos in range(len(r))]
    return _decode(sorted(beta, reverse=True)), tuple(_decode(r) for r in runners)


def d_core(mu: Partition, d: int) -> Partition:
    """The ``d``-core: push all abacus beads down on each runner."""
    _check_base("d", d)
    return _core_quotient(as_partition(mu), d)[0]


def is_d_core(mu: Partition, d: int) -> bool:
    """Whether the partition ``mu`` is a ``d``-core (``ValueError`` if it is none)."""
    _check_base("d", d)
    return _is_d_core(as_partition(mu), d)


def _is_d_core(mu: Partition, d: int) -> bool:
    """Every bead ``x >= d`` of the unchecked partition ``mu`` has one at ``x - d``."""
    top = len(mu) - 1
    beads = {part + top - i for i, part in enumerate(mu)}  # beta_set(mu, len(mu))
    return {x - d for x in beads if x >= d} <= beads


@lru_cache(maxsize=None)
def cores_of_size(k: int, d: int) -> tuple[Partition, ...]:
    """The ``d``-cores of size ``k``, in the order of :func:`partitions_of`.

    Below ``d`` every partition is one.  Where ``d * d <= 2 * k`` they are
    sparse and :func:`_sparse_cores` builds them at a cost that follows their
    number, not ``p(k)``.  Elsewhere they are dense, and the bead test filters
    ``partitions_of(k)``: the search's dead ends grow faster in ``d`` (at
    ``k = 30`` it is slower from ``d = 10`` on, 70 times at ``d = 29``).
    Both dense branches take the bound of a listing of every partition of
    ``k`` (so ``k <= 44``), and raise :class:`BoundExceededError` past it."""
    _check_base("d", d)
    if k < d or d * d > 2 * k:
        _check_listing(k, every=True)
        if k < d:
            return partitions_of(k)
        return tuple(mu for mu in partitions_of(k) if _is_d_core(mu, d))
    return tuple(sorted(_sparse_cores(k, d), reverse=True))


def _sparse_cores(k: int, d: int) -> list[Partition]:
    """The ``d``-cores of size ``k`` from the lowest gap ``y_j`` of each runner
    ``j`` (the beads below it sit flush).  By Garvan-Kim-Stanton, these are
    the ``y`` with ``y_j = j (mod d)``, ``sum(y) = sum(j)`` and ``sum(y**2) =
    2*d*k + sum(j**2)``; runner by runner, a prefix is kept while the sum ``s``
    and squares ``t`` left to the ``r`` later runners allow ``s*s <= r*t``."""
    level = [((), d * (d - 1) // 2, 2 * d * k + (d - 1) * d * (2 * d - 1) // 6)]
    for j in range(d - 1):
        level = [
            (ys + (y,), s - y, t - y * y)
            for ys, s, t in level
            for h in (isqrt(t),)
            for y in range(j - (j + h) // d * d, h + 1, d)  # y >= -h, y = j mod d
            if (s - y) ** 2 <= (d - 1 - j) * (t - y * y)
        ]
    cores = []
    for ys, s, t in level:
        if s * s == t:  # the last y is s, and s = d - 1 (mod d) already
            ys += (s,)
            low = min(y - j for j, y in enumerate(ys))
            beads = [x - low for j, y in enumerate(ys) for x in range(low + j, y, d)]
            cores.append(_decode(sorted(beads, reverse=True)))
    return cores


def d_quotient(mu: Partition, d: int) -> tuple[Partition, ...]:
    """The ``d``-quotient: runner ``j``'s bead positions, read as a beta-set."""
    _check_base("d", d)
    return _core_quotient(as_partition(mu), d)[1]


def from_core_quotient(core: Partition, quotient, d: int) -> Partition:
    """Inverse of ``(d_core, d_quotient)``; requires ``core`` to be a ``d``-core."""
    _check_base("d", d)
    quotient = tuple(map(as_partition, quotient))
    if len(quotient) != d:
        raise ValueError(f"quotient must have exactly {d} components")
    core = as_partition(core)
    if not _is_d_core(core, d):
        raise ValueError(f"{core} is not a {d}-core")
    return _from_core_quotient(core, quotient, d)


@lru_cache(maxsize=_SPLIT_CACHE_SIZE)
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


class CoreTower(_Value):
    """Rows of ``ell``-cores; row ``i`` has ``ell**i`` slots, and the children
    of slot ``j`` in row ``i`` are slots ``j*ell + r`` (``r = 0..ell-1``) in
    row ``i+1``.  Trailing all-empty rows are trimmed, so the empty partition
    has no rows at all.  :func:`from_tower` checks the rows, not this class."""

    __slots__ = ("ell", "rows")

    def __init__(self, ell: int, rows: tuple[tuple[Partition, ...], ...]):
        self._fill(ell, rows)

    def row_sizes(self) -> tuple[int, ...]:
        """Total number of cells appearing in each row."""
        return tuple(sum(sum(mu) for mu in row) for row in self.rows)

    def total(self) -> int:
        """Size of the partition the tower encodes."""
        return sum(s * self.ell**i for i, s in enumerate(self.row_sizes()))


def core_tower(mu: Partition, ell: int) -> CoreTower:
    """Iterated core/quotient decomposition of ``mu``."""
    _check_base("ell", ell)
    empty_split = ((), ((),) * ell)
    rows: list[tuple[Partition, ...]] = []
    frontier = [as_partition(mu)]
    while any(frontier):
        split = [_core_quotient(lam, ell) if lam else empty_split for lam in frontier]
        rows.append(tuple(core for core, _ in split))
        frontier = [q for _, quot in split for q in quot]
    return CoreTower(ell=ell, rows=tuple(rows))


def _check_tower(tower: CoreTower) -> list[tuple[Partition, ...]]:
    """Row ``i`` of the tower must hold ``ell**i`` ``ell``-cores; returns the
    rows with every entry a tuple."""
    ell = tower.ell
    _check_base("ell", ell)
    rows = []
    for i, row in enumerate(tower.rows):
        if len(row) != ell**i:
            raise ValueError(f"row {i} must have {ell**i} slots, has {len(row)}")
        row = tuple(as_partition(lam) if lam else () for lam in row)
        for lam in row:
            if lam and not _is_d_core(lam, ell):
                raise ValueError(f"row {i} entry {lam} is not an {ell}-core")
        rows.append(row)
    return rows


def from_tower(tower: CoreTower) -> Partition:
    """Partition encoded by a core tower (inverse of :func:`core_tower`)."""
    rows = _check_tower(tower)
    ell = tower.ell
    # Collapse bottom-up: the partitions of row i are rebuilt from their row-i
    # core and the ell children already collapsed from row i+1.
    level: list[Partition] = [()] * (ell ** len(rows))
    for row in reversed(rows):
        kids = zip(*[iter(level)] * ell)  # consecutive ell-tuples of level
        level = [
            _from_core_quotient(core, quot, ell) if core or any(quot) else ()
            for core, quot in zip(row, kids)
        ]
    return level[0]


def nu(n: int, coeffs, ell: int) -> int:
    """``(n - sum(coeffs)) / (ell - 1)`` for ``n = sum(coeffs[i] * ell**i)``: the
    ell-adic valuation of its Young subgroup; of a tower's row sizes, the defect."""
    num = n - sum(coeffs)
    quo, rem = divmod(num, ell - 1)
    if rem:
        raise AssertionError(f"{num} is not divisible by ell - 1 = {ell - 1}")
    return quo


def defect(mu: Partition, ell: int) -> int:
    """``valuation(n!, ell) - valuation(degree(mu), ell)`` for ``|mu| = n``,
    computed combinatorially as ``nu`` of the tower row sizes."""
    _check_ell(ell)
    return nu(sum(mu), core_tower(mu, ell).row_sizes(), ell)


class EllExpansion(_Value):
    """``n = sum(coeffs[i] * ell**i)`` with arbitrary nonnegative coefficients
    (no trailing zeros)."""

    __slots__ = ("ell", "coeffs")

    def __init__(self, ell: int, coeffs: tuple[int, ...]):
        self._fill(ell, coeffs)

    def total(self) -> int:
        return sum(c * self.ell**i for i, c in enumerate(self.coeffs))


def ell_expansions(n: int, ell: int) -> list[EllExpansion]:
    """All expansions of ``n`` in powers of ``ell`` with unbounded nonnegative
    coefficients, ordered with the plain expansion ``(n,)`` first (coefficient
    tuples in descending lexicographic order)."""
    _check_base("ell", ell)
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
