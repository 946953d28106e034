"""Young subgroups with prime-power factors, and the triple parametrization
of irreducible characters for S_n, C_e wr S_n, and G(2e,2,n).

For a prime ell, an ell-Young subgroup of S_n is Y = prod_i (S_{ell^i})^{b_i}
for an expansion n = sum b_i * ell^i; inside C_e wr S_n (ell not dividing e)
the factors are C_e wr S_{ell^i} instead.  Irreducible characters of the
ambient group correspond to triples (Y, zeta, lam):

* ``zeta`` picks, per tier i, pairwise distinct labels of characters of
  ell-prime degree of the tier factor (hooks of ell^i, optionally tagged by
  a linear character of C_e), each with a positive multiplicity; the
  multiplicities of tier i sum to b_i.
* ``lam`` assigns to every chosen label an ell-core of its multiplicity --
  a defect-zero character of the symmetric group permuting the equal
  factors.

G(2e,2,n) (ell odd, not dividing 2e) is handled through its index-2
overgroup C_{2e} wr S_n: triples are taken up to the half-swap tau that
shifts the C_{2e}-character tag by e, and tau-fixed classes carry an extra
split bit for the two constituents of the restriction.

Everything here is exact enumeration; ``verify_bijection`` recounts the
character side independently (defects read off the hook lengths of the
partitions and multipartitions) and compares counts and defect histograms.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product

from .arith import _check_ell, _Value, valuation
from .errors import BoundExceededError
from .partitions import (
    CoreTower,
    EllExpansion,
    Partition,
    _check_tower,
    beta_set,
    compositions,
    cores_of_size,
    ell_expansions,
    nu,
    partitions_of,
)
from .symchars import wreath_char_degree  # noqa: F401 (bench/child.py traces it)

__all__ = [
    "KINDS",
    "ORACLE_BOUNDS",
    "Label",
    "YoungPair",
    "YoungTriple",
    "TowerTuple",
    "triples",
    "triple_to_tower",
    "tower_to_triple",
    "BijectionReport",
    "verify_bijection",
]

KINDS = ("sym", "wreath", "typed")

# verify_bijection enumerates the full character side; keep it honest.
ORACLE_BOUNDS = {"sym": 30, "wreath": 14, "typed": 8}

# A tier label (k, i, j): linear-character tag k (always 0 for S_n), tier i,
# and leg length j of a hook of ell**i.
Label = tuple[int, int, int]


class YoungPair(_Value):
    """An ell-Young subgroup (via its expansion) together with a canonical
    choice zeta of distinct tier labels and multiplicities, sorted by (i, k, j)."""

    __slots__ = ("kind", "n", "e", "ell", "expansion", "zeta")

    def nu(self) -> int:
        """ell-adic valuation of |Y|: (n - sum of coefficients) / (ell - 1)."""
        return nu(self.n, self.expansion.coeffs, self.ell)


class YoungTriple(_Value):
    """A pair with ``lam`` aligned with ``pair.zeta``; ``split`` is 0 or 1 on
    tau-symmetric TypeD classes."""

    __slots__ = ("pair", "lam", "split")

    def __init__(self, pair: YoungPair, lam: tuple[Partition, ...], split: int | None = None):
        self._fill(pair, lam, split)


class TowerTuple(_Value):
    """Core towers carrying the same data as a triple: one tower for S_n,
    e towers for C_e wr S_n, 2e towers (a canonical half-swap orbit
    representative) plus the split bit for G(2e,2,n)."""

    __slots__ = ("kind", "e", "ell", "towers", "split")

    def __init__(self, kind: str, e: int, ell: int, towers: tuple, split: int | None = None):
        self._fill(kind, e, ell, towers, split)

    def total(self) -> int:
        return sum(t.total() for t in self.towers)


def _tag_count(kind: str, e: int) -> int:
    """Number of linear-character tags carried by the tier labels."""
    return {"sym": 1, "wreath": e, "typed": 2 * e}[kind]


def _check_kind(kind: str, n: int, e: int | None, ell: int) -> int:
    """Validate parameters; return the effective e (1 for `sym`)."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    _check_ell(ell)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if kind == "sym":
        if e not in (None, 1):
            raise ValueError(f"kind 'sym' takes no e parameter, got {e}")
        return 1
    if e is None or e < 1:
        raise ValueError(f"kind {kind!r} needs e >= 1, got {e}")
    if e % ell == 0:
        raise ValueError(f"ell={ell} must not divide e={e}")
    if kind == "typed":
        if ell == 2:
            raise ValueError("kind 'typed' needs odd ell")
        if n < 1:
            raise ValueError("kind 'typed' needs n >= 1")
    return e


def _tier_major(entry) -> tuple[int, int, int]:
    """Sort key of an entry led by a label (k, i, j): the tier-major (i, k, j)."""
    k, i, j = entry[0]
    return i, k, j


def _tier_assignments(labels: list[Label], beta: int, ell: int):
    """All ways to pick distinct labels with positive multiplicities summing
    to ``beta`` and an ell-core of each multiplicity."""
    for u in range(1, min(beta, len(labels)) + 1):
        shapes = tuple(compositions(beta, u))
        for subset in combinations(labels, u):
            for mults in shapes:
                for lams in product(*(cores_of_size(m, ell) for m in mults)):
                    yield tuple(zip(subset, mults)), lams


def _raw_triples(kind: str, n: int, e: int, ell: int):
    """Triples before any TypeD orbit reduction, in deterministic order."""
    tags = _tag_count(kind, e)
    for exp in ell_expansions(n, ell):
        per_tier = []
        for i, beta in enumerate(exp.coeffs):
            if beta == 0:
                continue
            labels = [(k, i, j) for k in range(tags) for j in range(ell**i)]
            assignments = list(_tier_assignments(labels, beta, ell))
            per_tier.append(assignments)
        for combo in product(*per_tier):
            zeta = tuple(entry for tier_zeta, _ in combo for entry in tier_zeta)
            lam = tuple(lm for _, tier_lam in combo for lm in tier_lam)
            yield exp, zeta, lam


def _tau_image(zeta, lam, e: int):
    """Half-swap on (zeta, lam): shift the tag by e modulo 2e, re-sort in
    the canonical tier-major (i, k, j) label order used everywhere else."""
    moved = sorted(
        (
            (((k + e) % (2 * e), i, j), mult, lm)
            for ((k, i, j), mult), lm in zip(zeta, lam)
        ),
        key=_tier_major,
    )
    new_zeta = tuple((label, mult) for label, mult, _ in moved)
    new_lam = tuple(lm for _, _, lm in moved)
    return new_zeta, new_lam


def _classes(kind: str, n: int, e: int, ell: int):
    """(exp, zeta, lam, split) of each class representative of :func:`triples`."""
    for exp, zeta, lam in _raw_triples(kind, n, e, ell):
        if kind != "typed":
            yield exp, zeta, lam, None
            continue
        tau_zeta, tau_lam = _tau_image(zeta, lam, e)
        if (zeta, lam) == (tau_zeta, tau_lam):
            yield exp, zeta, lam, 0
            yield exp, zeta, lam, 1
        elif (zeta, lam) < (tau_zeta, tau_lam):
            yield exp, zeta, lam, None
        # The greater member of each swap orbit is skipped.


def triples(kind: str, n: int, e: int | None, ell: int) -> list[YoungTriple]:
    """One representative per conjugacy class of triples (Y, zeta, lam)."""
    e = _check_kind(kind, n, e, ell)
    return [
        YoungTriple(YoungPair(kind, n, e, ell, exp, zeta), lam, split)
        for exp, zeta, lam, split in _classes(kind, n, e, ell)
    ]


def triple_to_tower(triple: YoungTriple) -> TowerTuple:
    """Place lam of label (k, i, j) into slot j of row i of tower k."""
    pair = triple.pair
    ell = pair.ell
    tags = _tag_count(pair.kind, pair.e)
    depth = len(pair.expansion.coeffs)
    grids: list[list[list[Partition]]] = [
        [[() for _ in range(ell**i)] for i in range(depth)] for _ in range(tags)
    ]
    for ((k, i, j), _mult), lm in zip(pair.zeta, triple.lam):
        grids[k][i][j] = lm
    towers = []
    for grid in grids:
        rows = [tuple(row) for row in grid]
        while rows and all(entry == () for entry in rows[-1]):
            rows.pop()
        towers.append(CoreTower(ell=ell, rows=tuple(rows)))
    return TowerTuple(
        kind=pair.kind, e=pair.e, ell=ell, towers=tuple(towers), split=triple.split
    )


def tower_to_triple(kind: str, towers: TowerTuple, ell: int) -> YoungTriple:
    """The unique triple mapping to ``towers`` under :func:`triple_to_tower`."""
    if towers.kind != kind or towers.ell != ell:
        raise ValueError(
            f"tower tuple is for ({towers.kind!r}, ell={towers.ell}), "
            f"requested ({kind!r}, ell={ell})"
        )
    e = _check_kind(kind, towers.total(), towers.e, ell)
    tags = _tag_count(kind, e)
    if len(towers.towers) != tags:
        raise ValueError(f"expected {tags} towers, got {len(towers.towers)}")

    entries = []  # (label, mult, core)
    beta: Counter[int] = Counter()
    for k, tower in enumerate(towers.towers):
        if tower.ell != ell:
            raise ValueError(f"tower {k} has ell={tower.ell}, expected {ell}")
        _check_tower(tower)
        for i, row in enumerate(tower.rows):
            for j, core in enumerate(row):
                if core:
                    entries.append(((k, i, j), sum(core), core))
                    beta[i] += sum(core)
    entries.sort(key=_tier_major)
    zeta = tuple((label, mult) for label, mult, _ in entries)
    lam = tuple(core for _, _, core in entries)

    depth = max(beta) + 1 if beta else 0
    coeffs = tuple(beta.get(i, 0) for i in range(depth))
    n = sum(b * ell**i for i, b in enumerate(coeffs))
    exp = EllExpansion(ell=ell, coeffs=coeffs)

    split = towers.split
    if kind == "typed":
        tau_zeta, tau_lam = _tau_image(zeta, lam, e)
        symmetric = (zeta, lam) == (tau_zeta, tau_lam)
        if symmetric and split not in (0, 1):
            raise ValueError("symmetric TypeD tower tuple needs split bit 0 or 1")
        if not symmetric:
            if split is not None:
                raise ValueError("split bit is only allowed on symmetric classes")
            if (tau_zeta, tau_lam) < (zeta, lam):
                zeta, lam = tau_zeta, tau_lam
    elif split is not None:
        raise ValueError("split bit is only used for kind 'typed'")

    pair = YoungPair(kind=kind, n=n, e=e, ell=ell, expansion=exp, zeta=zeta)
    return YoungTriple(pair=pair, lam=lam, split=split)


# ---------------------------------------------------------------------------
# Independent verification.


def _multipartitions(n: int, parts: int):
    """All ``parts``-tuples of partitions with total size ``n``."""
    if parts == 1:
        yield from ((mu,) for mu in partitions_of(n))
        return
    for size in range(n + 1):
        for head in partitions_of(size):
            for tail in _multipartitions(n - size, parts - 1):
                yield (head,) + tail


class BijectionReport(_Value):
    __slots__ = (
        "kind", "n", "e", "ell", "count_irr", "count_triples",
        "defect_histogram_irr", "defect_histogram_triples", "passed",
    )

    def to_json_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self.__slots__}
        out["pass"] = out.pop("passed")
        for name in ("defect_histogram_irr", "defect_histogram_triples"):
            out[name] = {str(k): v for k, v in out[name]}
        return out


def _hook_defect(mus, ell: int, nus) -> int:
    """Sum of ``nus[h]`` = nu_ell(h) over the hook lengths h of the partitions
    ``mus``: on a beta-set the hooks are b - x for a bead b above a gap x."""
    return sum(
        nus[b - x]
        for beads in (frozenset(beta_set(mu, len(mu))) for mu in mus)
        for b in beads
        for x in range(b % ell, b, ell)  # only h = b - x divisible by ell count
        if x not in beads
    )


def _irr_defect_histogram(kind: str, n: int, e: int, ell: int) -> Counter:
    """Defect multiset of Irr(G) from hook lengths alone: nu_ell(n!/deg) sums
    nu_ell(h) over the hooks h (of every component for C_e wr S_n, where ell
    does not divide e; ell is odd for G(2e,2,n), so halving keeps a defect)."""
    nus = [0] + [valuation(h, ell) for h in range(1, n + 1)]
    hist: Counter[int] = Counter()
    if kind == "sym":
        for mu in partitions_of(n):
            hist[_hook_defect((mu,), ell, nus)] += 1
    elif kind == "wreath":
        for mus in _multipartitions(n, e):
            hist[_hook_defect(mus, ell, nus)] += 1
    else:  # typed: Clifford theory for G(2e,2,n) inside C_2e wr S_n
        for mus in _multipartitions(n, 2 * e):
            swapped = mus[e:] + mus[:e]
            if swapped < mus:
                continue  # one character per swap orbit, counted at the rep
            # A swap-fixed character restricts to two constituents (same
            # defect since ell is odd); a free orbit restricts to one.
            hist[_hook_defect(mus, ell, nus)] += 2 if swapped == mus else 1
    return hist


def verify_bijection(kind: str, n: int, e: int | None, ell: int) -> BijectionReport:
    """Count Irr(G) and the triples independently; compare defect histograms."""
    e = _check_kind(kind, n, e, ell)
    if n > ORACLE_BOUNDS[kind]:
        raise BoundExceededError(
            f"verify_bijection supports n <= {ORACLE_BOUNDS[kind]} "
            f"for kind {kind!r}, got {n}"
        )
    hist_triples = Counter(nu(n, exp.coeffs, ell) for exp, *_ in _classes(kind, n, e, ell))
    hist_irr = _irr_defect_histogram(kind, n, e, ell)
    passed = hist_irr == hist_triples  # counts are the histogram totals
    return BijectionReport(
        kind=kind,
        n=n,
        e=e,
        ell=ell,
        count_irr=sum(hist_irr.values()),
        count_triples=sum(hist_triples.values()),
        defect_histogram_irr=tuple(sorted(hist_irr.items())),
        defect_histogram_triples=tuple(sorted(hist_triples.items())),
        passed=passed,
    )
