"""Blocks and weights of finite general linear and unitary groups.

Semisimple classes of GL_n(q) (eps = +1) and GU_n(q) (eps = -1) are encoded
by their elementary divisors.  An elementary divisor is represented here by
a root label: the orbit of a fraction a/r (standing for a primitive r-th
root of unity in the algebraic closure) under multiplication by eps*q.  The
orbit size is the degree of the divisor.  This representation keeps the
whole enumeration grid tractable and turns the central and Frobenius
actions into integer arithmetic on numerators: the central character z
shifts a label by k/(q - eps), the field automorphism multiplies it by p,
and the image is found by walking the new numerator's orbit modulo its
denominator.

On top of the labels the module enumerates Lusztig series characters, block
labels (s, kappa), the generic weights of a block, its Alperin-style weight
labels (slots: a shape (gamma, c-sequence) with gamma + |c| = delta, a
residue r < d_Gamma and one psi entry below ell - 1 per c part), and the
hook classification of generalized-cuspidal unipotent characters in type A.
A block label holds only (s, kappa); its weights are derived, and one cached
per-divisor core table lists the valid kappa.  One walk over that table
yields the blocks of s, for :func:`blocks` and for :func:`verify_counting`,
which checks every block of one s per shape class.
d_Gamma = 1 takes the abacus path of every other d: one runner, empty core.

Values are checked once, where they enter: the public constructors check
their arguments, and whatever the module derives from values it built or
checked (enumerated labels and blocks, action images, weights) is built
unchecked, through ``_Value._trusted``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, total_ordering
from operator import itemgetter

from .arith import (
    EllParams,
    _order_of_power,
    _Value,
    divisors,
    ellprime_part,
    mobius,
    multiplicative_order,
    valuation,
)
from .errors import BoundExceededError, UnsupportedRegimeError
from .partitions import (
    Partition,
    _check_listing,
    _core_quotient,
    _is_d_core,
    as_partition,
    compositions,
    cores_of_size,
    hooks,
    partitions_of,
)

#: Enumeration bounds for the grid operations (semisimple_labels, blocks,
#: verify_counting).  Single-block operations are not bounded.
GRID_MAX_N = 6
GRID_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)
GRID_ELLS = (2, 3, 5, 7)


def _check_grid(n: int, q: int, eps: int, ell: int) -> EllParams:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > GRID_MAX_N:
        raise BoundExceededError(f"n={n} exceeds the enumeration bound {GRID_MAX_N}")
    if q not in GRID_PRIME_POWERS:
        raise BoundExceededError(f"q={q} outside the supported set {GRID_PRIME_POWERS}")
    if ell not in GRID_ELLS:
        raise BoundExceededError(f"ell={ell} outside the supported set {GRID_ELLS}")
    return EllParams.compute(q, eps, ell)


def grid_points(n_max: int) -> list[tuple[int, int, int, int]]:
    """The grid points (n, q, eps, ell) with n <= n_max that EllParams accepts."""
    points = []
    for n in range(1, n_max + 1):
        for q in GRID_PRIME_POWERS:
            for eps in (1, -1):
                for ell in GRID_ELLS:
                    try:
                        EllParams.compute(q, eps, ell)
                    except ValueError:
                        continue  # the parameter rules reject the point
                    points.append((n, q, eps, ell))
    return points


# ---------------------------------------------------------------------------
# Root labels.


@total_ordering
class FracLabel(_Value):
    """An elementary-divisor label: the multiply-by-(eps*q) orbit of a root
    of unity, stored by its smallest member num/den (reduced, in [0, 1))."""

    __slots__ = ("deg", "den", "num")

    def __init__(self, deg: int, den: int, num: int):
        if den < 1 or not 0 <= num < den:
            raise ValueError(f"fraction {num}/{den} is not in [0, 1)")
        if math.gcd(num, den) != 1:
            raise ValueError(f"fraction {num}/{den} is not reduced")
        if deg < 1:
            raise ValueError(f"degree must be >= 1, got {deg}")
        self._fill(deg, den, num)

    def __lt__(self, other):
        if other.__class__ is FracLabel:
            return (self.deg, self.den, self.num) < (other.deg, other.den, other.num)
        return NotImplemented

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def _orbit(a: int, den: int, step: int) -> list[int]:
    """The multiply-by-step orbit of the numerator ``a`` modulo ``den``,
    starting at ``a`` (step a unit modulo den)."""
    out = [a]
    b = a * step % den
    while b != a:
        out.append(b)
        b = b * step % den
    return out


@lru_cache(maxsize=4096)  # ~1.4 MB full; both actions on all of (4, 9, +, 5) take 1,139
def _label(num: int, den: int, step: int) -> FracLabel:
    """Canonical label of the multiply-by-step orbit through num/den."""
    g = math.gcd(num, den)
    den //= g
    if math.gcd(step, den) != 1:  # the orbit would never close
        raise AssertionError(f"step {step} is not a unit modulo {den}")
    orbit = _orbit(num // g % den, den, step)
    return FracLabel._trusted(len(orbit), den, min(orbit))


def _unit_orbit_labels(r: int, step: int):
    """Yield the label of every multiply-by-step orbit of units modulo r,
    by ascending smallest numerator."""
    seen = bytearray(r)
    for a in range(r):
        if seen[a] or math.gcd(a, r) != 1:
            continue
        orbit = _orbit(a, r, step)
        for b in orbit:
            seen[b] = 1
        yield FracLabel._trusted(len(orbit), r, a)


def _degree_labels(q: int, eps: int, deg: int, ell: int):
    """Yield every ell'-label of exact degree deg: the unit orbits modulo each
    r | (eps*q)**deg - 1 on which eps*q has order deg, r ascending.  A
    divisor r with ell | r is skipped before its orbits are walked, since
    every label modulo r has roots of order r."""
    step = eps * q
    for r in divisors(abs(step**deg - 1)):
        if r % ell and (1 if r == 1 else multiplicative_order(step % r, r)) == deg:
            yield from _unit_orbit_labels(r, step)


def ellprime_labels(q: int, eps: int, ell: int, max_deg: int) -> tuple[FracLabel, ...]:
    """Labels of degree <= max_deg with roots of order prime to ell, by (deg, den, num)."""
    EllParams.compute(q, eps, ell)
    return tuple(lab for m in range(1, max_deg + 1) for lab in _degree_labels(q, eps, m, ell))


@lru_cache(maxsize=None)
def ellprime_label_count(q: int, eps: int, ell: int, deg: int) -> int:
    """Number of degree-``deg`` labels with roots of order coprime to ell,
    by Moebius inversion over the fixed-point counts of (eps*q)-multiplication."""
    EllParams.compute(q, eps, ell)
    total = sum(
        mobius(deg // m) * ellprime_part((eps * q) ** m - 1, ell)
        for m in divisors(deg)
    )
    if total % deg:
        raise AssertionError(f"orbit count {total} not divisible by degree {deg}")
    return total // deg


@lru_cache(maxsize=None)
def _first_labels(q: int, eps: int, ell: int, deg: int, count: int) -> tuple[FracLabel, ...]:
    """The first ``count`` ell-prime labels of exact degree ``deg`` in
    canonical order; stops early, and is cached since shapes repeat them."""
    return tuple(itertools.islice(_degree_labels(q, eps, deg, ell), count))


# ---------------------------------------------------------------------------
# Semisimple labels.


class SemisimpleLabel(_Value):
    """A semisimple class: distinct labels with multiplicities whose
    weighted degrees sum to n, at a fixed grid point (q, eps, ell).
    :func:`semisimple_labels` yields ell'-classes only, but the actions may
    leave that set (a central shift of ell-power order), so a label whose
    roots have order divisible by ell is accepted.  Its blocks have no weights
    at d != 1, but at d = 1 the weight listers do not check that s is ell'.
    ``params`` is the validated (q, eps, ell) and ``d_gammas`` holds d_Gamma
    of each elementary divisor, aligned with the assignments; both are
    derived at construction, since every block of s reads them, and take no
    part in repr, equality or hashing.  The constructor checks, in this order,
    a valid (q, eps, ell), distinct divisors, multiplicities >= 1, sorted
    divisors, orbit labels and the degree sum; the labels the module
    enumerates or moves by an action skip the checks, and take d_Gamma from
    the label table or from the label they were moved from."""

    __slots__ = ("q", "eps", "ell", "n", "assignments", "params", "d_gammas")
    _args = __slots__[:5]

    def __init__(self, q: int, eps: int, ell: int, n: int, assignments: tuple):
        params = EllParams.compute(q, eps, ell)
        labels = [lab for lab, _ in assignments]
        if len(set(labels)) < len(labels):
            raise ValueError("elementary divisors must be pairwise distinct")
        if any(m < 1 for _, m in assignments):
            raise ValueError("multiplicities must be >= 1")
        if not all(a < b for a, b in zip(labels, labels[1:])):
            raise ValueError("assignments must be sorted by label")
        step = eps * q
        for lab in labels:
            # gcd first: the orbit walk never closes when den shares a factor with q
            if math.gcd(lab.den, step) != 1 or _label(lab.num, lab.den, step) != lab:
                raise ValueError(f"{lab} of degree {lab.deg} is not an orbit label")
        total = sum(lab.deg * m for lab, m in assignments)
        if total != n:
            raise ValueError(f"degrees sum to {total}, expected n={n}")
        self._fill(q, eps, ell, n, assignments, params, _d_gammas(params, assignments))

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "eps": self.eps,
            "ell": self.ell,
            "n": self.n,
            "s": [[str(lab), m] for lab, m in self.assignments],
        }


def _d_gammas(params: EllParams, assignments: tuple) -> tuple[int, ...]:
    """d_Gamma of each elementary divisor, aligned with the assignments."""
    return tuple(params.d_gamma(lab.deg) for lab, _ in assignments)


def _assignments(labels: tuple[FracLabel, ...], start: int, remaining: int):
    """Yield tuples ((index, multiplicity), ...) over distinct labels with
    index >= start, multiplicities >= 1, total weighted degree = remaining."""
    if remaining == 0:
        yield ()
        return
    for idx in range(start, len(labels)):
        deg = labels[idx].deg
        if deg > remaining:
            break  # labels are sorted by degree first
        for mult in range(remaining // deg, 0, -1):
            for rest in _assignments(labels, idx + 1, remaining - mult * deg):
                yield ((idx, mult),) + rest


def _semisimple_stream(n: int, params: EllParams):
    """Yield the semisimple ell'-labels of GL_n / GU_n at a checked grid point,
    built unchecked with d_Gamma read from one list aligned with the labels."""
    q, eps, ell = params.q, params.eps, params.ell
    labels = ellprime_labels(q, eps, ell, n)
    d_gammas = [params.d_gamma(lab.deg) for lab in labels]
    for chosen in _assignments(labels, 0, n):
        yield SemisimpleLabel._trusted(
            q, eps, ell, n, tuple((labels[i], m) for i, m in chosen), params,
            tuple(d_gammas[i] for i, _ in chosen),
        )


def semisimple_labels(n: int, q: int, eps: int, ell: int) -> list[SemisimpleLabel]:
    """All semisimple ell'-labels of GL_n / GU_n at the grid point, as a list."""
    return list(_semisimple_stream(n, _check_grid(n, q, eps, ell)))


# ---------------------------------------------------------------------------
# Blocks and series characters.


class SeriesCharLabel(_Value):
    """A series character label: a semisimple label together with one
    partition of each multiplicity (aligned with s.assignments)."""

    __slots__ = ("s", "mu")

    def __init__(self, s: SemisimpleLabel, mu: tuple[Partition, ...]):
        if len(mu) != len(s.assignments):
            raise ValueError("mu must align with the assignments of s")
        for (lab, m), part in zip(s.assignments, mu):
            hash(part)  # a label is hashed with its mu: refuse a list at once
            if sum(as_partition(part)) != m:
                raise ValueError(f"|mu| = {sum(part)} differs from m = {m} at {lab}")
        self._fill(s, mu)

    def to_json_dict(self) -> dict:
        return {
            "s": self.s.to_json_dict(),
            "mu": [
                [str(lab), list(part)]
                for (lab, _), part in zip(self.s.assignments, self.mu)
            ],
        }


@lru_cache(maxsize=None)
def _core_choices(m: int, d: int) -> tuple[Partition, ...]:
    """All d-cores arising as the d-core of a partition of m: the d-cores of
    size congruent to m mod d, sizes ascending."""
    if d == 1:
        return ((),)
    sizes = range(m % d, m + 1, d)
    return tuple(mu for size in sizes for mu in cores_of_size(size, d))


class BlockLabel(_Value):
    """A block label (s, kappa): per elementary divisor Gamma of s, a
    d_Gamma-core kappa_Gamma of a partition of m_Gamma (aligned with
    s.assignments), so one entry of the core table of s.  The weights are
    derived from the pair."""

    __slots__ = ("s", "kappa")

    def __init__(self, s: SemisimpleLabel, kappa: tuple[Partition, ...]):
        if len(kappa) != len(s.assignments):
            raise ValueError("kappa must align with the assignments of s")
        for (lab, m), core, d in zip(s.assignments, kappa, s.d_gammas):
            hash(core)  # a block is hashed with its kappa: refuse a list at once
            mu = as_partition(core)
            size = sum(mu)
            # the core table's rule, without the table (all of p(m) for d > m)
            if size > m or (m - size) % d or not _is_d_core(mu, d):
                raise ValueError(f"kappa at {lab} is not a core of a partition of {m}")
        self._fill(s, kappa)

    @property
    def weights(self) -> tuple[int, ...]:
        """w_Gamma = (m_Gamma - |kappa_Gamma|) / d_Gamma per divisor."""
        return tuple(
            (m - sum(core)) // d
            for (_, m), core, d in zip(self.s.assignments, self.kappa, self.s.d_gammas)
        )

    def to_json_dict(self) -> dict:
        s = self.s
        kappa = [[str(lab), list(core)] for (lab, _), core in zip(s.assignments, self.kappa)]
        return {**s.to_json_dict(), "kappa": kappa, "weights": list(self.weights)}


def _blocks_of(s: SemisimpleLabel):
    """Yield every block (s, kappa) of s, kappa running over the product of
    the core table of s: the d_Gamma-cores each divisor admits in a block."""
    table = [_core_choices(m, d) for (_, m), d in zip(s.assignments, s.d_gammas)]
    for kappa in itertools.product(*table):
        yield BlockLabel._trusted(s, kappa)


def _block_stream(n: int, q: int, eps: int, ell: int):
    """The blocks of the grid point, checked now and enumerated as they are
    read: every semisimple label in turn, each with its blocks."""
    params = _check_grid(n, q, eps, ell)
    return (b for s in _semisimple_stream(n, params) for b in _blocks_of(s))


def blocks(n: int, q: int, eps: int, ell: int) -> list[BlockLabel]:
    """All block labels (s, kappa) at the grid point, as a list of the stream."""
    return list(_block_stream(n, q, eps, ell))


def principal_block(n: int, q: int, eps: int, ell: int) -> BlockLabel:
    """The block containing the unipotent characters: s trivial with
    multiplicity n and kappa the d-core of the single-row partition."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    s = SemisimpleLabel(q, eps, ell, n, ((FracLabel(1, 1, 0), n),))
    return BlockLabel._trusted(s, (_core_quotient((n,), s.params.d)[0],))


def block_irr(block: BlockLabel) -> list[SeriesCharLabel]:
    """The series characters in the block: all mu with the block's cores."""
    s = block.s
    per_gamma = []
    for (_, m), core, d in zip(s.assignments, block.kappa, s.d_gammas):
        per_gamma.append(
            tuple(mu for mu in partitions_of(m) if _core_quotient(mu, d)[0] == core)
        )
    return [SeriesCharLabel._trusted(s, combo) for combo in itertools.product(*per_gamma)]


# ---------------------------------------------------------------------------
# Weights.


def is_defect_zero(block: BlockLabel) -> bool:
    """Defect zero: all weights vanish and d != 1 (ell does not divide q - eps)."""
    return block.s.params.d != 1 and all(w == 0 for w in block.weights)


def _positive_defect_case(s: SemisimpleLabel) -> int | None:
    """The exponent delta when ell | (q - eps) and s is a single elementary
    divisor of multiplicity ell**delta, so that its blocks have hook weights;
    None otherwise."""
    if s.params.d != 1 or len(s.assignments) != 1:
        return None
    _, m = s.assignments[0]
    if ellprime_part(m, s.ell) != 1:
        return None
    return valuation(m, s.ell)


class GenericWeightLabel(_Value):
    """A generic weight of a block: a hook partition of the multiplicity
    (positive defect case), or hook None for the block's unique series
    character (defect zero).  The constructor takes exactly what
    :func:`generic_weights` lists for the block."""

    __slots__ = ("block", "hook")

    def __init__(self, block: BlockLabel, hook: Partition | None):
        self._fill(block, hook)
        if self not in generic_weights(block):
            raise ValueError(f"the block lists no generic weight with hook {hook}")

    def to_json_dict(self) -> dict:
        if self.hook is not None:
            return {"generic": list(self.hook)}
        series = SeriesCharLabel._trusted(self.block.s, self.block.kappa)  # mu = kappa
        return {"generic": series.to_json_dict()}


def generic_weights(block: BlockLabel) -> tuple[GenericWeightLabel, ...]:
    """Generic weights of the block: the series weight at defect zero, the
    hook partitions when ell | (q - eps) and s is a single divisor with
    ell-power multiplicity, and nothing otherwise."""
    if is_defect_zero(block):
        return (GenericWeightLabel._trusted(block, None),)
    if _positive_defect_case(block.s) is None:
        return ()
    _, m = block.s.assignments[0]
    return tuple(GenericWeightLabel._trusted(block, h) for h in hooks(m))


def _shapes(delta: int):
    """Yield the shapes (gamma, c_seq) with gamma + |c_seq| = delta: gamma
    descending, then c_seq over the compositions of delta - gamma."""
    for gamma in range(delta, -1, -1):
        for c_seq in compositions(delta - gamma):
            yield gamma, c_seq


def _slots(d_gamma: int, delta: int, ell: int):
    """Yield the d_gamma * ell**delta slots (gamma, c_seq, (residue, psi)) of
    level delta: per shape, each residue below d_gamma, then each psi holding
    one entry in range(ell - 1) per c part."""
    for gamma, c_seq in _shapes(delta):
        for residue in range(d_gamma):
            for psi in itertools.product(range(ell - 1), repeat=len(c_seq)):
                yield gamma, c_seq, (residue, psi)


class AFWeightLabel(_Value):
    """An Alperin-style weight label of a block: a slot (gamma_exp, c_seq,
    psi_index) naming gamma_exp copies of the extraspecial layer, a
    composition c_seq of wreath layers and one of the d_Gamma *
    (ell-1)**len(c_seq) defect-zero characters psi_index = (residue, psi) of
    the local quotient.  The constructor takes exactly what
    :func:`af_weights` lists for the block."""

    __slots__ = ("block", "gamma_exp", "c_seq", "psi_index")

    def __init__(self, block: BlockLabel, gamma_exp: int, c_seq: tuple, psi_index: tuple):
        hash((c_seq, psi_index))  # a label is hashed with its slot: refuse a list at once
        self._fill(block, gamma_exp, c_seq, psi_index)
        if self not in af_weights(block):
            raise ValueError(f"the block lists no AF weight {(gamma_exp, c_seq, psi_index)}")

    def to_json_dict(self) -> dict:
        return {
            "af": {
                "gamma": self.gamma_exp,
                "c_seq": list(self.c_seq),
                "psi_index": [self.psi_index[0], list(self.psi_index[1])],
            }
        }


def af_weights(block: BlockLabel) -> tuple[AFWeightLabel, ...]:
    """Alperin-style weight labels of the block: the trivial-subgroup label
    at defect zero; every slot of level delta when ell | (q - eps) and s is
    a single divisor with multiplicity ell**delta; nothing otherwise."""
    if is_defect_zero(block):
        return (AFWeightLabel._trusted(block, 0, (), (0, ())),)
    s = block.s
    delta = _positive_defect_case(s)
    if delta is None:
        return ()
    slots = _slots(s.d_gammas[0], delta, s.ell)
    return tuple(AFWeightLabel._trusted(block, *slot) for slot in slots)


def shape_count_identity(delta: int, ell: int) -> bool:
    """Whether the shape sum over gamma + |c| = delta of (ell-1)**len(c)
    equals ell**delta, the number of slots of level delta at d_Gamma = 1."""
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    return sum((ell - 1) ** len(c_seq) for _, c_seq in _shapes(delta)) == ell**delta


# ---------------------------------------------------------------------------
# Actions.


def _act_label(action, lab: FracLabel, params: EllParams) -> FracLabel:
    q, eps = params.q, params.eps
    if action == "frob":
        num, den = lab.num * params.p, lab.den
    elif isinstance(action, int):
        num, den = lab.num * (q - eps) + action * lab.den, lab.den * (q - eps)
    else:
        raise ValueError(f"action must be an integer or 'frob', got {action!r}")
    moved = _label(num, den, eps * q)
    if moved.deg != lab.deg:
        raise AssertionError(
            f"action changed the degree of {lab} from {lab.deg} to {moved.deg}"
        )
    return moved


def _relabel(action, s: SemisimpleLabel, carried: tuple) -> tuple:
    """Move every elementary divisor of s by the action and re-sort by image,
    carrying its multiplicity, its d_Gamma (an action keeps degrees) and the
    entry of ``carried`` aligned with it."""
    params = s.params
    moved = [
        (_act_label(action, lab, params), m, d, entry)
        for (lab, m), d, entry in zip(s.assignments, s.d_gammas, carried)
    ]
    if len(moved) > 1:
        moved.sort(key=itemgetter(0))  # the action is injective: images never tie
    images, mults, d_gammas, entries = zip(*moved)
    new_s = SemisimpleLabel._trusted(
        params.q, params.eps, params.ell, s.n, tuple(zip(images, mults)), params, d_gammas
    )
    return new_s, entries


def act_on_semisimple(action, s: SemisimpleLabel) -> SemisimpleLabel:
    """Relabel every elementary divisor by the central shift (an integer
    exponent modulo q - eps) or by 'frob' (multiplication by p)."""
    return _relabel(action, s, s.assignments)[0]


def act_on_series(action, label: SeriesCharLabel) -> SeriesCharLabel:
    """Relabel the series character, carrying each partition with its divisor."""
    return SeriesCharLabel._trusted(*_relabel(action, label.s, label.mu))


def act_on_block(action, block: BlockLabel) -> BlockLabel:
    """Relabel the block, carrying each core with its divisor."""
    return BlockLabel._trusted(*_relabel(action, block.s, block.kappa))


def act_on_weight(action, label):
    """Relabel a generic or AF weight label: move its block, keep its slot."""
    if not isinstance(label, (GenericWeightLabel, AFWeightLabel)):
        raise ValueError(f"not a weight label: {label!r}")
    block, *slot = (getattr(label, name) for name in label._args)
    return type(label)._trusted(act_on_block(action, block), *slot)


def covered_blocks(block: BlockLabel) -> int:
    """Number of special-subgroup blocks covered: the count of central
    elements of ell'-order fixing the block.  Requires a block with
    nonempty weight sets."""
    if not generic_weights(block):
        raise ValueError("covered-block count requires a block with nonempty weights")
    z_order = block.s.q - block.s.eps
    return sum(
        1
        for k in range(z_order)
        if _order_of_power(z_order, k) % block.s.ell and act_on_block(k, block) == block
    )


# ---------------------------------------------------------------------------
# The counting report.


class CountingReport(_Value):
    """Aggregate result of comparing generic and AF weight counts blockwise."""

    __slots__ = (
        "n", "q", "eps", "ell", "s_count", "blocks_checked", "nonempty_blocks",
        "weights_total", "af_total", "passed", "mismatches",
    )

    def to_json_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self.__slots__}
        out["pass"] = out.pop("passed")
        out["mismatches"] = list(self.mismatches)
        return out


def _shape_classes(n: int, params: EllParams):
    """Yield ``(class_size, s)`` once per shape of a semisimple ell'-label
    (its multiset of (degree, multiplicity) pairs).  s takes the first labels
    of each degree, so its pairs come sorted: degrees ascend, and
    :func:`_first_labels` keeps label order.  class_size counts the labels of
    the shape from the Moebius count per degree.  At each degree, skipping it
    comes first, then t = 1, 2, ... and each multiplicity partition of t."""
    q, eps, ell = params.q, params.eps, params.ell

    def rec(deg: int, rem: int, size: int, pairs: tuple):
        if rem == 0:
            d_gammas = _d_gammas(params, pairs)
            yield size, SemisimpleLabel._trusted(q, eps, ell, n, pairs, params, d_gammas)
            return
        if deg > rem:
            return
        yield from rec(deg + 1, rem, size, pairs)
        count = ellprime_label_count(q, eps, ell, deg)
        for t in range(1, rem // deg + 1):
            for mults in partitions_of(t):
                k = len(mults)
                if k > count:
                    continue
                repeats = (math.factorial(mults.count(v)) for v in set(mults))
                ways = math.perm(count, k) // math.prod(repeats)
                reps = _first_labels(q, eps, ell, deg, k)
                if len(reps) < k:
                    raise AssertionError(
                        f"not enough degree-{deg} labels for {mults}: "
                        f"need {k}, found {len(reps)}"
                    )
                rest = rem - deg * t
                yield from rec(deg + 1, rest, size * ways, pairs + tuple(zip(reps, mults)))

    return rec(1, n, 1, ())


def verify_counting(n: int, q: int, eps: int, ell: int) -> CountingReport:
    """Check blockwise that the generic and AF weight sets have equal
    emptiness and equal cardinality across the whole grid point.

    Blocks are grouped by the shape of their semisimple label (the multiset
    of (degree, multiplicity) pairs).  The core table and every weight count
    depend only on the shape of s, not on which labels realize it, so every
    block of each representative s that :func:`_shape_classes` yields is
    checked and counts ``class_size`` times.
    A mismatch entry names one representative block and its ``class_size``.
    """
    params = _check_grid(n, q, eps, ell)
    s_count = 0
    blocks_checked = 0
    nonempty = 0
    weights_total = 0
    af_total = 0
    mismatches: list[dict] = []

    for class_size, s in _shape_classes(n, params):
        s_count += class_size
        for block in _blocks_of(s):
            blocks_checked += class_size
            gen = generic_weights(block)
            af = af_weights(block)
            if len(gen) != len(af):
                mismatches.append(
                    {
                        "block": block.to_json_dict(),
                        "generic": len(gen),
                        "af": len(af),
                        "class_size": class_size,
                    }
                )
            if gen:
                nonempty += class_size
                weights_total += class_size * len(gen)
                af_total += class_size * len(af)

    return CountingReport(
        n,
        q,
        eps,
        ell,
        s_count,
        blocks_checked,
        nonempty,
        weights_total,
        af_total,
        not mismatches,
        tuple(mismatches),
    )


# ---------------------------------------------------------------------------
# Hook classification of generalized-cuspidal unipotent characters.


class HookEGC(_Value):
    """Outcome of the unipotent classification: mode 'hooks' lists the n
    hook partitions, mode 'all' lists every partition of n, mode 'none' is
    empty."""

    __slots__ = ("mode", "partitions")

    def to_json_dict(self) -> dict:
        return {"mode": self.mode, "partitions": [list(p) for p in self.partitions]}


def unipotent_hook_eGC(n: int, q: int, eps: int, ell: int) -> HookEGC:
    """Classify which unipotent characters are generalized e-cuspidal: the
    hook partitions when ell divides q - eps (4 divides q - eps for ell = 2)
    and n is a power of ell; every partition when ell = 2 and 4 divides
    q + eps; nothing otherwise."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    try:
        params = EllParams.compute(q, eps, ell)
    except UnsupportedRegimeError:
        # ell = 2 with 4 not dividing q - eps: q is odd, so 4 | q + eps.
        _check_listing(n, every=True)
        return HookEGC("all", partitions_of(n))
    # d = 1 exactly when ell (4 for ell = 2) divides eps*q - 1, i.e. q - eps.
    if params.d == 1 and ellprime_part(n, ell) == 1:
        return HookEGC("hooks", hooks(n))
    return HookEGC("none", ())
