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
labels (s, kappa), the generic weights of a block, the Alperin-style weight
labels built from shapes (gamma, c-sequence) with their defect-zero index
sets, and the hook classification of generalized-cuspidal unipotent
characters in type A.  A block label holds only (s, kappa); its weights are
derived, and one cached per-divisor core table lists the valid kappa.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

from .arith import (
    EllParams,
    divisors,
    ellprime_part,
    mobius,
    multiplicative_order,
    valuation,
)
from .errors import BoundExceededError, UnsupportedRegimeError
from .partitions import (
    Partition,
    compositions,
    cores_of_size,
    d_core,
    hooks,
    partitions_of,
)

#: Enumeration bounds for the grid operations (semisimple_labels, blocks,
#: series_labels, verify_counting).  Single-block operations are not bounded.
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


@dataclass(frozen=True, order=True)
class FracLabel:
    """An elementary-divisor label: the multiply-by-(eps*q) orbit of a root
    of unity, stored by its smallest member num/den (reduced, in [0, 1))."""

    deg: int
    den: int
    num: int

    def __post_init__(self) -> None:
        if self.den < 1 or not 0 <= self.num < self.den:
            raise ValueError(f"fraction {self.num}/{self.den} is not in [0, 1)")
        if math.gcd(self.num, self.den) != 1:
            raise ValueError(f"fraction {self.num}/{self.den} is not reduced")
        if self.deg < 1:
            raise ValueError(f"degree must be >= 1, got {self.deg}")

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


def _label(num: int, den: int, step: int) -> FracLabel:
    """Canonical label of the multiply-by-step orbit through num/den."""
    g = math.gcd(num, den)
    den //= g
    orbit = _orbit(num // g % den, den, step)
    return FracLabel(len(orbit), den, min(orbit))


@lru_cache(maxsize=None)
def _is_orbit_label(deg: int, den: int, num: int, step: int) -> bool:
    """Whether FracLabel(deg, den, num) labels its multiply-by-step orbit (step a
    unit mod den, num the orbit minimum, deg its length); int keys hash fast."""
    if math.gcd(den, step) != 1:
        return False
    return _label(num, den, step) == FracLabel(deg, den, num)


def is_ellprime_label(lab: FracLabel, ell: int) -> bool:
    """Whether the label's roots have order coprime to ell."""
    return lab.den % ell != 0


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
        yield FracLabel(len(orbit), r, a)


def _degree_labels(q: int, eps: int, deg: int):
    """Yield every label of exact degree deg: the unit orbits modulo each
    r | (eps*q)**deg - 1 on which eps*q has order deg, r ascending."""
    step = eps * q
    for r in divisors(abs(step**deg - 1)):
        if (1 if r == 1 else multiplicative_order(step % r, r)) == deg:
            yield from _unit_orbit_labels(r, step)


@lru_cache(maxsize=None)
def _all_labels(q: int, eps: int, max_deg: int) -> tuple[FracLabel, ...]:
    """Every label of degree <= max_deg, sorted by (deg, den, num)."""
    return tuple(lab for m in range(1, max_deg + 1) for lab in _degree_labels(q, eps, m))


def ellprime_labels(q: int, eps: int, ell: int, max_deg: int) -> tuple[FracLabel, ...]:
    """Labels of degree <= max_deg whose roots have order coprime to ell."""
    EllParams.compute(q, eps, ell)
    return tuple(
        lab for lab in _all_labels(q, eps, max_deg) if is_ellprime_label(lab, ell)
    )


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
    labels = _degree_labels(q, eps, deg)
    ellprime = (lab for lab in labels if is_ellprime_label(lab, ell))
    return tuple(itertools.islice(ellprime, count))


# ---------------------------------------------------------------------------
# Semisimple labels.


@dataclass(frozen=True)
class SemisimpleLabel:
    """A semisimple ell'-class: distinct labels with multiplicities whose
    weighted degrees sum to n, at a fixed grid point (q, eps, ell)."""

    q: int
    eps: int
    ell: int
    n: int
    assignments: tuple[tuple[FracLabel, int], ...]

    def __post_init__(self) -> None:
        EllParams.compute(self.q, self.eps, self.ell)
        labs = [lab for lab, _ in self.assignments]
        if len(set(labs)) != len(labs):
            raise ValueError("elementary divisors must be pairwise distinct")
        if any(m < 1 for _, m in self.assignments):
            raise ValueError("multiplicities must be >= 1")
        if sorted(labs) != labs:
            raise ValueError("assignments must be sorted by label")
        for lab in labs:
            if not _is_orbit_label(lab.deg, lab.den, lab.num, self.eps * self.q):
                raise ValueError(f"{lab} of degree {lab.deg} is not an orbit label")
        total = sum(lab.deg * m for lab, m in self.assignments)
        if total != self.n:
            raise ValueError(f"degrees sum to {total}, expected n={self.n}")

    @property
    def params(self) -> EllParams:
        return EllParams.compute(self.q, self.eps, self.ell)

    @cached_property
    def d_gammas(self) -> tuple[int, ...]:
        """d_Gamma of each elementary divisor, aligned with the assignments;
        computed once per label, since every block of s reads it."""
        d_gamma = self.params.d_gamma
        return tuple(d_gamma(lab.deg) for lab, _ in self.assignments)

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "eps": self.eps,
            "ell": self.ell,
            "n": self.n,
            "s": [[str(lab), m] for lab, m in self.assignments],
        }


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


def semisimple_labels(n: int, q: int, eps: int, ell: int) -> list[SemisimpleLabel]:
    """All semisimple ell'-labels of GL_n / GU_n at the grid point."""
    _check_grid(n, q, eps, ell)
    labels = ellprime_labels(q, eps, ell, n)
    return [
        SemisimpleLabel(
            q, eps, ell, n, tuple((labels[i], m) for i, m in chosen)
        )
        for chosen in _assignments(labels, 0, n)
    ]


# ---------------------------------------------------------------------------
# Blocks and series characters.


def _core_of(mu: Partition, d: int) -> Partition:
    """d-core extended to d = 1 (where every hook is removable)."""
    return () if d == 1 else d_core(mu, d)


@dataclass(frozen=True)
class SeriesCharLabel:
    """A series character label: a semisimple label together with one
    partition of each multiplicity (aligned with s.assignments)."""

    s: SemisimpleLabel
    mu: tuple[Partition, ...]

    def __post_init__(self) -> None:
        if len(self.mu) != len(self.s.assignments):
            raise ValueError("mu must align with the assignments of s")
        for (lab, m), part in zip(self.s.assignments, self.mu):
            if sum(part) != m:
                raise ValueError(f"|mu| = {sum(part)} differs from m = {m} at {lab}")

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


@lru_cache(maxsize=None)
def _is_choice(core: Partition, m: int, d: int) -> bool:
    """Whether core is in _core_choices(m, d), decided without building the
    table (for d > m it holds every partition of m)."""
    size = sum(core)
    return size <= m and (m - size) % d == 0 and _core_of(core, d) == core


def _choices(s: SemisimpleLabel) -> list[tuple[Partition, ...]]:
    """The core table of s: the d_Gamma-cores each divisor admits in a block."""
    return [_core_choices(m, d) for (_, m), d in zip(s.assignments, s.d_gammas)]


@dataclass(frozen=True)
class BlockLabel:
    """A block label (s, kappa): per elementary divisor Gamma of s, a
    d_Gamma-core kappa_Gamma of a partition of m_Gamma (aligned with
    s.assignments), so one entry of the core table of s.  The weights are
    derived from the pair."""

    s: SemisimpleLabel
    kappa: tuple[Partition, ...]

    def __post_init__(self) -> None:
        if len(self.kappa) != len(self.s.assignments):
            raise ValueError("kappa must align with the assignments of s")
        for (lab, m), core, d in zip(self.s.assignments, self.kappa, self.s.d_gammas):
            if not _is_choice(core, m, d):
                raise ValueError(f"kappa at {lab} is not a core of a partition of {m}")

    @property
    def weights(self) -> tuple[int, ...]:
        """w_Gamma = (m_Gamma - |kappa_Gamma|) / d_Gamma per divisor."""
        return tuple(
            (m - sum(core)) // d
            for (_, m), core, d in zip(self.s.assignments, self.kappa, self.s.d_gammas)
        )

    def to_json_dict(self) -> dict:
        base = self.s.to_json_dict()
        return {
            **base,
            "kappa": [
                [str(lab), list(core)]
                for (lab, _), core in zip(self.s.assignments, self.kappa)
            ],
            "weights": list(self.weights),
        }


def blocks(n: int, q: int, eps: int, ell: int) -> list[BlockLabel]:
    """All block labels (s, kappa) at the grid point."""
    return [
        BlockLabel(s, combo)
        for s in semisimple_labels(n, q, eps, ell)
        for combo in itertools.product(*_choices(s))
    ]


def principal_block(n: int, q: int, eps: int, ell: int) -> BlockLabel:
    """The block containing the unipotent characters: s trivial with
    multiplicity n and kappa the d-core of the single-row partition."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    s = SemisimpleLabel(q, eps, ell, n, ((FracLabel(1, 1, 0), n),))
    return BlockLabel(s, (_core_of((n,), s.params.d),))


def block_irr(block: BlockLabel) -> list[SeriesCharLabel]:
    """The series characters in the block: all mu with the block's cores."""
    s = block.s
    per_gamma = []
    for (_, m), core, d in zip(s.assignments, block.kappa, s.d_gammas):
        per_gamma.append(
            tuple(mu for mu in partitions_of(m) if _core_of(mu, d) == core)
        )
    return [SeriesCharLabel(s, combo) for combo in itertools.product(*per_gamma)]


def series_labels(n: int, q: int, eps: int, ell: int) -> list[SeriesCharLabel]:
    """All series character labels at the grid point."""
    _check_grid(n, q, eps, ell)
    out: list[SeriesCharLabel] = []
    for s in semisimple_labels(n, q, eps, ell):
        per_gamma = [partitions_of(m) for _, m in s.assignments]
        out.extend(SeriesCharLabel(s, combo) for combo in itertools.product(*per_gamma))
    return out


# ---------------------------------------------------------------------------
# Weights.


def is_defect_zero(block: BlockLabel) -> bool:
    """Defect zero: all weights vanish and d != 1 (ell does not divide q - eps)."""
    return all(w == 0 for w in block.weights) and block.s.params.d != 1


def _positive_defect_case(block: BlockLabel) -> int | None:
    """The exponent delta when the block is the full series union of a
    single elementary divisor with ell-power multiplicity and ell | (q - eps);
    None otherwise."""
    s = block.s
    if s.params.d != 1 or len(s.assignments) != 1:
        return None
    _, m = s.assignments[0]
    if ellprime_part(m, s.ell) != 1:
        return None
    return valuation(m, s.ell)


@dataclass(frozen=True)
class GenericWeightLabel:
    """A generic weight: a hook partition of the multiplicity (positive
    defect case) or the block's unique series character (defect zero)."""

    s: SemisimpleLabel
    hook: Partition | None
    series: SeriesCharLabel | None

    def __post_init__(self) -> None:
        if (self.hook is None) == (self.series is None):
            raise ValueError("exactly one of hook and series must be set")
        if self.hook is not None:
            if len(self.s.assignments) != 1:
                raise ValueError("hook labels require a single elementary divisor")
            _, m = self.s.assignments[0]
            if sum(self.hook) != m or any(p != 1 for p in self.hook[1:]):
                raise ValueError(f"{self.hook} is not a hook partition of {m}")

    def to_json_dict(self) -> dict:
        if self.hook is not None:
            return {"generic": list(self.hook)}
        return {"generic": self.series.to_json_dict()}


def generic_weights(block: BlockLabel) -> tuple[GenericWeightLabel, ...]:
    """Generic weights of the block: one series label at defect zero, the
    hook partitions when ell | (q - eps) and s is a single divisor with
    ell-power multiplicity, and nothing otherwise."""
    s = block.s
    if is_defect_zero(block):
        series = SeriesCharLabel(s, block.kappa)
        return (GenericWeightLabel(s, None, series),)
    if _positive_defect_case(block) is None:
        return ()
    _, m = s.assignments[0]
    return tuple(GenericWeightLabel(s, h, None) for h in hooks(m))


@dataclass(frozen=True)
class AFWeightLabel:
    """A weight label built from a local-subgroup shape: gamma_exp copies of
    the extraspecial layer, a composition c_seq of wreath layers, and an
    index psi_index into the d_Gamma * (ell-1)**len(c_seq) defect-zero
    characters of the local quotient."""

    s: SemisimpleLabel
    gamma_exp: int
    c_seq: tuple[int, ...]
    psi_index: tuple[int, tuple[int, ...]]
    m_basic: int | None = field(default=None, compare=False)
    alpha: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.gamma_exp < 0 or any(c < 1 for c in self.c_seq):
            raise ValueError("shape parts must be a nonnegative gamma and positive c's")
        r, vec = self.psi_index
        if r < 0 or len(vec) != len(self.c_seq):
            raise ValueError("psi index must pair a residue with one value per c part")

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
    at defect zero; all shapes (gamma, c) with gamma + |c| = delta and their
    psi indices when ell | (q - eps) and s is a single divisor with
    multiplicity ell**delta; nothing otherwise."""
    s = block.s
    if is_defect_zero(block):
        return (AFWeightLabel(s, 0, (), (0, ())),)
    delta = _positive_defect_case(block)
    if delta is None:
        return ()
    lab, _ = s.assignments[0]
    ell = s.ell
    d = s.params.d
    d_gam = s.params.d_gamma(lab.deg)
    scaled = d_gam * lab.deg
    if scaled % d:
        raise AssertionError(f"d={d} does not divide d_Gamma*deg={scaled}")
    alpha = valuation(scaled // d, ell)
    m_basic = (scaled // d) // ell**alpha
    out: list[AFWeightLabel] = []
    for gamma_exp in range(delta, -1, -1):
        for c_seq in compositions(delta - gamma_exp):
            for residue in range(d_gam):
                for vec in itertools.product(range(ell - 1), repeat=len(c_seq)):
                    out.append(
                        AFWeightLabel(
                            s, gamma_exp, c_seq, (residue, vec), m_basic, alpha
                        )
                    )
    return tuple(out)


def shape_count_identity(delta: int, ell: int) -> bool:
    """Whether the shape sum over gamma + |c| = delta of (ell-1)**len(c)
    equals ell**delta."""
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    total = sum(
        (ell - 1) ** len(c_seq)
        for gamma_exp in range(delta + 1)
        for c_seq in compositions(delta - gamma_exp)
    )
    return total == ell**delta


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
        raise AssertionError(f"action changed the degree of {lab}")
    return moved


def _relabel(action, s: SemisimpleLabel, carried: tuple) -> tuple:
    """Move every elementary divisor of s by the action and re-sort, carrying
    the entry of ``carried`` aligned with each divisor."""
    params = s.params
    moved = sorted(
        ((_act_label(action, lab, params), m), entry)
        for (lab, m), entry in zip(s.assignments, carried)
    )
    new_s = SemisimpleLabel(s.q, s.eps, s.ell, s.n, tuple(p for p, _ in moved))
    return new_s, tuple(entry for _, entry in moved)


def act_on_semisimple(action, s: SemisimpleLabel) -> SemisimpleLabel:
    """Relabel every elementary divisor by the central shift (an integer
    exponent modulo q - eps) or by 'frob' (multiplication by p)."""
    return _relabel(action, s, s.assignments)[0]


def act_on_series(action, label: SeriesCharLabel) -> SeriesCharLabel:
    """Relabel the series character, carrying each partition with its divisor."""
    return SeriesCharLabel(*_relabel(action, label.s, label.mu))


def act_on_block(action, block: BlockLabel) -> BlockLabel:
    """Relabel the block, carrying each core with its divisor."""
    return BlockLabel(*_relabel(action, block.s, block.kappa))


def act_on_weight(action, label):
    """Relabel a generic or AF weight label, keeping its combinatorial data."""
    if isinstance(label, GenericWeightLabel):
        series = None if label.series is None else act_on_series(action, label.series)
        return replace(label, s=act_on_semisimple(action, label.s), series=series)
    if isinstance(label, AFWeightLabel):
        return replace(label, s=act_on_semisimple(action, label.s))
    raise ValueError(f"not a weight label: {label!r}")


def covered_blocks(block: BlockLabel) -> int:
    """Number of special-subgroup blocks covered: the count of central
    elements of ell'-order fixing the block.  Requires a block with
    nonempty weight sets (defect zero or the single-divisor ell-power case)."""
    if not is_defect_zero(block) and _positive_defect_case(block) is None:
        raise ValueError("covered-block count requires a block with nonempty weights")
    s = block.s
    z_order = s.q - s.eps
    count = 0
    for k in range(z_order):
        if (z_order // math.gcd(k, z_order)) % s.ell == 0:
            continue
        if act_on_block(k, block) == block:
            count += 1
    return count


# ---------------------------------------------------------------------------
# The counting report.


@dataclass(frozen=True)
class CountingReport:
    """Aggregate result of comparing generic and AF weight counts blockwise."""

    n: int
    q: int
    eps: int
    ell: int
    s_count: int
    blocks_checked: int
    nonempty_blocks: int
    weights_total: int
    af_total: int
    passed: bool
    mismatches: tuple[dict, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "eps": self.eps,
            "ell": self.ell,
            "s_count": self.s_count,
            "blocks_checked": self.blocks_checked,
            "nonempty_blocks": self.nonempty_blocks,
            "weights_total": self.weights_total,
            "af_total": self.af_total,
            "pass": self.passed,
            "mismatches": list(self.mismatches),
        }


def _shape_iter(degs: tuple[int, ...], counts: dict[int, int], n: int):
    """Yield shapes: tuples ((deg, multiplicity-partition), ...) with
    weighted total n and at most counts[deg] distinct divisors per degree."""

    def rec(i: int, rem: int):
        if rem == 0:
            yield ()
            return
        if i == len(degs):
            return
        d = degs[i]
        for t in range(rem // d + 1):
            if t == 0:
                yield from rec(i + 1, rem)
                continue
            for mults in partitions_of(t):
                if len(mults) > counts[d]:
                    continue
                for rest in rec(i + 1, rem - d * t):
                    yield ((d, mults),) + rest

    yield from rec(0, n)


def _shape_class_size(shape, counts: dict[int, int]) -> int:
    """Number of semisimple labels realizing the shape."""
    total = 1
    for deg, mults in shape:
        k = len(mults)
        ways = math.comb(counts[deg], k) * math.factorial(k)
        for value in set(mults):
            ways //= math.factorial(mults.count(value))
        total *= ways
    return total


def _representative_semisimple(
    shape, q: int, eps: int, ell: int, n: int
) -> SemisimpleLabel:
    pairs = []
    for deg, mults in shape:
        reps = _first_labels(q, eps, ell, deg, len(mults))
        if len(reps) < len(mults):
            raise AssertionError(f"not enough degree-{deg} labels for {mults}")
        pairs.extend(zip(reps, mults))
    return SemisimpleLabel(q, eps, ell, n, tuple(sorted(pairs)))


def verify_counting(n: int, q: int, eps: int, ell: int) -> CountingReport:
    """Check blockwise that the generic and AF weight sets have equal
    emptiness and equal cardinality across the whole grid point.

    Blocks are grouped by the shape of their semisimple label (the multiset
    of (degree, multiplicity) pairs): every quantity compared depends only
    on the shape, so one representative per shape verifies its whole class.
    """
    _check_grid(n, q, eps, ell)
    counts = {d: ellprime_label_count(q, eps, ell, d) for d in range(1, n + 1)}
    degs = tuple(d for d in range(1, n + 1) if counts[d] > 0)
    s_count = 0
    blocks_checked = 0
    nonempty = 0
    weights_total = 0
    af_total = 0
    mismatches: list[dict] = []

    for shape in _shape_iter(degs, counts, n):
        class_size = _shape_class_size(shape, counts)
        s_count += class_size
        rep_s = _representative_semisimple(shape, q, eps, ell, n)
        per_gamma = _choices(rep_s)
        blocks_per_s = math.prod(len(choices) for choices in per_gamma)
        blocks_checked += class_size * blocks_per_s

        def record(rep_block: BlockLabel, copies: int) -> None:
            nonlocal nonempty, weights_total, af_total
            gen = generic_weights(rep_block)
            af = af_weights(rep_block)
            if len(gen) != len(af):
                mismatches.append(
                    {
                        "block": rep_block.to_json_dict(),
                        "generic": len(gen),
                        "af": len(af),
                        "class_size": copies,
                    }
                )
            if gen:
                nonempty += copies
                weights_total += copies * len(gen)
                af_total += copies * len(af)

        # Defect-zero blocks: independently pick a core of full size for
        # every divisor; any such representative verifies its whole class.
        full_cores = [
            tuple(core for core in choices if sum(core) == m)
            for choices, (_, m) in zip(per_gamma, rep_s.assignments)
        ]
        zero_blocks = math.prod(len(f) for f in full_cores)
        if zero_blocks:
            rep_block = BlockLabel(rep_s, tuple(f[0] for f in full_cores))
            record(rep_block, class_size * zero_blocks)

        # Positive-weight blocks: both weight sets are empty unless ell
        # divides q - eps, where d_Gamma = 1 leaves one block per label.
        # Verify one representative when any exists: the choices ascend in
        # size, so the smallest cores give a block of positive weight.
        if blocks_per_s > zero_blocks:
            rep_block = BlockLabel(rep_s, tuple(ch[0] for ch in per_gamma))
            record(rep_block, class_size * (blocks_per_s - zero_blocks))

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


@dataclass(frozen=True)
class HookEGC:
    """Outcome of the unipotent classification: mode 'hooks' lists the n
    hook partitions, mode 'all' lists every partition of n, mode 'none' is
    empty."""

    mode: str
    partitions: tuple[Partition, ...]

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
        return HookEGC("all", partitions_of(n))
    # d = 1 exactly when ell (4 for ell = 2) divides eps*q - 1, i.e. q - eps.
    if params.d == 1 and ellprime_part(n, ell) == 1:
        return HookEGC("hooks", hooks(n))
    return HookEGC("none", ())
