"""Tests for partition combinatorics.

The core/quotient machinery is validated against an independent oracle that
removes rim hooks one cell-walk at a time, and the counting utilities against
brute-force enumeration.
"""

import math
import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from weightcomb import BoundExceededError, partitions
from weightcomb.arith import factorial_valuation, valuation
from weightcomb.partitions import (
    CoreTower,
    EllExpansion,
    _core_quotient,
    _from_core_quotient,
    as_partition,
    beta_set,
    beta_to_partition,
    compositions,
    conjugate,
    core_tower,
    cores_of_size,
    d_core,
    d_quotient,
    defect,
    degree,
    ell_expansions,
    from_core_quotient,
    from_tower,
    hook_lengths,
    hooks,
    is_d_core,
    partition_count,
    partitions_of,
)

# ---------------------------------------------------------------------------
# Independent oracle: remove rim d-hooks by walking the border.


def rim_core_oracle(mu, d):
    """d-core by repeatedly removing rim d-hooks, via first-column hooks.

    Self-contained: removing a rim d-hook replaces some first-column hook
    length x by x - d (when x - d is not already a hook length); iterate in
    arbitrary order until stuck, then decode.  This exercises a different
    path than the runner push-down used by the implementation.
    """
    b = len(mu) + d  # enough padding to expose every removal
    fch = {(mu[i] if i < len(mu) else 0) + (b - 1 - i) for i in range(b)}
    changed = True
    while changed:
        changed = False
        for x in sorted(fch):
            if x >= d and (x - d) not in fch:
                fch.discard(x)
                fch.add(x - d)
                changed = True
                break
    srt = sorted(fch, reverse=True)
    return tuple(
        v for v in (srt[i] - (b - 1 - i) for i in range(b)) if v > 0
    )


ALL_TO_9 = [mu for n in range(10) for mu in partitions_of(n)]


# ---------------------------------------------------------------------------
# Basic shape utilities.


def test_as_partition():
    assert as_partition([3, 1]) == (3, 1)
    assert as_partition(()) == ()
    with pytest.raises(ValueError):
        as_partition([1, 2])
    with pytest.raises(ValueError):
        as_partition([2, 0])


def test_partitions_of_order_and_count():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions_of(0) == ((),)
    for n in range(30):
        assert len(partitions_of(n)) == partition_count(n)


def _partitions_of_recursive(n):
    """The recursive generator ``partitions_of`` used before its iterative
    successor, kept as the reference."""

    def gen(m, maxpart):
        if m == 0:
            yield ()
            return
        for k in range(min(m, maxpart), 0, -1):
            for rest in gen(m - k, k):
                yield (k,) + rest

    return tuple(gen(n, n))


def test_partitions_of_matches_recursive_reference():
    for n in range(26):
        assert partitions_of(n) == _partitions_of_recursive(n)
    with pytest.raises(ValueError):
        partitions_of(-1)


def test_partition_count_known_values():
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176]
    assert [partition_count(n) for n in range(16)] == known
    assert partition_count(50) == 204226
    assert partition_count(-1) == 0


def test_partition_count_of_a_large_n_does_not_recurse():
    """p(1000) with no smaller value cached used to hit the recursion limit."""
    partition_count.cache_clear()
    assert partition_count(1000) == 24061467864032622473692149727991


def test_conjugate():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()
    for mu in ALL_TO_9:
        assert conjugate(conjugate(mu)) == mu
        assert sum(conjugate(mu)) == sum(mu)


def test_hook_lengths_example():
    assert hook_lengths((3, 2)) == ((4, 3, 1), (2, 1))
    assert hook_lengths((2, 1)) == ((3, 1), (1,))


def test_degree_known_values():
    assert degree(()) == 1
    assert degree((2, 1)) == 2
    assert degree((3, 1)) == 3
    assert degree((2, 2)) == 2
    assert degree((3, 2, 1)) == 16


@pytest.mark.parametrize("n", range(1, 9))
def test_degree_squares_sum_to_factorial(n):
    assert sum(degree(mu) ** 2 for mu in partitions_of(n)) == math.factorial(n)


def test_hooks_order():
    assert hooks(3) == ((3,), (2, 1), (1, 1, 1))
    assert hooks(1) == ((1,),)
    assert hooks(0) == ((),)
    assert len(hooks(9)) == 9


def test_hooks_listing_is_bounded():
    """The hooks of n hold n * n cells, at most 4,000,000 of them."""
    assert len(hooks(2000)) == 2000 and hooks(2000)[-1] == (1,) * 2000
    with pytest.raises(BoundExceededError, match="the hooks of 2001 would hold more than"):
        hooks(2001)


# ---------------------------------------------------------------------------
# Beta-sets.


def test_beta_set_round_trip():
    assert beta_set((2, 1), 3) == (4, 2, 0)
    assert beta_to_partition((4, 2, 0)) == (2, 1)
    assert beta_to_partition([0, 1, 2]) == ()
    for mu in ALL_TO_9:
        for extra in range(3):
            assert beta_to_partition(beta_set(mu, len(mu) + extra)) == mu
    with pytest.raises(ValueError):
        beta_set((2, 1), 1)
    with pytest.raises(ValueError):
        beta_to_partition((1, 1))


# ---------------------------------------------------------------------------
# Cores and quotients.


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_core_matches_rim_hook_oracle(d):
    for mu in ALL_TO_9:
        assert d_core(mu, d) == rim_core_oracle(mu, d)


def test_core_frozen_values():
    assert d_core((2, 1), 3) == ()
    assert d_core((3, 1), 2) == ()
    assert d_core((3, 1), 3) == (3, 1)  # hooks {4,2,1,1}: already a 3-core
    assert d_core((4, 2, 1), 3) == (1,)


def test_quotient_frozen_values():
    assert d_quotient((2, 1), 3) == ((), (1,), ())
    assert d_quotient((), 3) == ((), (), ())


def test_is_d_core_matches_hook_lengths():
    for mu in ALL_TO_9:
        for d in (2, 3, 5):
            no_d_hook = all(h % d for row in hook_lengths(mu) for h in row)
            assert is_d_core(mu, d) == no_d_hook


@pytest.mark.parametrize("d", [2, 3, 5])
def test_core_quotient_round_trip(d):
    for mu in ALL_TO_9:
        core = d_core(mu, d)
        quot = d_quotient(mu, d)
        assert sum(mu) == sum(core) + d * sum(sum(q) for q in quot)
        assert from_core_quotient(core, quot, d) == mu


def test_core_quotient_is_bijective():
    # Every (core, quotient) pair of the right total size arises exactly once.
    d, n = 3, 6
    seen = {}
    for mu in partitions_of(n):
        key = (d_core(mu, d), d_quotient(mu, d))
        assert key not in seen
        seen[key] = mu
    cores = [mu for m in range(0, n + 1) for mu in partitions_of(m) if is_d_core(mu, d) and (n - sum(mu)) % d == 0]
    expected = 0
    for core in cores:
        w = (n - sum(core)) // d
        expected += sum(
            math.prod(partition_count(k) for k in comp)
            for comp in _compositions(w, d)
        )
    assert len(seen) == expected == partition_count(n)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# The d-cores of one size: generated where sparse, filtered where dense.


def test_cores_of_size_matches_hook_oracle():
    """Every k <= 22 and 2 <= d <= k + 2, on both sides of the d*d <= 2k rule:
    the partitions of k with no hook length divisible by d."""
    for k in range(23):
        hooks_of = [(mu, {h for row in hook_lengths(mu) for h in row}) for mu in partitions_of(k)]
        for d in range(2, k + 3):
            expected = tuple(mu for mu, hs in hooks_of if all(h % d for h in hs))
            assert cores_of_size(k, d) == expected, (k, d)


def test_two_and_three_core_counts():
    """Counts from no enumeration: one 2-core of each triangular size and none
    of any other; the 3-cores of k number the divisors of 3k + 1 that are 1
    mod 3 minus those that are 2 mod 3 (Granville-Ono)."""
    triangular = {t * (t + 1) // 2 for t in range(12)}
    for k in range(61):
        assert len(cores_of_size(k, 2)) == (k in triangular), k
        residues = [m % 3 for m in range(1, 3 * k + 2) if (3 * k + 1) % m == 0]
        assert len(cores_of_size(k, 3)) == residues.count(1) - residues.count(2), k


def test_cores_of_size_walks_partitions_only_where_dense(monkeypatch):
    walked = []

    def counting(n):
        walked.append(n)
        return partitions_of(n)

    sparse, dense = cores_of_size(30, 7), cores_of_size(30, 8)
    monkeypatch.setattr(partitions, "partitions_of", counting)
    fresh = cores_of_size.__wrapped__  # past the cache
    assert fresh(30, 7) == sparse and walked == []  # 7 * 7 <= 60
    assert fresh(30, 8) == dense and walked == [30]  # 8 * 8 > 60
    assert fresh(5, 6) == partitions_of(5) and walked == [30, 5]  # k < d
    start = time.perf_counter()
    assert fresh(100, 2) == ()
    assert len(fresh(100, 3)) == 4
    assert time.perf_counter() - start < 1.0 and walked == [30, 5]


def test_dense_core_tables_are_bounded_like_listings():
    """Both dense branches walk every partition of k, so from k = 45 on (k * p(k)
    cells past the listing bound) they raise before enumerating; the sparse
    side has no such bound."""
    fresh = cores_of_size.__wrapped__  # past the cache
    start = time.perf_counter()
    for k, d in ((100, 50), (100, 101), (45, 10), (45, 46)):  # d * d > 2k, then k < d
        with pytest.raises(BoundExceededError, match="every partition of"):
            fresh(k, d)
    assert time.perf_counter() - start < 1.0
    assert fresh(45, 9)  # 9 * 9 <= 90: generated, with no bound
    assert fresh(44, 45) == partitions_of(44)  # 44 * p(44) is within the bound


@pytest.mark.parametrize(
    "args, message", [((-1, 2), "n must be >= 0, got -1"), ((3, 1), "d must be >= 2, got 1")]
)
def test_cores_of_size_rejects_bad_input(args, message):
    with pytest.raises(ValueError, match=message):
        cores_of_size(*args)


def test_compositions_match_cut_points():
    """A composition of t >= 1 is a set of cut points in {1, .., t-1}; the
    generator lists them in reverse lexicographic order, and with ``parts``
    the ones of that length in the same order."""
    assert list(compositions(0)) == list(compositions(0, 0)) == [()]
    assert list(compositions(0, 1)) == []
    for total in range(1, 11):
        brute = sorted(
            (
                tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))
                for k in range(total)
                for cuts in combinations(range(1, total), k)
            ),
            reverse=True,
        )
        assert list(compositions(total)) == brute, total
        for parts in range(total + 2):
            expected = [c for c in brute if len(c) == parts]
            assert list(compositions(total, parts)) == expected, (total, parts)


def test_from_core_quotient_rejects_non_core():
    with pytest.raises(ValueError):
        from_core_quotient((3,), ((), (), ()), 3)  # (3,) has a 3-hook
    with pytest.raises(ValueError):
        from_core_quotient((), ((), ()), 3)  # wrong component count


# ---------------------------------------------------------------------------
# Core towers.


def test_core_tower_frozen_example():
    t = core_tower((2, 1), 3)
    assert t.rows == (((),), ((), (1,), ()))
    assert t.row_sizes() == (0, 1)
    assert t.total() == 3


def test_core_tower_empty():
    assert core_tower((), 3).rows == ()
    assert from_tower(CoreTower(ell=3, rows=())) == ()


def test_core_tower_shape_and_round_trip():
    for ell in (2, 3, 5):
        for n in range(12):
            for mu in partitions_of(n):
                t = core_tower(mu, ell)
                for i, row in enumerate(t.rows):
                    assert len(row) == ell**i
                    assert all(is_d_core(lam, ell) for lam in row)
                if t.rows:
                    assert any(lam != () for lam in t.rows[-1])
                assert t.total() == n
                assert from_tower(t) == mu


def test_from_tower_validates():
    with pytest.raises(ValueError):
        from_tower(CoreTower(ell=3, rows=(((), ()),)))  # bad row width
    with pytest.raises(ValueError):
        from_tower(CoreTower(ell=3, rows=(((3,),),)))  # not a 3-core


# ---------------------------------------------------------------------------
# The abacus kernel against the rebuild-based reference it replaced.


def _ref_beta_set(mu, beads):
    padded = mu + (0,) * (beads - len(mu))
    return tuple(padded[i] + (beads - 1 - i) for i in range(beads))


def _ref_beta_to_partition(beta):
    b = sorted(beta, reverse=True)
    mu = tuple(b[i] - (len(b) - 1 - i) for i in range(len(b)))
    return tuple(x for x in mu if x > 0)


def _ref_runner_positions(mu, d):
    runners = [[] for _ in range(d)]
    for x in _ref_beta_set(mu, -(-len(mu) // d) * d):
        runners[x % d].append(x // d)
    for r in runners:
        r.sort()
    return runners


def ref_d_core(mu, d):
    return _ref_beta_to_partition(
        d * pos + j
        for j, r in enumerate(_ref_runner_positions(mu, d))
        for pos in range(len(r))
    )


def ref_d_quotient(mu, d):
    return tuple(_ref_beta_to_partition(r) for r in _ref_runner_positions(mu, d))


def ref_degree(mu):
    conj = tuple(sum(1 for part in mu if part > j) for j in range(mu[0] if mu else 0))
    prod = math.prod(
        mu[i] - j + conj[j] - i - 1 for i in range(len(mu)) for j in range(mu[i])
    )
    return math.factorial(sum(mu)) // prod


def ref_tower_rows(mu, ell):
    rows, frontier = [], [mu]
    while any(frontier):
        rows.append(tuple(ref_d_core(lam, ell) for lam in frontier))
        frontier = [q for lam in frontier for q in ref_d_quotient(lam, ell)]
    return tuple(rows)


def test_kernel_matches_reference():
    for n in range(17):
        for mu in partitions_of(n):
            assert degree(mu) == ref_degree(mu), mu
            for d in range(2, 8):
                core = ref_d_core(mu, d)
                assert d_core(mu, d) == core, (mu, d)
                assert d_quotient(mu, d) == ref_d_quotient(mu, d), (mu, d)
                assert is_d_core(mu, d) == (core == mu), (mu, d)
    for ell in (2, 3, 5):
        for n in range(19):
            for mu in partitions_of(n):
                tower = core_tower(mu, ell)
                assert tower.rows == ref_tower_rows(mu, ell), (mu, ell)
                assert from_tower(tower) == mu, (mu, ell)
    with pytest.raises(ValueError):
        is_d_core((1,), 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_d_core((1, 2), 3),
        lambda: from_tower(CoreTower(3, (((1, 2),),))),
        lambda: from_core_quotient((1, 2), ((), (), ()), 3),
    ],
    ids=["is_d_core", "from_tower", "from_core_quotient"],
)
def test_non_partition_core_is_rejected(call):
    """(1, 2) is not a partition, though the bead test alone would call it a
    3-core and the inverses would build (4, 2) from it."""
    with pytest.raises(ValueError, match="weakly decreasing"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: core_tower((1, 2), 3),
        lambda: core_tower((2, -1), 3),
        lambda: defect((1, 2), 3),
        lambda: defect((2, -1), 3),
        lambda: d_core((1, 2), 3),
        lambda: d_quotient((2, -1), 3),
        lambda: from_core_quotient((), ((2, -1), (), ()), 3),
    ],
    ids=[
        "core_tower-increasing",
        "core_tower-negative",
        "defect-increasing",
        "defect-negative",
        "d_core",
        "d_quotient",
        "from_core_quotient-quotient",
    ],
)
def test_non_partition_argument_is_rejected(call):
    """A non-partition used to run away (core_tower and defect of (1, 2) or
    (2, -1) allocate until the process dies) or to give a wrong answer
    (d_core((1, 2), 3) was (4, 2))."""
    with pytest.raises(ValueError, match="^partition parts must be"):
        call()


def test_list_arguments_keep_their_results():
    assert core_tower([3, 1], 2) == core_tower((3, 1), 2)
    assert defect([2, 1], 3) == 1
    assert d_core([4, 2, 1], 3) == (1,)
    assert d_quotient([2, 1], 3) == ((), (1,), ())
    assert from_core_quotient([], [[], [1], []], 3) == (2, 1)
    assert from_tower(CoreTower(2, (([1],), ([], [1])))) == (1, 1, 1)
    assert from_tower(CoreTower(2, [[[1]], [[], [1]]])) == (1, 1, 1)


# ---------------------------------------------------------------------------
# The split caches behind core_tower and from_tower.


def frontier_tower_rows(mu, ell):
    """Core tower rows by the frontier walk, on the public split alone."""
    rows, frontier = [], [mu]
    while any(frontier):
        rows.append(tuple(d_core(lam, ell) for lam in frontier))
        frontier = [q for lam in frontier for q in d_quotient(lam, ell)]
    return tuple(rows)


def frontier_from_rows(rows, ell):
    """Collapse core tower rows bottom-up with the public inverse alone."""
    level = [()] * ell ** len(rows)
    for row in reversed(rows):
        level = [
            from_core_quotient(core, level[j * ell : (j + 1) * ell], ell)
            for j, core in enumerate(row)
        ]
    return level[0]


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_towers_match_frontier_oracle(ell):
    for n in range(17):
        for mu in partitions_of(n):
            rows = frontier_tower_rows(mu, ell)
            assert core_tower(mu, ell).rows == rows, (mu, ell)
            assert from_tower(CoreTower(ell, rows)) == frontier_from_rows(rows, ell) == mu


def test_split_caches_are_bounded():
    for cache in (_core_quotient, _from_core_quotient):
        assert isinstance(cache.cache_info().maxsize, int), cache


def test_sweep_beyond_the_cache_bound_round_trips():
    """More distinct sub-partitions than either cache holds, so both evict
    while the sweep runs."""
    for cache in (_core_quotient, _from_core_quotient):
        cache.cache_clear()
    for n in range(25):
        for mu in partitions_of(n):
            tower = core_tower(mu, 2)
            assert tower.total() == n
            assert from_tower(tower) == mu
    for cache in (_core_quotient, _from_core_quotient):
        info = cache.cache_info()
        assert info.misses > info.maxsize == info.currsize, info


# ---------------------------------------------------------------------------
# Defect.


def test_defect_frozen_values():
    assert defect((2, 1), 3) == 1
    assert defect((3, 1), 3) == 0
    assert defect((), 3) == 0
    assert defect((1, 1, 1), 3) == 1
    # The valuation gap needs a prime: at ell = 4 the tower count gives 1
    # for (4, 2), where nu_4(6!) - nu_4(9) = 2.
    with pytest.raises(ValueError, match="prime"):
        defect((4, 2), 4)
    assert core_tower((4, 2), 4).total() == 6  # towers take any ell >= 2
    assert d_core((4, 2), 4) == (1, 1)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_defect_is_valuation_gap(ell):
    for n in range(11):
        for mu in partitions_of(n):
            deg = degree(mu)
            expected = factorial_valuation(n, ell) - (
                valuation(deg, ell) if deg else 0
            )
            assert defect(mu, ell) == expected


# ---------------------------------------------------------------------------
# Expansions in powers of ell.


def test_ell_expansions_frozen_values():
    assert [e.coeffs for e in ell_expansions(3, 3)] == [(3,), (0, 1)]
    assert [e.coeffs for e in ell_expansions(4, 2)] == [
        (4,),
        (2, 1),
        (0, 2),
        (0, 0, 1),
    ]
    assert [e.coeffs for e in ell_expansions(0, 5)] == [()]


@given(st.integers(min_value=0, max_value=24), st.sampled_from([2, 3, 5]))
@settings(max_examples=60, deadline=None)
def test_ell_expansions_properties(n, ell):
    exps = ell_expansions(n, ell)
    seen = set()
    for e in exps:
        assert e.total() == n
        assert all(c >= 0 for c in e.coeffs)
        assert not e.coeffs or e.coeffs[-1] > 0
        seen.add(e.coeffs)
    assert len(seen) == len(exps)
    # Brute-force recount over bounded coefficient vectors.
    width = max(1, n.bit_length())
    ranges = [range(n // ell**i + 1) for i in range(width)]
    count = sum(
        1
        for vec in product(*ranges)
        if sum(c * ell**i for i, c in enumerate(vec)) == n
    )
    assert len(exps) == count


def test_expansion_total():
    assert EllExpansion(ell=3, coeffs=(2, 0, 1)).total() == 11
