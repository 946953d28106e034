"""Value semantics of the package's record classes: immutable, hashable,
equal only to an object of the same class with equal compared fields,
constructed by position or keyword with their defaults."""

import copy
import pickle

import pytest

from weightcomb.arith import EllParams, PrimePower, _Value
from weightcomb.ffpoly import CentralScalar, FieldCtx, Poly, PolyLabel, ctx_for
from weightcomb.glblocks import (
    AFWeightLabel,
    BlockLabel,
    CountingReport,
    FracLabel,
    GenericWeightLabel,
    HookEGC,
    SemisimpleLabel,
    SeriesCharLabel,
)
from weightcomb.partitions import CoreTower, EllExpansion
from weightcomb.younggrp import (
    BijectionReport,
    TowerTuple,
    YoungPair,
    YoungTriple,
)

TRIVIAL = FracLabel(1, 1, 0)


def _s(n=1):
    return SemisimpleLabel(9, 1, 5, n, ((TRIVIAL, n),))


def _s_d1():
    """An s whose blocks have hook weights: d = 1 and multiplicity 3**0."""
    return SemisimpleLabel(4, 1, 3, 1, ((TRIVIAL, 1),))


def _poly():
    return Poly(ctx_for(3).base, (1, 1))


def _pair():
    return YoungPair("sym", 3, 1, 2, EllExpansion(2, (1, 1)), (((0, 0, 0), 1), ((0, 1, 0), 1)))


# Per value class: a builder returning a new object on each call, and one
# of its fields.
BUILDERS = {
    "PrimePower": (lambda: PrimePower(3, 2, 9), "q"),
    "EllParams": (lambda: EllParams(9, 1, 5, 3, 2), "d"),
    "CoreTower": (lambda: CoreTower(2, (((1,),),)), "rows"),
    "EllExpansion": (lambda: EllExpansion(2, (1, 1)), "coeffs"),
    "YoungPair": (_pair, "zeta"),
    "YoungTriple": (lambda: YoungTriple(_pair(), ((1,), (1,))), "split"),
    "TowerTuple": (lambda: TowerTuple("sym", 1, 2, (CoreTower(2, (((1,),),)),)), "towers"),
    "BijectionReport": (
        lambda: BijectionReport("sym", 3, 1, 2, 3, 3, ((0, 3),), ((0, 3),), True), "passed"
    ),
    "FieldCtx": (lambda: FieldCtx(3, 1, 3), "q"),
    "Poly": (_poly, "coeffs"),
    "PolyLabel": (lambda: PolyLabel(_poly(), "F0", 1), "family"),
    "CentralScalar": (lambda: CentralScalar(1, 2), "exponent"),
    "FracLabel": (lambda: FracLabel(1, 2, 1), "num"),
    "SemisimpleLabel": (_s, "assignments"),
    "SeriesCharLabel": (lambda: SeriesCharLabel(_s(), ((1,),)), "mu"),
    "BlockLabel": (lambda: BlockLabel(_s(), ((1,),)), "kappa"),
    "GenericWeightLabel": (lambda: GenericWeightLabel(_s_d1(), (1,), None), "hook"),
    "AFWeightLabel": (lambda: AFWeightLabel(_s(), 0, (), (0, ())), "psi_index"),
    "CountingReport": (lambda: CountingReport(1, 9, 1, 5, 1, 1, 1, 1, 1, True), "mismatches"),
    "HookEGC": (lambda: HookEGC("hooks", ((2,), (1, 1))), "mode"),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_equal_objects_hash_alike_and_copy(name):
    build, _ = BUILDERS[name]
    first, second = build(), build()
    assert type(first).__name__ == name
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    assert copy.copy(first) == first
    assert repr(first).startswith(name + "(") and repr(first) == repr(second)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_assignment_and_deletion_raise(name):
    build, field = BUILDERS[name]
    obj = build()
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, before)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert getattr(obj, field) is before


def test_pickle_round_trip():
    for name in ("FracLabel", "SemisimpleLabel", "BlockLabel", "YoungTriple", "AFWeightLabel"):
        obj = BUILDERS[name][0]()
        assert pickle.loads(pickle.dumps(obj)) == obj


def test_equality_is_type_exact():
    assert PrimePower(3, 1, 3) != FieldCtx(3, 1, 3)
    assert FieldCtx(3, 1, 3) != PrimePower(3, 1, 3)
    assert BlockLabel(_s(), ((1,),)) != SeriesCharLabel(_s(), ((1,),))
    assert FracLabel(1, 2, 1) != (1, 2, 1)
    assert len({PrimePower(3, 1, 3), FieldCtx(3, 1, 3)}) == 2


def test_keyword_construction_and_defaults():
    pair = _pair()
    assert YoungTriple(pair=pair, lam=((1,), (1,))).split is None
    assert YoungTriple(pair, ((1,), (1,)), 1).split == 1
    tower = CoreTower(ell=2, rows=())
    assert TowerTuple(kind="sym", e=1, ell=2, towers=(tower,)).split is None
    report = CountingReport(
        n=1, q=9, eps=1, ell=5, s_count=1, blocks_checked=1, nonempty_blocks=1,
        weights_total=1, af_total=1, passed=True,
    )
    assert report.mismatches == ()
    assert report == CountingReport(1, 9, 1, 5, 1, 1, 1, 1, 1, True, ())
    weight = AFWeightLabel(s=_s(), gamma_exp=0, c_seq=(), psi_index=(0, ()))
    assert weight == AFWeightLabel(_s(), 0, (), (0, ()))
    assert PrimePower(p=3, f=2, q=9) == PrimePower.from_q(9)
    with pytest.raises(TypeError):
        PrimePower(3, 2)
    with pytest.raises(TypeError):
        FracLabel(1, 2, num=1, den=2)


def test_frac_label_ordering():
    small, large = FracLabel(1, 2, 1), FracLabel(1, 3, 1)
    assert small < large and small <= large and small <= FracLabel(1, 2, 1)
    assert large > small and large >= small and large >= FracLabel(1, 3, 1)
    assert not large < small and not small > large
    assert sorted([FracLabel(2, 3, 1), large, small]) == [small, large, FracLabel(2, 3, 1)]
    with pytest.raises(TypeError):
        small < (1, 2, 1)
    with pytest.raises(TypeError):
        PrimePower(2, 1, 2) < PrimePower(3, 1, 3)


def test_fields_outside_comparison_stay_outside():
    s = _s(2)
    assert "params" not in repr(s) and "d_gammas" not in repr(s)


VALUE_CLASSES = sorted(_Value.__subclasses__(), key=lambda cls: cls.__name__)


def test_every_value_class_has_a_builder():
    assert [cls.__name__ for cls in VALUE_CLASSES] == sorted(BUILDERS)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_trusted_equals_and_hashes_like_the_public_constructor(cls):
    public = BUILDERS[cls.__name__][0]()
    fields = [getattr(public, name) for name in cls.__slots__]
    trusted = cls._trusted(*fields)
    assert type(trusted) is cls
    assert [getattr(trusted, name) for name in cls.__slots__] == fields
    assert trusted == public and public == trusted and not trusted != public
    assert hash(trusted) == hash(public)


def _pair_class():
    """A value class of its own, so that none of its methods is compiled yet."""

    class Pair(_Value):
        __slots__ = ("a", "b", "note")
        _args = ("a", "b")

        def __init__(self, a, b, note=None):
            self._fill(a, b, note)

    return Pair


def _answers(Pair, use):
    x, y, z = Pair(1, (2,)), Pair(1, (2,), "noted"), Pair(1, (3,))
    if use == "eq":
        return [x == y, y == x, x == z, x != y, x != z]
    if use == "hash":
        return [hash(x), hash(y), hash(z)]
    made = Pair._trusted(1, (2,), "noted")
    return [type(made), made.a, made.b, made.note, made == x]


@pytest.mark.parametrize("use", ["eq", "hash", "trusted"])
def test_first_use_compiles_and_answers_like_later_calls(use):
    Pair = _pair_class()
    compiled = {"_trusted", "__eq__", "__hash__"}
    assert not compiled & set(vars(Pair))  # nothing is compiled at class creation
    first = _answers(Pair, use)
    assert compiled <= set(vars(Pair))
    assert first == _answers(Pair, use)
    expected = {
        "eq": [True, True, False, False, True],
        "hash": [hash((1, (2,))), hash((1, (2,))), hash((1, (3,)))],
        "trusted": [Pair, 1, (2,), "noted", True],
    }
    assert first == expected[use]


def test_compiled_equality_stays_class_strict():
    Pair, Twin = _pair_class(), _pair_class()
    for _ in range(2):  # before and after the first use compiles
        assert Pair(1, (2,)) != Twin(1, (2,)) and not Pair(1, (2,)) == Twin(1, (2,))
        assert Pair(1, (2,)) != (1, (2,)) and Pair(1, (2,)) != (1, (2,), None)
        assert len({Pair(1, (2,)), Twin(1, (2,))}) == 2
