"""Value semantics of the package's value classes: immutable, hashable,
equal only to an object of the same class with equal compared fields,
constructed by position or keyword with their defaults.  A record (a class
with nothing to check or default) writes no ``__init__`` and takes its
``__slots__`` like a signature; a class compiles at its first construction,
including one by pickle or copy."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

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
    """An s whose block ((),) has hook weights: d = 1 and multiplicity 3**0."""
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
    "GenericWeightLabel": (lambda: GenericWeightLabel(BlockLabel(_s_d1(), ((),)), (1,)), "hook"),
    "AFWeightLabel": (
        lambda: AFWeightLabel(BlockLabel(_s(), ((1,),)), 0, (), (0, ())), "psi_index"
    ),
    "CountingReport": (
        lambda: CountingReport(1, 9, 1, 5, 1, 1, 1, 1, 1, True, mismatches=()), "mismatches"
    ),
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
    assert copy.copy(first) == first and copy.deepcopy(first) == first
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
        weights_total=1, af_total=1, passed=True, mismatches=(),
    )
    assert report == CountingReport(1, 9, 1, 5, 1, 1, 1, 1, 1, True, ())
    block = BlockLabel(_s(), ((1,),))  # defect zero: d = 2 and (1) is a 2-core
    weight = AFWeightLabel(block=block, gamma_exp=0, c_seq=(), psi_index=(0, ()))
    assert weight == AFWeightLabel(block, 0, (), (0, ()))
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


# The classes with nothing to check or default: their constructor is the
# compiled _fill, which takes every slot.
RECORDS = {
    "PrimePower", "EllParams", "CoreTower", "EllExpansion", "YoungPair",
    "BijectionReport", "FieldCtx", "PolyLabel", "HookEGC", "CountingReport",
}


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_position_and_keyword_build_equal_objects(cls):
    public = BUILDERS[cls.__name__][0]()
    values = [getattr(public, name) for name in cls._args]
    assert cls(*values) == cls(**dict(zip(cls._args, values))) == public
    assert (cls.__init__ is cls._fill) is (cls.__name__ in RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_arguments_bind_like_a_signature(name):
    public = BUILDERS[name][0]()
    cls = type(public)
    values = [getattr(public, field) for field in cls.__slots__]
    first = cls.__slots__[0]
    for bad_call in (
        lambda: cls(*values[:-1]),  # missing
        lambda: cls(*values, None),  # extra
        lambda: cls(*values, not_a_field=None),  # unknown
        lambda: cls(*values, **{first: values[0]}),  # given twice
    ):
        with pytest.raises(TypeError, match=cls.__name__):
            bad_call()


def _run_python(code: str, stdin: bytes = b"") -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode()


COMPILED_CLASSES = (
    "from weightcomb.arith import _Value\n"
    "names = {'_fill', '_trusted', '__eq__', '__hash__'}\n"
    "print(sorted(c.__name__ for c in _Value.__subclasses__() if names & set(vars(c))))\n"
)


def test_import_compiles_no_class():
    """Nor does the base class answer ``==`` or ``hash`` for a class not yet
    compiled: no instance exists before its class compiles."""
    assert not {"__eq__", "__hash__"} & set(vars(_Value))
    code = "import weightcomb.cli, weightcomb.ffpoly\n" + COMPILED_CLASSES
    assert _run_python(code) == "[]\n"


def test_unpickled_values_compile_their_class_and_equal_each_other():
    """A fresh process whose first values are unpickled ones: each equals a
    second copy, hashes alike and keeps its repr.  A field comes back as the
    canonical one, so a ``Poly`` over it still equals its copy."""
    objects = {name: build() for name, (build, _) in BUILDERS.items()}
    blobs = {name: (pickle.dumps(obj), repr(obj)) for name, obj in objects.items()}
    code = (
        "import pickle, sys\n"
        "bad = []\n"
        "for name, (blob, text) in pickle.load(sys.stdin.buffer).items():\n"
        "    first, second = pickle.loads(blob), pickle.loads(blob)\n"
        "    if not (first == second and hash(first) == hash(second) and repr(first) == text):\n"
        "        bad.append(name)\n"
        "print(bad)\n"
        + COMPILED_CLASSES
    )
    assert _run_python(code, pickle.dumps(blobs)).splitlines() == ["[]", str(sorted(BUILDERS))]


def _pair_class(record=False):
    """A value class of its own, so that none of its methods is compiled yet:
    a record, or a class whose ``__init__`` defaults ``note``."""

    class Pair(_Value):
        __slots__ = ("a", "b", "note")
        _args = ("a", "b", "note") if record else ("a", "b")

        if not record:
            def __init__(self, a, b, note=None):
                self._fill(a, b, note)

    return Pair


def _answers(Pair, use):
    """``_trusted`` builds for "trusted", the constructor for the other uses."""
    build = Pair._trusted if use == "trusted" else Pair
    x, y, z = build(1, (2,), None), build(1, (2,), "noted"), build(1, (3,), None)
    if use == "eq":
        return [x == y, y == x, x == z, x != y, x != z]
    if use == "hash":
        return [hash(x), hash(y), hash(z)]
    return [type(y), y.a, y.b, y.note, x == Pair(1, (2,), None)]


@pytest.mark.parametrize("use", ["eq", "hash", "trusted"])
def test_first_use_compiles_and_answers_like_later_calls(use):
    """A class compiles at its first construction, by its constructor or by
    ``_trusted``; a record's constructor is then the compiled ``_fill``."""
    compiled = {"_fill", "_trusted", "__eq__", "__hash__"}
    for record in (False, True):
        Pair = _pair_class(record)
        assert not compiled & set(vars(Pair))  # nothing is compiled at class creation
        assert ("__init__" in vars(Pair)) is not record
        first = _answers(Pair, use)
        assert compiled <= set(vars(Pair))
        assert (Pair.__init__ is Pair._fill) is record
        assert first == _answers(Pair, use)
        values = [(1, (2,), None), (1, (2,), "noted"), (1, (3,), None)]
        expected = {
            "eq": [not record, not record, False, record, True],
            "hash": [hash(v[:len(Pair._args)]) for v in values],
            "trusted": [Pair, 1, (2,), "noted", True],
        }
        assert first == expected[use]


def test_compiled_equality_stays_class_strict():
    Pair, Twin = _pair_class(), _pair_class()
    assert Pair(1, (2,)) != Twin(1, (2,)) and not Pair(1, (2,)) == Twin(1, (2,))
    assert Pair(1, (2,)) != (1, (2,)) and Pair(1, (2,)) != (1, (2,), None)
    assert len({Pair(1, (2,)), Twin(1, (2,))}) == 2
