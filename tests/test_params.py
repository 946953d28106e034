"""Tests for the parameter context: every entry point that takes (q, eps, ell)
applies the rules of EllParams.compute, with the same exception types and
the same precedence, and validates a triple once."""

import contextlib
import io

import pytest

from weightcomb import BoundExceededError, UnsupportedRegimeError
from weightcomb.arith import EllParams, PrimePower
from weightcomb.cli import EXIT_BOUND, EXIT_PASS, EXIT_USAGE, main
from weightcomb.ffpoly import F_set, ctx_for, d_Gamma
from weightcomb.glblocks import (
    FracLabel,
    SemisimpleLabel,
    blocks,
    principal_block,
    semisimple_labels,
    unipotent_hook_eGC,
    verify_counting,
)

OK = None
URE = UnsupportedRegimeError
BE = BoundExceededError
VE = ValueError

# (q, eps, ell) -> expected outcome of
#   params: EllParams.compute, its d_gamma, principal_block
#   grid:   semisimple_labels, blocks, verify_counting (n = 2)
#   hook:   unipotent_hook_eGC (n = 2)
#   poly:   ffpoly.d_Gamma, which like d_of needs no prime power q
# as the exact exception type raised, or OK when the input is accepted.
TABLE = [
    # q, eps, ell, params, grid, hook, poly
    (4, 1, 3, OK, OK, OK, OK),
    (5, 1, 2, OK, OK, OK, OK),
    (3, -1, 2, OK, OK, OK, OK),
    # ell = 2 without 4 | q - eps: outside the block theory, but the hook
    # classification (mode "all") and the orders themselves are defined.
    (7, 1, 2, URE, URE, OK, OK),
    (5, -1, 2, URE, URE, OK, OK),
    (9, 1, 3, VE, VE, VE, VE),  # ell | q
    (8, -1, 2, VE, VE, VE, VE),  # ell | q, ell = 2
    (4, 2, 3, VE, VE, VE, VE),  # bad eps
    (4, 0, 3, VE, VE, VE, VE),  # bad eps
    (4, 1, 11, OK, BE, OK, OK),  # valid, but ell is off the grid
    # On the grid the size bounds come before every ValueError.
    (6, 1, 5, VE, BE, VE, OK),  # q not a prime power
    (6, 1, 11, VE, BE, VE, OK),
    (4, 1, 4, VE, BE, VE, VE),  # ell not prime
    (5, 1, 9, VE, BE, VE, VE),
    (6, 1, 4, VE, BE, VE, VE),
]

POLY_LABEL = F_set(ctx_for(4), 1, 1)[0]

ENTRY_POINTS = {
    "EllParams.compute": ("params", lambda q, eps, ell: EllParams.compute(q, eps, ell)),
    "d_gamma": (
        "params", lambda q, eps, ell: EllParams.compute(q, eps, ell).d_gamma(1)
    ),
    "principal_block": ("params", lambda q, eps, ell: principal_block(2, q, eps, ell)),
    "semisimple_labels": ("grid", lambda q, eps, ell: semisimple_labels(2, q, eps, ell)),
    "blocks": ("grid", lambda q, eps, ell: blocks(2, q, eps, ell)),
    "verify_counting": ("grid", lambda q, eps, ell: verify_counting(2, q, eps, ell)),
    "unipotent_hook_eGC": ("hook", lambda q, eps, ell: unipotent_hook_eGC(2, q, eps, ell)),
    "ffpoly.d_Gamma": ("poly", lambda q, eps, ell: d_Gamma(POLY_LABEL, eps, ell, q)),
    "SemisimpleLabel": (
        "params",
        lambda q, eps, ell: SemisimpleLabel(q, eps, ell, 1, ((FracLabel(1, 1, 0), 1),)),
    ),
}

COLUMNS = ("params", "grid", "hook", "poly")


def _expected(row, column):
    return row[3 + COLUMNS.index(column)]


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("row", TABLE, ids=lambda row: "q{}_eps{}_ell{}".format(*row[:3]))
def test_entry_point_outcome(entry, row):
    column, call = ENTRY_POINTS[entry]
    expected = _expected(row, column)
    q, eps, ell = row[:3]
    if expected is OK:
        call(q, eps, ell)
        return
    with pytest.raises(ValueError) as info:
        call(q, eps, ell)
    assert type(info.value) is expected


def test_regime_outcomes_are_the_theory():
    assert unipotent_hook_eGC(2, 7, 1, 2).mode == "all"
    assert d_Gamma(POLY_LABEL, 1, 2, 7) == 2
    params = EllParams.compute(4, 1, 11)
    assert (params.p, params.d) == (2, 5)
    assert [params.d_gamma(deg) for deg in range(1, 6)] == [5, 5, 5, 5, 1]


def _exit_code(expected) -> int:
    if expected is OK:
        return EXIT_PASS
    return EXIT_BOUND if expected is BE else EXIT_USAGE


@pytest.mark.parametrize(
    "row", [row for row in TABLE if row[1] in (1, -1)],
    ids=lambda row: "q{}_eps{}_ell{}".format(*row[:3]),
)
def test_cli_exit_codes(row):
    q, eps, ell = row[:3]
    common = ["--n", "2", "--q", str(q), "--eps", "+" if eps == 1 else "-",
              "--ell", str(ell)]
    for argv, column in (
        (["gl", "blocks", *common], "grid"),
        (["gl", "weights", *common], "params"),
        (["hook", *common], "hook"),
    ):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code == _exit_code(_expected(row, column)), argv


def test_blocks_validate_the_triple_once(monkeypatch):
    calls = []
    from_q = PrimePower.from_q.__func__

    def counted(cls, q):
        calls.append(q)
        return from_q(cls, q)

    EllParams.compute.cache_clear()
    monkeypatch.setattr(PrimePower, "from_q", classmethod(counted))
    assert len(blocks(4, 9, 1, 5)) == 2784
    assert len(calls) <= 1
