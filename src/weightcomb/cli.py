"""Command-line surface: enumeration queries, verification campaigns, and
machine-readable JSON reports.

Every command prints a single JSON report to stdout (keys sorted, stable
ordering everywhere) and keeps diagnostics on stderr, so output is
byte-identical across repeated runs.  Each ``_cmd_*`` handler returns the
report's ``(params, results, passed)``; ``main`` alone writes it, through
``_emit``, as ``json.dumps(report, sort_keys=True, indent=2)``, after every
check that can fail, and picks the exit code.  Only ``gl blocks`` streams,
enumerating and writing its blocks in chunks as they come: its input checks
and bounds run before the first byte, and a broken invariant after the first
chunk leaves a truncated stdout.  A campaign config is checked whole, every
item's fields against ``_OPS``, before any item runs.
Exit codes: 0 pass, 1 verification failure or broken invariant (one JSON
record on stderr), 2 usage or parse error, 3 enumeration bound exceeded, 141
stdout closed by the reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Sequence

from . import __version__
from .arith import ellprime_part
from .errors import BoundExceededError
from .glblocks import (
    GRID_MAX_N,
    GRID_PRIME_POWERS,
    BlockLabel,
    _block_stream,
    af_weights,
    generic_weights,
    grid_points,
    principal_block,
    shape_count_identity,
    unipotent_hook_eGC,
    verify_counting,
)
from .partitions import (
    as_partition,
    core_tower,
    d_core,
    d_quotient,
    defect,
    hooks,
    partition_count,
)
from .younggrp import KINDS, verify_bijection

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BOUND = 3
EXIT_PIPE = 141  # the shell's status for a writer killed by SIGPIPE


# ---------------------------------------------------------------------------
# Argument conversion.


def _parse_partition_arg(text: str) -> tuple[int, ...]:
    """A partition from a comma-separated part list ('' or '0' is empty)."""
    stripped = text.strip()
    if stripped in ("", "0"):
        return ()
    try:
        parts = tuple(int(tok) for tok in stripped.split(","))
    except ValueError:
        raise ValueError(f"not a comma-separated integer list: {text!r}") from None
    return as_partition(parts)


# The spellings of eps, for --eps and for a campaign item's "eps".
_EPS = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}


def _parse_eps(text: str) -> int:
    if text not in _EPS:
        raise argparse.ArgumentTypeError(f"eps must be '+' or '-', got {text!r}")
    return _EPS[text]


def _eps_str(eps: int) -> str:
    return "+" if eps == 1 else "-"


def _point_params(args: argparse.Namespace) -> dict[str, Any]:
    """The report params of a grid point given as --n --q --eps --ell."""
    return {"n": args.n, "q": args.q, "eps": _eps_str(args.eps), "ell": args.ell}


# ---------------------------------------------------------------------------
# Report plumbing.


def _report(
    command: Sequence[str],
    params: dict[str, Any],
    results: Iterable,
    passed: bool,
) -> dict:
    return {
        "schema": 1,
        "tool": f"weightcomb {__version__}",
        "command": list(command),
        "params": params,
        "results": results,
        "pass": passed,
    }


def _emit(report: dict) -> None:
    """Write ``json.dumps(report, sort_keys=True, indent=2)`` and a newline to
    stdout.  Results that are not a list are an iterator of JSON texts at the
    top-level indent (``_block_texts``): they are spliced in as they come and
    written in chunks of about 64 KB."""
    out = sys.stdout
    results = report["results"]
    if isinstance(results, list):
        out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        text = json.dumps({**report, "results": []}, sort_keys=True, indent=2)
        # Only "schema" and "tool", with fixed values, sort after "results".
        head, _, tail = text.rpartition('"results": []')
        pieces, sep = [head, '"results": ['], "\n    "
        size = len(head)  # characters (bytes: the text is ASCII) since the last write
        for item in results:
            pieces.append(sep + item.replace("\n", "\n    "))
            sep = ",\n    "
            size += len(pieces[-1])
            if size > 65536:
                out.write("".join(pieces))
                pieces.clear()
                size = 0
        close = "\n  ]" if sep == ",\n    " else "]"  # "[]" when results was empty
        pieces.append(close + tail + "\n")
        out.write("".join(pieces))
    out.flush()


def _block_texts(all_blocks: Iterable[BlockLabel]):
    """Each block's ``json.dumps(b.to_json_dict(), sort_keys=True, indent=2)``:
    the parts of s are built once per s (its blocks come in a row), and each
    core's text and size once per run."""
    cores: dict[tuple[int, ...], tuple[str, int]] = {}
    s = None
    for b in all_blocks:
        if b.s is not s:
            s = b.s
            divisors, entries = [], []
            for (lab, m), d in zip(s.assignments, s.d_gammas):
                lab_open = f"\n    [\n      {encode_basestring_ascii(str(lab))},\n      "
                divisors.append((lab_open, m, d))
                entries.append(f"{lab_open}{m}\n    ]")
            head = f'{{\n  "ell": {s.ell},\n  "eps": {s.eps},\n  "kappa": ['
            tail = f'\n  ],\n  "n": {s.n},\n  "q": {s.q},\n  "s": [{",".join(entries)}'
            tail += '\n  ],\n  "weights": ['
        kappa, weights = [], []
        for (lab_open, m, d), core in zip(divisors, b.kappa):
            hit = cores.get(core)
            if hit is None:
                text = json.dumps(list(core), indent=2).replace("\n", "\n      ")
                hit = cores[core] = (text + "\n    ]", sum(core))
            kappa.append(lab_open + hit[0])
            weights.append(f"\n    {(m - hit[1]) // d}")
        yield f'{head}{",".join(kappa)}{tail}{",".join(weights)}\n  ]\n}}'


# ---------------------------------------------------------------------------
# Command handlers: each returns the report's (params, results, passed), and
# ``main`` writes the report.

_Outcome = tuple[dict[str, Any], Iterable, bool]


def _tower_result(mu: tuple[int, ...], ell: int) -> dict:
    tower = core_tower(mu, ell)
    rows = [[list(p) for p in row] for row in tower.rows]
    sizes, total = list(tower.row_sizes()), tower.total()
    return {"tower": {"ell": ell, "rows": rows, "row_sizes": sizes, "total": total}}


# partition action -> (its option, the result of a partition and that option)
_PARTITION_ACTIONS = {
    "core": ("d", lambda mu, d: {"core": list(d_core(mu, d))}),
    "quotient": ("d", lambda mu, d: {"quotient": [list(p) for p in d_quotient(mu, d)]}),
    "tower": ("ell", _tower_result),
    "defect": ("ell", lambda mu, ell: {"defect": defect(mu, ell)}),
}


def _cmd_partition(args: argparse.Namespace) -> _Outcome:
    if args.action == "hooks":
        results = [{"hooks": [list(p) for p in hooks(args.n)]}]
        return {"action": "hooks", "n": args.n}, results, True
    option, result = _PARTITION_ACTIONS[args.action]
    mu = _parse_partition_arg(args.partition)
    value = getattr(args, option)
    params = {"action": args.action, "partition": list(mu), option: value}
    return params, [result(mu, value)], True


def _cmd_young(args: argparse.Namespace) -> _Outcome:
    report = verify_bijection(args.kind, args.n, args.e, args.ell)
    params = {"kind": args.kind, "n": args.n, "e": args.e, "ell": args.ell}
    return params, [report.to_json_dict()], report.passed


def _select_block(args: argparse.Namespace):
    if args.block == "principal":
        return principal_block(args.n, args.q, args.eps, args.ell)
    try:
        index = int(args.block)
    except ValueError:
        raise ValueError(
            f"--block must be 'principal' or a block index, got {args.block!r}"
        ) from None
    have = 0
    for have, block in enumerate(_block_stream(args.n, args.q, args.eps, args.ell), 1):
        if have == index + 1:
            return block
    raise ValueError(f"block index {index} out of range (have {have} blocks)")


def _cmd_gl(args: argparse.Namespace) -> _Outcome:
    params = {"action": args.action, **_point_params(args)}
    if args.action == "blocks":
        stream = _block_stream(args.n, args.q, args.eps, args.ell)  # checks the point now
        return params, _block_texts(stream), True
    if args.action == "verify":
        report = verify_counting(args.n, args.q, args.eps, args.ell)
        return params, [report.to_json_dict()], report.passed
    params["block"] = args.block
    block = _select_block(args)
    gen = generic_weights(block)
    af = af_weights(block)
    results = [
        {
            "block": block.to_json_dict(),
            "generic": [w.to_json_dict() for w in gen],
            "af": [w.to_json_dict() for w in af],
            "generic_count": len(gen),
            "af_count": len(af),
        }
    ]
    return params, results, len(gen) == len(af)


def _cmd_hook(args: argparse.Namespace) -> _Outcome:
    out = unipotent_hook_eGC(args.n, args.q, args.eps, args.ell)
    return _point_params(args), [out.to_json_dict()], True


# ---------------------------------------------------------------------------
# campaign subcommand.

# The built-in verification grid: hook classification scan, shape identity,
# symmetric/wreath/type-D bijections, and the full block grid.
_DEFAULT_ITEMS = [
    {"op": "hook_scan"},
    {"op": "shape_identity"},
    *({"op": "young_verify", "kind": "sym", "n": 12, "ell": ell} for ell in (2, 3, 5)),
    {"op": "young_verify", "kind": "wreath", "n": 4, "e": 2, "ell": 3},
    {"op": "young_verify", "kind": "wreath", "n": 3, "e": 3, "ell": 5},
    {"op": "young_verify", "kind": "typed", "n": 2, "e": 1, "ell": 3},
    {"op": "young_verify", "kind": "typed", "n": 3, "e": 2, "ell": 5},
    {"op": "gl_grid"},
]


def _integer(minimum: int | None = None, optional: bool = False):
    """A check of a JSON integer (not a bool) field; below ``minimum`` the item
    would check nothing, and an ``optional`` field may be absent."""
    def check(value):
        if value is None and optional:
            return None
        if type(value) is not int:
            raise ValueError("must be an integer")
        if minimum is not None and value < minimum:
            raise ValueError(
                f"must be >= {minimum} (a smaller value checks nothing), got {value}"
            )
        return value
    return check


def _eps_value(value) -> int:
    """A spelling of --eps, or the JSON integer 1 or -1."""
    eps = _EPS.get(str(value)) if type(value) in (str, int) else None
    if eps is None:
        raise ValueError(f"must be '+' or '-', got {value!r}")
    return eps


def _ells_value(value) -> list[int]:
    if not (isinstance(value, list) and value and all(type(x) is int for x in value)):
        raise ValueError("must be a non-empty integer list")
    return value


def _run_gl_verify(n: int, q: int, eps: int, ell: int) -> dict:
    report = verify_counting(n, q, eps, ell)
    return {
        "op": "gl_verify",
        "n": n,
        "q": q,
        "eps": _eps_str(eps),
        "ell": ell,
        "blocks": report.blocks_checked,
        "nonempty": report.nonempty_blocks,
        "weights": report.weights_total,
        "pass": report.passed,
    }


def _run_gl_grid(n_max: int) -> dict:
    failures = []
    points = grid_points(n_max)
    total_blocks = 0
    for n, q, eps, ell in points:
        report = verify_counting(n, q, eps, ell)
        total_blocks += report.blocks_checked
        if not report.passed:
            failures.append([n, q, _eps_str(eps), ell])
    return {
        "op": "gl_grid",
        "n_max": n_max,
        "points": len(points),
        "blocks": total_blocks,
        "failures": failures,
        "pass": not failures,
    }


def _run_young_verify(kind, n: int, e: int | None, ell: int) -> dict:
    report = verify_bijection(kind, n, e, ell)
    return {
        "op": "young_verify",
        "kind": kind,
        "n": n,
        "e": report.e,
        "ell": ell,
        "count_irr": report.count_irr,
        "count_triples": report.count_triples,
        "pass": report.passed,
    }


def _run_hook_scan(n_max: int) -> dict:
    """Re-derive the trichotomy conditions and check every classification
    outcome against them (mode, count, and hook shape)."""
    checked = 0
    ok = True
    for n in range(2, n_max + 1):
        for q in GRID_PRIME_POWERS:
            for eps in (1, -1):
                for ell in (2, 3, 5):
                    if q % ell == 0:
                        continue
                    out = unipotent_hook_eGC(n, q, eps, ell)
                    checked += 1
                    split = (q - eps) % (4 if ell == 2 else ell) == 0
                    if split and ellprime_part(n, ell) == 1:
                        good = out.mode == "hooks" and len(out.partitions) == n
                        good = good and all(
                            all(part == 1 for part in p[1:]) for p in out.partitions
                        )
                    elif ell == 2 and (q + eps) % 4 == 0:
                        good = out.mode == "all"
                        good = good and len(out.partitions) == partition_count(n)
                    else:
                        good = out.mode == "none" and not out.partitions
                    ok = ok and good
    return {"op": "hook_scan", "n_max": n_max, "points": checked, "pass": ok}


def _run_shape_identity(delta_max: int, ells: list[int]) -> dict:
    ok = all(shape_count_identity(d, ell) for ell in ells for d in range(delta_max + 1))
    return {"op": "shape_identity", "delta_max": delta_max, "ells": ells, "pass": ok}


# A default that marks a field an item must give.
_REQUIRED = object()

# op -> (runner, {field: (check, default)}), fields checked in this order.
# Library rules (kind, prime ell, grid and oracle bounds) raise when the item runs.
_OPS = {
    "gl_verify": (_run_gl_verify, {
        "n": (_integer(), _REQUIRED),
        "q": (_integer(), _REQUIRED),
        "ell": (_integer(), _REQUIRED),
        "eps": (_eps_value, "+"),
    }),
    "gl_grid": (_run_gl_grid, {"n_max": (_integer(1), GRID_MAX_N)}),
    "young_verify": (_run_young_verify, {
        "kind": (lambda kind: kind, _REQUIRED),
        "n": (_integer(), _REQUIRED),
        "ell": (_integer(), _REQUIRED),
        "e": (_integer(optional=True), None),
    }),
    "hook_scan": (_run_hook_scan, {"n_max": (_integer(2), 9)}),
    "shape_identity": (_run_shape_identity, {
        "delta_max": (_integer(0), 6),
        "ells": (_ells_value, [3, 5, 7]),
    }),
}


def _load_campaign(path: str | None) -> list[tuple[str, dict[str, Any]]]:
    """The checked ``(op, fields)`` of every item, before any item runs."""
    if path is None:
        items = _DEFAULT_ITEMS
    else:
        try:
            with open(path, encoding="utf-8") as handle:
                config = json.load(handle)
        except OSError as exc:
            raise ValueError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from None
        if not isinstance(config, dict) or not isinstance(config.get("items"), list):
            raise ValueError("config must be an object with an 'items' list")
        items = config["items"]
    checked = []
    for pos, item in enumerate(items):
        if not isinstance(item, dict) or "op" not in item:
            raise ValueError(f"items[{pos}] must be an object with an 'op' field")
        op = item["op"]
        if op not in _OPS:
            raise ValueError(
                f"items[{pos}]: unknown op {op!r} (expected one of {sorted(_OPS)})"
            )
        spec = _OPS[op][1]
        unknown = sorted(set(item) - {"op", *spec})
        if unknown:
            raise ValueError(
                f"items[{pos}]: {op} takes no field {unknown[0]!r} "
                f"(expected some of {list(spec)})"
            )
        fields = {}
        for key, (check, default) in spec.items():
            if default is _REQUIRED and key not in item:
                raise ValueError(f"items[{pos}]: field {key!r} is required")
            try:
                fields[key] = check(item.get(key, default))
            except ValueError as exc:
                raise ValueError(f"items[{pos}]: field {key!r} {exc}") from None
        checked.append((op, fields))
    return checked


def _cmd_campaign(args: argparse.Namespace) -> _Outcome:
    items = _load_campaign(args.config)
    results = [_OPS[op][0](**fields) for op, fields in items]
    passed = sum(1 for r in results if r["pass"])
    print(f"campaign: {len(results)} items, {passed} passed", file=sys.stderr)
    # Items run in order in one thread: "jobs" stays 1 so reports keep their bytes.
    params = {"config": args.config or "default", "items": len(items), "jobs": 1}
    return params, results, passed == len(results)


# ---------------------------------------------------------------------------
# Parser wiring.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weightcomb",
        description="Exact block and weight combinatorics for symmetric, "
        "wreath, and finite general linear/unitary groups.",
    )
    parser.add_argument(
        "--version", action="version", version=f"weightcomb {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    point = argparse.ArgumentParser(add_help=False)  # the grid point (n, q, eps, ell)
    point.add_argument("--n", type=int, required=True)
    point.add_argument("--q", type=int, required=True)
    point.add_argument("--eps", type=_parse_eps, required=True, metavar="+|-")
    point.add_argument("--ell", type=int, required=True)

    part = sub.add_parser("partition", help="partition calculus queries")
    part_sub = part.add_subparsers(dest="action", required=True)
    for action in ("core", "quotient"):
        p = part_sub.add_parser(action, help=f"d-{action} of a partition")
        p.add_argument("partition", help="comma-separated parts, e.g. 4,2,1")
        p.add_argument("--d", type=int, required=True, help="hook length d >= 2")
        p.set_defaults(handler=_cmd_partition)
    for action, flag_help in (
        ("tower", "core tower rows, row sizes, and encoded total"),
        ("defect", "block defect of the partition's character"),
    ):
        p = part_sub.add_parser(action, help=flag_help)
        p.add_argument("partition", help="comma-separated parts, e.g. 2,1")
        p.add_argument("--ell", type=int, required=True, help="prime ell")
        p.set_defaults(handler=_cmd_partition)
    p = part_sub.add_parser("hooks", help="hook partitions of n")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_partition)

    young = sub.add_parser("young", help="Young-triple bijection checks")
    young_sub = young.add_subparsers(dest="action", required=True)
    p = young_sub.add_parser("verify", help="count Irr(G) against triples")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, default=None)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(handler=_cmd_young)

    gl = sub.add_parser("gl", help="blocks and weights of GL/GU")
    gl_sub = gl.add_subparsers(dest="action", required=True)
    for action, help_text in (
        ("blocks", "enumerate block labels"),
        ("weights", "generic and Alperin-style weights of one block"),
        ("verify", "check the weight-count identity on every block"),
    ):
        p = gl_sub.add_parser(action, help=help_text, parents=[point])
        if action == "weights":
            p.add_argument(
                "--block",
                default="principal",
                help="'principal' (default) or an index into the block list",
            )
        p.set_defaults(handler=_cmd_gl)

    hook = sub.add_parser(
        "hook",
        help="classification of generalized-cuspidal unipotent characters",
        parents=[point],
    )
    hook.set_defaults(handler=_cmd_hook)

    camp = sub.add_parser("campaign", help="run a verification campaign")
    camp.add_argument(
        "config",
        nargs="?",
        default=None,
        help="JSON config with an 'items' list (default: built-in grid)",
    )
    camp.set_defaults(handler=_cmd_campaign)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(args_list)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        params, results, passed = args.handler(args)
        _emit(_report(args_list, params, results, passed))
    except BrokenPipeError:
        # The reader closed stdout: send the flush at exit to devnull instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except BoundExceededError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        record = {"error": "invariant", "message": str(exc), "command": args_list}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS if passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
