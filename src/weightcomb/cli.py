"""Command-line surface: enumeration queries, verification campaigns, and
machine-readable JSON reports.

Every command prints a single JSON report to stdout (keys sorted, stable
ordering everywhere) and keeps diagnostics on stderr, so output is
byte-identical across repeated runs.  ``_emit`` streams each report with the
bytes of ``json.dumps(report, sort_keys=True, indent=2)``, after every check
that can fail.  Exit codes: 0 pass, 1 verification failure, 2 usage or parse
error, 3 enumeration bound exceeded, 141 stdout closed by the reader.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from types import GeneratorType
from typing import Any, Iterable, Sequence, TextIO

from . import __version__
from .arith import ellprime_part
from .errors import BoundExceededError, UnsupportedRegimeError
from .glblocks import (
    GRID_MAX_N,
    GRID_PRIME_POWERS,
    af_weights,
    blocks,
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


class _UsageError(Exception):
    """Invalid arguments or configuration detected after argument parsing."""


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
        raise _UsageError(f"not a comma-separated integer list: {text!r}") from None
    try:
        return as_partition(parts)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_eps(text: str) -> int:
    table = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}
    if text not in table:
        raise argparse.ArgumentTypeError(f"eps must be '+' or '-', got {text!r}")
    return table[text]


def _eps_str(eps: int) -> str:
    return "+" if eps == 1 else "-"


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


def _emit(report: dict, stream: TextIO | None = None) -> None:
    """Write ``json.dumps(report, sort_keys=True, indent=2)`` and a newline to
    ``stream`` (default stdout) in chunks; a generator may stand for a list."""
    out = sys.stdout if stream is None else stream
    pieces: list[str] = []

    def put(value: Any, indent: str) -> None:
        if isinstance(value, str):
            pieces.append(encode_basestring_ascii(value))
        elif isinstance(value, int) and value is not True and value is not False:
            pieces.append(int.__repr__(value))
        elif value is None or isinstance(value, (bool, float)):
            pieces.append(json.dumps(value))
        elif isinstance(value, (dict, list, tuple, GeneratorType)):
            is_dict = isinstance(value, dict)
            inner, sep, close = indent + "  ", *("{}" if is_dict else "[]")
            for item in sorted(value) if is_dict else value:
                key = encode_basestring_ascii(item) + ": " if is_dict else ""
                pieces.append(sep + inner + key)
                put(value[item] if is_dict else item, inner)
                sep = ","
                if len(pieces) > 8192:
                    out.write("".join(pieces))
                    pieces.clear()
            pieces.append((indent if sep == "," else sep) + close)
        else:
            raise TypeError(f"{type(value).__name__} is not JSON serializable")

    put(report, "\n")
    pieces.append("\n")
    out.write("".join(pieces))
    out.flush()


# ---------------------------------------------------------------------------
# partition subcommands.


def _cmd_partition(args: argparse.Namespace, argv: Sequence[str]) -> int:
    action = args.action
    if action == "hooks":
        if args.n < 0:
            raise _UsageError(f"n must be >= 0, got {args.n}")
        params: dict[str, Any] = {"action": action, "n": args.n}
        results = [{"hooks": [list(p) for p in hooks(args.n)]}]
    else:
        mu = _parse_partition_arg(args.partition)
        if action in ("core", "quotient"):
            d = args.d
            params = {"action": action, "partition": list(mu), "d": d}
            if action == "core":
                results = [{"core": list(d_core(mu, d))}]
            else:
                results = [{"quotient": [list(p) for p in d_quotient(mu, d)]}]
        else:  # tower | defect
            ell = args.ell
            params = {"action": action, "partition": list(mu), "ell": ell}
            if action == "tower":
                tower = core_tower(mu, ell)
                results = [
                    {
                        "tower": {
                            "ell": tower.ell,
                            "rows": [
                                [list(p) for p in row] for row in tower.rows
                            ],
                            "row_sizes": list(tower.row_sizes()),
                            "total": tower.total(),
                        }
                    }
                ]
            else:
                results = [{"defect": defect(mu, ell)}]
    _emit(_report(argv, params, results, True))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# young subcommand.


def _cmd_young(args: argparse.Namespace, argv: Sequence[str]) -> int:
    report = verify_bijection(args.kind, args.n, args.e, args.ell)
    params = {"kind": args.kind, "n": args.n, "e": args.e, "ell": args.ell}
    _emit(_report(argv, params, [report.to_json_dict()], report.passed))
    return EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# gl subcommands.


def _select_block(args: argparse.Namespace):
    if args.block == "principal":
        return principal_block(args.n, args.q, args.eps, args.ell)
    try:
        index = int(args.block)
    except ValueError:
        raise _UsageError(
            f"--block must be 'principal' or a block index, got {args.block!r}"
        ) from None
    all_blocks = blocks(args.n, args.q, args.eps, args.ell)
    if not 0 <= index < len(all_blocks):
        raise _UsageError(
            f"block index {index} out of range (have {len(all_blocks)} blocks)"
        )
    return all_blocks[index]


def _cmd_gl(args: argparse.Namespace, argv: Sequence[str]) -> int:
    params = {
        "action": args.action,
        "n": args.n,
        "q": args.q,
        "eps": _eps_str(args.eps),
        "ell": args.ell,
    }
    if args.action == "blocks":
        out = blocks(args.n, args.q, args.eps, args.ell)
        _emit(_report(argv, params, (b.to_json_dict() for b in out), True))
        return EXIT_PASS
    if args.action == "weights":
        params["block"] = args.block
        block = _select_block(args)
        gen = generic_weights(block)
        af = af_weights(block)
        passed = len(gen) == len(af)
        results = [
            {
                "block": block.to_json_dict(),
                "generic": [w.to_json_dict() for w in gen],
                "af": [w.to_json_dict() for w in af],
                "generic_count": len(gen),
                "af_count": len(af),
            }
        ]
        _emit(_report(argv, params, results, passed))
        return EXIT_PASS if passed else EXIT_FAIL
    # verify
    report = verify_counting(args.n, args.q, args.eps, args.ell)
    _emit(_report(argv, params, [report.to_json_dict()], report.passed))
    return EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# hook subcommand.


def _cmd_hook(args: argparse.Namespace, argv: Sequence[str]) -> int:
    out = unipotent_hook_eGC(args.n, args.q, args.eps, args.ell)
    params = {
        "n": args.n,
        "q": args.q,
        "eps": _eps_str(args.eps),
        "ell": args.ell,
    }
    _emit(_report(argv, params, [out.to_json_dict()], True))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# campaign subcommand.


def _default_campaign() -> dict:
    """The built-in verification grid: hook classification scan, shape
    identity, symmetric/wreath/type-D bijections, and the full block grid."""
    items: list[dict[str, Any]] = [
        {"op": "hook_scan", "n_max": 9},
        {"op": "shape_identity", "delta_max": 6, "ells": [3, 5, 7]},
    ]
    for ell in (2, 3, 5):
        items.append({"op": "young_verify", "kind": "sym", "n": 12, "ell": ell})
    items.append({"op": "young_verify", "kind": "wreath", "n": 4, "e": 2, "ell": 3})
    items.append({"op": "young_verify", "kind": "wreath", "n": 3, "e": 3, "ell": 5})
    items.append({"op": "young_verify", "kind": "typed", "n": 2, "e": 1, "ell": 3})
    items.append({"op": "young_verify", "kind": "typed", "n": 3, "e": 2, "ell": 5})
    items.append({"op": "gl_grid", "n_max": GRID_MAX_N})
    return {"items": items}


def _load_campaign(path: str | None) -> dict:
    if path is None:
        return _default_campaign()
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise _UsageError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config is not valid JSON: {exc}") from None
    if not isinstance(config, dict) or not isinstance(config.get("items"), list):
        raise _UsageError("config must be an object with an 'items' list")
    for pos, item in enumerate(config["items"]):
        if not isinstance(item, dict) or "op" not in item:
            raise _UsageError(f"items[{pos}] must be an object with an 'op' field")
        if item["op"] not in _ITEM_RUNNERS:
            raise _UsageError(
                f"items[{pos}]: unknown op {item['op']!r} "
                f"(expected one of {sorted(_ITEM_RUNNERS)})"
            )
    return config


def _int_field(item: dict, key: str, default: int | None = None) -> int:
    value = item.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise _UsageError(f"campaign item field {key!r} must be an integer")
    return value


def _eps_field(item: dict) -> int:
    value = item.get("eps", "+")
    if value in (1, -1):
        return value
    if value in ("+", "-"):
        return 1 if value == "+" else -1
    raise _UsageError(f"campaign item field 'eps' must be '+' or '-', got {value!r}")


def _run_gl_verify(item: dict) -> dict:
    n = _int_field(item, "n")
    q = _int_field(item, "q")
    ell = _int_field(item, "ell")
    eps = _eps_field(item)
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


def _run_gl_grid(item: dict) -> dict:
    n_max = _int_field(item, "n_max", GRID_MAX_N)
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


def _run_young_verify(item: dict) -> dict:
    kind = item.get("kind")
    if kind not in KINDS:
        raise _UsageError(f"campaign item field 'kind' must be one of {KINDS}")
    n = _int_field(item, "n")
    ell = _int_field(item, "ell")
    e = item.get("e")
    if e is not None:
        e = _int_field(item, "e")
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


def _run_hook_scan(item: dict) -> dict:
    """Re-derive the trichotomy conditions and check every classification
    outcome against them (mode, count, and hook shape)."""
    n_max = _int_field(item, "n_max", 9)
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


def _run_shape_identity(item: dict) -> dict:
    delta_max = _int_field(item, "delta_max", 6)
    ells = item.get("ells", [3, 5, 7])
    if not isinstance(ells, list) or not all(
        isinstance(ell, int) and not isinstance(ell, bool) for ell in ells
    ):
        raise _UsageError("campaign item field 'ells' must be a list of integers")
    ok = all(
        shape_count_identity(delta, ell)
        for ell in ells
        for delta in range(delta_max + 1)
    )
    return {
        "op": "shape_identity",
        "delta_max": delta_max,
        "ells": list(ells),
        "pass": ok,
    }


_ITEM_RUNNERS = {
    "gl_verify": _run_gl_verify,
    "gl_grid": _run_gl_grid,
    "young_verify": _run_young_verify,
    "hook_scan": _run_hook_scan,
    "shape_identity": _run_shape_identity,
}


def _cmd_campaign(args: argparse.Namespace, argv: Sequence[str]) -> int:
    config = _load_campaign(args.config)
    items = config["items"]
    results = [_ITEM_RUNNERS[item["op"]](item) for item in items]
    passed = all(r["pass"] for r in results)
    # Items run in order in one thread; "jobs" stays, as 1, so that
    # campaign reports keep their bytes.
    params = {"config": args.config or "default", "items": len(items), "jobs": 1}
    report = _report(argv, params, results, passed)
    _emit(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            _emit(report, handle)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "op", "pass"])
            for pos, result in enumerate(results):
                writer.writerow([pos, result["op"], result["pass"]])
    print(
        f"campaign: {len(results)} items, "
        f"{sum(1 for r in results if r['pass'])} passed",
        file=sys.stderr,
    )
    return EXIT_PASS if passed else EXIT_FAIL


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
        p = gl_sub.add_parser(action, help=help_text)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--eps", type=_parse_eps, required=True, metavar="+|-")
        p.add_argument("--ell", type=int, required=True)
        if action == "weights":
            p.add_argument(
                "--block",
                default="principal",
                help="'principal' (default) or an index into the block list",
            )
        p.set_defaults(handler=_cmd_gl)

    hook = sub.add_parser(
        "hook", help="classification of generalized-cuspidal unipotent characters"
    )
    hook.add_argument("--n", type=int, required=True)
    hook.add_argument("--q", type=int, required=True)
    hook.add_argument("--eps", type=_parse_eps, required=True, metavar="+|-")
    hook.add_argument("--ell", type=int, required=True)
    hook.set_defaults(handler=_cmd_hook)

    camp = sub.add_parser("campaign", help="run a verification campaign")
    camp.add_argument(
        "config",
        nargs="?",
        default=None,
        help="JSON config with an 'items' list (default: built-in grid)",
    )
    camp.add_argument("--out", default=None, help="also write the report here")
    camp.add_argument("--csv", default=None, help="write a CSV summary here")
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
        return args.handler(args, args_list)
    except BrokenPipeError:
        # The reader closed stdout: send the flush at exit to devnull instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BoundExceededError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (UnsupportedRegimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
