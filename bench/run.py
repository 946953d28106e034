"""Benchmark of the weightcomb CLI and library.

    python3 bench/run.py --workload gl_blocks --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout: the program under test is the checkout's
``src/weightcomb``, put on PYTHONPATH of every child.  The load is a closed
loop with one client: one op at a time, each op a fresh interpreter (a CLI
invocation or a library op run by ``bench/child.py``), never more than one
child at a time.  Every op's stdout is streamed into a sha256 and checked,
with its result count, exit code and ``"pass"`` flag, against
``bench/reference.json``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from digest import ReportDigest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

# Fork rather than vfork: a vfork child's ru_maxrss starts at the parent's
# peak RSS, which would hide any op smaller than this process.
subprocess._USE_VFORK = False

SETUP_EVERY = 3  # a cold start is timed before every third op; setup_s is their median
MIN_PASSES = 3
MIN_SAMPLES = 35  # op samples a run takes at least, so that op_tail_s stays at p71 or above
OP_TIMEOUT_S = 150  # an op running longer is killed and counts as failed
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many samples above


# ---------------------------------------------------------------------------
# Ops and workloads.


def cli(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def lib(fn: str, **args) -> dict:
    return {"kind": "lib", "fn": fn, "args": args}


def gl_blocks(n: int, q: int, eps: int, ell: int) -> dict:
    return cli("gl", "blocks", "--n", n, "--q", q, "--eps", "+" if eps > 0 else "-", "--ell", ell)


def op_id(op: dict) -> str:
    if op["kind"] == "cli":
        return "weightcomb " + " ".join(op["argv"])
    return op["fn"] + json.dumps(op["args"], sort_keys=True)


@dataclass(frozen=True)
class Workload:
    """``fixed`` ops run in every pass; ``pick`` ops of equal cost are drawn
    from ``pool`` by the seed.  The ops of a workload are chosen close in
    cost, or with the median and tail ranks inside one cost group, so that
    op_p50_s and op_tail_s do not jump between ops as the number of passes
    that fit in ``--seconds`` changes."""

    fixed: list
    smoke: list
    pool: list = field(default_factory=list)
    pick: int = 0


ROUNDTRIP_CHUNKS = 12

WORKLOADS = {
    # Block enumeration, per-block BlockLabel validation and JSON emission at
    # four grid points of equal cost (2.7-3.2k blocks, ~1.1 MB of JSON each),
    # the largest that still give the 40 ops a run needs for a p75 tail.
    "gl_blocks": Workload(
        fixed=[
            gl_blocks(4, 9, 1, 5),
            gl_blocks(4, 7, -1, 5),
            gl_blocks(5, 5, 1, 7),
            gl_blocks(4, 8, 1, 5),
        ] * 2,
        smoke=[gl_blocks(2, 4, 1, 3), gl_blocks(3, 5, -1, 3)],
    ),
    # Startup, import and verify_counting's shape-class pass; tiny output.
    "campaign": Workload(
        fixed=[cli("campaign")] * 10,
        smoke=[cli("campaign", "bench/smoke_campaign.json")],
    ),
    # partitions, symchars and younggrp at ORACLE_BOUNDS; glblocks idle.
    "young_oracle": Workload(
        fixed=[
            cli("young", "verify", "--kind", "sym", "--n", 30, "--ell", 2),
            cli("young", "verify", "--kind", "sym", "--n", 30, "--ell", 3),
            cli("young", "verify", "--kind", "wreath", "--n", 14, "--e", 2, "--ell", 3),
            cli("young", "verify", "--kind", "typed", "--n", 8, "--e", 2, "--ell", 3),
        ],
        pool=[
            lib("roundtrip", n=30, ell=2, chunk=k, chunks=ROUNDTRIP_CHUNKS)
            for k in range(ROUNDTRIP_CHUNKS)
        ],
        pick=6,
        smoke=[
            cli("young", "verify", "--kind", "sym", "--n", 6, "--ell", 2),
            cli("young", "verify", "--kind", "wreath", "--n", 3, "--e", 2, "--ell", 3),
            lib("roundtrip", n=8, ell=2, chunk=0, chunks=1),
        ],
    ),
    # Label actions (Fraction path) and the polynomial sieve.
    "label_actions": Workload(
        fixed=[
            lib("block_actions", n=4, q=9, eps=1, ell=5),
            lib("block_actions", n=4, q=7, eps=-1, ell=3),
            lib("block_actions", n=4, q=7, eps=1, ell=5),
            lib("block_actions", n=4, q=8, eps=1, ell=3),
            lib("poly_actions", q=3, eps=-1, n=4),
            lib("poly_actions", q=2, eps=-1, n=6),
            lib("poly_actions", q=5, eps=-1, n=3),
        ],
        smoke=[
            lib("block_actions", n=2, q=4, eps=1, ell=3),
            lib("poly_actions", q=2, eps=1, n=3),
        ],
    ),
}


def pass_ops(workload: Workload, seed: int, smoke: bool) -> list:
    """The op list of one pass: the seed fixes the pool draw and the order."""
    rng = random.Random(seed)
    if smoke:
        ops = list(workload.smoke)
    else:
        ops = list(workload.fixed) + rng.sample(workload.pool, workload.pick)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Metrics.

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]

# (metric, unit, (what, span or counter stem)); "self" is summed span self
# time, "calls" the call count, "tally" the summed size of the results.
PER_LAYER = [
    ("arith.from_q_calls", "count", ("calls", "arith.from_q")),
    ("arith.factorize_calls", "count", ("calls", "arith.factorize")),
    ("arith.from_q_calls_per_block", "calls/block", None),
    ("glblocks.labels_s", "s", ("self", "glblocks.labels")),
    ("glblocks.labels_count", "count", ("tally", "glblocks.labels")),
    ("glblocks.blocks_s", "s", ("self", "glblocks.blocks")),
    ("glblocks.blocks_count", "count", ("tally", "glblocks.blocks")),
    ("glblocks.to_json_s", "s", ("self", "glblocks.to_json")),
    ("glblocks.verify_s", "s", ("self", "glblocks.verify")),
    ("glblocks.verify_blocks", "count", ("tally", "glblocks.verify")),
    ("glblocks.weights_s", "s", ("self", "glblocks.weights")),
    ("glblocks.weights_count", "count", ("tally", "glblocks.weights")),
    ("glblocks.actions_s", "s", ("self", "glblocks.actions")),
    ("glblocks.actions_count", "count", ("calls", "glblocks.actions")),
    ("ffpoly.fset_s", "s", ("self", "ffpoly.fset")),
    ("ffpoly.fset_count", "count", ("tally", "ffpoly.fset")),
    ("ffpoly.actions_s", "s", ("self", "ffpoly.actions")),
    ("ffpoly.actions_count", "count", ("calls", "ffpoly.actions")),
    ("partitions.core_tower_s", "s", ("self", "partitions.core_tower")),
    ("partitions.from_tower_s", "s", ("self", "partitions.from_tower")),
    ("partitions.d_core_calls", "count", ("calls", "partitions.d_core")),
    ("partitions.is_d_core_calls", "count", ("calls", "partitions.is_d_core")),
    ("symchars.wreath_degree_s", "s", ("self", "symchars.wreath_degree")),
    ("symchars.wreath_degree_calls", "count", ("calls", "symchars.wreath_degree")),
    ("younggrp.triples_s", "s", ("self", "younggrp.triples")),
    ("younggrp.triples_count", "count", ("tally", "younggrp.triples")),
    ("younggrp.verify_s", "s", ("self", "younggrp.verify")),
    ("cli.main_s", "s", ("self", "cli.main")),
    ("cli.emit_s", "s", ("self", "cli.emit")),
    ("cli.emit_bytes", "B", None),
    ("cli.import_s", "s", None),
    ("trace.overhead_s", "s", None),
]


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile of ``samples`` with at
    least TAIL_BEYOND samples above it (the maximum if there are too few)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def self_times(names: list[str], spans: list[list[int]]) -> Counter:
    """Seconds per span name: each span's duration minus its children's."""
    covered = [0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Counter[str] = Counter()
    for (name, _, start, end), child_ns in zip(spans, covered):
        out[names[name]] += (end - start - child_ns) / 1e9
    return out


def layer_metrics(traced: list[tuple[dict, dict]]) -> dict:
    """Per-layer metrics of one traced pass: (op, trace result) pairs."""
    seconds: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    emit_bytes = 0
    for op, res in traced:
        seconds.update(self_times(res["names"], res["spans"]))
        counts.update(res["counts"])
        if op["kind"] == "cli":
            emit_bytes += res["bytes"]
    out = {}
    for name, _, source in PER_LAYER:
        if source is not None:
            what, stem = source
            out[name] = seconds[stem] if what == "self" else counts[f"{stem}.{what}"]
    blocks = counts["glblocks.blocks.tally"]
    out["arith.from_q_calls_per_block"] = (
        counts["arith.from_q.calls"] / blocks if blocks else 0.0
    )
    out["cli.emit_bytes"] = emit_bytes
    imports = [res["import_s"] for _, res in traced]
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    return out


# ---------------------------------------------------------------------------
# Running ops.


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], keep: bool = False) -> dict:
    """Run one child to completion, streaming its stdout into a digest, or
    keeping it as ``raw`` bytes.  Returns wall time, peak RSS (KiB), exit
    code, digest fields and the end of stderr."""
    digest = ReportDigest()
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=child_env(), bufsize=0
        )
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            raw = bytearray() if keep else None
            while chunk := proc.stdout.read(1 << 16):
                if raw is not None:
                    raw += chunk
                else:
                    digest.feed(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read()[-2000:].decode("utf-8", "replace")
    out = {"wall": wall, "rss_kb": usage.ru_maxrss, "exit": proc.returncode, "stderr": stderr}
    if raw is not None:
        out["raw"] = bytes(raw)
    else:
        out.update(digest.finish())
    return out


def run_op(op: dict, traced: bool = False) -> dict:
    if traced:
        res = spawn([sys.executable, str(BENCH / "child.py"), "trace", json.dumps(op)], keep=True)
        raw = res.pop("raw")
        if res["exit"] != 0:
            return {**res, "sha256": None, "results": None, "pass": None}
        trace = json.loads(raw)
        res["exit"] = trace.pop("exit")
        res.update(trace)
        return res
    if op["kind"] == "cli":
        return spawn([sys.executable, "-m", "weightcomb", *op["argv"]])
    return spawn([sys.executable, str(BENCH / "child.py"), "lib", json.dumps(op)])


def failure(op: dict, res: dict, reference: dict) -> str | None:
    """Why the op failed, or None."""
    ref = reference.get(op_id(op))
    if ref is None:
        return "no reference output"
    if res["exit"] != ref["exit"]:
        return f"exit {res['exit']}, expected {ref['exit']}: {res['stderr'].strip()}"
    if res.get("sha256") != ref["sha256"]:
        return f"stdout sha256 {res.get('sha256')}, expected {ref['sha256']}"
    if res["results"] != ref["results"]:
        return f"{res['results']} results, expected {ref['results']}"
    if res["pass"] is not True:
        return f'"pass" is {res["pass"]}'
    return None


def setup_once() -> float:
    """Wall time of one cold ``python -m weightcomb --version``."""
    res = spawn([sys.executable, "-m", "weightcomb", "--version"])
    if res["exit"] != 0 or res["bytes"] == 0:
        raise SystemExit(f"weightcomb --version failed: {res['stderr'].strip()}")
    return res["wall"]


# ---------------------------------------------------------------------------
# Runs.


def machine_info() -> str:
    mem_mb = 0
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    mem_mb = int(line.split()[1]) // 1024
    except OSError:
        pass
    rev = "none"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        rev = head.read_text().strip()
        if rev.startswith("ref: "):
            ref = ROOT / ".git" / rev[5:]
            rev = ref.read_text().strip() if ref.is_file() else rev[5:]
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return (
        f"python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"mem {mem_mb} MB, git rev {rev[:12]}, src sha256 {src.hexdigest()[:12]}"
    )


class Run:
    """Attempted and failed ops of one run, with the reasons printed."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, op: dict, res: dict) -> None:
        self.attempted += 1
        reason = failure(op, res, self.reference)
        if reason is not None:
            self.failed += 1
            print(f"# FAIL {op_id(op)}: {reason}")


def run_passes(
    ops: list, run: Run, passes: int | None = None, seconds: float = 0.0,
    setup: list | None = None,
) -> tuple[list, list, list]:
    """Untraced passes: (pass walls, op walls, op peak RSS in KiB).  Runs
    ``passes`` passes, or with None at least MIN_PASSES passes and
    MIN_SAMPLES ops and as many more passes as are projected to end within
    ``seconds``.  A pass's wall is the sum of its ops' walls.  With
    ``setup``, a cold start is timed before every SETUP_EVERY-th op and
    appended there, so that setup samples spread over the whole run."""
    walls, op_walls, rss = [], [], []
    start = time.perf_counter()
    while True:
        wall = 0.0
        for op in ops:
            if setup is not None and len(op_walls) % SETUP_EVERY == 0:
                setup.append(setup_once())
            res = run_op(op)
            run.check(op, res)
            op_walls.append(res["wall"])
            rss.append(res["rss_kb"])
            wall += res["wall"]
        walls.append(wall)
        done = len(walls)
        if passes is not None:
            if done == passes:
                break
        elif (
            done >= MIN_PASSES
            and len(op_walls) >= MIN_SAMPLES
            and (time.perf_counter() - start) * (done + 1) / done > seconds
        ):
            break
    return walls, op_walls, rss


def measure(name: str, seed: int, seconds: float, smoke: bool, run: Run) -> dict:
    workload = WORKLOADS[name]
    ops = pass_ops(workload, seed, smoke)
    # Warm-up, untimed: the first cold start and op of a run fill the page
    # cache with the interpreter, the sources and their bytecode.
    setup_once()
    run_op(ops[0])
    setup: list[float] = []
    walls, op_walls, rss = run_passes(ops, run, 1 if smoke else None, seconds, setup)
    tail_s, tail_pct = tail(op_walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(op_walls),
        "op_tail_s": tail_s,
        "peak_rss_mb": max(rss) / 1024,
    }
    samples_path = OUT / f"run-{name}-seed{seed}.json"
    samples_path.write_text(json.dumps({
        "ops": [op_id(op) for op in ops], "op_walls": op_walls, "setup": setup, "rss_kb": rss,
    }) + "\n")
    print(f"# {len(walls)} passes of {len(ops)} ops, {len(op_walls)} op samples, "
          f"{len(setup)} cold starts")
    for k, op in enumerate(ops):
        print(f"#   {statistics.median(op_walls[k::len(ops)]):8.4f} s median  {op_id(op)}")
    for metric, unit in END_TO_END:
        print(f"{metric:<14} {metrics[metric]:12.6f} {unit}")
    print(f"{'':<14} op_tail_s is p{tail_pct:.1f} of n={len(op_walls)} ops")
    ratio = run.failed / max(run.attempted, 1)
    print(f"{'fail_ratio':<14} {ratio:12.6f} ({run.failed}/{run.attempted})")
    return metrics


def trace(name: str, seed: int, smoke: bool, run: Run) -> tuple[dict, bool]:
    """One untraced pass, then two traced passes whose counts must agree.
    Returns the per-layer metrics and whether every count repeated."""
    ops = pass_ops(WORKLOADS[name], seed, smoke)
    untraced, _, _ = run_passes(ops, run, passes=1)
    passes = []
    for _ in range(2):
        results = []
        for op in ops:
            res = run_op(op, traced=True)
            run.check(op, res)
            results.append(res)
        passes.append((sum(res["wall"] for res in results), results))

    repeated = True
    for op, first, second in zip(ops, passes[0][1], passes[1][1]):
        if first.get("counts") != second.get("counts"):
            repeated = False
            print(f"# COUNTS DID NOT REPEAT {op_id(op)}: "
                  f"{first.get('counts')} vs {second.get('counts')}")

    per_pass = [
        layer_metrics([(op, res) for op, res in zip(ops, results) if "spans" in res])
        for _, results in passes
    ]
    metrics = {}
    for metric, unit, source in PER_LAYER:
        if metric == "trace.overhead_s":
            continue
        values = [m[metric] for m in per_pass]
        metrics[metric] = statistics.fmean(values) if unit == "s" else values[0]
    metrics["trace.overhead_s"] = statistics.fmean(w for w, _ in passes) - untraced[0]

    spans_path = OUT / f"trace-{name}-seed{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as handle:
        for k, (_, results) in enumerate(passes):
            for op, res in zip(ops, results):
                handle.write(json.dumps({
                    "pass": k, "op": op_id(op), "names": res.get("names", []),
                    "spans": res.get("spans", []), "counts": res.get("counts", {}),
                }) + "\n")
    print(f"# traced 2 passes of {len(ops)} ops; spans in {spans_path.relative_to(ROOT)}")
    for metric, unit, _ in PER_LAYER:
        print(f"{metric:<30} {metrics[metric]:16.6f} {unit}")
    print(f"{'counts repeated':<30} {'yes' if repeated else 'NO'}")
    return metrics, repeated


def write_reference() -> None:
    """Record the digest of every op of every workload, pools and smoke
    inputs included, from the code as it is now."""
    reference = {}
    for name, workload in WORKLOADS.items():
        for op in workload.fixed + workload.pool + workload.smoke:
            key = op_id(op)
            if key in reference:
                continue
            res = run_op(op)
            reference[key] = {k: res[k] for k in ("exit", "sha256", "bytes", "results")}
            print(f"{name:<14} {res['wall']:7.3f}s {res['rss_kb'] / 1024:7.1f}MB {key}",
                  file=sys.stderr)
            if res["exit"] != 0 or res["pass"] is not True:
                raise SystemExit(f"reference op failed: {key}: {res['stderr']}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one pass")
    parser.add_argument(
        "--write-reference", action="store_true", help="regenerate reference.json"
    )
    args = parser.parse_args(argv)

    if not (SRC / "weightcomb" / "__init__.py").is_file():
        print(f"error: no weightcomb sources at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        reference = json.loads(REFERENCE.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {REFERENCE}: {exc}", file=sys.stderr)
        return 2

    # The build step: byte-compile a fresh checkout, untimed, so that no op
    # pays for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "bench"],
        cwd=ROOT, stdout=subprocess.DEVNULL, check=False,
    )
    print(f"# machine: {machine_info()}")
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    run = Run(reference)
    repeated = True
    if args.trace:
        metrics, repeated = trace(args.workload, args.seed, args.smoke, run)
        units = {m: u for m, u, _ in PER_LAYER}
    else:
        metrics = measure(args.workload, args.seed, args.seconds, args.smoke, run)
        units = dict(END_TO_END)
    result = {
        "correct": run.failed == 0 and repeated,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
