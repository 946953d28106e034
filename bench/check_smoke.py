"""Smoke test of the benchmark: every workload once on tiny inputs, untraced
and traced, with digests, result counts and call-count repeats checked and
nothing about timing asserted.

    python3 -m pytest -q bench/check_smoke.py

The file name keeps it out of the repository's own test suite, which
collects ``test_*.py``; the test runs only when named.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_run(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--smoke", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == declared


def test_declaration_matches_benchmark():
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in DECLARED["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in DECLARED["per_layer"]] == [
        (name, unit) for name, unit, _ in bench.PER_LAYER
    ]


def test_reference_covers_every_op():
    reference = json.loads(bench.REFERENCE.read_text())
    for workload in bench.WORKLOADS.values():
        for op in workload.fixed + workload.pool + workload.smoke:
            assert bench.op_id(op) in reference


def test_tail_leaves_ten_samples_above():
    samples = [float(k) for k in range(40)]
    assert bench.tail(samples) == (29.0, 75.0)
    assert bench.tail(samples[:5]) == (4.0, 100.0)


def test_fails_without_sources():
    bench.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = _run(bare, "--workload", "campaign", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
