"""Tests for the package's public surface."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from functools import reduce
from pathlib import Path

import weightcomb

REPO = Path(__file__).resolve().parents[1]


def test_every_public_name_resolves():
    modules = [weightcomb] + [
        importlib.import_module(f"weightcomb.{info.name}")
        for info in pkgutil.iter_modules(weightcomb.__path__)
    ]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert len(exporting) >= 6
    for module in exporting:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_benchmark_trace_targets_resolve():
    """``bench/run.py --trace 1`` wraps these functions by name, so a rename
    in ``weightcomb`` must fail here rather than only in a traced run."""
    path = REPO / "bench" / "child.py"
    spec = importlib.util.spec_from_file_location("bench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.TARGETS
    for mod_name, attr, _stem, mode, _tally in child.TARGETS:
        module = importlib.import_module(f"weightcomb.{mod_name}")
        target = reduce(getattr, attr.split("."), module)
        assert callable(target), f"{mod_name}.{attr}"
        assert mode in ("span", "count"), f"{mod_name}.{attr}: {mode}"


def test_import_loads_neither_dataclasses_inspect_nor_csv():
    """Every command pays the package import in a fresh process: the first
    two modules (with ``ast``, ``dis`` and ``tokenize``) once cost most of
    it, and ``csv`` about a tenth of it."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import weightcomb.cli, weightcomb.ffpoly\n"
        "costly = {'csv', 'dataclasses', 'inspect'}\n"
        "print(sorted(costly & set(sys.modules).difference(before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    )}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
