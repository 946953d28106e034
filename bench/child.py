"""Run one benchmark op in a fresh interpreter.

    python child.py lib '<spec>'     run a library op, print its report
    python child.py trace '<spec>'   run a CLI or library op traced, print
                                     one JSON line: digest, spans, counts

``spec`` is the op as JSON: ``{"kind": "cli", "argv": [...]}`` or
``{"kind": "lib", "fn": ..., "args": {...}}``.  ``weightcomb`` must be
importable (the benchmark puts the checkout's ``src`` on PYTHONPATH).

Tracing wraps public functions where the calling module binds them, e.g.
``cli.blocks``, ``glblocks.blocks``, ``partitions.d_core`` and
``glblocks.d_core``, and ``arith.PrimePower.from_q``.  A span wrapper records
(name, parent span, start, end) and a call count; a count wrapper, used for
primitives called hundreds of thousands of times, only counts.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, attribute, metric stem, "span" or "count", tally of the result).
# Two targets may share a stem; their spans and counts then add up.
TARGETS = [
    ("arith", "PrimePower.from_q", "arith.from_q", "count", None),
    ("arith", "factorize", "arith.factorize", "count", None),
    ("partitions", "d_core", "partitions.d_core", "count", None),
    ("partitions", "is_d_core", "partitions.is_d_core", "count", None),
    ("partitions", "core_tower", "partitions.core_tower", "span", None),
    ("partitions", "from_tower", "partitions.from_tower", "span", None),
    ("symchars", "wreath_char_degree", "symchars.wreath_degree", "span", None),
    ("younggrp", "triples", "younggrp.triples", "span", len),
    ("younggrp", "verify_bijection", "younggrp.verify", "span", None),
    ("glblocks", "semisimple_labels", "glblocks.labels", "span", len),
    ("glblocks", "blocks", "glblocks.blocks", "span", len),
    ("glblocks", "BlockLabel.to_json_dict", "glblocks.to_json", "span", None),
    ("glblocks", "verify_counting", "glblocks.verify", "span", lambda r: r.blocks_checked),
    ("glblocks", "generic_weights", "glblocks.weights", "span", len),
    ("glblocks", "af_weights", "glblocks.weights", "span", len),
    ("glblocks", "act_on_block", "glblocks.actions", "span", None),
    ("ffpoly", "F_set", "ffpoly.fset", "span", len),
    ("ffpoly", "z_act", "ffpoly.actions", "span", None),
    ("ffpoly", "frob_act", "ffpoly.actions", "span", None),
    ("cli", "_emit", "cli.emit", "span", None),
]


class Tracer:
    """Spans and counts, kept in memory until the op ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, parent, start ns, end ns]
        self.stack = [-1]
        self.counts: Counter[str] = Counter()

    def wrap(self, stem: str, fn, mode: str, tally):
        counts = self.counts
        calls_key, tally_key = stem + ".calls", stem + ".tally"
        if mode == "count":
            def counted(*args, **kwargs):
                counts[calls_key] += 1
                return fn(*args, **kwargs)
            return counted
        if stem not in self.names:
            self.names.append(stem)
        name = self.names.index(stem)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def spanned(*args, **kwargs):
            span = [name, stack[-1], clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            counts[calls_key] += 1
            if tally is not None:
                counts[tally_key] += tally(result)
            return result
        return spanned

    def install(self) -> None:
        modules = [
            m for n, m in sys.modules.items() if n.split(".")[0] == "weightcomb"
        ]
        for mod_name, attr, stem, mode, tally in TARGETS:
            mod = sys.modules["weightcomb." + mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(stem, raw.__func__, mode, tally)))
                else:
                    setattr(cls, meth, self.wrap(stem, raw, mode, tally))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(stem, orig, mode, tally)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)


def _trace(spec: dict) -> dict:
    start = time.perf_counter()
    import weightcomb.cli
    import_s = time.perf_counter() - start

    import weightcomb.ffpoly  # noqa: F401  (wrapped below; the CLI never imports it)
    from digest import ReportDigest, TextSink

    tracer = Tracer()
    tracer.install()
    digest = ReportDigest()
    real_stdout = sys.stdout
    sys.stdout = TextSink(digest)
    try:
        if spec["kind"] == "cli":
            main = tracer.wrap("cli.main", weightcomb.cli.main, "span", None)
            code = main(spec["argv"])
        else:
            code = _run_lib(spec)
    finally:
        sys.stdout = real_stdout
    return {
        "exit": code,
        **digest.finish(),
        "import_s": import_s,
        "names": tracer.names,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
    }


def _run_lib(spec: dict) -> int:
    import libops

    report = libops.run(spec)
    sys.stdout.write(libops.dumps(report))
    return 0 if report["pass"] else 1


def main() -> int:
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    if mode == "trace":
        sys.stdout.write(json.dumps(_trace(spec)) + "\n")
        return 0
    return _run_lib(spec)


if __name__ == "__main__":
    sys.exit(main())
