"""Library ops of the benchmark: each runs one exact computation through
weightcomb's public functions and returns a report shaped like the CLI's
(sorted keys, ``"pass"`` and a ``"results"`` list), so the same digest and
result count check every op.

Calls go through the module objects (``glblocks.blocks(...)``), never
through names bound here, so that the traced run sees them.
"""

from __future__ import annotations

import json
import random

from weightcomb import arith, ffpoly, glblocks, partitions


def roundtrip(n: int, ell: int, chunk: int, chunks: int) -> tuple[list, bool]:
    """``from_tower(core_tower(mu, ell)) == mu`` over chunk ``chunk`` of the
    partitions of n split into ``chunks`` parts.  The split follows a fixed
    shuffle, so that every chunk mixes long and short partitions alike and
    the chunks cost the same."""
    everything = partitions.partitions_of(n)
    order = list(range(len(everything)))
    random.Random(0).shuffle(order)
    results = []
    ok = True
    for mu in (everything[k] for k in order[chunk::chunks]):
        tower = partitions.core_tower(mu, ell)
        ok = ok and partitions.from_tower(tower) == mu
        results.append({"row_sizes": list(tower.row_sizes())})
    return results, ok


def block_actions(n: int, q: int, eps: int, ell: int) -> tuple[list, bool]:
    """Apply an ell'-central shift and the Frobenius to every block of the
    grid point; each image must be an enumerated block, and each action a
    permutation of the block list.  Results give the image indices."""
    all_blocks = glblocks.blocks(n, q, eps, ell)
    index = {b: i for i, b in enumerate(all_blocks)}
    shift = ell ** arith.valuation(q - eps, ell)
    perms = [
        [index.get(glblocks.act_on_block(action, b), -1) for b in all_blocks]
        for action in (shift, "frob")
    ]
    ok = all(sorted(p) == list(range(len(all_blocks))) for p in perms)
    results = [{"shift": s, "frob": f} for s, f in zip(*perms)]
    return results, ok


def poly_actions(q: int, eps: int, n: int) -> tuple[list, bool]:
    """Every central scalar and the Frobenius on the polynomial labels of
    degree <= n; each action must permute the label set."""
    ctx = ffpoly.ctx_for(q)
    labels = ffpoly.F_set(ctx, eps, n)
    index = {lab: i for i, lab in enumerate(labels)}
    order = q - eps
    perms = [
        [index.get(ffpoly.z_act(ffpoly.CentralScalar(k, order), lab), -1) for lab in labels]
        for k in range(order)
    ]
    perms.append([index.get(ffpoly.frob_act(lab, ctx), -1) for lab in labels])
    ok = all(sorted(p) == list(range(len(labels))) for p in perms)
    results = [
        {"deg": lab.deg, "family": lab.family, "code": lab.gamma.code, "images": list(images)}
        for lab, images in zip(labels, zip(*perms))
    ]
    return results, ok


OPS = {
    "roundtrip": roundtrip,
    "block_actions": block_actions,
    "poly_actions": poly_actions,
}


def run(spec: dict) -> dict:
    """The report of the library op that ``spec`` names."""
    results, ok = OPS[spec["fn"]](**spec["args"])
    return {"op": spec["fn"], "params": spec["args"], "pass": ok, "results": results}


def dumps(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
