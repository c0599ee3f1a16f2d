"""In-process workloads: one round per fresh interpreter.

Run as ``python3 perfbench/workloads.py WORKLOAD SEED ROUND SCALE TRACE OUT``
with ``src`` on ``PYTHONPATH``.  It builds the round's inputs from
(SEED, ROUND), times each item, checks every output after the timed loop,
and writes a JSON result to OUT.  A fresh interpreter per round keeps
cupcap's module-level ``lru_cache``s from serving tables left by an
earlier round.

A round's time is the sum of its item times; items are cupcap calls on
generated point sets, timed one by one in CPU seconds (see speed.py).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import geometry as g

# the (m, n) grid and sets per (m, n, size); "tiny" serves the self-tests
THRESHOLD_MN = {"full": range(3, 8), "tiny": range(3, 5)}
THRESHOLD_REPS = {"full": 6, "tiny": 1}
# per round: criterion-9 attempts, criterion-7 sets, 10-point cells
RELATIVE_MIX = {"full": (24, 6, 8), "tiny": (4, 1, 1)}


@dataclass
class Item:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # failure message or None
    describe: Callable[[object], str]  # canonical text for the digest
    expected: tuple = ()  # exception types that are correct answers
    check_rejection: Callable[[Exception], Optional[str]] = lambda exc: None


def round_rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rnd}")


def _members(pts) -> str:
    return ";".join(f"{p.x},{p.y}" for p in pts)


# ---------------------------------------------------------------------------
# threshold_scan


def threshold_items(rng, scale: str, cupcap) -> tuple[list[Item], int]:
    """Sets at the Erdos-Szekeres threshold C(m+n-4, n-2)+1 and one point
    below it, each searched for a collinear triple, m-cup or n-cap."""
    extremal = cupcap.extremal
    items, bits = [], 0
    for m in THRESHOLD_MN[scale]:
        for n in THRESHOLD_MN[scale]:
            thr = math.comb(m + n - 4, n - 2) + 1
            for size in (thr, thr - 1):
                for _ in range(THRESHOLD_REPS[scale]):
                    ps = cupcap.PointSet.of(g.general_position(rng, size))
                    bits = max(bits, g.coord_bits(ps))
                    items.append(Item(
                        f"threshold:{m},{n}",
                        lambda ps=ps, m=m, n=n:
                            extremal.find_structure(ps, 3, m, n),
                        lambda w, ps=ps, m=m, n=n, t=size == thr:
                            _check_witness(w, ps, m, n, t),
                        lambda w: "none" if w is None else
                            f"{w.kind.value}:{_members(w.members)}"))
    return items, bits


def _check_witness(w, ps, m: int, n: int, at_threshold: bool):
    if w is None:
        return ("no witness at the threshold, contradicting the cup-cap "
                "theorem") if at_threshold else None
    members = list(w.members)
    if not set(members) <= set(ps):
        return "witness has points outside the input"
    want = {"collinear_run": (3, g.is_collinear),
            "cup": (m, lambda s: g.is_chain(s, +1)),
            "cap": (n, lambda s: g.is_chain(s, -1))}.get(w.kind.value)
    if want is None:
        return f"unexpected witness kind {w.kind.value}"
    size, valid = want
    if len(members) != size or not valid(members):
        return f"invalid {w.kind.value} witness of {len(members)} points"
    return None


# ---------------------------------------------------------------------------
# relative_body


def relative_items(rng, scale: str, cupcap) -> list[Item]:
    rel = cupcap.relative
    Point, PointSet, Body = cupcap.Point, cupcap.PointSet, rel.ConvexBody
    attempts, dil_sets, cells = RELATIVE_MIX[scale]
    items = []
    for i in range(attempts):
        # criterion 9: 6-10 points above a point or segment body
        if i % 2 == 0:
            body = Body.point(Point.of(rng.randrange(-4, 5),
                                       rng.randrange(-25, -12)))
        else:
            body = Body.segment(Point.of(rng.randrange(-10, -2), -15),
                                Point.of(rng.randrange(2, 10), -15))
        ps = PointSet.of(g.distinct_points(rng, rng.randrange(6, 11),
                                           (-18, 19), (2, 25)))
        items.append(Item(
            "inner_outer",
            lambda ps=ps, body=body: (rel.longest_inner_cap(ps, body),
                                      rel.longest_outer_cup(ps, body)),
            lambda out, ps=ps, body=body: _check_relative(out, ps, body),
            lambda out: "|".join(_members(w.members) for w in out),
            expected=(rel.GeometryPreconditionError,),
            check_rejection=lambda exc, body=body:
                _check_rejection(exc, body)))
    base = Body.segment(Point.of(-8, -1), Point.of(8, -1))
    for _ in range(dil_sets):
        # criterion 7: 50 points above a segment
        ps = PointSet.of(g.distinct_points(rng, 50, (-60, 61), (1, 120)))
        items.append(Item(
            "dilworth",
            lambda ps=ps: _conv_dilworth(rel, ps, base),
            lambda out, n=len(ps): _check_dilworth(*out, n),
            lambda out: (f"{out[1].v},{out[1].h}:"
                         f"{_members(out[1].longest_chain)}:"
                         f"{_members(out[1].max_antichain)}")))
    cell_base = Body.segment(Point.of(-10, 0), Point.of(10, 0))
    left, right = Point.of(-20, 0), Point.of(20, 0)
    for _ in range(cells):
        ps = PointSet.of(g.distinct_points(rng, 10, (-9, 10), (2, 25)))
        items.append(Item(
            "cell_profile",
            lambda ps=ps: rel.cell_profile(ps, left, right, cell_base),
            lambda prof, n=len(ps): _check_cell(prof, n),
            lambda prof: repr(prof)))
    return items


def _conv_dilworth(rel, ps, base):
    inst = rel.conv_order(ps, base)
    return inst, rel.dilworth(inst)


def _check_relative(out, ps, body):
    inner, outer = out
    verts = list(body.vertices)
    for w, valid in ((inner, g.is_inner_cap), (outer, g.is_outer_cup)):
        members = list(w.members)
        if not members or not set(members) <= set(ps):
            return f"{w.kind.value} witness is empty or not from the input"
        if not valid(members, verts):
            return f"{w.kind.value} witness fails its definition"
    return None


def _check_rejection(exc, body):
    pair = getattr(exc, "pair", None)
    if pair is not None and not g.line_meets_body(*pair, body.vertices):
        return "avoidance rejection whose witness line misses the body"
    return None


def _check_dilworth(inst, res, n: int):
    if res.v * res.h < n:
        return f"v*h = {res.v}*{res.h} < {n}"
    idx = {p: i for i, p in enumerate(inst.points)}
    chain = [idx[p] for p in res.longest_chain]
    anti = [idx[p] for p in res.max_antichain]
    if len(chain) != res.v or len(anti) != res.h:
        return "witness sizes differ from v and h"
    if not all(inst.less_idx(a, b) for a, b in zip(chain, chain[1:])):
        return "chain witness is not a chain of the conv order"
    if any(inst.less_idx(a, b) for a in anti for b in anti if a != b):
        return "antichain witness has comparable members"
    return None


def _check_cell(prof, n: int):
    if prof.v * prof.h < n:
        return f"v*h = {prof.v}*{prof.h} < {n}"
    if not all(1 <= x <= n for x in (prof.a, prof.b, prof.w, prof.z)):
        return f"cell profile out of range: {prof!r}"
    return None


# ---------------------------------------------------------------------------
# one round


def run_round(workload: str, seed: int, rnd: int, scale: str,
              trace: bool) -> dict:
    import cupcap

    from tracing import Tracer, delta

    rng = round_rng(workload, seed, rnd)
    bits = 0
    if workload == "threshold_scan":
        items, bits = threshold_items(rng, scale, cupcap)
    elif workload == "relative_body":
        items = relative_items(rng, scale, cupcap)
    else:
        raise ValueError(f"unknown in-process workload {workload!r}")

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    # each item is timed in CPU seconds and stamped with its monotonic start
    # and end, so that the harness can scale it by the machine speed probed
    # meanwhile; a traced item carries the spans it opened
    results, timings = [], []
    mark = tracer.snapshot() if tracer else None
    for item in items:
        covered = tracer.covered if tracer else 0.0
        start, c0 = time.perf_counter(), time.thread_time()
        try:
            out, exc = item.call(), None
        except Exception as e:  # checked below: expected, or a failure
            out, exc = None, e
        cpu, end = time.thread_time() - c0, time.perf_counter()
        spans = None
        if tracer:
            tracer.add_root(cpu, tracer.covered - covered)
            now = tracer.snapshot()
            spans, mark = delta(now, mark), now
        results.append((out, exc))
        timings.append([cpu, start, end, spans])
    if tracer:
        tracer.uninstall()

    failures, texts = [], []
    for item, (out, exc) in zip(items, results):
        if exc is None:
            failure, text = item.check(out), item.describe(out)
        elif isinstance(exc, item.expected):
            failure = item.check_rejection(exc)
            text = f"rejected:{type(exc).__name__}"
        else:
            failure, text = f"raised {type(exc).__name__}: {exc}", "raised"
        texts.append(f"{item.kind}={text}")
        if failure:
            failures.append(f"{item.kind}: {failure}")
    return {
        "items": [[item.kind, exc is None, *timing] for item, (_, exc), timing
                  in zip(items, results, timings)],
        "failures": failures,
        "digest": hashlib.sha256("\n".join(texts).encode()).hexdigest(),
        "coord_bits_max": bits,
    }


def main(argv: list[str]) -> int:
    workload, seed, rnd, scale, trace, out = argv
    result = run_round(workload, int(seed), int(rnd), scale, trace == "1")
    Path(out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
