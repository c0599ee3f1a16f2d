"""Span tracing around cupcap's public functions, from the outside.

``Tracer.install()`` replaces each traced function with a wrapper in every
``cupcap`` module that binds it (``cli``, ``constructions`` and
``relative`` import names from ``extremal`` and ``geom`` at import time,
so patching only the defining module would miss those calls).

Spans are aggregated as they close instead of being stored one by one:
the hot paths open hundreds of thousands of them.  A span's self time is
its duration minus the time covered by its child spans, so the self
times of all spans plus the root spans' own self time add up to the
traced time exactly.  Spans are timed in CPU seconds of the thread (see
speed.py).  Per-triple predicates are counted, not timed.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# module -> traced functions; each gets "<module>.<function>.calls|self_s"
TIMED = {
    "extremal": ("longest_cup_size", "longest_cap_size", "max_collinear",
                 "max_convex_subset", "find_structure", "longest_cup",
                 "longest_cap"),
    "constructions": ("build_free_set", "combine_flat", "build_convex_free",
                      "verify_construction"),
    "relative": ("longest_inner_cap", "longest_outer_cup", "radial_order",
                 "conv_order", "dilworth", "cell_profile", "find_fat_cap",
                 "populate_support", "transversal_check"),
    "geom": ("convex_hull", "point_in_convex_hull", "shear_distinct_x"),
    "espts": ("load_file", "save_file", "write_text_atomic"),
}
# bounds' closed forms are reported as one layer: "bounds.calls|self_s"
BOUNDS = ("comb0", "cup_cap_threshold", "cup_cap_upper_bound",
          "free_set_size_bound", "convex_forcing_lower",
          "convex_forcing_upper", "bound_table")
# counted only: "<module>.<function>.calls"
COUNTED = {"geom": ("cross_sign",)}

# the benchmark's own time between spans, and the span round cli.main
ROOT = "bench"
CLI_MAIN = "cli.main"


def span_names() -> list[str]:
    names = [f"{m}.{f}" for m, fs in TIMED.items() for f in fs]
    return names + ["bounds", CLI_MAIN, ROOT]


def counter_names() -> list[str]:
    names = [f"{m}.{f}.calls" for m, fs in COUNTED.items() for f in fs]
    return names + ["espts.bytes_read", "espts.bytes_written"]


class Tracer:
    """Aggregating span recorder; one per process, single-threaded."""

    def __init__(self):
        self.spans = {name: [0, 0.0] for name in span_names()}  # calls, self
        self.counters = dict.fromkeys(counter_names(), 0)
        self._stack: list[list[float]] = []  # child time per open span
        self.covered = 0.0  # time covered by top-level spans
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        frame = [0.0]
        stack = self._stack
        stack.append(frame)
        t0 = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.thread_time() - t0
            stack.pop()
            rec = self.spans[name]
            rec[0] += 1
            rec[1] += dur - frame[0]
            if stack:
                stack[-1][0] += dur
            else:
                self.covered += dur

    def add_root(self, total: float, covered: float) -> None:
        """Record one item the benchmark timed itself: ``total`` seconds,
        of which ``covered`` were inside top-level spans."""
        rec = self.spans[ROOT]
        rec[0] += 1
        rec[1] += total - covered

    def _timed(self, name: str, fn):
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return span(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args):
            counters[name] += 1
            return fn(*args)
        return wrapper

    def _sized(self, wrapped, counter: str, size_of):
        counters = self.counters

        @functools.wraps(wrapped)
        def wrapper(*args, **kwargs):
            out = wrapped(*args, **kwargs)
            counters[counter] += size_of(*args)
            return out
        return wrapper

    def install(self) -> None:
        """Patch every binding of the traced functions in loaded cupcap
        modules."""
        for mod in (*TIMED, "bounds"):
            importlib.import_module(f"cupcap.{mod}")
        mods = [m for n, m in list(sys.modules.items())
                if n == "cupcap" or n.startswith("cupcap.")]
        replace = {}
        for mod, funcs in TIMED.items():
            for f in funcs:
                orig = getattr(sys.modules[f"cupcap.{mod}"], f)
                replace[id(orig)] = (orig, self._timed(f"{mod}.{f}", orig))
        for f in BOUNDS:
            orig = getattr(sys.modules["cupcap.bounds"], f)
            replace[id(orig)] = (orig, self._timed("bounds", orig))
        for mod, funcs in COUNTED.items():
            for f in funcs:
                orig = getattr(sys.modules[f"cupcap.{mod}"], f)
                replace[id(orig)] = (orig,
                                     self._counted(f"{mod}.{f}.calls", orig))
        espts = sys.modules["cupcap.espts"]
        for f, counter, size_of in (
                ("load_file", "espts.bytes_read",
                 lambda path: os.path.getsize(path)),
                ("write_text_atomic", "espts.bytes_written",
                 lambda path, text: len(text.encode("utf-8")))):
            orig, wrapped = replace[id(getattr(espts, f))]
            replace[id(orig)] = (orig, self._sized(wrapped, counter, size_of))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def snapshot(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counters": dict(self.counters)}


def delta(new: dict, old: dict) -> dict:
    """``new - old``, keeping only what changed."""
    return {
        "spans": {k: [c - old["spans"][k][0], s - old["spans"][k][1]]
                  for k, (c, s) in new["spans"].items()
                  if c != old["spans"][k][0]},
        "counters": {k: v - old["counters"][k]
                     for k, v in new["counters"].items()
                     if v != old["counters"][k]},
    }


def merge(into: dict, snap: dict, factor: float = 1.0) -> dict:
    """Add a snapshot or delta into an accumulated one, self times
    multiplied by ``factor``."""
    for name, (calls, self_s) in snap["spans"].items():
        rec = into["spans"][name]
        rec[0] += calls
        rec[1] += self_s * factor
    for name, value in snap["counters"].items():
        into["counters"][name] += value
    return into


def empty_snapshot() -> dict:
    return Tracer().snapshot()
