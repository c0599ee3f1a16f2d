"""Command-line front end.

Subcommands: gen-x, gen-es, analyze, verify, bounds, fat-cap, plot.
Exit codes: 0 success, 1 verification failure, 2 usage, parse or build errors.
All outputs are written atomically (temp file + rename) and are
byte-deterministic for identical arguments and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from . import espts
from .bounds import BoundsConfig

_BOUNDS_KEYS = ("c", "c1", "big_c", "epsilon")
_RUN_KEYS = ("seed", "sample_budget", "search_budget")


@dataclass(frozen=True)
class RunConfig:
    bounds: BoundsConfig = BoundsConfig()
    seed: int = 0
    sample_budget: int = 10_000
    search_budget: int = 200

    @staticmethod
    def from_file(path: str) -> "RunConfig":
        cfg = RunConfig()
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"config line {lineno}: expected key=value")
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                try:
                    if key in _BOUNDS_KEYS:
                        cfg = replace(cfg, bounds=replace(
                            cfg.bounds, **{key: _fraction(val)}))
                    elif key in _RUN_KEYS:
                        cfg = replace(cfg, **{key: _run_value(key, val)})
                    else:
                        raise ValueError(f"unknown key {key!r}")
                except ValueError as exc:
                    raise ValueError(f"config line {lineno}: {exc}") from None
        return cfg


def _fraction(text: str) -> Fraction:
    """Fraction(text), with a zero denominator reported as a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _run_value(key: str, text: str) -> int:
    """A run key's integer value; both budgets must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {text!r}") from None
    if key != "seed" and value < 1:
        raise ValueError(f"{key} must be at least 1, got {value}")
    return value


def _json_fraction(v):
    """``json.dumps``'s default: a Fraction as an int or a "p/q" string."""
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True,
                      default=_json_fraction) + "\n"


def _write_json(path: str, payload: dict) -> None:
    espts.write_text_atomic(path, _json_text(payload))


def _points_json(ps) -> list:
    return [[str(p.x), str(p.y)] for p in ps]


def _parse_claim(text: str) -> tuple:
    kind, _, rest = text.partition(":")
    try:
        nums = [int(p) for p in rest.split(",")]
    except ValueError:
        raise ValueError(f"malformed claim {text!r}") from None
    if (kind, len(nums)) in (("x", 3), ("es", 2)):
        return (kind, *nums)
    raise ValueError(f"malformed claim {text!r} (want x:L,M,N or es:L,N)")


# ---------------------------------------------------------------------------
# subcommand implementations
#
# Each handler imports the modules it uses when it runs, so a step loads
# only those (``fat-cap`` never loads ``constructions``, ``gen-x`` never
# loads ``relative``), and reads every function off its module at call
# time.


def _save_and_certify(ps, args, claim: tuple) -> int:
    from .constructions import verify_construction
    espts.save_file(ps, args.out)
    if args.cert:
        cert = verify_construction(ps, claim)
        _write_json(args.cert, cert.as_dict())
        if not cert.passes:
            return 1
    return 0


def _cmd_gen_x(args, cfg: RunConfig) -> int:
    from .bounds import free_set_size_bound
    from .constructions import build_free_set
    from .extremal import _check_table_points
    if args.cert:
        _check_table_points(free_set_size_bound(args.l, args.m, args.n))
    return _save_and_certify(build_free_set(args.l, args.m, args.n), args,
                             ("x", args.l, args.m, args.n))


def _cmd_gen_es(args, cfg: RunConfig) -> int:
    from .bounds import convex_forcing_lower
    from .constructions import build_convex_free
    from .extremal import _check_convex_points, _check_table_points
    if args.cert:
        size = convex_forcing_lower(args.l, args.n) - 1
        _check_table_points(size)
        _check_convex_points(size)
    return _save_and_certify(build_convex_free(args.l, args.n), args,
                             ("es", args.l, args.n))


def _cmd_analyze(args, cfg: RunConfig) -> int:
    from .extremal import (_check_convex_points, _detection_tables,
                           _sorted_coords, find_structure, longest_cap,
                           longest_cup, max_collinear, max_convex_subset)
    from .geom import shear_distinct_x
    missing = [f"--{k}" for k in ("l", "m", "n") if getattr(args, k) is None]
    if 0 < len(missing) < 3:
        raise ValueError("the structure search needs --l, --m and --n; "
                         f"missing {', '.join(missing)}")
    ps = espts.load_file(args.infile)
    _check_convex_points(len(ps))  # before any table is built
    sheared = shear_distinct_x(ps)
    # the shear keeps the (x, y) order (witnesses map back by index), lines
    # and convex position; a cup or cap may gain one equal-x pair (slope
    # 1/eps; a chain's slopes are strictly monotone), so one point at most
    unshear = dict(zip(sheared, ps)).__getitem__
    members = {}  # analyzer name -> witness; a skipped one's is ps
    if len(ps) >= 2:
        members["longest_cup"] = [*map(unshear, longest_cup(sheared).members)]
        members["longest_cap"] = [*map(unshear, longest_cap(sheared).members)]
        # a shear keeps lines, so the tables longest_cup built for the
        # sheared set say whether three points of ps are collinear; if none
        # are, max_collinear's run is the first two points in (x, y) order
        members["max_collinear"] = (
            max_collinear(ps).members
            if _detection_tables(sheared, True).collinear
            else _sorted_coords(ps)[0][:2])
    if len(ps) >= 3:
        members["max_convex_subset"] = max_convex_subset(ps).members
    names = ("longest_cup", "longest_cap", "max_collinear",
             "max_convex_subset")
    witnesses = {name: _points_json(members.get(name, ps)) for name in names}
    report = {
        "input_file": args.infile,
        "n_points": len(ps),
        **{name: len(witnesses[name]) for name in names},
        "witnesses": witnesses,
    }
    if not missing:
        found = find_structure(sheared, args.l, args.m, args.n)
        report["structure"] = (
            None if found is None else
            {"kind": found.kind.value,
             "points": _points_json(map(unshear, found.members))})
    _write_json(args.report, report)
    return 0


def _cmd_verify(args, cfg: RunConfig) -> int:
    from .constructions import verify_construction
    ps = espts.load_file(args.infile)
    claim = _parse_claim(args.claim)
    cert = verify_construction(ps, claim)
    payload = cert.as_dict()
    payload["input_file"] = args.infile
    if args.report:
        _write_json(args.report, payload)
    else:
        sys.stdout.write(_json_text(payload))
    return 0 if cert.passes else 1


def _cmd_bounds(args, cfg: RunConfig) -> int:
    from .bounds import bound_table
    bcfg = cfg.bounds
    for name in _BOUNDS_KEYS:
        val = getattr(args, name)
        if val is not None:
            try:
                bcfg = replace(bcfg, **{name: _fraction(val)})
            except ValueError as exc:
                raise ValueError(f"--{name.replace('_', '-')}: {exc}") from None
    table = bound_table(args.l, args.maxmn, bcfg)
    _write_json(args.out, table)
    return 0


def _cmd_fat_cap(args, cfg: RunConfig) -> int:
    from .relative import (check_selection_tuples, find_fat_cap,
                           populate_support)
    ps = espts.load_file(args.infile)
    seed = args.seed if args.seed is not None else cfg.seed
    budget = args.budget if args.budget is not None else cfg.search_budget
    sample_budget = (args.sample_budget if args.sample_budget is not None
                     else cfg.sample_budget)
    cap, min_occ = find_fat_cap(ps, args.k, seed=seed, budget=budget)
    occ = populate_support(ps, cap)
    rep = check_selection_tuples(occ.members[:args.k - 1], sample_budget, seed)
    payload = {
        "k": args.k,
        "cap": _points_json(cap),
        "occupancies": list(occ.counts[:args.k - 1]),
        "min_occupancy": min_occ,
        "transversal": rep.as_dict(),
    }
    _write_json(args.report, payload)
    return 0


def _svg_document(ps, highlight: list[int]) -> str:
    width, height, margin = 800.0, 600.0, 40.0
    xs, ys = [], []
    for i, p in enumerate(ps):
        try:
            xs.append(float(p.x))
            ys.append(float(p.y))
        except OverflowError:
            raise ValueError(f"point {i}, {p!r}, lies beyond the float "
                             "range; plot cannot draw it") from None
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    for axis, lo, hi in (("x", xmin, xmax), ("y", ymin, ymax)):
        if hi - lo == float("inf"):
            raise ValueError(f"the {axis} span, {lo:g} to {hi:g}, lies "
                             "beyond the float range; plot cannot draw it")
    spanx = (xmax - xmin) or 1.0
    spany = (ymax - ymin) or 1.0
    scale = min((width - 2 * margin) / spanx, (height - 2 * margin) / spany)

    def tx(x):
        return margin + (x - xmin) * scale

    def ty(y):
        return height - margin - (y - ymin) * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    if highlight:
        pts = " ".join(f"{tx(xs[i]):.6f},{ty(ys[i]):.6f}" for i in highlight)
        lines.append(f'<polyline points="{pts}" fill="none" stroke="#c62828" '
                     'stroke-width="2"/>')
    hi = set(highlight)
    for i in range(len(ps)):
        r = 5.0 if i in hi else 3.0
        fill = "#c62828" if i in hi else "#222222"
        lines.append(f'<circle cx="{tx(xs[i]):.6f}" cy="{ty(ys[i]):.6f}" '
                     f'r="{r:.1f}" fill="{fill}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _cmd_plot(args, cfg: RunConfig) -> int:
    ps = espts.load_file(args.infile)
    if not ps:
        raise ValueError(f"{args.infile} holds an empty point set; "
                         "there is nothing to plot")
    highlight: list[int] = []
    if args.highlight:
        try:
            highlight = [int(t) for t in args.highlight.split(",") if t]
        except ValueError:
            raise ValueError(f"malformed highlight list {args.highlight!r}")
        for i in highlight:
            if not (0 <= i < len(ps)):
                raise ValueError(f"highlight index {i} out of range")
    espts.write_text_atomic(args.svg_out, _svg_document(ps, highlight))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cupcap",
        description="generate, analyze, and verify extremal planar point sets")
    top.add_argument("--config", help="key=value config file")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-x", help="generate a cup/cap/collinear-free set")
    p.add_argument("l", type=int)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--cert", help="also write a verification certificate")
    p.set_defaults(func=_cmd_gen_x)

    p = sub.add_parser("gen-es",
                       help="generate a convex-position-free set")
    p.add_argument("l", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--cert", help="also write a verification certificate")
    p.set_defaults(func=_cmd_gen_es)

    p = sub.add_parser("analyze", help="run all analyzers on a point set")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--l", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="check a claim against a point set")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--claim", required=True,
                   help="x:L,M,N or es:L,N")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="emit the bound table as JSON")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--maxmn", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--c")
    p.add_argument("--c1")
    p.add_argument("--big-c", dest="big_c")
    p.add_argument("--epsilon")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("fat-cap", help="search for a well-populated cup/cap")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--sample-budget", dest="sample_budget", type=int)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_fat_cap)

    p = sub.add_parser("plot", help="emit a standalone SVG of a point set")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--svg", dest="svg_out", required=True)
    p.add_argument("--highlight",
                   help="comma-separated point indices to mark")
    p.set_defaults(func=_cmd_plot)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        return args.func(args, cfg)
    except (OSError, ValueError) as exc:  # EsptsParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
