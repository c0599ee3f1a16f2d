"""Generators for extremal point sets, with exact post-hoc verification.

Three families:

* base sets on a strictly convex chain that carry collinear groups inside
  the chain segments (no l collinear points, no m-cup, no 3-cap, and the
  mirror image),
* a recursive combiner that stacks a flattened copy above and to the right
  of another so that no cups, caps, or collinear runs ever span both parts,
* an arc assembly that spreads flattened blocks along a circular arc to
  produce sets with no l collinear points and no n points in convex
  position.

"Very flat" is made operational: placements start from an analytic guess
and shrink (halving the vertical scale / the block size) until the exact
separation predicates verify.  Verification always happens on the final
coordinates; nothing is trusted from construction-time reasoning.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .bounds import free_set_size_bound
from .extremal import (_check_convex_points, _detection_tables,
                       longest_cap_size, longest_cup_size, max_collinear,
                       max_convex_subset)
from .geom import Point, PointSet, int_coords, int_cross, int_hull

_MAX_ADAPT_ATTEMPTS = 10_000
# Largest set the generators will build; the same cap as enumerate_downsets.
_MAX_POINTS = 10**6


class ConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class ConstructionCertificate:
    """Analyzer results on the final coordinates of a built set."""

    target: tuple
    size: int
    max_collinear_points: int
    longest_cup_points: int
    longest_cap_points: int
    max_convex_points: Optional[int]
    no_collinear_ell: bool
    passes: bool

    def as_dict(self) -> dict:
        claim = {"kind": self.target[0],
                 "params": list(self.target[1:])}
        bounds = {
            "max_collinear_points": self.max_collinear_points,
            "longest_cup_points": self.longest_cup_points,
            "longest_cap_points": self.longest_cap_points,
        }
        if self.max_convex_points is not None:
            bounds["max_convex_points"] = self.max_convex_points
        return {"claim": claim, "size": self.size, "bounds": bounds,
                "passes": self.passes}


# ---------------------------------------------------------------------------
# helpers


def normalize_integer_coords(ps: PointSet) -> PointSet:
    """Equivalent set with small integer coordinates (``geom.int_coords``);
    certificates are unchanged."""
    return PointSet(Point(Fraction(x), Fraction(y)) for x, y in int_coords(ps))


def _check_size(total) -> None:
    if total > _MAX_POINTS:
        raise ValueError(f"the set would have {total} points, over the cap "
                         f"of {_MAX_POINTS}")


def _extent(ps: PointSet) -> tuple[Fraction, Fraction]:
    xs = [p.x for p in ps]
    ys = [p.y for p in ps]
    return max(xs) - min(xs), max(ys) - min(ys)


def _min_x_gap(ps: PointSet) -> Optional[Fraction]:
    xs = sorted(p.x for p in ps)
    gaps = [b - a for a, b in zip(xs, xs[1:]) if b != a]
    return min(gaps) if gaps else None


def _to_origin(ps: PointSet) -> PointSet:
    mx = min(p.x for p in ps)
    my = min(p.y for p in ps)
    return PointSet(Point(p.x - mx, p.y - my) for p in ps)


def _pow2_at_most(value: Fraction) -> Fraction:
    """Largest power of two <= value (value > 0), as an exact Fraction."""
    if value >= 1:
        return Fraction(1 << (int(value).bit_length() - 1))
    k = 1
    while Fraction(1, 1 << k) > value:
        k += 1
    return Fraction(1, 1 << k)


def _int_hulls_side(hu: Sequence[tuple[int, int]],
                    hl: Sequence[tuple[int, int]], want_sign: int) -> bool:
    """Exact check that every strict hull vertex r of the lower part lies
    strictly on one side of every line through two strict hull vertices
    p < q (in (x, y) order) of the upper part: the turn (p, q, r) has sign
    ``want_sign``.  ``hu`` and ``hl`` are the parts' ``int_hull``s from one
    ``int_coords`` array, whose positive per-axis map keeps the (x, y)
    order and turn signs.

    Only hull vertices are tested.  That covers every point of the lower
    part (the turn is affine in r), but not every pair of the upper: a
    steep pair inside its hull can have a lower point on its other side.
    """
    for i in range(len(hu)):
        for j in range(i + 1, len(hu)):
            p, q = hu[i], hu[j]
            if p > q:
                p, q = q, p
            for r in hl:
                if int_cross(p, q, r) * want_sign <= 0:
                    return False
    return True


# ---------------------------------------------------------------------------
# base constructions


def build_base_cupfree(l: int, m: int) -> PointSet:
    """A set with no l collinear points, no m-cup, and no 3-cap.

    Points sit strictly inside the segments of a strictly convex downward
    chain (vertices on a parabola): floor((m-1)/2) segments carry l-1
    equally spaced interior points each, and when m-1 is odd one extra
    point goes alone on the next unused segment.  Any triple within one
    segment is collinear; any other triple turns left, so the longest cap
    has 2 points and a cup takes at most 2 points per populated segment
    (plus the lone point).
    """
    if l < 3 or m < 3:
        raise ValueError("l and m must be >= 3")
    full_segments = (m - 1) // 2
    lone_point = (m - 1) % 2 == 1
    seg_count = full_segments + (1 if lone_point else 0)
    verts = [Point(Fraction(t), Fraction(t * t)) for t in range(seg_count + 1)]
    pts: list[Point] = []
    for s in range(full_segments):
        a, b = verts[s], verts[s + 1]
        for j in range(1, l):
            t = Fraction(j, l)
            pts.append(Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    if lone_point:
        a, b = verts[full_segments], verts[full_segments + 1]
        t = Fraction(1, 2)
        pts.append(Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    return normalize_integer_coords(PointSet(pts))


def build_base_capfree(l: int, n: int) -> PointSet:
    """Mirror image: no l collinear points, no 3-cup, no n-cap."""
    base = build_base_cupfree(l, n)
    return normalize_integer_coords(
        PointSet(Point(p.x, -p.y) for p in base))


# ---------------------------------------------------------------------------
# recursive combiner


def combine_flat(a: PointSet, b: PointSet) -> PointSet:
    """Union of a and a flattened copy of b placed above and to its right.

    The placement is meant to make every line through two points of the
    left part pass strictly below every point of the right part, and every
    line through two points of the right part pass strictly above every
    point of the left part.  Consequently a cup can use at most one
    right-part point after two left-part points (and the mirror for caps),
    and no collinear triple spans both parts.  The exact check
    (``_int_hulls_side``) tests only lines through two hull vertices of
    one part, against every point of the other; ``--cert``
    (``verify_construction``) recomputes every bound of the result.

    The vertical scale starts from an analytic slope-bound guess and is
    halved until both checks pass, at most ``_MAX_ADAPT_ATTEMPTS`` times.
    Each attempt normalises the union once (``int_coords``), checks both
    parts' hulls on it, and returns those integer coordinates.
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("combine_flat needs non-empty parts")
    a0 = _to_origin(a)
    b0 = _to_origin(b)
    wa, ha = _extent(a0)
    wb, hb = _extent(b0)
    x_max = wa + 1 + wb
    delta_candidates = [g for g in (_min_x_gap(a0), _min_x_gap(b0))
                        if g is not None]
    delta = min(delta_candidates) if delta_candidates else Fraction(1)
    h_max = max(ha, hb, Fraction(1))
    # want t * (h/delta) * x_max < 1 for both parts
    guess = delta / (2 * h_max * max(x_max, Fraction(1)))
    t = _pow2_at_most(min(guess, Fraction(1)))
    for _ in range(_MAX_ADAPT_ATTEMPTS):
        c = int_coords([*(Point(p.x, t * p.y) for p in a0),
                        *(Point(p.x + wa + 1, t * p.y + t * ha + 1)
                          for p in b0)])
        hl, hr = int_hull(c[:len(a0)]), int_hull(c[len(a0):])
        if _int_hulls_side(hl, hr, 1) and _int_hulls_side(hr, hl, -1):
            return PointSet(Point(Fraction(x), Fraction(y)) for x, y in c)
        t = t / 2
    raise ConstructionError(
        f"flat placement did not verify within {_MAX_ADAPT_ATTEMPTS} "
        "attempts")


def build_free_set(l: int, m: int, n: int) -> PointSet:
    """A set with no l collinear points, no m-cup, and no n-cap, of size at
    least free_set_size_bound(l, m, n); for l == 3 the size is exactly
    binomial(m+n-4, n-2)."""
    if min(l, m, n) < 3:
        raise ValueError("l, m, n must all be >= 3")
    _check_size(free_set_size_bound(l, m, n))
    memo: dict[tuple[int, int], PointSet] = {}

    def rec(mm: int, nn: int) -> PointSet:
        key = (mm, nn)
        if key not in memo:
            if nn == 3:
                memo[key] = build_base_cupfree(l, mm)
            elif mm == 3:
                memo[key] = build_base_capfree(l, nn)
            else:
                memo[key] = combine_flat(rec(mm - 1, nn), rec(mm, nn - 1))
        return memo[key]

    return rec(m, n)


# ---------------------------------------------------------------------------
# arc assembly


def _largest_remainder(values: Sequence[Fraction], total: int) -> list[int]:
    """Integer allocation summing to ``total``; floors first, remaining
    units to the largest fractional parts (ties to earlier entries)."""
    floors = [math.floor(v) for v in values]
    rem = total - sum(floors)
    if rem < 0 or rem > len(values):
        raise ValueError("allocation target out of range")
    order = sorted(range(len(values)),
                   key=lambda i: (-(values[i] - floors[i]), i))
    out = list(floors)
    for i in order[:rem]:
        out[i] += 1
    return out


def _arc_anchor(u: Fraction) -> Point:
    """Rational point on the unit circle, from (0, 1) at u=0 to (1, 0) at u=1."""
    d = 1 + u * u
    return Point(2 * u / d, (1 - u * u) / d)


def _blocks_pairwise_ok(placed: Sequence[tuple[Point, ...]]) -> bool:
    """Exact betweenness checks for blocks ordered top-left to bottom-right:

    * lines through two hull vertices of block i pass strictly above every
      block j > i,
    * lines through two hull vertices of block j pass strictly below every
      block i < j,
    * triples taken from three distinct blocks always turn right
      (so cross-block collinearity is impossible and one-per-block
      selections follow the cap-shaped arc).

    Each condition is affine in the point tested against a line, so hull
    vertices cover every point there; the first two do not cover lines
    through other pairs of a block.  ``--cert`` (``verify_construction``)
    recomputes every bound of the result.
    """
    coords = iter(int_coords([p for block in placed for p in block]))
    hulls = [int_hull(itertools.islice(coords, len(block)))
             for block in placed]
    t = len(hulls)
    for i in range(t):
        for j in range(i + 1, t):
            if not _int_hulls_side(hulls[i], hulls[j], -1):
                return False
            if not _int_hulls_side(hulls[j], hulls[i], 1):
                return False
    for i in range(t):
        for j in range(i + 1, t):
            for k in range(j + 1, t):
                for p in hulls[i]:
                    for q in hulls[j]:
                        for r in hulls[k]:
                            if int_cross(p, q, r) >= 0:
                                return False
    return True


def build_convex_free(l: int, n: int) -> PointSet:
    """A set of exactly (3l-1)*2^(n-5) points with no l collinear members
    and no n points in convex position.

    Flattened blocks free of large cups/caps are spread along a quarter
    circle from (0, 1) down to (1, 0): the top block excludes n-cups and
    3-caps, the middle blocks interpolate, the bottom block mirrors the
    top.  Block sizes are trimmed by largest-remainder allocation so the
    total hits the target exactly (dropping rightmost points, which cannot
    create new structures).  Requires n >= 6 (the arc needs all three block
    kinds).
    """
    if l < 3:
        raise ValueError("l must be >= 3")
    if n < 6:
        raise ValueError("the arc assembly needs n >= 6")
    target_total = (3 * l - 1) * 2 ** (n - 5)
    _check_size(target_total)
    shapes = [(n, 3)] + [(n - 2 - i, 4 + i) for i in range(n - 5)] + [(3, n)]
    blocks = [build_free_set(l, mm, nn) for mm, nn in shapes]
    hs = [free_set_size_bound(l, mm, nn) for mm, nn in shapes]
    if sum(hs) != target_total:
        raise ConstructionError("block size bounds do not telescope to the "
                                "target total")
    targets = _largest_remainder(hs, target_total)
    trimmed = [blk[:tgt] for blk, tgt in zip(blocks, targets)]

    t = len(trimmed)
    anchors = [_arc_anchor(Fraction(i + 1, t + 1)) for i in range(t)]
    gap_x = min(anchors[i + 1].x - anchors[i].x for i in range(t - 1))
    size = _pow2_at_most(gap_x / 4)
    flat = size
    norm = []
    for blk in trimmed:
        b0 = _to_origin(blk)
        w, h = _extent(b0)
        norm.append((b0, max(w, Fraction(1)), max(h, Fraction(1))))
    for _ in range(_MAX_ADAPT_ATTEMPTS):
        placed = []
        for (b0, w, h), anchor in zip(norm, anchors):
            sx = size / w
            sy = size * flat / h
            placed.append(tuple(Point(sx * p.x + anchor.x - size / 2,
                                      sy * p.y + anchor.y) for p in b0))
        if _blocks_pairwise_ok(placed):
            pts: list[Point] = []
            for block in placed:
                pts.extend(sorted(block, key=lambda p: p.x))
            return normalize_integer_coords(PointSet(pts))
        size = size / 2
        flat = flat / 2
    raise ConstructionError(
        f"arc placement did not verify within {_MAX_ADAPT_ATTEMPTS} "
        "attempts")


# ---------------------------------------------------------------------------
# verification


def verify_construction(ps: PointSet, claim: tuple) -> ConstructionCertificate:
    """Run the analyzers on concrete coordinates and check a claim.

    ``claim`` is ``("x", l, m, n)`` for cup/cap/collinear-free sets or
    ``("es", l, n)`` for convex-position-free sets.  Nothing from the
    builders is trusted; every bound is recomputed from the points.
    """
    kind = claim[0]
    if kind == "es":
        _check_convex_points(len(ps))
    if len(ps) < 2:
        cup = cap = coll = 1
    else:
        # cup and cap first: an over-limit set stops before the collinear
        # scan, which runs only when the tables' sweep saw three collinear
        # points
        cup, cap = longest_cup_size(ps), longest_cap_size(ps)
        coll = (len(max_collinear(ps))
                if _detection_tables(ps, False).collinear else 2)
    if kind == "x":
        _, l, m, n = claim
        no_coll = coll < l
        passes = (no_coll and cup <= m - 1 and cap <= n - 1
                  and len(ps) >= free_set_size_bound(l, m, n))
        return ConstructionCertificate(
            target=claim, size=len(ps), max_collinear_points=coll,
            longest_cup_points=cup, longest_cap_points=cap,
            max_convex_points=None, no_collinear_ell=no_coll, passes=passes)
    if kind == "es":
        _, l, n = claim
        convex = len(max_convex_subset(ps)) if len(ps) >= 3 else len(ps)
        no_coll = coll <= l - 1
        expected = (3 * l - 1) * Fraction(2) ** (n - 5)
        passes = (no_coll and convex <= n - 1 and len(ps) == expected)
        return ConstructionCertificate(
            target=claim, size=len(ps), max_collinear_points=coll,
            longest_cup_points=cup, longest_cap_points=cap,
            max_convex_points=convex, no_collinear_ell=no_coll, passes=passes)
    raise ValueError(f"unknown claim kind {kind!r}")
