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

"Very flat" is made operational: the combiner and the arc assembly each
place their parts once, at an analytic scale that provably separates
them, and raise ``ConstructionError`` if the exact separation predicates
fail there.  Verification always happens on the final coordinates;
nothing is trusted from construction-time reasoning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .bounds import convex_forcing_lower, free_set_size_bound
from .extremal import (_check_convex_points, _detection_tables,
                       longest_cap_size, longest_cup_size, max_collinear,
                       max_convex_subset)
from .geom import (Point, PointSet, int_coords, int_cross, int_hull,
                   int_normalize)

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
#
# The builders compute on lists of integer pairs from the base sets to the
# final output; only the public functions build Points.  Every placement
# step is a positive scaling and translation per axis of the rational
# placement it stands for, so ``int_normalize`` of its pairs is that
# placement's ``int_coords``, and every turn sign and (x, y) order the
# checks read is the same.

Pairs = list[tuple[int, int]]


def _point_set(pairs: Sequence[tuple[int, int]]) -> PointSet:
    return PointSet(Point(Fraction(x), Fraction(y)) for x, y in pairs)


def normalize_integer_coords(ps: PointSet) -> PointSet:
    """Equivalent set with small integer coordinates (``geom.int_coords``);
    certificates are unchanged."""
    return _point_set(int_coords(ps))


def _check_size(total) -> None:
    if total > _MAX_POINTS:
        raise ValueError(f"the set would have {total} points, over the cap "
                         f"of {_MAX_POINTS}")


def _halvings(num: int, den: int) -> int:
    """The least k >= 0 with 2**-k <= num/den (num, den > 0)."""
    q = -(-den // num)
    return (q - 1).bit_length() if q > 1 else 0


def _min_gap(values: Sequence[int]) -> Optional[int]:
    """Smallest positive difference of two values, None if all are equal."""
    v = sorted(set(values))
    return min((b - a for a, b in zip(v, v[1:])), default=None)


def _blocks_ok(hulls: Sequence[Sequence[tuple[int, int]]], sign: int) -> bool:
    """Exact check of parts placed left to right, given by their
    ``int_hull``s in one integer frame: every line through two hull
    vertices of the parts before one part has each hull vertex of that
    part strictly on side ``sign`` (the turn (p, q, r), p left of q, has
    that sign), and every line through two of its hull vertices has each
    hull vertex of an earlier part strictly on side -sign.  The lines
    across two earlier parts make every triple of three parts turn with
    ``sign``.  A positive per-axis map keeps the (x, y) order and turn
    signs, so any such frame gives the same answer.

    Only consecutive x-pairs are tested, and that decides every line.
    Let a_1, ..., a_k, r have strictly increasing x.  For a < a' < r,
    slope(a, r) is a positive-weight average of slope(a, a') and slope(a',
    r), with weights x(a') - x(a) and x(r) - x(a'); so the turn (a, a', r)
    has sign ``sign`` exactly when sign * slope(a', r) > sign * slope(a,
    r).  If that holds for each consecutive pair, sign * slope(a_i, r)
    increases strictly with i, and the turn (a_i, a_j, r) has sign
    ``sign`` for every i < j.  For r left of b_1, ..., b_k, the turn (b,
    b', r) is the turn (r, b, b'), and the same averages over slope(r, b)
    give the mirror.  So the check needs x to increase strictly along the
    concatenated sorted hulls, and returns False where it does not.

    Only hull vertices are tested.  That covers every point tested
    against a line (the turn is affine in it), but not every pair of
    points; the callers' slope bounds cover every pair as well
    (``_combine``, ``build_convex_free``).
    """
    hulls = [sorted(hull) for hull in hulls]
    pts = [p for hull in hulls for p in hull]
    if any(p[0] >= q[0] for p, q in zip(pts, pts[1:])):
        return False
    k = 0
    for hull in hulls:
        seen = pts[:k]  # the earlier parts' hull vertices
        for p, q in zip(seen, seen[1:]):
            if any(int_cross(p, q, r) * sign <= 0 for r in hull):
                return False
        for p, q in zip(hull, hull[1:]):
            if any(int_cross(p, q, r) * sign >= 0 for r in seen):
                return False
        k += len(hull)
    return True


# ---------------------------------------------------------------------------
# base constructions


def _base_cupfree(l: int, m: int) -> Pairs:
    """``build_base_cupfree`` on pairs: the chord points of the parabola
    (s, s^2) at j/l and the lone midpoint, scaled by 2l to integers."""
    full, lone = divmod(m - 1, 2)
    xs, ys = [], []
    for s in range(full):
        for j in range(1, l):
            xs.append(2 * (l * s + j))
            ys.append(2 * (l * s * s + j * (2 * s + 1)))
    if lone:
        xs.append(l * (2 * full + 1))
        ys.append(l * (2 * full * full + 2 * full + 1))
    return int_normalize(xs, ys)


def _base_capfree(l: int, n: int) -> Pairs:
    base = _base_cupfree(l, n)
    return int_normalize([x for x, _ in base], [-y for _, y in base])


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
    return _point_set(_base_cupfree(l, m))


def build_base_capfree(l: int, n: int) -> PointSet:
    """Mirror image: no l collinear points, no 3-cup, no n-cap."""
    if l < 3 or n < 3:
        raise ValueError("l and n must be >= 3")
    return _point_set(_base_capfree(l, n))


# ---------------------------------------------------------------------------
# recursive combiner


def _combine(a: tuple[Pairs, Pairs], b: tuple[Pairs, Pairs],
             ux: int = 1, uy: int = 1) -> tuple[Pairs, Pairs]:
    """``combine_flat`` on parts given as integer pairs with their
    ``int_hull``, measured in units ``ux`` and ``uy`` per axis.  Returns
    the union's ``int_normalize`` and its hull in that frame.

    The rational placement scales b's height by t = 2^-k and lifts it by
    t*ha + 1 over a's origin.  Scaling the y axis by 2^k turns that into
    b's own height lifted by ha + 2^k: an integer shift, which moves b's
    hull with it.  The union's hull is the hull of the two parts' hulls;
    its vertices are points of the union, so normalising them with the
    union leaves the union's minima and gcds unchanged.

    One placement is checked, at the first k, by ``_blocks_ok`` on the
    two hulls with side +1, and it passes on parts with pairwise distinct
    x.  Let delta be the least gap between distinct x of one part, H =
    max(ha, hb, uy) and W = wa + ux + wb; k is the least
    with uy * 2^k * delta >= 2*H*W, and b's lowest point lies G = uy *
    2^k above a's highest.  A pair p, q of a with distinct x has |slope|
    <= ha / delta, and every point r of b lies at most W to the right
    of q, so the line pq passes r's x at most ha*W/delta < G above a's
    top: r is strictly above it.  Mirrored, every line through two points
    of b with distinct x passes a's points strictly above them.  A pair
    with equal x has its vertical line with the other part on its wrong
    side at every k, so a part holding one is refused before any
    placement.
    """
    (a, hull_a), (b, hull_b) = a, b
    axs, ays = [x for x, _ in a], [y for _, y in a]
    bxs, bys = [x for x, _ in b], [y for _, y in b]
    if len(set(axs)) < len(axs) or len(set(bxs)) < len(bxs):
        raise ConstructionError(
            "flat placement did not verify: a part has two points with "
            "equal x")
    wa, ha = max(axs) - min(axs), max(ays) - min(ays)
    wb, hb = max(bxs) - min(bxs), max(bys) - min(bys)
    gaps = [g for g in (_min_gap(axs), _min_gap(bxs)) if g is not None]
    delta = min(gaps) if gaps else ux
    # want t * (h/delta) * x_max < 1 for both parts
    k = _halvings(delta * uy, 2 * max(ha, hb, uy) * (wa + ux + wb))
    dx = max(axs) + ux - min(bxs)
    lift = max(ays) - min(bys) + (uy << k)
    lifted = [(x + dx, y + lift) for x, y in hull_b]
    if not _blocks_ok([hull_a, lifted], 1):
        raise ConstructionError("flat placement did not verify")
    hull = int_hull(hull_a + lifted)
    c = int_normalize(axs + [x + dx for x in bxs] + [x for x, _ in hull],
                      ays + [y + lift for y in bys] + [y for _, y in hull])
    return c[:len(c) - len(hull)], c[len(c) - len(hull):]


def combine_flat(a: PointSet, b: PointSet) -> PointSet:
    """Union of a and a flattened copy of b placed above and to its right.

    The placement is meant to make every line through two points of the
    left part pass strictly below every point of the right part, and every
    line through two points of the right part pass strictly above every
    point of the left part.  Consequently a cup can use at most one
    right-part point after two left-part points (and the mirror for caps),
    and no collinear triple spans both parts.  The exact check
    (``_blocks_ok``) tests only lines through two hull vertices of one
    part, against every point of the other, and decides them from the
    consecutive x-pairs of each hull; ``--cert`` (``verify_construction``)
    recomputes every bound of the result.

    The vertical scale t = 2^-k comes from an analytic slope bound
    (``_combine``).  It separates every pair of points, not only the
    hull-vertex pairs the check tests.  The parts must have pairwise
    distinct x, as every part ``build_free_set`` combines has: a part with
    two points of equal x raises ``ConstructionError``, since the other
    part lies on the wrong side of their vertical line at every scale.
    The result is the union's ``int_coords``.  The work runs on integer pairs
    (``_combine``): each axis is scaled by the common denominator of its
    coordinates, which is also its unit length.
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("combine_flat needs non-empty parts")
    pts = [*a, *b]
    ux = math.lcm(*(p.x.denominator for p in pts))
    uy = math.lcm(*(p.y.denominator for p in pts))
    c = [(p.x.numerator * (ux // p.x.denominator),
          p.y.numerator * (uy // p.y.denominator)) for p in pts]
    ca, cb = c[:len(a)], c[len(a):]
    return _point_set(_combine((ca, int_hull(ca)), (cb, int_hull(cb)),
                               ux, uy)[0])


def _free_part(l: int, m: int, n: int,
               memo: dict[tuple[int, int], tuple[Pairs, Pairs]]
               ) -> tuple[Pairs, Pairs]:
    """``build_free_set`` on pairs, with its ``int_hull``; ``memo`` holds
    the parts already built for this l, by (m, n)."""
    if (m, n) not in memo:
        if n == 3 or m == 3:
            base = _base_cupfree(l, m) if n == 3 else _base_capfree(l, n)
            memo[m, n] = base, int_hull(base)
        else:
            memo[m, n] = _combine(_free_part(l, m - 1, n, memo),
                                  _free_part(l, m, n - 1, memo))
    return memo[m, n]


def build_free_set(l: int, m: int, n: int) -> PointSet:
    """A set with no l collinear points, no m-cup, and no n-cap, of size at
    least free_set_size_bound(l, m, n); for l == 3 the size is exactly
    binomial(m+n-4, n-2)."""
    _check_size(free_set_size_bound(l, m, n))
    return _point_set(_free_part(l, m, n, {})[0])


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


def _arc_anchors(t: int) -> tuple[Pairs, int, int]:
    """The rational points (2u, 1 - u^2)/(1 + u^2) of the unit circle at
    u = i/(t+1), i = 1..t, from near (0, 1) to near (1, 0): integer pairs
    over one common denominator, that denominator, and the least e with
    2^-e at most a quarter of the points' least x gap."""
    c = t + 1
    dens = [c * c + a * a for a in range(1, t + 1)]
    den = math.lcm(*dens)
    anchors = [(2 * a * c * (den // d), (c * c - a * a) * (den // d))
               for a, d in zip(range(1, t + 1), dens)]
    gap = min(q[0] - p[0] for p, q in zip(anchors, anchors[1:]))
    return anchors, den, _halvings(gap, 4 * den)


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

    Each block is scaled into an s x s^2 box at its anchor, s = 2^-e
    (``_arc_anchors``), on integer pairs: x is scaled by 2^(e+1) *
    lcm(widths) * den and y by 2^(2e) * lcm(heights) * den, where den is
    the anchors' common denominator.

    One placement is checked, by ``_blocks_ok`` on the blocks' hulls with
    side -1, as no (l, n) under the point cap fails it; the bounds below
    cover every pair of points, not only hull vertices.  In its bounding
    box scaled to 1 x 1, no pair of a prefix of a ``_free_part`` list
    falls steeper than 3.  Base cupfree sets rise.  A base capfree prefix
    lies on chords of the parabola (x, -x^2) from near its vertex, none
    over 3 times as steep as its first-to-last chord.  A ``_combine``
    prefix is one of the left part or spans a width of at most W and a
    height of at least G >= 2*H*W/delta; pairs across the parts rise, and
    a pair in one part falls at most H/delta <= G/(2W), which is 1/2 in
    the box.  So a line through two points of a block falls at most 3s
    per unit of x.  Anchors u < v with u >= h = 1/(t+1) have dy =
    dx*(u+v)/(1-uv) >= 3h*dx, and s <= h/2, 4s <= dx, so dy > 3s*(dx + s)
    + s^2: the line passes above every later box and, mirrored, below
    every earlier one.  A turn is affine in each point, so the triples of
    three blocks turn right if the 64 corner triples of their boxes do;
    the tests check those for t = 3..18, every n the cap admits.
    """
    if n < 6:
        raise ValueError("the arc assembly needs n >= 6")
    target_total = int(convex_forcing_lower(l, n)) - 1
    _check_size(target_total)
    shapes = [(n, 3)] + [(n - 2 - i, 4 + i) for i in range(n - 5)] + [(3, n)]
    hs = [free_set_size_bound(l, mm, nn) for mm, nn in shapes]
    if sum(hs) != target_total:
        raise ConstructionError("block size bounds do not telescope to the "
                                "target total")
    memo: dict[tuple[int, int], tuple[Pairs, Pairs]] = {}
    sizes = _largest_remainder(hs, target_total)
    blocks = [_free_part(l, mm, nn, memo)[0][:size]
              for (mm, nn), size in zip(shapes, sizes)]

    anchors, den, e = _arc_anchors(len(blocks))
    boxes = []  # each block's lower-left corner, width and height
    for blk in blocks:
        xs, ys = [x for x, _ in blk], [y for _, y in blk]
        x0, y0 = min(xs), min(ys)
        boxes.append((x0, y0, max(max(xs) - x0, 1), max(max(ys) - y0, 1)))
    w_lcm = math.lcm(*(w for _, _, w, _ in boxes))
    h_lcm = math.lcm(*(h for _, _, _, h in boxes))
    placed = []
    for blk, (x0, y0, w, h), (ax, ay) in zip(blocks, boxes, anchors):
        fx, fy = 2 * den * (w_lcm // w), den * (h_lcm // h)
        dx, dy = w_lcm * ax << (e + 1), h_lcm * ay << (2 * e)
        placed.append([(fx * (x - x0) + dx, fy * (y - y0) + dy)
                       for x, y in blk])
    if not _blocks_ok([int_hull(pts) for pts in placed], -1):
        raise ConstructionError("arc placement did not verify")
    out = [p for pts in placed for p in pts]
    return _point_set(int_normalize([x for x, _ in out], [y for _, y in out]))


# ---------------------------------------------------------------------------
# verification


def verify_construction(ps: PointSet, claim: tuple) -> ConstructionCertificate:
    """Run the analyzers on concrete coordinates and check a claim.

    ``claim`` is ``("x", l, m, n)`` for cup/cap/collinear-free sets or
    ``("es", l, n)`` for convex-position-free sets.  Before any table is
    built, the size an x set must reach (``free_set_size_bound``) or an es
    set must equal (``convex_forcing_lower - 1``) comes from ``bounds``, so
    a parameter below 3, like an unknown kind, raises ``ValueError``.
    Nothing from the builders is trusted; every bound is recomputed from
    the points.
    """
    kind, l, *rest = claim
    if kind == "x":
        m, n = rest
        size = free_set_size_bound(l, m, n)
    elif kind == "es":
        (n,) = rest
        size = convex_forcing_lower(l, n) - 1
        _check_convex_points(len(ps))
    else:
        raise ValueError(f"unknown claim kind {kind!r}")
    if len(ps) < 2:
        cup = cap = coll = len(ps)
    else:
        # cup and cap first: an over-limit set stops before the collinear
        # scan, which runs only when the tables' sweep saw three collinear
        # points
        cup, cap = longest_cup_size(ps), longest_cap_size(ps)
        coll = (len(max_collinear(ps))
                if _detection_tables(ps, False).collinear else 2)
    convex = None
    if kind == "x":
        fits = cup < m and cap < n and len(ps) >= size
    else:
        convex = len(max_convex_subset(ps)) if len(ps) >= 3 else len(ps)
        fits = convex < n and len(ps) == size
    return ConstructionCertificate(
        target=claim, size=len(ps), max_collinear_points=coll,
        longest_cup_points=cup, longest_cap_points=cap,
        max_convex_points=convex, no_collinear_ell=coll < l,
        passes=coll < l and fits)
