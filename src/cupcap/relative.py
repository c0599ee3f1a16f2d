"""Structures relative to a convex body: cap support regions and
transversals, radial order, inner-caps and outer-cups, the convex-hull
partial order with Dilworth decomposition, and cell statistics.

A convex body K here is a point, a segment, or a convex polygon.  A point
set P *avoids* K when the line through any two members is disjoint from K,
and P and K are *separated* when a line strictly separates conv(P) from K.
Under those preconditions P carries a radial (tangent) order around K, and
every non-collinear triple is exactly one of:

* an inner-cap: each member is strictly separable from the other two
  together with K (equivalently, lies outside their convex hull with K),
* an outer-cup: each member together with K is strictly separable from the
  other two.

All predicates are exact (the chain DP reads them off integer turn signs,
see ``_relative_chain_dp``); randomized search is deterministic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .extremal import StructureWitness, WitnessKind, is_cap, is_cup
from .geom import (HalfPlane, Point, PointSet, convex_hull, cross_sign,
                   hull_contains, int_coords, int_cross, is_convex_position,
                   point_in_convex_hull, point_in_convex_region)


class GeometryPreconditionError(ValueError):
    pass


class SeparationError(GeometryPreconditionError):
    pass


class AvoidanceError(GeometryPreconditionError):
    def __init__(self, message: str, pair: tuple[Point, Point]):
        super().__init__(message)
        self.pair = pair


class OrderViolation(ValueError):
    def __init__(self, message: str, witness: tuple):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class ConvexBody:
    """A point, segment, or convex polygon (vertices in hull order)."""

    vertices: tuple[Point, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a convex body needs at least one point")
        if len(self.vertices) >= 3 and not is_convex_position(self.vertices):
            raise ValueError("polygon body must be in strict convex position")

    @staticmethod
    def point(p: Point) -> "ConvexBody":
        return ConvexBody((p,))

    @staticmethod
    def segment(p: Point, q: Point) -> "ConvexBody":
        if p == q:
            raise ValueError("segment endpoints must differ")
        return ConvexBody((p, q))

    @staticmethod
    def polygon(points: Sequence[Point]) -> "ConvexBody":
        return ConvexBody(convex_hull(points))


# ---------------------------------------------------------------------------
# convex-set predicates


def _project(pts: Sequence[Point], ax: Fraction, ay: Fraction):
    vals = [ax * p.x + ay * p.y for p in pts]
    return min(vals), max(vals)


def separating_axis(a: Sequence[Point],
                    b: Sequence[Point]) -> Optional[tuple[Fraction, Fraction]]:
    """An exact axis (nx, ny) with max proj(b) < min proj(a), or None.

    Candidate axes: edge normals of both hulls plus all pairwise vertex
    differences (the latter cover the degenerate point/segment
    closest-feature cases); together they witness every strict separation
    of compact convex sets in the plane.
    """
    ha, hb = convex_hull(a), convex_hull(b)
    axes = []
    for hull in (ha, hb):
        k = len(hull)
        if k >= 2:
            edge_count = 1 if k == 2 else k
            for i in range(edge_count):
                p, q = hull[i], hull[(i + 1) % k]
                axes.append((-(q.y - p.y), q.x - p.x))
    for p in ha:
        for q in hb:
            axes.append((q.x - p.x, q.y - p.y))
    for ax, ay in axes:
        if ax == 0 and ay == 0:
            continue
        amin, amax = _project(ha, ax, ay)
        bmin, bmax = _project(hb, ax, ay)
        if bmax < amin:
            return (ax, ay)
        if amax < bmin:
            return (-ax, -ay)
    return None


def hulls_strictly_disjoint(a: Sequence[Point], b: Sequence[Point]) -> bool:
    """Exact disjointness of conv(a) and conv(b)."""
    return separating_axis(a, b) is not None


# ---------------------------------------------------------------------------
# support regions


@dataclass(frozen=True)
class SupportRegion:
    """Open region flanking edge ``index`` of a cup/cap, outside its hull,
    clipped by the neighboring edge lines."""

    index: int
    halfplanes: tuple[HalfPlane, ...]

    def contains(self, p: Point) -> bool:
        return point_in_convex_region(p, self.halfplanes)


def _side_halfplane(p: Point, q: Point, inside: Point,
                    keep_inside: bool) -> HalfPlane:
    h = HalfPlane.left_of(p, q)
    on_inside = h.contains(inside)
    if on_inside == keep_inside:
        return h
    return HalfPlane.right_of(p, q)


def support_regions(x: PointSet) -> list[SupportRegion]:
    """The k open regions of a k-cup or k-cap (k >= 4), indexed by edge:
    indices 0..k-2 flank the chain edges left to right and index k-1 flanks
    the closing hull edge.  Wraparound supplies the two clip lines of the
    end regions."""
    pts = sorted(x, key=lambda p: p.x)
    k = len(pts)
    if k < 4:
        raise ValueError("support regions need a cup/cap of >= 4 points")
    if not (is_cup(pts) or is_cap(pts)):
        raise ValueError("support regions are defined only for cups and caps")
    centroid = Point(sum(p.x for p in pts) / k, sum(p.y for p in pts) / k)
    edges = [(pts[i], pts[i + 1]) for i in range(k - 1)] + [(pts[-1], pts[0])]
    regions = []
    for i in range(k):
        prev_e = edges[(i - 1) % k]
        next_e = edges[(i + 1) % k]
        hp_out = _side_halfplane(*edges[i], centroid, keep_inside=False)
        hp_prev = _side_halfplane(*prev_e, centroid, keep_inside=True)
        hp_next = _side_halfplane(*next_e, centroid, keep_inside=True)
        regions.append(SupportRegion(i, (hp_out, hp_prev, hp_next)))
    return regions


@dataclass(frozen=True)
class SupportOccupancy:
    regions: tuple[SupportRegion, ...]
    members: tuple[tuple[Point, ...], ...]

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self.members)


def populate_support(p: PointSet, x: PointSet) -> SupportOccupancy:
    """Exact membership of every point of p in every support region of x."""
    regions = support_regions(x)
    members = tuple(
        tuple(q for q in p if region.contains(q)) for region in regions)
    return SupportOccupancy(tuple(regions), members)


# ---------------------------------------------------------------------------
# fat-cap search


def _region_line_ints(region: SupportRegion) -> list[tuple[int, int, int]]:
    out = []
    for h in region.halfplanes:
        s = math.lcm(h.a.denominator, h.b.denominator, h.c.denominator)
        out.append((int(h.a * s), int(h.b * s), int(h.c * s)))
    return out


def _min_chain_occupancy(coords: Sequence[tuple[int, int]],
                         cap_idx: Sequence[int],
                         xs: Optional[np.ndarray],
                         ys: Optional[np.ndarray]) -> int:
    cap_pts = PointSet(Point(Fraction(coords[i][0]), Fraction(coords[i][1]))
                       for i in cap_idx)
    regions = support_regions(cap_pts)
    k = len(cap_idx)
    best = None
    for region in regions[:k - 1]:
        lines = _region_line_ints(region)
        if xs is not None:
            mask = np.ones(len(coords), dtype=bool)
            for a, b, c in lines:
                mask &= (a * xs + b * ys + c) > 0
            count = int(mask.sum())
        else:
            count = 0
            for px, py in coords:
                if all(a * px + b * py + c > 0 for a, b, c in lines):
                    count += 1
        best = count if best is None else min(best, count)
    return best if best is not None else 0


def find_fat_cap(p: PointSet, k: int, seed: int,
                 budget: int) -> tuple[PointSet, int]:
    """Empirical search for a k-cup or k-cap whose k-1 chain-edge support
    regions are all well populated.

    Enumerates k-subsets of seeded random samples of p, scoring each
    cup/cap candidate by the minimum occupancy over its chain regions,
    until ``budget`` candidates have been evaluated; returns the best
    candidate (ties to the first found).  Deterministic given the seed.
    Raises if no k-cup or k-cap turns up at all.
    """
    n = len(p)
    if k < 4:
        raise ValueError("fat-cap search needs k >= 4")
    if n < k:
        raise ValueError("not enough points")
    pts = sorted(p, key=lambda q: q.x)
    if any(a.x == b.x for a, b in zip(pts, pts[1:])):
        raise ValueError("fat-cap search needs distinct x-coordinates")
    coords = int_coords(pts)
    # halfplane coefficients stay below ~4*max|coord|^2, far from int64 overflow
    use_np = max(max(abs(cx), abs(cy)) for cx, cy in coords) < (1 << 20)
    xs = np.array([c[0] for c in coords], dtype=np.int64) if use_np else None
    ys = np.array([c[1] for c in coords], dtype=np.int64) if use_np else None

    rng = random.Random(seed)
    sample_size = min(n, max(12, 2 * k))
    best_idx: Optional[tuple[int, ...]] = None
    best_occ = -1
    evaluated = 0
    rounds = 0
    max_rounds = max(8, budget)
    while evaluated < budget and rounds < max_rounds:
        rounds += 1
        sample = sorted(rng.sample(range(n), sample_size))
        for combo in itertools.combinations(sample, k):
            cpts = [pts[i] for i in combo]
            if not (is_cup(cpts) or is_cap(cpts)):
                continue
            occ = _min_chain_occupancy(coords, combo, xs, ys)
            evaluated += 1
            if occ > best_occ:
                best_occ = occ
                best_idx = combo
            if evaluated >= budget:
                break
    if best_idx is None:
        raise ValueError(
            f"no {k}-cup or {k}-cap found within the search budget")
    return PointSet(pts[i] for i in best_idx), best_occ


@dataclass(frozen=True)
class TransversalReport:
    ok: bool
    mode: str  # "exhaustive" or "sampled"
    checked: int
    violations: int
    counterexample: Optional[tuple[Point, ...]]

    def as_dict(self) -> dict:
        d = {"mode": self.mode, "checked": self.checked,
             "violations": self.violations}
        if self.counterexample is not None:
            d["counterexample"] = [[str(p.x), str(p.y)] for p in
                                   self.counterexample]
        return d


def check_selection_tuples(groups: Sequence[Sequence[Point]],
                           sample_budget: int, seed: int) -> TransversalReport:
    """Convex-position check of one-point-per-group selections.

    Exhaustive when the tuple count is at most ``sample_budget``, otherwise
    seeded uniform sampling of that many tuples.  Returns the first
    violating tuple as a counterexample when one is found; empty groups
    make the check vacuous (zero tuples).
    """
    groups = [list(g) for g in groups]
    total = math.prod(len(g) for g in groups)
    if total == 0:
        return TransversalReport(True, "exhaustive", 0, 0, None)
    violations = 0
    counterexample = None
    if total <= sample_budget:
        checked = total
        for tup in itertools.product(*groups):
            if not is_convex_position(tup):
                violations += 1
                if counterexample is None:
                    counterexample = tuple(tup)
        return TransversalReport(violations == 0, "exhaustive", checked,
                                 violations, counterexample)
    rng = random.Random(seed)
    for _ in range(sample_budget):
        tup = tuple(g[rng.randrange(len(g))] for g in groups)
        if not is_convex_position(tup):
            violations += 1
            if counterexample is None:
                counterexample = tup
    return TransversalReport(violations == 0, "sampled", sample_budget,
                             violations, counterexample)


def transversal_check(p: PointSet, x: PointSet, sample_budget: int,
                      seed: int) -> TransversalReport:
    """Are all tuples with one point per chain region in convex position?"""
    occ = populate_support(p, x)
    k = len(x)
    return check_selection_tuples(occ.members[:k - 1], sample_budget, seed)


# ---------------------------------------------------------------------------
# radial order and triple classification


def _line_misses(a: tuple[int, int], b: tuple[int, int],
                 body: Sequence[tuple[int, int]]) -> bool:
    """Whether all body vertices lie strictly on one side of line ab."""
    side = int_cross(a, b, body[0])
    return all(int_cross(a, b, v) * side > 0 for v in body)


def _check_avoidance(pts: Sequence[Point], body: ConvexBody) -> None:
    c = int_coords([*pts, *body.vertices])
    verts = c[len(pts):]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if not _line_misses(c[i], c[j], verts):
                raise AvoidanceError(
                    f"line through {pts[i]!r} and {pts[j]!r} meets the body",
                    (pts[i], pts[j]))


def radial_order(p: PointSet, body: ConvexBody) -> list[Point]:
    """Clockwise tangent order of p around the body, left to right.

    Requires a separating line between the body and conv(p) and that p
    avoids the body; both preconditions are checked exactly, with a witness
    on failure.  For a single-point body this is angular order.
    """
    order = _relaxed_radial_order(p, body)
    _check_avoidance(list(p), body)
    ref = body.vertices[0]
    # avoidance puts the whole body strictly on one side of each pair line,
    # so one vertex decides the side; p precedes q when the body lies to
    # the right of the directed line p -> q.
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if cross_sign(order[i], order[j], ref) != -1:
                raise OrderViolation(
                    "radial comparisons are not a total order",
                    (order[i], order[j]))
    return order


class TripleKind(Enum):
    INNER_CAP = "inner_cap"
    OUTER_CUP = "outer_cup"
    COLLINEAR = "collinear"


def classify_triple(body: ConvexBody, p: Point, q: Point,
                    r: Point) -> TripleKind:
    """Exactly one of inner-cap / outer-cup / collinear for a valid triple."""
    if cross_sign(p, q, r) == 0:
        return TripleKind.COLLINEAR
    trio = (p, q, r)
    if all(not point_in_convex_hull(x, [y for y in trio if y is not x]
                                    + list(body.vertices))
           for x in trio):
        return TripleKind.INNER_CAP
    if all(hulls_strictly_disjoint([x, *body.vertices],
                                   [y for y in trio if y is not x])
           for x in trio):
        return TripleKind.OUTER_CUP
    raise GeometryPreconditionError(
        f"triple {(p, q, r)!r} is neither an inner-cap nor an outer-cup; "
        "separation/avoidance preconditions are violated")


def _relaxed_radial_order(p: PointSet, body: ConvexBody) -> list[Point]:
    """Tangent-compatible order that only needs separation, not avoidance.

    With separation in force, a pair whose line meets the body is always
    order-comparable through the body (one member lies in the hull of the
    body with the other), so structures built from body-avoiding pairs are
    ordered exactly as in the strict radial order; remaining pairs just
    need any fixed position.  The key is the exact tangent of the angle
    from the separating direction, measured around a body vertex.
    """
    pts = list(p)
    if not pts:
        return pts
    axis = separating_axis(pts, body.vertices)
    if axis is None:
        raise SeparationError("no line separates the body from conv(P)")
    nx, ny = axis
    tx, ty = ny, -nx  # normal rotated -90 degrees: sweeps left to right
    z = body.vertices[0]

    def key(q: Point):
        dx, dy = q.x - z.x, q.y - z.y
        num = dx * tx + dy * ty
        den = dx * nx + dy * ny
        return (Fraction(num, den), dx * dx + dy * dy, q.x, q.y)

    return sorted(pts, key=key)


def _relative_chain_dp(p: PointSet, body: ConvexBody, want: TripleKind,
                       pair_ok: Optional[Callable[[Point, Point], bool]] = None,
                       relaxed: bool = False) -> list[Point]:
    """Longest chain in radial order whose pairs are mutually separable and
    whose consecutive triples classify as ``want`` (optionally restricted
    to pairs passing ``pair_ok``), by the cup/cap pair DP.

    Both predicates are integer turn signs, exact because a line strictly
    separates P from the body K (both orders check it).  (i) A pair is
    mutually separable iff its line misses K: if it misses, conv(K + q)
    meets it only in q; if it meets K, it does so outside the segment pq
    (which lies in conv P), so one point lies between the other and K.
    (ii) Let a, b, c come in radial order, lines ab and bc missing K, so
    K lies strictly right of a->b and b->c.  A right turn puts c right of
    a->b and a right of b->c, so conv(K + b + c) meets ab only in b,
    conv(K + a + b) meets bc only in b and conv(K + a + c) meets ab only
    in a: an inner-cap.  A left turn puts K in the open cone at b spanned
    by b - a and b - c, so b is in the triangle (z, a, c) for
    z = ``body.vertices[0]``: no inner-cap.  Each of lines ab, bc, ac has
    K and one member strictly on one side (K and b lie right of a->c) and
    the other two on it, so the three hull pairs are disjoint: an
    outer-cup.  Non-consecutive triples follow from radial closure.
    """
    order = _relaxed_radial_order(p, body) if relaxed else radial_order(p, body)
    n = len(order)
    if n == 0:
        raise ValueError("empty point set")
    c = int_coords([*order, *body.vertices])
    verts = c[n:]
    sign = -1 if want is TripleKind.INNER_CAP else 1
    valid = {}
    par: dict[tuple[int, int], Optional[tuple[int, int]]] = {}
    for j in range(n):
        for i in range(j):
            if (pair_ok is None or pair_ok(order[i], order[j])) and \
                    _line_misses(c[i], c[j], verts):
                valid[(i, j)] = 2
                par[(i, j)] = None
    for kk in range(n):
        for j in range(kk):
            if (j, kk) not in valid:
                continue
            for i in range(j):
                if (i, j) not in valid:
                    continue
                if valid[(i, j)] + 1 > valid[(j, kk)] and \
                        int_cross(c[i], c[j], c[kk]) * sign > 0:
                    valid[(j, kk)] = valid[(i, j)] + 1
                    par[(j, kk)] = (i, j)
    if not valid:
        return [order[0]]
    best_pair = max(valid, key=lambda pr: (valid[pr], (-pr[0], -pr[1])))
    chain = [best_pair[1], best_pair[0]]
    cur = par[best_pair]
    while cur is not None:
        chain.append(cur[0])
        cur = par[cur]
    chain.reverse()
    return [order[i] for i in chain]


def longest_inner_cap(p: PointSet, body: ConvexBody) -> StructureWitness:
    """Maximum inner-cap with respect to the body, via the radial pair DP."""
    members = _relative_chain_dp(p, body, TripleKind.INNER_CAP)
    return StructureWitness(WitnessKind.INNER_CAP, PointSet(members))


def longest_outer_cup(p: PointSet, body: ConvexBody) -> StructureWitness:
    members = _relative_chain_dp(p, body, TripleKind.OUTER_CUP)
    return StructureWitness(WitnessKind.OUTER_CUP, PointSet(members))


# ---------------------------------------------------------------------------
# the convex-hull partial order and Dilworth decomposition


@dataclass(frozen=True)
class PartialOrderInstance:
    """p < q iff p lies in conv(body + {q}), boundary inclusive; validated
    to be a strict partial order at construction."""

    points: tuple[Point, ...]
    body: ConvexBody
    relation: frozenset  # pairs of indices (i, j) with points[i] < points[j]

    def index(self, p: Point) -> int:
        return self.points.index(p)

    def less_idx(self, i: int, j: int) -> bool:
        return (i, j) in self.relation

    def less(self, p: Point, q: Point) -> bool:
        return (self.index(p), self.index(q)) in self.relation


def conv_order(p: PointSet, body: ConvexBody) -> PartialOrderInstance:
    pts = tuple(p)
    n = len(pts)
    rel = set()
    for j in range(n):
        hull_j = convex_hull([*body.vertices, pts[j]])
        for i in range(n):
            if i != j and hull_contains(hull_j, pts[i]):
                rel.add((i, j))
    for (i, j) in rel:
        if (j, i) in rel:
            raise OrderViolation(
                "conv order is not antisymmetric", (pts[i], pts[j]))
    preds: list[list[int]] = [[] for _ in range(n)]
    succs: list[list[int]] = [[] for _ in range(n)]
    for (i, j) in rel:
        preds[j].append(i)
        succs[i].append(j)
    for j in range(n):
        for i in preds[j]:
            for k in succs[j]:
                if i != k and (i, k) not in rel:
                    raise OrderViolation(
                        "conv order is not transitive",
                        (pts[i], pts[j], pts[k]))
    return PartialOrderInstance(pts, body, frozenset(rel))


@dataclass(frozen=True)
class DilworthResult:
    v: int
    h: int
    longest_chain: tuple[Point, ...]
    max_antichain: tuple[Point, ...]


def dilworth(instance: PartialOrderInstance) -> DilworthResult:
    """Longest chain by DAG longest path; maximum antichain of size
    n - max_matching extracted from the matching's vertex cover."""
    n = len(instance.points)
    rel = instance.relation
    preds = [[i for i in range(n) if (i, j) in rel] for j in range(n)]
    succs = [[j for j in range(n) if (i, j) in rel] for i in range(n)]
    # the relation is transitively closed, so |preds| sorts topologically
    topo = sorted(range(n), key=lambda i: len(preds[i]))
    lp = [1] * n
    parent = [-1] * n
    for j in topo:
        for i in preds[j]:
            if lp[i] + 1 > lp[j]:
                lp[j] = lp[i] + 1
                parent[j] = i
    end = max(range(n), key=lambda i: (lp[i], -i), default=-1)
    chain = []
    cur = end
    while cur != -1:
        chain.append(instance.points[cur])
        cur = parent[cur]
    chain.reverse()

    # Kuhn's augmenting paths on the split bipartite graph
    match_right = [-1] * n  # right j -> left i
    match_left = [-1] * n

    def try_augment(i: int, seen: list[bool]) -> bool:
        for j in succs[i]:
            if not seen[j]:
                seen[j] = True
                if match_right[j] == -1 or try_augment(match_right[j], seen):
                    match_right[j] = i
                    match_left[i] = j
                    return True
        return False

    matching = 0
    for i in range(n):
        if try_augment(i, [False] * n):
            matching += 1

    # Koenig: alternating reachability from unmatched left vertices
    z_left = [match_left[i] == -1 for i in range(n)]
    z_right = [False] * n
    queue = [i for i in range(n) if z_left[i]]
    while queue:
        i = queue.pop()
        for j in succs[i]:
            if not z_right[j]:
                z_right[j] = True
                i2 = match_right[j]
                if i2 != -1 and not z_left[i2]:
                    z_left[i2] = True
                    queue.append(i2)
    antichain_idx = [i for i in range(n) if z_left[i] and not z_right[i]]
    h = n - matching
    assert len(antichain_idx) == h, "cover extraction out of sync"
    for a in range(len(antichain_idx)):
        for b in range(a + 1, len(antichain_idx)):
            i, j = antichain_idx[a], antichain_idx[b]
            assert (i, j) not in rel and (j, i) not in rel
    return DilworthResult(
        v=len(chain), h=h,
        longest_chain=tuple(chain),
        max_antichain=tuple(instance.points[i] for i in antichain_idx))


@dataclass(frozen=True)
class CellProfile:
    """Statistics of one populated support region: longest antichain h and
    chain v of the conv order, the largest inner-caps that are chains with
    respect to the flanking vertices (a right, b left), and the largest
    inner-cap (w) / outer-cup (z) antichains with respect to the base."""

    h: int
    v: int
    a: int
    b: int
    w: int
    z: int


def cell_profile(p: PointSet, left: Point, right: Point,
                 base: ConvexBody) -> CellProfile:
    instance = conv_order(p, base)
    dw = dilworth(instance)

    def comparable(s: Point, t: Point) -> bool:
        return instance.less(s, t) or instance.less(t, s)

    def incomparable(s: Point, t: Point) -> bool:
        return not comparable(s, t)

    a = len(_relative_chain_dp(p, ConvexBody.point(right),
                               TripleKind.INNER_CAP, comparable, relaxed=True))
    b = len(_relative_chain_dp(p, ConvexBody.point(left),
                               TripleKind.INNER_CAP, comparable, relaxed=True))
    w = len(_relative_chain_dp(p, base, TripleKind.INNER_CAP, incomparable,
                               relaxed=True))
    z = len(_relative_chain_dp(p, base, TripleKind.OUTER_CUP, incomparable,
                               relaxed=True))
    return CellProfile(h=dw.h, v=dw.v, a=a, b=b, w=w, z=z)
