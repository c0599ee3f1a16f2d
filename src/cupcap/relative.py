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

All predicates are exact.  Each radial-order call (``radial_order``, the
inner-cap / outer-cup chains and ``cell_profile``'s chains) normalises the
points and the body once, with ``int_coords``, and finds the separating
axis, the tangent order and the chain DP's turn signs on that one integer
array (``_radial``, ``_relative_chains``).  One pass fills the inner-cap
and outer-cup pair tables of edge counts, as the cup/cap label tables
give both, and ``extremal._max_label_pair`` and ``_chain_backward`` read
witnesses out of them.  Support regions are turn signs against a cup's or
cap's edges on one such array, as bitmasks on Python ints: each edge
line gives the points strictly left and strictly right of it
(``_side_masks``), and each region is the AND of three of those
(``_support_masks``), with the chain's turn sign from
``extremal._chain_sign``.  One exact path serves every coordinate size,
and no numpy is needed.
``classify_triple`` keeps the hull definitions and ``support_regions`` the
``Fraction`` half-planes as the references.  Randomized search is
deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

from .extremal import (StructureWitness, WitnessKind, _chain_backward,
                       _chain_sign, _label_tables_python, _max_label_pair,
                       _sorted_distinct_x, is_cap, is_cup)
from .geom import (HalfPlane, Point, PointSet, convex_hull, cross_sign,
                   int_coords, int_cross, int_halfplanes, int_hull,
                   is_convex_position, point_in_convex_hull,
                   point_in_convex_region)


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


def _separating_axis(ha: Sequence[tuple[int, int]],
                     hb: Sequence[tuple[int, int]]
                     ) -> Optional[tuple[int, int]]:
    """An integer axis n with n.b < n.a for every a in ``ha`` and b in
    ``hb``, or None; ``ha`` and ``hb`` are ``int_hull``s.

    Candidate axes: edge normals of both hulls plus all pairwise vertex
    differences (the latter cover the degenerate point/segment
    closest-feature cases); together they witness every strict separation
    of compact convex sets in the plane.
    """
    axes = []
    for hull in (ha, hb):
        ends = hull[1:] + hull[:1] if len(hull) > 2 else hull[1:]
        axes += [(p[1] - q[1], q[0] - p[0]) for p, q in zip(hull, ends)]
    axes += [(q[0] - p[0], q[1] - p[1]) for p in ha for q in hb]
    for ax, ay in axes:
        pa = [ax * x + ay * y for x, y in ha]
        pb = [ax * x + ay * y for x, y in hb]
        if max(pb) < min(pa):
            return (ax, ay)
        if max(pa) < min(pb):
            return (-ax, -ay)
    return None


def hulls_strictly_disjoint(a: Sequence[Point], b: Sequence[Point]) -> bool:
    """Exact disjointness of conv(a) and conv(b)."""
    c = int_coords([*a, *b])
    k = len(a)
    return _separating_axis(int_hull(c[:k]), int_hull(c[k:])) is not None


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


def _side_masks(coords: Sequence[tuple[int, int]], i: int, j: int
                ) -> tuple[int, int]:
    """Bitmasks over ``coords`` (bit q for row q) of the rows strictly left
    and strictly right of the line coords[i] -> coords[j]."""
    (ax, ay), (bx, by) = coords[i], coords[j]
    dx, dy = bx - ax, by - ay
    t = dx * ay - dy * ax
    w = [dx * y - dy * x for x, y in reversed(coords)]
    return (int("".join(["1" if v > t else "0" for v in w]), 2),
            int("".join(["1" if v < t else "0" for v in w]), 2))


def _support_masks(chain: Sequence[int], s: int,
                   sides: Callable[[int, int], tuple[int, int]]
                   ) -> list[int]:
    """Membership in the k support regions of the cup (s = +1) or cap
    (s = -1) with vertex rows ``chain`` (x order, increasing), as k
    bitmasks; ``sides(i, j)`` gives ``_side_masks`` of rows i < j.

    With its closing edge the chain is a strictly convex polygon, traversed
    counterclockwise for a cup and clockwise for a cap, so its interior and
    centroid lie strictly on side s of each directed edge e_i = v_i v_{i+1}
    (e_{k-1} = v_{k-1} v_0, whose left and right swap those of v_0 v_{k-1}).
    With side_i(q) = s * cross(e_i, q), the centroid test of
    ``support_regions`` makes region i side_i < 0, side_{i-1} > 0 and
    side_{i+1} > 0: outer_i & inner_{i-1} & inner_{i+1}, where outer is
    the right side for a cup and the left for a cap.  ``int_coords`` keeps
    every sign.
    """
    k = len(chain)
    edges = [sides(chain[i], chain[i + 1]) for i in range(k - 1)]
    right, left = sides(chain[0], chain[-1])
    edges.append((left, right))
    if s > 0:
        inner, outer = zip(*edges)
    else:
        outer, inner = zip(*edges)
    return [outer[i] & inner[i - 1] & inner[(i + 1) % k] for i in range(k)]


def populate_support(p: PointSet, x: PointSet) -> SupportOccupancy:
    """Exact membership of every point of p in every support region of x."""
    regions = tuple(support_regions(x))
    n = len(p)
    coords = int_coords([*p, *sorted(x, key=lambda q: q.x)])
    chain = range(n, len(coords))
    masks = _support_masks(chain, _chain_sign(coords, chain),
                           functools.partial(_side_masks, coords))
    # rows n and up are x's vertices, in no region: each lies on two edge
    # lines and strictly on the inner side of the others
    return SupportOccupancy(regions, tuple(
        tuple(p[j] for j, bit in enumerate(bin(m)[:1:-1]) if bit == "1")
        for m in masks))


# ---------------------------------------------------------------------------
# fat-cap search


def find_fat_cap(p: PointSet, k: int, seed: int,
                 budget: int) -> tuple[PointSet, int]:
    """Empirical search for a k-cup or k-cap whose k-1 chain-edge support
    regions are all well populated.

    Enumerates k-subsets of seeded random samples of p, scoring each
    cup/cap candidate by the minimum occupancy over its chain regions,
    until ``budget`` candidates have been evaluated; returns the best
    candidate (ties to the first found).  Deterministic given the seed.
    Raises if ``budget`` is below 1 or no k-cup or k-cap turns up at all.

    Samples of m = min(n, max(12, 2k)) points are drawn lazily up to the
    budget-th chain, at most max(8, budget) of them, or one when m = n: a
    repeat of the whole set is never strictly better.  Each memoizes the
    side masks of every edge line its candidates use, at most C(m, 2)
    lines, two n-bit ints a line (66 lines for the 12-point samples of
    k <= 6), and the memo is dropped with its sample.

    A sample whose pure-Python label tables (numpy stays unloaded) hold no
    label of k-1 edges has no k-chain, so none of its C(m, k) subsets is
    tested; it is still drawn, so every result stays the same.
    """
    n = len(p)
    if k < 4:
        raise ValueError("fat-cap search needs k >= 4")
    if budget < 1:
        raise ValueError(f"search budget must be at least 1, got {budget}")
    if n < k:
        raise ValueError("not enough points")
    pts, coords = _sorted_distinct_x(p)

    def holds_chain(sample) -> bool:
        X, Y, _ = _label_tables_python([coords[i] for i in sample])
        return max(map(max, X + Y)) >= k - 1

    rng = random.Random(seed)
    sample_size = min(n, max(12, 2 * k))
    samples = ((sorted(rng.sample(range(n), sample_size)),
                functools.cache(functools.partial(_side_masks, coords)))
               for _ in range(1 if sample_size == n else max(8, budget)))
    chains = ((combo, s, sides) for sample, sides in samples
              if holds_chain(sample)
              for combo in itertools.combinations(sample, k)
              if (s := _chain_sign(coords, combo)))
    best_idx: Optional[tuple[int, ...]] = None
    best_occ = -1
    for combo, s, sides in itertools.islice(chains, budget):
        masks = _support_masks(combo, s, sides)
        occ = min(m.bit_count() for m in masks[:k - 1])
        if occ > best_occ:
            best_occ, best_idx = occ, combo
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
    make the check vacuous (zero tuples).  A ``sample_budget`` below 1
    raises, since it would pass a sampled check of no tuple.  Tuples are
    decided as by ``is_convex_position``, with ``int_hull`` on one
    ``int_coords`` array.
    """
    if sample_budget < 1:
        raise ValueError(
            f"sample budget must be at least 1, got {sample_budget}")
    groups = [list(g) for g in groups]
    total = math.prod(len(g) for g in groups)
    if total == 0:
        return TransversalReport(True, "exhaustive", 0, 0, None)
    flat = [q for g in groups for q in g]
    coords = int_coords(flat)
    index_groups = [range(e - len(g), e) for e, g in
                    zip(itertools.accumulate(map(len, groups)), groups)]
    if total <= sample_budget:
        mode, checked = "exhaustive", total
        tuples = itertools.product(*index_groups)
    else:
        mode, checked = "sampled", sample_budget
        rng = random.Random(seed)
        tuples = (tuple(g[rng.randrange(len(g))] for g in index_groups)
                  for _ in range(sample_budget))
    violations, counterexample = 0, None
    for tup in tuples:
        if len(tup) > 2 and len(int_hull(coords[i] for i in tup)) < len(tup):
            violations += 1
            if counterexample is None:
                counterexample = tuple(flat[i] for i in tup)
    return TransversalReport(violations == 0, mode, checked, violations,
                             counterexample)


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
    """Whether all body vertices lie strictly on one side of line ab: for a
    and b strictly separated from the body K, whether they are mutually
    separable.  If the line misses K, conv(K + b) meets it only in b; if it
    meets K, it does so outside the segment ab, so one point lies between
    the other and K."""
    side = int_cross(a, b, body[0])
    return all(int_cross(a, b, v) * side > 0 for v in body)


def _radial(p: Sequence[Point], body: ConvexBody
            ) -> tuple[list[int], list[tuple[int, int]], list[tuple[int, int]]]:
    """The radial order of p around the body, needing only separation:
    indices of p in order, with the ``int_coords`` of p (in input order)
    and of the body vertices, from one array.

    A separating axis n puts every point q strictly on one side: with
    z = ``body.vertices[0]``, ``(q - z).n > 0``.  In that open half-plane
    the clockwise order of two directions is the sign of their cross
    product, and the key is the tangent of the angle from n,
    ``num / den`` with ``den = (q - z).n > 0``, then the squared distance
    from z (nearer first on one ray).  Cross signs and the order along a
    ray from z survive any positive per-axis affine map, so the order
    depends neither on the axis found nor on the normalisation.  Distinct
    tangents with ``0 < den <= D`` differ by at least 1/D**2, which exceeds
    1/``scale``, so the integer key ``num * scale // den`` keeps them apart
    and in order (the ``geom.slope_scale`` argument).

    With separation in force, a pair whose line meets the body is always
    order-comparable through the body (one member lies in the hull of the
    body with the other), so structures built from body-avoiding pairs are
    ordered exactly as in the strict radial order.

    With avoidance too the order is strict and total: points on distinct
    rays from z get distinct keys in tangent order, the later clockwise, so
    the body lies right of p -> q for p before q; two points on one ray span
    a line through z, and avoidance has already refused that pair.
    """
    n = len(p)
    c = int_coords([*p, *body.vertices])
    coords, verts = c[:n], c[n:]
    if not n:
        return [], coords, verts
    axis = _separating_axis(int_hull(coords), int_hull(verts))
    if axis is None:
        raise SeparationError("no line separates the body from conv(P)")
    nx, ny = axis
    zx, zy = verts[0]
    d = [(x - zx, y - zy) for x, y in coords]
    den = [dx * nx + dy * ny for dx, dy in d]
    scale = 1 << 2 * max(den).bit_length()

    def key(i: int):
        dx, dy = d[i]
        return ((dx * ny - dy * nx) * scale // den[i], dx * dx + dy * dy)

    return sorted(range(n), key=key), coords, verts


def _strict_radial(p: Sequence[Point], body: ConvexBody):
    """``_radial`` with the avoidance check of ``radial_order`` on the
    same integer array, which makes the order total (``_radial``)."""
    order, c, verts = _radial(p, body)
    for i, j in itertools.combinations(range(len(c)), 2):
        if not _line_misses(c[i], c[j], verts):
            raise AvoidanceError(
                f"line through {p[i]!r} and {p[j]!r} meets the body",
                (p[i], p[j]))
    return order, c, verts


def radial_order(p: PointSet, body: ConvexBody) -> list[Point]:
    """Clockwise tangent order of p around the body, left to right.

    Requires a separating line between the body and conv(p) and that p
    avoids the body; both preconditions are checked exactly, with a witness
    on failure.  For a single-point body this is angular order.
    """
    return [p[i] for i in _strict_radial(p, body)[0]]


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


def _relative_chains(order: Sequence[int],
                     coords: Sequence[tuple[int, int]],
                     pair_ok: Optional[Callable[[int, int], bool]] = None):
    """The longest inner-cap and outer-cup in radial order, and the tables of
    the one cup/cap pair DP pass that finds both.  Only pairs passing
    ``pair_ok`` (all when it is None) chain; the caller keeps them mutually
    separable (``_line_misses``).  Indices are into the input, as
    ``_radial`` gives them; a chain is one point when no pair qualifies.

    The pass fills I[j][k] and O[j][k], for radial positions j < k, with
    the edge count of the longest inner-cap and outer-cup ending at the
    pair: 0 when the pair fails, else 1 extended by every i < j with
    I[i][j] >= I[j][k] that turns right at (i, j, k) (O: left); it tests a
    turn at most once.  A witness ends at the first pair in (j, k) order
    holding its maximum (``_max_label_pair``); ``_chain_backward`` walks it
    back through the smallest i reaching each value, the DP's parent.

    The turns are exact integer signs, and they decide the triples because
    a line strictly separates P from the body K (``_radial`` checks it).
    Let a, b, c come in radial order, lines ab and bc missing K, so K lies
    strictly right of a->b and b->c.  A right turn puts c right of a->b
    and a right of b->c, so conv(K + b + c) meets ab only in b,
    conv(K + a + b) meets bc only in b and conv(K + a + c) meets ab only
    in a: an inner-cap.  A left turn puts K in the open cone at b spanned
    by b - a and b - c, so b is in the triangle (z, a, c) for
    z = ``body.vertices[0]``: no inner-cap.  Each of lines ab, bc, ac has
    K and one member strictly on one side (K and b lie right of a->c) and
    the other two on it, so the three hull pairs are disjoint: an
    outer-cup.  Non-consecutive triples follow from radial closure.
    """
    n = len(order)
    if n == 0:
        raise ValueError("empty point set")
    c = [coords[i] for i in order]
    inner, outer = ([[0] * n for _ in range(n)] for _ in range(2))
    for j in range(n):
        into = [(inner[i][j], outer[i][j], c[i]) for i in range(j)
                if inner[i][j]]
        for k in range(j + 1, n):
            if pair_ok is None or pair_ok(order[j], order[k]):
                ti = to = 1
                for a, b, ci in into:
                    if a >= ti or b >= to:
                        turn = int_cross(ci, c[j], c[k])
                        ti = a + 1 if turn < 0 and a >= ti else ti
                        to = b + 1 if turn > 0 and b >= to else to
                inner[j][k], outer[j][k] = ti, to

    def witness(table: list[list[int]], sign: int) -> list[int]:
        _, end = _max_label_pair(table)
        chain = _chain_backward(c, table, *end, sign) if end else [0]
        return [order[i] for i in chain]

    return witness(inner, -1), witness(outer, 1), inner, outer


def longest_inner_cap(p: PointSet, body: ConvexBody) -> StructureWitness:
    """Maximum inner-cap with respect to the body, via the radial pair DP."""
    chain = _relative_chains(*_strict_radial(p, body)[:2])[0]
    return StructureWitness(WitnessKind.INNER_CAP,
                            PointSet(p[i] for i in chain))


def longest_outer_cup(p: PointSet, body: ConvexBody) -> StructureWitness:
    chain = _relative_chains(*_strict_radial(p, body)[:2])[1]
    return StructureWitness(WitnessKind.OUTER_CUP,
                            PointSet(p[i] for i in chain))


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
    """The conv order of p relative to the body K: p_i < p_k iff p_i lies
    in conv(K + p_k), boundary inclusive, for i != k.

    For each k, conv(K + p_k) is an ``int_hull`` on one ``int_coords``
    array, and each of its closed half-planes (``int_halfplanes``) filters
    the remaining candidates in one pass, exactly, on Python ints of any
    size: O(n^2 * (v + 1)) integer operations for a body of v vertices.
    The predecessors of p_k become one bitmask, ``mask[k]``.

    The relation is transitive: p_i in conv(K + p_j) and p_j in
    conv(K + p_k) put K + p_j, hence conv(K + p_j) and p_i, inside
    conv(K + p_k).  It is antisymmetric unless two points lie in K itself:
    p_j < p_k < p_j makes the two hulls equal, and a point outside K is a
    vertex of its own hull.  Both properties are still checked, as
    ``mask[j] & ~mask[k] == 0`` for each k and each j below k, in
    O(|relation|) big-int operations: a stray bit k breaks antisymmetry,
    any other bit i transitivity.  ``OrderViolation`` reports the first
    violation met with k ascending and, for each k, j ascending below k:
    the pair (p_k, p_j), which is then the first pair in index order that
    lie in each other's hulls, or the triple (p_i, p_j, p_k) with the
    least such i.
    """
    pts = tuple(p)
    n = len(pts)
    c = int_coords([*pts, *body.vertices])
    verts = c[n:]
    xs = [x for x, _ in c[:n]]
    ys = [y for _, y in c[:n]]
    belows = []
    for k in range(n):
        below = range(n)
        for a, b, t in int_halfplanes(int_hull([*verts, c[k]])):
            below = [i for i in below if a * xs[i] + b * ys[i] >= t]
        below.remove(k)
        belows.append(below)
    masks = [sum(1 << i for i in below) for below in belows]
    for k, below in enumerate(belows):
        outside = ~masks[k]
        for j in below:
            extra = masks[j] & outside
            if extra >> k & 1:
                raise OrderViolation(
                    "conv order is not antisymmetric", (pts[k], pts[j]))
            if extra:
                i = (extra & -extra).bit_length() - 1
                raise OrderViolation(
                    "conv order is not transitive", (pts[i], pts[j], pts[k]))
    rel = frozenset((i, k) for k, below in enumerate(belows) for i in below)
    return PartialOrderInstance(pts, body, rel)


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
    preds: list[list[int]] = [[] for _ in range(n)]
    succs: list[list[int]] = [[] for _ in range(n)]
    # sorted pairs list each vertex's neighbours in increasing index order
    for i, j in sorted(rel):
        preds[j].append(i)
        succs[i].append(j)
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
    rel = instance.relation

    def chains(body: ConvexBody, comparable: bool):
        # pairs mutually separable and (in)comparable in the conv order
        order, c, verts = _radial(p, body)
        return _relative_chains(order, c, lambda i, j: (
            ((i, j) in rel or (j, i) in rel) == comparable
            and _line_misses(c[i], c[j], verts)))

    a = len(chains(ConvexBody.point(right), True)[0])
    b = len(chains(ConvexBody.point(left), True)[0])
    w, z = map(len, chains(base, False)[:2])
    return CellProfile(h=dw.h, v=dw.v, a=a, b=b, w=w, z=z)
