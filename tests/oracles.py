"""Independent brute-force oracles, and exact references for the filtered
kernels.

The oracles deliberately avoid the library's detection code paths: all
geometry is recomputed here from raw cross products over Fractions, and
maxima are found by exhaustive subset enumeration.  Only usable at oracle
scale.

The references (``exact_label_tables``, ``exact_max_collinear``) compare
every slope by its exact integer key, with no float filter, and return the
library's tables and witnesses, tie-breaks included, at any size:
``exact_max_collinear`` is the library's anchor scan, and
``exact_label_tables`` the sort-and-sweep that the pure-Python tables ran
before their push-forward sweep.  ``relative_chain_dp`` is the relative
chain DP one turn sign at a time, testing each pair's line itself.
``ref_combine_flat``, ``ref_build_free_set`` and ``ref_build_convex_free``
are the constructions placed in ``Fraction`` coordinates, scale by scale,
as the library's integer-pair builders must reproduce them point for
point; their placement check (``ref_blocks_ok``, every hull-vertex pair
and triple) and their largest-remainder allocation are their own.
"""

import math
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from typing import Optional

from cupcap.bounds import free_set_size_bound
from cupcap.extremal import _chain_backward, _max_label_pair
from cupcap.geom import Point, PointSet, int_coords, int_cross, slope_scale
from cupcap.relative import _line_misses

# the Fraction placements below halve their scale until their checks pass;
# the library checks one placement, so this bound is the references' own
_MAX_ATTEMPTS = 10_000


def cross(o, a, b):
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def is_cup_seq(pts) -> bool:
    pts = sorted(pts, key=lambda p: p.x)
    if len(pts) < 2:
        return False
    if any(a.x == b.x for a, b in zip(pts, pts[1:])):
        return False
    return all(cross(pts[i], pts[i + 1], pts[i + 2]) > 0
               for i in range(len(pts) - 2))


def is_cap_seq(pts) -> bool:
    pts = sorted(pts, key=lambda p: p.x)
    if len(pts) < 2:
        return False
    if any(a.x == b.x for a, b in zip(pts, pts[1:])):
        return False
    return all(cross(pts[i], pts[i + 1], pts[i + 2]) < 0
               for i in range(len(pts) - 2))


def convex_position(pts) -> bool:
    """Every point outside every closed triangle (or segment) of the others."""
    pts = list(pts)
    if len(pts) <= 2:
        return True
    for i, p in enumerate(pts):
        others = [q for j, q in enumerate(pts) if j != i]
        for tri in combinations(others, 3):
            if _in_closed_triangle(p, *tri):
                return False
        for a, b in combinations(others, 2):
            if _on_segment(p, a, b):
                return False
    return True


def _in_closed_triangle(p, a, b, c):
    """p in the closed triangle abc.  All three signs are zero only when
    a, b, c are collinear and p is on their line, which this test leaves to
    the segment tests: a point beyond the corners is outside."""
    d1, d2, d3 = cross(a, b, p), cross(b, c, p), cross(c, a, p)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return (has_neg or has_pos) and not (has_neg and has_pos)


def _on_segment(p, a, b):
    if cross(a, b, p) != 0:
        return False
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def _max_subset(pts, predicate) -> int:
    pts = list(pts)
    for size in range(len(pts), 1, -1):
        for sub in combinations(pts, size):
            if predicate(sub):
                return size
    return 1


def brute_longest_cup(pts) -> int:
    return max(_max_subset(pts, is_cup_seq), 2 if len(pts) >= 2 else 1)


def brute_longest_cap(pts) -> int:
    return max(_max_subset(pts, is_cap_seq), 2 if len(pts) >= 2 else 1)


def brute_lexmin_chain(pts, sign: int) -> tuple[int, ...]:
    """The lexicographically first maximum cup (sign +1) or cap (-1), as
    indices of the points in x-order: the first index tuple of
    ``combinations`` at the brute-force maximum size that passes."""
    pts = sorted(pts, key=lambda p: p.x)
    is_chain = is_cup_seq if sign > 0 else is_cap_seq
    size = (brute_longest_cup if sign > 0 else brute_longest_cap)(pts)
    return next(sub for sub in combinations(range(len(pts)), size)
                if is_chain([pts[i] for i in sub]))


def brute_max_collinear(pts) -> int:
    pts = list(pts)
    best = min(len(pts), 2)
    for a, b in combinations(pts, 2):
        run = sum(1 for p in pts if cross(a, b, p) == 0)
        best = max(best, run)
    return best


def exact_label_tables(coords):
    """The cup/cap label tables of integer coords in increasing x, by a
    sort-and-sweep per anchor on exact keys only: the algorithm the
    pure-Python tables used before their push-forward sweep, kept as an
    independent reference for ``extremal._label_tables_python``."""
    n = len(coords)
    scale = slope_scale(coords)
    X = [[1] * n for _ in range(n)]
    Y = [[1] * n for _ in range(n)]
    for i in range(1, n - 1):
        xi, yi = coords[i]
        # Keys order slopes exactly; for h < i < j the triple (h, i, j)
        # turns LEFT exactly when slope(i, j) > slope(h, i), RIGHT when <.
        preds = sorted(
            ((yi - coords[h][1]) * scale // (xi - coords[h][0]), h)
            for h in range(i)
        )
        succs = sorted(
            ((coords[j][1] - yi) * scale // (coords[j][0] - xi), j)
            for j in range(i + 1, n)
        )
        Xi = X[i]
        Yi = Y[i]
        # cups: sweep successors by increasing slope, growing the strict
        # prefix of predecessors with smaller slope.
        ptr, run = 0, 0
        for slope, j in succs:
            while ptr < i and preds[ptr][0] < slope:
                run = max(run, X[preds[ptr][1]][i])
                ptr += 1
            Xi[j] = run + 1
        # caps: mirror sweep with decreasing slope.
        ptr, run = i - 1, 0
        for slope, j in reversed(succs):
            while ptr >= 0 and preds[ptr][0] > slope:
                run = max(run, Y[preds[ptr][1]][i])
                ptr -= 1
            Yi[j] = run + 1
    return X, Y


def exact_max_collinear(ps):
    """The members of ``extremal.max_collinear``'s witness, by its anchor
    scan over every anchor with exact slope keys."""
    pts = sorted(ps, key=lambda p: (p.x, p.y))
    coords = int_coords(pts)
    scale = slope_scale(coords)
    n = len(pts)
    best = [0, 1]
    for i in range(n - 1):
        if n - i <= len(best):
            break
        groups: dict[Optional[int], list[int]] = {}
        xi, yi = coords[i]
        for j in range(i + 1, n):
            dx = coords[j][0] - xi
            key = (coords[j][1] - yi) * scale // dx if dx else None
            groups.setdefault(key, []).append(j)
        for members in groups.values():
            if len(members) + 1 > len(best):
                best = [i] + members
    return [pts[i] for i in best]


def _levelwise_max(n: int, predicate) -> int:
    """Size of the largest index subset of range(n) that satisfies a
    hereditary predicate (at least 1), exhaustively.

    When every subset of a passing set passes, every passing (s+1)-subset,
    in index order, extends a passing s-prefix, so growing the passing
    sets by one higher index at a time reaches every passing subset.  Each
    candidate is checked whole with the predicate, never piece by piece.
    """
    best = 1
    level = [(i,) for i in range(n) if predicate((i,))]
    while level:
        best = max(best, len(level[0]))
        level = [sub + (j,) for sub in level for j in range(sub[-1] + 1, n)
                 if predicate(sub + (j,))]
    return best


def brute_max_convex_subset(pts) -> int:
    """Largest subset in convex position, by level-wise search.

    Convex position is hereditary: deleting points keeps the others outside
    every triangle and segment of the rest.  The predicate is
    ``convex_position`` with its geometry computed once: the bitmask of the
    points in each closed triangle and on each closed segment.
    """
    pts = list(pts)
    n = len(pts)

    def inside(span, test):
        return sum(1 << i for i in range(n)
                   if i not in span and test(pts[i], *(pts[k] for k in span)))

    tri = {t: inside(t, _in_closed_triangle)
           for t in combinations(range(n), 3)}
    seg = {s: inside(s, _on_segment) for s in combinations(range(n), 2)}

    def convex(sub):
        mask = sum(1 << i for i in sub)
        return (not any(tri[t] & mask for t in combinations(sub, 3))
                and not any(seg[s] & mask for s in combinations(sub, 2)))

    return _levelwise_max(n, convex)


def brute_pair_label(pts, p, q):
    """(cup length, cap length ending at the pair), by chain enumeration."""
    pts = sorted(pts, key=lambda r: r.x)
    before = [r for r in pts if r.x < p.x]
    best_cup = best_cap = 1
    for size in range(len(before), 0, -1):
        for sub in combinations(before, size):
            chain = list(sub) + [p, q]
            if is_cup_seq(chain) and len(chain) - 1 > best_cup:
                best_cup = len(chain) - 1
            if is_cap_seq(chain) and len(chain) - 1 > best_cap:
                best_cap = len(chain) - 1
    return best_cup, best_cap


def brute_count_downsets(a: int, b: int) -> int:
    """Count antichain... no: count monotone profiles directly."""
    if a == 0:
        return 1

    def count(cols_left: int, bound: int) -> int:
        if cols_left == 0:
            return 1
        return sum(count(cols_left - 1, v) for v in range(bound + 1))

    return count(a, b)


def ref_enumerate_downsets(a: int, b: int) -> list[tuple[int, ...]]:
    """Every non-increasing profile of length a with values 0..b, by
    recursion, each column's heights from b down to 0."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], bound: int):
        if len(prefix) == a:
            out.append(tuple(prefix))
            return
        for v in range(bound, -1, -1):
            prefix.append(v)
            rec(prefix, v)
            prefix.pop()

    rec([], b)
    return out


def brute_max_antichain(n: int, less) -> int:
    """Maximum antichain by bitmask enumeration; less(i, j) is the order."""
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i != j and less(i, j)]
    conflict = [0] * n
    for i, j in pairs:
        conflict[i] |= 1 << j
        conflict[j] |= 1 << i
    best = 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size <= best:
            continue
        ok = True
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            if conflict[i] & mask:
                ok = False
                break
            m &= m - 1
        if ok:
            best = size
    return best


def monotone_chain(pts):
    """Strict convex hull, counterclockwise from the least point in (x, y)
    order, by Andrew's monotone chain on the cross products above."""
    pts = sorted(set(pts), key=lambda p: (p.x, p.y))
    if len(pts) == 1:
        return tuple(pts)

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    return tuple(half(pts)[:-1] + half(pts[::-1])[:-1])


def radial_sort(pts, z):
    """Points of one open half-plane at z in clockwise order around z, the
    nearer first on one ray: a comparator sort on the cross products above
    (b follows a when it lies clockwise of a, seen from z)."""
    def dist(p):
        return (p.x - z.x) ** 2 + (p.y - z.y) ** 2

    def before(a, b):
        return cross(z, a, b) or dist(a) - dist(b)

    return sorted(pts, key=cmp_to_key(before))


def point_in_hull_closed(p, pts):
    """Closed containment, by Caratheodory: p lies in a closed triangle, on
    a closed segment, or at a point of pts."""
    pts = list(pts)
    if len(pts) == 1:
        return p == pts[0]
    for tri in combinations(pts, 3):
        if _in_closed_triangle(p, *tri):
            return True
    for a, b in combinations(pts, 2):
        if _on_segment(p, a, b):
            return True
    return p in pts


def is_inner_cap(sub, body_vertices) -> bool:
    sub = list(sub)
    for i, x in enumerate(sub):
        rest = [q for j, q in enumerate(sub) if j != i] + list(body_vertices)
        if point_in_hull_closed(x, rest):
            return False
    return True


def _hulls_meet(a_pts, b_pts) -> bool:
    """Closed convex hulls intersect (small sizes only)."""
    for p in a_pts:
        if point_in_hull_closed(p, b_pts):
            return True
    for p in b_pts:
        if point_in_hull_closed(p, a_pts):
            return True
    for a, b in combinations(a_pts, 2):
        for c, d in combinations(b_pts, 2):
            if _segments_meet(a, b, c, d):
                return True
    return False


def _segments_meet(a, b, c, d) -> bool:
    d1, d2 = cross(a, b, c), cross(a, b, d)
    d3, d4 = cross(c, d, a), cross(c, d, b)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0
            and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0):
        return True
    return (_on_segment(c, a, b) or _on_segment(d, a, b)
            or _on_segment(a, c, d) or _on_segment(b, c, d))


def is_outer_cup(sub, body_vertices) -> bool:
    sub = list(sub)
    for i, x in enumerate(sub):
        rest = [q for j, q in enumerate(sub) if j != i]
        if _hulls_meet([x] + list(body_vertices), rest):
            return False
    return True


def relative_chain_dp(order, coords, verts, sign, pair_ok=None):
    """The relative chain DP for one turn sign (-1: inner-cap, +1:
    outer-cup), with its own line test: the per-sign triple loop that
    ``relative._relative_chains`` replaced, kept as a reference for its
    tables and witnesses.  Returns the pair table in radial positions and
    the chain as indices into the input."""
    n = len(order)
    c = [coords[i] for i in order]
    T = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k):
            if (pair_ok is None or pair_ok(order[j], order[k])) and \
                    _line_misses(c[j], c[k], verts):
                t = 1
                for i in range(j):
                    if T[i][j] >= t and int_cross(c[i], c[j], c[k]) * sign > 0:
                        t = T[i][j] + 1
                T[j][k] = t
    _, best_pair = _max_label_pair(T)
    if best_pair is None:
        return T, [order[0]]
    return T, [order[i] for i in _chain_backward(c, T, *best_pair, sign)]


def brute_largest_relative(pts, body_vertices, predicate) -> int:
    """Largest subset of pts satisfying predicate (at least 1), exhaustively.

    Both relative predicates are hereditary: each compares one point with
    hulls of the other points (and of the body), and deleting points only
    shrinks those hulls.
    """
    pts = list(pts)
    return _levelwise_max(len(pts), lambda sub: predicate(
        [pts[i] for i in sub], body_vertices))


# ---------------------------------------------------------------------------
# constructions in Fraction coordinates


def _normalized(points) -> PointSet:
    return PointSet(Point(Fraction(x), Fraction(y))
                    for x, y in int_coords(list(points)))


def _extent(ps):
    xs = [p.x for p in ps]
    ys = [p.y for p in ps]
    return max(xs) - min(xs), max(ys) - min(ys)


def _min_x_gap(ps):
    xs = sorted(p.x for p in ps)
    gaps = [b - a for a, b in zip(xs, xs[1:]) if b != a]
    return min(gaps) if gaps else None


def _to_origin(ps):
    mx = min(p.x for p in ps)
    my = min(p.y for p in ps)
    return [Point(p.x - mx, p.y - my) for p in ps]


def _pow2_at_most(value: Fraction) -> Fraction:
    """Largest power of two <= value (value > 0)."""
    if value >= 1:
        return Fraction(1 << (int(value).bit_length() - 1))
    k = 1
    while Fraction(1, 1 << k) > value:
        k += 1
    return Fraction(1, 1 << k)


def ref_base_cupfree(l: int, m: int) -> PointSet:
    """l - 1 points inside each of floor((m-1)/2) parabola chords, and one
    midpoint on the next chord when m - 1 is odd."""
    full = (m - 1) // 2
    lone = (m - 1) % 2 == 1
    verts = [Point(Fraction(t), Fraction(t * t))
             for t in range(full + lone + 1)]
    pts = []
    for s in range(full):
        a, b = verts[s], verts[s + 1]
        for j in range(1, l):
            t = Fraction(j, l)
            pts.append(Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    if lone:
        a, b = verts[full], verts[full + 1]
        pts.append(Point((a.x + b.x) / 2, (a.y + b.y) / 2))
    return _normalized(pts)


def ref_base_capfree(l: int, n: int) -> PointSet:
    return _normalized(Point(p.x, -p.y) for p in ref_base_cupfree(l, n))


def ref_combine_flat(a: PointSet, b: PointSet) -> PointSet:
    """The right part b flattened by t = 2^-k and stacked above and to the
    right of a, t halved from an analytic guess until ``ref_blocks_ok``
    passes; the union's ``int_coords``."""
    a0, b0 = _to_origin(a), _to_origin(b)
    wa, ha = _extent(a0)
    wb, hb = _extent(b0)
    x_max = wa + 1 + wb
    gaps = [g for g in (_min_x_gap(a0), _min_x_gap(b0)) if g is not None]
    delta = min(gaps) if gaps else Fraction(1)
    h_max = max(ha, hb, Fraction(1))
    guess = delta / (2 * h_max * max(x_max, Fraction(1)))
    t = _pow2_at_most(min(guess, Fraction(1)))
    for _ in range(_MAX_ATTEMPTS):
        left = [Point(p.x, t * p.y) for p in a0]
        right = [Point(p.x + wa + 1, t * p.y + t * ha + 1) for p in b0]
        if ref_blocks_ok([left, right], 1):
            return _normalized([*left, *right])
        t = t / 2
    raise AssertionError("flat placement did not verify")


def ref_build_free_set(l: int, m: int, n: int) -> PointSet:
    memo = {}

    def rec(mm, nn):
        if (mm, nn) not in memo:
            memo[mm, nn] = (ref_base_cupfree(l, mm) if nn == 3 else
                            ref_base_capfree(l, nn) if mm == 3 else
                            ref_combine_flat(rec(mm - 1, nn), rec(mm, nn - 1)))
        return memo[mm, nn]

    return rec(m, n)


def ref_blocks_ok(parts, sign: int) -> bool:
    """The placement check on parts given left to right, by its definition:
    every line through two hull vertices of one part, taken in (x, y)
    order, has each hull vertex of a later part strictly on side ``sign``
    and each hull vertex of an earlier part strictly on side -sign, and
    every triple of hull vertices from three parts turns with ``sign``;
    ``Fraction`` cross products on ``monotone_chain`` hulls."""
    hulls = [sorted(monotone_chain(part), key=lambda p: (p.x, p.y))
             for part in parts]
    for i, j in combinations(range(len(hulls)), 2):
        for p, q in combinations(hulls[i], 2):
            if any(cross(p, q, r) * sign <= 0 for r in hulls[j]):
                return False
        for p, q in combinations(hulls[j], 2):
            if any(cross(p, q, r) * sign >= 0 for r in hulls[i]):
                return False
    return all(cross(p, q, r) * sign > 0
               for hi, hj, hk in combinations(hulls, 3)
               for p in hi for q in hj for r in hk)


def _ref_largest_remainder(shares, total: int) -> list[int]:
    """Whole parts of ``shares`` summing to ``total``: each share rounded
    down, and one more to each of the largest fractional parts, the earlier
    share first among equal ones."""
    whole = [math.floor(v) for v in shares]
    ranked = sorted(range(len(shares)), key=lambda i: shares[i] - whole[i],
                    reverse=True)
    for i in ranked[:total - sum(whole)]:
        whole[i] += 1
    return whole


def ref_build_convex_free(l: int, n: int) -> PointSet:
    """Trimmed free-set blocks on the unit quarter circle's rational points
    (2u, 1 - u^2)/(1 + u^2), u = i/(t+1); block size and flatness halve
    together until ``ref_blocks_ok`` passes."""
    target = (3 * l - 1) * 2 ** (n - 5)
    shapes = [(n, 3)] + [(n - 2 - i, 4 + i) for i in range(n - 5)] + [(3, n)]
    allot = _ref_largest_remainder(
        [free_set_size_bound(l, mm, nn) for mm, nn in shapes], target)
    trimmed = [ref_build_free_set(l, mm, nn)[:k]
               for (mm, nn), k in zip(shapes, allot)]
    t = len(trimmed)
    anchors = []
    for i in range(t):
        u = Fraction(i + 1, t + 1)
        anchors.append(Point(2 * u / (1 + u * u), (1 - u * u) / (1 + u * u)))
    size = _pow2_at_most(min(q.x - p.x for p, q in zip(anchors, anchors[1:]))
                         / 4)
    flat = size
    norm = []
    for blk in trimmed:
        b0 = _to_origin(blk)
        w, h = _extent(b0)
        norm.append((b0, max(w, Fraction(1)), max(h, Fraction(1))))
    for _ in range(_MAX_ATTEMPTS):
        placed = [[Point(size / w * p.x + anchor.x - size / 2,
                         size * flat / h * p.y + anchor.y) for p in b0]
                  for (b0, w, h), anchor in zip(norm, anchors)]
        if ref_blocks_ok(placed, -1):
            return _normalized(p for block in placed
                               for p in sorted(block, key=lambda p: p.x))
        size, flat = size / 2, flat / 2
    raise AssertionError("arc placement did not verify")
