"""Detection of extremal structures in planar point sets.

Cups, caps, collinear runs, maximum convex-position subsets, and the
pair-label / grid-poset down-set machinery built on top of the cup/cap
dynamic program.  One backward walker, ``_chain_backward``, takes cup, cap,
convex-polygon and relative-chain witnesses out of their pair tables (the
lexicographically smallest ``longest_cup``/``longest_cap`` witness on the
reflected entry of ``_detection_tables``, which carries its own frame,
scanning down), and one integer turn test, ``_chain_sign``, tells cups from
caps.

Conventions:

* A k-cup is k points with distinct x-coordinates whose left-to-right
  consecutive triples all turn LEFT (convex from below); a k-cap mirrors
  with RIGHT turns.  The *length* of a k-cup or k-cap is k - 1 (edges).
* Every pair of points is both a cup and a cap of length 1; a collinear
  triple is neither a cup nor a cap, so it extends no chain.
* All results are exact.  Inputs are converted once to integer coordinates
  by clearing denominators (an orientation-preserving positive axis
  scaling).  The exact paths sort by slope or angle with the one integer
  key ``num * slope_scale(coords) // den``.
* The label tables and ``max_collinear`` filter by float slopes and fall
  back to exact integers.  CPython's true division of two ints is
  correctly rounded at any size, as is IEEE division, and rounding is
  monotone, so ``fl(dy/dx) < fl(dy'/dx')`` implies ``dy/dx < dy'/dx'``, and
  equal slopes give equal floats.  Only slopes whose floats are equal stay
  undecided.  A quotient of 2**1024 or more, where CPython raises
  OverflowError, is taken as the signed infinity IEEE rounds it to, which
  keeps the order monotone.
* The pure-Python tables label each successor of an anchor by comparing
  its slope with a few thresholds: the least predecessor slope over the
  labels >= v, for each v (the greatest, for caps).  The minimum of some
  floats is the float of the exact minimum, by monotonicity, so each
  comparison with a threshold is decided exactly unless the two floats
  are equal.  Only a successor whose float equals a threshold's takes its
  exact key, against exact thresholds over the predecessors whose floats
  are thresholds; two infinities are such a tie.  ``max_collinear`` groups
  every anchor with a float tie by exact keys.
* The label tables also say whether any three points are collinear.  A
  collinear triple has equal exact slopes from its leftmost point to the
  other two, hence equal floats; at an anchor with equal successor floats
  the pure-Python tables compare exact keys, and the int64 tables find a
  zero cross product at the middle point.  ``find_structure`` and
  ``constructions.verify_construction`` run ``max_collinear`` only when
  that flag is set.
* The label tables take a vectorized int64 kernel on sets of
  ``_NUMPY_MIN_POINTS`` or more with |coordinate| < 2**30.  Every
  difference is then an integer below 2**31, which float64 holds exactly,
  and int64 cross products decide the float ties.  It is the only code
  that loads numpy; ``max_collinear`` runs the one pure-Python scan on
  every input.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import NamedTuple, Optional, Sequence

from .geom import Point, PointSet, int_coords, int_cross, slope_scale

# Below this coordinate magnitude every cross product fits in int64: with
# |coordinate| < 2**30, differences are below 2**31, each product of two
# below 2**62 and their difference below 2**63.  This bound is only int64
# overflow.  The label tables take the int64 path only there, and the
# pure-Python path of Python ints above.  Results are identical.
_INT64_COORD_LIMIT = 1 << 30
# The size from which the label tables take their int64 kernel.  This is
# below the break-even: on 20-bit random sets (10 sets a size, best of 5,
# one vCPU of a 2-vCPU Xeon, numpy 2.4.6, two runs) the push-forward
# Python tables took 0.62-0.72 of the int64 tables' time at 38 points,
# 0.86-0.95 at 57 and 0.99-1.06 at 71, so sets of 38 to about 65 points
# take the slower path.  It stays at 38 because a move sends sets to the
# other path, which needs its own measured benchmark pairs (ROADMAP,
# "Smaller fixes").
_NUMPY_MIN_POINTS = 38
# Most points the label tables are built for.  Labels stay below it, so a
# table row fits in 16 bits a label and the int64 kernel's int16 arrays.
# With rows packed to bytes (one process each, 2-vCPU Xeon): both
# pure-Python tables of 4096 random 60-bit points took 9.2-10.0 s CPU at 59
# MB peak RSS (279 MB with list rows, 8.7-9.8 s alongside), and of 4096
# points in convex position, (k * 2**40, k**2), where cup labels reach 4095
# and each point's threshold lists grow with its index, 10.7 s at 211 MB
# (586 MB, 9.6 s), most of it those lists.  The int64 tables of 4096 random
# 20-bit points peak at 111 MB (319 MB), while the cap table's array is
# packed next to the finished cup rows.  x:3,9,9 (3432 points) fits.
_MAX_TABLE_POINTS = 4096
# Most points max_convex_subset takes, checked before its edge sort, whose
# keyed list grows as n**2.  es:3,12 (1024 points) took 6.9 s CPU at 264 MB
# peak RSS, a third each in the edge sort, the all-anchor sweep and the
# witness sweep (2-vCPU Xeon).
_MAX_CONVEX_POINTS = 1024


class WitnessKind(Enum):
    CUP = "cup"
    CAP = "cap"
    COLLINEAR_RUN = "collinear_run"
    CONVEX_SUBSET = "convex_subset"
    INNER_CAP = "inner_cap"
    OUTER_CUP = "outer_cup"


@dataclass(frozen=True)
class StructureWitness:
    """A found structure with its member points (left-to-right for cups/caps)."""

    kind: WitnessKind
    members: PointSet

    def __len__(self) -> int:
        return len(self.members)


class PairLabel(NamedTuple):
    x_label: int  # length (edge count) of the longest cup ending at the pair
    y_label: int  # length of the longest cap ending at the pair


def _int64_safe(coords: Sequence[tuple[int, int]]) -> bool:
    return all(abs(x) < _INT64_COORD_LIMIT and abs(y) < _INT64_COORD_LIMIT
               for x, y in coords)


# ---------------------------------------------------------------------------
# cup/cap label tables
#
# For points sorted by strictly increasing x, X[i][j] (i < j) is the length
# in edges of the longest cup whose last two points are i and j; Y mirrors
# for caps.  Both are >= 1 for every pair.  A table is a list of n rows of
# n labels, each row packed (``_packed``): a bytearray, one byte a label, or
# an array('H') when it holds a label of 256 or more.  Readers only index,
# slice, ``max`` and ``.index`` the rows, which work alike on both.


def _slope(dy: int, dx: int) -> float:
    """dy / dx for dx > 0, with a quotient too large for a float rounded
    to its signed infinity, as IEEE division rounds it."""
    try:
        return dy / dx
    except OverflowError:
        return math.inf if dy > 0 else -math.inf


def _file(lo: list, hi: list, s, a: int, b: int) -> None:
    """File slope s under cup label a in ``lo`` and cap label b in ``hi``.

    ``lo[v]`` is the least slope filed under a label >= v, so it never
    decreases with v, and ``lo[0]`` is ``-inf``; ``hi[v]`` is the greatest,
    never increasing, and ``hi[0]`` is ``inf``.  Filing lowers ``lo`` from
    a down to the first entry at or below s, and raises ``hi`` from b
    down likewise; entry 0 stops both walks."""
    while s < lo[a]:
        lo[a] = s
        a -= 1
    while s > hi[b]:
        hi[b] = s
        b -= 1


def _grow(lists: list, free: float) -> None:
    """Add a free top slot to each of ``lists``, the threshold lists of
    the points not yet anchored.  They share one length, so a label one
    past that top slot can be filed in any of them."""
    for lst in lists:
        lst.append(free)


def _packed(row) -> bytearray | array:
    """A finished table row at one byte a label, or at two once a label
    reaches 256; labels stay below ``_MAX_TABLE_POINTS``, so 16 bits hold
    them."""
    try:
        return bytearray(row)
    except ValueError:
        return array("H", row)


def _label_tables_python(coords: Sequence[tuple[int, int]]):
    """Cup table X, cap table Y, and whether three points are collinear.

    A push-forward sweep.  For h < i < j the triple (h, i, j) turns LEFT
    exactly when slope(i, j) > slope(h, i), so X[i][j] is one more than the
    largest X[h][i] with slope(h, i) < slope(i, j), and Y mirrors with >.
    Each point j keeps two threshold lists (``_file``): ``low[j][v]``, the
    least float slope of a predecessor with cup label >= v, and
    ``high[j][v]``, the greatest with cap label >= v.  The anchors to its
    left fill them in as they label their pairs with it, so when anchor i
    comes up, its lists are complete, and bisection on them labels every
    successor: X[i][j] = #{v: low[i][v] < s} and Y[i][j] = #{v: high[i][v]
    > s}, both counting entry 0.  So each pair is divided once, and no
    anchor sorts.

    A float comparison decides exactly unless the successor's float equals
    a threshold's (module docstring).  Such a tied successor takes its
    labels from its exact key and exact thresholds, which the anchor files
    from the exact keys of the predecessors whose floats are thresholds,
    and no others.  They decide exactly: if a predecessor h has a key
    below the successor's and cup label c, a predecessor whose float is
    threshold c has label >= c and a float no larger than h's, so a key
    below the successor's unless both floats equal the successor's, and
    then h is filed too; caps mirror this.  Entry 0 makes each label at
    least 1.  The successor's slope is filed again under them; its first
    filing was under labels no larger, so the lists end as the second
    filing alone would leave them.  So a tied anchor costs one pass over
    its predecessors and a bisection a successor, even when every slope
    rounds to one float.  A collinear triple shows as two equal float
    slopes from its leftmost point, where exact keys decide.

    Row i of the tables is made when anchor i comes up, as a list, so the
    stores into it stay fast and the tie path can rewrite them; it is
    packed at the end of anchor i's step.  So the n-slot lists live one
    anchor at a time, and the finished rows take a byte a label."""
    n = len(coords)
    inf = math.inf
    X = [None] * n
    Y = [None] * n
    collinear = False
    scale = 0
    # the last point starts no pair
    for i, (xi, yi) in enumerate(coords[:-1]):
        Xi = X[i] = [1] * n
        Yi = Y[i] = [1] * n
        after = coords[i + 1:]
        try:
            sk = [(y - yi) / (x - xi) for x, y in after]
        except OverflowError:
            sk = [_slope(y - yi, x - xi) for x, y in after]
        distinct = sk if collinear else set(sk)
        if len(distinct) < len(sk):
            scale = scale or slope_scale(coords)
            keys = [(y - yi) * scale // (x - xi) for x, y in after]
            collinear = len(set(keys)) < len(keys)
        if not i:
            # no predecessors: every label is 1.  The last entry of each
            # list is a free top slot.
            low = [None] + [[-inf, s, inf] for s in sk]
            high = [None] + [[inf, s, -inf] for s in sk]
            X[0], Y[0] = _packed(Xi), _packed(Yi)
            continue
        T, U = low[i], high[i]
        low[i] = high[i] = None
        if collinear:
            tied = not {*T, *U}.isdisjoint(sk)
        else:
            tied = not (distinct.isdisjoint(T) and distinct.isdisjoint(U))
        # a label one past a filled top slot needs a new one
        if T[-1] != inf:
            _grow(low[i + 1:], inf)
        if U[-1] != -inf:
            _grow(high[i + 1:], -inf)
        R = U[::-1]  # ascending, for bisection
        k = len(R)
        for j, s, lo, hi in zip(range(i + 1, n), sk, low[i + 1:],
                                high[i + 1:]):
            a = Xi[j] = bisect_left(T, s)
            b = Yi[j] = k - bisect_right(R, s)
            while s < lo[a]:  # _file, inline
                lo[a] = s
                a -= 1
            while s > hi[b]:
                hi[b] = s
                b -= 1
        if tied:
            scale = scale or slope_scale(coords)
            ties = {*T, *U}
            # exact thresholds over the predecessors whose floats are
            # thresholds, which hold each threshold's own predecessor
            T = [-inf] + [inf] * (len(T) - 1)
            U = [inf] + [-inf] * (len(U) - 1)
            for (x, y), cup, cap in zip(coords[:i], X, Y):
                if _slope(yi - y, xi - x) in ties:
                    _file(T, U, (yi - y) * scale // (xi - x), cup[i], cap[i])
            R = U[::-1]
            for j, s in enumerate(sk, i + 1):
                if s not in ties:
                    continue
                x, y = coords[j]
                q = (y - yi) * scale // (x - xi)
                a = Xi[j] = bisect_left(T, q)
                b = Yi[j] = k - bisect_right(R, q)
                # the exact top slot may be filled where the float one
                # is not
                if a == len(low[j]):
                    _grow(low[i + 1:], inf)
                if b == len(high[j]):
                    _grow(high[i + 1:], -inf)
                _file(low[j], high[j], s, a, b)
        X[i], Y[i] = _packed(Xi), _packed(Yi)
    if n:
        X[-1], Y[-1] = bytearray(b"\x01") * n, bytearray(b"\x01") * n
    return X, Y, collinear


def _label_tables_numpy(coords: Sequence[tuple[int, int]]):
    """The int64 kernel of ``_label_tables``: a sort-and-sweep per anchor
    (predecessors sorted by slope, prefix maxima of their labels),
    vectorized, on float64 slopes.

    The float slopes order exactly except among equal floats (see the
    module docstring).  A successor whose float slope equals some
    predecessor's takes its labels from exact int64 cross products
    against every predecessor instead.  Every collinear triple is such a
    successor with a zero cross product, which sets the returned flag.

    It returns packed rows, as ``_label_tables_python`` does: they take a
    byte a label, and the table readers index them several times faster
    than an array.  X is converted and dropped before Y, so only one array
    is held next to the rows."""
    import numpy as np

    n = len(coords)
    x = np.array([c[0] for c in coords], dtype=np.int64)
    y = np.array([c[1] for c in coords], dtype=np.int64)
    X = np.ones((n, n), dtype=np.int16)
    Y = np.ones((n, n), dtype=np.int16)
    # cup[k]: most cup edges into i over the k smallest predecessor slopes;
    # cap[k]: most cap edges over the slopes from the k-th on.  cup[0] and
    # cap[i] stay 0, as no earlier anchor writes them.
    cup = np.zeros(n, dtype=np.int16)
    cap = np.zeros(n, dtype=np.int16)
    collinear = False
    for i in range(1, n - 1):
        dx = x - x[i]
        dy = y - y[i]
        pred = dy[:i] / dx[:i]
        succ = dy[i + 1:] / dx[i + 1:]
        order = pred.argsort()
        keys = pred[order]
        np.maximum.accumulate(X[order, i], out=cup[1:i + 1])
        cap[:i] = np.maximum.accumulate(Y[order[::-1], i])[::-1]
        # predecessors before lo have smaller float slopes than successor
        # j, from hi on larger ones; lo < hi leaves j's turns to the ints
        lo = keys.searchsorted(succ, "left")
        hi = keys.searchsorted(succ, "right")
        X[i, i + 1:] = cup[lo] + 1
        Y[i, i + 1:] = cap[hi] + 1
        tied = i + 1 + (lo < hi).nonzero()[0]
        if tied.size:
            # (h, i, j) turns left iff dy[h] * dx[j] - dx[h] * dy[j] > 0
            cr = dy[:i, None] * dx[tied] - dx[:i, None] * dy[tied]
            X[i, tied] = np.where(cr > 0, X[:i, i, None], 0).max(axis=0) + 1
            Y[i, tied] = np.where(cr < 0, Y[:i, i, None], 0).max(axis=0) + 1
            collinear = collinear or not cr.all()

    def rows(table):  # _packed, one array row at a time
        narrow = (table.max(axis=1) < 256).tolist()
        return [bytearray(r.astype(np.uint8).data) if small
                else array("H", r.tobytes()) for r, small in zip(table, narrow)]

    # no view of X outlives the loop, so rebinding X frees its array
    X = rows(X)
    return X, rows(Y), collinear


def _label_tables(coords: Sequence[tuple[int, int]]):
    if len(coords) >= _NUMPY_MIN_POINTS and _int64_safe(coords):
        return _label_tables_numpy(coords)
    return _label_tables_python(coords)


def _sorted_coords(ps: PointSet
                   ) -> tuple[list[Point], list[tuple[int, int]]]:
    """The points in (x, y) order, with their ``int_coords``.

    ``int_coords`` keeps each axis's order and does not depend on the input
    order, so one call on the input sorts the points and gives the sorted
    points' own coordinates."""
    raw = int_coords(ps)
    order = sorted(range(len(ps)), key=raw.__getitem__)
    return [ps[i] for i in order], [raw[i] for i in order]


def _sorted_distinct_x(ps: PointSet
                       ) -> tuple[list[Point], list[tuple[int, int]]]:
    """``_sorted_coords``, refusing a set with two equal x-coordinates."""
    pts, coords = _sorted_coords(ps)
    for i in range(1, len(coords)):
        if coords[i - 1][0] == coords[i][0]:
            raise ValueError(
                f"x-coordinates are not pairwise distinct ({pts[i - 1]!r}, "
                f"{pts[i]!r}); normalize with shear_distinct_x first")
    return pts, coords


def _check_table_points(n) -> None:
    if n > _MAX_TABLE_POINTS:
        raise ValueError(f"{n} points exceed the {_MAX_TABLE_POINTS}-point "
                         "limit of the cup/cap label tables")


def _check_convex_points(n) -> None:
    if n > _MAX_CONVEX_POINTS:
        raise ValueError(f"{n} points exceed the {_MAX_CONVEX_POINTS}-point "
                         "limit of max_convex_subset")


class _Tables(NamedTuple):
    pts: list[Point]  # in the tables' index order
    coords: list[tuple[int, int]]  # their coordinates in the tables' frame
    X: list  # cup labels, packed rows
    Y: list  # cap labels, packed rows
    collinear: bool  # whether three points are collinear


@lru_cache(maxsize=2)
def _detection_tables(ps: PointSet, reflected: bool) -> _Tables:
    """The label tables of a point set, with the points and coordinates
    they index; the two entries keep the last set's forward and reflected
    tables.

    Forward, the points are in (x, y) order at their ``int_coords``.  The
    reflected entry carries its own frame: the points reversed, at
    (-x, y), so index r is forward point n - 1 - r.  Reflection keeps cups
    and caps and reverses the order, so ``_longest_chain`` walks the
    lexicographically smallest witness back on it."""
    _check_table_points(len(ps))
    pts, coords = _sorted_distinct_x(ps)
    if reflected:
        pts, coords = pts[::-1], [(-x, y) for x, y in reversed(coords)]
    return _Tables(pts, coords, *_label_tables(coords))


# ---------------------------------------------------------------------------
# cup / cap predicates and witnesses


def _chain_sign(coords: Sequence[tuple[int, int]],
                chain: Sequence[int]) -> int:
    """+1 when ``coords[chain]`` (x order, at least 3 points) is a cup, -1
    for a cap, else 0."""
    t = [int_cross(coords[a], coords[b], coords[c])
         for a, b, c in zip(chain, chain[1:], chain[2:])]
    return 1 if min(t) > 0 else -1 if max(t) < 0 else 0


def _is_chain(points: Sequence[Point], sign: int) -> bool:
    """True iff the points, in x-order, turn ``sign`` at every consecutive
    triple (any input order; at least 2 points, distinct x)."""
    c = sorted(int_coords(list(points)))
    if len(c) < 2 or any(a[0] == b[0] for a, b in zip(c, c[1:])):
        return False
    return len(c) == 2 or _chain_sign(c, range(len(c))) == sign


def is_cup(points: Sequence[Point]) -> bool:
    """True iff the points form a cup (any input order; at least 2 points)."""
    return _is_chain(points, 1)


def is_cap(points: Sequence[Point]) -> bool:
    return _is_chain(points, -1)


def is_collinear_run(points: Sequence[Point]) -> bool:
    c = int_coords(list(points))
    if len(c) < 2:
        return len(c) == 1
    return all(int_cross(c[0], c[1], r) == 0 for r in c[2:])


def _longest_chain(ps: PointSet, kind: WitnessKind,
                   sign: int) -> StructureWitness:
    """The lexicographically smallest maximum chain, in x-order indices.

    It is walked back on the reflected entry, whose index r is point
    n - 1 - r: reflection keeps cups and caps, reversal and reflection
    each flip a turn, so the turn signs hold too.  Read there, the
    smallest first index is the largest last one, so the walk starts at
    the pair holding the maximum with the largest right, then left, index
    (every label is 1 in the lower triangle and the last row), and each
    step back takes the largest predecessor."""
    if len(ps) < 2:
        raise ValueError(f"longest_{kind.value} needs at least 2 points")
    pts, coords, XR, YR, _ = _detection_tables(ps, True)
    table = XR if sign > 0 else YR
    top = max(map(max, table))
    n = len(pts)
    end = next((a, b) for b in range(n - 1, 0, -1)
               for a in range(b - 1, -1, -1) if table[a][b] == top)
    chain = _chain_backward(coords, table, *end, sign, descending=True)
    return StructureWitness(kind, PointSet(pts[r] for r in reversed(chain)))


def longest_cup(ps: PointSet) -> StructureWitness:
    """A maximum-cardinality cup; ties broken by the lexicographically
    smallest index sequence in x-order."""
    return _longest_chain(ps, WitnessKind.CUP, 1)


def longest_cap(ps: PointSet) -> StructureWitness:
    return _longest_chain(ps, WitnessKind.CAP, -1)


def _max_label_pair(table):
    """Largest label in a pair table and the first pair that holds it."""
    best, where = 0, None
    for i in range(len(table) - 1):
        row = table[i][i + 1:]
        top = max(row)
        if top > best:
            best, where = top, (i, i + 1 + row.index(top))
    return best, where


def _longest_size(ps: PointSet, sign: int) -> int:
    if len(ps) < 2:
        raise ValueError("needs at least 2 points")
    _, _, X, Y, _ = _detection_tables(ps, False)
    return _max_label_pair(X if sign > 0 else Y)[0] + 1


def longest_cup_size(ps: PointSet) -> int:
    """Point count of the longest cup (no witness extraction)."""
    return _longest_size(ps, 1)


def longest_cap_size(ps: PointSet) -> int:
    return _longest_size(ps, -1)


# ---------------------------------------------------------------------------
# maximum collinear subset


def _float_slope_tied(coords: Sequence[tuple[int, int]], i: int) -> bool:
    """Whether two points after anchor i of ``coords`` in (x, y) order
    have equal float slopes from it, +inf for vertical ones, or a slope
    overflows a float."""
    xi, yi = coords[i]
    later = coords[i + 1:]
    try:
        return len({(y - yi) / (x - xi) if x != xi else math.inf
                    for x, y in later}) < len(later)
    except OverflowError:
        return True


def max_collinear(ps: PointSet) -> StructureWitness:
    """A maximum set of members lying on one common line.

    Anchor scan: the lexicographically smallest point of a maximal run sees
    the entire rest of the run in a single slope-key bucket (``None`` for
    the vertical direction).  Anchors from which no two later points have
    equal float slopes are skipped: their buckets hold one point each, and
    ``best`` has two.  Each anchor is tested as the scan reaches it, and
    one whose division overflows is scanned.
    """
    if len(ps) < 2:
        raise ValueError("max_collinear needs at least 2 points")
    pts, coords = _sorted_coords(ps)
    scale = slope_scale(coords)
    n = len(pts)
    best: list[int] = [0, 1]
    for i in range(n - 1):
        if n - i <= len(best):
            break
        if not _float_slope_tied(coords, i):
            continue
        groups: dict[Optional[int], list[int]] = {}
        xi, yi = coords[i]
        for j in range(i + 1, n):
            dx = coords[j][0] - xi
            key = (coords[j][1] - yi) * scale // dx if dx else None
            groups.setdefault(key, []).append(j)
        for members in groups.values():
            if len(members) + 1 > len(best):
                best = [i] + members
    return StructureWitness(WitnessKind.COLLINEAR_RUN,
                            PointSet(pts[i] for i in best))


# ---------------------------------------------------------------------------
# maximum subset in convex position


def _edges_by_angle(coords: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Every directed edge (u, v), sorted by the exact angle of
    ``coords[v] - coords[u]`` in [0, 2*pi).

    ``coords`` must be in (y, x) order, so u -> v points into the upper half
    [0, pi) exactly when u < v, and v -> u is the same direction turned by
    pi.  Within a half, horizontal edges come first, then the angle grows
    with the slope -dx/dy, ordered by its exact ``slope_scale`` key.

    Parallel edges chain only along a common line.  Among edges of one
    direction, the one whose source lies furthest along that direction
    (the largest index in the upper half, the smallest in the lower) comes
    first, so no edge reads a value its own direction has already written.
    In the upper half, edges of one source and one direction go to the
    nearer target first.
    """
    n = len(coords)
    scale = slope_scale(coords)
    keyed = []
    for i in range(n):
        xi, yi = coords[i]
        for j in range(i + 1, n):
            dx, dy = coords[j][0] - xi, coords[j][1] - yi
            slant = dy != 0
            slope = -dx * scale // dy if slant else 0
            keyed.append((slant, slope, -i, i, j))
            keyed.append((2 + slant, slope, j, j, i))
    keyed.sort()
    return [(e[3], e[4]) for e in keyed]


def _anchor_sweep(edges, a: int, table) -> int:
    """Vertices of the largest polygon whose (y, x)-lowest vertex is ``a``,
    swept over ``edges`` (angular order, endpoints in ``range(n)``) into
    the n x n ``table``; 2 when there is none.

    L[v] is the most vertices on a chain a -> ... -> v of edges taken in
    sweep order, never labelling a point below a.  Each edge u -> v either
    extends a chain to v > a or, when v == a, closes a polygon of L[u]
    vertices.  Every edge u -> v with L[u] > 0 writes ``table[u][v] =
    L[u]``.
    """
    L = [0] * len(table)
    L[a] = 1
    size = 2
    for u, v in edges:
        lu = L[u]
        if not lu:
            continue
        table[u][v] = lu
        if v == a:
            if lu > size:
                size = lu
        elif v > a and lu >= L[v]:
            L[v] = lu + 1
    return size


def _anchor_sizes(edges, n: int) -> list[int]:
    """The size ``_anchor_sweep(edges, a, table)`` returns, for every
    anchor a, in one sweep.

    B[v][k] is the bitmask of the anchors a with L_a[v] >= k + 1, so B[v]
    starts as ``[1 << v]``.  An edge u -> v closes polygons for anchor v
    when v < u, and extends the chains of the anchors below v:
    L_a[v] = max(L_a[v], L_a[u] + 1) wherever L_a[u] > 0.  Each anchor's
    bits follow its own sweep over the same edges in the same order.  The
    levels stay nested, B[v][k + 1] within B[v][k], because an extension
    also sets level 0; so a level of B[u] without bits below v ends the
    update, and anchor v's size rises while its bit is set in
    B[u][size].  O(n^2 * M) operations on n-bit ints, M the largest size.
    """
    B = [[1 << v] for v in range(n)]
    size = [2] * n
    lows = [(1 << v) - 1 for v in range(n)]
    for u, v in edges:
        bu = B[u]
        if v < u:
            s = size[v]
            while s < len(bu) and bu[s] >> v & 1:
                s += 1
            size[v] = s
        below = lows[v]
        m = bu[0] & below
        if not m:
            continue
        bv = B[v]
        bv[0] |= m
        k = 1
        while m:
            if k < len(bv):
                bv[k] |= m
            else:
                bv.append(m)
            m = bu[k] & below if k < len(bu) else 0
            k += 1
    return size


def max_convex_subset(ps: PointSet) -> StructureWitness:
    """An exact maximum-cardinality subset in strict convex position.

    Each anchor a, the (y, x)-lowest vertex of the polygon, has its own
    angular edge sweep (``_anchor_sweep``; Chvatal & Klincsek, 1980).  A
    polygon traversed counterclockwise from its lowest vertex has strictly
    increasing edge angles in [0, 2*pi), and a closed chain of such edges
    is a polygon in strict convex position.  ``_anchor_sizes`` runs every
    anchor's sweep at once on bitmasks, O(n^2 * M) operations on n-bit
    ints for the maximum M, and no anchor is pruned.

    The witness comes from ``_anchor_sweep`` on the first anchor a that
    reaches M, over a's edge list renumbered by fan position:
    a is 0 and its out-edges follow in ``_edges_by_angle`` order (angular
    order around a, nearer first on a ray).  That sweep fills T[i][j] on
    every pair.  With j the first fan position, and i the first below j,
    such that T[i][j] == M - 1 and the turn (i, j, a) is left,
    ``_chain_backward`` walks the polygon back to a.  The witness contract
    is the polygon that the pair DP over the fan picks (chains in fan
    order with left turns; the first M-gon in (j, i) order whose turn back
    to a is left), and this walk yields it, because on every pair of a
    chain that closes at a, T equals that DP's value less one:

    * any sweep chain, extended by a closing suffix, has strictly
      increasing edge angles in [0, 2*pi), so it is a convex polygon in
      angular order, hence a pair-DP chain;
    * every pair-DP chain is a sweep chain;
    * closing edges v -> a are sorted by angle(v - a) + pi, nearer first
      on a ray, which is the fan's order, so the first closing vertex is
      the same in both;
    * the walk takes the smallest predecessor with value d - 1 and a left
      turn, which is the parent that the pair DP keeps.
    """
    if len(ps) < 3:
        raise ValueError("max_convex_subset needs at least 3 points")
    _check_convex_points(len(ps))
    pts = sorted(ps, key=lambda p: (p.y, p.x))
    coords = int_coords(pts)
    n = len(pts)
    edges = _edges_by_angle(coords)
    sizes = _anchor_sizes(edges, n)
    best_size = max(sizes)
    if best_size == 2:
        members = [pts[0], pts[1]]
    else:
        best_anchor = sizes.index(best_size)
        best_edges = [e for e in edges if min(e) >= best_anchor]
        fan = [best_anchor] + [v for u, v in best_edges if u == best_anchor]
        pos = {v: k for k, v in enumerate(fan)}
        c = len(fan)
        T = [[0] * c for _ in range(c)]
        _anchor_sweep([(pos[u], pos[v]) for u, v in best_edges], 0, T)
        fc = [coords[v] for v in fan]
        polygon = next(
            _chain_backward(fc, T, i, j, +1)
            for j in range(2, c) for i in range(1, j)
            if T[i][j] == best_size - 1 and int_cross(fc[i], fc[j], fc[0]) > 0)
        members = [pts[fan[k]] for k in polygon]
    members.sort(key=lambda p: (p.x, p.y))
    return StructureWitness(WitnessKind.CONVEX_SUBSET, PointSet(members))


# ---------------------------------------------------------------------------
# pair labels, down-sets


def pair_labels(ps: PointSet) -> dict[tuple[Point, Point], PairLabel]:
    """Labels (x_pq, y_pq) for every ordered pair p before q in x-order."""
    pts, coords, X, Y, _ = _detection_tables(ps, False)
    n = len(pts)
    out = {}
    for i in range(n - 1):
        for j in range(i + 1, n):
            out[(pts[i], pts[j])] = PairLabel(X[i][j], Y[i][j])
    return out


@dataclass(frozen=True)
class DownSet:
    """A down-set of the grid poset on [a] x [b], (x, y) <= (x', y') iff
    x <= x' and y <= y'; stored as the non-increasing column-height profile."""

    a: int
    b: int
    profile: tuple[int, ...]

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("grid dimensions must be non-negative")
        if len(self.profile) != self.a:
            raise ValueError("profile length must equal the grid width")
        prev = self.b
        for v in self.profile:
            if not (0 <= v <= self.b):
                raise ValueError(f"column height {v} outside 0..{self.b}")
            if v > prev:
                raise ValueError("profile must be non-increasing")
            prev = v

    @staticmethod
    def empty(a: int, b: int) -> "DownSet":
        return DownSet(a, b, (0,) * a)

    @staticmethod
    def generated_by(a: int, b: int,
                     pairs: Sequence[tuple[int, int]]) -> "DownSet":
        """Downward closure of 1-based grid points (x, y)."""
        profile = [0] * a
        for x, y in pairs:
            if not (1 <= x <= a and 1 <= y <= b):
                raise ValueError(f"generator ({x}, {y}) outside grid "
                                 f"L({a}, {b})")
            for col in range(x):
                if profile[col] < y:
                    profile[col] = y
        return DownSet(a, b, tuple(profile))

    def contains(self, x: int, y: int) -> bool:
        return 1 <= x <= self.a and 1 <= y <= self.profile[x - 1]

    def size(self) -> int:
        return sum(self.profile)


def downset_of(ps: PointSet, q: Point, a: int, b: int) -> DownSet:
    """Down-set in L(a, b) generated by the labels of pairs ending at q."""
    pts, coords, X, Y, _ = _detection_tables(ps, False)
    try:
        k = pts.index(q)
    except ValueError:
        raise ValueError(f"{q!r} is not a member of the point set") from None
    pairs = [(X[i][k], Y[i][k]) for i in range(k)]
    return DownSet.generated_by(a, b, pairs)


def downsets_by_point(ps: PointSet, a: int, b: int) -> dict[Point, DownSet]:
    """downset_of for every member, computing the label tables once."""
    pts, coords, X, Y, _ = _detection_tables(ps, False)
    out = {}
    for k, q in enumerate(pts):
        pairs = [(X[i][k], Y[i][k]) for i in range(k)]
        out[q] = DownSet.generated_by(a, b, pairs)
    return out


def count_downsets(a: int, b: int) -> int:
    """Number of down-sets of L(a, b): binomial(a + b, a), exactly."""
    if a < 0 or b < 0:
        raise ValueError("grid dimensions must be non-negative")
    return math.comb(a + b, a)


def enumerate_downsets(a: int, b: int) -> list[DownSet]:
    """All down-sets of L(a, b), each exactly once (profile-lex order)."""
    total = count_downsets(a, b)
    if total > 10**6:
        raise ValueError(f"{total} down-sets exceed the enumeration cap")
    # non-increasing profiles, largest first
    return [DownSet(a, b, profile) for profile in
            combinations_with_replacement(range(b, -1, -1), a)]


# ---------------------------------------------------------------------------
# combined search


def _chain_backward(coords, table, i: int, j: int, sign: int, *,
                    descending: bool = False) -> list[int]:
    """A maximum chain ending at the pair (i, j), walked backward greedily
    through a pair table of chain lengths ending at each pair: the cup/cap
    label tables, forward or reflected, ``max_convex_subset``'s polygon
    table in fan order, or either table of ``relative._relative_chains`` in
    radial order.

    Each step takes the smallest h that turns ``sign`` at (h, i, j) and
    holds one less than (i, j), or the largest with ``descending``, which
    ``_longest_chain`` walks the reflected tables with; the walk stops at a
    pair holding 1.
    """
    chain = [j, i]
    while table[i][j] > 1:
        for h in (range(i - 1, -1, -1) if descending else range(i)):
            if (int_cross(coords[h], coords[i], coords[j]) * sign > 0
                    and table[h][i] == table[i][j] - 1):
                chain.append(h)
                i, j = h, i
                break
        else:  # pragma: no cover - every walked pair table is consistent
            raise AssertionError("backward chain walk failed")
    chain.reverse()
    return chain


def find_structure(ps: PointSet, l: int, m: int, n: int) -> Optional[StructureWitness]:
    """A witness of l collinear points, an m-cup, or an n-cap, else None.

    Preference order on success: collinear run, then cup, then cap.  The
    label tables come first, and the collinear scan runs only when their
    sweep has seen three collinear points.  A set the tables refuse (equal
    x-coordinates, too many points) is scanned before they raise, so a
    collinear run needs no distinct x-coordinates; the cup/cap phase does.
    """
    if min(l, m, n) < 3:
        raise ValueError("thresholds must all be >= 3")
    if len(ps) < 2:
        return None
    try:
        tables = _detection_tables(ps, False)
    except ValueError:
        tables = None
    if tables is None or tables.collinear:
        run = max_collinear(ps)
        if len(run) >= l:
            return StructureWitness(WitnessKind.COLLINEAR_RUN,
                                    run.members[:l])
    pts, coords, X, Y, _ = tables or _detection_tables(ps, False)
    for table, sign, size, kind in ((X, 1, m, WitnessKind.CUP),
                                    (Y, -1, n, WitnessKind.CAP)):
        best, at = _max_label_pair(table)
        if best + 1 >= size:
            chain = _chain_backward(coords, table, *at, sign)[:size]
            return StructureWitness(kind, PointSet(pts[i] for i in chain))
    return None
