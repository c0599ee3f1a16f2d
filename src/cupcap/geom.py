"""Exact planar geometry kernel.

Points have arbitrary-precision rational coordinates (``fractions.Fraction``).
Predicates run on them directly or on the exact integer coordinates
``int_coords`` derives from them; the convex hull and hull containment run
on the integer coordinates only (``int_hull``, ``int_hull_contains`` on
the half-planes of ``int_halfplanes``).
Every predicate is a deterministic exact sign computation.  No floating
point is used anywhere in this module.  All functions are pure and safe to
call concurrently.

Conventions:

* ``orientation(p, q, r)`` is the sign of the cross product
  ``(q - p) x (r - p)``: LEFT for a counterclockwise turn, RIGHT for
  clockwise, COLLINEAR for zero.
* The convex hull is *strict*: a hull vertex is a point that is not in the
  convex hull of the other points, so points interior to hull edges are not
  hull vertices.
* Half-planes are the open (or closed) sets ``{(x, y) : a*x + b*y + c > 0}``
  (``>= 0`` when closed).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

CoordLike = Union[int, str, Fraction]

# Exact rational coordinate; Fraction keeps lowest terms and a positive
# denominator as invariants of the type itself.
Coord = Fraction


def coord(value: CoordLike) -> Fraction:
    """Coerce an int, Fraction, or string like ``-3`` / ``5/7`` to a Coord."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact coordinate")


class Orientation(Enum):
    LEFT = 1
    COLLINEAR = 0
    RIGHT = -1


@dataclass(frozen=True, slots=True)
class Point:
    x: Fraction
    y: Fraction

    @staticmethod
    def of(x: CoordLike, y: CoordLike) -> "Point":
        return Point(coord(x), coord(y))

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"


def cross_sign(p: Point, q: Point, r: Point) -> int:
    """Sign (-1, 0, +1) of the cross product (q - p) x (r - p), exactly."""
    v = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def orientation(p: Point, q: Point, r: Point) -> Orientation:
    """Exact three-way turn classification of the ordered triple (p, q, r)."""
    return Orientation(cross_sign(p, q, r))


def int_coords(pts: Sequence[Point]) -> list[tuple[int, int]]:
    """Exact integer surrogate coordinates, in input order.

    Per axis: clear denominators, then ``int_normalize``.  Positive axis
    scalings and translations preserve every orientation sign, collinearity
    group and x-order.
    """
    if not pts:
        return []
    sx = math.lcm(*(p.x.denominator for p in pts))
    sy = math.lcm(*(p.y.denominator for p in pts))
    return int_normalize(
        [p.x.numerator * (sx // p.x.denominator) for p in pts],
        [p.y.numerator * (sy // p.y.denominator) for p in pts])


def int_normalize(xs: Sequence[int], ys: Sequence[int]
                  ) -> list[tuple[int, int]]:
    """The pairs ``(xs[i], ys[i])`` with each axis translated to minimum 0
    and divided by its content gcd.

    The result is the same for every positive scaling and translation of
    either axis, so it is also ``int_coords`` of any rational set that maps
    to these pairs that way.
    """
    mx, my = min(xs), min(ys)
    xs = [v - mx for v in xs]
    ys = [v - my for v in ys]
    gx = math.gcd(*xs) or 1
    gy = math.gcd(*ys) or 1
    return [(x // gx, y // gy) for x, y in zip(xs, ys)]


def int_cross(a: tuple[int, int], b: tuple[int, int],
              c: tuple[int, int]) -> int:
    """The cross product (b - a) x (c - a) of integer coordinate pairs; its
    sign is the turn of (a, b, c), as for ``cross_sign``."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def slope_scale(coords: Sequence[tuple[int, int]]) -> int:
    """The scale of the exact integer slope key ``num * scale // den``, for
    differences ``num``, ``den > 0`` of coordinates in ``coords``.

    ``scale = 2**(2*bits)`` with every difference below ``2**bits``.  Two
    different slopes a/b and c/d then differ by at least 1/(b*d) > 1/scale,
    so their keys differ too, in the same order; equal slopes get equal keys.
    """
    top = max((abs(c) for xy in coords for c in xy), default=0)
    return 1 << (2 * (top.bit_length() + 1))


class PointSet(Sequence):
    """An ordered sequence of distinct points.

    The order is preserved as given (generators emit left-to-right order);
    no two members may be identical.
    """

    __slots__ = ("_pts",)

    def __init__(self, points: Iterable[Point]):
        pts = tuple(points)
        seen = set()
        for p in pts:
            key = (p.x, p.y)
            if key in seen:
                raise ValueError(f"duplicate point {p!r} in point set")
            seen.add(key)
        self._pts = pts

    @staticmethod
    def of(pairs: Iterable[tuple[CoordLike, CoordLike]]) -> "PointSet":
        return PointSet(Point.of(x, y) for x, y in pairs)

    @property
    def points(self) -> tuple[Point, ...]:
        return self._pts

    def sorted_by_x(self) -> "PointSet":
        return PointSet(sorted(self._pts, key=lambda p: (p.x, p.y)))

    def has_distinct_x(self) -> bool:
        return len({p.x for p in self._pts}) == len(self._pts)

    def __len__(self) -> int:
        return len(self._pts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PointSet(self._pts[i])
        return self._pts[i]

    # the tuple's own methods, instead of Sequence mixins that call
    # __getitem__ once per element
    def __iter__(self):
        return iter(self._pts)

    def __reversed__(self):
        return reversed(self._pts)

    def __contains__(self, p) -> bool:
        return p in self._pts

    def index(self, p, *bounds) -> int:
        return self._pts.index(p, *bounds)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and self._pts == other._pts

    def __hash__(self) -> int:
        return hash(self._pts)

    def __repr__(self) -> str:
        return f"PointSet({list(self._pts)!r})"


def shear_distinct_x(ps: PointSet) -> PointSet:
    """Shear (x, y) -> (x + eps*y, y) so that all x-coordinates are distinct
    and the sheared x-order is the input's (x, y) order; a set with distinct
    x-coordinates is returned unchanged.

    A shear has unit determinant, so it keeps every turn exactly.  With g
    the least positive x-gap (1 if none) and h > 0 the y-span (two of the
    points share an x), eps = g/(2h).  Points of equal x move apart by eps
    times their y-difference; for x_i < x_j the sheared difference is
    (x_j - x_i) + eps*(y_j - y_i) >= g - eps*h = g/2 > 0.
    """
    if ps.has_distinct_x():
        return ps
    pts = ps.points
    xs = sorted({p.x for p in pts})
    gap = min((b - a for a, b in zip(xs, xs[1:])), default=Fraction(1))
    ys = [p.y for p in pts]
    eps = gap / (2 * (max(ys) - min(ys)))
    return PointSet(Point(p.x + eps * p.y, p.y) for p in pts)


def int_hull(coords: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Strict convex hull of integer pairs in counterclockwise order, from
    the least pair in (x, y) order (Andrew's monotone chain on ``int_cross``).

    Duplicates are merged and points interior to hull edges are excluded.
    A singleton yields itself; a collinear set yields its two extreme pairs.
    """
    pts = sorted(set(coords))
    if not pts:
        raise ValueError("convex hull of an empty set")
    if len(pts) == 1:
        return pts

    def half(seq):
        chain: list[tuple[int, int]] = []
        for p in seq:
            while len(chain) >= 2 and int_cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def int_halfplanes(hull: Sequence[tuple[int, int]]
                   ) -> list[tuple[int, int, int]]:
    """Integer triples (a, b, k) such that ``a*x + b*y >= k`` for every
    triple holds exactly on the closed hull, for a hull built by
    ``int_hull``.

    Three or more vertices give one triple per edge u -> v, whose value
    minus k is ``int_cross(u, v, p)``.  Two vertices give both directions
    of the edge (the line) and the dot-product bounds
    ``(b - a).p >= (b - a).a`` and ``(a - b).p >= (a - b).b`` (the
    segment on it); one vertex gives the four axis bounds.
    """
    if len(hull) == 1:
        (x, y), = hull
        return [(1, 0, x), (-1, 0, -x), (0, 1, y), (0, -1, -y)]
    edges = zip(hull, hull[1:] + hull[:1])
    planes = [(uy - vy, vx - ux, (uy - vy) * ux + (vx - ux) * uy)
              for (ux, uy), (vx, vy) in edges]
    if len(hull) == 2:
        (ax, ay), (bx, by) = hull
        dx, dy = bx - ax, by - ay
        planes += [(dx, dy, dx * ax + dy * ay), (-dx, -dy, -dx * bx - dy * by)]
    return planes


def int_hull_contains(hull: Sequence[tuple[int, int]],
                      p: tuple[int, int]) -> bool:
    """Closed containment of p in a hull built by ``int_hull``."""
    x, y = p
    return all(a * x + b * y >= k for a, b, k in int_halfplanes(hull))


def convex_hull(points: Iterable[Point]) -> tuple[Point, ...]:
    """Strict convex hull in counterclockwise order, from the least point
    in (x, y) order: ``int_hull`` on ``int_coords``, whose positive per-axis
    affine map keeps the (x, y) order and every turn sign.

    Points lying in the interior of hull edges are excluded.  A singleton
    yields itself; a collinear set yields its two extreme points.
    """
    pts = list(points)
    coords = int_coords(pts)
    back: dict[tuple[int, int], Point] = {}
    for c, p in zip(coords, pts):
        back.setdefault(c, p)
    return tuple(back[c] for c in int_hull(back))


def is_convex_position(ps: PointSet | Sequence) -> bool:
    """True iff every point is a strict vertex of the convex hull.

    Any set containing three collinear points is not in convex position;
    sets of size <= 2 are.
    """
    pts = list(ps)
    if len(pts) <= 2:
        return True
    return len(convex_hull(pts)) == len(pts)


@dataclass(frozen=True, slots=True)
class HalfPlane:
    """The set {(x, y) : a*x + b*y + c > 0}, or >= 0 when closed."""

    a: Fraction
    b: Fraction
    c: Fraction
    closed: bool = False

    def __post_init__(self):
        if self.a == 0 and self.b == 0:
            raise ValueError("degenerate half-plane: (a, b) == (0, 0)")

    def value(self, p: Point) -> Fraction:
        return self.a * p.x + self.b * p.y + self.c

    def contains(self, p: Point) -> bool:
        v = self.value(p)
        return v >= 0 if self.closed else v > 0

    @staticmethod
    def left_of(p: Point, q: Point, closed: bool = False) -> "HalfPlane":
        """Half-plane strictly to the left of the directed line p -> q."""
        a = -(q.y - p.y)
        b = q.x - p.x
        c = -(a * p.x + b * p.y)
        return HalfPlane(a, b, c, closed)

    @staticmethod
    def right_of(p: Point, q: Point, closed: bool = False) -> "HalfPlane":
        h = HalfPlane.left_of(p, q)
        return HalfPlane(-h.a, -h.b, -h.c, closed)


def point_in_convex_region(p: Point, halfplanes: Iterable[HalfPlane]) -> bool:
    """Membership in an intersection of half-planes (strict where open)."""
    return all(h.contains(p) for h in halfplanes)


def point_in_convex_hull(p: Point, points: Iterable[Point]) -> bool:
    """Closed containment: p in conv(points), boundary inclusive."""
    c = int_coords([p, *points])
    return int_hull_contains(int_hull(c[1:]), c[0])
