import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cupcap import (HalfPlane, Orientation, Point, PointSet, convex_hull,
                    is_convex_position, orientation, point_in_convex_hull,
                    point_in_convex_region, shear_distinct_x)
from cupcap.geom import (cross_sign, int_coords, int_cross, int_hull,
                         int_hull_contains, int_normalize, slope_scale)

import oracles
from conftest import random_point_set


def pt(x, y):
    return Point.of(x, y)


small_coord = st.fractions(min_value=-30, max_value=30, max_denominator=8)
points = st.builds(Point, small_coord, small_coord)
big_int = st.integers(min_value=-2**100, max_value=2**100)
int_pairs = st.tuples(big_int, big_int)
big_frac = st.builds(Fraction, big_int, st.integers(1, 2**100))


@st.composite
def hull_inputs(draw):
    """Point lists with repeats: generic rationals up to 2**100, points on
    one line, or a 4 x 4 grid under a per-axis map with such rationals."""
    kind = draw(st.sampled_from(["generic", "collinear", "grid"]))
    if kind == "generic":
        pts = draw(st.lists(st.builds(Point, big_frac, big_frac),
                            min_size=1, max_size=8))
    elif kind == "collinear":
        ox, oy, dx, dy = (draw(big_frac) for _ in range(4))
        ts = draw(st.lists(st.fractions(-5, 5, max_denominator=4),
                           min_size=1, max_size=8))
        pts = [Point(ox + t * dx, oy + t * dy) for t in ts]
    else:
        ox, oy, sx, sy = (draw(big_frac) for _ in range(4))
        cells = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                              min_size=1, max_size=8))
        pts = [Point(ox + sx * x, oy + sy * y) for x, y in cells]
    return pts + draw(st.lists(st.sampled_from(pts), max_size=3))


class TestOrientation:
    def test_left(self):
        assert orientation(pt(0, 0), pt(1, 0), pt(2, 1)) is Orientation.LEFT

    def test_collinear(self):
        assert orientation(pt(0, 0), pt(1, 1), pt(2, 2)) is Orientation.COLLINEAR

    def test_right(self):
        assert orientation(pt(0, 0), pt(1, 0), pt(2, -1)) is Orientation.RIGHT

    def test_duplicate_points_collinear(self):
        assert orientation(pt(1, 1), pt(1, 1), pt(5, 2)) is Orientation.COLLINEAR

    @given(points, points, points)
    def test_antisymmetric_under_swaps(self, p, q, r):
        base = orientation(p, q, r)
        for swapped in [(q, p, r), (p, r, q), (r, q, p)]:
            flipped = orientation(*swapped)
            assert flipped.value == -base.value

    @given(points, points, points, small_coord, small_coord,
           st.fractions(min_value="1/4", max_value=9, max_denominator=6))
    def test_invariant_under_translation_and_scaling(self, p, q, r, dx, dy, s):
        def f(a):
            return Point(s * (a.x + dx), s * (a.y + dy))

        assert orientation(f(p), f(q), f(r)) == orientation(p, q, r)

    def test_deterministic(self):
        args = (pt("1/3", 2), pt(5, "7/9"), pt(-2, "4/7"))
        assert len({orientation(*args) for _ in range(10)}) == 1

    @given(int_pairs, int_pairs, int_pairs, st.integers(-2**20, 2**20))
    def test_int_cross_sign_matches_cross_sign(self, a, b, c, t):
        # (a, b, c) is a generic triple; (a, b, on_line) is collinear
        on_line = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        for r in (c, on_line):
            v = int_cross(a, b, r)
            sign = (v > 0) - (v < 0)
            assert sign == cross_sign(Point.of(*a), Point.of(*b), Point.of(*r))
        assert int_cross(a, b, on_line) == 0


class TestSlopeKey:
    @given(int_pairs, st.integers(1, 2**99), st.integers(1, 2**99),
           st.sampled_from([1, -1]), int_pairs)
    def test_key_orders_slopes_as_fractions(self, o, b, d, sign, r):
        # from o: Farey neighbours a/b < c/d (c*b - a*d == 1), the closest
        # two different slopes with these denominators can be; the slope
        # a/b again through a point twice as far; and a generic slope.
        # Coordinates are near 2**100.
        assume(math.gcd(b, d) == 1)
        a = -pow(d, -1, b) % b
        c = (1 + a * d) // b
        ends = [(o[0] + b, o[1] + sign * a), (o[0] + d, o[1] + sign * c),
                (o[0] + 2 * b, o[1] + 2 * sign * a), r]
        ends = [p for p in ends if p[0] > o[0]]
        scale = slope_scale([o] + ends)
        keys = [(y - o[1]) * scale // (x - o[0]) for x, y in ends]
        slopes = [Fraction(y - o[1], x - o[0]) for x, y in ends]
        for ka, sa in zip(keys, slopes):
            for kb, sb in zip(keys, slopes):
                assert (ka < kb) == (sa < sb) and (ka == kb) == (sa == sb)


class TestShear:
    def test_collapses_duplicate_x(self):
        out = shear_distinct_x(PointSet.of([(0, 0), (0, 1), (1, 0)]))
        assert out.has_distinct_x()

    def test_unchanged_when_distinct(self):
        ps = PointSet.of([(0, 0), (1, 1)])
        assert shear_distinct_x(ps) == ps

    def test_vertical_line_stays_collinear(self):
        out = shear_distinct_x(PointSet.of([(0, 0), (0, 1), (0, 2)]))
        assert out.has_distinct_x()
        assert orientation(out[0], out[1], out[2]) is Orientation.COLLINEAR

    @given(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                    min_size=2, max_size=8, unique=True))
    def test_preserves_every_orientation(self, pairs):
        ps = PointSet.of(pairs)
        out = shear_distinct_x(ps)
        assert out.has_distinct_x()
        n = len(ps)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert orientation(ps[i], ps[j], ps[k]) == \
                        orientation(out[i], out[j], out[k])


    @given(st.lists(st.tuples(st.integers(-4, 4).map(lambda k: Fraction(k, 3)),
                              st.integers(-8, 8)),
                    min_size=2, max_size=10, unique=True))
    def test_sheared_x_order_is_the_input_xy_order(self, pairs):
        # analyze maps sheared witnesses back by index, so they do not
        # depend on eps as long as this order holds
        assume(len({x for x, _ in pairs}) < len(pairs))
        ps = PointSet.of(pairs)
        out = shear_distinct_x(ps)
        assert out.has_distinct_x()
        n = len(ps)
        assert sorted(range(n), key=lambda i: out[i].x) == \
            sorted(range(n), key=lambda i: (ps[i].x, ps[i].y))


class TestConvexHull:
    def test_grid_corners_only(self):
        grid = [pt(x, y) for x in range(3) for y in range(3)]
        hull = convex_hull(grid)
        assert set(hull) == {pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)}

    def test_collinear_keeps_extremes(self):
        hull = convex_hull([pt(0, 0), pt(1, 1), pt(2, 2)])
        assert set(hull) == {pt(0, 0), pt(2, 2)}

    def test_singleton(self):
        assert convex_hull([pt(0, 0)]) == (pt(0, 0),)

    def test_ccw_order(self):
        hull = convex_hull([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4), pt(2, 2)])
        k = len(hull)
        for i in range(k):
            assert orientation(hull[i], hull[(i + 1) % k],
                               hull[(i + 2) % k]) is Orientation.LEFT

    def test_strictness_oracle_small(self):
        # hull vertex <=> not inside closed hull of the others
        rng = random.Random(5)
        for trial in range(30):
            ps = random_point_set(rng, 8, span=12, distinct_x=False)
            hull = set(convex_hull(ps))
            for p in ps:
                others = [q for q in ps if q != p]
                assert (p in hull) == (not point_in_convex_hull(p, others))


    @given(hull_inputs())
    def test_matches_fraction_monotone_chain(self, pts):
        # the vertex order is pinned: ConvexBody.polygon keeps it, and the
        # relative layer's tangent key is measured around its first vertex
        assert convex_hull(pts) == oracles.monotone_chain(pts)

    @given(hull_inputs(), st.builds(Point, big_frac, big_frac))
    def test_int_hull_contains_matches_oracle(self, pts, far):
        # probes: the points, midpoints (inside or on the boundary), points
        # beyond a pair on its line, and one drawn point
        probes = pts + [far]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            probes.append(Point((a.x + b.x) / 2, (a.y + b.y) / 2))
            probes.append(Point(2 * b.x - a.x, 2 * b.y - a.y))
        c = int_coords(probes + pts)
        hull = int_hull(c[len(probes):])
        for q, cq in zip(probes, c):
            assert int_hull_contains(hull, cq) == \
                oracles.point_in_hull_closed(q, pts)
        assert point_in_convex_hull(far, pts) == \
            oracles.point_in_hull_closed(far, pts)


class TestIntNormalize:
    positive = st.fractions(min_value=Fraction(1, 2**40), max_value=2**40)
    shift = st.fractions(min_value=-2**40, max_value=2**40)

    @given(st.lists(int_pairs, min_size=1, max_size=12), positive, positive,
           shift, shift)
    def test_equals_int_coords_after_positive_axis_maps(self, pairs, sx, sy,
                                                         tx, ty):
        # int_normalize is the one representative of the pairs under
        # positive per-axis scalings and translations
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        mapped = [Point(sx * x + tx, sy * y + ty) for x, y in pairs]
        assert int_normalize(xs, ys) == int_coords(mapped)
        assert int_normalize(xs, ys) == \
            int_normalize(*zip(*int_normalize(xs, ys)))


class TestConvexPosition:
    def test_pentagon(self):
        assert is_convex_position(PointSet.of(
            [(0, 1), (1, 0), (2, 0), (2, 1), (1, 2)]))

    def test_collinear_triple(self):
        assert not is_convex_position(PointSet.of([(0, 0), (1, 0), (2, 0)]))

    def test_pairs_always(self):
        assert is_convex_position(PointSet.of([(0, 0), (5, 7)]))

    @given(st.lists(st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
                    min_size=1, max_size=9, unique=True))
    def test_hull_fixpoint_iff_convex_position(self, pairs):
        ps = PointSet.of(pairs)
        assert (set(convex_hull(ps)) == set(ps.points)) == is_convex_position(ps)


class TestHalfPlane:
    def test_open_above(self):
        h = HalfPlane(Fraction(0), Fraction(1), Fraction(1))  # y > -1
        assert point_in_convex_region(pt(0, 0), [h])

    def test_open_boundary_excluded(self):
        h = HalfPlane(Fraction(1), Fraction(0), Fraction(0))  # x > 0
        assert not point_in_convex_region(pt(0, 0), [h])

    def test_closed_boundary_included(self):
        h = HalfPlane(Fraction(1), Fraction(0), Fraction(0), closed=True)
        assert point_in_convex_region(pt(0, 0), [h])

    def test_open_triangle_membership(self):
        a, b, c = pt(0, 0), pt(4, 0), pt(2, 3)
        tri = [HalfPlane.left_of(a, b), HalfPlane.left_of(b, c),
               HalfPlane.left_of(c, a)]
        assert point_in_convex_region(pt(2, 1), tri)
        assert not point_in_convex_region(pt(2, 0), tri)  # on edge, open
        assert not point_in_convex_region(pt(5, 5), tri)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            HalfPlane(Fraction(0), Fraction(0), Fraction(1))


class TestPointSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PointSet.of([(0, 0), (0, 0)])

    def test_order_preserved(self):
        ps = PointSet.of([(2, 0), (1, 0)])
        assert ps[0] == pt(2, 0)
        assert ps.sorted_by_x()[0] == pt(1, 0)

    def test_sequence_methods_use_the_tuple(self, monkeypatch):
        ps = PointSet.of([(0, 0), (1, 2), (2, 1), (3, 5)])
        pts = ps.points

        def no_getitem(self, i):
            raise AssertionError("iteration went through __getitem__")

        monkeypatch.setattr(PointSet, "__getitem__", no_getitem)
        assert list(ps) == list(pts)
        assert list(reversed(ps)) == list(reversed(pts))
        # an equal point that is not the stored object is a member
        twin = Point(Fraction(2), Fraction(1))
        assert twin is not pts[2] and twin in ps
        assert pt(9, 9) not in ps
        assert ps.index(twin) == pts.index(twin) == 2
        for start, stop in ((0, 4), (1, 3), (2, 3), (-3, -1), (0, 99)):
            assert ps.index(pt(2, 1), start, stop) == \
                pts.index(pt(2, 1), start, stop)
        assert ps.index(pt(3, 5), 1) == pts.index(pt(3, 5), 1)
        for args in ((pt(9, 9),), (pt(0, 0), 1), (pt(3, 5), 0, 3)):
            with pytest.raises(ValueError):
                pts.index(*args)
            with pytest.raises(ValueError):
                ps.index(*args)
