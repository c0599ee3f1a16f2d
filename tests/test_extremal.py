import hashlib
import random
import re
from array import array
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cupcap import (DownSet, PairLabel, Point, PointSet, WitnessKind,
                    build_convex_free, build_free_set, constructions,
                    count_downsets, downset_of, downsets_by_point,
                    enumerate_downsets, extremal, find_structure, is_cap,
                    is_cup, is_collinear_run, is_convex_position, longest_cap,
                    longest_cup, max_collinear, max_convex_subset,
                    pair_labels, verify_construction)
from cupcap.cli import main
from cupcap.espts import save_file
from cupcap.extremal import _label_tables_numpy, _label_tables_python
from cupcap.geom import int_coords

import oracles
from conftest import random_general_position, random_point_set


def pt(x, y):
    return Point.of(x, y)


def as_lists(table):
    """A label table's rows as lists, to compare with a reference's."""
    return [list(row) for row in table]


PARABOLA5 = PointSet.of([(i, i * i) for i in range(5)])
COLLINEAR5 = PointSet.of([(i, i) for i in range(5)])


class TestLongestCupCap:
    def test_parabola_cup(self):
        w = longest_cup(PARABOLA5)
        assert w.kind is WitnessKind.CUP and len(w) == 5

    def test_collinear_gives_pair(self):
        assert len(longest_cup(COLLINEAR5)) == 2
        assert len(longest_cap(COLLINEAR5)) == 2
        # every pair is a maximum chain; the lexmin witness is the first pair
        assert longest_cup(COLLINEAR5).members == COLLINEAR5[:2]
        assert longest_cap(COLLINEAR5).members == COLLINEAR5[:2]

    def test_cap_mirror(self):
        w = longest_cap(PointSet.of([(i, -i * i) for i in range(5)]))
        assert w.kind is WitnessKind.CAP and len(w) == 5

    def test_parabola_cap_is_pair(self):
        assert len(longest_cap(PARABOLA5)) == 2

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            longest_cup(PointSet.of([(0, 0)]))

    def test_requires_distinct_x(self):
        with pytest.raises(ValueError):
            longest_cup(PointSet.of([(0, 0), (0, 1), (1, 0)]))
        # the message names the first equal-x pair in (x, y) order
        with pytest.raises(ValueError, match=re.escape(
                "x-coordinates are not pairwise distinct (Point(1, 2), "
                "Point(1, 7)); normalize with shear_distinct_x first")):
            longest_cup(PointSet.of([(3, 5), (1, 7), (3, 1), (1, 2)]))

    def test_lexicographic_tie_break(self):
        # several 3-cups but no 4-cup; the witness must take the earliest
        # x-order indices (0, 1, 3) rather than (0, 2, 3) or (1, 2, 3)
        ps = PointSet.of([(0, 0), (1, 3), (2, 4), (3, 12)])
        w = longest_cup(ps)
        assert list(w.members) == [pt(0, 0), pt(1, 3), pt(3, 12)]

    def test_witnesses_reverify(self):
        rng = random.Random(11)
        for _ in range(25):
            ps = random_point_set(rng, 9, span=40)
            assert is_cup(list(longest_cup(ps).members))
            assert is_cap(list(longest_cap(ps).members))

    def test_oracle_equivalence_small(self):
        rng = random.Random(23)
        for _ in range(40):
            ps = random_point_set(rng, rng.randrange(4, 11), span=25)
            assert len(longest_cup(ps)) == oracles.brute_longest_cup(list(ps))
            assert len(longest_cap(ps)) == oracles.brute_longest_cap(list(ps))

    def test_big_integer_tables_match_numpy(self):
        # positive axis scalings and translations keep every turn, so the
        # pure-Python tables on ~2**90 coordinates equal the int64 tables
        rng = random.Random(13)
        for _ in range(4):
            ps = random_point_set(rng, 30)
            coords = int_coords(sorted(ps, key=lambda p: p.x))
            sx, sy = (rng.randrange(1 << 69, 1 << 70) for _ in "xy")
            tx, ty = (rng.randrange(-(1 << 90), 1 << 90) for _ in "xy")
            big = [(x * sx + tx, y * sy + ty) for x, y in coords]
            Xb, Yb, _ = _label_tables_python(big)
            Xn, Yn, _ = _label_tables_numpy(coords)
            assert Xb == Xn and Yb == Yn

    def test_numpy_and_python_tables_agree(self):
        rng = random.Random(3)
        for _ in range(10):
            ps = random_point_set(rng, 30, span=100)
            coords = int_coords(sorted(ps, key=lambda p: p.x))
            assert _label_tables_python(coords) == _label_tables_numpy(coords)

    def test_float_slope_tie_decided_exactly(self):
        # the slopes a/b into (A, A) and c/d out of it round to one float64
        # but differ, b*c - a*d == 1, so the triple turns left; the int64
        # kernel must decide it by the exact cross product.  The padding
        # lies to the right, so (A, A) has this one predecessor.
        A, b = 1 << 29, (1 << 28) + 3
        a, c, d = b - 1, b, b + 1
        assert a / b == c / d and b * c - a * d == 1
        rng = random.Random(17)
        pad = [(x, rng.randrange(1 << 30))
               for x in rng.sample(range(A + d + 1, 1 << 30), 40)]
        coords = sorted([(A - b, A - a), (A, A), (A + d, A + c)] + pad)
        X, Y, _ = _label_tables_numpy(coords)
        assert (X[1][2], Y[1][2]) == (2, 1)
        assert (X, Y) == _label_tables_python(coords)[:2]

    def test_both_builders_return_packed_rows(self):
        # a table is a list of rows; a row is a bytearray, one byte a
        # label, or an array('H') exactly when it holds a label of 256 or
        # more.  On the 300-point convex chain cup labels reach 299.
        cloud = int_coords(sorted(random_point_set(random.Random(5), 40),
                                  key=lambda p: p.x))
        chain = [(k << 20, k * k) for k in range(300)]
        wide = 0
        for coords in (cloud, chain):
            n = len(coords)
            for build in (_label_tables_python, _label_tables_numpy):
                for table in build(coords)[:2]:
                    assert type(table) is list and len(table) == n
                    for row in table:
                        assert len(row) == n and min(row) >= 1
                        if max(row) < 256:
                            assert type(row) is bytearray
                        else:
                            assert type(row) is array and row.typecode == "H"
                            wide += 1
        # rows 255-298 of the chain's cup table (row i holds label i + 1),
        # from both builders
        assert wide == 2 * 44


class TestMaxCollinear:
    def test_grid(self):
        grid = PointSet.of([(x, y) for x in range(3) for y in range(3)])
        assert len(max_collinear(grid)) == 3

    def test_diagonal_run(self):
        w = max_collinear(PointSet.of([(0, 0), (1, 1), (2, 2), (3, 3), (0, 1)]))
        assert len(w) == 4
        assert is_collinear_run(list(w.members))

    def test_vertical_line(self):
        ps = PointSet.of([(0, i) for i in range(4)] + [(1, 0)])
        assert len(max_collinear(ps)) == 4

    def test_oracle_equivalence(self):
        rng = random.Random(7)
        for _ in range(40):
            ps = random_point_set(rng, rng.randrange(4, 11), span=8,
                                  distinct_x=False)
            assert len(max_collinear(ps)) == \
                oracles.brute_max_collinear(list(ps))

    @pytest.mark.parametrize("kind", ["grid", "vertical", "float_tie",
                                      "general"])
    def test_witness_kept_under_line_preserving_map(self, kind):
        # the one scan, on a set in the label tables' int64 range and on
        # its image under (x, y) -> (x, 2**40 * y + x), which keeps the
        # (x, y) order and every line and leaves that range; members map
        # back to give the same witness, tie-breaks included
        rng = random.Random(29)
        if kind == "grid":
            pts = [(x, y) for x in range(7) for y in range(7)]
        elif kind == "vertical":
            pts = [(x, y) for x in range(5)
                   for y in rng.sample(range(1 << 20), 8 + x)]
        elif kind == "float_tie":
            # from (1, 1), the slopes (b - 1)/b and b/(b + 1) to
            # (1 + b, b) and (2 + b, 1 + b) are equal as floats but not
            # exactly; (2, 5) -> (6, 13) is a run
            b = (1 << 28) + 3
            pts = [(1, 1), (1 + b, b), (2 + b, 1 + b), (2, 5), (4, 9), (6, 13)]
            pts += [(rng.randrange(1 << 29), rng.randrange(1 << 29))
                    for _ in range(40)]
        else:
            pts = [(p.x, p.y)
                   for p in random_general_position(rng, 40, span=1 << 29)]
        ps = PointSet.of(pts)
        assert len(ps) >= extremal._NUMPY_MIN_POINTS
        assert extremal._int64_safe(int_coords(list(ps)))
        image = {Point.of(p.x, p.y * 2**40 + p.x): p for p in ps}
        expected = [image[p] for p in
                    max_collinear(PointSet(image)).members]
        assert list(max_collinear(ps).members) == expected

    def test_general_position_sets_have_no_collinear_triple(self):
        # a small span makes a point between two others a likely draw
        rng = random.Random(5)
        for _ in range(40):
            ps = random_general_position(rng, 6, span=10)
            assert len(max_collinear(ps)) == 2


def reference_set(kind: str) -> list[tuple[int, int]]:
    """Integer coords in increasing x for the float-filter tests."""
    rng = random.Random(1997)
    if kind == "float_tie":
        # the slopes a/b into (A, A) and c/d out of it round to one float
        # but differ, b*c - a*d == 1, so the triple turns left.  The
        # padding lies to the right, so (A, A) has this one predecessor.
        A, b = 1 << 70, (1 << 68) + 3
        a, c, d = b - 1, b, b + 1
        assert a / b == c / d and b * c - a * d == 1
        pad = {A + d + 1 + rng.randrange(A): rng.randrange(A)
               for _ in range(25)}
        return sorted([(A - b, A - a), (A, A), (A + d, A + c),
                       *pad.items()])
    if kind == "grid":
        # a 6 x 6 grid under a linear map with coefficients of about
        # 2**70: exact collinear triples along every grid line
        s, t = rng.randrange(1 << 69, 1 << 70), rng.randrange(1 << 70)
        return sorted((x * s + y, y * t - x)
                      for x in range(6) for y in range(6))
    if kind == "runs":
        # five runs of four points, and noise, at 2**60; keyed by x
        pts = {}
        for _ in range(5):
            x, y = rng.randrange(1 << 60), rng.randrange(1 << 60)
            dx, dy = rng.randrange(1, 1 << 56), rng.randrange(-(1 << 56),
                                                           1 << 56)
            pts.update((x + k * dx, y + k * dy) for k in range(4))
        pts.update((rng.randrange(1 << 60), rng.randrange(1 << 60))
                   for _ in range(10))
        return sorted(pts.items())
    if kind == "wide":
        # 1100-bit slopes overflow a float, so every anchor takes exact
        # keys; one exact collinear triple
        ys = [rng.randrange(1 << 1100) for _ in range(30)]
        ys[2] = 2 * ys[1] - ys[0]
        return list(enumerate(ys))
    if kind in ("huge", "mixed"):
        # both axes near 2**1100, differences near 2**1090, so every slope
        # fits a float; a planted 5-point run
        base = 1 << 1100
        pts = {base + rng.randrange(1 << 1090): base + rng.randrange(1 << 1090)
               for _ in range(35)}
        x, y = base + rng.randrange(1 << 1090), base + rng.randrange(1 << 1090)
        dx, dy = rng.randrange(1, 1 << 1080), rng.randrange(-(1 << 1080),
                                                          1 << 1080)
        pts.update((x + k * dx, y + k * dy) for k in range(5))
        if kind == "mixed":
            # pairs with dx = 1 and dy >= 2**1024: the division overflows
            # at the pairs' members and fits a float at the other anchors
            for x in rng.sample(sorted(pts), 3):
                pts[x + 1] = pts[x] + (1 << 1030) + rng.randrange(1 << 1030)
        return sorted(pts.items())
    assert kind == "edge"
    # coordinates just below 2**1022, differences just below 2**1023: the
    # float path without overflow
    top = (1 << 1022) - 1
    return [(0, -top), (1, top), (2, 0), (3, top - 5), (4, -top + 3),
            (5, 7), (6, -7)]


class TestExactReferences:
    """The float-filtered pure-Python kernels give the all-exact
    references' tables and witnesses (oracles.exact_label_tables,
    oracles.exact_max_collinear)."""

    @pytest.mark.parametrize("kind", ["float_tie", "grid", "runs", "wide",
                                      "edge", "huge", "mixed"])
    def test_matches_reference(self, kind):
        coords = reference_set(kind)
        X, Y, _ = _label_tables_python(coords)
        assert (as_lists(X), as_lists(Y)) == oracles.exact_label_tables(coords)
        ps = PointSet.of(coords)
        assert list(max_collinear(ps).members) == \
            oracles.exact_max_collinear(ps)

    def test_float_tie_decided_exactly(self):
        X, Y, _ = _label_tables_python(reference_set("float_tie"))
        assert (X[1][2], Y[1][2]) == (2, 1)

    def test_guard_keeps_overflowing_sets_exact(self):
        # the slopes of "wide" differ exactly, so an anchor counts as tied
        # only because its division overflows, and is scanned exactly
        coords = reference_set("wide")
        (x0, y0), (x1, y1) = coords[:2]
        with pytest.raises(OverflowError):
            (y1 - y0) / (x1 - x0)
        assert extremal._float_slope_tied(coords, 0)
        assert len(max_collinear(PointSet.of(coords))) == 3

    def test_overflow_is_decided_per_anchor(self):
        # "huge" takes the float path at every anchor; in "mixed" some
        # anchors overflow and the others keep their float keys
        def overflows(coords, i):
            xi, yi = coords[i]
            try:
                [(y - yi) / (x - xi) for x, y in coords if x != xi]
            except OverflowError:
                return True
            return False

        huge, mixed = reference_set("huge"), reference_set("mixed")
        assert all(c >= 1 << 1100 for xy in huge for c in xy)
        assert not any(overflows(huge, i) for i in range(len(huge)))
        flags = [overflows(mixed, i) for i in range(len(mixed))]
        assert 0 < sum(flags) < len(flags)
        for coords in (huge, mixed):
            assert len(max_collinear(PointSet.of(coords))) == 5


class TestCollinearFlag:
    """The label tables' sweep decides whether three points are collinear,
    and the certificate and structure search scan for a run only then."""

    @staticmethod
    def sheared(pts, k):
        # (x, y) -> (k * x + y, y) keeps every line and, for k above the
        # y span, makes the x-coordinates distinct
        return PointSet.of([(k * x + y, y) for x, y in pts])

    def cases(self):
        rng = random.Random(61)
        sets = [random_point_set(rng, rng.randrange(3, 45),
                                 span=rng.choice([45, 60, 1 << 20]))
                for _ in range(40)]
        sets += [random_general_position(rng, rng.randrange(3, 45))
                 for _ in range(10)]
        for _ in range(20):
            span = rng.randrange(3, 8)
            grid = rng.sample([(x, y) for x in range(span)
                               for y in range(span)],
                              rng.randrange(3, span * span + 1))
            sets.append(self.sheared(grid, span))
        return sets

    def test_both_kernels_match_the_reference(self):
        seen = set()
        for ps in self.cases():
            coords = int_coords(sorted(ps, key=lambda p: p.x))
            expected = len(oracles.exact_max_collinear(ps)) >= 3
            seen.add(expected)
            assert _label_tables_python(coords)[2] is expected
            assert extremal._int64_safe(coords)
            assert _label_tables_numpy(coords)[2] is expected
        assert seen == {False, True}

    @pytest.mark.parametrize("kind", ["float_tie", "grid", "runs", "wide",
                                      "edge", "huge", "mixed"])
    def test_python_kernel_on_reference_sets(self, kind):
        coords = reference_set(kind)
        expected = len(oracles.exact_max_collinear(PointSet.of(coords))) >= 3
        assert _label_tables_python(coords)[2] is expected

    def test_numpy_kernel_on_a_float_tie(self):
        # equal float64 slopes into and out of (A, A), unequal exact ones;
        # then (A + 2d, A + 2c) makes an exact triple through (A + d, A + c)
        A, b = 1 << 29, (1 << 28) + 3
        a, c, d = b - 1, b, b + 1
        coords = [(A - b, A - a), (A, A), (A + d, A + c)]
        assert not _label_tables_numpy(coords)[2]
        assert _label_tables_numpy(coords + [(A + 2 * d, A + 2 * c)])[2]

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []

        def counted(ps):
            calls.append(len(ps))
            return max_collinear(ps)

        monkeypatch.setattr(extremal, "max_collinear", counted)
        monkeypatch.setattr(constructions, "max_collinear", counted)
        return calls

    def test_scan_runs_only_on_collinear_sets(self, scans):
        free = build_free_set(3, 5, 5)
        cert = verify_construction(free, ("x", 3, 5, 5))
        assert cert.passes and cert.max_collinear_points == 2
        rng = random.Random(8)
        for _ in range(5):
            assert find_structure(random_general_position(rng, 12),
                                  3, 9, 9) is None
        assert scans == []
        # a planted triple (0, 1) -> (2, 3) -> (4, 5)
        triple = PointSet.of([(0, 1), (2, 3), (4, 5), (1, 9), (3, -7)])
        cert = verify_construction(triple, ("x", 3, 5, 5))
        assert not cert.passes and cert.max_collinear_points == 3
        found = find_structure(triple, 3, 9, 9)
        assert found.kind is WitnessKind.COLLINEAR_RUN and len(found) == 3
        assert scans == [5, 5]


class TestPushForwardKernel:
    """``_label_tables_python`` against the all-exact sort-and-sweep
    (``oracles.exact_label_tables``) and its collinear flag against
    ``oracles.exact_max_collinear``, forward and reflected."""

    @staticmethod
    def check(coords):
        reflected = [(-x, y) for x, y in reversed(coords)]
        expected = len(oracles.exact_max_collinear(PointSet.of(coords))) >= 3
        for c in (coords, reflected):
            X, Y, collinear = _label_tables_python(c)
            assert (as_lists(X), as_lists(Y)) == oracles.exact_label_tables(c)
            assert collinear is expected
        return expected

    def test_small_grids(self):
        # spans 4-30 with up to span points: many collinear triples
        rng = random.Random(2201)
        seen = set()
        for _ in range(60):
            span = rng.randrange(4, 31)
            ps = random_point_set(rng, rng.randrange(3, min(span, 24) + 1),
                                  span=span)
            seen.add(self.check(int_coords(sorted(ps, key=lambda p: p.x))))
        assert seen == {False, True}

    def test_near_ties_at_2_80(self):
        # a small grid stretched by about 2**80 per axis and moved by at
        # most 3: neighbouring slopes share a float but differ exactly
        rng = random.Random(80)
        ties = 0
        for _ in range(40):
            s, t = (rng.randrange(1 << 80, 1 << 81) for _ in "st")
            pts = {x * s + rng.randrange(-3, 4): y * t + rng.randrange(-3, 4)
                   for x in rng.sample(range(-12, 12), rng.randrange(3, 16))
                   for y in [rng.randrange(-12, 12)]}
            coords = sorted(pts.items())
            slopes = [(y - y0) / (x - x0) for (x0, y0), (x, y)
                      in zip(coords, coords[1:])]
            ties += len(set(slopes)) < len(slopes)
            self.check(coords)
        assert ties

    def test_slopes_overflowing_both_ways(self):
        # dx of 1 to 3 under dy of about +-2**1030: quotients past the
        # float range, which the kernel takes as +inf and -inf
        rng = random.Random(1030)
        for _ in range(30):
            big = [rng.choice((-1, 1)) * rng.randrange(1 << 1030, 1 << 1031)
                   for _ in range(rng.randrange(2, 8))]
            ys = big + [rng.randrange(-9, 10) for _ in range(8)]
            rng.shuffle(ys)
            coords = [(2 * x + rng.randrange(2), y) for x, y in enumerate(ys)]
            self.check(coords)
        coords = [(0, 0), (1, 1 << 1030), (2, -(1 << 1030)), (3, 0)]
        for (x0, y0), (x1, y1) in ((coords[0], coords[1]),
                                   (coords[1], coords[2])):
            with pytest.raises(OverflowError):
                (y1 - y0) / (x1 - x0)
        assert extremal._slope(1 << 1030, 1) == float("inf")
        assert extremal._slope(-(1 << 1030), 1) == float("-inf")
        self.check(coords)

    def test_tie_path_on_x577(self, monkeypatch):
        # x:5,7,7 has collinear triples, so anchors take the exact
        # thresholds; their tables must still equal the reference's
        calls = []
        exact = extremal._exact_thresholds

        def counted(*args):
            calls.append(args[1])
            return exact(*args)

        monkeypatch.setattr(extremal, "_exact_thresholds", counted)
        coords = int_coords(sorted(build_free_set(5, 7, 7),
                                   key=lambda p: p.x))
        X, Y, collinear = _label_tables_python(coords)
        assert collinear and calls
        assert (as_lists(X), as_lists(Y)) == oracles.exact_label_tables(coords)

    def test_convex_parabola(self):
        # every earlier point extends the cup: labels reach n - 1
        n = 60
        coords = [(x << 40, x * x) for x in range(n)]
        X, Y, collinear = _label_tables_python(coords)
        assert X[n - 2][n - 1] == n - 1 and max(map(max, Y)) == 1
        assert not self.check(coords)


class TestMaxConvexSubset:
    def test_grid_is_six(self):
        # oracle-computed over all 2^9 subsets
        grid = PointSet.of([(x, y) for x in range(3) for y in range(3)])
        w = max_convex_subset(grid)
        assert len(w) == 6
        assert is_convex_position(w.members)

    def test_parabola_all(self):
        ps = PointSet.of([(i, i * i) for i in range(7)])
        assert len(max_convex_subset(ps)) == 7

    def test_collinear_two(self):
        assert len(max_convex_subset(COLLINEAR5)) == 2

    def test_requires_three(self):
        with pytest.raises(ValueError):
            max_convex_subset(PointSet.of([(0, 0), (1, 1)]))

    def test_over_limit_refused_before_edge_sort(self, monkeypatch):
        def unreached(coords):
            raise AssertionError("edges sorted for an over-limit set")

        monkeypatch.setattr(extremal, "_edges_by_angle", unreached)
        n = extremal._MAX_CONVEX_POINTS + 1
        with pytest.raises(ValueError, match=f"{n} points exceed"):
            max_convex_subset(PointSet.of([(i, i * i) for i in range(n)]))

    def test_oracle_equivalence(self):
        rng = random.Random(31)
        cases = [random_point_set(rng, rng.randrange(4, 11), span=12,
                                  distinct_x=False) for _ in range(25)]
        # dense grids: runs of parallel edges and collinear triples
        for _ in range(20):
            span = rng.randrange(3, 6)
            cases.append(random_point_set(
                rng, rng.randrange(4, min(span * span, 11) + 1), span=span,
                distinct_x=False))
        # the same kind of sets with coordinates of about 2**90
        for _ in range(15):
            base = random_point_set(rng, rng.randrange(4, 11),
                                    span=rng.choice([4, 12]),
                                    distinct_x=False)
            s, t = rng.randrange(1 << 89, 1 << 90), rng.randrange(1 << 90)
            cases.append(PointSet.of([(p.x * s + t, p.y * s - t)
                                      for p in base]))
        # larger dense grids, within reach of the level-wise oracle
        for _ in range(12):
            cases.append(random_point_set(rng, rng.randrange(12, 15),
                                          span=rng.choice([4, 5]),
                                          distinct_x=False))
        for ps in cases:
            got = max_convex_subset(ps)
            assert is_convex_position(got.members)
            assert len(got) == oracles.brute_max_convex_subset(list(ps))

    def test_all_anchors_match_the_sequential_sweep(self):
        # the bit-parallel sizes equal each anchor's own sweep, on random
        # sets, dense grids (parallel edges, collinear runs) and es:3,9
        rng = random.Random(1980)
        cases = [build_convex_free(3, 9)]
        for _ in range(60):
            span = rng.choice([3, 4, 5, 6, 20, 1 << 20])
            cases.append(random_point_set(
                rng, rng.randrange(3, min(span * span, 30) + 1), span=span,
                distinct_x=False))
        for ps in cases:
            coords = int_coords(sorted(ps, key=lambda p: (p.y, p.x)))
            n = len(coords)
            edges = extremal._edges_by_angle(coords)
            assert extremal._anchor_sizes(edges, n) == [
                extremal._anchor_sweep(edges, a, n) for a in range(n)]

    def test_levelwise_oracle_matches_plain_enumeration(self):
        rng = random.Random(5)
        for _ in range(40):
            span = rng.choice([3, 4, 5, 12])
            pts = list(random_point_set(
                rng, rng.randrange(3, min(span * span, 9) + 1), span=span,
                distinct_x=False))
            assert oracles.brute_max_convex_subset(pts) == \
                oracles._max_subset(pts, oracles.convex_position)

    def test_witness_members_pinned(self):
        # the witnesses of the anchor DP before the edge sweep took over
        # the sizes: the tie-break must not move
        grid = PointSet.of([(x, y) for x in range(3) for y in range(3)])
        assert max_convex_subset(grid).members == PointSet.of(
            [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)])
        w = max_convex_subset(build_convex_free(3, 7))
        assert w.members == PointSet.of([
            (1179235932, 4505875046400), (1193950996, 4510182355848),
            (1199469145, 4510253566247), (1208666060, 4510256456706),
            (1422975480, 1043192930), (1428230860, 0)])
        # a seeded batch: spans 3-6, 20 and 2**70, dense grids of up to 30
        # points, and a quarter of the sets under a per-axis map with
        # rationals of about 2**90
        rng = random.Random(1980)
        digest = hashlib.sha256()
        for k in range(200):
            if k % 5 == 4:
                span = rng.randrange(4, 7)
                n = rng.randrange(12, min(span * span, 30) + 1)
            else:
                span = rng.choice([3, 4, 5, 6, 20, 1 << 70])
                n = rng.randrange(3, min(span * span, 25) + 1)
            ps = random_point_set(rng, n, span=span, distinct_x=False)
            if k % 4 == 3:
                sx, sy, tx, ty = (Fraction(rng.randrange(1, 1 << 90),
                                           rng.randrange(1, 1 << 90))
                                  for _ in range(4))
                ps = PointSet.of([(p.x * sx + tx, p.y * sy - ty)
                                  for p in ps])
            members = max_convex_subset(ps).members
            digest.update(";".join(f"{p.x},{p.y}" for p in members).encode()
                          + b"\n")
        assert digest.hexdigest() == (
            "637b492581e91747c205b80d4a89c2dab4cdfdc58d316ea7d2074a1b5de89f2a")


class TestPairLabels:
    def test_cap_triple(self):
        labs = pair_labels(PointSet.of([(0, 0), (1, 1), (2, 0)]))
        assert labs[(pt(1, 1), pt(2, 0))] == PairLabel(1, 2)

    def test_collinear_extends_nothing(self):
        labs = pair_labels(PointSet.of([(0, 0), (1, 0), (2, 0)]))
        assert labs[(pt(1, 0), pt(2, 0))] == PairLabel(1, 1)

    def test_full_cup_chain(self):
        labs = pair_labels(PointSet.of([(i, i * i) for i in range(4)]))
        assert labs[(pt(2, 4), pt(3, 9))] == PairLabel(3, 1)

    def test_all_labels_at_least_one(self):
        rng = random.Random(2)
        ps = random_point_set(rng, 12, span=50)
        assert all(l.x_label >= 1 and l.y_label >= 1
                   for l in pair_labels(ps).values())

    def test_oracle_equivalence(self):
        rng = random.Random(17)
        for _ in range(10):
            ps = random_point_set(rng, 7, span=12)
            labs = pair_labels(ps)
            pts = sorted(ps, key=lambda p: p.x)
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    exp = oracles.brute_pair_label(list(ps), pts[i], pts[j])
                    assert labs[(pts[i], pts[j])] == PairLabel(*exp)

    def test_label_monotonicity_on_cups(self):
        # if (p, q, r) is a cup then x(q, r) >= x(p, q) + 1, mirrored for caps
        rng = random.Random(41)
        for _ in range(20):
            ps = random_point_set(rng, 9, span=30)
            labs = pair_labels(ps)
            pts = sorted(ps, key=lambda p: p.x)
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    for k in range(j + 1, len(pts)):
                        p, q, r = pts[i], pts[j], pts[k]
                        if is_cup([p, q, r]):
                            assert labs[(q, r)].x_label >= labs[(p, q)].x_label + 1
                        if is_cap([p, q, r]):
                            assert labs[(q, r)].y_label >= labs[(p, q)].y_label + 1


class TestDownSets:
    def test_leftmost_empty(self):
        ps = PointSet.of([(0, 0), (1, 1), (2, 0)])
        assert downset_of(ps, pt(0, 0), 2, 2) == DownSet.empty(2, 2)

    def test_cap_pair_profile(self):
        ps = PointSet.of([(0, 0), (1, 1), (2, 0)])
        assert downset_of(ps, pt(2, 0), 2, 2).profile == (2, 0)

    def test_collinear_profile(self):
        ps = PointSet.of([(i, i) for i in range(4)])
        assert downset_of(ps, pt(3, 3), 2, 2).profile == (1, 0)

    def test_label_outside_grid_fails(self):
        ps = PointSet.of([(i, i * i) for i in range(5)])
        with pytest.raises(ValueError):
            downset_of(ps, pt(4, 16), 2, 2)

    def test_missing_point_fails(self):
        ps = PointSet.of([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            downset_of(ps, pt(9, 9), 2, 2)

    def test_empty_and_single_point_sets(self):
        p = pt(3, 4)
        for ps in (PointSet([]), PointSet([p])):
            assert pair_labels(ps) == {}
        assert downsets_by_point(PointSet([]), 2, 2) == {}
        assert downsets_by_point(PointSet([p]), 2, 2) == {
            p: DownSet.empty(2, 2)}

    def test_bulk_matches_single(self):
        rng = random.Random(9)
        ps = random_point_set(rng, 10, span=40)
        all_ds = downsets_by_point(ps, 8, 8)
        for q in ps:
            assert all_ds[q] == downset_of(ps, q, 8, 8)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            DownSet(2, 2, (1, 2))  # increasing
        with pytest.raises(ValueError):
            DownSet(2, 2, (3, 0))  # above b

    def test_membership_consistent_with_closure(self):
        d = DownSet.generated_by(3, 4, [(2, 3), (1, 4)])
        assert d.profile == (4, 3, 0)
        assert d.contains(1, 4) and d.contains(2, 1) and not d.contains(3, 1)
        assert d.size() == 7


class TestDownsetEnumeration:
    def test_spec_counts(self):
        assert count_downsets(2, 2) == 6
        assert count_downsets(0, 5) == 1
        assert len(enumerate_downsets(1, 1)) == 2
        assert len(enumerate_downsets(0, 0)) == 1
        assert len(enumerate_downsets(2, 2)) == 6
        assert len(enumerate_downsets(3, 4)) == 35 == count_downsets(3, 4)

    @given(st.integers(0, 5), st.integers(0, 5))
    def test_count_matches_enumeration_and_independent_recursion(self, a, b):
        ds = enumerate_downsets(a, b)
        assert len(ds) == len(set(ds)) == count_downsets(a, b)
        assert count_downsets(a, b) == oracles.brute_count_downsets(a, b)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            enumerate_downsets(30, 30)

    def test_matches_recursive_reference_in_order(self):
        for a in range(7):
            for b in range(7):
                assert ([d.profile for d in enumerate_downsets(a, b)]
                        == oracles.ref_enumerate_downsets(a, b)), (a, b)


class TestFindStructure:
    def test_collinear_preferred(self):
        found = find_structure(COLLINEAR5, 5, 3, 3)
        assert found is not None
        assert found.kind is WitnessKind.COLLINEAR_RUN and len(found) == 5

    def test_vertical_collinear_without_distinct_x(self):
        ps = PointSet.of([(0, i) for i in range(5)])
        found = find_structure(ps, 5, 3, 3)
        assert found is not None and len(found) == 5

    def test_general_position_seven_points(self):
        rng = random.Random(77)
        for _ in range(25):
            ps = random_general_position(rng, 7)
            found = find_structure(ps, 3, 4, 4)
            assert found is not None
            assert found.kind in (WitnessKind.CUP, WitnessKind.CAP)
            assert len(found) == 4

    def test_witness_sizes_exact(self):
        ps = PointSet.of([(i, i * i) for i in range(6)])
        found = find_structure(ps, 3, 4, 4)
        assert found is not None and found.kind is WitnessKind.CUP
        assert len(found) == 4
        assert is_cup(list(found.members))

    def test_none_when_nothing(self):
        ps = PointSet.of([(0, 0), (1, 1), (2, 0)])
        assert find_structure(ps, 3, 4, 4) is None

    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            find_structure(COLLINEAR5, 2, 4, 4)


class TestDetectionTables:
    """The two-entry table memo serves every reuse, which is of one set."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = extremal._label_tables

        def counted(coords):
            calls.append(len(coords))
            return build(coords)

        monkeypatch.setattr(extremal, "_label_tables", counted)
        extremal._detection_tables.cache_clear()
        return calls

    def test_certificate_builds_once(self, builds):
        ps = build_free_set(3, 5, 5)
        assert verify_construction(ps, ("x", 3, 5, 5)).passes
        assert len(builds) == 1

    @pytest.mark.parametrize("search, expected", [(True, 2), (False, 1)])
    def test_cli_analyze_builds(self, tmp_path, builds, search, expected):
        pts, rep = tmp_path / "x.pts", tmp_path / "r.json"
        save_file(build_free_set(3, 5, 5), str(pts))
        argv = ["analyze", "--in", str(pts), "--report", str(rep)]
        if search:
            argv += ["--l", "3", "--m", "5", "--n", "5"]
        assert main(argv) == 0
        assert len(builds) == expected

    def test_memo_keeps_two_entries(self, builds):
        rng = random.Random(13)
        for _ in range(10):
            find_structure(random_general_position(rng, 8), 9, 9, 9)
        assert len(builds) == 10
        assert extremal._detection_tables.cache_info().currsize == 2

    def test_over_limit_refused_before_building(self, builds):
        n = extremal._MAX_TABLE_POINTS + 1
        ps = PointSet.of([(i, i * i) for i in range(n)])
        with pytest.raises(ValueError, match=f"{n} points exceed"):
            longest_cup(ps)
        assert builds == []
