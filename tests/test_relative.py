import hashlib
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cupcap import (AvoidanceError, ConvexBody, OrderViolation, Point,
                    PointSet, SeparationError, TripleKind, cell_profile,
                    check_selection_tuples, classify_triple, conv_order,
                    dilworth, find_fat_cap, hulls_strictly_disjoint,
                    is_convex_position, longest_inner_cap, longest_outer_cup,
                    populate_support, radial_order, support_regions,
                    transversal_check)
from cupcap.geom import (convex_hull, cross_sign, int_coords, int_cross,
                         int_hull, point_in_convex_hull)
from cupcap import relative
from cupcap.relative import (_line_misses, _radial, _relative_chains,
                             _strict_radial)

import oracles
from conftest import random_point_set


def pt(x, y):
    return Point.of(x, y)


CAP4 = PointSet.of([(0, 0), (2, 3), (5, 3), (7, 0)])
BODY_KINDS = ["point", "segment", "polygon"]


def random_polygon(rng, cy):
    """A random convex polygon body of 3 to 5 vertices around (0, cy), or
    None when the drawn corners span fewer than 3 hull vertices."""
    corners = [pt(rng.randrange(-8, 9), cy + rng.randrange(-4, 5))
               for _ in range(rng.randrange(3, 6))]
    if len(convex_hull(corners)) < 3:
        return None
    return ConvexBody.polygon(corners)


def make_valid_instance(rng, n, body_kind="point"):
    """Random instance satisfying separation and avoidance, or None."""
    if body_kind == "point":
        body = ConvexBody.point(pt(rng.randrange(-5, 6), rng.randrange(-30, -10)))
    elif body_kind == "segment":
        x1 = rng.randrange(-12, -1)
        x2 = rng.randrange(1, 12)
        y = rng.randrange(-25, -10)
        body = ConvexBody.segment(pt(x1, y), pt(x2, y))
    else:
        body = random_polygon(rng, rng.randrange(-25, -14))
        if body is None:
            return None, None
    pts = set()
    while len(pts) < n:
        pts.add((rng.randrange(-25, 26), rng.randrange(2, 30)))
    ps = PointSet.of(sorted(pts))
    try:
        radial_order(ps, body)
    except ValueError:
        return None, None
    return ps, body


def make_separated_instance(rng, n, body_kind):
    """Random instance in the shape of ``cell_profile``'s calls: separated
    from the body, with lines through pairs free to meet it; or None."""
    if body_kind == "point":
        body = ConvexBody.point(pt(rng.choice((-20, 20)), rng.randrange(-3, 1)))
    elif body_kind == "segment":
        body = ConvexBody.segment(pt(-10, 0), pt(10, 0))
    else:
        body = random_polygon(rng, -3)
        if body is None:
            return None, None
    pts = set()
    while len(pts) < n:
        pts.add((rng.randrange(-9, 10), rng.randrange(1, 25)))
    ps = PointSet.of(sorted(pts))
    try:
        _radial(ps, body)
    except SeparationError:
        return None, None
    return ps, body


def lattice_instance(rng, n, kind, span, small):
    """n lattice points of span ``span`` above the x-axis (so lines through
    them hold several), and a body of the given kind strictly below them:
    a large one on the integer grid, or a small one at a generic rational
    position, which most lines through the points miss; or None."""
    g = min(span, 8)
    step = span // g
    pts = set()
    while len(pts) < n:
        pts.add((rng.randrange(-g, g + 1) * step,
                 rng.randrange(1, g + 1) * step))
    if small:
        q, w = 1009, max(1, step * 1009 // 4)
        x0, y0 = rng.randrange(-span * q, span * q), -2 * span * q
        wx, wy = w, w
    else:
        q, x0, y0, wx, wy = 1, -span, -span, 2 * span + 1, span
    corners = [pt(Fraction(x0 + rng.randrange(wx), q),
                  Fraction(y0 + rng.randrange(wy), q))
               for _ in range({"point": 1, "segment": 2}.get(kind, 5))]
    if kind == "polygon":
        if len(convex_hull(corners)) < 3:
            return None, None
        return PointSet.of(sorted(pts)), ConvexBody.polygon(corners)
    if len(set(corners)) < len(corners):
        return None, None
    return PointSet.of(sorted(pts)), ConvexBody(tuple(corners))


def relaxed_order(ps, body):
    """The radial order that needs only separation, as points."""
    return [ps[i] for i in _radial(ps, body)[0]]


def relaxed_chains(pts, body, pair_ok):
    """The relaxed inner-cap and outer-cup chains on ``pts``, over the
    mutually separable pairs that pass a pair filter on points, as
    points."""
    order, c, verts = _radial(pts, body)
    inner, outer, _, _ = _relative_chains(
        order, c, lambda i, j: pair_ok(pts[i], pts[j])
        and _line_misses(c[i], c[j], verts))
    return [pts[i] for i in inner], [pts[i] for i in outer]


def relaxed_chain(pts, body, pair_ok):
    """The relaxed inner-cap chain, as points."""
    return relaxed_chains(pts, body, pair_ok)[0]


def mutually_separable(p, q, body):
    """The hull definition: neither point lies in the hull of the body with
    the other."""
    return (not point_in_convex_hull(p, [q, *body.vertices])
            and not point_in_convex_hull(q, [p, *body.vertices]))


def turn_kind(a, b, c):
    """The chain DP's reading of a radially ordered triple's turn."""
    return {-1: TripleKind.INNER_CAP, 0: TripleKind.COLLINEAR,
            1: TripleKind.OUTER_CUP}[cross_sign(a, b, c)]


small_pair = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
big_frac = st.builds(Fraction, st.integers(-2**100, 2**100),
                     st.integers(1, 2**100))
positive_frac = st.builds(Fraction, st.integers(1, 2**100),
                          st.integers(1, 2**100))


@st.composite
def hull_pairs(draw):
    """Two lists of 1 to 4 points (points, segments, polygons): generic
    rationals up to 2**100, or small integer pairs under a per-axis map with
    such rationals, with a shared vertex, a point on a segment between two
    points of the first list, or collinear segments that overlap, touch or
    miss."""
    kind = draw(st.sampled_from(
        ["generic", "small", "shared", "on_edge", "collinear"]))
    if kind == "generic":
        pts = st.lists(st.builds(Point, big_frac, big_frac),
                       min_size=1, max_size=4)
        return draw(pts), draw(pts)
    a = draw(st.lists(small_pair, min_size=1, max_size=4))
    b = draw(st.lists(small_pair, min_size=1, max_size=4))
    if kind == "shared":
        b.append(draw(st.sampled_from(a)))
    elif kind == "on_edge":
        (ux, uy), (wx, wy) = draw(st.sampled_from(a)), draw(st.sampled_from(a))
        t = draw(st.fractions(0, 1, max_denominator=5))
        b.append((ux + t * (wx - ux), uy + t * (wy - uy)))
    elif kind == "collinear":
        (ox, oy), (dx, dy) = draw(small_pair), draw(small_pair)
        s = [draw(st.integers(-4, 4)) for _ in range(4)]
        ends = [(ox + k * dx, oy + k * dy) for k in s]
        a, b = ends[:2], ends[2:]
    sx, sy = draw(positive_frac), draw(positive_frac)
    tx, ty = draw(big_frac), draw(big_frac)

    def image(pairs):
        return [Point(sx * x + tx, sy * y + ty) for x, y in pairs]

    return image(a), image(b)


@st.composite
def chain_with_probes(draw, big):
    """A 4- to 6-point cup or cap in shuffled order, probes spread around it
    and probes on its edge lines.  Big: coordinates up to about 2**100 with
    denominators up to 2**10; else small enough that the normalised
    coordinates stay below 2**30."""
    lim = 1 << 100 if big else 32
    k = draw(st.integers(4, 6))
    xs = sorted(draw(st.sets(st.integers(-lim, lim), min_size=k, max_size=k)))
    slopes = sorted(draw(st.sets(st.integers(-lim // 4, lim // 4),
                                 min_size=k - 1, max_size=k - 1)))
    s = draw(st.sampled_from([1, -1]))
    ys = [draw(st.integers(-lim, lim))]
    for i in range(k - 1):
        ys.append(ys[-1] + s * slopes[i] * (xs[i + 1] - xs[i]))
    chain = [Point.of(x, y) for x, y in zip(xs, ys)]
    den = 1 << 10 if big else 4
    along_t = st.fractions(-1, 2, max_denominator=den)
    off_u = st.fractions(-1, 1, max_denominator=den)

    def along(a, b, t):
        return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))

    on_lines = [along(chain[i], chain[(i + 1) % k], draw(along_t))
                for i in range(k)]
    probes = []
    for _ in range(draw(st.integers(1, 12))):
        # from a point on edge line i, away from (< 0) or towards a vertex
        # off that line
        i = draw(st.integers(0, k - 1))
        on_line = along(chain[i], chain[(i + 1) % k], draw(along_t))
        probes.append(along(on_line, chain[(i + 2) % k], draw(off_u)))
    return draw(st.permutations(chain)), probes, on_lines


class TestConvexBody:
    @pytest.mark.parametrize("make,message", [
        (lambda: ConvexBody(()), "at least one point"),
        (lambda: ConvexBody((pt(0, 0), pt(1, 1), pt(2, 2))),
         "strict convex position"),
        (lambda: ConvexBody.segment(pt(1, 1), pt(1, 1)),
         "endpoints must differ"),
    ], ids=["empty", "collinear_polygon", "degenerate_segment"])
    def test_degenerate_body_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestSupportRegions:
    def test_four_regions_and_probe(self):
        regs = support_regions(CAP4)
        assert len(regs) == 4
        assert [r.index for r in regs] == [0, 1, 2, 3]
        probe = pt("7/2", "7/2")
        assert [r.index for r in regs if r.contains(probe)] == [1]

    def test_own_points_in_no_region(self):
        regs = support_regions(CAP4)
        for p in CAP4:
            assert not any(r.contains(p) for r in regs)

    def test_three_points_rejected(self):
        with pytest.raises(ValueError):
            support_regions(PointSet.of([(0, 0), (1, 1), (2, 0)]))

    def test_non_cup_cap_rejected(self):
        with pytest.raises(ValueError):
            support_regions(PointSet.of([(0, 0), (1, 5), (2, 0), (3, 5)]))

    def test_cup_regions_mirror(self):
        cup = PointSet.of([(0, 3), (2, 0), (5, 0), (7, 3)])
        regs = support_regions(cup)
        assert len(regs) == 4
        assert [r.index for r in regs if r.contains(pt("7/2", "-1/2"))] == [1]

    def test_regions_pairwise_disjoint_sampled(self):
        rng = random.Random(12)
        for _ in range(10):
            xs = sorted(rng.sample(range(0, 40), 5))
            slopes = sorted((rng.randrange(-15, 15) for _ in range(4)),
                            reverse=True)
            if len(set(slopes)) < 4:
                continue
            ys = [0]
            for i in range(4):
                ys.append(ys[-1] + slopes[i] * (xs[i + 1] - xs[i]))
            cap = PointSet.of(list(zip(xs, ys)))
            from cupcap.extremal import is_cap
            if not is_cap(list(cap)):
                continue
            regs = support_regions(cap)
            for _ in range(300):
                p = pt(rng.randrange(-30, 70), rng.randrange(-500, 500))
                hits = [r.index for r in regs if r.contains(p)]
                assert len(hits) <= 1


class TestPopulate:
    def test_all_zero_for_own_points(self):
        occ = populate_support(CAP4, CAP4)
        assert occ.counts == (0, 0, 0, 0)

    def test_single_probe(self):
        withp = PointSet(list(CAP4.points) + [pt("7/2", "7/2")])
        occ = populate_support(withp, CAP4)
        assert occ.counts == (0, 1, 0, 0)
        assert occ.members[1] == (pt("7/2", "7/2"),)

    def test_counts_sum_bounded(self):
        rng = random.Random(3)
        ps = random_point_set(rng, 300)
        cap, _ = find_fat_cap(ps, 4, seed=1, budget=20)
        occ = populate_support(ps, cap)
        assert sum(occ.counts) <= len(ps)

    @pytest.mark.parametrize("big", [False, True])
    @given(data=st.data())
    def test_matches_fraction_regions(self, big, data):
        """The integer turn-sign regions equal the Fraction half-plane
        regions, on small and on big (about 2**100) coordinates; a point on
        an edge line lies in no region."""
        chain, probes, on_lines = data.draw(chain_with_probes(big))
        p = PointSet(dict.fromkeys(probes + on_lines))
        x = PointSet(chain)
        occ = populate_support(p, x)
        assert occ.members == tuple(tuple(q for q in p if r.contains(q))
                                    for r in support_regions(x))
        assert not set(on_lines) & {q for m in occ.members for q in m}

    def test_29_bit_cloud_matches_fraction_regions(self):
        """A 29-bit cloud gives the members of the Fraction regions."""
        ps = random_point_set(random.Random(29), 300, span=1 << 29)
        for k in (4, 5):
            cap, _ = find_fat_cap(ps, k, seed=k, budget=20)
            occ = populate_support(ps, cap)
            assert occ.members == tuple(tuple(q for q in ps if r.contains(q))
                                        for r in support_regions(cap))
            assert min(occ.counts[:k - 1]) >= 1


class TestFindFatCap:
    def test_deterministic(self):
        rng = random.Random(8)
        ps = random_point_set(rng, 400)
        a = find_fat_cap(ps, 4, seed=5, budget=40)
        b = find_fat_cap(ps, 4, seed=5, budget=40)
        assert a == b

    def test_occupancy_positive_on_dense_cloud(self):
        rng = random.Random(9)
        ps = random_point_set(rng, 500)
        cap, occ = find_fat_cap(ps, 4, seed=2, budget=40)
        assert occ >= 1
        assert len(cap) == 4

    @pytest.mark.parametrize("k", [4, 5])
    def test_big_coordinates(self, k):
        """On 70-bit coordinates the occupancy is the Fraction regions'
        minimum count, and transversals hold."""
        ps = random_point_set(random.Random(70 + k), 300, span=1 << 70)
        cap, occ = find_fat_cap(ps, k, seed=k, budget=30)
        regs = support_regions(cap)
        assert occ == min(sum(r.contains(q) for q in ps) for r in regs[:k - 1])
        assert occ >= 1
        rep = transversal_check(ps, cap, sample_budget=2000, seed=k)
        assert rep.violations == 0, rep.counterexample

    def test_exact_cap_input(self):
        cap5 = PointSet.of([(i, -(i - 2) ** 2) for i in range(5)])
        found, occ = find_fat_cap(cap5, 5, seed=0, budget=10)
        assert found == cap5 and occ == 0

    def test_all_collinear_fails(self):
        with pytest.raises(ValueError):
            find_fat_cap(PointSet.of([(i, i) for i in range(8)]), 4,
                         seed=0, budget=5)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            find_fat_cap(CAP4, 3, seed=0, budget=5)

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValueError, match="search budget must be at least 1"):
            find_fat_cap(CAP4, 4, seed=0, budget=0)

    def test_whole_set_is_sampled_once(self, monkeypatch):
        # 12 points and k = 4 make every sample the whole set, so a huge
        # budget still tests at most its C(12, 4) = 495 subsets
        calls = 0
        chain_sign = relative._chain_sign

        def counting_sign(*args):
            nonlocal calls
            calls += 1
            assert calls <= 495, "the whole set was sampled again"
            return chain_sign(*args)

        monkeypatch.setattr(relative, "_chain_sign", counting_sign)
        with pytest.raises(ValueError, match="no 4-cup or 4-cap"):
            find_fat_cap(PointSet.of([(i, i) for i in range(12)]), 4,
                         seed=0, budget=10**7)

    def test_whole_set_chains_scored_once(self, monkeypatch):
        # on a parabola every one of the C(12, 4) = 495 subsets is a 4-cup,
        # and a huge budget scores each exactly once
        scored = []
        support_masks = relative._support_masks

        def counting_masks(combo, *args):
            scored.append(combo)
            return support_masks(combo, *args)

        monkeypatch.setattr(relative, "_support_masks", counting_masks)
        find_fat_cap(PointSet.of([(i, i * i) for i in range(12)]), 4,
                     seed=0, budget=10**7)
        assert len(scored) == len(set(scored)) == 495

    def test_sample_without_chain_is_skipped(self, monkeypatch):
        """A sample whose label tables hold no (k-1)-edge label is never
        enumerated: no 12-chain in a 2000-point 20-bit cloud costs no
        ``_chain_sign`` call."""
        rng = random.Random(2000)
        pts = {}
        while len(pts) < 2000:
            pts.setdefault(rng.getrandbits(20), rng.getrandbits(20))

        def chain_sign(*args):
            raise AssertionError("a sample without a 12-chain was enumerated")

        monkeypatch.setattr(relative, "_chain_sign", chain_sign)
        with pytest.raises(ValueError, match="no 12-cup or 12-cap"):
            find_fat_cap(PointSet.of(pts.items()), 12, seed=0, budget=1)

    def test_outputs_pinned(self):
        """A sha256 over ``find_fat_cap``'s results and the members of each
        found chain's support regions, on seeded 20-, 29- and 70-bit sets,
        k = 4, 5, 6 and budgets 20 and 200.  At k = 4, budget 200 spans
        two samples.  This pins which chain wins and every region member
        at every coordinate size."""
        digest = hashlib.sha256()

        def pin(points):
            digest.update(";".join(f"{p.x},{p.y}" for p in points).encode()
                          + b"\n")

        for bits in (20, 29, 70):
            ps = random_point_set(random.Random(bits), 150, span=1 << bits)
            for k, budget in product((4, 5, 6), (20, 200)):
                cap, occ = find_fat_cap(ps, k, seed=bits + k, budget=budget)
                digest.update(f"{occ}\n".encode())
                pin(cap)
                for members in populate_support(ps, cap).members:
                    pin(members)
        assert digest.hexdigest() == (
            "1c91cc26072fa4d21324d398d8396270c5bb05b5bab32b8e0c21abfed4456441")


class TestTransversal:
    def test_single_point_per_region(self):
        plants = [pt(-2, 1), pt("7/2", "7/2"), pt(9, 1)]
        p = PointSet(list(CAP4.points) + plants)
        rep = transversal_check(p, CAP4, sample_budget=100, seed=0)
        assert rep.mode == "exhaustive"
        assert rep.checked == 1
        assert rep.ok == is_convex_position(plants)

    def test_vacuous_when_region_empty(self):
        rep = transversal_check(CAP4, CAP4, sample_budget=10, seed=0)
        assert rep.ok and rep.checked == 0

    def test_sample_budget_below_one_rejected(self):
        # a sampled check of zero tuples would pass on nothing
        groups = [[pt(0, 0)], [pt(1, 1)], [pt(40, i) for i in range(40)]]
        with pytest.raises(ValueError, match="sample budget must be at least 1"):
            check_selection_tuples(groups, sample_budget=-1, seed=0)

    def test_checker_flags_planted_collinear_selection(self):
        # the selection engine must report a violation when a non-convex
        # tuple is reachable (one point per group, middle on the segment)
        groups = [[pt(0, 0)], [pt(1, 1)], [pt(2, 2)]]
        rep = check_selection_tuples(groups, sample_budget=10, seed=0)
        assert not rep.ok
        assert rep.violations == 1
        assert rep.counterexample == (pt(0, 0), pt(1, 1), pt(2, 2))

    def test_report_dict_holds_counterexample(self):
        groups = [[pt(0, 0)], [pt("1/2", "1/2")], [pt(1, 1)]]
        d = check_selection_tuples(groups, sample_budget=10, seed=0).as_dict()
        assert d["counterexample"] == [["0", "0"], ["1/2", "1/2"], ["1", "1"]]

    def test_checker_flags_violation_in_sampling_mode(self):
        groups = [[pt(0, 0)], [pt(1, 1)], [pt(2, 2)],
                  [pt(40, i) for i in range(40)]]
        rep = check_selection_tuples(groups, sample_budget=5, seed=0)
        assert rep.mode == "sampled"
        assert not rep.ok

    @pytest.mark.parametrize("seed", range(6))
    def test_checker_matches_is_convex_position(self, seed):
        """Violations are the checked tuples that fail is_convex_position,
        and the counterexample is the first of them, in both modes.  Groups
        on a 4 x 4 grid carry collinear triples and shared points; two
        groups give pairs, which are always convex."""
        rng = random.Random(seed)
        grid = [pt(x, y) for x in range(4) for y in range(4)]
        groups = [rng.sample(grid, rng.randrange(1, 5))
                  for _ in range(2 + seed % 3)]
        groups[-1].append(groups[0][0])  # a point shared by two groups
        for budget in (10_000, 7):
            rep = check_selection_tuples(groups, budget, seed)
            tuples = list(product(*groups))
            exhaustive = len(tuples) <= budget
            if not exhaustive:
                draw = random.Random(seed)
                tuples = [tuple(g[draw.randrange(len(g))] for g in groups)
                          for _ in range(budget)]
            bad = [t for t in tuples if not is_convex_position(t)]
            assert rep.mode == ("exhaustive" if exhaustive else "sampled")
            assert rep.checked == len(tuples)
            assert rep.violations == len(bad)
            assert rep.counterexample == (bad[0] if bad else None)
            assert rep.ok == (not bad)
            if len(groups) > 2 and exhaustive:
                assert bad  # the shared point repeats in some tuple

    def test_planted_segment_point_cannot_reach_regions(self):
        # Any two points in support regions have the whole segment between
        # them on the hull side of every other chain edge line, so a plant
        # on the segment never lands in an intermediate region: the
        # transversal conclusion is unconditional for genuine cups/caps.
        regs = support_regions(CAP4)
        p1, p3 = pt(-2, 1), pt(9, 1)
        assert regs[0].contains(p1) and regs[2].contains(p3)
        mid = pt(Fraction(p1.x + p3.x, 2), Fraction(p1.y + p3.y, 2))
        assert not any(r.contains(mid) for r in regs[:3])
        planted = PointSet(list(CAP4.points) + [p1, mid, p3])
        rep = transversal_check(planted, CAP4, sample_budget=1000, seed=0)
        assert rep.ok  # geometry forbids the violation

    def test_random_fat_caps_always_pass(self):
        rng = random.Random(21)
        for trial in range(5):
            ps = random_point_set(rng, 400)
            cap, _ = find_fat_cap(ps, 4, seed=trial, budget=30)
            rep = transversal_check(ps, cap, sample_budget=2000, seed=trial)
            assert rep.ok, rep.counterexample


class TestRadialOrder:
    def test_spec_example(self):
        order = radial_order(PointSet.of([(-2, 3), (-1, 4), (1, 4), (2, 3)]),
                             ConvexBody.point(pt(0, -10)))
        assert order == [pt(-2, 3), pt(-1, 4), pt(1, 4), pt(2, 3)]

    def test_singleton(self):
        body = ConvexBody.segment(pt(0, -2), pt(1, -2))
        assert radial_order(PointSet.of([(5, 5)]), body) == [pt(5, 5)]

    def test_avoidance_violation_reports_pair(self):
        body = ConvexBody.point(pt(0, -10))
        with pytest.raises(AvoidanceError) as err:
            radial_order(PointSet.of([(0, 1), (0, 5), (3, 2)]), body)
        assert set(err.value.pair) == {pt(0, 1), pt(0, 5)}

    def test_avoidance_pair_is_first_in_input_order(self):
        # both vertical pairs' lines meet the body; the radial order puts
        # (0, 1) and (0, 5) first, the input order puts (1, 1) and (2, 12)
        body = ConvexBody.point(pt(0, -10))
        with pytest.raises(AvoidanceError) as err:
            radial_order(PointSet.of([(1, 1), (0, 5), (2, 12), (0, 1)]), body)
        assert err.value.pair == (pt(1, 1), pt(2, 12))

    def test_separation_violation(self):
        body = ConvexBody.segment(pt(-5, 0), pt(5, 0))
        with pytest.raises(SeparationError):
            radial_order(PointSet.of([(0, 5), (1, -5), (7, 3)]), body)

    def test_relaxed_matches_strict(self):
        # the reference is the comparator sort by turn: p precedes q when
        # the body lies right of p -> q
        rng = random.Random(14)
        done = 0
        while done < 30:
            ps, body = make_valid_instance(rng, 7, rng.choice(BODY_KINDS))
            if ps is None:
                continue
            ref = body.vertices[0]
            by_turn = sorted(ps, key=cmp_to_key(
                lambda a, b: cross_sign(a, b, ref)))
            assert relaxed_order(ps, body) == radial_order(ps, body) \
                == by_turn
            done += 1

    def test_relaxed_order_matches_fraction_reference(self):
        # against oracles.radial_sort around body.vertices[0], with points
        # planted beyond a member on its ray from that vertex (the distance
        # tie-break), and under a per-axis map to about 2**90
        rng = random.Random(47)
        big = 1 << 90
        for kind in BODY_KINDS:
            done = 0
            while done < 10:
                ps, body = make_separated_instance(rng, 7, kind)
                if ps is None:
                    continue
                z, q = body.vertices[0], rng.choice(ps)
                plants = [Point(z.x + t * (q.x - z.x), z.y + t * (q.y - z.y))
                          for t in (Fraction(3, 2), Fraction(2), Fraction(3))]
                planted = PointSet(dict.fromkeys([*ps, *plants]))
                sx, sy = (Fraction(rng.randrange(1, big),
                                   rng.randrange(1, big)) for _ in range(2))
                tx, ty = (Fraction(rng.randrange(-big, big),
                                   rng.randrange(1, big)) for _ in range(2))

                def image(p):
                    return Point(sx * p.x + tx, sy * p.y + ty)

                scaled = PointSet(image(p) for p in planted)
                scaled_body = ConvexBody(tuple(map(image, body.vertices)))
                for pts, b in ((ps, body), (planted, body),
                               (scaled, scaled_body)):
                    assert relaxed_order(pts, b) == \
                        oracles.radial_sort(pts, b.vertices[0]), (pts, b)
                done += 1

    @pytest.mark.parametrize("pairs, z", [
        ([(5, 2), (8, 2), (8, 8), (8, 9)], (-1, -2)),
        ([(-6, 4), (-5, 11), (-4, 10)], (8, -3)),
        ([(-7, 9), (-6, 3), (-4, 2)], (5, -3)),
    ])
    def test_relaxed_order_separates_close_tangents(self, pairs, z):
        # two tangents here differ by less than 1/D for the largest
        # denominator D, so a key scale of about D, not D**2, misorders them
        ps, body = PointSet.of(pairs), ConvexBody.point(pt(*z))
        assert relaxed_order(ps, body) == oracles.radial_sort(ps, pt(*z))


class TestHullsStrictlyDisjoint:
    @given(hull_pairs())
    def test_matches_oracle(self, pair):
        a, b = pair
        assert hulls_strictly_disjoint(a, b) == (not oracles._hulls_meet(a, b))
        assert hulls_strictly_disjoint(b, a) == hulls_strictly_disjoint(a, b)


class TestClassifyTriple:
    def test_inner_cap(self):
        body = ConvexBody.point(pt(0, -10))
        assert classify_triple(body, pt(-2, 3), pt(0, 4), pt(2, 3)) is \
            TripleKind.INNER_CAP

    def test_outer_cup_mirrored(self):
        body = ConvexBody.point(pt(0, 10))
        assert classify_triple(body, pt(-2, 3), pt(0, 4), pt(2, 3)) is \
            TripleKind.OUTER_CUP

    def test_collinear(self):
        body = ConvexBody.point(pt(0, -10))
        assert classify_triple(body, pt(-1, 3), pt(0, 3), pt(1, 3)) is \
            TripleKind.COLLINEAR

    def test_totality_on_valid_instances(self):
        rng = random.Random(15)
        done = 0
        while done < 25:
            ps, body = make_valid_instance(rng, 5, rng.choice(BODY_KINDS))
            if ps is None:
                continue
            order = radial_order(ps, body)
            for trio in combinations(order, 3):
                kind = classify_triple(body, *trio)
                assert kind in (TripleKind.INNER_CAP, TripleKind.OUTER_CUP,
                                TripleKind.COLLINEAR)
            done += 1

    def test_closure_property(self):
        # radially consecutive overlapping inner (outer) triples extend to
        # the full quadruple
        rng = random.Random(16)
        done = 0
        while done < 40:
            ps, body = make_valid_instance(rng, 6, rng.choice(BODY_KINDS))
            if ps is None:
                continue
            order = radial_order(ps, body)
            for quad in combinations(range(len(order)), 4):
                i, j, s, t = quad
                k1 = classify_triple(body, order[i], order[j], order[s])
                k2 = classify_triple(body, order[j], order[s], order[t])
                if k1 is k2 and k1 in (TripleKind.INNER_CAP,
                                       TripleKind.OUTER_CUP):
                    for trio in combinations(quad, 3):
                        kind = classify_triple(body, *(order[x] for x in trio))
                        assert kind is k1, (list(ps), body, quad, trio)
            done += 1

    def test_turn_sign_matches_hull_definition(self):
        # on radially ordered triples, the chain DP's turn sign is the hull
        # classification
        rng = random.Random(17)
        for kind in BODY_KINDS:
            done = 0
            while done < 8:
                ps, body = make_valid_instance(rng, 7, kind)
                if ps is None:
                    continue
                for trio in combinations(radial_order(ps, body), 3):
                    assert classify_triple(body, *trio) is turn_kind(*trio), \
                        (list(ps), body, trio)
                done += 1

    def test_turn_sign_matches_hull_definition_relaxed(self):
        # on relaxed orders, the same holds for every triple whose two
        # consecutive pairs are mutually separable
        rng = random.Random(18)
        for kind in BODY_KINDS:
            done = checked = 0
            while done < 8:
                ps, body = make_separated_instance(rng, 8, kind)
                if ps is None:
                    continue
                order = relaxed_order(ps, body)
                for a, b, c in combinations(order, 3):
                    if mutually_separable(a, b, body) and \
                            mutually_separable(b, c, body):
                        assert classify_triple(body, a, b, c) is \
                            turn_kind(a, b, c), (list(ps), body, (a, b, c))
                        checked += 1
                done += 1
            assert checked > 0

    def test_mutual_separability_is_line_missing_body(self):
        rng = random.Random(20)
        outcomes = set()
        for kind in BODY_KINDS:
            done = 0
            while done < 8:
                ps, body = make_separated_instance(rng, 8, kind)
                if ps is None:
                    continue
                pts = list(ps)
                c = int_coords([*pts, *body.vertices])
                for i, j in combinations(range(len(pts)), 2):
                    misses = _line_misses(c[i], c[j], c[len(pts):])
                    assert mutually_separable(pts[i], pts[j], body) == misses, \
                        (pts[i], pts[j], body)
                    outcomes.add((kind, misses))
                done += 1
        assert outcomes == {(k, m) for k in BODY_KINDS for m in (True, False)}

    @pytest.mark.parametrize("kind", BODY_KINDS)
    def test_line_misses_matches_definition(self, kind):
        """``_line_misses`` against its definition, every body vertex
        strictly on one side of line ab by ``int_cross``, on seeded lines
        of small and 70-bit spans, lines through a body vertex, and lines
        that contain a segment body or a polygon edge."""
        rng = random.Random(41 + BODY_KINDS.index(kind))

        def draw(span):
            return (rng.randrange(-span, span), rng.randrange(-span, span))

        def reference(a, b, body):
            sides = {(int_cross(a, b, v) > 0) - (int_cross(a, b, v) < 0)
                     for v in body}
            return sides in ({1}, {-1})

        size = {"point": 1, "segment": 2}.get(kind, 5)
        outcomes = set()
        for span in (6, 2**70):
            bodies = 0
            while bodies < 10:
                body = int_hull(draw(span) for _ in range(size))
                if len(body) < min(size, 3):
                    continue
                bodies += 1
                lines = [(draw(span), draw(span)) for _ in range(30)]
                lines += [(v, draw(span)) for v in body]
                u, v = body[0], body[1 % len(body)]
                d = (v[0] - u[0], v[1] - u[1])
                lines += [((u[0] - s * d[0], u[1] - s * d[1]),
                           (u[0] + t * d[0], u[1] + t * d[1]))
                          for s, t in ((0, 1), (1, 2), (2, 5))]
                for a, b in lines:
                    if a == b:
                        continue
                    misses = _line_misses(a, b, body)
                    assert misses == reference(a, b, body), (a, b, body)
                    outcomes.add(misses)
        assert outcomes == {True, False}


class TestLongestRelativeChains:
    def test_cap_is_inner_cap_from_below(self):
        cap = PointSet.of([(i, -(i - 2) ** 2) for i in range(5)])
        w = longest_inner_cap(cap, ConvexBody.point(pt(2, -100)))
        assert len(w) == 5

    def test_collinear_set_gives_pair(self):
        coll = PointSet.of([(i, 7) for i in range(5)])
        w = longest_inner_cap(coll, ConvexBody.point(pt(2, -100)))
        assert len(w) == 2

    def test_deep_cup_outer_cup(self):
        cup = PointSet.of([(i, (i - 2) ** 2) for i in range(5)])
        inner = longest_inner_cap(cup, ConvexBody.point(pt(2, -100)))
        outer = longest_outer_cup(cup, ConvexBody.point(pt(2, -100)))
        assert len(outer) == oracles.brute_largest_relative(
            list(cup), [pt(2, -100)], oracles.is_outer_cup)
        assert len(inner) == oracles.brute_largest_relative(
            list(cup), [pt(2, -100)], oracles.is_inner_cap)

    def test_oracle_equivalence_random(self):
        rng = random.Random(19)
        done = 0
        while done < 15:
            ps, body = make_valid_instance(rng, 7, rng.choice(BODY_KINDS))
            if ps is None:
                continue
            inner = longest_inner_cap(ps, body)
            outer = longest_outer_cup(ps, body)
            assert len(inner) == oracles.brute_largest_relative(
                list(ps), list(body.vertices), oracles.is_inner_cap)
            assert len(outer) == oracles.brute_largest_relative(
                list(ps), list(body.vertices), oracles.is_outer_cup)
            assert oracles.is_inner_cap(list(inner.members), body.vertices)
            assert oracles.is_outer_cup(list(outer.members), body.vertices)
            done += 1

    def test_witness_members_pinned(self):
        """The members of the inner-cap and outer-cup witnesses on 200
        seeded instances, and the cell profiles with their pair-filtered
        chains on 20 cells.  The oracles check sizes only, so this pins the
        chain DP's tie-breaks."""
        rng = random.Random(1994)
        digest = hashlib.sha256()

        def pin(points):
            digest.update(";".join(f"{p.x},{p.y}" for p in points).encode()
                          + b"\n")

        done = 0
        while done < 200:
            ps, body = make_valid_instance(rng, rng.randrange(6, 13),
                                           ("point", "segment")[done % 2])
            if ps is None:
                continue
            pin(longest_inner_cap(ps, body).members)
            pin(longest_outer_cup(ps, body).members)
            done += 1
        cells = TestCellProfile
        for _ in range(20):
            pts, n = set(), rng.randrange(6, 13)
            while len(pts) < n:
                pts.add((rng.randrange(-9, 10), rng.randrange(2, 25)))
            ps = PointSet.of(sorted(pts))
            inst = conv_order(ps, cells.B)

            def comparable(p, q):
                return inst.less(p, q) or inst.less(q, p)

            prof = cell_profile(ps, cells.LEFT, cells.RIGHT, cells.B)
            digest.update(repr(prof).encode())
            pin(relaxed_chain(ps, ConvexBody.point(cells.RIGHT), comparable))
            for chain in relaxed_chains(
                    ps, cells.B, lambda p, q: not comparable(p, q)):
                pin(chain)
        assert digest.hexdigest() == (
            "dc31b379bbb63092fd304edced51b890210da77df45dc88b5ffef3dfe60bf710")

    def test_both_chains_share_one_pass(self, monkeypatch):
        """Inner then outer, and outer then inner, on one (set, body) run
        the chain pass once; another body or another set runs it again,
        and the chains equal those of a cold call."""
        passes = []

        def counted(*args):
            passes.append(args)
            return real(*args)

        real = relative._relative_chains
        monkeypatch.setattr(relative, "_relative_chains", counted)
        relative._relative_pass.cache_clear()
        below = ConvexBody.point(pt(3, -40))
        wide = ConvexBody.segment(pt(2, -40), pt(5, -41))
        ps = PointSet.of([(0, 0), (1, 4), (3, 5), (5, 4), (6, 0), (2, 2)])
        other = PointSet.of([(0, 2), (2, 5), (4, 6), (7, 1)])
        inner = longest_inner_cap(ps, below)
        outer = longest_outer_cup(ps, below)
        assert len(passes) == 1
        longest_outer_cup(ps, wide)
        longest_inner_cap(ps, wide)
        assert len(passes) == 2
        longest_inner_cap(other, wide)
        longest_outer_cup(other, wide)
        assert len(passes) == 3
        relative._relative_pass.cache_clear()
        assert longest_outer_cup(ps, below) == outer
        assert longest_inner_cap(ps, below) == inner
        assert len(passes) == 4
        assert relative._relative_pass.cache_info().maxsize == 2

    def test_rejection_is_raised_on_every_call(self, monkeypatch):
        radials = []

        def counted(*args):
            radials.append(args)
            return real(*args)

        real = relative._strict_radial
        monkeypatch.setattr(relative, "_strict_radial", counted)
        relative._relative_pass.cache_clear()
        ps = PointSet.of([(0, 1), (0, 5), (3, 2)])
        body = ConvexBody.point(pt(0, -10))
        for chain in (longest_inner_cap, longest_outer_cup,
                      longest_inner_cap):
            with pytest.raises(AvoidanceError) as err:
                chain(ps, body)
            assert err.value.pair == (pt(0, 1), pt(0, 5))
        assert len(radials) == 3
        assert relative._relative_pass.cache_info().currsize == 0

    def test_one_pass_matches_per_sign_reference(self):
        """Both tables (upper triangles) and both chains of the one pass
        against ``oracles.relative_chain_dp``, one turn sign at a time, on
        ``lattice_instance``s of 3-30 points with spans from 5 to 2**40:
        strict orders (pairs unfiltered) where avoidance holds, relaxed
        orders through the line test on every instance, each also under
        the conv order's comparable and incomparable filters."""
        rng = random.Random(2323)
        seen = set()
        for trial in range(60):
            kind = BODY_KINDS[trial % 3]
            span = (5, 2**10, 2**40)[trial // 3 % 3]
            ps, body = lattice_instance(rng, rng.randrange(3, 31), kind,
                                        span, small=trial % 2 == 0)
            if ps is None:
                continue
            inst = conv_order(ps, body)
            filters = {
                "none": None,
                "comparable": lambda i, j: inst.less_idx(i, j)
                or inst.less_idx(j, i),
                "incomparable": lambda i, j: not inst.less_idx(i, j)
                and not inst.less_idx(j, i)}
            order, c, verts = _radial(ps, body)
            try:
                _strict_radial(ps, body)
                modes = ("strict", "relaxed")
            except AvoidanceError:
                modes = ("relaxed",)
            seen.add((kind, len(modes) == 2))
            for mode in modes:
                for name, keep in filters.items():
                    if mode == "strict":
                        pair_ok = keep
                    else:
                        def pair_ok(i, j, keep=keep):
                            return (keep is None or keep(i, j)) \
                                and _line_misses(c[i], c[j], verts)
                    got = _relative_chains(order, c, pair_ok)
                    for chain, table, sign in ((got[0], got[2], -1),
                                               (got[1], got[3], 1)):
                        ref_table, ref_chain = oracles.relative_chain_dp(
                            order, c, verts, sign, keep)
                        where = (list(ps), body, mode, name, sign)
                        assert chain == ref_chain, where
                        assert [row[j + 1:] for j, row in enumerate(table)] \
                            == [row[j + 1:] for j, row in
                                enumerate(ref_table)], where
        # every body kind with avoidance holding and failing
        assert seen == {(k, s) for k in BODY_KINDS for s in (True, False)}

    def test_levelwise_oracle_matches_plain_enumeration(self):
        rng = random.Random(23)
        for kind in BODY_KINDS:
            done = 0
            while done < 4:
                ps, body = make_valid_instance(rng, rng.randrange(6, 9), kind)
                if ps is None:
                    continue
                pts, verts = list(ps), list(body.vertices)
                for pred in (oracles.is_inner_cap, oracles.is_outer_cup):
                    assert oracles.brute_largest_relative(pts, verts, pred) \
                        == oracles._max_subset(pts, lambda s: pred(s, verts))
                done += 1


class TestConvOrder:
    B = ConvexBody.segment(pt(0, 0), pt(4, 0))

    def test_basic_relation(self):
        inst = conv_order(PointSet.of([(2, 1), (2, 3)]), self.B)
        assert inst.less(pt(2, 1), pt(2, 3))
        assert not inst.less(pt(2, 3), pt(2, 1))

    def test_boundary_counts(self):
        # (2, 1) on the boundary of conv(B + (2, 3))? interior here; use an
        # exactly-on-edge point instead
        inst = conv_order(PointSet.of([(1, 1), (2, 2)]), self.B)
        # (1, 1) lies on the segment from (0, 0) to (2, 2): boundary => less
        assert inst.less(pt(1, 1), pt(2, 2))

    def test_chain_totally_ordered(self):
        inst = conv_order(PointSet.of([(2, 1), (2, 2), (2, 3)]), self.B)
        pts = [pt(2, 1), pt(2, 2), pt(2, 3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert inst.less(pts[i], pts[j])

    def test_cycle_detected(self):
        with pytest.raises(OrderViolation):
            conv_order(PointSet.of([(1, 0), (2, 0)]), self.B)

    @staticmethod
    def assert_matches_oracle(ps, body):
        inst = conv_order(ps, body)
        pts = inst.points
        assert inst.relation == {
            (i, j) for i in range(len(pts)) for j in range(len(pts))
            if i != j and oracles.point_in_hull_closed(
                pts[i], [pts[j], *body.vertices])}

    def test_matches_brute_oracle(self):
        rng = random.Random(46)
        for kind in BODY_KINDS:
            done = 0
            while done < 15:
                ps, body = make_valid_instance(rng, rng.randrange(6, 11), kind)
                if ps is not None:
                    self.assert_matches_oracle(ps, body)
                    done += 1

    @pytest.mark.parametrize("pairs, body", [
        # on the segment body's line beyond both ends: two-vertex hulls
        ([(6, 0), (8, 0), (-3, 0), (2, 3), (7, 1)],
         ConvexBody.segment(pt(0, 0), pt(4, 0))),
        # on a polygon body's edge, and on two edge lines beyond the body:
        # on the boundary of k-vertex hulls
        ([(3, 0), (8, 0), (10, 0), (7, 1), (8, 2), (3, 4)],
         ConvexBody.polygon([pt(0, 0), pt(6, 0), pt(3, -3)])),
        # the point body itself (a one-vertex hull) and points on one ray
        ([(0, 0), (1, 1), (2, 2), (3, 3), (-1, 2), (2, 1)],
         ConvexBody.point(pt(0, 0))),
    ])
    def test_degenerate_cases_match_brute_oracle(self, pairs, body):
        self.assert_matches_oracle(PointSet.of(pairs), body)

    @staticmethod
    def boundary_instance(rng, n, kind, span):
        """A point, segment or polygon body with y in [-span, -1] and n
        points above it.  About a third of the points lie on the boundary
        of a drawn point q's hull with the body: halfway from a body vertex
        to q, or twice as far."""

        def body_point():
            return pt(rng.randrange(-span, span), -rng.randrange(1, span))

        size = {"point": 1, "segment": 2, "polygon": rng.randrange(3, 6)}[kind]
        while True:
            hull = convex_hull([body_point() for _ in range(size)])
            if len(hull) >= min(size, 3):
                break
        body = ConvexBody(hull)
        drawn, pts = [], {}
        while len(pts) < n:
            if drawn and rng.randrange(3) == 0:
                q, z = rng.choice(drawn), rng.choice(hull)
                t = rng.choice((Fraction(1, 2), 2))
                pts[Point(z.x + t * (q.x - z.x), z.y + t * (q.y - z.y))] = None
            else:
                q = pt(rng.randrange(-span, span), rng.randrange(span, 2 * span))
                drawn.append(q)
                pts[q] = None
        return PointSet(pts), body

    @pytest.mark.parametrize("kind", BODY_KINDS)
    def test_large_sets_match_brute_oracle(self, kind):
        # 30-60 points on small coordinates, and on coordinates from 2^70
        # to 2^72, which no fixed-width integer holds
        rng = random.Random(47)
        for span in (40, 1 << 71, 1 << 71):
            ps, body = self.boundary_instance(rng, rng.randrange(30, 61),
                                              kind, span)
            self.assert_matches_oracle(ps, body)

    def test_mutual_containment_reports_first_pair(self):
        # (4, 0), (1, 0) and (2, 0) lie in the segment body, so each lies in
        # the hull of the body with any other; (7, 0) lies beyond it.  The
        # witness is the first such pair in index order.
        body = ConvexBody.segment(pt(0, 0), pt(6, 0))
        ps = PointSet.of([(5, 3), (4, 0), (7, 0), (1, 0), (2, 0)])
        with pytest.raises(OrderViolation, match="antisymmetric") as info:
            conv_order(ps, body)
        p, q = info.value.witness
        assert (p, q) == (pt(4, 0), pt(1, 0))
        assert oracles.point_in_hull_closed(p, [q, *body.vertices])
        assert oracles.point_in_hull_closed(q, [p, *body.vertices])


class TestDilworth:
    def test_total_order(self):
        inst = conv_order(PointSet.of([(2, i) for i in range(1, 6)]),
                          ConvexBody.segment(pt(0, 0), pt(4, 0)))
        res = dilworth(inst)
        assert res.v == 5 and res.h == 1
        assert len(res.longest_chain) == 5
        assert len(res.max_antichain) == 1

    def test_antichain(self):
        inst = conv_order(PointSet.of([(i, 1) for i in range(5)]),
                          ConvexBody.segment(pt(0, -3), pt(4, -3)))
        res = dilworth(inst)
        assert res.v == 1 and res.h == 5

    def test_empty_order(self):
        res = dilworth(conv_order(PointSet([]),
                                  ConvexBody.segment(pt(0, 0), pt(4, 0))))
        assert (res.v, res.h, res.longest_chain, res.max_antichain) == \
            (0, 0, (), ())

    def test_product_bound_and_oracle(self):
        rng = random.Random(25)
        for _ in range(15):
            pts = set()
            while len(pts) < 12:
                pts.add((rng.randrange(-20, 21), rng.randrange(1, 30)))
            ps = PointSet.of(sorted(pts))
            inst = conv_order(ps, ConvexBody.segment(pt(-6, -1), pt(6, -1)))
            res = dilworth(inst)
            assert res.v * res.h >= len(ps)
            idx = {p: i for i, p in enumerate(inst.points)}
            assert res.h == oracles.brute_max_antichain(
                len(ps), lambda i, j: inst.less_idx(i, j))
            # chain witness is a chain; antichain witness is an antichain
            ch = [idx[p] for p in res.longest_chain]
            assert all(inst.less_idx(ch[i], ch[i + 1])
                       for i in range(len(ch) - 1))
            an = [idx[p] for p in res.max_antichain]
            assert all(not inst.less_idx(i, j) and not inst.less_idx(j, i)
                       for i in an for j in an if i != j)

    def test_relation_and_witnesses_pinned(self):
        # a sha256 over the conv_order relation and every dilworth output
        # (sizes, chain and antichain members, in order) on seeded sets of
        # 12-60 points above point, segment and polygon bodies; any change
        # to the relation or to which witnesses Dilworth picks fails it
        rng = random.Random(17)
        digest = hashlib.sha256()
        done = 0
        while done < 30:
            kind = BODY_KINDS[done % 3]
            if kind == "point":
                body = ConvexBody.point(pt(rng.randrange(-10, 11),
                                           rng.randrange(-20, 0)))
            elif kind == "segment":
                body = ConvexBody.segment(pt(rng.randrange(-15, -1), -2),
                                          pt(rng.randrange(1, 15), -2))
            else:
                body = random_polygon(rng, -8)
                if body is None:
                    continue
            pts, n = set(), rng.randrange(12, 61)
            while len(pts) < n:
                pts.add((rng.randrange(-40, 41), rng.randrange(1, 60)))
            inst = conv_order(PointSet.of(sorted(pts)), body)
            res = dilworth(inst)
            digest.update(repr((sorted(inst.relation), res.v, res.h,
                                res.longest_chain,
                                res.max_antichain)).encode() + b"\n")
            done += 1
        assert digest.hexdigest() == (
            "ef84842f3249de18f2d5fb41adca4a0c9c776d913b6aa41d039a840766ca78f4")


class TestCellProfile:
    B = ConvexBody.segment(pt(-10, 0), pt(10, 0))
    LEFT, RIGHT = pt(-20, 0), pt(20, 0)

    def test_chain_inner_cap_instance(self):
        # a conv-order chain that is an inner-cap w.r.t. the right vertex
        chain = [pt(-2, 3), pt(-4, 7), pt(-6, 15), pt(-8, 26)]
        inst = conv_order(PointSet(chain), self.B)
        assert all(inst.less(p, q) or inst.less(q, p)
                   for i, p in enumerate(chain) for q in chain[i + 1:])
        assert oracles.is_inner_cap(chain, [self.RIGHT])
        prof = cell_profile(PointSet(chain), self.LEFT, self.RIGHT, self.B)
        assert prof.a == 4 and prof.h == 1 and prof.v == 4

    def test_antichain_outer_cup_instance(self):
        base = ConvexBody.segment(pt(-1, 0), pt(1, 0))
        anti = [pt(-20, 100), pt(-10, 96), pt(0, 95), pt(10, 96), pt(20, 100)]
        inst = conv_order(PointSet(anti), base)
        assert all(not inst.less(p, q) and not inst.less(q, p)
                   for i, p in enumerate(anti) for q in anti[i + 1:])
        assert oracles.is_outer_cup(anti, base.vertices)
        prof = cell_profile(PointSet(anti), pt(-30, 0), pt(30, 0), base)
        assert prof.z == 5 and prof.v == 1 and prof.h == 5

    def test_singleton(self):
        prof = cell_profile(PointSet.of([(5, 5)]), self.LEFT, self.RIGHT,
                            self.B)
        assert (prof.h, prof.v, prof.a, prof.b, prof.w, prof.z) == \
            (1, 1, 1, 1, 1, 1)

    def test_separation_checked_at_every_size(self):
        # (0, 0) lies on the base, so neither cell is separated from it
        for cell in ([(0, 0)], [(0, 0), (1, 5)]):
            with pytest.raises(SeparationError):
                cell_profile(PointSet.of(cell), self.LEFT, self.RIGHT, self.B)

    def test_empty_cell(self):
        with pytest.raises(ValueError, match="empty point set"):
            cell_profile(PointSet([]), self.LEFT, self.RIGHT, self.B)

    def test_product_bound_random(self):
        rng = random.Random(33)
        for _ in range(5):
            pts = set()
            while len(pts) < 10:
                pts.add((rng.randrange(-9, 10), rng.randrange(2, 25)))
            ps = PointSet.of(sorted(pts))
            prof = cell_profile(ps, self.LEFT, self.RIGHT, self.B)
            assert prof.v * prof.h >= len(ps)

    def test_oracle_cross_check_constrained_dps(self):
        rng = random.Random(35)
        done = 0
        while done < 8:
            pts = set()
            while len(pts) < 8:
                pts.add((rng.randrange(-9, 10), rng.randrange(2, 25)))
            ps = PointSet.of(sorted(pts))
            inst = conv_order(ps, self.B)
            prof = cell_profile(ps, self.LEFT, self.RIGHT, self.B)

            def comparable(p, q):
                return inst.less(p, q) or inst.less(q, p)

            # brute force over subsets: chains that are inner-caps wrt RIGHT
            best_a = 1
            best_w = 1
            best_z = 1
            for size in range(2, len(ps) + 1):
                for sub in combinations(ps, size):
                    allcomp = all(comparable(p, q)
                                  for i, p in enumerate(sub)
                                  for q in sub[i + 1:])
                    allinc = all(not comparable(p, q)
                                 for i, p in enumerate(sub)
                                 for q in sub[i + 1:])
                    if allcomp and oracles.is_inner_cap(sub, [self.RIGHT]):
                        best_a = max(best_a, size)
                    if allinc and oracles.is_inner_cap(sub, self.B.vertices):
                        best_w = max(best_w, size)
                    if allinc and oracles.is_outer_cup(sub, self.B.vertices):
                        best_z = max(best_z, size)
            assert prof.a == best_a
            assert prof.w == best_w
            assert prof.z == best_z
            done += 1


class TestObservations:
    def _plant_in_region(self, region, edge, rng, count, spread):
        a, b = edge
        out = []
        hp = region.halfplanes[0]
        attempts = 0
        while len(out) < count and attempts < 400:
            attempts += 1
            s = Fraction(rng.randrange(2, 19), 20)
            t = Fraction(rng.randrange(1, spread), 200)
            base = Point(a.x + s * (b.x - a.x), a.y + s * (b.y - a.y))
            p = Point(base.x + t * hp.a, base.y + t * hp.b)
            if region.contains(p) and p not in out:
                out.append(p)
        return out

    def test_adjacent_region_inner_caps_union_convex(self):
        # chains in adjacent regions that are inner-caps w.r.t. the shared
        # vertex have a union in convex position
        cap = PointSet.of([(0, 0), (2, 6), (5, 8), (8, 6), (10, 0)])
        regs = support_regions(cap)
        pts = sorted(cap, key=lambda p: p.x)
        shared = pts[2]
        rng = random.Random(40)
        done = 0
        for trial in range(40):
            left_pts = self._plant_in_region(regs[1], (pts[1], pts[2]), rng, 4, 120)
            right_pts = self._plant_in_region(regs[2], (pts[2], pts[3]), rng, 4, 120)
            if len(left_pts) < 2 or len(right_pts) < 2:
                continue
            b_left = ConvexBody.segment(pts[0], pts[3])
            b_right = ConvexBody.segment(pts[1], pts[4])
            try:
                inst_l = conv_order(PointSet(left_pts), b_left)
                inst_r = conv_order(PointSet(right_pts), b_right)
                y_left = relaxed_chain(
                    PointSet(left_pts), ConvexBody.point(shared),
                    lambda p, q: inst_l.less(p, q) or inst_l.less(q, p))
                y_right = relaxed_chain(
                    PointSet(right_pts), ConvexBody.point(shared),
                    lambda p, q: inst_r.less(p, q) or inst_r.less(q, p))
            except ValueError:
                continue
            union = list(dict.fromkeys(y_left + y_right))
            assert is_convex_position(union), (y_left, y_right)
            done += 1
        assert done >= 5

    def test_alternating_region_antichain_inner_caps_union_convex(self):
        cap = PointSet.of([(0, 0), (2, 6), (5, 8), (8, 6), (10, 0)])
        regs = support_regions(cap)
        pts = sorted(cap, key=lambda p: p.x)
        rng = random.Random(41)
        done = 0
        for trial in range(40):
            g1 = self._plant_in_region(regs[1], (pts[1], pts[2]), rng, 4, 60)
            g3 = self._plant_in_region(regs[3], (pts[3], pts[4]), rng, 4, 60)
            if len(g1) < 2 or len(g3) < 2:
                continue
            b1 = ConvexBody.segment(pts[0], pts[3])
            b3 = ConvexBody.segment(pts[2], pts[4])
            try:
                inst1 = conv_order(PointSet(g1), b1)
                inst3 = conv_order(PointSet(g3), b3)
                s1 = relaxed_chain(
                    PointSet(g1), b1,
                    lambda p, q: not inst1.less(p, q) and not inst1.less(q, p))
                s3 = relaxed_chain(
                    PointSet(g3), b3,
                    lambda p, q: not inst3.less(p, q) and not inst3.less(q, p))
            except ValueError:
                continue
            union = list(dict.fromkeys(s1 + s3))
            assert is_convex_position(union), (s1, s3)
            done += 1
        assert done >= 5
