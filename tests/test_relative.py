import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations

import pytest

from cupcap import (AvoidanceError, ConvexBody, OrderViolation, Point,
                    PointSet, SeparationError, TripleKind, cell_profile,
                    check_selection_tuples, classify_triple, conv_order,
                    dilworth, find_fat_cap, is_convex_position,
                    longest_inner_cap, longest_outer_cup, populate_support,
                    radial_order, support_regions, transversal_check)
from cupcap.geom import (convex_hull, cross_sign, int_coords,
                         point_in_convex_hull)
from cupcap.relative import (_line_misses, _relative_chain_dp,
                             _relaxed_radial_order)

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
        _relaxed_radial_order(ps, body)
    except SeparationError:
        return None, None
    return ps, body


def mutually_separable(p, q, body):
    """The hull definition: neither point lies in the hull of the body with
    the other."""
    return (not point_in_convex_hull(p, [q, *body.vertices])
            and not point_in_convex_hull(q, [p, *body.vertices]))


def turn_kind(a, b, c):
    """The chain DP's reading of a radially ordered triple's turn."""
    return {-1: TripleKind.INNER_CAP, 0: TripleKind.COLLINEAR,
            1: TripleKind.OUTER_CUP}[cross_sign(a, b, c)]


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

    def test_checker_flags_planted_collinear_selection(self):
        # the selection engine must report a violation when a non-convex
        # tuple is reachable (one point per group, middle on the segment)
        groups = [[pt(0, 0)], [pt(1, 1)], [pt(2, 2)]]
        rep = check_selection_tuples(groups, sample_budget=10, seed=0)
        assert not rep.ok
        assert rep.violations == 1
        assert rep.counterexample == (pt(0, 0), pt(1, 1), pt(2, 2))

    def test_checker_flags_violation_in_sampling_mode(self):
        groups = [[pt(0, 0)], [pt(1, 1)], [pt(2, 2)],
                  [pt(40, i) for i in range(40)]]
        rep = check_selection_tuples(groups, sample_budget=5, seed=0)
        assert rep.mode == "sampled"
        assert not rep.ok

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
            assert _relaxed_radial_order(ps, body) == radial_order(ps, body) \
                == by_turn
            done += 1


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
                order = _relaxed_radial_order(ps, body)
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
                y_left = _relative_chain_dp(
                    PointSet(left_pts), ConvexBody.point(shared),
                    TripleKind.INNER_CAP,
                    lambda p, q: inst_l.less(p, q) or inst_l.less(q, p),
                    relaxed=True)
                y_right = _relative_chain_dp(
                    PointSet(right_pts), ConvexBody.point(shared),
                    TripleKind.INNER_CAP,
                    lambda p, q: inst_r.less(p, q) or inst_r.less(q, p),
                    relaxed=True)
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
                s1 = _relative_chain_dp(
                    PointSet(g1), b1, TripleKind.INNER_CAP,
                    lambda p, q: not inst1.less(p, q) and not inst1.less(q, p),
                    relaxed=True)
                s3 = _relative_chain_dp(
                    PointSet(g3), b3, TripleKind.INNER_CAP,
                    lambda p, q: not inst3.less(p, q) and not inst3.less(q, p),
                    relaxed=True)
            except ValueError:
                continue
            union = list(dict.fromkeys(s1 + s3))
            assert is_convex_position(union), (s1, s3)
            done += 1
        assert done >= 5
