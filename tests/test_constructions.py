import random
from fractions import Fraction
from itertools import combinations

import pytest

from cupcap import (ConstructionError, Point, PointSet, build_base_capfree,
                    build_base_cupfree, build_convex_free, build_free_set,
                    combine_flat,
                    cup_cap_threshold, free_set_size_bound, longest_cap_size,
                    longest_cup_size, max_collinear, normalize_integer_coords,
                    orientation, verify_construction)
from cupcap.constructions import (_arc_anchors, _blocks_pairwise_ok,
                                  _free_part, _int_hulls_side)
from cupcap.geom import cross_sign, int_coords, int_cross, int_hull

import oracles


class TestBaseCupfree:
    def test_3_5(self):
        ps = build_base_cupfree(3, 5)
        assert len(ps) == 4
        assert len(max_collinear(ps)) == 2
        assert longest_cup_size(ps) <= 4
        assert longest_cap_size(ps) == 2

    def test_4_5(self):
        ps = build_base_cupfree(4, 5)
        assert len(ps) == 6
        assert len(max_collinear(ps)) == 3
        assert longest_cup_size(ps) <= 4

    def test_3_3(self):
        assert len(build_base_cupfree(3, 3)) == 2

    def test_size_formula(self):
        # (l-1)*floor((m-1)/2), plus one when m-1 is odd
        for l in (3, 4, 5):
            for m in range(3, 9):
                ps = build_base_cupfree(l, m)
                expect = (l - 1) * ((m - 1) // 2) + ((m - 1) % 2)
                assert len(ps) == expect
                assert len(ps) >= free_set_size_bound(l, m, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_base_cupfree(2, 5)

    def test_cup_bound_against_oracle(self):
        ps = build_base_cupfree(3, 4)
        assert oracles.brute_longest_cup(list(ps)) <= 3
        assert longest_cup_size(ps) == oracles.brute_longest_cup(list(ps))


class TestBaseCapfree:
    def test_mirror_of_cupfree(self):
        ps = build_base_capfree(3, 5)
        assert len(ps) == 4
        assert longest_cup_size(ps) == 2
        assert longest_cap_size(ps) <= 4

    def test_5_4(self):
        ps = build_base_capfree(5, 4)
        assert len(ps) == 5
        assert len(max_collinear(ps)) == 4
        assert longest_cap_size(ps) <= 3

    def test_3_3(self):
        assert len(build_base_capfree(3, 3)) == 2

    def test_validation_names_n(self):
        with pytest.raises(ValueError, match="l and n must be >= 3"):
            build_base_capfree(3, 2)

    def test_cap_bound_against_oracle(self):
        ps = build_base_capfree(3, 5)
        assert oracles.brute_longest_cap(list(ps)) <= 4
        assert longest_cap_size(ps) == oracles.brute_longest_cap(list(ps))


class TestCombineFlat:
    def test_singletons(self):
        out = combine_flat(PointSet.of([(0, 0)]), PointSet.of([(5, 5)]))
        assert len(out) == 2

    def test_two_by_two_exhaustive_orientations(self):
        a = PointSet.of([(0, 0), (1, 1)])
        b = PointSet.of([(0, 0), (1, -1)])
        out = combine_flat(a, b)
        pts = sorted(out, key=lambda p: p.x)
        left, right = pts[:2], pts[2:]
        # all 8 cross-part orientation checks
        for p, q in [(left[0], left[1])]:
            for r in right:
                assert cross_sign(p, q, r) == 1
        for p, q in [(right[0], right[1])]:
            for r in left:
                assert cross_sign(p, q, r) == -1

    def test_cardinality_additive(self):
        a = build_base_cupfree(3, 4)
        b = build_base_capfree(3, 4)
        assert len(combine_flat(a, b)) == len(a) + len(b)

    def test_loop_bounded(self):
        a = build_base_cupfree(4, 6)
        b = build_base_capfree(4, 6)
        combine_flat(a, b)  # must not raise

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_flat(PointSet([]), PointSet.of([(0, 0)]))

    def test_hull_pairs_side_matches_fraction_hull_vertices(self):
        # every strict hull vertex of lower against every line through two
        # strict hull vertices of upper, each pair taken in (x, y) order, on
        # Fraction cross products; the integer check reads both hulls off
        # one int_coords array
        rng = random.Random(31)

        def draw(k, dy):
            return [Point(Fraction(rng.randrange(-9, 10), rng.choice((1, 3))),
                          Fraction(rng.randrange(0, 5), rng.choice((1, 2)))
                          + dy) for _ in range(k)]

        outcomes = set()
        for _ in range(300):
            upper = draw(rng.randrange(1, 7), 0)
            lower = draw(rng.randrange(1, 5), rng.randrange(-60, 61))
            pairs = combinations(sorted(oracles.monotone_chain(upper),
                                        key=lambda p: (p.x, p.y)), 2)
            crosses = [oracles.cross(p, q, r) for p, q in pairs
                       for r in oracles.monotone_chain(lower)]
            c = int_coords([*upper, *lower])
            hu, hl = int_hull(c[:len(upper)]), int_hull(c[len(upper):])
            for want in (1, -1):
                expect = all(v * want > 0 for v in crosses)
                assert _int_hulls_side(hu, hl, want) == expect
                outcomes.add((want, expect))
        assert len(outcomes) == 4

    @pytest.mark.parametrize("l, m, n", [(3, 6, 6), (4, 6, 6), (5, 6, 5)])
    def test_top_level_placement_holds_for_all_pairs(self, l, m, n):
        # the docstring's property over every pair of each part, on Fraction
        # cross products; the check inside combine_flat tests only pairs of
        # hull vertices.  The output lists the left part first.
        left, right = build_free_set(l, m - 1, n), build_free_set(l, m, n - 1)
        out = combine_flat(left, right)
        assert out == build_free_set(l, m, n)
        k = len(left)
        left, right = (sorted(part, key=lambda p: (p.x, p.y))
                       for part in (out[:k], out[k:]))
        assert all(oracles.cross(p, q, r) > 0
                   for p, q in combinations(left, 2) for r in right)
        assert all(oracles.cross(p, q, r) < 0
                   for p, q in combinations(right, 2) for r in left)


class TestMatchesFractionReference:
    """The integer-pair builders return the very sets that the Fraction
    placements in ``oracles`` build, scale by scale."""

    @pytest.mark.parametrize("l", [3, 4, 5, 6])
    def test_base_sets(self, l):
        for m in range(3, 10):
            assert build_base_cupfree(l, m) == oracles.ref_base_cupfree(l, m)
            assert build_base_capfree(l, m) == oracles.ref_base_capfree(l, m)

    @pytest.mark.parametrize("l", [3, 4, 5, 6])
    def test_free_sets(self, l):
        for m in range(3, 8):
            for n in range(3, 8):
                assert build_free_set(l, m, n) == \
                    oracles.ref_build_free_set(l, m, n), (l, m, n)

    @pytest.mark.parametrize("l", [3, 4, 5])
    def test_convex_free_sets(self, l):
        for n in range(6, 10):
            assert build_convex_free(l, n) == \
                oracles.ref_build_convex_free(l, n), (l, n)

    def test_combine_flat_on_rational_unnormalised_inputs(self):
        # each part distinct in x, then scaled and translated per axis by
        # seeded rationals, so units, denominators and origins all differ
        # from the integer frame the builders use internally
        rng = random.Random(21)

        def part(k):
            sx = Fraction(rng.randrange(1, 9), rng.choice((1, 2, 3, 7)))
            sy = Fraction(rng.randrange(1, 9), rng.choice((1, 4, 5, 9)))
            tx = Fraction(rng.randrange(-99, 100), rng.choice((1, 3, 11)))
            ty = Fraction(rng.randrange(-99, 100), rng.choice((1, 2, 13)))
            return PointSet(Point(tx + sx * x, ty + sy * y)
                            for x, y in zip(rng.sample(range(-40, 41), k),
                                            rng.choices(range(-40, 41), k=k)))

        for _ in range(200):
            a, b = part(rng.randrange(1, 8)), part(rng.randrange(1, 8))
            assert combine_flat(a, b) == oracles.ref_combine_flat(a, b)
        left, right = build_free_set(4, 5, 6), build_free_set(4, 6, 5)
        left = PointSet(Point(p.x / 3 - 7, 5 * p.y + Fraction(1, 2))
                        for p in left)
        assert combine_flat(left, right) == \
            oracles.ref_combine_flat(left, right)

    def test_carried_hulls_are_the_parts_hulls(self):
        # each level checks its parts on the hulls the level below returned
        # with its pairs, in place of recomputing them
        for l in (3, 4, 5):
            memo = {}
            _free_part(l, 7, 7, memo)
            assert len(memo) == 24  # every (m, n) up to (7, 7) but (3, 3)
            for pairs, hull in memo.values():
                assert hull == int_hull(pairs)

    def test_vertical_pair_never_verifies(self):
        # a vertical pair of hull vertices is crossed by the other part at
        # every scale
        with pytest.raises(ConstructionError, match="did not verify"):
            combine_flat(PointSet.of([(0, 0), (0, 1)]),
                         PointSet.of([(3, 2)]))

    def test_equal_x_off_the_hull_never_verifies(self):
        # (1, 0) and (1, 1) have equal x, and (1, 0) is no hull vertex;
        # the right part lies right of their upward line, on the side the
        # check forbids, so the part is refused like a vertical hull pair
        with pytest.raises(ConstructionError,
                           match="did not verify.*equal x"):
            combine_flat(PointSet.of([(0, 0), (1, 0), (1, 1), (2, 0)]),
                         PointSet.of([(0, 0), (1, 1)]))

    def test_one_placement_is_checked(self, monkeypatch):
        # the analytic scale separates parts with distinct x, so each
        # combine checks its one placement; a part with a vertical pair is
        # refused before any placement
        calls = []

        def counted(hu, hl, want_sign):
            calls.append(want_sign)
            return _int_hulls_side(hu, hl, want_sign)

        monkeypatch.setattr("cupcap.constructions._int_hulls_side", counted)
        with pytest.raises(ConstructionError, match="equal x"):
            combine_flat(PointSet.of([(0, 0), (1, 5)]),
                         PointSet.of([(3, 2), (3, 4)]))
        assert calls == []
        combine_flat(PointSet.of([(0, 0), (1, 5)]),
                     PointSet.of([(3, 2), (4, 4)]))
        assert calls == [1, -1]
        calls.clear()
        build_free_set(4, 6, 6)
        assert len(calls) == 2 * 9  # one combine per (m, n) in 4..6


class TestBuildFreeSet:
    def test_3_4_4(self):
        ps = build_free_set(3, 4, 4)
        assert len(ps) == 6
        cert = verify_construction(ps, ("x", 3, 4, 4))
        assert cert.passes

    def test_exact_binomial_for_l3(self):
        for m in range(3, 7):
            for n in range(3, 7):
                ps = build_free_set(3, m, n)
                assert len(ps) == cup_cap_threshold(m, n) - 1

    def test_recursive_size_identity(self):
        for (m, n) in [(4, 4), (4, 5), (5, 4), (5, 5)]:
            whole = build_free_set(4, m, n)
            a = build_free_set(4, m - 1, n)
            b = build_free_set(4, m, n - 1)
            assert len(whole) == len(a) + len(b)

    def test_4_4_4(self):
        ps = build_free_set(4, 4, 4)
        assert len(ps) >= 8
        assert len(max_collinear(ps)) <= 3
        assert verify_construction(ps, ("x", 4, 4, 4)).passes

    def test_certificates_pass_small_sweep(self):
        for l in (3, 4):
            for m in range(3, 6):
                for n in range(3, 6):
                    ps = build_free_set(l, m, n)
                    cert = verify_construction(ps, ("x", l, m, n))
                    assert cert.passes, (l, m, n)
                    assert cert.size >= free_set_size_bound(l, m, n)

    def test_deterministic(self):
        assert build_free_set(4, 5, 5) == build_free_set(4, 5, 5)

    def test_collinear_cap_against_oracle(self):
        ps = build_free_set(4, 5, 5)
        assert oracles.brute_max_collinear(list(ps)) <= 3
        assert len(max_collinear(ps)) == oracles.brute_max_collinear(list(ps))


class TestBuildConvexFree:
    def test_sizes(self):
        assert len(build_convex_free(3, 6)) == 16
        assert len(build_convex_free(4, 6)) == 22
        assert len(build_convex_free(3, 7)) == 32

    def test_certificate_3_6(self):
        ps = build_convex_free(3, 6)
        cert = verify_construction(ps, ("es", 3, 6))
        assert cert.passes
        assert cert.max_convex_points <= 5
        assert cert.max_collinear_points <= 2

    def test_certificate_4_6(self):
        cert = verify_construction(build_convex_free(4, 6), ("es", 4, 6))
        assert cert.passes
        assert cert.max_convex_points <= 5
        assert cert.max_collinear_points <= 3

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            build_convex_free(3, 5)

    def test_one_placement_is_checked(self, monkeypatch):
        # the analytic scale always verifies, so the blocks are placed and
        # checked once, and a failing check raises at once
        calls = []

        def counted(hulls):
            calls.append(len(hulls))
            return _blocks_pairwise_ok(hulls)

        def failing(hulls):
            calls.append(len(hulls))
            return False

        monkeypatch.setattr("cupcap.constructions._blocks_pairwise_ok",
                            counted)
        build_convex_free(3, 7)
        assert calls == [4]  # one check of the n - 3 blocks
        calls.clear()
        monkeypatch.setattr("cupcap.constructions._blocks_pairwise_ok",
                            failing)
        with pytest.raises(ConstructionError, match="did not verify"):
            build_convex_free(3, 7)
        assert calls == [4]

    def test_free_part_prefixes_fall_at_most_three(self):
        # the docstring's slope bound: in its bounding box scaled to 1 x 1,
        # no two points of a prefix of a free part fall steeper than 3; the
        # parts come in x order, so the placement needs no sort
        for l in (3, 4, 5, 8):
            memo = {}
            for m in range(3, 8):
                for n in range(3, 8):
                    pts = _free_part(l, m, n, memo)[0]
                    x0, lo, hi = pts[0][0], pts[0][1], pts[0][1]
                    steepest = Fraction(0)
                    for k, (qx, qy) in enumerate(pts[1:], 1):
                        assert qx > pts[k - 1][0]
                        steepest = min(steepest, *(Fraction(qy - py, qx - px)
                                                   for px, py in pts[:k]))
                        lo, hi = min(lo, qy), max(hi, qy)
                        assert steepest * (qx - x0) >= -3 * (hi - lo), \
                            (l, m, n, k)

    def test_boxes_separate_for_every_n_under_the_cap(self):
        # the placement's margins on the blocks' s x s^2 boxes, whatever the
        # blocks hold, at every t = n - 3 blocks the point cap admits: a
        # line falling 3s per unit of x through one box passes above every
        # later box, and the corners of any three boxes turn right
        with pytest.raises(ValueError, match="over the cap"):
            build_convex_free(3, 22)  # larger l admits fewer points
        for t in range(3, 19):
            anchors, den, e = _arc_anchors(t)
            for (xi, yi), (xj, yj) in combinations(anchors, 2):
                # dy > 3s*(dx + s) + s^2 times den / s^2, s = 2^-e
                assert (yi - yj) << 2 * e > 3 * (xj - xi << e) + 4 * den
            boxes = [[((ax << e + 1) + dx, (ay << 2 * e) + dy)
                      for dx in (0, 2 * den) for dy in (0, den)]
                     for ax, ay in anchors]
            assert all(int_cross(p, q, r) < 0
                       for bi, bj, bk in combinations(boxes, 3)
                       for p in bi for q in bj for r in bk), t

    def test_max_convex_against_oracle(self):
        # oracle-check the exact DP on construction coordinates (12 of the
        # 16 points keep the subset enumeration tractable)
        from cupcap import max_convex_subset
        sub = build_convex_free(3, 6)[:12]
        assert len(max_convex_subset(sub)) == \
            oracles.brute_max_convex_subset(list(sub))


class TestAffineRobustness:
    def test_certificate_invariant_under_affine_map(self):
        ps = build_free_set(4, 4, 5)
        placed = PointSet(Point(3 * p.x - 11, p.y / 7 + 5) for p in ps)
        c0 = verify_construction(ps, ("x", 4, 4, 5))
        c1 = verify_construction(placed, ("x", 4, 4, 5))
        assert (c0.max_collinear_points, c0.longest_cup_points,
                c0.longest_cap_points, c0.passes) == \
               (c1.max_collinear_points, c1.longest_cup_points,
                c1.longest_cap_points, c1.passes)

    def test_normalize_preserves_orientations(self):
        rng = random.Random(4)
        ps = PointSet.of([(Fraction(rng.randrange(-50, 50), rng.randrange(1, 9)),
                           Fraction(rng.randrange(-50, 50), rng.randrange(1, 9)))
                          for _ in range(8)])
        out = normalize_integer_coords(ps)
        assert all(p.x.denominator == 1 and p.y.denominator == 1 for p in out)
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    assert orientation(ps[i], ps[j], ps[k]) == \
                        orientation(out[i], out[j], out[k])


class TestVerifyConstruction:
    def test_collinear_triple_fails_x_claim(self):
        bad = PointSet.of([(0, 0), (1, 1), (2, 2)])
        cert = verify_construction(bad, ("x", 3, 4, 4))
        assert not cert.no_collinear_ell
        assert not cert.passes

    def test_es_claim_checks_exact_size(self):
        ps = build_convex_free(3, 6)
        trimmed = ps[:15]
        cert = verify_construction(trimmed, ("es", 3, 6))
        assert not cert.passes  # size must be exact

    def test_unknown_claim(self):
        with pytest.raises(ValueError):
            verify_construction(PointSet.of([(0, 0)]), ("zzz", 1))
        # raised before any table: equal x-coordinates would fail there
        with pytest.raises(ValueError, match="unknown claim kind 'zzz'"):
            verify_construction(PointSet.of([(0, 0), (0, 1), (2, 2)]),
                                ("zzz", 3, 4, 4))
