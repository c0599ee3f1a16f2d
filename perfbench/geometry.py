"""Seeded input generators and independent exact checks.

Nothing here imports cupcap: the checks recompute every geometric fact
from raw cross products, so a wrong answer from the library cannot pass
by agreeing with itself.  Points are anything with exact ``x`` and ``y``
attributes, or ``(x, y)`` pairs of ints.
"""

from __future__ import annotations

import math
from itertools import combinations


def general_position(rng, n: int,
                     span: int = 1 << 20) -> list[tuple[int, int]]:
    """n points with distinct x, no three collinear, coordinates < span."""
    pts: list[tuple[int, int]] = []
    xs: set[int] = set()
    while len(pts) < n:
        x, y = rng.randrange(span), rng.randrange(span)
        if x in xs:
            continue
        dirs = set()
        for px, py in pts:
            dx, dy = x - px, y - py
            g = math.gcd(dx, dy)
            d = (dx // g, dy // g)
            if d[0] < 0 or (d[0] == 0 and d[1] < 0):
                d = (-d[0], -d[1])
            if d in dirs:
                break
            dirs.add(d)
        else:
            pts.append((x, y))
            xs.add(x)
    return pts


def cloud(rng, n: int, span: int = 1 << 20) -> list[tuple[int, int]]:
    """n distinct points with distinct x, coordinates < span."""
    pts, xs = [], set()
    while len(pts) < n:
        x, y = rng.randrange(span), rng.randrange(span)
        if x not in xs:
            xs.add(x)
            pts.append((x, y))
    return pts


def distinct_points(rng, n: int, xr: tuple[int, int],
                    yr: tuple[int, int]) -> list[tuple[int, int]]:
    """n distinct lattice points in the boxes ``range(*xr) x range(*yr)``,
    sorted."""
    pts: set[tuple[int, int]] = set()
    while len(pts) < n:
        pts.add((rng.randrange(*xr), rng.randrange(*yr)))
    return sorted(pts)


def espts_text(pts) -> str:
    return "espts v1\n" + "".join(f"{x} {y}\n" for x, y in pts)


def espts_points(text: str) -> list[tuple[str, str]]:
    lines = text.splitlines()[1:]
    return [tuple(ln.split()) for ln in lines if ln.strip()
            and not ln.startswith("#")]


def token_bits(tok: str) -> int:
    num, _, den = tok.lstrip("+-").partition("/")
    return max(int(num).bit_length(), int(den or 1).bit_length())


def coord_bits(pts) -> int:
    """Largest numerator or denominator bit length over the coordinates."""
    best = 0
    for p in pts:
        for v in (p.x, p.y):
            best = max(best, abs(v.numerator).bit_length(),
                       v.denominator.bit_length())
    return best


# ---------------------------------------------------------------------------
# exact predicates


def _xy(p):
    return (p.x, p.y) if hasattr(p, "x") else p


def cross(o, a, b):
    (ox, oy), (ax, ay), (bx, by) = _xy(o), _xy(a), _xy(b)
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def is_chain(pts, sign: int) -> bool:
    """Cup (sign +1) or cap (sign -1): distinct x, every turn strict."""
    pts = sorted(pts, key=lambda p: _xy(p)[0])
    if len(pts) < 2 or any(_xy(a)[0] == _xy(b)[0]
                           for a, b in zip(pts, pts[1:])):
        return False
    return all(cross(pts[i], pts[i + 1], pts[i + 2]) * sign > 0
               for i in range(len(pts) - 2))


def is_collinear(pts) -> bool:
    pts = list(pts)
    return len(pts) >= 2 and all(cross(pts[0], pts[1], p) == 0
                                 for p in pts[2:])


def _on_segment(p, a, b) -> bool:
    (px, py), (ax, ay), (bx, by) = _xy(p), _xy(a), _xy(b)
    return (cross(a, b, p) == 0 and min(ax, bx) <= px <= max(ax, bx)
            and min(ay, by) <= py <= max(ay, by))


def in_hull(p, pts) -> bool:
    """Closed containment of p in conv(pts), by triangles and segments."""
    pts = list(pts)
    if any(_xy(q) == _xy(p) for q in pts):
        return True
    for a, b in combinations(pts, 2):
        if _on_segment(p, a, b):
            return True
    for a, b, c in combinations(pts, 3):
        d = (cross(a, b, p), cross(b, c, p), cross(c, a, p))
        if not (min(d) < 0 < max(d)):
            if cross(a, b, c) != 0:
                return True
    return False


def _segments_meet(a, b, c, d) -> bool:
    d1, d2 = cross(a, b, c), cross(a, b, d)
    d3, d4 = cross(c, d, a), cross(c, d, b)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return (_on_segment(c, a, b) or _on_segment(d, a, b)
            or _on_segment(a, c, d) or _on_segment(b, c, d))


def hulls_meet(a_pts, b_pts) -> bool:
    """Closed convex hulls of two small sets intersect."""
    if any(in_hull(p, b_pts) for p in a_pts):
        return True
    if any(in_hull(p, a_pts) for p in b_pts):
        return True
    return any(_segments_meet(a, b, c, d)
               for a, b in combinations(a_pts, 2)
               for c, d in combinations(b_pts, 2))


def is_inner_cap(sub, body) -> bool:
    """No member lies in the hull of the body and the other members."""
    sub = list(sub)
    return all(not in_hull(x, sub[:i] + sub[i + 1:] + list(body))
               for i, x in enumerate(sub))


def is_outer_cup(sub, body) -> bool:
    """Each member with the body is disjoint from the other members' hull."""
    sub = list(sub)
    return all(not hulls_meet([x, *body], sub[:i] + sub[i + 1:])
               for i, x in enumerate(sub))


def line_meets_body(p, q, body) -> bool:
    """The line through p and q touches or crosses conv(body)."""
    signs = {(cross(p, q, v) > 0) - (cross(p, q, v) < 0) for v in body}
    return 0 in signs or len(signs) > 1
