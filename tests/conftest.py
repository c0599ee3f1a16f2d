import math
import random
import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

from cupcap import Point, PointSet

settings.register_profile(
    "default", deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("default")


def random_point_set(rng: random.Random, n: int, span: int = 1 << 20,
                     distinct_x: bool = True) -> PointSet:
    """Seeded random integer points, pairwise distinct (and distinct in x)."""
    pts, xs, seen = [], set(), set()
    while len(pts) < n:
        x, y = rng.randrange(span), rng.randrange(span)
        if (x, y) in seen or (distinct_x and x in xs):
            continue
        xs.add(x)
        seen.add((x, y))
        pts.append((x, y))
    return PointSet.of(pts)


def random_general_position(rng: random.Random, n: int,
                            span: int = 1 << 20) -> PointSet:
    """Seeded random set: distinct x, no three members collinear.

    A new point is rejected when any reduced direction to an existing
    point repeats up to sign (which would witness a collinear triple
    through it, also when it lies between the two).
    """
    pts: list[tuple[int, int]] = []
    xs: set[int] = set()
    while len(pts) < n:
        x, y = rng.randrange(span), rng.randrange(span)
        if x in xs:
            continue
        dirs = set()
        ok = True
        for px, py in pts:
            dx, dy = x - px, y - py
            if dx < 0:  # dx != 0: x-coordinates are distinct
                dx, dy = -dx, -dy
            g = math.gcd(dx, dy)
            d = (dx // g, dy // g)
            if d in dirs:
                ok = False
                break
            dirs.add(d)
        if ok:
            pts.append((x, y))
            xs.add(x)
    return PointSet.of(pts)
