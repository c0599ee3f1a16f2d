"""Closed-form bound evaluators and their configuration.

All values are exact rationals (or exact integers).  The constants ``c``,
``c1``, ``big_c``, and ``epsilon`` are free configuration parameters: the
bounds that depend on them are reported "conditional on the configured
constants" and never asserted as unconditional facts.  Only ``c`` and
``big_c`` enter a bound; ``c1`` and ``epsilon`` are validated and written
into ``bound_table``'s ``config``, and nothing else reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Largest maxmn bound_table accepts: (maxmn - 2)**2 cup/cap rows, about
# 11.5 MB of JSON at the cap.
_MAX_MAXMN = 200


def comb0(n: int, k: int) -> int:
    """Binomial coefficient with the zero convention outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class BoundsConfig:
    """Free constants for the conditional bounds.

    Defaults are placeholders for experimentation; nothing in the library
    treats them as proven values.  ``c1`` and ``epsilon`` enter no bound:
    they are only validated and reported in ``bound_table``'s ``config``.
    """

    c: Fraction = Fraction(100)        # cup/cap upper bound multiplier
    c1: Fraction = Fraction(1)         # fat-cap population constant
    big_c: Fraction = Fraction(2)      # exponent constant in the convex upper bound
    epsilon: Fraction = Fraction(1, 10)  # line-counting density constant

    def __post_init__(self):
        for name in ("c", "c1", "big_c", "epsilon"):
            v = getattr(self, name)
            if v <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.epsilon >= 1:
            raise ValueError("epsilon must be < 1")


def cup_cap_threshold(m: int, n: int) -> int:
    """Minimum N forcing an m-cup or n-cap in every N-point general-position
    set: binomial(m+n-4, n-2) + 1."""
    if m < 3 or n < 3:
        raise ValueError("cup/cap sizes must be >= 3")
    return comb0(m + n - 4, n - 2) + 1


def cup_cap_upper_bound(l: int, m: int, n: int,
                        cfg: BoundsConfig = BoundsConfig()) -> Fraction:
    """Conditional upper bound c*(min(m-1, n-1) + l)*binomial(m+n-4, n-2)
    for the collinearity-tolerant cup/cap threshold."""
    if min(l, m, n) < 3:
        raise ValueError("l, m, n must all be >= 3")
    return cfg.c * (min(m - 1, n - 1) + l) * comb0(m + n - 4, n - 2)


def free_set_size_bound(l: int, m: int, n: int) -> Fraction:
    """Guaranteed size of a set with no l collinear points, no m-cup, and
    no n-cap: (l-1)/2 * C(m+n-4, n-2) - (l-3)/2 * C(m+n-6, n-3)."""
    if min(l, m, n) < 3:
        raise ValueError("l, m, n must all be >= 3")
    return (Fraction(l - 1, 2) * comb0(m + n - 4, n - 2)
            - Fraction(l - 3, 2) * comb0(m + n - 6, n - 3))


def convex_forcing_lower(l: int, n: int) -> Fraction:
    """(3l-1)*2^(n-5) + 1: sets below this size exist with no l collinear
    points and no n points in convex position."""
    if l < 3 or n < 3:
        raise ValueError("l, n must be >= 3")
    return (3 * l - 1) * Fraction(2) ** (n - 5) + 1


def _ceil_sqrt(x: int) -> int:
    s = math.isqrt(x)
    return s if s * s == x else s + 1


def convex_forcing_upper(l: int, n: int,
                         cfg: BoundsConfig = BoundsConfig()) -> int:
    """Conditional upper bound l^2 * 2^(n + big_c*sqrt(n log n)).

    Evaluated as an exact integer that dominates the real-valued formula:
    log base 2, with sqrt and the big_c product rounded up.
    """
    if l < 3 or n < 3:
        raise ValueError("l, n must be >= 3")
    log2n_ceil = (n - 1).bit_length()
    root = _ceil_sqrt(n * log2n_ceil)
    exponent = n + math.ceil(cfg.big_c * root)
    return l * l * 2 ** exponent


def bound_table(l: int, maxmn: int,
                cfg: BoundsConfig = BoundsConfig()) -> dict:
    """All bound rows for cup/cap sizes up to maxmn.

    ``cup_cap`` rows carry, per (m, n): the exact general-position
    threshold, the conditional collinearity-tolerant upper bound, and the
    constructive lower bound.  ``convex`` rows carry, per n: the exact
    constructive lower bound and the conditional upper bound for forcing n
    points in convex position.
    """
    if l < 3 or maxmn < 3:
        raise ValueError("l and maxmn must be >= 3")
    if maxmn > _MAX_MAXMN:
        raise ValueError(f"maxmn {maxmn} is over the cap of {_MAX_MAXMN}")
    cup_cap = []
    for m in range(3, maxmn + 1):
        for n in range(3, maxmn + 1):
            cup_cap.append({
                "m": m,
                "n": n,
                "general_position_threshold": cup_cap_threshold(m, n),
                "upper_conditional": cup_cap_upper_bound(l, m, n, cfg),
                "free_set_lower": free_set_size_bound(l, m, n),
            })
    convex = []
    for n in range(3, maxmn + 1):
        convex.append({
            "n": n,
            "lower": convex_forcing_lower(l, n),
            "upper_conditional": convex_forcing_upper(l, n, cfg),
        })
    return {
        "l": l,
        "config": {
            "c": cfg.c,
            "c1": cfg.c1,
            "big_c": cfg.big_c,
            "epsilon": cfg.epsilon,
        },
        "cup_cap": cup_cap,
        "convex": convex,
    }
