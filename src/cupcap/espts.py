"""Reader/writer for the "espts v1" point-set text format.

Layout::

    espts v1
    # comment lines start with '#'
    0 0
    1/2 -3
    -7/3 5/7

The first line must be exactly ``espts v1``.  Every other non-empty,
non-comment line holds two whitespace-separated tokens, each an optionally
signed integer or a ``p/q`` rational in lowest terms with positive
denominator.  Parse errors report the offending 1-based line number.
"""

from __future__ import annotations

import math
import os
import re
import sys
import tempfile
from fractions import Fraction

from .geom import Point, PointSet

HEADER = "espts v1"

_TOKEN = re.compile(r"^[+-]?\d+(?:/\d+)?$")


class EsptsParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_int(digits: str, line_no: int) -> int:
    try:
        return int(digits)
    except ValueError:
        # _TOKEN admits only digits here, so int() refuses only on length
        raise EsptsParseError(
            line_no, f"a {len(digits.lstrip('+-'))}-digit number exceeds "
            f"Python's limit of {sys.get_int_max_str_digits()} digits for "
            "int conversion") from None


def _parse_token(tok: str, line_no: int) -> Fraction:
    if not _TOKEN.match(tok):
        raise EsptsParseError(line_no, f"malformed coordinate token {tok!r}")
    if "/" in tok:
        num_s, den_s = tok.split("/")
        num, den = _parse_int(num_s, line_no), _parse_int(den_s, line_no)
        if den == 0:
            raise EsptsParseError(line_no, f"zero denominator in {tok!r}")
        if math.gcd(abs(num), den) != 1:
            raise EsptsParseError(line_no, f"{tok!r} is not in lowest terms")
        return Fraction(num, den)
    return Fraction(_parse_int(tok, line_no))


def loads(text: str) -> PointSet:
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise EsptsParseError(1, f"missing {HEADER!r} header")
    points: dict[Point, int] = {}
    for idx, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EsptsParseError(idx, f"expected 'X Y', got {raw!r}")
        p = Point(_parse_token(parts[0], idx), _parse_token(parts[1], idx))
        if p in points:
            raise EsptsParseError(
                idx, f"duplicate point {p!r} (first on line {points[p]})")
        points[p] = idx
    return PointSet(points)


def dumps(ps: PointSet) -> str:
    """The espts text of a point set; a coordinate whose numerator or
    denominator has more digits than Python converts to a string is
    refused with a ValueError that names the point's 0-based index."""
    out = [HEADER]
    for i, p in enumerate(ps):
        try:
            out.append(f"{p.x} {p.y}")
        except ValueError:
            raise ValueError(
                f"point {i}: a coordinate exceeds Python's limit of "
                f"{sys.get_int_max_str_digits()} digits for int-to-string "
                "conversion") from None
    return "\n".join(out) + "\n"


def load_file(path: str) -> PointSet:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def save_file(ps: PointSet, path: str) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    write_text_atomic(path, dumps(ps))


def write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".espts-tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
