import sys

import pytest

from cupcap import PointSet
from cupcap.espts import EsptsParseError, dumps, load_file, loads, save_file


def test_round_trip():
    ps = PointSet.of([(0, 0), ("1/2", -3), ("-7/3", "5/7")])
    assert loads(dumps(ps)) == ps


def test_round_trip_file(tmp_path):
    ps = PointSet.of([(i, i * i) for i in range(5)])
    path = tmp_path / "pts.espts"
    save_file(ps, str(path))
    assert load_file(str(path)) == ps


def test_comments_and_blanks():
    text = "espts v1\n# a comment\n\n0 1\n  # another\n2 3\n"
    assert loads(text) == PointSet.of([(0, 1), (2, 3)])


def test_missing_header():
    with pytest.raises(EsptsParseError):
        loads("0 1\n")


def test_malformed_token_reports_line():
    with pytest.raises(EsptsParseError) as err:
        loads("espts v1\n0 0\n1 x\n")
    assert err.value.line_no == 3


def test_wrong_arity_reports_line():
    with pytest.raises(EsptsParseError) as err:
        loads("espts v1\n0 0 0\n")
    assert err.value.line_no == 2


def test_not_lowest_terms_rejected():
    with pytest.raises(EsptsParseError) as err:
        loads("espts v1\n2/4 1\n")
    assert "lowest terms" in str(err.value)


def test_zero_denominator_rejected():
    with pytest.raises(EsptsParseError):
        loads("espts v1\n1/0 1\n")


def test_negative_and_signed():
    ps = loads("espts v1\n-1/2 +3\n")
    assert ps[0].x == -0.5 and ps[0].y == 3


def test_duplicate_points_rejected():
    with pytest.raises(EsptsParseError) as exc:
        loads("espts v1\n1 1\n1 1\n")
    assert exc.value.line_no == 3


@pytest.mark.parametrize("token", [
    "1" * (sys.get_int_max_str_digits() + 1) + "/3",
    "3/" + "1" * (sys.get_int_max_str_digits() + 1),
], ids=["numerator", "denominator"])
def test_number_over_int_digit_limit_reports_line(token):
    """A numerator or denominator longer than Python's digit limit for int
    conversion is a parse error that names the line and the limit."""
    with pytest.raises(EsptsParseError) as err:
        loads(f"espts v1\n0 0\n{token} 3\n")
    assert err.value.line_no == 3
    assert f"limit of {sys.get_int_max_str_digits()} digits" in str(err.value)


def test_writer_refuses_number_over_int_digit_limit():
    """The writer names the point whose coordinate Python cannot convert
    to a string, instead of failing with Python's anonymous error."""
    ps = PointSet.of([(1, 2), (10**5000, 0)])
    with pytest.raises(ValueError, match=r"^point 1: a coordinate exceeds "
                       rf"Python's limit of {sys.get_int_max_str_digits()}"):
        dumps(ps)
