import random

import pytest

from salemrel.parsing import EmptyInput, parse_poly
from salemrel.polyarith import IntPoly, format_poly


def _offset(excinfo) -> int:
    return excinfo.value.offset


# -- accepted grammar -------------------------------------------------------------------


def test_term_form_goldens():
    assert parse_poly("x^4-2x^3+x-1").coeffs == (-1, 1, 0, -2, 1)
    assert parse_poly("x").coeffs == (0, 1)
    assert parse_poly("-x").coeffs == (0, -1)
    assert parse_poly("7").coeffs == (7,)
    assert parse_poly("-12").coeffs == (-12,)
    assert parse_poly("x^6-10x^4-6x^3+23x^2+22x+1").coeffs == (1, 22, 23, -6,
                                                               -10, 0, 1)


def test_whitespace_insignificant():
    assert parse_poly(" x ^ 2 + 1 ").coeffs == (1, 0, 1)
    assert parse_poly("3 + 2x").coeffs == (3, 2)
    assert parse_poly("\tx^2\n- 1").coeffs == (-1, 0, 1)


def test_repeated_powers_accumulate():
    assert parse_poly("2x^2+3x^2").coeffs == (0, 0, 5)
    assert parse_poly("x - x").coeffs == ()
    assert parse_poly("x^0+1").coeffs == (2,)


def test_bracket_form():
    assert parse_poly("[1, 0, 1]").coeffs == (1, 0, 1)
    assert parse_poly("[-1,1]").coeffs == (-1, 1)
    assert parse_poly("[0]").coeffs == ()
    assert parse_poly("[1,0,0]").coeffs == (1,)  # trailing zeros normalize


# -- rejected inputs --------------------------------------------------------------------


def test_empty_input():
    with pytest.raises(EmptyInput):
        parse_poly("")
    with pytest.raises(EmptyInput):
        parse_poly("   \t ")


def test_negative_exponent_offset():
    with pytest.raises(SyntaxError) as ei:
        parse_poly("x^-1")
    assert _offset(ei) == 2


def test_error_offsets():
    cases = {
        "[]": 1,
        "[1,]": 3,
        "x+": 2,
        "2*x": 1,
        "x^": 2,
        "^2": 0,
        "1..2": 1,
        # digits to str.isdigit, but not to int()
        "x^²": 2,
        "[²]": 1,
    }
    for text, offset in cases.items():
        with pytest.raises(SyntaxError) as ei:
            parse_poly(text)
        assert _offset(ei) == offset, text
        assert ei.value.text == text


# -- round trips ------------------------------------------------------------------------


def test_display_round_trip_random():
    rng = random.Random(515)
    for _ in range(1000):
        deg = rng.randrange(0, 9)
        coeffs = [rng.randint(-99, 99) for _ in range(deg + 1)]
        p = IntPoly(tuple(coeffs))
        assert parse_poly(format_poly(p)) == p


def test_bracket_round_trip_random():
    rng = random.Random(516)
    for _ in range(300):
        deg = rng.randrange(0, 9)
        p = IntPoly(tuple(rng.randint(-99, 99) for _ in range(deg + 1)))
        text = "[" + ",".join(str(c) for c in p.coeffs) + "]"
        if p.is_zero:
            text = "[0]"
        assert parse_poly(text) == p
