"""Property tests: exact root counting against isolation, and the canonical
print form against the parser.  Example counts stay small and the search is
derandomized so every run checks the same cases."""

from hypothesis import given, settings
from hypothesis import strategies as st

from salemrel.parsing import parse_poly
from salemrel.polyarith import IntPoly, format_poly
from salemrel.realroots import count_roots, isolate_roots

_PROPERTY = settings(max_examples=80, deadline=None, derandomize=True,
                     database=None)


@_PROPERTY
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=9)
       .filter(any))
def test_count_roots_matches_isolation(coeffs):
    p = IntPoly(tuple(coeffs))
    assert count_roots(p, None, None) == len(isolate_roots(p))


@_PROPERTY
@given(st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=12))
def test_format_parse_round_trip(coeffs):
    p = IntPoly(tuple(coeffs))
    assert parse_poly(format_poly(p)) == p
