"""Property tests: exact root counting against isolation, the canonical
print form against the parser, exact division against rational long
division, modular division by a monic divisor modulo composite moduli, and
the modular factoriser against the interpolation oracle.  Example counts stay
small and the search is derandomized so every run checks the same cases."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemrel.factorint import _gp_divmod, factor, kronecker_factor_oracle
from salemrel.parsing import parse_poly
from salemrel.polyarith import IntPoly, div_exact, format_poly
from salemrel.realroots import count_roots, isolate_roots

_PROPERTY = settings(max_examples=80, deadline=None, derandomize=True,
                     database=None)

_small_poly = st.lists(st.integers(-9, 9), max_size=6).map(
    lambda cs: IntPoly(tuple(cs)))
_nonzero_poly = _small_poly.filter(lambda p: not p.is_zero)


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


def _rational_div(p: IntPoly, q: IntPoly):
    """p/q by long division over Q; None unless exact with integer quotient."""
    num = [Fraction(c) for c in p.coeffs]
    den = q.coeffs
    dq = len(den) - 1
    if len(num) - 1 < dq:
        return IntPoly() if p.is_zero else None
    quo = [Fraction(0)] * (len(num) - dq)
    for k in range(len(quo) - 1, -1, -1):
        c = num[k + dq] / den[-1]
        quo[k] = c
        for i in range(dq + 1):
            num[k + i] -= c * den[i]
    if any(num) or any(c.denominator != 1 for c in quo):
        return None
    return IntPoly(tuple(int(c) for c in quo))


@_PROPERTY
@given(_small_poly, _nonzero_poly, st.sampled_from((1, -1, 2, 3, -4)),
       st.one_of(st.just(IntPoly()), _small_poly))
def test_div_exact_matches_rational_division(a, b, k, r):
    # a*b / (k*b) is exact over Q and integral iff k divides a's content;
    # a nonzero r mostly breaks exactness
    p, q = a * b + r, b * k
    expected = _rational_div(p, q)
    if expected is None:
        with pytest.raises(ValueError):
            div_exact(p, q)
    else:
        assert div_exact(p, q) == expected
    assert div_exact(a * b, b) == a


@_PROPERTY
@given(st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=10),
       st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=6),
       st.sampled_from((5 ** 8, 2 ** 64)))
def test_gp_divmod_monic_divisor_composite_modulus(a, b_low, m):
    b = [c % m for c in b_low] + [1]
    q, r = _gp_divmod(a, b, m)
    assert len(r) < len(b)
    diff = IntPoly(tuple(a)) - (IntPoly(tuple(q)) * IntPoly(tuple(b))
                                + IntPoly(tuple(r)))
    assert all(c % m == 0 for c in diff.coeffs)


_factor_poly = st.lists(st.integers(-5, 5), min_size=2, max_size=4).filter(
    lambda cs: cs[-1] != 0).map(lambda cs: IntPoly(tuple(cs)))


@_PROPERTY
@given(st.lists(_factor_poly, min_size=2, max_size=3)
       .filter(lambda fs: sum(f.degree for f in fs) <= 6))
def test_factor_matches_oracle_on_products(fs):
    p = IntPoly((1,))
    for f in fs:
        p = p * f
    assert factor(p) == kronecker_factor_oracle(p)
