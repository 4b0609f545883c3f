import math
import random

import pytest

from salemrel.polyarith import (IntPoly, NotReciprocalError, OddDegreeError,
                                _divisors, _is_prime, div_exact, format_poly, norm_form,
                                pair_sum_lift, pair_sum_trace_poly, poly_gcd,
                                trace, trace_lift, trace_project)


def _laurent_trace_lift(g: IntPoly) -> IntPoly:
    """Independent oracle: expand x^s * g(x + 1/x) over a Laurent dict."""
    s = g.degree
    acc = {}
    for k, c in enumerate(g.coeffs):
        if c == 0:
            continue
        for j in range(k + 1):
            e = s + k - 2 * j
            acc[e] = acc.get(e, 0) + c * math.comb(k, j)
    acc = {e: c for e, c in acc.items() if c != 0}
    assert min(acc) >= 0, "lift left negative powers behind"
    coeffs = [0] * (max(acc) + 1)
    for e, c in acc.items():
        coeffs[e] = c
    return IntPoly(tuple(coeffs))


def _random_poly(rng, max_deg, lo=-9, hi=9):
    deg = rng.randrange(0, max_deg + 1)
    coeffs = [rng.randint(lo, hi) for _ in range(deg + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs[-1] = rng.randint(lo, hi)
    return IntPoly(tuple(coeffs))


def _random_monic(rng, max_deg):
    deg = rng.randrange(1, max_deg + 1)
    return IntPoly(tuple(rng.randint(-9, 9) for _ in range(deg)) + (1,))


# -- ring arithmetic ----------------------------------------------------------------


def test_basic_arithmetic_and_normalization():
    p = IntPoly((1, 2, 3))
    q = IntPoly((0, 1))
    assert (p + q).coeffs == (1, 3, 3)
    assert (p - p).is_zero
    assert (p * q).coeffs == (0, 1, 2, 3)
    assert IntPoly((1, 0, 0)).coeffs == (1,)  # trailing zeros trimmed
    assert IntPoly(()).is_zero
    assert p.degree == 2 and q.degree == 1 and IntPoly(()).degree == float("-inf")


def test_divmod_monic_euclidean():
    rng = random.Random(101)
    for _ in range(300):
        a = _random_poly(rng, 7)
        b = _random_monic(rng, 4)
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.degree < b.degree


def test_divmod_nonmonic_pseudo_identity():
    rng = random.Random(102)
    for _ in range(300):
        a = _random_poly(rng, 7)
        b = _random_poly(rng, 4)
        if b.is_zero or b.degree < 1:
            continue
        q, r = divmod(a, b)
        delta = max(a.degree - b.degree + 1, 0)
        lhs = a * (b.lc ** delta)
        assert lhs == q * b + r
        assert r.degree < b.degree


def test_reciprocal_is_multiplicative():
    rng = random.Random(103)
    for _ in range(1000):
        p = _random_poly(rng, 5)
        q = _random_poly(rng, 5)
        if p.is_zero or q.is_zero or p[0] == 0 or q[0] == 0:
            continue  # reciprocal drops x-divisible parts; keep it clean
        assert (p * q).reciprocal() == p.reciprocal() * q.reciprocal()


def test_div_exact():
    p = IntPoly((-1, 0, 1))
    q = IntPoly((1, 1))
    assert div_exact(p, q) == IntPoly((-1, 1))
    with pytest.raises(ValueError):
        div_exact(IntPoly((1, 1, 1)), IntPoly((1, 1)))


def test_is_prime_and_divisors_match_trial_division():
    for n in range(-5, 3000):
        divs = [d for d in range(1, abs(n) + 1) if n % d == 0]
        assert _divisors(n) == divs, n
        assert _is_prime(n) == (divs == [1, n]), n
    # Carmichael numbers, and strong pseudoprimes to the bases 2, 3, 5, 7
    # and to every prime base up to 23
    for n in (561, 41041, 3215031751, 3825123056546413051):
        assert not _is_prime(n)
    for q in (2 ** 31 - 1, 2 ** 61 - 1, 10 ** 18 + 9):
        assert _is_prime(q)
    # the least strong pseudoprime to every base up to 37 is refused
    with pytest.raises(ValueError):
        _is_prime(318665857834031151167461)


def test_poly_gcd_contains_common_factor():
    rng = random.Random(104)
    for _ in range(200):
        g = _random_monic(rng, 3)
        a = _random_poly(rng, 3)
        b = _random_poly(rng, 3)
        if a.is_zero or b.is_zero:
            continue
        d = poly_gcd(a * g, b * g)
        _, r = divmod(d, g)
        assert r.is_zero
        assert d.lc > 0


# -- trace transforms ---------------------------------------------------------------


def _random_trace_poly(rng, deg):
    """Degree deg, leading coefficient in {1, -1, 3, -7}, other coefficients
    below 10 or below 10**30 in absolute value."""
    bound = rng.choice((9, 10 ** 30))
    lc = rng.choice((1, -1, 3, -7))
    return IntPoly(tuple(rng.randint(-bound, bound) for _ in range(deg)) + (lc,))


def test_trace_lift_matches_laurent_oracle():
    rng = random.Random(105)
    for _ in range(500):
        g = _random_trace_poly(rng, rng.randrange(1, 61))
        assert trace_lift(g) == _laurent_trace_lift(g)


def test_trace_lift_known_values():
    assert trace_lift(IntPoly((-1, -4, 0, 1))).coeffs == (1, 0, -1, -1, -1, 0, 1)
    assert trace_lift(IntPoly((-2, -4, 0, 1))).coeffs == (1, 0, -1, -2, -1, 0, 1)
    assert trace_lift(IntPoly((-3, -5, 0, 1))).coeffs == (1, 0, -2, -3, -2, 0, 1)
    assert trace_lift(IntPoly((-7, -7, 0, 1))).coeffs == (1, 0, -4, -7, -4, 0, 1)


def test_trace_roundtrip_random():
    rng = random.Random(106)
    for i in range(1000):
        g = _random_trace_poly(rng, 1 + i % 60)  # every s in 1..60
        f = trace_lift(g)
        assert f.degree == 2 * g.degree
        assert f.reciprocal() == f
        assert trace_project(f) == g
    # s = 0: a nonzero constant is its own projection
    for c in (1, -7, 10 ** 30):
        assert trace_project(IntPoly((c,))) == IntPoly((c,))


def test_trace_project_errors():
    with pytest.raises(NotReciprocalError):
        trace_project(IntPoly((2, 0, 1)))
    with pytest.raises(OddDegreeError):
        trace_project(IntPoly((1, 0, 0, 1)))


def test_trace_values():
    assert trace(IntPoly((1, -3, 1))) == 3
    assert trace(IntPoly((1, 0, -4, -6, -2, 4, 7, 4, -2, -6, -4, 0, 1))) == 0
    with pytest.raises(ValueError):
        trace(IntPoly((1, 2)))  # not monic
    with pytest.raises(ValueError):
        trace(IntPoly((5,)))


def test_trace_preserved_by_projection():
    rng = random.Random(107)
    for _ in range(300):
        g = _random_monic(rng, 6)
        f = trace_lift(g)
        assert trace(f) == trace(g)


# -- window lift and norm form ------------------------------------------------------


def test_pair_sum_lift_known_values():
    f8 = pair_sum_lift(IntPoly((1, 4, 1)))
    assert f8.coeffs == (1, -2, 1, -2, 1, -2, 1, -2, 1)
    f8b = pair_sum_lift(IntPoly((2, 4, 1)))
    prod = IntPoly((1, 0, 0, 0, 1)) * IntPoly((1, -2, 1, -2, 1))
    assert f8b == prod
    h5 = IntPoly((-1, -1, 16, 22, 9, 1))
    f20 = pair_sum_lift(h5)
    assert f20.coeffs == (1, -5, 11, -19, 26, -29, 27, -19, 8, 1, -5,
                          1, 8, -19, 27, -29, 26, -19, 11, -5, 1)


def test_pair_sum_trace_poly_is_signed_composition():
    rng = random.Random(108)
    u = IntPoly((0, 1, -1))  # x(1-x)
    for _ in range(300):
        h = _random_monic(rng, 5)
        sign = -1 if h.degree % 2 else 1
        assert pair_sum_trace_poly(h) == h.compose(u) * sign
        assert pair_sum_lift(h) == trace_lift(pair_sum_trace_poly(h))


def test_norm_form_known_values():
    p = IntPoly((-3, -5, 0, 1))
    q = IntPoly((2, 1))
    assert norm_form(p, q, 2).coeffs == (1, 22, 23, -6, -10, 0, 1)
    assert norm_form(p, q, 3).coeffs == (-3, 18, 22, -6, -10, 0, 1)
    assert norm_form(p, q, 5).coeffs == (-11, 10, 20, -6, -10, 0, 1)


def test_norm_form_is_difference_of_squares():
    rng = random.Random(109)
    for _ in range(200):
        p = _random_monic(rng, 4)
        q = _random_poly(rng, p.degree - 1)
        if q.is_zero:
            continue
        assert norm_form(p, q, 7) == p * p - (q * q) * 7


def test_norm_form_rejects_bad_multiplier():
    p, q = IntPoly((-3, -5, 0, 1)), IntPoly((2, 1))
    for m in (0, -2, 4, 12):
        with pytest.raises(ValueError):
            norm_form(p, q, m)


# -- printing -----------------------------------------------------------------------


def test_format_poly_canonical_forms():
    assert format_poly(IntPoly(())) == "0"
    assert format_poly(IntPoly((-1, 1, 0, -2, 1))) == "x^4-2x^3+x-1"
    assert format_poly(IntPoly((5,))) == "5"
    assert format_poly(IntPoly((0, -1))) == "-x"
    assert format_poly(IntPoly((1, 0, 1))) == "x^2+1"
