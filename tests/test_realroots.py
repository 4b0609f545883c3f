import math
import random
from fractions import Fraction

import numpy as np
import pytest

from salemrel.polyarith import IntPoly, trace_project
from salemrel.realroots import (EndpointIsRootError, RootBox, _kth_root_ceil,
                                count_roots, cubic_all_in_band,
                                cubic_salem_split, isolate_roots, refine,
                                root_bound, sqrt_interval, squarefree_part)

_REAL_TOL = 1e-9      # |imag| below this counts as a real root
_GUARD = 1e-4         # ambiguity band around endpoints and the real axis


def _float_real_roots(p: IntPoly):
    """Float approximations of the real roots, or None when ambiguous."""
    roots = np.roots(list(reversed(p.coeffs)))
    real = []
    for z in roots:
        if abs(z.imag) < _REAL_TOL:
            real.append(z.real)
        elif abs(z.imag) < _GUARD:
            return None  # too close to the axis to classify
    return sorted(real)


def _random_squarefree(rng, max_deg):
    while True:
        deg = rng.randrange(2, max_deg + 1)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
        p = IntPoly(tuple(coeffs))
        if squarefree_part(p).degree == p.primitive_part().degree:
            return p


# -- exact counting vs float oracle -------------------------------------------------


def test_count_roots_matches_float_oracle():
    rng = random.Random(2024)
    done = 0
    while done < 500:
        p = _random_squarefree(rng, 8)
        real = _float_real_roots(p)
        if real is None:
            continue
        lo = rng.randint(-8, 7)
        hi = rng.randint(lo + 1, 8)
        if any(abs(r - lo) < _GUARD or abs(r - hi) < _GUARD for r in real):
            continue
        inside = sum(1 for r in real if lo < r < hi)
        assert count_roots(p, lo, hi) == inside
        assert count_roots(p, None, None) == len(real)
        done += 1


def test_count_roots_golden_cases():
    g6 = trace_project(IntPoly((1, 0, -4, -6, -2, 4, 7, 4, -2, -6, -4, 0, 1)))
    assert g6.coeffs == (1, 22, 23, -6, -10, 0, 1)
    assert count_roots(g6, 2, None) == 1
    assert count_roots(g6, -2, 2) == 5
    assert count_roots(g6, None, None) == 6

    p = IntPoly((-6, 11, -6, 1))  # (x-1)(x-2)(x-3)
    assert count_roots(p, None, None) == 3
    assert count_roots(p, Fraction(3, 2), None) == 2
    assert count_roots(p, 0, Fraction(5, 2)) == 2


def test_count_roots_collapses_multiplicity():
    assert count_roots(IntPoly((1, -2, 1)), 0, 2) == 1  # (x-1)^2
    assert count_roots(IntPoly((0, 0, 1, 1)), None, None) == 2  # x^2(x+1)


def test_count_roots_endpoint_is_root():
    p = IntPoly((-1, 0, 1))
    with pytest.raises(EndpointIsRootError):
        count_roots(p, 1, 3)
    with pytest.raises(EndpointIsRootError):
        count_roots(p, -3, -1)
    for lo, hi in ((2, 2), (3, 1), (math.inf, None), (None, -math.inf),
                   (5, -math.inf)):
        with pytest.raises(ValueError, match="lo < hi required"):
            count_roots(p, lo, hi)


# -- isolation and refinement --------------------------------------------------------


def test_isolate_roots_disjoint_sorted_and_bracketing():
    rng = random.Random(2025)
    for _ in range(200):
        p = _random_squarefree(rng, 7)
        real = _float_real_roots(p)
        if real is None:
            continue
        boxes = isolate_roots(p)
        assert len(boxes) == count_roots(p, None, None)
        for prev, cur in zip(boxes, boxes[1:]):
            assert prev.hi <= cur.lo
        for box, approx in zip(boxes, real):
            assert box.lo - 1e-6 <= approx <= box.hi + 1e-6
            if box.exact is None:
                assert box.width <= 1
                assert box.poly.sign_at(box.lo) != box.poly.sign_at(box.hi)


def test_isolate_roots_exact_hits():
    boxes = isolate_roots(IntPoly((-1, 2)))  # 2x - 1
    assert len(boxes) == 1 and boxes[0].exact == Fraction(1, 2)

    boxes = isolate_roots(IntPoly((0, -1, 0, 1)))  # x^3 - x, bisection hits 0
    assert len(boxes) == 3
    assert boxes[1].exact == 0
    assert boxes[0].lo < -1 < boxes[0].hi
    assert boxes[2].lo < 1 < boxes[2].hi


def test_isolate_roots_steps_off_a_hit_root():
    # 3x^2 - x: the first midpoint, 0, is a root; 1/3, which no midpoint
    # hits, gets a box with a strict sign change, not an exact one
    p = IntPoly((0, -1, 3))
    zero, third = isolate_roots(p)
    assert zero.exact == 0
    assert third.exact is None
    assert 0 < third.lo < Fraction(1, 3) < third.hi <= third.lo + 1
    assert p.sign_at(third.lo) * p.sign_at(third.hi) < 0


def test_refine_shrinks_and_nests(deg12_cert):
    for box in deg12_cert.beta_boxes:
        tight = refine(box, Fraction(1, 1 << 40))
        assert tight.exact is not None or tight.width <= Fraction(1, 1 << 40)
        assert box.lo <= tight.lo and tight.hi <= box.hi


def test_refine_exact_collapse():
    box = RootBox(IntPoly((-1, 0, 1)), Fraction(0), Fraction(2))
    tight = refine(box, Fraction(1, 1 << 10))
    assert tight.exact == 1
    assert refine(tight, Fraction(1, 1 << 60)) is tight


def test_rootbox_constructor_validation():
    p = IntPoly((-1, 0, 1))
    with pytest.raises(ValueError):
        RootBox(p, Fraction(2), Fraction(1))  # empty interval
    with pytest.raises(ValueError):
        RootBox(p, Fraction(1), Fraction(2))  # endpoint is a root
    with pytest.raises(ValueError):
        RootBox(p, Fraction(2), Fraction(3))  # no sign change
    with pytest.raises(ValueError):
        RootBox(p, Fraction(0), Fraction(2), exact=Fraction(1, 2))


def test_root_bound_contains_all_real_roots():
    rng = random.Random(2026)
    for _ in range(200):
        p = _random_squarefree(rng, 8)
        bound = root_bound(p)
        assert count_roots(p, -bound, bound) == count_roots(p, None, None)


def _kth_root_ceil_reference(m, k):
    """Smallest t >= 0 with t**k >= m, by bisection on that predicate."""
    lo, hi = 0, max(m, 0)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** k >= m:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_kth_root_ceil_matches_reference():
    big = 10 ** 400  # far past the float range
    grid = list(range(-3, 300)) + [big - 1, big, big + 1, 2 ** 1000,
                                   (10 ** 40 + 1) ** 3]
    for k in range(1, 13):
        for m in grid:
            assert _kth_root_ceil(m, k) == _kth_root_ceil_reference(m, k)
    assert _kth_root_ceil(big, 8) == 10 ** 50


# -- cubic window predicates vs exact counting ---------------------------------------


def _cubic(a, b):
    return IntPoly((b, -a, 0, 1))


def _counts(p, lo, hi):
    try:
        return count_roots(p, lo, hi)
    except EndpointIsRootError:
        return None  # boundary root: predicate must reject


def test_cubic_predicates_match_sturm_on_box():
    for a in range(-15, 16):
        for b in range(-15, 16):
            h = _cubic(a, b)
            inner = _counts(h, -2, 2)
            all_in = inner == 3 and squarefree_part(h).degree == 3
            assert cubic_all_in_band(a, b) == all_in, (a, b)
            split = (
                inner == 2
                and _counts(h, 2, None) == 1
                and squarefree_part(h).degree == 3
            )
            assert cubic_salem_split(a, b) == split, (a, b)


# -- square-root rational bounds ------------------------------------------------------


def test_sqrt_interval_bounds_and_width():
    for m in (2, 3, 5, 7, 21, Fraction(1, 2), Fraction(9, 4)):
        lo, hi = sqrt_interval(Fraction(m), Fraction(m), 64)
        assert lo * lo <= m <= hi * hi
        assert hi - lo <= Fraction(1, 1 << 62)
    lo, hi = sqrt_interval(Fraction(4), Fraction(4), 64)
    assert lo <= 2 <= hi
    with pytest.raises(ValueError):
        sqrt_interval(Fraction(-1), Fraction(1))
    with pytest.raises(ValueError):
        sqrt_interval(Fraction(3), Fraction(2))


def test_sqrt_interval_spans_input_interval():
    lo, hi = sqrt_interval(Fraction(2), Fraction(3), 32)
    assert lo * lo <= 2 and 3 <= hi * hi
    assert float(lo) == pytest.approx(2 ** 0.5, abs=1e-6)
    assert float(hi) == pytest.approx(3 ** 0.5, abs=1e-6)
