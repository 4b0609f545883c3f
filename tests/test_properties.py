"""Property tests: exact root counting against isolation, the integer
evaluation kernel of realroots (interval Horner, bisection and its
quadratic-interval-refinement jumps, Sturm sign variations, the placement
reading, the float-guided beta boxes against the Sturm path's) and the
window search's pruning bounds against
rational-arithmetic references, the canonical print form against the
parser, exact division against rational long division, modular
division by a monic divisor modulo composite moduli, the Kronecker
product kernel and the packed modular multiplication, division and
fixed-modulus powering against schoolbook copies, poly_gcd and its
remainder sequence against Euclid over the rationals, the modular
factoriser and its placement shortcut (on trace lifts) against the
interpolation oracle, and
the integer relation screen against per-vector rational interval sums.
Example counts stay small and the search is derandomized so every run
checks the same cases."""

import math
import struct
import sys
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from salemrel import polyarith, realroots, relations, salemkit
from salemrel.factorint import (_SLOT_CODES, _gp_divmod, _gp_mul,
                                _gp_powmod, _gp_reducer, _kron_mul, factor,
                                kronecker_factor_oracle)
from salemrel.cyclo import seq_poly
from salemrel.parsing import parse_poly
from salemrel.polyarith import (IntPoly, _primitive_prs, _scaled_value,
                                div_exact, format_poly, poly_gcd,
                                trace_lift, trace_project)
from salemrel.realroots import (NEG_INF, POS_INF, RootBox, _chain_at,
                                _chain_values, _common_den, _scaled_range,
                                _sqf_and_chain, count_roots, isolate_roots,
                                refine, root_bound, squarefree_part)
from salemrel.relations import _sum_interval, _survivors
from salemrel.salemkit import (FAMILIES, _interlacing_range, _window_range,
                               family_degree_shift, salem_check,
                               trace0_salem, window_poly_search)

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


def _fraction_poly_range(p: IntPoly, lo: Fraction, hi: Fraction):
    """Interval Horner in rationals: the reference for _scaled_range."""
    rlo = rhi = Fraction(0)
    for c in reversed(p.coeffs):
        a, b, cc, d = rlo * lo, rlo * hi, rhi * lo, rhi * hi
        rlo = min(a, b, cc, d) + c
        rhi = max(a, b, cc, d) + c
    return rlo, rhi


# dyadic and non-dyadic endpoints
_rational = st.builds(Fraction, st.integers(-40, 40),
                      st.sampled_from((1, 2, 3, 4, 5, 8, 12, 64)))


@_PROPERTY
@given(_small_poly, _rational, _rational)
# between them these two make each of the four products the min and the max
@example(IntPoly((5, 2, 1, 7)), Fraction(-4), Fraction(-3, 2))
@example(IntPoly((-6, -9, 4, -1)), Fraction(1, 2), Fraction(3, 2))
def test_scaled_range_matches_rational_interval_horner(p, a, b):
    lo, hi = min(a, b), max(a, b)
    rlo, rhi, scale = _scaled_range(p.coeffs, *_common_den(lo, hi))
    assert scale > 0
    assert (Fraction(rlo, scale), Fraction(rhi, scale)) == \
        _fraction_poly_range(p, lo, hi)


def _ceil_gt(x: Fraction) -> int:
    """Smallest integer strictly greater than x."""
    return math.floor(x) + 1


def _floor_lt(x: Fraction) -> int:
    """Largest integer strictly less than x."""
    return math.ceil(x) - 1


def _fraction_window_bounds(base: IntPoly, slope: int, boxes, lo: int,
                            hi: int, minus2: bool):
    """The window search's pruning bounds in rationals, by the Fraction
    formulas: the reference for _window_range and _interlacing_range, as
    (weak range, interlacing range)."""
    lo = max(lo, _ceil_gt(-base.eval_fraction(Fraction(1, 4)) / slope))
    m = base.degree
    # (-1)^m * D(-6) > 0, and (-1)^(m-1) * D(-2) > 0 when minus2 is set
    for x, sign in [(-6, (-1) ** m)] + [(-2, (-1) ** (m - 1))] * minus2:
        val = base.eval_fraction(x)
        if sign > 0:
            lo = max(lo, _ceil_gt(-val / slope))
        else:
            hi = min(hi, _floor_lt(-val / slope))
    ranges = [_fraction_poly_range(base, a, b) for a, b in boxes]
    for idx, (elo, ehi) in enumerate(ranges):
        if idx % 2 == 0:
            hi = min(hi, math.floor(-elo / slope))
        else:
            lo = max(lo, math.ceil(-ehi / slope))
    ilo, ihi = lo, hi
    for idx, (elo, ehi) in enumerate(ranges):
        if idx % 2 == 0:
            ihi = min(ihi, _floor_lt(-ehi / slope))
        else:
            ilo = max(ilo, _ceil_gt(-elo / slope))
    return (lo, hi), (ilo, ihi)


# integer triples (ln, hn, den), reduced or not, with dyadic and non-dyadic
# denominators
_triple = st.builds(lambda a, b, den: (min(a, b), max(a, b), den),
                    st.integers(-400, 400), st.integers(-400, 400),
                    st.sampled_from((1, 2, 3, 4, 5, 8, 12, 64, 96, 256)))


@_PROPERTY
@given(st.lists(st.integers(-60, 60), min_size=1, max_size=5)
       .filter(lambda cs: cs[-1] != 0),
       st.sampled_from((1, 2, 6, 24, 7)),
       st.lists(_triple, max_size=4),
       st.integers(-80, 0), st.integers(0, 80), st.booleans())
@example([4, 6, 4, 1], 1, [(-30, -20, 8), (-3, 1, 4), (2, 5, 96)], -20, 20,
         True)
def test_window_bounds_match_fraction_formulas(coeffs, slope, triples, lo,
                                               hi, minus2):
    base = (0, *coeffs)
    boxes = [(Fraction(a, den), Fraction(b, den)) for a, b, den in triples]
    ranges = [_scaled_range(base, *t) for t in triples]
    ref = IntPoly(base)
    for (rlo, rhi, scale), (a, b) in zip(ranges, boxes):
        assert (Fraction(rlo, scale), Fraction(rhi, scale)) == \
            _fraction_poly_range(ref, a, b)
    weak, inter = _fraction_window_bounds(ref, slope, boxes, lo, hi, minus2)
    assert _window_range(base, slope, ranges, lo, hi, minus2) == weak
    assert _interlacing_range(ranges, slope, *weak) == inter


def _fraction_refine(p: IntPoly, lo: Fraction, hi: Fraction, eps: Fraction):
    """Bisection in rationals: the reference for refine, as (lo, hi, exact)."""
    if hi - lo < eps:
        return lo, hi, None
    s_lo = p.sign_at(lo)
    while hi - lo >= eps:
        mid = (lo + hi) / 2
        sm = p.sign_at(mid)
        if sm == 0:
            return mid, mid, mid
        if sm == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi, None


# products of linear factors with small rational roots, so that bisection
# midpoints can land on a root, times a factor that may add irrational roots
_root_poly = st.tuples(
    st.lists(st.tuples(st.integers(-8, 8), st.sampled_from((1, 2, 3, 4, 8))),
             min_size=1, max_size=3),
    st.sampled_from((IntPoly((1,)), IntPoly((-2, 0, 1)), IntPoly((-1, -1, 1)))),
).map(lambda t: _product([IntPoly((-a, b)) for a, b in t[0]] + [t[1]]))


def _product(fs):
    p = IntPoly((1,))
    for f in fs:
        p = p * f
    return p


@_PROPERTY
@given(_root_poly, _rational, _rational,
       st.sampled_from((Fraction(1, 64), Fraction(1, 3 ** 5),
                        Fraction(1, 1 << 20), Fraction(7, 10))))
@example(_product([IntPoly((-1, 4)), IntPoly((-2, 0, 1))]), Fraction(0),
         Fraction(1), Fraction(1, 64))
def test_refine_matches_rational_bisection(p, a, b, eps):
    lo, hi = min(a, b), max(a, b)
    assume(p.degree >= 2 and lo < hi)
    assume(p.sign_at(lo) * p.sign_at(hi) < 0)
    box = refine(RootBox(p, lo, hi), eps)
    assert (box.lo, box.hi, box.exact) == _fraction_refine(p, lo, hi, eps)
    assert box.den > 0
    assert Fraction(box.ln, box.den) == box.lo
    assert Fraction(box.hn, box.den) == box.hi


def _plain_bisect(p: IntPoly, ln: int, hn: int, den: int, en: int, ed: int):
    """Bisection of (ln/den, hn/den) to a width below en/ed, one rational
    sign test of p per halving, with `_bisect`'s shortcut to the root of a
    linear p: the reference for the jump path, as an (ln, hn, den) triple."""
    if p.degree == 1:
        c0, c1 = p.coeffs
        return (-c0, -c0, c1) if c1 > 0 else (c0, c0, -c1)
    s_lo = p.sign_at(Fraction(ln, den))
    while (hn - ln) * ed >= en * den:
        mn, ln, hn, den = ln + hn, 2 * ln, 2 * hn, 2 * den
        sm = p.sign_at(Fraction(mn, den))
        if sm == 0:
            return mn, mn, den
        if sm == s_lo:
            ln = mn
        else:
            hn = mn
    return ln, hn, den


# products of linear factors b*x - a, whose roots can sit on a point of a
# box's bisection grid, and of irreducible factors with irrational roots
# or none
_IRREDUCIBLE = (IntPoly((-2, 0, 1)), IntPoly((-1, -1, 1)),
                IntPoly((-1, -1, 0, 1)), IntPoly((1, 1, 1)),
                IntPoly((-3, 0, 0, 0, 1)))
_one_root_poly = st.tuples(
    st.lists(st.tuples(st.integers(-16, 16),
                       st.sampled_from((1, 2, 3, 4, 8, 16, 64))),
             max_size=3),
    st.lists(st.sampled_from(_IRREDUCIBLE), max_size=2, unique=True),
).map(lambda t: _product([IntPoly((-a, b)) for a, b in t[0]] + t[1]))


@_PROPERTY
@given(_one_root_poly, st.integers(0, 99),
       st.one_of(st.integers(1, 24),
                 st.sampled_from((Fraction(1, 64), Fraction(1, 3 ** 5),
                                  Fraction(7, 10), Fraction(1, 1 << 300)))))
# rational roots on grid points of the box at levels 1, 4 and 7, of a
# non-dyadic box at level 3, and one finer than the target; 13/16 is met
# by a jump's second test, at level 7, and returned at level 4
@example(_product([IntPoly((-1, 2)), IntPoly((-2, 0, 1))]), (0, 1),
         Fraction(1, 1 << 20))
@example(_product([IntPoly((-5, 16)), IntPoly((-2, 0, 1))]), (0, 1),
         Fraction(1, 1 << 20))
@example(_product([IntPoly((-45, 128)), IntPoly((1, 1, 1))]), (0, 1), 12)
@example(_product([IntPoly((-13, 16)), IntPoly((-2, 0, 1))]), (0, 1),
         Fraction(1, 1 << 20))
@example(_product([IntPoly((-15, 8)), IntPoly((1, 1, 1))]), (0, 3),
         Fraction(1, 1 << 20))
@example(_product([IntPoly((-1, 1 << 30)), IntPoly((-2, 0, 1))]), (0, 1),
         Fraction(1, 1 << 20))
# a linear polynomial, whose root comes back at once
@example(IntPoly((-1, 3)), (0, 1), Fraction(1, 1 << 20))
# targets one, two and three halvings away, and one at 2^-4096
@example(IntPoly((-2, 0, 1)), (1, 2), 1)
@example(IntPoly((-2, 0, 1)), (1, 2), 2)
@example(IntPoly((-2, 0, 1)), (1, 2), 3)
@example(IntPoly((-1, -1, 0, 1)), (1, 2), Fraction(1, 1 << 4096))
def test_jump_bisect_matches_plain_bisection(p, where, target):
    """On a box proved to hold one root, the jump path of `_bisect` (and
    `refine`, which takes it) returns plain bisection's triple.  where is
    an explicit box, whose one root a Sturm count proves, or picks one of
    isolate_roots(p); a target t > 0 of type int asks for t halvings."""
    sqf = squarefree_part(p)
    if isinstance(where, tuple):
        lo, hi = map(Fraction, where)
        assert count_roots(sqf, lo, hi) == 1
        ln, hn, den = _common_den(lo, hi)
    else:
        boxes = [b for b in isolate_roots(p) if b.exact is None]
        assume(boxes)
        box = boxes[where % len(boxes)]
        assert box.poly == sqf
        ln, hn, den = box.ln, box.hn, box.den
    # t halvings: width/2^(t-1) >= eps > width/2^t
    eps = (Fraction(3 * (hn - ln), den << (target + 1))
           if isinstance(target, int) else target)
    en, ed = eps.numerator, eps.denominator
    coeffs = sqf.coeffs
    v_lo = _scaled_value(coeffs, ln, den)
    expected = _plain_bisect(sqf, ln, hn, den, en, ed)
    assert realroots._bisect(coeffs, ln, hn, den, (v_lo > 0) - (v_lo < 0),
                             en, ed, v_lo) == expected
    box = refine(RootBox._from_ends(sqf, ln, hn, den, one_root=True), eps)
    if sqf.degree > 1 and (hn - ln) * ed < en * den:
        expected = ln, hn, den  # already narrow enough
    assert (box.ln, box.hn, box.den) == expected


def test_jumps_cut_horner_passes_where_one_root_is_proved():
    """refine makes at most 3/4 of the jump-free path's Horner passes on
    proved one-root boxes: the isolation boxes of trace0_salem(100) to
    2^-16, as salem_check refines them, and trace0_salem(20)'s beta boxes
    to 2^-2800, the --verify width of `relations --precision 700`.  Where
    jumps stay off, in the window search's single `_alternates` steps and
    gap bisection, every halving costs one Horner pass."""
    calls = [0]
    original = realroots._scaled_value

    def counted(coeffs, n, d):
        calls[0] += 1
        return original(coeffs, n, d)

    def passes(boxes, eps):
        calls[0] = 0
        with mock.patch.object(realroots, "_scaled_value", counted):
            out = [refine(b, eps) for b in boxes]
        return [(b.ln, b.hn, b.den) for b in out], calls[0]

    for boxes, bits in ((isolate_roots(trace0_salem(100).trace_poly), 16),
                        (trace0_salem(20).beta_boxes, 2800)):
        eps = Fraction(1, 1 << bits)
        jumped, n_jumped = passes(boxes, eps)
        plain, n_plain = passes(
            [RootBox._from_ends(b.poly, b.ln, b.hn, b.den) for b in boxes],
            eps)
        assert jumped == plain
        assert 4 * n_jumped <= 3 * n_plain, (bits, n_jumped, n_plain)

    callers, bisect = set(), salemkit._bisect

    def one_pass_per_halving(coeffs, ln, hn, den, *rest):
        start = calls[0]
        out = bisect(coeffs, ln, hn, den, *rest)
        if len(coeffs) > 2:
            halvings = (out[2] // den).bit_length() - 1
            assert out[2] == den << halvings
            assert calls[0] - start == halvings
            callers.add(sys._getframe(1).f_code.co_name)
        return out

    with mock.patch.object(realroots, "_scaled_value", counted), \
            mock.patch.object(salemkit, "_bisect", one_pass_per_halving):
        window_poly_search(4)
    assert callers == {"_alternates", "descend"}


def _family_trace(family: int, d: int) -> IntPoly:
    """Trace polynomial of the degree-d member of a sequence family."""
    seq = FAMILIES[family - 1]
    return trace_project(seq_poly(seq, d - family_degree_shift(seq)))


# (x^2 - 2)^2 (x^3 - x + 1) (x - 1)^3 and (2x - 1)^2 (x^2 + x - 1): the chain
# is built on the squarefree part after the first remainder sequence ends in
# a nonconstant gcd
_REPEATED = (_product([IntPoly((-2, 0, 1))] * 2 + [IntPoly((1, -1, 0, 1))]
                      + [IntPoly((-1, 1))] * 3),
             _product([IntPoly((-1, 2))] * 2 + [IntPoly((-1, 1, 1))]))


@_PROPERTY
@given(st.lists(st.integers(-12, 12), min_size=2, max_size=8)
       .filter(lambda cs: cs[-1] != 0),
       st.one_of(_rational, st.sampled_from((POS_INF, NEG_INF))))
# chains of 21 to 51 elements, at non-dyadic and dyadic points
@example(list(_family_trace(1, 40).coeffs), Fraction(1, 3))
@example(list(_family_trace(2, 60).coeffs), Fraction(-7, 5))
@example(list(_family_trace(3, 100).coeffs), Fraction(5, 12))
@example(list(_family_trace(1, 82).coeffs), Fraction(3, 8))
@example(list(_family_trace(2, 100).coeffs), NEG_INF)
@example(list(_REPEATED[0].coeffs), Fraction(2, 3))
@example(list(_REPEATED[1].coeffs), Fraction(1, 2))
def test_variations_match_per_element_signs(coeffs, point):
    """`_chain_at` gives F0's sign and the chain's variations together."""
    _, chain = _sqf_and_chain(IntPoly(tuple(coeffs)))
    if point in (POS_INF, NEG_INF):
        # no element has a root outside (-bound, bound)
        bound = max(root_bound(f) for f in chain)
        at = Fraction(bound if point is POS_INF else -bound)
    else:
        at = point
    all_signs = [int(f.sign_at(at)) for f in chain]
    signs = [s for s in all_signs if s != 0]
    expected = sum(s != t for s, t in zip(signs, signs[1:]))
    assert _chain_at(chain, point) == (all_signs[0], expected)


_chain_poly = st.one_of(
    _nonzero_poly,
    st.tuples(_nonzero_poly, _nonzero_poly).map(lambda t: t[0] * t[1] ** 2),
    st.builds(_family_trace, st.sampled_from((1, 2, 3)),
              st.integers(20, 50).map(lambda s: 2 * s)))


@_PROPERTY
@given(_chain_poly, _rational)
@example(_REPEATED[0], Fraction(-9, 7))
@example(_family_trace(3, 100), Fraction(-5, 3))
def test_chain_values_match_per_element_scaled_values(p, x):
    """The remainder-sequence recurrence gives every element's Horner
    value."""
    _, chain = _sqf_and_chain(p)
    # a nonzero constant ends the chain of a squarefree polynomial
    assert chain[-1].degree == 0
    n, d = x.numerator, x.denominator
    assert _chain_values(chain, n, d) == [_scaled_value(f.coeffs, n, d)
                                          for f in chain]


def _per_node_isolate(p: IntPoly):
    """Recursive bisection that recounts the roots between both endpoints
    with count_roots at every node, as ascending (lo, hi, exact) triples: the
    reference for isolate_roots, which carries each endpoint's sign and
    count down from the parent node.  A midpoint r that is a root is pinned
    exactly, and the halves then end at r - h and start at r + h for the
    first h of (b - a)/4, (b - a)/8, ... with r the only root between."""
    sqf = squarefree_part(p)
    if sqf.degree < 1:
        return []
    if sqf.degree == 1:
        r = Fraction(-sqf[0], sqf[1])
        return [(r, r, r)]

    def only_root(r, h):
        lo, hi = r - h, r + h
        return (sqf.sign_at(lo) != 0 and sqf.sign_at(hi) != 0
                and count_roots(sqf, lo, hi) == 1)

    def node(a, b):
        n = count_roots(sqf, a, b)
        if n == 0:
            return []
        if n == 1 and b - a <= 1:
            return [(a, b, None)]
        r = (a + b) / 2
        if sqf.sign_at(r) != 0:
            return node(a, r) + node(r, b)
        h = (b - a) / 4
        while not only_root(r, h):
            h /= 2
        return node(a, r - h) + [(r, r, r)] + node(r + h, b)

    bound = root_bound(sqf)
    return node(Fraction(-bound), Fraction(bound))


def test_isolate_roots_matches_per_node_counting():
    # times x(2x - 1)(3x - 1): the first midpoint, 0, is a root, so the
    # bisection steps off it on both sides
    rational = _product([IntPoly((0, 1)), IntPoly((-1, 2)), IntPoly((-1, 3))])
    for d in range(6, 61, 2):
        g = trace0_salem(d).trace_poly
        for p in (g, g * rational) if d in (8, 20) else (g,):
            boxes = [(bx.lo, bx.hi, bx.exact) for bx in isolate_roots(p)]
            assert boxes == _per_node_isolate(p)


@_PROPERTY
@given(_root_poly)
# 0 is the first midpoint, and 1/2 and 1/3 sit next to it
@example(_product([IntPoly((0, 1)), IntPoly((-1, 2)), IntPoly((-1, 3))]))
def test_isolate_roots_matches_per_node_counting_on_rational_roots(p):
    boxes = [(bx.lo, bx.hi, bx.exact) for bx in isolate_roots(p)]
    assert boxes == _per_node_isolate(p)


@_PROPERTY
@given(st.lists(st.integers(-12, 12), min_size=2, max_size=8)
       .filter(lambda cs: cs[-1] != 0))
# roots at -2 and 2; a double root at 2; a double root inside (-2, 2)
@example([-4, 0, 1])
@example([4, 0, -3, 1])
@example([-3, 1, 6, -2, -3, 1])
def test_placement_matches_sign_tests_and_counts(coeffs):
    """`_misplacement`'s one reading of the cached chain words the verdict
    that two sign tests and two count_roots calls give."""
    g = IntPoly(tuple(coeffs))
    why = realroots._misplacement(g)
    if g.sign_at(-2) == 0 or g.sign_at(2) == 0:
        assert why == "root at the window boundary"
        return
    n_band, n_up = count_roots(g, -2, 2), count_roots(g, 2, None)
    if n_up != 1:
        assert why == f"{n_up} roots beyond 2 (need exactly 1)"
    elif n_band != g.degree - 1:
        assert why == f"{n_band} roots in (-2,2) (need {g.degree - 1})"
    else:
        assert why == ""


def _sturm_beta_boxes(g: IntPoly, eps: Fraction) -> list:
    """salem_check's beta boxes from g's Sturm chain: isolate, refine to
    eps, descending, confined to (2, oo) and (-2, 2): the reference for
    `_placed_boxes`."""
    boxes = [refine(b, eps) for b in isolate_roots(g)][::-1]
    boxes[0] = realroots._confine(boxes[0], 2, None)
    boxes[1:] = [realroots._confine(b, -2, 2) for b in boxes[1:]]
    return boxes


def _chebyshev_u(n: int) -> IntPoly:
    """U_n(x/2): monic, with its n roots 2cos(k*pi/(n + 1)) in (-2, 2)."""
    prev, cur = IntPoly((1,)), IntPoly((1,))
    for _ in range(n):
        prev, cur = cur, IntPoly((0, 1)) * cur - prev
    return cur


# (x - b) * U_(s-1)(x/2) + e, |e| <= 2 of degree below s: near the shape of
# a Salem trace polynomial, one root beyond 2 and s - 1 in (-2, 2), which
# the perturbation keeps or breaks
_salem_like = st.tuples(
    st.integers(2, 9), st.integers(3, 9),
    st.lists(st.integers(-2, 2), min_size=9, max_size=9),
).map(lambda t: IntPoly((-t[1], 1)) * _chebyshev_u(t[0] - 1)
      + IntPoly(tuple(t[2][:t[0]])))

_EPS16 = Fraction(1, 1 << 16)
# g(0) == 0: 0 is a grid point, so the guide steps aside
_ZERO_AT_0 = IntPoly((0, -3, 1))
# (x - 2)(x + 1)(x - 2^20) - 1: a root 3.2e-7 below 2, in the cell that
# holds 2
_NEAR_TWO = (IntPoly((-2, 1)) * IntPoly((1, 1)) * IntPoly((-(1 << 20), 1))
             - IntPoly((1,)))
# x^3 - 2(2^10 x - 1)^2, Mignotte's kind: two roots 4e-8 apart near 2^-10
_MIGNOTTE = IntPoly((-2, 4 << 10, -2 << 20, 1))
# coefficients near 10^400, past the float range
_HUGE = IntPoly((10 ** 400 + 1, 10 ** 400 - 1, -(10 ** 400 + 1), 1))
# float coefficients, but the root bound over a 2^-17 cell overflows
_WIDE = IntPoly((1, -10 ** 304, 1))


@_PROPERTY
@given(_salem_like)
@example(_ZERO_AT_0)
@example(_NEAR_TWO)
@example(_MIGNOTTE)
@example(IntPoly((1, -3, 1)))  # s = 2
@example(_HUGE)
@example(_WIDE)
def test_placed_boxes_match_the_sturm_path(g):
    """`_placed_boxes` returns None or exactly salem_check's Sturm-path
    boxes, and only where the Sturm counts confirm the placement;
    `_beta_boxes` returns those boxes wherever the placement holds and
    g(0) != 0, none where it holds with g(0) == 0, and the
    `_misplacement` text elsewhere."""
    def ends(boxes):
        return [(b.ln, b.hn, b.den, b._one_root) for b in boxes]

    why = realroots._misplacement(g)
    boxes = realroots._placed_boxes(g, _EPS16)
    either = realroots._beta_boxes(g, _EPS16)
    if why or g[0] == 0:
        assert boxes is None and either == (why or [])
        return
    sturm = ends(_sturm_beta_boxes(g, _EPS16))
    assert ends(either) == sturm
    assert boxes is None or ends(boxes) == sturm


def test_placed_boxes_decline_what_their_cells_cannot_prove():
    # each input's placement holds, so only the guide's own tests refuse
    for g in (_ZERO_AT_0, _NEAR_TWO, _MIGNOTTE, _HUGE, _WIDE):
        assert realroots._misplacement(g) == ""
        assert realroots._placed_boxes(g, _EPS16) is None
    assert realroots._placed_boxes(IntPoly((1, -3, 1)), _EPS16) is not None
    # g(0) == 0 is refused before any float work
    with mock.patch.object(realroots, "_float_roots") as guide:
        assert realroots._placed_boxes(_ZERO_AT_0, _EPS16) is None
    guide.assert_not_called()


def test_isolate_roots_evaluates_each_point_once():
    """On the trace polynomials of trace0_salem, every evaluation inside
    isolate_roots is one of a Sturm chain's, none a second sign test."""
    chain_code = realroots._chain_values.__code__
    strays = []

    def counted(scaled_value):
        def wrapper(coeffs, n, d):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not chain_code:
                frame = frame.f_back
            if frame is None:
                strays.append(sys._getframe(1).f_code.co_name)
            return scaled_value(coeffs, n, d)
        return wrapper

    for d in range(6, 31, 2):
        g = trace0_salem(d).trace_poly
        _sqf_and_chain(g)  # the chain is built outside the count
        with mock.patch.object(realroots, "_scaled_value",
                               counted(realroots._scaled_value)), \
                mock.patch.object(polyarith, "_scaled_value",
                                  counted(polyarith._scaled_value)):
            boxes = isolate_roots(g)
        assert len(boxes) == g.degree
        assert strays == [], d


def _fraction_value(p: IntPoly, x: Fraction) -> Fraction:
    """p(x) summed term by term in rationals."""
    return sum((c * x ** i for i, c in enumerate(p.coeffs)), Fraction(0))


@_PROPERTY
@given(st.lists(_nonzero_poly.filter(lambda p: p.degree >= 1), min_size=1,
                max_size=3),
       st.sampled_from((Fraction(1, 3), Fraction(1, 64), Fraction(1, 10 ** 6))))
# rational roots at the first midpoints and repeated factors
@example([_product([IntPoly((0, 1)), IntPoly((-1, 2)), IntPoly((-1, 3))]),
          _family_trace(1, 20)], Fraction(1, 64))
@example([_REPEATED[0], _REPEATED[1]], Fraction(1, 3))
def test_isolated_and_refined_boxes_show_a_sign_change(factors, eps):
    """Boxes built without re-evaluating their endpoints still bracket a
    strict sign change, or pin an exact root."""
    for box in isolate_roots(_product(factors)):
        for bx in (box, refine(box, eps)):
            if bx.exact is not None:
                assert bx.lo == bx.hi == bx.exact
                assert _fraction_value(bx.poly, bx.exact) == 0
            else:
                assert bx.lo < bx.hi
                assert (_fraction_value(bx.poly, bx.lo)
                        * _fraction_value(bx.poly, bx.hi)) < 0


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


def _fraction_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Euclid's algorithm over Fraction coefficients, the result scaled to a
    primitive integer polynomial with positive leading coefficient: the
    reference for poly_gcd."""
    a = [Fraction(c) for c in p.coeffs]
    b = [Fraction(c) for c in q.coeffs]
    while b:
        while len(a) >= len(b):
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= f * c
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    if not a:
        return IntPoly()
    den = math.lcm(*(c.denominator for c in a))
    ints = [int(c * den) for c in a]
    g = math.gcd(*ints)
    return IntPoly(tuple(c // (g if ints[-1] > 0 else -g) for c in ints))


_gcd_factor = st.lists(st.integers(-12, 12), max_size=5).map(
    lambda cs: IntPoly(tuple(cs)))


@_PROPERTY
@given(_gcd_factor, _gcd_factor, _gcd_factor, st.integers(1, 3))
@example(IntPoly(), IntPoly(), IntPoly((1, 1)), 1)
@example(IntPoly((6,)), IntPoly((-4,)), IntPoly((3,)), 1)
@example(IntPoly((0, 2, -3)), IntPoly((5,)), IntPoly((1, 0, -1)), 2)
@example(IntPoly((-1, 0, -2)), IntPoly(), IntPoly((2, -1, -1)), 3)
def test_poly_gcd_matches_rational_euclid(a, b, g, k):
    # a*g^k and b*g^k share g^k, a repeated factor when k > 1; zero,
    # constant and negative-leading inputs come from the draws and examples
    p, q = a * g ** k, b * g ** k
    assert poly_gcd(p, q) == _fraction_gcd(p, q)
    if p.is_zero or q.is_zero:
        return
    # every step of the remainder sequence satisfies m*A == q*B + kappa*c
    prev, cur = p.primitive_part().coeffs, q.primitive_part().coeffs
    if len(prev) < len(cur):
        prev, cur = cur, prev
    for m, quo, kappa, c in _primitive_prs(prev, cur):
        assert (IntPoly(prev) * m
                == IntPoly(quo) * IntPoly(cur) + IntPoly(c) * kappa)
        prev, cur = cur, c


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


def _school_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _school_mul(a, b, p):
    """Schoolbook product over Z/p, one multiply per coefficient pair: the
    reference for _gp_mul."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _school_trim([c % p for c in out])


def _school_divmod(a, b, p):
    """Schoolbook long division over Z/p, reducing every coefficient it
    touches: the reference for _gp_divmod."""
    r = [c % p for c in a]
    db = len(b) - 1
    if len(r) - 1 < db:
        return [], _school_trim(r)
    binv = pow(b[-1], -1, p)
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        if r[i] % p:
            c = r[i] * binv % p
            q[i - db] = c
            for j, bc in enumerate(b):
                r[i - db + j] = (r[i - db + j] - c * bc) % p
    return _school_trim(q), _school_trim(r[:db])


def _school_powmod(base, e, mod, p):
    """Square-and-multiply with a long division after every product: the
    reference for _gp_powmod."""
    result = [1]
    base = _school_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _school_divmod(_school_mul(result, base, p), mod, p)[1]
        base = _school_divmod(_school_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


_KERNEL_MODULI = (5, 7, 101, 5 ** 8, 2 ** 64)


def _residues(m, min_size=0):
    """Up to 40 residues modulo m, with 0, 1 and m - 1 drawn often."""
    values = st.one_of(st.integers(0, m - 1), st.sampled_from((0, 1, m - 1)))
    return st.lists(values, min_size=min_size, max_size=40)


@st.composite
def _unit_lc_poly(draw, m, min_degree=0):
    """A polynomial modulo m, up to degree 40, whose leading coefficient is
    a unit modulo m."""
    low = draw(_residues(m, min_size=min_degree))
    lc = draw(st.integers(1, m - 1).filter(lambda c: math.gcd(c, m) == 1))
    return low + [lc]


@_PROPERTY
@given(st.sampled_from(_KERNEL_MODULI).flatmap(
    lambda m: st.tuples(st.just(m), _residues(m), _residues(m))))
# every coefficient at its maximum fills each packed slot to the last bit
@example((5, [4] * 40, [4] * 40))
@example((2 ** 64, [2 ** 64 - 1] * 33, [2 ** 64 - 1] * 33))
@example((101, [100], [100] * 7))
def test_gp_mul_matches_schoolbook(case):
    m, a, b = case
    assert _gp_mul(a, b, m) == _school_mul(a, b, m)


def _school_product(a, b):
    """Schoolbook product over the integers, untrimmed: the reference for
    _kron_mul."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _coefficients(bits):
    """Up to 30 coefficients below 2**bits, the largest drawn often."""
    top = (1 << bits) - 1
    values = st.one_of(st.integers(0, top), st.sampled_from((0, 1, top)))
    return st.lists(values, max_size=30)


# coefficient sizes whose slots fall on both sides of 8, 16, 32 and 64 bits,
# and Hensel-sized ones
_SLOT_BITS = st.one_of(st.integers(1, 40),
                       st.sampled_from((63, 64, 65, 150, 300, 320)))


def test_slot_codes_have_their_size():
    for size in (1, 2, 4, 8):
        assert struct.calcsize("<" + _SLOT_CODES[size]) == size


@_PROPERTY
@given(st.tuples(_SLOT_BITS, _SLOT_BITS).flatmap(
    lambda bits: st.tuples(_coefficients(bits[0]), _coefficients(bits[1]))))
# a slot bound of exactly 8, 9, 16, 17, 32, 33, 64 and 65 bits, with every
# product coefficient at that bound
@example(([15] * 2, [7] * 2))
@example(([15] * 2, [15] * 2))
@example(([2 ** 8 - 1] * 2, [2 ** 7 - 1] * 2))
@example(([2 ** 8 - 1] * 2, [2 ** 8 - 1] * 2))
@example(([2 ** 16 - 1] * 2, [2 ** 15 - 1] * 2))
@example(([2 ** 16 - 1] * 2, [2 ** 16 - 1] * 2))
@example(([2 ** 32 - 1] * 2, [2 ** 31 - 1] * 2))
@example(([2 ** 32 - 1] * 2, [2 ** 32 - 1] * 2))
@example(([2 ** 300 - 1] * 9, [2 ** 310 - 1] * 5))
@example(([], [3, 4]))
@example(([5], [2 ** 70, 3]))
@example(([0, 0, 0], [9, 9]))
@example(([0, 0], [2 ** 40, 5]))
def test_kron_mul_matches_schoolbook(case):
    a, b = case
    assert _kron_mul(a, b) == _school_product(a, b)


@_PROPERTY
@given(st.sampled_from(_KERNEL_MODULI).flatmap(
    lambda m: st.tuples(st.just(m),
                        st.lists(st.integers(-2 * m, 2 * m), max_size=60),
                        _unit_lc_poly(m))))
def test_gp_divmod_matches_schoolbook(case):
    m, a, b = case
    assert _gp_divmod(a, b, m) == _school_divmod(a, b, m)


@st.composite
def _powmod_case(draw):
    m = draw(st.sampled_from(_KERNEL_MODULI))
    mod = draw(_unit_lc_poly(m, min_degree=1))
    d = draw(st.integers(1, 3))
    e = draw(st.one_of(st.sampled_from((0, 1, m, (m ** d - 1) // 2)),
                       st.integers(2, 1000)))
    return m, draw(_residues(m)), e, mod


@_PROPERTY
@given(_powmod_case())
# moduli of degree 3, 18 and 34, on both sides of _NEWTON_MIN_DEGREE; at
# 18 and 34 the last Newton step is the only one reaching x^(deg mod - 1)
@example((5, [4, 4, 4, 4, 4], 5, [2, 0, 1, 1]))
@example((7, [3, 1], 7, [1] * 18 + [1]))
@example((101, [5, 0, 2], (101 ** 2 - 1) // 2, [3] * 34 + [2]))
def test_gp_powmod_matches_schoolbook(case):
    m, base, e, mod = case
    reduced = _gp_divmod(base, mod, m)[1]
    assert _gp_powmod(reduced, e, _gp_reducer(mod, m), m) == \
        _school_powmod(base, e, mod, m)


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


@_PROPERTY
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
def test_factor_matches_oracle_on_trace_lifts(low):
    # lifts of monic g of degree 1..4 are monic reciprocal of degree 2..8:
    # the inputs the placement shortcut of factor tests, with and without
    # cyclotomic factors, placement, or a squarefree trace polynomial
    f = trace_lift(IntPoly(tuple(low) + (1,)))
    assert factor(f) == kronecker_factor_oracle(f)


def _reduced_vectors(s: int, max_sum: int):
    """Primitive vectors with sum |m_j| <= max_sum and positive first nonzero
    entry, in lexicographic order, one recursion level per entry."""
    vec = [0] * s

    def rec(i: int, budget: int, started: bool):
        if i == s:
            if started and math.gcd(*vec) == 1:
                yield tuple(vec)
            return
        low = 0 if not started else -budget
        for c in range(low, budget + 1):
            vec[i] = c
            yield from rec(i + 1, budget - abs(c), started or c != 0)
        vec[i] = 0

    yield from rec(0, max_sum, False)


def _fraction_screen(cert, max_sum: int, precision_bits: int):
    """The screen in rationals, one interval sum per vector, deciding a near
    miss once more on finer boxes: the reference for _survivors."""
    boxes = [refine(b, Fraction(1, 1 << (2 * precision_bits)))
             for b in cert.beta_boxes]
    near = Fraction(1, 1 << (precision_bits // 2))
    fine_boxes = None
    survivors = []
    for reduced in _reduced_vectors(len(boxes), max_sum):
        lo, hi = _sum_interval(boxes, reduced)
        if not lo <= 0 <= hi:
            if (lo if lo > 0 else -hi) >= near:
                continue
            if fine_boxes is None:
                fine_boxes = [refine(b, Fraction(1, 1 << (4 * precision_bits)))
                              for b in cert.beta_boxes]
            lo, hi = _sum_interval(fine_boxes, reduced)
            if not lo <= 0 <= hi:
                continue
        survivors.append(reduced)
    return survivors


def _integer_screen(cert, max_sum: int, precision_bits: int):
    """_survivors, checking that it refines each beta box exactly once."""
    with mock.patch.object(relations, "refine", wraps=refine) as spy:
        survivors = list(_survivors(cert, max_sum, precision_bits))
    assert spy.call_count == len(cert.beta_boxes)
    return survivors


_FRACTIONS_IN_UNIT = st.sampled_from(
    (Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), Fraction(3, 5),
     Fraction(7, 8)))


@st.composite
def _rational_root_boxes(draw):
    """Disjoint RootBoxes around distinct rational roots of one product of
    linear factors, with dyadic and non-dyadic endpoints.  Rational roots
    admit exact relations, and bisection can land on them exactly."""
    roots = sorted(draw(st.sets(
        st.builds(Fraction, st.integers(-24, 24),
                  st.sampled_from((1, 2, 3, 4, 5, 8))),
        min_size=1, max_size=5)))
    poly = IntPoly((1,))
    for r in roots:
        poly = poly * IntPoly((-r.numerator, r.denominator))
    left = [roots[0] - 1] + [(a + b) / 2 for a, b in zip(roots, roots[1:])]
    right = left[1:] + [roots[-1] + 1]
    return [RootBox(poly, r - draw(_FRACTIONS_IN_UNIT) * (r - lo),
                    r + draw(_FRACTIONS_IN_UNIT) * (hi - r))
            for r, lo, hi in zip(roots, left, right)]


@_PROPERTY
@given(_rational_root_boxes(), st.integers(1, 4), st.integers(1, 8))
def test_survivors_match_fraction_screen_on_random_boxes(boxes, max_sum,
                                                         precision_bits):
    cert = SimpleNamespace(beta_boxes=tuple(boxes))
    assert _integer_screen(cert, max_sum, precision_bits) == \
        _fraction_screen(cert, max_sum, precision_bits)


def test_survivors_match_fraction_screen_on_certificates(
        deg8_cert, deg12_cert, sextic_certs):
    c2 = salem_check(parse_poly("x^8-4x^7+6x^6-8x^5+9x^4-8x^3+6x^2-4x+1"))
    for cert in (deg8_cert, deg12_cert, c2, *sextic_certs):
        for precision_bits in (*range(1, 9), 64):
            for max_sum in range(1, 5):
                assert _integer_screen(cert, max_sum, precision_bits) == \
                    _fraction_screen(cert, max_sum, precision_bits)
