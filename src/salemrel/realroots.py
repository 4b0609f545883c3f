"""Exact real-root counting, isolation, and refinement for integer polynomials.

Root counting uses Sturm chains built on the squarefree part.  All interval
endpoints are rational (or +-infinity), all signs are evaluated exactly, and
every returned interval certificate (RootBox) either brackets exactly one real
root with a strict sign change or pins a rational root exactly.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional, Union

from .polyarith import (IntPoly, _scaled_value, _subresultant_prs,
                        div_exact, poly_gcd)

POS_INF = math.inf
NEG_INF = -math.inf

Point = Union[int, Fraction, float, None]


class EndpointIsRootError(ValueError):
    """A finite counting endpoint coincides with a root of the polynomial."""


class RootBox:
    """Certificate bracketing one real root of `poly` (its squarefree part).

    Either `exact` is a rational root and lo == hi == exact, or lo < hi,
    poly(lo) and poly(hi) are nonzero with opposite signs, and exactly one
    root lies in the open interval (lo, hi).
    """

    __slots__ = ("poly", "lo", "hi", "exact")

    def __init__(self, poly: IntPoly, lo: Fraction, hi: Fraction,
                 exact: Optional[Fraction] = None):
        lo = Fraction(lo)
        hi = Fraction(hi)
        if exact is not None:
            exact = Fraction(exact)
            if _sign_at(poly, exact) != 0:
                raise ValueError("exact value is not a root")
            lo = hi = exact
        else:
            if not lo < hi:
                raise ValueError("empty interval")
            slo, shi = _sign_at(poly, lo), _sign_at(poly, hi)
            if slo == 0 or shi == 0:
                raise ValueError("interval endpoint is a root")
            if slo == shi:
                raise ValueError("no sign change across the interval")
        self.poly = poly
        self.lo = lo
        self.hi = hi
        self.exact = exact

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"RootBox(exact={self.exact})"
        return f"RootBox({self.lo}, {self.hi})"


def squarefree_part(p: IntPoly) -> IntPoly:
    """Primitive polynomial with the same roots as p, all simple."""
    if p.is_zero:
        raise ValueError("nonzero polynomial required")
    pp = p.primitive_part()
    if pp.degree < 1:
        return pp
    g = poly_gcd(pp, pp.derivative())
    if g.degree < 1:
        return pp
    return div_exact(pp, g)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_at(p: IntPoly, x) -> int:
    """Sign of p at the rational x, from the integer den**deg * p(num/den)."""
    return _sign(_scaled_value(p.coeffs, x.numerator, x.denominator))


@functools.lru_cache(maxsize=512)
def _sqf_and_chain(p: IntPoly) -> tuple[IntPoly, tuple[IntPoly, ...]]:
    """Squarefree part and its Sturm chain.

    The chain is computed with the subresultant PRS for speed; a running sign
    is tracked so every stored element is a positive rational multiple of the
    textbook Sturm element (negated remainders), which is what the
    sign-variation count requires.
    """
    sqf = squarefree_part(p)
    if sqf.degree < 1:
        return sqf, (sqf,)
    f0 = sqf
    f1 = sqf.derivative().primitive_part()
    chain = [f0, f1]
    # signs of the multipliers relating the last two PRS elements to the
    # true Sturm elements, and the leading coefficient of the last one
    s_a, s_b, lc_b = 1, 1, f1.lc
    for r, delta, divisor in _subresultant_prs(f0.coeffs, f1.coeffs):
        s_new = -(_sign(lc_b) ** (delta + 1)) * s_a * _sign(divisor)
        chain.append((IntPoly(r) * s_new).primitive_part())
        s_a, s_b, lc_b = s_b, s_new, r[-1]
    return sqf, tuple(chain)


def _variations(chain, point) -> int:
    """Sign variations of the chain at a rational point or at +-inf.

    A finite point n/d is decomposed once and every element is evaluated as
    the integer d**deg * f(n/d)."""
    if point is POS_INF:
        signs = [_sign(f.lc) for f in chain]
    elif point is NEG_INF:
        signs = [_sign(f.lc) * (-1) ** (len(f.coeffs) - 1) for f in chain]
    else:
        n, d = point.numerator, point.denominator
        signs = [_sign(_scaled_value(f.coeffs, n, d)) for f in chain]
    count = 0
    last = 0
    for s in signs:
        if s == 0:
            continue
        if last != 0 and s != last:
            count += 1
        last = s
    return count


def _as_point(value: Point, side: str):
    if value is None:
        return NEG_INF if side == "lo" else POS_INF
    if isinstance(value, float):
        if value == POS_INF:
            return POS_INF
        if value == NEG_INF:
            return NEG_INF
        raise TypeError("finite endpoints must be exact rationals, not floats")
    return Fraction(value)


def count_roots(p: IntPoly, lo: Point, hi: Point) -> int:
    """Number of distinct real roots of p strictly between lo and hi.

    lo/hi may be rationals, None, or +-math.inf (None means the infinite
    endpoint on its side).  Raises EndpointIsRootError if a finite endpoint
    is itself a root.
    """
    if p.is_zero:
        raise ValueError("nonzero polynomial required")
    a = _as_point(lo, "lo")
    b = _as_point(hi, "hi")
    fa = isinstance(a, Fraction)
    fb = isinstance(b, Fraction)
    if fa and fb and not a < b:
        raise ValueError("lo < hi required")
    if (a is POS_INF) or (b is NEG_INF):
        raise ValueError("lo < hi required")
    sqf, chain = _sqf_and_chain(p)
    if sqf.degree < 1:
        return 0
    if fa and _sign_at(sqf, a) == 0:
        raise EndpointIsRootError(f"{a} is a root")
    if fb and _sign_at(sqf, b) == 0:
        raise EndpointIsRootError(f"{b} is a root")
    return _variations(chain, a) - _variations(chain, b)


def _count_open(w: IntPoly, a: Fraction, b: Fraction) -> int:
    """Root count for an already-squarefree w with nonroot endpoints."""
    _, chain = _sqf_and_chain(w)
    return _variations(chain, a) - _variations(chain, b)


def _kth_root_ceil(m: int, k: int) -> int:
    """Smallest t >= 0 with t**k >= m, in integer arithmetic only."""
    if m <= 0:
        return 0
    if k == 1:
        return m
    # Newton's iteration for floor(m**(1/k)) descends monotonically from any
    # start at or above the root; 2**ceil(bits/k) is one
    t = 1 << -(-m.bit_length() // k)
    while True:
        u = ((k - 1) * t + m // t ** (k - 1)) // k
        if u >= t:
            break
        t = u
    return t if t ** k >= m else t + 1


def root_bound(p: IntPoly) -> int:
    """Integer B with every real root of p strictly inside (-B, B).

    Lagrange-style bound 2*max_i |c_{n-i}/lc|^{1/i}, rounded outward; stays
    small even when mid coefficients are huge.
    """
    if p.is_zero or p.degree < 1:
        return 1
    coeffs = p.coeffs
    n = len(coeffs) - 1
    lc = abs(coeffs[-1])
    best = 0
    for i in range(1, n + 1):
        c = abs(coeffs[n - i])
        if c == 0:
            continue
        best = max(best, _kth_root_ceil(-(-c // lc), i))
    return 2 * best + 1


def isolate_roots(p: IntPoly) -> list[RootBox]:
    """Pairwise-disjoint RootBoxes covering all real roots, sorted ascending.

    Non-degenerate boxes have width <= 1.  Rational roots hit during bisection
    (and all roots of linear factors) become exact degenerate boxes; all other
    boxes carry a strict sign change of the squarefree part.
    """
    if p.is_zero:
        raise ValueError("nonzero polynomial required")
    sqf = squarefree_part(p)
    if sqf.degree < 1:
        return []
    bound = root_bound(sqf)
    boxes: list[RootBox] = []
    work = [(Fraction(-bound), Fraction(bound), sqf)]
    while work:
        a, b, w = work.pop()
        if w.degree < 1:
            continue
        n = _count_open(w, a, b)
        if n == 0:
            continue
        if n == 1:
            if w.degree == 1:
                r = Fraction(-w[0], w[1])
                boxes.append(RootBox(sqf, r, r, exact=r))
                continue
            if b - a <= 1:
                aa = _clear_endpoint(sqf, w, a, b, left=True)
                bb = _clear_endpoint(sqf, w, aa, b, left=False)
                boxes.append(RootBox(sqf, aa, bb))
                continue
        mid = (a + b) / 2
        if _sign_at(w, mid) == 0:
            boxes.append(RootBox(sqf, mid, mid, exact=mid))
            num, den = mid.numerator, mid.denominator
            w = div_exact(w, IntPoly((-num, den)))
            if w.degree >= 1 and _sign_at(w, mid) == 0:
                raise AssertionError("squarefree part had a repeated root")
        work.append((a, mid, w))
        work.append((mid, b, w))
    boxes.sort(key=lambda bx: (bx.lo, bx.hi))
    return boxes


def _clear_endpoint(sqf: IntPoly, w: IntPoly, a: Fraction, b: Fraction,
                    left: bool) -> Fraction:
    """Move an endpoint off any root of sqf without losing the w-root."""
    e = a if left else b
    if _sign_at(sqf, e) != 0:
        return e
    # step toward the single w-root in (a, b); stop before reaching it
    span = b - a
    for j in range(1, 128):
        t = (a + span / (1 << j)) if left else (b - span / (1 << j))
        if _sign_at(w, t) == 0 or _sign_at(sqf, t) == 0:
            continue
        inner = _count_open(w, a, t) if left else _count_open(w, t, b)
        if inner == 0:
            return t
    raise AssertionError("could not separate endpoint from root")


def refine(box: RootBox, eps) -> RootBox:
    """Bisect a RootBox until its width is below eps.

    A rational midpoint that happens to be the root collapses the box to an
    exact degenerate certificate.  The bisection runs on integer numerators
    over one denominator, which doubles at every step.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if box.exact is not None:
        return box
    if box.poly.degree == 1:
        r = Fraction(-box.poly[0], box.poly[1])
        return RootBox(box.poly, r, r, exact=r)
    lo, hi = box.lo, box.hi
    den = math.lcm(lo.denominator, hi.denominator)
    ln = lo.numerator * (den // lo.denominator)
    hn = hi.numerator * (den // hi.denominator)
    # width (hn - ln)/den >= eps, cross-multiplied
    if (hn - ln) * eps.denominator < eps.numerator * den:
        return box
    coeffs = box.poly.coeffs
    s_lo = _sign(_scaled_value(coeffs, ln, den))
    while (hn - ln) * eps.denominator >= eps.numerator * den:
        mn = ln + hn
        ln <<= 1
        hn <<= 1
        den <<= 1
        sm = _sign(_scaled_value(coeffs, mn, den))
        if sm == 0:
            mid = Fraction(mn, den)
            return RootBox(box.poly, mid, mid, exact=mid)
        if sm == s_lo:
            ln = mn
        else:
            hn = mn
    return RootBox(box.poly, Fraction(ln, den), Fraction(hn, den))


# -- window predicates for cubics x^3 - a*x + b ---------------------------------
#
# The discriminant-style inequality 27*b**2 < 4*a**3 encodes |b| < 2a*sqrt(a)/
# (3*sqrt(3)) without irrational arithmetic (both sides nonnegative where it
# is applied), so the predicates below are exact integer tests.


def cubic_all_in_band(a: int, b: int) -> bool:
    """True iff x^3 - a*x + b has three distinct real roots, all in (-2, 2)."""
    if not (0 < a < 4):
        return False
    if not (2 * a - 8 < b < 8 - 2 * a):
        return False
    return b == 0 or 27 * b * b < 4 * a ** 3


def cubic_salem_split(a: int, b: int) -> bool:
    """True iff x^3 - a*x + b has two distinct roots in (-2, 2) and one in (2, oo)."""
    if not (3 < a < 12):
        return False
    if not b < -abs(2 * a - 8):
        return False
    return 27 * b * b < 4 * a ** 3


# -- exact square-root bounds ----------------------------------------------------


def sqrt_interval(lo: Fraction, hi: Fraction, bits: int = 64) -> tuple[Fraction, Fraction]:
    """Rational L <= sqrt(lo) and U >= sqrt(hi) with ~2**-bits slack."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo < 0 or hi < lo:
        raise ValueError("need 0 <= lo <= hi")
    scale = 1 << bits
    zl = lo.numerator * lo.denominator
    zh = hi.numerator * hi.denominator
    lower = Fraction(math.isqrt(zl * scale * scale), lo.denominator * scale)
    upper = Fraction(math.isqrt(zh * scale * scale) + 1, hi.denominator * scale)
    return lower, upper


# -- interval evaluation ----------------------------------------------------------


def _poly_range(p: IntPoly, lo: Fraction, hi: Fraction):
    """Conservative range of p over [lo, hi] by interval Horner.

    The Horner steps run on integer numerators over a common denominator;
    scaling by a positive power of it keeps every min/max choice, so the
    bounds equal those of the same recurrence in rationals."""
    coeffs = p.coeffs
    if not coeffs:
        return Fraction(0), Fraction(0)
    den = math.lcm(lo.denominator, hi.denominator)
    ln = lo.numerator * (den // lo.denominator)
    hn = hi.numerator * (den // hi.denominator)
    rlo = rhi = coeffs[-1]
    scale = 1
    for c in coeffs[-2::-1]:
        scale *= den
        a, b, cc, d = rlo * ln, rlo * hn, rhi * ln, rhi * hn
        rlo = min(a, b, cc, d) + c * scale
        rhi = max(a, b, cc, d) + c * scale
    return Fraction(rlo, scale), Fraction(rhi, scale)
