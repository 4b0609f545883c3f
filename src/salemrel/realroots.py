"""Exact real-root counting, isolation, and refinement for integer polynomials.

Root counting and isolation run on one Sturm chain, built on the
squarefree part.  A chain is one primitive remainder sequence, and its values
at a point follow from the first two by the sequence's own three-term
recurrence.  One such evaluation per point gives both the sign of the
squarefree part there and the chain's sign variations (`_chain_at`).  All
interval endpoints are rational (or +-infinity), all signs are evaluated
exactly, and every returned interval certificate (RootBox) either brackets
exactly one real root with a strict sign change or pins a rational root
exactly.  A RootBox keeps its ends as integer numerators over one positive
denominator; its constructor and isolation turn Fraction ends into them
(`_common_den`), and `refine` bisects them in place of Fractions (`_bisect`).
On a box proved to hold one root, refinement takes the secant jumps of
quadratic interval refinement, which stay on the bisection grid and return
the box bisection would, from a fraction of its Horner passes: the ten beta
boxes of `trace0_salem(20)` reach width 2^-2800 from 240 evaluations in
place of 27,850 (3.1 s -> 0.015 s on 2 cores, Python 3.11).

A Salem trace polynomial's beta boxes are first sought without counting
roots (`_placed_boxes`): float approximations of its roots choose cells of
the bisection grid, and exact signs at the ends of s cells prove the
placement and give the very boxes isolation and `refine` would.  Sturm
counts run only where that proof fails.  Over trace0 8..100 the proof
never fails, and `trace0_salem(400)` takes 0.08 s in place of 1.2 s (2
cores, Python 3.11).
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Optional, Union

from .polyarith import (IntPoly, _primitive_prs, _scaled_value, _sign,
                        div_exact, trace_lift)

POS_INF = math.inf
NEG_INF = -math.inf

Point = Union[int, Fraction, float, None]

# the float root guide's cosine table, 8 bytes an entry, stays below 8 MiB:
# its first grid fits up to degree s = 507, its second up to s = 254
_GRID_ENTRIES = 1 << 20


class EndpointIsRootError(ValueError):
    """A finite counting endpoint coincides with a root of the polynomial."""


class RootBox:
    """Certificate bracketing one real root of `poly` (its squarefree part).

    The box is [ln/den, hn/den]: integer numerators over one positive
    denominator.  Either ln == hn and that rational is a root of poly, or
    ln < hn, poly(lo) and poly(hi) are nonzero with opposite signs, and
    a root lies in the open interval (lo, hi).  lo, hi, exact (None unless
    ln == hn), width and mid read the ends as Fractions.

    The public constructor checks only the sign change, so poly may have
    further roots in the box; a box from `isolate_roots`, whose Sturm count
    is 1, records that it holds exactly one (`_one_root`), and `refine`
    keeps the record.
    """

    __slots__ = ("poly", "ln", "hn", "den", "_one_root")

    def __init__(self, poly: IntPoly, lo: Fraction, hi: Fraction,
                 exact: Optional[Fraction] = None):
        if exact is not None:
            lo = hi = Fraction(exact)
            if poly.sign_at(lo) != 0:
                raise ValueError("exact value is not a root")
        else:
            lo, hi = Fraction(lo), Fraction(hi)
            if not lo < hi:
                raise ValueError("empty interval")
            slo, shi = poly.sign_at(lo), poly.sign_at(hi)
            if slo == 0 or shi == 0:
                raise ValueError("interval endpoint is a root")
            if slo == shi:
                raise ValueError("no sign change across the interval")
        self.poly = poly
        self.ln, self.hn, self.den = _common_den(lo, hi)
        self._one_root = False

    @classmethod
    def _from_ends(cls, poly: IntPoly, ln: int, hn: int, den: int,
                   one_root: bool = False) -> "RootBox":
        """Box on [ln/den, hn/den], den > 0, that its caller has already
        proved a certificate; poly is not evaluated again.  one_root records
        a proof that poly has no other root in the box."""
        box = object.__new__(cls)
        box.poly, box.ln, box.hn, box.den = poly, ln, hn, den
        box._one_root = one_root
        return box

    @property
    def lo(self) -> Fraction:
        return Fraction(self.ln, self.den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hn, self.den)

    @property
    def exact(self) -> Optional[Fraction]:
        return self.lo if self.ln == self.hn else None

    @property
    def width(self) -> Fraction:
        return Fraction(self.hn - self.ln, self.den)

    @property
    def mid(self) -> Fraction:
        return Fraction(self.ln + self.hn, 2 * self.den)

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"RootBox(exact={self.exact})"
        return f"RootBox({self.lo}, {self.hi})"


def squarefree_part(p: IntPoly) -> IntPoly:
    """Primitive polynomial with the same roots as p, all simple."""
    return _sqf_and_chain(p)[0]


class _SturmChain(tuple):
    """Sturm chain F0, F1, ..., Fk as a tuple of IntPolys, with the steps of
    its remainder sequence: for i = 1..k-1, steps[i-1] is (m, Q, kappa, e)
    with m*F[i-1] == Q*F[i] + kappa*F[i+1] and e = deg F[i-1] - deg F[i+1]."""

    def __new__(cls, elements, steps):
        chain = super().__new__(cls, elements)
        chain.steps = steps
        return chain


def _sturm_chain(f0: IntPoly) -> _SturmChain:
    """Sturm chain of f0: f0, the primitive part of f0', and the primitive
    PRS of the two (`polyarith._primitive_prs`).  Every element is a
    positive rational multiple of the textbook Sturm element (negated
    remainders).  The chain stops at a constant element, or at a zero
    remainder, which leaves gcd(f0, f0') as the last element."""
    f1 = f0.derivative().primitive_part()
    chain, steps = [f0, f1], []
    for m, q, kappa, c in _primitive_prs(f0.coeffs, f1.coeffs):
        steps.append((m, q, kappa, len(chain[-2].coeffs) - len(c)))
        chain.append(IntPoly(c))
    return _SturmChain(chain, tuple(steps))


@functools.lru_cache(maxsize=512)
def _sqf_and_chain(p: IntPoly) -> tuple[IntPoly, _SturmChain]:
    """Squarefree part of p and its Sturm chain.

    One primitive PRS runs on the primitive part of p.  When it ends in a
    constant, p is squarefree; otherwise its last element is gcd(p, p') up
    to a scalar, and the chain is rebuilt on p divided by it."""
    if p.is_zero:
        raise ValueError("nonzero polynomial required")
    sqf = p.primitive_part()
    if sqf.degree < 1:
        return sqf, _SturmChain((sqf,), ())
    chain = _sturm_chain(sqf)
    g = chain[-1]
    if g.degree >= 1:
        sqf = div_exact(sqf, -g if g.lc < 0 else g)
        chain = _sturm_chain(sqf)
    return sqf, chain


def _chain_values(chain: _SturmChain, n: int, d: int) -> list[int]:
    """d**deg(F) * F(n/d) for every element F of the chain.

    F0 and F1 are evaluated by Horner; each later value comes from the
    previous two by kappa*d**e*V[i+1] == m*V[i-1] - d**delta*Q(n/d)*V[i],
    whose division is exact (a shift when d is a power of two)."""
    values = [_scaled_value(f.coeffs, n, d) for f in chain[:2]]
    if chain.steps:
        dyadic = not d & (d - 1)
        k = d.bit_length() - 1
        u, v = values
        for m, q, kappa, e in chain.steps:
            t = (m * u - _scaled_value(q, n, d) * v) // kappa
            u, v = v, (t >> (k * e) if dyadic else t // d ** e)
            values.append(v)
    return values


def _sign_changes(values) -> int:
    """Sign changes along the sequence, zeros skipped."""
    count = 0
    last = 0
    for v in values:
        if v:
            if last and (v < 0) != (last < 0):
                count += 1
            last = v
    return count


def _chain_at(chain: _SturmChain, point) -> tuple[int, int]:
    """(sign of F0, sign variations of the chain) at a rational point or at
    +-inf, from one evaluation of the chain."""
    if point is POS_INF:
        values = [f.lc for f in chain]
    elif point is NEG_INF:
        values = [-f.lc if f.degree & 1 else f.lc for f in chain]
    else:
        values = _chain_values(chain, point.numerator, point.denominator)
    return _sign(values[0]), _sign_changes(values)


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
    endpoint on its side).  Each endpoint costs one evaluation of the
    squarefree part's Sturm chain, which also tells whether it is a root:
    raises EndpointIsRootError if a finite endpoint is itself a root.
    """
    if p.is_zero:
        raise ValueError("nonzero polynomial required")
    a = _as_point(lo, "lo")
    b = _as_point(hi, "hi")
    if not a < b:
        raise ValueError("lo < hi required")
    sqf, chain = _sqf_and_chain(p)
    if sqf.degree < 1:
        return 0
    (sa, va), (sb, vb) = _chain_at(chain, a), _chain_at(chain, b)
    # the sign at +-inf is a leading coefficient's, never 0
    for x, sx in ((a, sa), (b, sb)):
        if sx == 0:
            raise EndpointIsRootError(f"{x} is a root")
    return va - vb


def _misplacement(g: IntPoly) -> str:
    """Why the placement of g fails, in the words salem_check rejects
    with, or "" when it holds: g(-2) and g(2) nonzero, one distinct root
    in (2, oo) and deg g - 1 in (-2, 2).  The cached Sturm chain of
    g's squarefree part is read once at each of -2, 2 and +oo."""
    chain = _sqf_and_chain(g)[1]
    (s_lo, v_lo), (s_hi, v_hi) = _chain_at(chain, -2), _chain_at(chain, 2)
    if s_lo == 0 or s_hi == 0:
        return "root at the window boundary"
    n_up = v_hi - _chain_at(chain, POS_INF)[1]
    if n_up != 1:
        return f"{n_up} roots beyond 2 (need exactly 1)"
    if v_lo - v_hi != g.degree - 1:
        return f"{v_lo - v_hi} roots in (-2,2) (need {g.degree - 1})"
    return ""


def _clenshaw(c: list[float], y: float) -> tuple[float, float]:
    """(g(y), g'(y)) in floats for g(y) = c[0] + 2*sum c[j]*T_j(y/2), the
    cosine form of a trace polynomial: g(2cos t) = c[0] + 2*sum c[j]*cos jt
    and g(2cosh t) = c[0] + 2*sum c[j]*cosh jt, where c[j] is coefficient
    s + j of its trace lift.  d/dy 2*T_j(y/2) = j*U_(j-1)(y/2), so one
    backward pass sums both series."""
    b1 = b2 = d1 = d2 = 0.0
    for j in range(len(c) - 1, 0, -1):
        b1, b2 = c[j] + y * b1 - b2, b1
        d1, d2 = j * c[j] + y * d1 - d2, d1
    return c[0] + y * b1 - 2 * b2, d1


def _newton(c: list[float], y: float, lo: float, hi: float, neg_lo: bool,
            tol: float) -> float:
    """Root of the cosine form c (`_clenshaw`) in (lo, hi), where its sign
    at lo is negative iff neg_lo and the other at hi: Newton's method from
    y, until a step is below tol, with a bisection wherever a step would
    leave the bracket."""
    for _ in range(64):
        v, d = _clenshaw(c, y)
        if (v < 0) == neg_lo:
            lo = y
        else:
            hi = y
        step = v / d if d else math.inf
        if lo < y - step < hi:
            y -= step
            if abs(step) < tol:
                break
        else:
            y = (lo + hi) / 2
            if hi - lo < tol:
                break
    return y


def _float_roots(g: IntPoly, bound: int,
                 tol: float) -> Optional[list[float]]:
    """Float approximations of the s roots of a monic g of degree s >= 2
    whose roots are expected to sit as a Salem trace polynomial's do, one in
    (2, bound) and s - 1 in (-2, 2), to within about tol; None when the
    floats do not find them so (or overflow).  A guide only:
    `_placed_boxes` proves whatever it keeps by exact signs.

    The band roots are the t in (0, pi) where the cosine form of g
    (`_clenshaw`) changes sign, on a grid of 4s + 32, then 16s + 32,
    points whose cosines come from one table; `_newton` in y = 2cos t,
    kept inside each grid bracket, closes on each.  The root beyond 2
    starts from the trace, the sum of all s roots, less the band roots."""
    s = len(g.coeffs) - 1
    try:
        c = [float(v) for v in trace_lift(g).coeffs[s:]]
        top = float(bound)
    except OverflowError:
        return None
    a = c[1:]
    for n in (4 * s + 32, 16 * s + 32):
        # cos(pi*m/n) for m < 2n, repeated so that the cosines of j*t_k,
        # j = 1..s, are the slice [k : k*s + 1 : k]
        if 2 * n * (s // 2 + 1) > _GRID_ENTRIES:
            return None
        table = [math.cos(math.pi * m / n) for m in range(2 * n)]
        table *= s // 2 + 1
        vals = [c[0] + 2 * sum(a)]
        vals += [c[0] + 2 * sum(map(operator.mul, a, table[k:k * s + 1:k]))
                 for k in range(1, n + 1)]
        cuts = [k for k in range(n) if (vals[k] < 0) != (vals[k + 1] < 0)]
        if len(cuts) == s - 1:
            break
    else:
        return None
    if not vals[0] < 0:
        return None
    band = []
    for k in cuts:
        # y falls as t rises: the bracket is (2cos t_(k+1), 2cos t_k)
        lo, hi = 2 * table[k + 1], 2 * table[k]
        v_lo, v_hi = vals[k + 1], vals[k]
        y = lo + (hi - lo) * v_lo / (v_lo - v_hi)
        band.append(_newton(c, y, lo, hi, v_lo < 0, tol))
    # g(2) < 0 and g(bound) > 0 bracket the root beyond 2
    y = -c[-2] - sum(band)
    roots = [_newton(c, y if 2 < y < top else (2 + top) / 2, 2.0, top, True,
                     tol)] + band
    return roots if all(map(math.isfinite, roots)) else None


def _placed_boxes(g: IntPoly, eps) -> Optional[list[RootBox]]:
    """The beta boxes of a monic g of degree s >= 2 whose placement holds,
    proved by s exact sign changes, or None; eps <= 1.

    The boxes are the cells of the level-L bisection grid of
    [-B, B], B = root_bound(g), L the least level with 2B/2^L < eps, that
    hold g's roots: one strictly inside (2, oo) first, then s - 1 strictly
    inside (-2, 2), descending.  Float approximations of the roots
    (`_float_roots`) only choose the cells to test; each kept cell shows a
    strict sign change of g in `_scaled_value` signs at its ends.  s
    distinct such cells hold the s roots of the degree-s g one apiece, so g
    is squarefree and its placement holds, and each cell is the box that
    `isolate_roots` followed by `refine(., eps)` returns: with one root per
    level-L cell, isolation stops at level L or a coarser one, and
    refinement ends on the level-L cell, over the denominator 2^(L-1).
    Bisection meets no root exactly: B is odd, so 0 is the only integer
    grid point inside (-B, B), and a monic g has only integer rational
    roots.  None means one of the tests
    failed: g(0) == 0, a cell straddles 2 or -2, two roots share a cell, or
    the floats overflow; `_beta_boxes` then counts roots on Sturm chains.
    """
    coeffs = g.coeffs
    s = len(coeffs) - 1
    if s < 2 or coeffs[-1] != 1 or coeffs[0] == 0:
        return None
    bound = root_bound(g)
    eps = Fraction(eps)
    level = (2 * bound * eps.denominator // eps.numerator).bit_length()
    half = 1 << (level - 1)
    cell = bound / half
    guesses = _float_roots(g, bound, cell / 16)
    if guesses is None:
        return None
    signs = {}

    def sign(i):
        # sign of g at grid point i, -B + i*B/2^(L-1)
        if i not in signs:
            signs[i] = _sign(_scaled_value(coeffs, bound * (i - half), half))
        return signs[i]

    found = set()
    for y in guesses:
        x = (y + bound) / cell
        if not math.isfinite(x):
            # a bound near the float range over a cell below 1
            return None
        i = min(max(math.floor(x), 0), 2 * half - 1)
        if sign(i) * sign(i + 1) >= 0:
            i = i - 1 if x - i < 0.5 else i + 1
            if not 0 <= i < 2 * half or sign(i) * sign(i + 1) >= 0:
                return None
        found.add(i)
    cells = sorted(found, reverse=True)
    if len(cells) != s:
        return None
    # numerators over 2^(L-1): cell i runs from bound*(i - half) up by bound
    ends = [(bound * (i - half), bound * (i - half) + bound) for i in cells]
    if not (ends[0][0] > 2 * half and ends[1][1] < 2 * half
            and ends[-1][0] > -2 * half):
        return None
    return [RootBox._from_ends(g, ln, hn, half, one_root=True)
            for ln, hn in ends]


def _confine(box: RootBox, lo: int, hi) -> RootBox:
    """Refine until the box lies strictly inside (lo, hi); hi may be None.
    An exact box is returned as it is."""
    while box.ln < box.hn and (box.ln <= lo * box.den or (
            hi is not None and box.hn >= hi * box.den)):
        box = refine(box, box.width / 2)
    return box


def _beta_boxes(g: IntPoly, eps) -> Union[list[RootBox], str]:
    """The beta boxes of a monic g whose placement holds, one root in
    (2, oo) and the other s - 1 in (-2, 2): boxes of width below eps <= 1,
    the first strictly inside (2, oo), the rest strictly inside (-2, 2),
    descending.  Where the placement fails, the `_misplacement` text in
    place of boxes; where it holds with g(0) == 0, no boxes: such a g = x*h
    is reducible, so no caller needs them.

    Exact sign changes at float-guided grid cells (`_placed_boxes`) prove
    the placement when they can; otherwise g's Sturm chain counts its roots
    (`_misplacement`), and isolation, `refine` and `_confine` give the
    boxes, the same ones wherever both paths place g."""
    boxes = _placed_boxes(g, eps)
    if boxes is not None:
        return boxes
    why = _misplacement(g)
    if why:
        return why
    if g[0] == 0:
        return []
    boxes = [refine(b, eps) for b in isolate_roots(g)][::-1]
    boxes[0] = _confine(boxes[0], 2, None)
    boxes[1:] = [_confine(b, -2, 2) for b in boxes[1:]]
    return boxes


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

    The bisection runs on the squarefree part's one Sturm chain and
    evaluates it once per point, for the sign and the variation count
    together.  Non-degenerate boxes have width <= 1 and carry a strict sign
    change of the squarefree part.  Exact degenerate boxes come back only
    for the root of a linear squarefree part and for a rational root that a
    bisection midpoint hits; a rational root that no midpoint hits gets an
    ordinary box.
    """
    if p.is_zero:
        raise ValueError("nonzero polynomial required")
    sqf, chain = _sqf_and_chain(p)
    if sqf.degree < 1:
        return []
    if sqf.degree == 1:
        r = Fraction(-sqf[0], sqf[1])
        return [RootBox(sqf, r, r, exact=r)]
    bound = root_bound(sqf)
    boxes: list[RootBox] = []
    a, b = Fraction(-bound), Fraction(bound)
    # (a, b, (sign, variations) at a, the same at b): every endpoint is a
    # nonroot, and its pair travels with the interval, so each node
    # evaluates only its midpoint
    work = [(a, b, _chain_at(chain, a), _chain_at(chain, b))]
    while work:
        a, b, at_a, at_b = work.pop()
        n = at_a[1] - at_b[1]
        if n == 0:
            continue
        if n == 1 and b - a <= 1:
            ln, hn, den = _common_den(a, b)
            if not (ln < hn and at_a[0] * at_b[0] < 0):
                raise ValueError("no sign change across the interval")
            boxes.append(RootBox._from_ends(sqf, ln, hn, den, one_root=True))
            continue
        mid = (a + b) / 2
        at_mid = _chain_at(chain, mid)
        if at_mid[0]:
            work.append((a, mid, at_a, at_mid))
            work.append((mid, b, at_mid, at_b))
            continue
        boxes.append(RootBox(sqf, mid, mid, exact=mid))
        # step off the root on both sides, to nonroots with mid the only
        # root between them
        h = (b - a) / 4
        while True:
            at_lo, at_hi = _chain_at(chain, mid - h), _chain_at(chain, mid + h)
            if at_lo[0] and at_hi[0] and at_lo[1] - at_hi[1] == 1:
                break
            h /= 2
        work.append((a, mid - h, at_a, at_lo))
        work.append((mid + h, b, at_hi, at_b))
    boxes.sort(key=lambda bx: (bx.lo, bx.hi))
    return boxes


def _common_den(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """The endpoints as integer numerators over their least common
    denominator: (ln, hn, den) with lo == ln/den and hi == hn/den."""
    den = math.lcm(lo.denominator, hi.denominator)
    return (lo.numerator * (den // lo.denominator),
            hi.numerator * (den // hi.denominator), den)


def _bisect(coeffs: tuple[int, ...], ln: int, hn: int, den: int, s_lo: int,
            en: int, ed: int, v_lo: Optional[int] = None
            ) -> tuple[int, int, int]:
    """Bisect (ln/den, hn/den) until its width is below en/ed, given that p
    (coefficients ascending) has the sign s_lo != 0 at ln/den and the other
    sign at hn/den.  Returns the final (ln, hn, den); the denominator doubles
    at every step.  When a midpoint, or the root of a linear p, is a root,
    it is returned exactly as (n, n, d).

    A caller that has proved the box holds exactly one root may pass v_lo,
    p's scaled value at ln/den (`_scaled_value`); the same result then comes
    from quadratic interval refinement's jumps (`_jump_bisect`)."""
    if len(coeffs) == 2:
        c0, c1 = coeffs
        return (-c0, -c0, c1) if c1 > 0 else (c0, c0, -c1)
    if v_lo is not None:
        return _jump_bisect(coeffs, ln, hn, den, v_lo, en, ed)
    # width (hn - ln)/den >= en/ed, cross-multiplied
    while (hn - ln) * ed >= en * den:
        mn = ln + hn
        ln <<= 1
        hn <<= 1
        den <<= 1
        sm = _sign(_scaled_value(coeffs, mn, den))
        if sm == 0:
            return mn, mn, den
        if sm == s_lo:
            ln = mn
        else:
            hn = mn
    return ln, hn, den


def _jump_bisect(coeffs: tuple[int, ...], ln: int, hn: int, den: int,
                 fa: int, en: int, ed: int) -> tuple[int, int, int]:
    """`_bisect`'s result on a box that holds exactly one root, whose lower
    end has the nonzero scaled value fa, by quadratic interval refinement
    (Abbott, ACM Commun. Comput. Algebra 48, 2014).

    Level k of the box's grid cuts it into 2^k cells of width w/(den*2^k),
    w = hn - ln.  Bisection halves the box `end` times and returns the
    level-end cell with a strict sign change; with one root in the box
    there is only one, so any path that reaches it returns the same triple.
    A jump rounds the secant root of the current cell to a point of the
    grid t levels down and tests it and its neighbour towards the root: a
    sign change between the two descends t levels and doubles t; otherwise
    one plain halving follows and t halves.  t starts at 1, a plain
    halving, and a jump never passes level `end`.  A test that meets the
    root itself, on a point with grid index i at level k, returns it where
    bisection first meets it: at level k - v, v the 2-adic valuation of i.
    """
    w, deg, s_lo = hn - ln, len(coeffs) - 1, _sign(fa)
    # halvings to a width below en/ed: the least end with w*ed < en*den*2^end
    end = max(0, (w * ed).bit_length() - (en * den).bit_length())
    if w * ed >= en * den << end:
        end += 1

    def value(level, i):
        return _scaled_value(coeffs, (ln << level) + i * w, den << level)

    def exact(level, i):
        v = (i & -i).bit_length() - 1
        n = (ln << (level - v)) + (i >> v) * w
        return n, n, den << (level - v)

    # the cell [j, j + 1] of level k, p's scaled values fa, fb at its ends
    # (fb None until a secant needs it), and the next jump's t
    k, j, fb, t = 0, 0, None, 1
    while k < end:
        step = min(t, end - k)
        if step > 1:
            if fb is None:
                fb = value(k, j + 1)
            cells = 1 << step
            # fa and fa - fb both have the sign s_lo; the secant root sits
            # at fa/(fa - fb) of the cell, rounded to one of the 2^step
            # points inside it
            num, dd = s_lo * fa, s_lo * (fa - fb)
            m = min(max((2 * cells * num + dd) // (2 * dd), 1), cells - 1)
            base, level = j << step, k + step
            fm = value(level, base + m)
            if fm == 0:
                return exact(level, base + m)
            # the sub-cell beside m towards the root, and its other end
            right = _sign(fm) == s_lo
            other = m + 1 if right else m - 1
            if other == 0 or other == cells:
                fo = (fa if other == 0 else fb) << (deg * step)
            else:
                fo = value(level, base + other)
                if fo == 0:
                    return exact(level, base + other)
            if (_sign(fo) == s_lo) != right:
                k, t = level, 2 * t
                j, fa, fb = (base + m, fm, fo) if right else (base + other,
                                                              fo, fm)
                continue
            t //= 2
        else:
            t *= 2
        # one plain halving
        fm = value(k + 1, 2 * j + 1)
        if fm == 0:
            return exact(k + 1, 2 * j + 1)
        k += 1
        if _sign(fm) == s_lo:
            j, fa = 2 * j + 1, fm
            fb = None if fb is None else fb << deg
        else:
            j, fa, fb = 2 * j, fa << deg, fm
    n = (ln << end) + j * w
    return n, n + w, den << end


def refine(box: RootBox, eps) -> RootBox:
    """Bisect a RootBox until its width is below eps.

    A rational midpoint that happens to be the root collapses the box to an
    exact degenerate certificate.  The bisection runs on the box's own
    integer ends (`_bisect`); on a box that isolation proved to hold one
    root, and on every box refined from one, it jumps ahead by quadratic
    interval refinement and returns the same box.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    ln, hn, den = box.ln, box.hn, box.den
    if ln == hn:
        return box
    coeffs = box.poly.coeffs
    en, ed = eps.numerator, eps.denominator
    # already narrow enough, unless p is linear and collapses to its root
    if len(coeffs) > 2 and (hn - ln) * ed < en * den:
        return box
    v_lo = _scaled_value(coeffs, ln, den)
    # _bisect keeps the sign of v_lo at its ln and the other at its hn, or
    # returns a root exactly as ln == hn
    ends = _bisect(coeffs, ln, hn, den, _sign(v_lo), en, ed,
                   v_lo if box._one_root else None)
    return RootBox._from_ends(box.poly, *ends, one_root=box._one_root)


def _refine_cost(s: int, bits: int) -> int:
    """Price of refining the s one-root boxes that isolation gives a
    degree-s polynomial to width 2^-bits with `refine`, in microseconds:
    s*(60 + s*b*(9000 + s*(b + 300))/280000) for b = bits, a few dozen
    Horner passes per box, each of s steps on operands of up to s*b bits.
    Fitted to the beta boxes of trace0_salem(2s) for s = 3..200 and
    b = 32..4096 (2 cores, Python 3.11); there it prices 1.3-3.7 times the
    measured time."""
    return s * (60 + s * bits * (9000 + s * (bits + 300)) // 280_000)


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


def _scaled_range(coeffs: tuple[int, ...], ln: int, hn: int,
                  den: int) -> tuple[int, int, int]:
    """Conservative range of p (coefficients ascending) over
    [ln/den, hn/den] by interval Horner on integers: (lo, hi, scale) with
    scale = den**deg > 0 and lo/scale <= p <= hi/scale there.

    Scaling every step by a positive power of den keeps every min/max
    choice, so lo/scale and hi/scale equal the bounds of the same recurrence
    in rationals."""
    if not coeffs:
        return 0, 0, 1
    rlo = rhi = coeffs[-1]
    scale = 1
    for c in coeffs[-2::-1]:
        scale *= den
        a, b, cc, d = rlo * ln, rlo * hn, rhi * ln, rhi * hn
        rlo = min(a, b, cc, d) + c * scale
        rhi = max(a, b, cc, d) + c * scale
    return rlo, rhi, scale

