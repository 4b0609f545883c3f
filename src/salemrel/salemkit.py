"""Salem-number certification and the constructive enumerations built on it.

A monic reciprocal f of even degree 2s is the minimal polynomial of a Salem
number exactly when it is irreducible and its trace polynomial g (with
f(x) = x^s g(x + 1/x)) has one root in (2, oo) and s-1 roots in (-2, 2); the
root beyond 2 is beta_1 = alpha + 1/alpha.  Every verdict rests on exact
rational arithmetic: root placement by s strict sign changes of g at the
ends of disjoint grid cells, which floats only help to find, or else by
Sturm counts (`realroots._beta_boxes`); irreducibility of a
placed g by Kronecker's theorem (a reducible one has a cyclotomic factor,
found by gcds, with no factorization); alpha bracketed through interval
arithmetic on beta_1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import SalemSeq, seq_poly, cyclotomic_progressions, ProgressionSet
from .polyarith import (IntPoly, _scaled_value, _sign, pair_sum_lift,
                        poly_gcd, trace, trace_lift, trace_project)
from .realroots import (RootBox, _beta_boxes, _bisect, _scaled_range,
                        cubic_salem_split, refine, sqrt_interval)

_BETA_WIDTH = Fraction(1, 1 << 16)
# window search: width below which critical boxes stop being bisected
_CRIT_WIDTH = Fraction(1, 64)
# window search: bisections of undecided critical boxes before one gcd
_GCD_AFTER = 4
_ALPHA_BITS = 80


class RejectionKind(enum.Enum):
    NOT_MONIC = "NotMonic"
    NOT_RECIPROCAL = "NotReciprocal"
    ODD_DEGREE = "OddDegree"
    DEGREE_TOO_SMALL = "DegreeTooSmall"
    REDUCIBLE = "Reducible"
    ROOT_WINDOW_VIOLATION = "RootWindowViolation"


@dataclass(frozen=True)
class RejectionReason:
    kind: RejectionKind
    detail: str = ""

    def __bool__(self) -> bool:  # rejections are falsy, certificates truthy
        return False


@dataclass(frozen=True)
class SalemCertificate:
    """Certified minimal polynomial of a Salem number.

    beta_boxes bracket the roots of trace_poly in descending order: the first
    lies in (2, oo), the remaining s-1 in (-2, 2); alpha is the larger root
    of x^2 - beta_1*x + 1, bracketed by a sign change of minpoly itself.
    """

    minpoly: IntPoly
    degree: int
    trace: int
    alpha: RootBox
    trace_poly: IntPoly
    beta_boxes: tuple[RootBox, ...]

    def __bool__(self) -> bool:
        return True


class ConstructionFailed(RuntimeError):
    """A construction that is guaranteed to succeed did not (internal bug)."""


def _alpha_box(f: IntPoly, beta1: RootBox) -> RootBox:
    """Bracket alpha = (beta_1 + sqrt(beta_1^2 - 4)) / 2 from the beta_1 box.

    Valid because alpha is increasing in beta_1 on (2, oo) and the only real
    roots of f exceeding 1 is alpha itself.
    """
    box = beta1
    target = Fraction(1, 1 << (_ALPHA_BITS + 8))
    if box.width > target:
        box = refine(box, target)
    lo, hi = box.lo, box.hi
    rl, ru = sqrt_interval(lo * lo - 4, hi * hi - 4, _ALPHA_BITS)
    alo = (lo + rl) / 2
    ahi = (hi + ru) / 2
    if not 1 < alo < ahi:
        raise AssertionError("alpha bracket collapsed")
    return RootBox(f, alo, ahi)


def _placed_reducible(g: IntPoly) -> bool:
    """True iff g is reducible over Q, for a monic g of degree s >= 2 whose
    placement holds: g(2) and g(-2) nonzero, one root in (2, oo) and s-1 in
    (-2, 2).  The answer is exact only under that precondition.

    Write g = E(x^2) + x*O(x^2) and T(y) = E(u)^2 - u*O(u)^2 with u = y + 2.
    As g(x)*g(-x) = E(x^2)^2 - x^2*O(x^2)^2, T is monic up to sign and its
    roots are the beta^2 - 2 over the roots beta of g.  g is reducible iff
    g(0) == 0, gcd(E, O) != 1, gcd(g, T) != 1 or gcd(g(-x), T) != 1.

    Placement gives g s distinct real roots.  If g is reducible, the factor
    without beta_1, the root beyond 2, has all its roots in (-2, 2), so by
    Kronecker's theorem it is a product of the minimal polynomials Psi_n of
    2cos(2pi/n), n >= 3, and beta -> beta^2 - 2 maps the roots of Psi_n onto
    those of Psi_(n/gcd(n, 2)).  n = 4 gives g(0) == 0.  For odd n, Psi_n
    divides g and T.  For n = 2 mod 4 the negated roots of Psi_n are those
    of Psi_(n/2), so Psi_(n/2) divides g(-x) and T.  For 4 | n, Psi_n is a
    polynomial P(x^2), and P divides E and O.

    If g is irreducible, so is g(-x), and a nontrivial gcd with T makes it
    divide T.  g | T puts beta_1 among the roots of T: beta_1 = beta^2 - 2
    with beta^2 > 4, so beta = beta_1 and beta_1 = 2.  g(-x) | T makes
    -beta_1 < -2 a root of T, whose roots are >= -2.  A common root r of E
    and O makes sqrt(r) a root of both g(x) and g(-x), so g(-x) = +-g(x)
    and -beta_1 < -2 is a root of g.  Placement rules out all three, and
    g(0) == 0 would split x off g.
    """
    if g[0] == 0:
        return True
    even, odd = IntPoly(g.coeffs[0::2]), IntPoly(g.coeffs[1::2])
    if poly_gcd(even, odd).degree >= 1:
        return True
    u = IntPoly((2, 1))
    eu, ou = even.compose(u), odd.compose(u)
    t = eu * eu - u * ou * ou
    g_neg = IntPoly(-c if i & 1 else c for i, c in enumerate(g.coeffs))
    return poly_gcd(g, t).degree >= 1 or poly_gcd(g_neg, t).degree >= 1


def salem_check(f: IntPoly):
    """SalemCertificate if f is a Salem minimal polynomial, else RejectionReason.

    Decision chain: monic -> reciprocal -> even degree -> degree >= 4 ->
    trace-polynomial root placement (one root in (2, oo), s-1 in (-2, 2)) ->
    irreducibility of the trace polynomial.  With the placement established,
    irreducibility of f is equivalent to irreducibility of g, so no complex
    arithmetic is ever needed, and g is reducible only through a cyclotomic
    factor, which three exact gcds detect (`_placed_reducible`); nothing is
    factored.
    """
    if f.is_zero or not f.is_monic:
        return RejectionReason(RejectionKind.NOT_MONIC)
    if f.reciprocal() != f:
        return RejectionReason(RejectionKind.NOT_RECIPROCAL)
    if f.degree % 2 == 1:
        return RejectionReason(RejectionKind.ODD_DEGREE)
    if f.degree < 4:
        return RejectionReason(RejectionKind.DEGREE_TOO_SMALL)
    g = trace_project(f)
    s = f.degree // 2
    boxes = _beta_boxes(g, _BETA_WIDTH)
    if isinstance(boxes, tuple):
        s_lo, s_hi, n_band, n_up = boxes
        if s_lo == 0 or s_hi == 0:
            return RejectionReason(RejectionKind.ROOT_WINDOW_VIOLATION,
                                   "root at the window boundary")
        if n_up != 1:
            return RejectionReason(RejectionKind.ROOT_WINDOW_VIOLATION,
                                   f"{n_up} roots beyond 2 (need exactly 1)")
        if n_band != s - 1:
            return RejectionReason(RejectionKind.ROOT_WINDOW_VIOLATION,
                                   f"{n_band} roots in (-2,2) (need {s - 1})")
        # placed without boxes: g(0) == 0, so x divides g
        return RejectionReason(RejectionKind.REDUCIBLE)
    return _certify_placed(f, g, boxes)


def _certify_placed(f: IntPoly, g: IntPoly, boxes: list[RootBox]):
    """salem_check's verdict on a monic reciprocal f of degree >= 4 whose
    trace polynomial g has passed the placement test with the beta boxes
    boxes (`realroots._beta_boxes`)."""
    if _placed_reducible(g):
        return RejectionReason(RejectionKind.REDUCIBLE)
    alpha = _alpha_box(f, boxes[0])
    return SalemCertificate(minpoly=f, degree=f.degree, trace=trace(f),
                            alpha=alpha, trace_poly=g,
                            beta_boxes=tuple(boxes))


def build_salem_from_trace_poly(g: IntPoly):
    """Lift a monic g to x^s*g(x+1/x) and certify, checking placement first;
    the lift is monic and reciprocal of degree 2s, so of salem_check's
    remaining tests only its degree bound is left to apply."""
    if g.is_zero or not g.is_monic or g.degree < 1:
        raise ValueError("monic polynomial of degree >= 1 required")
    boxes = _beta_boxes(g, _BETA_WIDTH)
    if isinstance(boxes, tuple):
        s_lo, s_hi, n_band, n_up = boxes
        if s_lo == 0 or s_hi == 0:
            return RejectionReason(RejectionKind.ROOT_WINDOW_VIOLATION,
                                   "root at the window boundary")
        if n_up != 1 or n_band != g.degree - 1:
            return RejectionReason(RejectionKind.ROOT_WINDOW_VIOLATION)
        # placed without boxes: g(0) == 0, so x divides g and g.degree >= 2
        return RejectionReason(RejectionKind.REDUCIBLE)
    if g.degree < 2:
        return RejectionReason(RejectionKind.DEGREE_TOO_SMALL)
    return _certify_placed(trace_lift(g), g, boxes)


# -- degree-6 trace-0 enumeration --------------------------------------------------


@dataclass(frozen=True)
class Deg6Trace0Result:
    pairs: tuple[tuple[int, int], ...]
    discarded_cubics: tuple[IntPoly, ...]
    certificates: tuple[SalemCertificate, ...]


def enum_deg6_trace0_detail() -> Deg6Trace0Result:
    """Exhaustive degree-6 trace-0 Salem search via the cubic window sweep.

    A trace-0 Salem sextic has trace polynomial x^3 - a*x + b with two roots
    in (-2, 2) and one in (2, oo); the window predicate confines (a, b) to
    finitely many pairs, swept here in full.  Each pair's lift goes to
    salem_check; a Reducible rejection discards the cubic, and any other
    rejection is a construction failure.
    """
    pairs = []
    for a in range(4, 12):
        for b in range(-40, 0):
            if cubic_salem_split(a, b):
                pairs.append((a, b))
    pairs.sort(key=lambda ab: (ab[0], -ab[1]))
    discarded = []
    certs = []
    for a, b in pairs:
        cubic = IntPoly((b, -a, 0, 1))
        outcome = salem_check(trace_lift(cubic))
        if outcome:
            certs.append(outcome)
        elif outcome.kind is RejectionKind.REDUCIBLE:
            discarded.append(cubic)
        else:
            raise ConstructionFailed(f"window pair ({a},{b}) failed to lift")
    return Deg6Trace0Result(tuple(pairs), tuple(discarded), tuple(certs))


def enum_deg6_trace0() -> tuple[SalemCertificate, ...]:
    return enum_deg6_trace0_detail().certificates


# -- degree-4k enumeration from root-window polynomials h --------------------------


def _coeff_bound(k: int, j: int) -> int:
    """Symmetric-function bound for the coefficient of x^(k-j): roots consist
    of k-1 values of modulus < 2 and one of modulus < 6."""
    return (math.comb(k - 1, j) * 2 ** j
            + (6 * math.comb(k - 1, j - 1) * 2 ** (j - 1) if j >= 1 else 0))


def _window_range(base: tuple[int, ...], slope: int, ranges, lo: int,
                  hi: int, minus2: bool) -> tuple[int, int]:
    """The c in [lo, hi] for which D = base + c*slope passes the necessary
    conditions of window_poly_search, where base (coefficients ascending,
    degree m) has constant term 0 and slope > 0: D(1/4) > 0,
    (-1)^m * D(-6) > 0, (-1)^(m-1) * D(-2) > 0 when minus2 is set, and weak
    alternation on the critical boxes, given the integer range
    (lo, hi, scale) of base on each (`_scaled_range`): D <= 0 somewhere in
    the first (largest) box, >= 0 somewhere in the next, and so on.

    Each point sign is a half-line on c: with D(n/d) scaled by d^m to
    val + c*slope*d^m, sign > 0 gives c > -val/(slope*d^m) and sign < 0
    gives c < -val/(slope*d^m).  Every bound is a floor division of integer
    numerators."""
    m = len(base) - 1
    points = [(1, 4, 1), (-6, 1, (-1) ** m)]
    if minus2:
        points.append((-2, 1, (-1) ** (m - 1)))
    for n, d, sign in points:
        val, step = _scaled_value(base, n, d), slope * d ** m
        if sign > 0:
            lo = max(lo, -val // step + 1)
        else:
            hi = min(hi, -(val // step) - 1)
    for idx, (elo, ehi, scale) in enumerate(ranges):
        if idx % 2 == 0:  # largest critical point first: need D <= 0
            hi = min(hi, -elo // (scale * slope))
        else:  # need D >= 0 somewhere in the box
            lo = max(lo, -(ehi // (scale * slope)))
    return lo, hi


def _minus2_applies(m: int, k: int, crit_boxes) -> bool:
    """Whether window_poly_search imposes (-1)^(m-1) * D_m(-2) > 0 at level
    m: at the leaf, and where the smallest critical box (the last of the
    descending (ln, hn, den) triples) lies at or below -2."""
    if m == k:
        return True
    return bool(crit_boxes) and crit_boxes[-1][1] <= -2 * crit_boxes[-1][2]


def _interlacing_range(ranges, slope: int, lo: int, hi: int) -> tuple[int, int]:
    """The c in [lo, hi] for which base + c*slope has strictly alternating
    sign on the critical boxes, given the integer range (lo, hi, scale) of
    base on each: < 0 on the first (largest) box, > 0 on the next, and so
    on.  Empty as lo > hi."""
    for idx, (elo, ehi, scale) in enumerate(ranges):
        if idx % 2 == 0:
            hi = min(hi, -(ehi // (scale * slope)) - 1)
        else:
            lo = max(lo, -elo // (scale * slope) + 1)
    return lo, hi


def _alternates(base: tuple[int, ...], shift: int, boxes: list,
                ranges: list) -> bool:
    """Whether D_m = base + shift (coefficients ascending, base[0] == 0) has
    strictly alternating sign at the roots of D_m': negative at the largest,
    positive at the next, and so on.  boxes[i] = (ln, hn, den) holds the i-th
    largest root of D_m', exactly (ln == hn) or with D_m' of sign (-1)^(i+1)
    at ln/den and of the other sign at hn/den; ranges[i] is the
    `_scaled_range` of base on it.

    A box on which the range of D_m holds 0 is bisected on D_m' (`_bisect`),
    in place with its range, until the range excludes 0, so the caller's
    next shift starts from the narrower boxes.  That ends unless D_m vanishes
    at a root of D_m', which gives D_m a multiple root and fails it: at once
    on an exact box, else by one gcd of D_m and D_m' after _GCD_AFTER
    bisections."""
    deriv = tuple(i * a for i, a in enumerate(base))[1:]
    steps = 0
    for i, ((ln, hn, den), (elo, ehi, scale)) in enumerate(zip(boxes, ranges)):
        # the sign D_m needs here, which D_m' has at the lower end
        want = -1 if i % 2 == 0 else 1
        while elo + shift * scale <= 0 <= ehi + shift * scale:
            if ln == hn:
                return False
            if steps == _GCD_AFTER and poly_gcd(
                    IntPoly((shift,) + base[1:]), IntPoly(deriv)).degree >= 1:
                return False
            # one bisection step: stop below the current width
            ln, hn, den = _bisect(deriv, ln, hn, den, want, hn - ln, den)
            elo, ehi, scale = _scaled_range(base, ln, hn, den)
            boxes[i] = ln, hn, den
            ranges[i] = elo, ehi, scale
            steps += 1
        if _sign(elo + shift * scale) != want:
            return False
    return True


def window_poly_search(k: int) -> list[IntPoly]:
    """All monic integer h of degree k with k-1 roots in (-2, 1/4) and one
    root in (-6, -2).

    Enumerates coefficients top-down.  At level m the partial data determine
    D_m = h^(k-m) up to its constant term, which is linear in the new
    coefficient; necessary conditions (endpoint signs on (-6, 1/4), the sign
    at -2, weak sign alternation at the critical points of D_m, the crude
    symmetric-function coefficient bound) clip the integer range before
    descending.

    The caller holds a box around each root of D_m' = D_{m-1}, as an integer
    triple (ln, hn, den): the interval [ln/den, hn/den] over one
    denominator.  D_m has its m roots in (-6, 1/4) iff its signs at those
    roots strictly alternate, negative at the largest: then it is monotone
    between them and, with the strict endpoint signs, has exactly one root
    in each of the m gaps the boxes leave in (-6, 1/4) (Rolle).
    `_interlacing_range` proves that for a range of c at once from the
    boxes as they are; `_alternates` decides every other c, narrowing the
    boxes it needs.  The gaps, bisected on integer numerators, are the next
    level's boxes.

    The split at -2, by Rolle: if h is a result, with roots
    t_1 < -2 < t_2 < ... < t_k, the i-th smallest root of h^(j) lies in
    (t_i, t_(i+j)), so the second smallest root of each of its D_m lies
    above t_2 > -2.  When the smallest
    critical box lies at or below -2, the smallest root of D_m lies below
    it, so -2 falls between the two smallest roots of D_m and
    (-1)^(m-1) * D_m(-2) > 0: one more half-line on c (`_window_range`).
    At m == k that sign holds for every h, so it is imposed always; a box
    holding -2 prunes nothing at its level.

    By induction on m, every D_m the search accepts (m >= 2) has its
    second smallest root r_2 above -2, so no node has two critical boxes at
    or below -2.  If the smallest critical box lies above -2 or holds it,
    r_2 lies in the gap above that box.  If it lies at or below -2, D_m(-2)
    has the sign (-1)^(m-1), so an odd number of roots of D_m lie below -2,
    and at most two do: r_3, if D_m has it, lies above the second critical
    point, which lies above -2 by induction.  At m == k, where the sign of
    h(-2) is imposed, this leaves exactly one root of h below -2, in
    (-6, -2), and k-1 in (-2, 1/4): a leaf that alternates is a result.
    """
    if k < 2:
        raise ValueError("k >= 2 required")
    en, ed = _CRIT_WIDTH.numerator, _CRIT_WIDTH.denominator
    results: list[IntPoly] = []

    def descend(m: int, coeffs: list[int], crit_boxes):
        # known part of D_m (ascending powers), with the constant term open
        slope = math.factorial(k - m)
        known = [math.factorial(k - j) // math.factorial(m - j) * c
                 for j, c in enumerate([1] + coeffs)]
        base = (0, *reversed(known))
        ranges = [_scaled_range(base, *box) for box in crit_boxes]
        lo_b, hi_b = _window_range(base, slope, ranges, -_coeff_bound(k, m),
                                   _coeff_bound(k, m),
                                   _minus2_applies(m, k, crit_boxes))
        lo_i, hi_i = _interlacing_range(ranges, slope, lo_b, hi_b)
        for c in range(lo_b, hi_b + 1):
            d = (c * slope,) + base[1:]  # D_m; h itself when m == k
            if not (lo_i <= c <= hi_i
                    or _alternates(base, c * slope, crit_boxes, ranges)):
                continue
            if m == k:
                results.append(IntPoly(d))
                continue
            # gap i runs from the top of critical box i (or -6) to the bottom
            # of box i-1 (or 1/4), over one denominator; D_m has one root in
            # it, which the next level boxes
            boxes = []
            for (an, ad), (bn, bd) in zip(
                    [(hn, den) for _, hn, den in crit_boxes] + [(-6, 1)],
                    [(1, 4)] + [(ln, den) for ln, _, den in crit_boxes]):
                den = math.lcm(ad, bd)
                a, b = an * (den // ad), bn * (den // bd)
                s_lo = _sign(_scaled_value(d, a, den))
                if s_lo * _sign(_scaled_value(d, b, den)) >= 0:
                    raise ConstructionFailed(
                        f"D_{m} does not change sign across a gap")
                boxes.append(_bisect(d, a, b, den, s_lo, en, ed))
            descend(m + 1, coeffs + [c], boxes)

    descend(1, [], [])
    results.sort(key=IntPoly.sort_key)
    return results


@dataclass(frozen=True)
class WindowEnumResult:
    """Outcome of the degree-4k enumeration: window-satisfying h's and the
    Salem certificates of those whose lift is irreducible."""

    k: int
    satisfying: tuple[IntPoly, ...]
    salem: tuple[SalemCertificate, ...]


def pair_sum_enum(k: int) -> WindowEnumResult:
    """Every Salem number of degree 4k whose conjugates admit the four-term
    constant-sum pattern: h window search, lift, certify."""
    satisfying = window_poly_search(k)
    certs = []
    for h in satisfying:
        cert = salem_check(pair_sum_lift(h))
        if cert:
            certs.append(cert)
    return WindowEnumResult(k, tuple(satisfying), tuple(certs))


# -- trace-0 Salem numbers of every even degree >= 6 -------------------------------

FAMILIES: tuple[SalemSeq, ...] = (
    SalemSeq(IntPoly((-1, -1, 0, 1)), 1),
    SalemSeq(IntPoly((-1, -1, 1)), -1, divide_by_x_minus_1=True),
    SalemSeq(IntPoly((-1, 0, -1, 1)), -1, divide_by_x_minus_1=True),
)


def family_degree_shift(seq: SalemSeq) -> int:
    """Degree of the emitted member minus n."""
    return seq.f.degree - (1 if seq.divide_by_x_minus_1 else 0)


@dataclass(frozen=True)
class Trace0Detail:
    certificate: SalemCertificate
    family: int  # 1-based family index; 0 = degree-6 direct list
    n: int
    attempts: tuple[tuple[int, int, str], ...]  # (family, n, rejection kind)


def trace0_salem_detail(d: int) -> Trace0Detail:
    """Trace-0 Salem certificate of degree d, trying the three sequence
    families in order; some family always clears its bad-degree progressions.
    """
    if d % 2 != 0 or d < 6:
        raise ValueError("even degree >= 6 required")
    if d == 6:
        return Trace0Detail(enum_deg6_trace0()[0], 0, 0, ())
    attempts = []
    for idx, seq in enumerate(FAMILIES, start=1):
        n = d - family_degree_shift(seq)
        if n < 2:
            continue
        g = seq_poly(seq, n)
        cert = salem_check(g)
        if cert:
            if cert.trace != 0:
                raise ConstructionFailed(f"family {idx} gave nonzero trace")
            return Trace0Detail(cert, idx, n, tuple(attempts))
        attempts.append((idx, n, cert.kind.value))
    raise ConstructionFailed(f"no family produced degree {d}")


def trace0_salem(d: int) -> SalemCertificate:
    return trace0_salem_detail(d).certificate


def family_progressions(family: int) -> ProgressionSet:
    """Index progressions (in n) of cyclotomic factors for family 1, 2 or 3."""
    if family not in (1, 2, 3):
        raise ValueError("family must be 1, 2 or 3")
    return cyclotomic_progressions(FAMILIES[family - 1])


@dataclass(frozen=True)
class BadDegreeReport:
    family: int
    shift: int  # d = n + shift
    n_entries: tuple[tuple[int, tuple[int, ...]], ...]
    d_entries: tuple[tuple[int, tuple[int, ...]], ...]
    sporadic_n: tuple[int, ...]
    sporadic_d: tuple[int, ...]
    bad_degrees: tuple[int, ...]  # enumerated bad d up to the requested bound


def bad_degrees(family: int, max_degree: int) -> BadDegreeReport:
    """Degrees d where the family member keeps a cyclotomic factor.

    Translates the n-progressions by the family's degree shift and enumerates
    the union up to max_degree.
    """
    seq = FAMILIES[family - 1]
    shift = family_degree_shift(seq)
    ps = family_progressions(family)
    n_entries = tuple((e.order, tuple(sorted(e.residues))) for e in ps.entries)
    d_entries = tuple((order, tuple(sorted((r + shift) % order for r in res)))
                      for order, res in n_entries)
    sporadic_n = tuple(n for _, n in ps.sporadic)
    sporadic_d = tuple(n + shift for n in sporadic_n)
    bad = set()
    for d in range(2 + shift, max_degree + 1):
        n = d - shift
        hit = any(n % order in res for order, res in n_entries)
        if not hit and n in sporadic_n:
            hit = True
        if hit:
            bad.add(d)
    return BadDegreeReport(family, shift, n_entries, d_entries,
                           sporadic_n, sporadic_d, tuple(sorted(bad)))
