"""Additive integer relations among the conjugates of a Salem number.

A relation assigns an integer k_i to each conjugate alpha_i so that
sum k_i*alpha_i = 0.  For a Salem number the conjugates pair up as
(alpha, 1/alpha) and unit-circle pairs, each pair summing to a root beta_j of
the trace polynomial g; any relation must weight both members of a pair
equally, so the search happens on reduced vectors (m_1..m_s) against the beta
boxes and a candidate is only reported as proved by an exact identity: the
trace is zero and the vector is constant; g(c - x) = g(x), c = 2*trace/s,
pairs the betas into sums of c; or the vector's two value classes root the
factors p +- sqrt(m)*q of g = p^2 - m*q^2, each with root sum 0, and the
witness 2p, read off products of the beta boxes without search bounds, is
checked in integers.  Everything else stays labelled numeric_only.

Screening is exact integer arithmetic: the beta boxes are refined once, their
endpoints written as integers over one common denominator, and a single walk
of the vector tree builds each vector's interval sum from its parent's.  A
vector survives when its sum encloses 0 on the refined boxes.  `relations
--verify` re-checks the certified relations with independent Fraction
interval sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .polyarith import IntPoly
from .realroots import _refine_cost, _scaled_range, refine
from .salemkit import SalemCertificate

MAX_LENGTH_LIMIT = 24
# screening refines every beta box to width 2^-(2*precision_bits) and
# `relations --verify` to 2^-(4*precision_bits), at a cost that grows faster
# than linearly in precision_bits; the bound is 16 times the default
_MAX_PRECISION_BITS = 1024
# the screen costs about 1 us per vector (0.8-1.5 us from 64 to 1024 bits on
# 2 cores, Python 3.11), so the largest accepted screen, s = 10 with
# sum |m_j| <= 11 (9.2 million vectors), takes about 8 s
_MAX_SCREEN_VECTORS = 10 ** 7
# the price (`realroots._refine_cost`, in microseconds) of refining the beta
# boxes for the screen, and for find_relations again for `relations
# --verify`: the work it admits took at most about 3 s on 2 cores (150
# betas at 128 bits)
_MAX_REFINE_WORK = 8_000_000

CERTIFIED_TRACE = "certified_trace"
CERTIFIED_PAIRSUM = "certified_pairsum"
CERTIFIED_QUADSPLIT = "certified_quadsplit"
NUMERIC_ONLY = "numeric_only"


class PairingViolation(ValueError):
    """The vector weights some conjugate pair unequally, so it cannot be a
    relation for a Salem number's conjugates."""


@dataclass(frozen=True)
class RelationVector:
    """Integer weights k_1..k_d aligned to the canonical conjugate order:
    (alpha, 1/alpha) first, then the unit-circle pairs by descending beta."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs or all(c == 0 for c in self.coeffs):
            raise ValueError("relation vector must have a nonzero entry")

    @property
    def length(self) -> int:
        return sum(abs(c) for c in self.coeffs)


@dataclass(frozen=True)
class RelationReport:
    vector: RelationVector
    reduced: tuple[int, ...]
    nontrivial: bool
    status: str
    precision_bits: int


def pair_reduce(v: RelationVector) -> tuple[int, ...]:
    """Halve a conjugate-level vector to beta level, requiring equal weights
    on each conjugate pair."""
    coeffs = v.coeffs
    if len(coeffs) % 2 != 0:
        raise ValueError("even number of coefficients required")
    for j in range(0, len(coeffs), 2):
        if coeffs[j] != coeffs[j + 1]:
            raise PairingViolation(
                f"entries {j + 1} and {j + 2} differ ({coeffs[j]} != {coeffs[j + 1]})")
    return coeffs[::2]


def _interleave(reduced: tuple[int, ...]) -> RelationVector:
    coeffs = []
    for m in reduced:
        coeffs.append(m)
        coeffs.append(m)
    return RelationVector(tuple(coeffs))


# -- interval helpers ---------------------------------------------------------------


def _sum_interval(boxes, reduced):
    """Interval sum of the reduced vector over the boxes, in rationals: the
    check that `relations --verify` makes independently of the screen."""
    lo = hi = Fraction(0)
    for m, box in zip(reduced, boxes):
        if m > 0:
            lo += m * box.lo
            hi += m * box.hi
        elif m < 0:
            lo += m * box.hi
            hi += m * box.lo
    return lo, hi


# -- exact certification patterns ---------------------------------------------------


def _poly_sqrt(r: IntPoly):
    """Integer q with q*q = r, positive leading coefficient, or None."""
    if r.is_zero or r.degree % 2 != 0 or r.lc < 0:
        return None
    n = r.degree // 2
    lc = math.isqrt(r.lc)
    if lc * lc != r.lc:
        return None
    q = [0] * (n + 1)
    q[n] = lc
    for t in range(2 * n - 1, n - 1, -1):
        i = t - n
        acc = sum(q[a] * q[t - a] for a in range(i + 1, n) if 0 <= t - a <= n)
        num = r[t] - acc
        den = 2 * q[n]
        if num % den:
            return None
        q[i] = num // den
    cand = IntPoly(tuple(q))
    if cand * cand != r:
        return None
    return cand


def _split_groups(boxes, p: IntPoly, q: IntPoly) -> frozenset:
    """Indices of the betas rooting p + sqrt(m)*q, where 4g = p^2 - m*q^2.

    At a root of p + sqrt(m)*q the product p*q equals -sqrt(m)*q^2 < 0, and
    at a root of p - sqrt(m)*q it equals +sqrt(m)*q^2 > 0.  It never vanishes
    at a beta: a common root of p and q would be a double root of g, which is
    irreducible.  So each box is refined until the range of p*q excludes 0,
    and the sign names the group.
    """
    r = p * q
    group_a = set()
    for idx, box in enumerate(boxes):
        while True:
            lo, hi, _ = _scaled_range(r.coeffs, box.ln, box.hn, box.den)
            if hi < 0 or lo > 0:
                break
            box = refine(box, box.width / 4)
        if hi < 0:
            group_a.add(idx)
    return frozenset(group_a)


def _pairs_sum_to_constant(cert: SalemCertificate) -> bool:
    """True when beta_i + beta_(s-1-i) = c for every i, c = 2*trace/s.

    If g(c - x) = g(x), x -> c - x permutes the roots of g, reversing their
    descending order.  Then trace = s*c/2, and c, a rational pair sum of
    algebraic integers, is an integer; no other c needs testing."""
    c, rem = divmod(2 * cert.trace, len(cert.beta_boxes))
    g = cert.trace_poly
    return rem == 0 and g.compose(IntPoly((c, -1))) == g


def _product_range(ends, den):
    """Integer enclosures (lo, hi), ascending, of the coefficients of
    den^k * prod (x - beta) over k boxes [ln/den, hn/den] given as (ln, hn)."""
    lo, hi = [1], [1]
    for ln, hn in ends:
        nlo = [0] + [den * c for c in lo]
        nhi = [0] + [den * c for c in hi]
        for j, (a, b) in enumerate(zip(lo, hi)):
            t = (-ln * a, -ln * b, -hn * a, -hn * b)
            nlo[j] += min(t)
            nhi[j] += max(t)
        lo, hi = nlo, nhi
    return lo, hi


def _factor_sum(boxes, group):
    """P_A + P_B, P_A = prod (x - beta_i) over the betas in group and P_B
    over as many others, read off interval products of the boxes, which are
    refined until every coefficient enclosure is narrower than 1; or None
    when an enclosure holds no integer."""
    bits = 32
    while True:
        lo, hi, den = _integer_ends(boxes)
        (la, ha), (lb, hb) = (
            _product_range([(lo[i], hi[i]) for i in range(len(boxes))
                            if (i in group) == side], den)
            for side in (True, False))
        scale = den ** len(group)
        sums = [(l1 + l2, h1 + h2) for l1, l2, h1, h2 in zip(la, lb, ha, hb)]
        if all(h - l < scale for l, h in sums):
            break
        bits *= 2
        boxes = [refine(b, Fraction(1, 1 << bits)) for b in boxes]
    coeffs = [-(-l // scale) for l, _ in sums]
    if any(c * scale > h for c, (_, h) in zip(coeffs, sums)):
        return None
    return IntPoly(coeffs)


def _splits_along(cert: SalemCertificate, group: frozenset) -> bool:
    """True when the betas in group, and the K = s/2 others, each sum to 0.

    With r = (2p)^2 - 4g, the checks (2p)_(K-1) = 0, deg r <= 2K - 4 and
    r = m*S^2 (m the content of r; _poly_sqrt wants lc > 0) prove
    g = (p - sqrt(m)*S/2)*(p + sqrt(m)*S/2), each factor monic of degree K
    with no x^(K-1) term; _split_groups names the roots of one of them."""
    boxes = cert.beta_boxes
    k = len(boxes) // 2
    p2 = _factor_sum(boxes, group)
    if p2 is None or p2[k - 1] != 0:
        return False
    r = p2 * p2 - 4 * cert.trace_poly
    root = _poly_sqrt(r.primitive_part())
    if r.degree > 2 * k - 4 or root is None:
        return False
    half = _split_groups(boxes, p2, root)
    return half in (group, frozenset(range(len(boxes))) - group)


def _certify_reduced(cert: SalemCertificate, reduced) -> str:
    if all(c == reduced[0] for c in reduced):
        return CERTIFIED_TRACE if cert.trace == 0 else NUMERIC_ONLY
    s = len(reduced)
    # with the betas in pairs summing to c, a palindromic vector sums to c
    # times the sum of its first half
    if (all(reduced[i] == reduced[s - 1 - i] for i in range(s // 2))
            and sum(reduced[:s // 2]) == 0 and _pairs_sum_to_constant(cert)):
        return CERTIFIED_PAIRSUM
    group = frozenset(i for i, c in enumerate(reduced) if c == reduced[0])
    if (len(set(reduced)) == 2 and 2 * len(group) == s
            and _splits_along(cert, group)):
        return CERTIFIED_QUADSPLIT
    return NUMERIC_ONLY


def certify(cert: SalemCertificate, reduced) -> str:
    """Exact status of a reduced vector that passed numeric screening."""
    reduced = tuple(int(c) for c in reduced)
    if len(reduced) != len(cert.beta_boxes):
        raise ValueError("reduced vector must have one entry per beta")
    if not any(reduced):
        raise ValueError("reduced vector must have a nonzero entry")
    return _certify_reduced(cert, reduced)


# -- screening search ---------------------------------------------------------------


def _screen_size(s: int, max_sum: int) -> int:
    """Reduced vectors a screen visits: (B - 1)/2 with
    B = sum_k 2^k C(s, k) C(max_sum, k), the number of integer points of Z^s
    with sum |m_j| <= max_sum: k nonzero positions, their signs, and k
    positive absolute values with sum at most max_sum (C(max_sum, k) ways)."""
    points = sum((1 << k) * math.comb(s, k) * math.comb(max_sum, k)
                 for k in range(min(s, max_sum) + 1))
    return (points - 1) // 2


def _integer_ends(boxes):
    """The boxes' endpoints as integer numerators over their common
    denominator: (lo numerators, hi numerators, denominator)."""
    den = math.lcm(*(b.den for b in boxes))
    return ([b.ln * (den // b.den) for b in boxes],
            [b.hn * (den // b.den) for b in boxes], den)


def _survivors(cert: SalemCertificate, max_sum: int, precision_bits: int,
               verify_bits: int = 0):
    """The primitive reduced vectors with sum |m_j| <= max_sum and positive
    first nonzero entry whose beta sum encloses 0 on boxes of width
    2^-(2*precision_bits), as a lazy iterator in lexicographic order.

    The screen's size is checked against _MAX_SCREEN_VECTORS, and the
    price of refining the boxes to this width, and to 2^-verify_bits for
    the caller's later check when verify_bits is positive, against
    _MAX_REFINE_WORK, before any box is refined.  One walk over the vector
    tree carries each vector's interval sum as integer numerators over the
    boxes' common denominator, built from its parent's sum with one
    multiply-add per endpoint.  Finer boxes could not change a verdict:
    `refine` nests them inside these, and a sum that misses 0 here misses
    it there.
    """
    s = len(cert.beta_boxes)
    count = _screen_size(s, max_sum)
    if count > _MAX_SCREEN_VECTORS:
        raise ValueError(
            f"screen of {count} reduced vectors exceeds the cap of "
            f"{_MAX_SCREEN_VECTORS}; lower the length bound")
    work = _refine_cost(s, 2 * precision_bits)
    if verify_bits:
        work += _refine_cost(s, verify_bits)
    if work > _MAX_REFINE_WORK:
        raise ValueError(
            f"refining {s} beta boxes at {precision_bits} bits costs {work} "
            f"work units, over the budget of {_MAX_REFINE_WORK}; lower the "
            f"precision")
    lo, hi, den = _integer_ends(
        [refine(b, Fraction(1, 1 << (2 * precision_bits)))
         for b in cert.beta_boxes])
    vec = [0] * s
    last = s - 1

    def walk(start, budget, a, b, started):
        """Every filling of vec[start:], which is zero on entry and on exit,
        with sum |m_j| <= budget, in lexicographic order; (a, b) is the
        interval sum of vec[:start].  Fillings whose first nonzero entry is
        negative sort first, then the all-zero filling, then those whose
        first nonzero entry is positive, latest position first."""
        if started:
            for j in range(start, s):
                l, h = lo[j], hi[j]
                for c in range(-budget, 0):
                    vec[j] = c
                    ca, cb = a + c * h, b + c * l
                    if c > -budget and j < last:
                        yield from walk(j + 1, budget + c, ca, cb, True)
                    elif ca <= 0 <= cb and math.gcd(*vec) == 1:
                        yield tuple(vec)
                vec[j] = 0
            if a <= 0 <= b and math.gcd(*vec) == 1:
                yield tuple(vec)
        for j in range(last, start - 1, -1):
            l, h = lo[j], hi[j]
            for c in range(1, budget + 1):
                vec[j] = c
                ca, cb = a + c * l, b + c * h
                if c < budget and j < last:
                    yield from walk(j + 1, budget - c, ca, cb, True)
                elif ca <= 0 <= cb and math.gcd(*vec) == 1:
                    yield tuple(vec)
            vec[j] = 0

    return walk(0, max_sum, 0, 0, False)


def find_relations(cert: SalemCertificate, max_length: int,
                   precision_bits: int = 64) -> tuple[RelationReport, ...]:
    """All reduced relation candidates up to the conjugate-level length bound.

    Screens every reduced vector with 2*sum|m_j| <= max_length against the
    refined beta boxes, then attaches an exact certification status; the
    constant vector appears (flagged trivial) exactly when the trace is 0.
    precision_bits must lie in [1, 1024].  A screen of more than 10^7
    reduced vectors, or box refinement priced over _MAX_REFINE_WORK by
    `realroots._refine_cost` (the screen's and the finer one of `relations
    --verify` together; at 64 bits it admits up to 218 betas), is refused
    with a ValueError before any work starts.
    """
    if not 1 <= max_length <= MAX_LENGTH_LIMIT:
        raise ValueError(f"max_length must be in [1, {MAX_LENGTH_LIMIT}]")
    if not 1 <= precision_bits <= _MAX_PRECISION_BITS:
        raise ValueError(
            f"precision_bits must be in [1, {_MAX_PRECISION_BITS}]")
    reports = []
    # priced with the finer refinement of `relations --verify`
    for reduced in _survivors(cert, max_length // 2, precision_bits,
                              4 * precision_bits):
        status = _certify_reduced(cert, reduced)
        nontrivial = not all(c == reduced[0] for c in reduced)
        reports.append(RelationReport(vector=_interleave(reduced),
                                      reduced=reduced,
                                      nontrivial=nontrivial,
                                      status=status,
                                      precision_bits=precision_bits))
    reports.sort(key=lambda r: (r.vector.length, r.vector.coeffs))
    return tuple(reports)


def min_length_scan(cert: SalemCertificate, bound: int) -> bool:
    """True when no nontrivial relation of conjugate-level length below the
    bound survives screening at 128-bit precision; stops at the first one
    that does.  The screen's size is capped as in find_relations, and its
    price is that of the screen's own refinement, to 2^-256: the scan makes
    no finer one."""
    if not 1 <= bound <= MAX_LENGTH_LIMIT:
        raise ValueError(f"bound must be in [1, {MAX_LENGTH_LIMIT}]")
    return all(len(set(reduced)) == 1
               for reduced in _survivors(cert, (bound - 1) // 2, 128))
