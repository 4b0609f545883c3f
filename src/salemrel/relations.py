"""Additive integer relations among the conjugates of a Salem number.

A relation assigns an integer k_i to each conjugate alpha_i so that
sum k_i*alpha_i = 0.  For a Salem number the conjugates pair up as
(alpha, 1/alpha) and unit-circle pairs, each pair summing to a root beta_j of
the trace polynomial; any relation must weight both members of a pair equally,
so the search happens on reduced vectors (m_1..m_s) against the beta boxes
and a candidate is only reported as proved when one of three exact patterns
applies: the trace is zero and the vector is constant; the trace polynomial
is h(x(1-x)) up to sign, pairing the betas into two-term sums of 1; or the
trace polynomial splits as p^2 - m*q^2, making each factor's root group sum
to zero.  Everything else stays labelled numeric_only.

Screening is exact integer arithmetic: the beta boxes are refined once, their
endpoints written as integers over one common denominator, and a single walk
of the vector tree builds each vector's interval sum from its parent's.  A
vector survives when its sum encloses 0 on the refined boxes.  `relations
--verify` re-checks the certified relations with independent Fraction
interval sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .polyarith import IntPoly
from .realroots import _scaled_range, refine
from .salemkit import SalemCertificate

MAX_LENGTH_LIMIT = 24
# screening bisects every beta box to width 2^-(2*precision_bits) and
# `relations --verify` to 2^-(4*precision_bits), at a cost that grows faster
# than linearly in precision_bits; the bound is 16 times the default
_MAX_PRECISION_BITS = 1024
# the screen costs about 1 us per vector (0.8-1.5 us from 64 to 1024 bits on
# 2 cores, Python 3.11), so the largest accepted screen, s = 10 with
# sum |m_j| <= 11 (9.2 million vectors), takes about 8 s
_MAX_SCREEN_VECTORS = 10 ** 7
# _refine_work models refining s beta boxes to width 2^-(2*precision_bits),
# as the screen does, and again to 2^-(4*precision_bits), as `relations
# --verify` does when a report is certified: about 6*precision_bits
# bisections per box, each an integer Horner pass of s+1 steps on operands
# of up to about 4*s*precision_bits bits, as s^2*p*(1 + s*p^2/2^19) units,
# which took 7-14 us each from s = 4 to s = 100 on 2 cores (Python 3.11).
# At the cap (50 betas at 120 bits, 84 at 64, 10 at 700) the screen's
# refinement took 0.7-1.2 s and the --verify refinement 4.7-6.7 s
_MAX_REFINE_WORK = 750_000

CERTIFIED_TRACE = "certified_trace"
CERTIFIED_PAIRSUM = "certified_pairsum"
CERTIFIED_QUADSPLIT = "certified_quadsplit"
NUMERIC_ONLY = "numeric_only"

_QUADSPLIT_M = (2, 3, 5, 6, 7, 10)  # positive squarefree m <= 10
_QUADSPLIT_COEFF = 64


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


def _find_quadsplit(g: IntPoly):
    """(p, q, m) with g = p^2 - m*q^2, p monic of half degree with zero
    subleading coefficient, within the documented search bounds; or None.

    The three top coefficients of p are forced by g; any remaining low
    coefficients are swept over the bounded box.
    """
    K = g.degree // 2
    if g.degree % 2 or K < 2 or g[2 * K - 1] != 0:
        return None  # p's subleading coefficient could not be zero
    # with p = x^K + a*x^(K-2) + b*x^(K-3) + ..., g = p^2 - m*q^2 has
    # coefficients 2a at x^(2K-2) and 2b at x^(2K-3), since deg q <= K-2
    forced = {K - 1: 0}
    for i in range(max(K - 3, 0), K - 1):
        if g[K + i] % 2:
            return None
        forced[i] = g[K + i] // 2
    free_idx = [i for i in range(K - 1, -1, -1) if i not in forced]
    if len(free_idx) > 2:
        return None  # sweep grows as 129^free; stay at desk scale
    if any(abs(c) > _QUADSPLIT_COEFF for c in forced.values()):
        return None
    coeffs = [0] * K + [1]
    for i, c in forced.items():
        coeffs[i] = c
    span = range(-_QUADSPLIT_COEFF, _QUADSPLIT_COEFF + 1)
    for vals in itertools.product(span, repeat=len(free_idx)):
        for i, c in zip(free_idx, vals):
            coeffs[i] = c
        p = IntPoly(tuple(coeffs))
        r = p * p - g
        if r.is_zero or r.degree > 2 * K - 4:
            continue
        for m in _QUADSPLIT_M:
            if any(c % m for c in r.coeffs):
                continue
            q = _poly_sqrt(IntPoly(tuple(c // m for c in r.coeffs)))
            if q is None:
                continue
            if any(abs(c) > _QUADSPLIT_COEFF for c in q.coeffs):
                continue
            return p, q, m
    return None


def _split_groups(boxes, p: IntPoly, q: IntPoly) -> frozenset:
    """Indices of the betas rooting p + sqrt(m)*q, where g = p^2 - m*q^2.

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


@dataclass(frozen=True)
class _CertStructures:
    pairing: tuple[tuple[int, int], ...] | None  # index pairs with sum 1
    group_a: frozenset | None  # betas rooting p + sqrt(m)*q


def _structures(cert: SalemCertificate) -> _CertStructures:
    g = cert.trace_poly
    pairing = None
    if g.compose(IntPoly((1, -1))) == g:
        # g(1 - x) = g(x), so x -> 1 - x maps the roots of g onto themselves
        # and reverses their order; beta_boxes is descending, so
        # beta_i + beta_(s-1-i) = 1.  No beta is the fixed point 1/2,
        # because g is irreducible of degree >= 2.  For monic g this is the
        # pair-sum form g = +-h(x - x^2) with h monic: g lies in Q[x - x^2],
        # and peeling off powers of x - x^2 (leading coefficient -1) keeps
        # every coefficient integral.
        s = len(cert.beta_boxes)
        pairing = tuple((i, s - 1 - i) for i in range(s // 2))
    group_a = None
    quad = _find_quadsplit(g)
    if quad is not None:
        p, q, _ = quad
        group_a = _split_groups(cert.beta_boxes, p, q)
    return _CertStructures(pairing, group_a)


def _certify_reduced(cert: SalemCertificate, reduced, st: _CertStructures) -> str:
    if all(c == reduced[0] for c in reduced):
        if cert.trace == 0:
            return CERTIFIED_TRACE
        return NUMERIC_ONLY
    if st.pairing is not None:
        if (all(reduced[i] == reduced[j] for i, j in st.pairing)
                and sum(reduced[i] for i, _ in st.pairing) == 0):
            return CERTIFIED_PAIRSUM
    if st.group_a is not None:
        a = st.group_a
        b = [i for i in range(len(reduced)) if i not in a]
        vals_a = {reduced[i] for i in a}
        vals_b = {reduced[i] for i in b}
        if len(vals_a) == 1 and len(vals_b) == 1:
            return CERTIFIED_QUADSPLIT
    return NUMERIC_ONLY


def certify(cert: SalemCertificate, reduced) -> str:
    """Exact status of a reduced vector that passed numeric screening."""
    reduced = tuple(int(c) for c in reduced)
    if len(reduced) != len(cert.beta_boxes):
        raise ValueError("reduced vector must have one entry per beta")
    return _certify_reduced(cert, reduced, _structures(cert))


# -- screening search ---------------------------------------------------------------


def _screen_size(s: int, max_sum: int) -> int:
    """Reduced vectors a screen visits: (B - 1)/2 with
    B = sum_k 2^k C(s, k) C(max_sum, k), the number of integer points of Z^s
    with sum |m_j| <= max_sum: k nonzero positions, their signs, and k
    positive absolute values with sum at most max_sum (C(max_sum, k) ways)."""
    points = sum((1 << k) * math.comb(s, k) * math.comb(max_sum, k)
                 for k in range(min(s, max_sum) + 1))
    return (points - 1) // 2


def _refine_work(s: int, precision_bits: int) -> int:
    """Work units of refining s beta boxes to width 2^-(2*precision_bits)
    and then to 2^-(4*precision_bits): s^2*p Horner steps plus s^3*p^3/2^19
    for their growing operands.  The screen makes the first refinement;
    `relations --verify` makes the second whenever a report is certified."""
    p = precision_bits
    return s * s * p * ((1 << 19) + s * p * p) >> 19


def _integer_ends(boxes):
    """The boxes' endpoints as integer numerators over their common
    denominator: (lo numerators, hi numerators, denominator)."""
    den = math.lcm(*(b.den for b in boxes))
    return ([b.ln * (den // b.den) for b in boxes],
            [b.hn * (den // b.den) for b in boxes], den)


def _survivors(cert: SalemCertificate, max_sum: int, precision_bits: int):
    """The primitive reduced vectors with sum |m_j| <= max_sum and positive
    first nonzero entry whose beta sum encloses 0 on boxes of width
    2^-(2*precision_bits), as a lazy iterator in lexicographic order.

    The screen's size is checked against _MAX_SCREEN_VECTORS, and the cost
    of refining the boxes against _MAX_REFINE_WORK, before any box is
    refined.  One walk over the vector tree carries each vector's interval
    sum as integer numerators over the boxes' common denominator, built from
    its parent's sum with one multiply-add per endpoint.  Finer boxes could
    not change a verdict: `refine` continues the same bisection, so they
    would lie inside these, and a sum that misses 0 here misses it there.
    """
    s = len(cert.beta_boxes)
    count = _screen_size(s, max_sum)
    if count > _MAX_SCREEN_VECTORS:
        raise ValueError(
            f"screen of {count} reduced vectors exceeds the cap of "
            f"{_MAX_SCREEN_VECTORS}; lower the length bound")
    work = _refine_work(s, precision_bits)
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
    reduced vectors, or box refinement over _MAX_REFINE_WORK (a cost model
    that also prices the finer refinement of `relations --verify`; at 64
    bits it admits up to 84 betas), is refused with a ValueError before any
    work starts.
    """
    if not 1 <= max_length <= MAX_LENGTH_LIMIT:
        raise ValueError(f"max_length must be in [1, {MAX_LENGTH_LIMIT}]")
    if not 1 <= precision_bits <= _MAX_PRECISION_BITS:
        raise ValueError(
            f"precision_bits must be in [1, {_MAX_PRECISION_BITS}]")
    st = None
    reports = []
    for reduced in _survivors(cert, max_length // 2, precision_bits):
        if st is None:
            st = _structures(cert)
        status = _certify_reduced(cert, reduced, st)
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
    that does.  The screen's size and refinement cost are capped as in
    find_relations."""
    if not 1 <= bound <= MAX_LENGTH_LIMIT:
        raise ValueError(f"bound must be in [1, {MAX_LENGTH_LIMIT}]")
    return all(len(set(reduced)) == 1
               for reduced in _survivors(cert, (bound - 1) // 2, 128))
