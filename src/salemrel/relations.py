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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .polyarith import IntPoly
from .realroots import _poly_range, refine, sqrt_interval
from .salemkit import SalemCertificate

MAX_LENGTH_LIMIT = 24

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


def _mul_range(alo, ahi, blo, bhi):
    prods = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(prods), max(prods)


def _sum_interval(boxes, reduced):
    lo = hi = Fraction(0)
    for m, box in zip(reduced, boxes):
        if m > 0:
            lo += m * box.lo
            hi += m * box.hi
        elif m < 0:
            lo += m * box.hi
            hi += m * box.lo
    return lo, hi


def _refined(boxes, width: Fraction):
    return [refine(b, width) for b in boxes]


# -- exact certification patterns ---------------------------------------------------


def _recover_window_poly(g: IntPoly):
    """Monic integer h with g = (-1)^k h(x(1-x)), or None.

    h is read off top-down in powers of u = x - x^2, the way trace_project
    peels off powers of x^2 + 1: u^j has degree 2j and leading coefficient
    (-1)^j, so every step is exact and a nonzero remainder means no h exists.
    """
    if g.degree < 2 or g.degree % 2 != 0 or not g.is_monic:
        return None  # h monic of degree k forces g monic of degree 2k
    k = g.degree // 2
    rem = -g if k % 2 else g
    u = IntPoly((0, 1, -1))
    powers = [IntPoly.one()]
    for _ in range(k):
        powers.append(powers[-1] * u)
    out = [0] * (k + 1)
    for j in range(k, -1, -1):
        c = rem[2 * j] * (-1) ** j
        out[j] = c
        if c:
            rem = rem - powers[j] * c
    if not rem.is_zero:
        return None
    return IntPoly(out)


def _match_unit_pairs(boxes):
    """Partition indices into pairs with beta_i + beta_j = 1, by refining the
    boxes until the candidate assignment is a unique perfect matching."""
    boxes = list(boxes)
    for _ in range(64):
        cands = []
        for i, bi in enumerate(boxes):
            cands.append({j for j, bj in enumerate(boxes)
                          if j != i and bi.lo + bj.lo <= 1 <= bi.hi + bj.hi})
        if all(len(c) == 1 for c in cands):
            pairs = []
            seen = set()
            ok = True
            for i, c in enumerate(cands):
                j = next(iter(c))
                if i in seen or j in seen:
                    if (min(i, j), max(i, j)) not in pairs:
                        ok = False
                        break
                    continue
                if i not in cands[j]:
                    ok = False
                    break
                pairs.append((min(i, j), max(i, j)))
                seen.update((i, j))
            if ok and len(pairs) * 2 == len(boxes):
                return tuple(pairs)
        boxes = [refine(b, b.width / 4 if b.exact is None else Fraction(1))
                 for b in boxes]
    return None


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
    if g.degree % 2 != 0:
        return None
    K = g.degree // 2
    if K < 2:
        return None
    top = [0] * 3
    if g[2 * K - 1] != 0:
        return None  # p's subleading coefficient could not be zero
    if g[2 * K - 2] % 2:
        return None
    top[1] = g[2 * K - 2] // 2
    if K >= 3:
        if g[2 * K - 3] % 2:
            return None
        top[2] = g[2 * K - 3] // 2
    forced = {K - 1: 0, K - 2: top[1]}
    if K >= 3:
        forced[K - 3] = top[2]
    free_idx = [i for i in range(K - 1, -1, -1) if i not in forced]
    if len(free_idx) > 2:
        return None  # sweep grows as 129^free; stay at desk scale
    if any(abs(c) > _QUADSPLIT_COEFF for c in forced.values()):
        return None

    def build(vals):
        coeffs = [0] * (K + 1)
        coeffs[K] = 1
        for i, c in forced.items():
            coeffs[i] = c
        for i, c in zip(free_idx, vals):
            coeffs[i] = c
        return IntPoly(tuple(coeffs))

    def sweep(vals):
        if len(vals) == len(free_idx):
            p = build(vals)
            r = p * p - g
            if r.is_zero or r.degree > 2 * K - 4:
                return None
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
        for c in range(-_QUADSPLIT_COEFF, _QUADSPLIT_COEFF + 1):
            hit = sweep(vals + [c])
            if hit is not None:
                return hit
        return None

    return sweep([])


def _split_groups(boxes, p: IntPoly, q: IntPoly, m: int):
    """Indices of the betas rooting p + sqrt(m)*q, or None if the split fails.

    Each beta is a root of exactly one of p +- sqrt(m)*q; interval arithmetic
    decides which, with refinement until the verdict is unambiguous.
    """
    slo, shi = sqrt_interval(m, m, 160)
    group_a = set()
    for idx, box in enumerate(boxes):
        for _ in range(64):
            plo, phi = _poly_range(p, box.lo, box.hi)
            qlo, qhi = _poly_range(q, box.lo, box.hi)
            tlo, thi = _mul_range(slo, shi, qlo, qhi)
            in_a = plo + tlo <= 0 <= phi + thi
            in_b = plo - thi <= 0 <= phi - tlo
            if in_a != in_b:
                if in_a:
                    group_a.add(idx)
                break
            if not in_a:
                return None
            if box.exact is not None:
                return None
            box = refine(box, box.width / 4)
        else:
            return None
    return frozenset(group_a)


@dataclass(frozen=True)
class _CertStructures:
    pairing: tuple[tuple[int, int], ...] | None  # index pairs with sum 1
    window_poly: IntPoly | None
    quadsplit: tuple[IntPoly, IntPoly, int] | None
    group_a: frozenset | None


def _structures(cert: SalemCertificate) -> _CertStructures:
    g = cert.trace_poly
    pairing = None
    h = _recover_window_poly(g)
    if h is not None:
        pairing = _match_unit_pairs(cert.beta_boxes)
        if pairing is None:
            h = None
    quad = _find_quadsplit(g)
    group_a = None
    if quad is not None:
        group_a = _split_groups(cert.beta_boxes, *quad)
        if group_a is None:
            quad = None
    return _CertStructures(pairing, h, quad, group_a)


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


def _reduced_vectors(s: int, max_sum: int):
    """All primitive integer vectors of length s with sum |m_j| <= max_sum and
    positive first nonzero entry, in lexicographic order.  An integer multiple
    names the same relation, so only the gcd-1 representative is emitted."""
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


def _screen(boxes, fine_boxes_ref, reduced, precision_bits: int, cert):
    lo, hi = _sum_interval(boxes, reduced)
    if lo <= 0 <= hi:
        return True
    gap = lo if lo > 0 else -hi
    if gap >= Fraction(1, 1 << (precision_bits // 2)):
        return False
    # near-miss: one escalation to doubly refined boxes, then final verdict
    if fine_boxes_ref[0] is None:
        fine_boxes_ref[0] = _refined(cert.beta_boxes,
                                     Fraction(1, 1 << (4 * precision_bits)))
    lo, hi = _sum_interval(fine_boxes_ref[0], reduced)
    return lo <= 0 <= hi


def find_relations(cert: SalemCertificate, max_length: int,
                   precision_bits: int = 64) -> tuple[RelationReport, ...]:
    """All reduced relation candidates up to the conjugate-level length bound.

    Screens every reduced vector with 2*sum|m_j| <= max_length against the
    refined beta boxes, then attaches an exact certification status; the
    constant vector appears (flagged trivial) exactly when the trace is 0.
    """
    if not 1 <= max_length <= MAX_LENGTH_LIMIT:
        raise ValueError(f"max_length must be in [1, {MAX_LENGTH_LIMIT}]")
    if precision_bits < 1:
        raise ValueError("precision_bits must be positive")
    s = len(cert.beta_boxes)
    boxes = _refined(cert.beta_boxes, Fraction(1, 1 << (2 * precision_bits)))
    fine_ref = [None]
    st = None
    reports = []
    for reduced in _reduced_vectors(s, max_length // 2):
        if not _screen(boxes, fine_ref, reduced, precision_bits, cert):
            continue
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
    bound survives screening at 128-bit precision."""
    if not 1 <= bound <= MAX_LENGTH_LIMIT:
        raise ValueError(f"bound must be in [1, {MAX_LENGTH_LIMIT}]")
    precision_bits = 128
    s = len(cert.beta_boxes)
    boxes = _refined(cert.beta_boxes, Fraction(1, 1 << (2 * precision_bits)))
    fine_ref = [None]
    for reduced in _reduced_vectors(s, (bound - 1) // 2):
        if all(c == reduced[0] for c in reduced):
            continue
        if _screen(boxes, fine_ref, reduced, precision_bits, cert):
            return False
    return True
