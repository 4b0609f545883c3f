import inspect
import itertools
import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from salemrel.parsing import parse_poly
from salemrel.polyarith import (IntPoly, norm_form, pair_sum_trace_poly,
                                trace_lift)
from salemrel import relations
from salemrel.realroots import (RootBox, _scaled_range, isolate_roots, refine,
                                sqrt_interval)
from salemrel.relations import (CERTIFIED_PAIRSUM, CERTIFIED_QUADSPLIT,
                                CERTIFIED_TRACE, NUMERIC_ONLY,
                                PairingViolation, RelationVector,
                                _factor_sum, _pairs_sum_to_constant,
                                _poly_sqrt, _screen_size, _split_groups,
                                _splits_along, _survivors, certify,
                                find_relations, min_length_scan, pair_reduce)
from salemrel.salemkit import (pair_sum_enum, salem_check, trace0_salem,
                               window_poly_search)

_SCALE_BITS = 160
_BOX_EPS = Fraction(1, 1 << 170)


def _scaled(lo: Fraction, hi: Fraction) -> tuple[int, int]:
    s = 1 << _SCALE_BITS
    return math.floor(lo * s), math.ceil(hi * s)


def _conjugate_intervals(cert):
    """Scaled-integer enclosures of (Re, Im) for each conjugate.

    Order: alpha, 1/alpha, then both members of each unit pair by
    descending beta; the second member of a pair is the complex conjugate.
    """
    a = refine(cert.alpha, _BOX_EPS)
    out = [(_scaled(a.lo, a.hi), (0, 0)),
           (_scaled(1 / a.hi, 1 / a.lo), (0, 0))]
    for box in cert.beta_boxes[1:]:
        b = refine(box, _BOX_EPS)
        lo2, hi2 = sorted((b.lo ** 2, b.hi ** 2))
        if b.lo < 0 < b.hi:
            lo2 = Fraction(0)
        sl, sh = sqrt_interval(4 - hi2, 4 - lo2, 200)
        re = _scaled(b.lo / 2, b.hi / 2)
        im = _scaled(sl / 2, sh / 2)
        out.append((re, im))
        out.append((re, (-im[1], -im[0])))
    return out


def _dot_contains_zero(intervals, ks) -> bool:
    rlo = rhi = ilo = ihi = 0
    for (re, im), k in zip(intervals, ks):
        if k >= 0:
            rlo += k * re[0]; rhi += k * re[1]
            ilo += k * im[0]; ihi += k * im[1]
        else:
            rlo += k * re[1]; rhi += k * re[0]
            ilo += k * im[1]; ihi += k * im[0]
    return rlo <= 0 <= rhi and ilo <= 0 <= ihi


def _int_vectors(s, max_sum):
    vec = [0] * s

    def rec(i, budget):
        if i == s:
            if any(vec):
                yield tuple(vec)
            return
        for c in range(-budget, budget + 1):
            vec[i] = c
            yield from rec(i + 1, budget - abs(c))
        vec[i] = 0

    yield from rec(0, max_sum)


# -- vectors and pair reduction ---------------------------------------------------------


def test_relation_vector_basics():
    v = RelationVector((1, 1, -2, -2))
    assert v.length == 6
    with pytest.raises(ValueError):
        RelationVector((0, 0, 0, 0))
    with pytest.raises(ValueError):
        RelationVector(())


def test_pair_reduce():
    assert pair_reduce(RelationVector((1, 1, -1, -1))) == (1, -1)
    assert pair_reduce(RelationVector((1,) * 12)) == (1,) * 6
    assert pair_reduce(RelationVector((3, 3, 0, 0, -2, -2))) == (3, 0, -2)
    with pytest.raises(PairingViolation):
        pair_reduce(RelationVector((1, -1, -1, 1)))
    with pytest.raises(ValueError):
        pair_reduce(RelationVector((1, 1, 1)))  # odd length is a shape error


# -- exact certification ------------------------------------------------------------------


def test_certify_statuses(deg8_cert, deg12_cert):
    assert certify(deg8_cert, (1, -1, -1, 1)) == CERTIFIED_PAIRSUM
    assert certify(deg8_cert, (1, 1, 1, 1)) == NUMERIC_ONLY  # trace is 2
    assert certify(deg12_cert, (1, 1, 1, 1, 1, 1)) == CERTIFIED_TRACE
    assert certify(deg12_cert, (1, 0, 0, 1, 1, 0)) == CERTIFIED_QUADSPLIT
    assert certify(deg12_cert, (0, 1, 1, 0, 0, 1)) == CERTIFIED_QUADSPLIT
    assert certify(deg12_cert, (1, -1, 0, 0, 0, 0)) == NUMERIC_ONLY
    with pytest.raises(ValueError):
        certify(deg8_cert, (1, -1, -1))


def test_certify_refuses_vectors_near_a_pattern(deg8_cert, deg12_cert):
    # the pairs of deg8 sum to 1: (1, -1, 0, 0) is not palindromic, and
    # (1, 0, 0, 1) has first half summing to 1, not 0
    assert certify(deg8_cert, (1, -1, 0, 0)) == NUMERIC_ONLY
    assert certify(deg8_cert, (1, 0, 0, 1)) == NUMERIC_ONLY
    # {0, 3, 4} is a root group of deg12, but these vectors are not
    # constant on it and on its complement
    assert certify(deg12_cert, (1, 2, 0, 1, 1, 0)) == NUMERIC_ONLY
    assert certify(deg12_cert, (1, 0, 0, 1, 0, 0)) == NUMERIC_ONLY


def test_quadsplit_witness_must_name_the_group(deg12_cert, monkeypatch):
    # the witness of the group {0, 3, 4} passes every identity check, so
    # only the roots it names refuse it for another group
    witness = _factor_sum(deg12_cert.beta_boxes, frozenset((0, 3, 4)))
    monkeypatch.setattr(relations, "_factor_sum", lambda boxes, group: witness)
    assert _splits_along(deg12_cert, frozenset((0, 3, 4)))
    assert _splits_along(deg12_cert, frozenset((1, 2, 5)))
    assert not _splits_along(deg12_cert, frozenset((0, 1, 2)))


def test_certify_trace_on_sextics(sextic_certs):
    for cert in sextic_certs:
        assert certify(cert, (1, 1, 1)) == CERTIFIED_TRACE


def test_certify_trace_poly_without_window_form():
    # x^2-5x+1 interpolates to the non-monic h = -x - 3 at x(1-x) = 0, -2
    cert = salem_check(trace_lift(IntPoly((1, -5, 1))))
    assert cert
    assert certify(cert, (1, 1)) == NUMERIC_ONLY
    assert certify(cert, (1, -1)) == NUMERIC_ONLY


def test_certify_rejects_the_zero_vector(deg8_cert, deg12_cert):
    for cert in (deg8_cert, deg12_cert):
        with pytest.raises(ValueError,
                           match="reduced vector must have a nonzero entry"):
            certify(cert, (0,) * len(cert.beta_boxes))


def test_pairing_is_the_one_minus_x_symmetry():
    # every pair-sum trace polynomial g = +-h(x - x^2) is fixed by
    # x -> 1 - x, and perturbing it breaks the symmetry
    rng = random.Random(1905)
    hs = window_poly_search(2) + window_poly_search(3)
    hs += [IntPoly(tuple(rng.randint(-30, 30) for _ in range(k)) + (1,))
           for k in range(1, 9) for _ in range(8)]
    flip = IntPoly((1, -1))
    for h in hs:
        g = pair_sum_trace_poly(h)
        assert g.compose(flip) == g
        for other in (g + IntPoly.x(), g * IntPoly.x()):
            assert other.compose(flip) != other
    # no trace-zero member has the pairing; the pair-sum certificates and
    # the norm-form one are checked in the next test
    for d in range(6, 31, 2):
        assert not _pairs_sum_to_constant(trace0_salem(d))


def _structure_certs(deg12_cert):
    return ([(c, True) for c in pair_sum_enum(2).salem + pair_sum_enum(3).salem]
            + [(deg12_cert, False)])


def _assert_pairs_sum_to(cert, c):
    # beta_i + beta_(s-1-i) = c on 2^-100 boxes
    eps = Fraction(1, 1 << 100)
    boxes = [refine(b, eps) for b in cert.beta_boxes]
    s = len(boxes)
    for i in range(s // 2):
        j = s - 1 - i
        assert boxes[i].lo + boxes[j].lo <= c <= boxes[i].hi + boxes[j].hi


def test_exact_pairing_sums_to_one_on_refined_boxes(deg12_cert):
    # the pairing is read off the order of the betas; 2^-100 boxes confirm it
    for cert, has_pairing in _structure_certs(deg12_cert):
        assert _pairs_sum_to_constant(cert) == has_pairing
        if has_pairing:
            assert 2 * cert.trace == len(cert.beta_boxes)  # c = 1
            _assert_pairs_sum_to(cert, 1)


# the degree-16 norm forms p^2 - m*q^2 that are Salem trace polynomials,
# with the two reports find_relations(cert, 8) gives each
_NORM_FORMS_16 = (
    (2, (3, -3, -6, 0, 1), (0, 2, 1),
     ((0, 1, 1, 0, 1, 0, 0, 1), (1, 0, 0, 1, 0, 1, 1, 0))),
    (2, (1, -2, -5, 0, 1), (0, 2, 1),
     ((0, 1, 1, 0, 1, 0, 0, 1), (1, 0, 0, 1, 0, 1, 1, 0))),
    (2, (3, -1, -5, 0, 1), (-2, 1, 1),
     ((0, 1, 0, 1, 1, 0, 0, 1), (1, 0, 1, 0, 0, 1, 1, 0))),
    (2, (1, -1, -4, 0, 1), (0, 1, 1),
     ((0, 1, 1, 0, 1, 0, 1, 0), (1, 0, 0, 1, 0, 1, 0, 1))),
    (3, (2, -4, -6, 0, 1), (1, 2, 1),
     ((0, 1, 1, 0, 0, 1, 1, 0), (1, 0, 0, 1, 1, 0, 0, 1))),
    (3, (2, -2, -5, 0, 1), (-1, 1, 1),
     ((0, 1, 0, 1, 1, 0, 1, 0), (1, 0, 1, 0, 0, 1, 0, 1))),
)


def _norm_form_certs():
    certs = [salem_check(trace_lift(norm_form(IntPoly(p), IntPoly(q), m)))
             for m, p, q, _ in _NORM_FORMS_16]
    assert all(certs)
    return certs


def test_exact_groups_root_the_quadsplit_factor(deg12_cert):
    # over every split of the betas into two halves, the certifier accepts
    # exactly the norm-form groups, and 2p + sqrt(m)*S, the factor
    # _split_groups names, must vanish on exactly that half's 2^-100 boxes
    eps = Fraction(1, 1 << 100)
    split = 0
    certs = [c for c, _ in _structure_certs(deg12_cert)] + _norm_form_certs()
    for cert in certs:
        s = len(cert.beta_boxes)
        for rest in itertools.combinations(range(1, s), s // 2 - 1):
            group = frozenset((0, *rest))
            if not _splits_along(cert, group):
                continue
            split += 1
            p2 = _factor_sum(cert.beta_boxes, group)
            r = p2 * p2 - 4 * cert.trace_poly
            m = r.content()
            q = _poly_sqrt(r.primitive_part())
            half = _split_groups(cert.beta_boxes, p2, q)
            assert half in (group, frozenset(range(s)) - group)
            slo, shi = sqrt_interval(m, m, 200)
            for idx, box in enumerate(cert.beta_boxes):
                box = refine(box, eps)
                plo, phi, ps = _scaled_range(p2.coeffs, box.ln, box.hn,
                                             box.den)
                qlo, qhi, qs = _scaled_range(q.coeffs, box.ln, box.hn,
                                             box.den)
                prods = (slo * qlo, slo * qhi, shi * qlo, shi * qhi)
                encloses = (Fraction(plo, ps) + min(prods) / qs <= 0
                            <= Fraction(phi, ps) + max(prods) / qs)
                assert encloses == (idx in half)
    # deg12 and each degree-16 norm form split one way; no pair-sum
    # certificate splits
    assert split == 1 + len(_NORM_FORMS_16)


def test_degree16_norm_form_reports_pinned():
    for cert, (_, _, _, pinned) in zip(_norm_form_certs(), _NORM_FORMS_16):
        reports = find_relations(cert, max_length=8)
        assert tuple(r.reduced for r in reports) == pinned
        for r in reports:
            assert r.nontrivial and r.status == CERTIFIED_QUADSPLIT
            assert r.vector.length == 8 and r.precision_bits == 64


def _lift_certs():
    """The Salem trace lifts of h(2x - x^2), h = u^2 + a*u + b."""
    certs = [salem_check(trace_lift(IntPoly((b, a, 1)).compose(
        IntPoly((0, 2, -1))))) for a in range(2, 8) for b in (-1, -2, -3)]
    return [c for c in certs if c]


def test_lifts_of_h_of_2x_minus_x2_certified_pairsum():
    # g(x) = h(2x - x^2) is fixed by x -> 2 - x, so the betas pair into
    # sums of c = 2 and (1, -1, -1, 1) is a relation
    certs = _lift_certs()
    assert len(certs) == 16
    for cert in certs:
        assert cert.trace == 4 and _pairs_sum_to_constant(cert)
        _assert_pairs_sum_to(cert, 2)
        reports = find_relations(cert, max_length=8)
        assert [(r.reduced, r.status) for r in reports] == [
            ((1, -1, -1, 1), CERTIFIED_PAIRSUM)]


def test_poly_sqrt_inverts_squaring():
    rng = random.Random(2002)
    for _ in range(300):
        q = IntPoly([rng.randint(-30, 30) for _ in range(rng.randint(0, 7))]
                    + [rng.choice((1, -1, 2, -3))])
        root = q if q.lc > 0 else -q
        assert _poly_sqrt(q * q) == root
        assert _poly_sqrt(4 * q * q) == 2 * root
        assert _poly_sqrt(q * q + IntPoly((1,))) is None
        assert _poly_sqrt(-(q * q)) is None
        assert _poly_sqrt(2 * q * q) is None


def _built_split(u, v):
    """A stand-in certificate for g = P_A*P_B, P_A with roots
    u_i + v_i*sqrt(11) and P_B with roots u_i - v_i*sqrt(11), and the
    indices of P_A's roots among the descending betas."""
    g = IntPoly((1,))
    for a, b in zip(u, v):
        g = g * IntPoly((a * a - 11 * b * b, -2 * a, 1))
    boxes = isolate_roots(g)[::-1]
    assert len(boxes) == g.degree
    # 2^-40 boxes tell the roots apart in floating point
    fine = [refine(b, Fraction(1, 1 << 40)) for b in boxes]
    group_a = {i for i, box in enumerate(fine) for a, b in zip(u, v)
               if box.lo < a + b * math.sqrt(11) < box.hi}
    assert len(group_a) == len(u)
    return SimpleNamespace(trace=-g[g.degree - 1], trace_poly=g,
                           beta_boxes=tuple(boxes)), group_a


def test_quadsplit_without_search_bounds():
    # K = 6 and m = 11, past any coefficient sweep over small m and K
    cert, group_a = _built_split((5, -3, 1, -4, 2, -1), (1, 2, -1, -3, 2, -1))
    s = len(cert.beta_boxes)
    half = tuple(int(i in group_a) for i in range(s))
    assert certify(cert, half) == CERTIFIED_QUADSPLIT
    assert certify(cert, tuple(3 * c - 1 for c in half)) == CERTIFIED_QUADSPLIT
    # a wrong half is refused
    a, b = min(group_a), min(set(range(s)) - group_a)
    wrong = list(half)
    wrong[a], wrong[b] = 0, 1
    assert certify(cert, tuple(wrong)) == NUMERIC_ONLY


def test_quadsplit_needs_zero_root_sums():
    # p + sqrt(11)*q with sum u = 1 has root sum 1, so (2p)_(K-1) != 0
    cert, group_a = _built_split((5, -3, 1, -4, 2, 0), (1, 2, -1, -3, 2, -1))
    half = tuple(int(i in group_a) for i in range(len(cert.beta_boxes)))
    assert certify(cert, half) == NUMERIC_ONLY
    # g depends on v only through v^2, so flipping the last v keeps g and
    # moves -1 + sqrt(11) into the half; that half has root sum
    # 2*sqrt(11), and since deg q = K - 1, deg((2p)^2 - 4g) = 2K - 2
    cert, group_a = _built_split((5, -3, 1, -4, 2, -1), (1, 2, -1, -3, 2, 1))
    half = tuple(int(i in group_a) for i in range(len(cert.beta_boxes)))
    assert certify(cert, half) == NUMERIC_ONLY


# -- relation search ----------------------------------------------------------------------


def test_deg8_pairsum_relation(deg8_cert):
    reports = find_relations(deg8_cert, max_length=8)
    assert len(reports) == 1
    r = reports[0]
    assert r.reduced == (1, -1, -1, 1)
    assert r.vector.coeffs == (1, 1, -1, -1, -1, -1, 1, 1)
    assert r.vector.length == 8
    assert r.nontrivial and r.status == CERTIFIED_PAIRSUM
    assert r.precision_bits == 64


def test_deg12_quadsplit_relations(deg12_cert):
    reports = find_relations(deg12_cert, max_length=6)
    assert len(reports) == 2
    assert {r.reduced for r in reports} == {(1, 0, 0, 1, 1, 0),
                                            (0, 1, 1, 0, 0, 1)}
    for r in reports:
        assert r.nontrivial and r.status == CERTIFIED_QUADSPLIT
        assert r.vector.length == 6


def test_sextics_only_trivial_relation(sextic_certs):
    for cert in sextic_certs:
        reports = find_relations(cert, max_length=10)
        assert len(reports) == 1
        r = reports[0]
        assert not r.nontrivial
        assert r.reduced == (1, 1, 1) and r.status == CERTIFIED_TRACE


def test_min_length_scan(deg8_cert, deg12_cert):
    assert min_length_scan(deg8_cert, 6)
    assert min_length_scan(deg12_cert, 6)
    assert min_length_scan(deg8_cert, 1)
    assert not min_length_scan(deg8_cert, 9)  # the length-8 relation is there


def test_min_length_scan_stops_at_first_nontrivial_survivor(deg8_cert,
                                                           monkeypatch):
    walks = []

    def recording(*args):
        walk = _survivors(*args)
        walks.append(walk)
        return walk

    monkeypatch.setattr(relations, "_survivors", recording)
    assert not min_length_scan(deg8_cert, 9)
    # the walk was left suspended at (1, -1, -1, 1), not run to the end
    assert inspect.getgeneratorstate(walks[0]) == inspect.GEN_SUSPENDED


class _CountingMath:
    """The math module with a count of gcd calls, one per vector whose sum
    passes the screen."""

    def __init__(self):
        self.gcd_calls = 0

    def gcd(self, *args):
        self.gcd_calls += 1
        return math.gcd(*args)

    def __getattr__(self, name):
        return getattr(math, name)


def test_survivors_walk_is_lazy(monkeypatch):
    # every beta box collapses to the exact root 0, so every vector passes
    zero = RootBox(IntPoly((0, 1)), Fraction(-1), Fraction(1))
    cert = SimpleNamespace(beta_boxes=(zero,) * 8)
    counting = _CountingMath()
    monkeypatch.setattr(relations, "math", counting)
    first = list(itertools.islice(_survivors(cert, 6, 8), 2))
    assert first == [(0,) * 7 + (1,), (0,) * 6 + (1, -5)]
    # (0,...,0,2) to (0,...,0,6) are tested and dropped as imprimitive
    assert counting.gcd_calls == 7
    # run to the end, the walk tests every vector the screen size counts
    counting.gcd_calls = 0
    survivors = list(_survivors(cert, 6, 8))
    assert len(survivors) < counting.gcd_calls == _screen_size(8, 6)


def test_screen_size_matches_brute_force():
    for s in range(1, 6):
        for r in range(5):
            points = sum(1 for m in itertools.product(range(-r, r + 1),
                                                      repeat=s)
                         if sum(map(abs, m)) <= r)
            assert _screen_size(s, r) == (points - 1) // 2


def test_min_length_scan_prices_only_its_own_refinement():
    # the scan refines 200 beta boxes to 2^-256 and no further; priced as
    # if it also made the 2^-512 refinement of `relations --verify`, it was
    # refused at 16956400 work units
    cert = salem_check(parse_poly("x^400-x^398-x^397-x^3-x^2+1"))
    start = time.perf_counter()
    assert min_length_scan(cert, 3)
    assert time.perf_counter() - start <= 3


def test_screen_size_capped_before_refinement(monkeypatch):
    cert = trace0_salem(100)

    def no_refine(box, eps):
        raise AssertionError("refined before the size check")

    monkeypatch.setattr(relations, "refine", no_refine)
    # s = 50 betas and sum |m_j| <= 12: about 1.2 * 10^15 vectors
    with pytest.raises(ValueError, match="screen of 1235433284005660 "):
        find_relations(cert, 24)
    # lengths below 24 allow sum |m_j| <= 11
    with pytest.raises(ValueError, match="screen of 145079852342660 "):
        min_length_scan(cert, 24)


def test_deg20_trace0_no_relation_below_length_12():
    # the constant relation has length 20
    assert find_relations(trace0_salem(20), max_length=12) == ()


def test_argument_validation(deg8_cert):
    for bad in (0, 25, -3):
        with pytest.raises(ValueError):
            find_relations(deg8_cert, bad)
        with pytest.raises(ValueError):
            min_length_scan(deg8_cert, bad)
    with pytest.raises(ValueError):
        find_relations(deg8_cert, 8, precision_bits=0)


def test_precision_bits_capped(deg8_cert):
    # screening cost grows steeply with precision, so large values are
    # refused before any box is refined
    for bad in (1025, 4096, 10 ** 6):
        with pytest.raises(ValueError):
            find_relations(deg8_cert, 8, precision_bits=bad)
    assert len(find_relations(deg8_cert, 2, precision_bits=1024)) == 0


def test_screening_stable_under_higher_precision(deg8_cert, deg12_cert):
    for cert, length in ((deg8_cert, 8), (deg12_cert, 6)):
        base = [(r.reduced, r.status) for r in find_relations(cert, length)]
        fine = [(r.reduced, r.status)
                for r in find_relations(cert, length, precision_bits=128)]
        assert base == fine


# -- independent conjugate-level verification ---------------------------------------------


def test_deg8_relation_certified_against_conjugate_arithmetic(deg8_cert):
    # screen every integer vector on all 8 conjugates, no pairing assumed;
    # survivors must be exactly the +-pairsum relation
    intervals = _conjugate_intervals(deg8_cert)
    survivors = [ks for ks in _int_vectors(8, 8)
                 if _dot_contains_zero(intervals, ks)]
    expected = (1, 1, -1, -1, -1, -1, 1, 1)
    assert sorted(survivors) == sorted(
        [expected, tuple(-c for c in expected)]
    )


def test_deg12_relations_verified_on_conjugates(deg12_cert):
    intervals = _conjugate_intervals(deg12_cert)
    for reduced in ((1, 0, 0, 1, 1, 0), (0, 1, 1, 0, 0, 1), (1,) * 6):
        full = tuple(m for m in reduced for _ in range(2))
        assert _dot_contains_zero(intervals, full)
    for reduced in ((1, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 1)):
        full = tuple(m for m in reduced for _ in range(2))
        assert not _dot_contains_zero(intervals, full)
