import hashlib
import itertools
import math
from fractions import Fraction

import pytest

from salemrel import realroots, salemkit
from salemrel.cyclo import cyclotomic, seq_poly
from salemrel.factorint import is_irreducible
from salemrel.polyarith import (IntPoly, _scaled_value, _sign, pair_sum_lift,
                                pair_sum_trace_poly, trace_lift,
                                trace_project)
from salemrel.realroots import _scaled_range, count_roots
from salemrel.salemkit import (FAMILIES, RejectionKind, bad_degrees,
                               build_salem_from_trace_poly,
                               enum_deg6_trace0, enum_deg6_trace0_detail,
                               family_degree_shift, pair_sum_enum,
                               salem_check, trace0_salem, trace0_salem_detail,
                               window_poly_search)


def _near(box, value: float, tol: float = 1e-6) -> bool:
    return abs(float(box.mid) - value) < tol


# -- recognizing Salem minimal polynomials ---------------------------------------------


def test_deg12_certificate(deg12_cert):
    c = deg12_cert
    assert c.minpoly.coeffs == (1, 0, -4, -6, -2, 4, 7, 4, -2, -6, -4, 0, 1)
    assert c.degree == 12 and c.trace == 0
    assert c.trace_poly.coeffs == (1, 22, 23, -6, -10, 0, 1)
    assert _near(c.alpha, 2.502568637808661, 1e-12)
    assert float(c.alpha.width) < 1e-20
    assert len(c.beta_boxes) == 6
    assert c.beta_boxes[0].lo > 2
    for box in c.beta_boxes[1:]:
        assert -2 < box.lo and box.hi < 2
    for prev, cur in zip(c.beta_boxes, c.beta_boxes[1:]):
        assert prev.lo > cur.hi  # descending, disjoint


def test_deg8_certificate(deg8_cert):
    c = deg8_cert
    assert c.minpoly.coeffs == (1, -2, 1, -2, 1, -2, 1, -2, 1)
    assert c.degree == 8 and c.trace == 2
    assert _near(c.alpha, 1.994004199)
    assert bool(c)


def test_smallest_quartic_salem():
    c = salem_check(IntPoly((1, -1, -1, -1, 1)))
    assert c
    assert _near(c.alpha, 1.7220838)
    assert c.trace == 1 and len(c.beta_boxes) == 2


_WINDOW = RejectionKind.ROOT_WINDOW_VIOLATION


def test_rejection_kinds_and_precedence():
    checks = [
        ((2, 0, 0, 0, 2), RejectionKind.NOT_MONIC, ""),
        ((1, 1, 0, 0, 1), RejectionKind.NOT_RECIPROCAL, ""),
        ((2, 0, 0, 1), RejectionKind.NOT_RECIPROCAL, ""),  # monic checked first
        ((1, 0, 0, 1), RejectionKind.ODD_DEGREE, ""),
        ((1, -3, 1), RejectionKind.DEGREE_TOO_SMALL, ""),
        ((1, 0, 0, 0, 1), _WINDOW, "0 roots beyond 2 (need exactly 1)"),
        ((1, 0, -2, 0, 1), _WINDOW, "root at the window boundary"),  # g = x^2-4
        ((1, 0, -7, 0, 1), _WINDOW, "0 roots in (-2,2) (need 1)"),  # g = x^2-9
        ((1, -7, 14, -7, 1), _WINDOW, "2 roots beyond 2 (need exactly 1)"),
        # h = x^2 + 3x: its lift's g is placed, with g(0) == 0
        (pair_sum_lift(IntPoly((0, 3, 1))).coeffs, RejectionKind.REDUCIBLE,
         ""),
    ]
    for coeffs, kind, detail in checks:
        reason = salem_check(IntPoly(coeffs))
        assert not reason
        assert (reason.kind, reason.detail) == (kind, detail), coeffs


def test_reducible_at_zero_needs_no_isolation(monkeypatch):
    # a placed g with g(0) == 0 is rejected on the Sturm counts alone
    def refuse(*args, **kwargs):
        raise AssertionError("isolate_roots called")

    monkeypatch.setattr(realroots, "isolate_roots", refuse)
    reason = salem_check(pair_sum_lift(IntPoly((0, 3, 1))))
    assert not reason and reason.kind is RejectionKind.REDUCIBLE


def test_rejects_reducible_window_passer():
    reason = salem_check(pair_sum_lift(IntPoly((2, 4, 1))))
    assert not reason and reason.kind is RejectionKind.REDUCIBLE


def _placed(g: IntPoly) -> bool:
    s = g.degree
    return (g.sign_at(2) != 0 and g.sign_at(-2) != 0
            and count_roots(g, 2, None) == 1 and count_roots(g, -2, 2) == s - 1)


def test_placed_reducible_matches_factorization():
    # the trace polynomials that reach salem_check's irreducibility test on
    # the way to pair_sum_enum(2..4), enum_deg6_trace0 and trace0_salem(8..100):
    # each family is tried until its member is irreducible
    reached = [pair_sum_trace_poly(h) for k in (2, 3, 4)
               for h in window_poly_search(k)]
    reached += [c.trace_poly for c in enum_deg6_trace0()]
    assert all(_placed(g) for g in reached)
    oracle = {g: not is_irreducible(g) for g in reached}
    for d in range(8, 101, 2):
        for seq in FAMILIES:
            n = d - family_degree_shift(seq)
            g = trace_project(seq_poly(seq, n)) if n >= 2 else None
            if g is not None and _placed(g):
                reached.append(g)
                oracle[g] = not is_irreducible(g)
                if not oracle[g]:
                    break
    assert len(oracle) == len(reached) == 276
    assert sum(oracle.values()) == 160
    for g in reached:
        assert salemkit._placed_reducible(g) == oracle[g], g


def test_placed_reducible_on_cyclotomic_multiples():
    # Psi_n, the trace polynomial of Phi_n, times the trace-0 members of
    # degree 6..12: placement holds and every product is reducible
    for d in (6, 8, 10, 12):
        g = trace0_salem(d).trace_poly
        for n in range(3, 40):
            gp = g * trace_project(cyclotomic(n))
            reason = salem_check(trace_lift(gp))
            assert not reason and reason.kind is RejectionKind.REDUCIBLE, (d, n)


@pytest.mark.parametrize("factor", [
    (0, 1),       # x: g(0) == 0 (n = 4)
    (1, 1),       # x + 1 (n = 3) and
    (-1, 1, 1),   # x^2 + x - 1 (n = 5): gcd(g, T)
    (-1, 1),      # x - 1 (n = 6) and
    (-1, -1, 1),  # x^2 - x - 1 (n = 10): gcd(g(-x), T)
    (-2, 0, 1),   # x^2 - 2 (n = 8) and
    (-3, 0, 1),   # x^2 - 3 (n = 12): gcd(E, O)
])
def test_each_cyclotomic_branch_rejects(factor):
    # the first sextic's trace polynomial times one Psi_n: each product
    # fires exactly one of the four tests of _placed_reducible
    g = IntPoly((-1, -4, 0, 1)) * IntPoly(factor)
    reason = salem_check(trace_lift(g))
    assert not reason and reason.kind is RejectionKind.REDUCIBLE
    assert reason.detail == ""


def test_degree4_even_family_never_salem():
    for a in range(-50, 51):
        reason = salem_check(IntPoly((1, 0, a, 0, 1)))
        assert not reason
        assert reason.kind is RejectionKind.ROOT_WINDOW_VIOLATION, a


def test_build_from_trace_poly():
    cert = build_salem_from_trace_poly(IntPoly((-3, -5, 0, 1)))
    assert cert and cert.minpoly.coeffs == (1, 0, -2, -3, -2, 0, 1)

    # root 1 < 2: placement is tested before the degree bound, which
    # salem_check applies first to the quadratic lift
    reason = build_salem_from_trace_poly(IntPoly((-1, 1)))
    assert not reason and reason.kind is RejectionKind.ROOT_WINDOW_VIOLATION
    assert reason.detail == "0 roots beyond 2 (need exactly 1)"

    # roots +-3; roots 3 and 4: the lift's salem_check verdict
    for g in (IntPoly((-9, 0, 1)), IntPoly((12, -7, 1))):
        reason = build_salem_from_trace_poly(g)
        lifted = salem_check(trace_lift(g))
        assert not reason and reason.kind is RejectionKind.ROOT_WINDOW_VIOLATION
        assert (reason.kind, reason.detail) == (lifted.kind, lifted.detail)

    reason = build_salem_from_trace_poly(IntPoly((-3, 1)))  # lift is quadratic
    assert not reason and reason.kind is RejectionKind.DEGREE_TOO_SMALL

    with pytest.raises(ValueError):
        build_salem_from_trace_poly(IntPoly((1, 2)))


# -- trace-zero sextic enumeration -----------------------------------------------------


def test_deg6_trace0_enumeration(sextic_certs):
    detail = enum_deg6_trace0_detail()
    assert detail.pairs == ((4, -1), (4, -2), (4, -3), (5, -3), (5, -4),
                            (6, -5), (7, -7))
    assert tuple(c.coeffs for c in detail.discarded_cubics) == (
        (-3, -4, 0, 1), (-4, -5, 0, 1), (-5, -6, 0, 1)
    )
    expected = (
        (1, 0, -1, -1, -1, 0, 1),
        (1, 0, -1, -2, -1, 0, 1),
        (1, 0, -2, -3, -2, 0, 1),
        (1, 0, -4, -7, -4, 0, 1),
    )
    assert tuple(c.minpoly.coeffs for c in detail.certificates) == expected
    assert tuple(c.minpoly.coeffs for c in sextic_certs) == expected
    for c in detail.certificates:
        assert c.trace == 0 and c.degree == 6
    # the sweep discards exactly the cubics whose lift salem_check rejects
    # as Reducible
    for cubic in detail.discarded_cubics:
        assert salem_check(trace_lift(cubic)).kind is RejectionKind.REDUCIBLE


def test_deg6_sweep_fails_on_any_other_rejection(monkeypatch):
    window = salemkit.RejectionReason(RejectionKind.ROOT_WINDOW_VIOLATION)
    monkeypatch.setattr(salemkit, "salem_check", lambda f: window)
    with pytest.raises(salemkit.ConstructionFailed):
        enum_deg6_trace0_detail()


# -- window polynomial search and pair-sum lifts ----------------------------------------


def test_window_search_counts_small():
    w2 = window_poly_search(2)
    assert len(w2) == 24
    assert IntPoly((1, 4, 1)) in w2 and IntPoly((2, 4, 1)) in w2
    for h in w2:
        assert h.is_monic and h.degree == 2
        assert count_roots(h, -2, Fraction(1, 4)) == 1
        assert count_roots(h, -6, -2) == 1

    p2 = pair_sum_enum(2)
    assert p2.k == 2 and len(p2.satisfying) == 24 and len(p2.salem) == 15
    minpolys = [c.minpoly for c in p2.salem]
    assert pair_sum_lift(IntPoly((1, 4, 1))) in minpolys
    assert pair_sum_lift(IntPoly((2, 4, 1))) not in minpolys
    for c in p2.salem:
        assert c.degree == 8 and c.trace == 2


def test_window_search_k3():
    p3 = pair_sum_enum(3)
    assert len(p3.satisfying) == 73
    assert len(p3.salem) == 30
    for c in p3.salem:
        assert c.degree == 12 and c.trace == 3
    for h in p3.satisfying:
        assert h.is_monic and h.degree == 3
        assert count_roots(h, -2, Fraction(1, 4)) == 2
        assert count_roots(h, -6, -2) == 1


def test_window_search_refinement_path_matches_interlacing(monkeypatch):
    # with an empty interlacing range every c of the weak range goes through
    # _alternates, which bisects the critical boxes until it decides, and
    # the search must find the same polynomials
    default = {k: window_poly_search(k) for k in (2, 3, 4)}
    monkeypatch.setattr(salemkit, "_interlacing_range",
                        lambda ranges, slope, lo, hi: (hi + 1, hi))
    for k, hs in default.items():
        assert window_poly_search(k) == hs


def _brute_force_window_polys(k: int) -> list[IntPoly]:
    """Every monic h inside _coeff_bound with one root in (-6, -2) and k-1 in
    (-2, 1/4), by Sturm counts: the oracle for window_poly_search."""
    found = []
    bounds = [range(-salemkit._coeff_bound(k, j),
                    salemkit._coeff_bound(k, j) + 1) for j in range(1, k + 1)]
    for tail in itertools.product(*bounds):
        h = IntPoly((*reversed(tail), 1))
        # the strict signs at the window's ends and at -2
        if (h.sign_at(Fraction(1, 4)) != 1 or h.sign_at(-6) != (-1) ** k
                or h.sign_at(-2) != (-1) ** (k - 1)):
            continue
        if (count_roots(h, -6, -2) == 1
                and count_roots(h, -2, Fraction(1, 4)) == k - 1):
            found.append(h)
    return sorted(found, key=IntPoly.sort_key)


@pytest.mark.parametrize("k", [2, 3])
def test_window_search_matches_brute_force(k):
    assert window_poly_search(k) == _brute_force_window_polys(k)


def test_window_search_needs_the_minus2_half_line_above_the_leaf(monkeypatch):
    # the leaf counts no roots below -2: the -2 half-line at the inner levels
    # is what keeps the second root of every D_m above -2.  Without it the
    # search keeps every polynomial it finds with it (the half-line cuts no
    # valid h) and adds, at k = 4, h with three roots in (-6, -2)
    window_range = salemkit._window_range
    default = {k: window_poly_search(k) for k in (3, 4)}
    for k, hs in default.items():
        monkeypatch.setattr(
            salemkit, "_window_range",
            lambda base, slope, ranges, lo, hi, minus2, k=k: window_range(
                base, slope, ranges, lo, hi, len(base) - 1 == k))
        relaxed = window_poly_search(k)
        assert set(hs) <= set(relaxed)
        extra = set(relaxed) - set(hs)
        assert len(extra) == (0 if k == 3 else 443)
        for h in extra:
            assert count_roots(h, -6, -2) == 3
            assert count_roots(h, -2, Fraction(1, 4)) == k - 3


# (base of D_m, descending boxes around the roots of D_m', whether the
# smallest lies at or below -2): the smallest box below, straddling or
# clearing -2, at m = 3 and m = 2 of the k = 5 search
_MINUS2_CASES = [
    ((0, 9, 6, 1), [(-5, -3, 4), (-7, -5, 2)], True),  # D' = 3(x+1)(x+3)
    ((0, 9, 6, 1), [(-5, -3, 4), (-13, -7, 4)], False),
    ((0, -3, 0, 1), [(3, 5, 4), (-5, -3, 4)], False),  # D' = 3(x-1)(x+1)
    ((0, 6, 1), [(-7, -5, 2)], True),  # D' = 2(x + 3)
    ((0, 5, 1), [(-3, -1, 1)], False),  # D' = 2(x + 5/2)
    ((0, 2, 1), [(-5, -3, 4)], False),  # D' = 2(x + 1)
]


@pytest.mark.parametrize("base, boxes, low", _MINUS2_CASES)
def test_minus2_half_line_matches_sign_at_minus2(base, boxes, low):
    # D_m = base + c*(5 - m)!: the -2 half-line applies when the smallest
    # box lies at or below -2, and then the weak range keeps exactly its c
    # with (-1)^(m-1) * D_m(-2) > 0
    m = len(base) - 1
    slope = math.factorial(5 - m)
    bound = salemkit._coeff_bound(5, m)
    assert salemkit._minus2_applies(m, 5, boxes) == low
    # at the leaf it always applies
    assert salemkit._minus2_applies(m, m, boxes)
    ranges = [_scaled_range(base, *box) for box in boxes]
    wlo, whi = salemkit._window_range(base, slope, ranges, -bound, bound,
                                      False)
    plo, phi = salemkit._window_range(base, slope, ranges, -bound, bound,
                                      low)
    wrong = 0
    for c in range(-bound, bound + 1):
        d = (c * slope,) + base[1:]
        right = _sign(_scaled_value(d, -2, 1)) == (-1) ** (m - 1)
        weak = wlo <= c <= whi
        assert (plo <= c <= phi) == (weak and (right or not low)), c
        wrong += weak and not right
    # in every case some c of the weak range has the wrong sign at -2, so
    # the half-line cuts exactly when the smallest box is low
    assert wrong


def test_alternates_decides_by_gcd_at_a_double_root():
    # D = (x^2 - 2)^2 against D' = 4x(x^2 - 2): D vanishes at the irrational
    # critical points +-sqrt(2), so no bisection can exclude 0 there and the
    # gcd must end it, after _GCD_AFTER bisections of the first box
    base = (0, 0, -4, 0, 1)  # D - 4
    start = [(1, 2, 1), (-1, 1, 2), (-2, -1, 1)]
    boxes = list(start)
    ranges = [_scaled_range(base, *box) for box in boxes]
    assert not salemkit._alternates(base, 4, boxes, ranges)
    ln, hn, den = boxes[0]
    assert (hn - ln) * (1 << salemkit._GCD_AFTER) == den
    assert ln * ln < 2 * den * den < hn * hn
    assert boxes[1:] == start[1:]
    assert ranges == [_scaled_range(base, *box) for box in boxes]
    # D - 1 = (x^2 - 1)(x^2 - 3) is -1, 3, -1 there: it alternates, and the
    # boxes refined above are reused as they are
    assert salemkit._alternates(base, 3, boxes, ranges)


def test_alternates_rejects_a_zero_on_an_exact_box():
    # D' = 2x has its root exactly at 0: x^2 fails there at once, x^2 - 1
    # is negative there and passes
    boxes, ranges = [(0, 0, 1)], [(0, 0, 1)]
    assert not salemkit._alternates((0, 0, 1), 0, boxes, ranges)
    assert salemkit._alternates((0, 0, 1), -1, boxes, ranges)
    assert boxes == [(0, 0, 1)]


# sha256 of repr([h.coeffs for h in window_poly_search(k)]): the exact
# polynomials, in the search's sorted order
_WINDOW_DIGESTS = {
    2: "35d579a6a806e4ba82fbcf58615e50d8a2c647f74b7bf8aa59eb83fac72c0819",
    3: "25b064d2eb186ead5382acdd222329e9fcc8050e4b8b28ad7c3e7461416dabf1",
    4: "ba28702c82f6a71834a88dd99c1f8bc9ae0f321f245f0995791fd4b3c1074507",
}


def test_window_search_golden_digests():
    for k, digest in _WINDOW_DIGESTS.items():
        hs = window_poly_search(k)
        assert hashlib.sha256(repr([h.coeffs for h in hs]).encode()
                              ).hexdigest() == digest, k


def test_pair_sum_enum_k6_golden():
    # k = 6 extends the table of Salem certificates to 15/30/20/4/0 for
    # k = 2..6: 33 window polynomials, and every lift is reducible
    res = pair_sum_enum(6)
    assert len(res.satisfying) == 33 and res.salem == ()
    assert hashlib.sha256(repr([h.coeffs for h in res.satisfying]).encode()
                          ).hexdigest() == (
        "564cbbb39bba10d9a0a813150388b4e63de3e89d707550f3b65e0e30d5583d39")
    for h in res.satisfying:
        assert count_roots(h, -6, -2) == 1
        assert count_roots(h, -2, Fraction(1, 4)) == 5
        assert salem_check(pair_sum_lift(h)).kind is RejectionKind.REDUCIBLE


def test_window_search_interlacing_path_is_integer_only(monkeypatch):
    # every node decides by interlacing or by _alternates on integer
    # triples, so at no k does the search need a Sturm count, an isolation,
    # a RootBox, a refinement or a Fraction of salemkit's own
    expected = {k: window_poly_search(k) for k in (2, 3, 4)}

    def forbidden(*args, **kwargs):
        raise AssertionError("left the integer path")

    for name in ("count_roots", "isolate_roots", "RootBox", "refine",
                 "Fraction"):
        monkeypatch.setattr(salemkit, name, forbidden, raising=False)
    for k, hs in expected.items():
        assert window_poly_search(k) == hs


def test_pair_sum_trace_identity_on_search_results():
    for h in window_poly_search(2):
        assert trace_project(pair_sum_lift(h)) == pair_sum_trace_poly(h)


# -- trace-zero Salem numbers of every even degree --------------------------------------


def test_trace0_uses_sextic_table_at_degree6():
    detail = trace0_salem_detail(6)
    assert detail.family == 0 and detail.n == 0 and detail.attempts == ()
    assert detail.certificate.minpoly.coeffs == (1, 0, -1, -1, -1, 0, 1)


def test_trace0_family_fallthrough_degree10():
    detail = trace0_salem_detail(10)
    assert detail.family == 2 and detail.n == 9
    assert detail.attempts == ((1, 7, "Reducible"),)
    c = detail.certificate
    assert c.degree == 10 and c.trace == 0
    assert c.minpoly == seq_poly(FAMILIES[1], 9)


def test_trace0_family_fallthrough_degree26():
    detail = trace0_salem_detail(26)
    assert detail.family == 3 and detail.n == 24
    assert detail.attempts == ((1, 23, "Reducible"), (2, 25, "Reducible"))
    c = detail.certificate
    assert c.degree == 26 and c.trace == 0
    assert c.minpoly == seq_poly(FAMILIES[2], 24)
    assert _near(c.alpha, 1.4654643646912817, 1e-12)


def test_trace0_spot_degrees():
    for d in (8, 12, 16, 30, 44):
        cert = trace0_salem(d)
        assert cert and cert.degree == d and cert.trace == 0


def test_trace0_rejects_bad_degree():
    for d in (4, 5, 7, 0, -6):
        with pytest.raises(ValueError):
            trace0_salem(d)


def _trace0_digest() -> str:
    """sha256 of trace0 6..100: each degree's rejected family attempts and
    its certificate's alpha and beta boxes as integer ends."""
    rows = []
    for d in range(6, 101, 2):
        detail = trace0_salem_detail(d)
        cert = detail.certificate
        rows.append((detail.attempts, [(b.ln, b.hn, b.den)
                                       for b in (cert.alpha,
                                                 *cert.beta_boxes)]))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _chain_lookups() -> int:
    info = realroots._sqf_and_chain.cache_info()
    return info.hits + info.misses


def test_trace0_boxes_do_not_rest_on_the_float_guide(monkeypatch):
    # floats only choose which grid cells to test: the guide itself, or one
    # that reorders the roots, places every trace polynomial trace0 6..100
    # tries, rejected family attempts included, with no Sturm chain, so a
    # silent fallback would show here; one that misplaces every root, or
    # names one root twice and another not at all, sends salem_check to the
    # Sturm path; the boxes stay the same either way
    digest = _trace0_digest()
    guide = realroots._float_roots

    def shifted(g, bound, tol):
        roots = guide(g, bound, tol)
        return roots and [y + 1e-3 for y in roots]

    def doubled(g, bound, tol):
        roots = guide(g, bound, tol)
        return roots and roots[:-1] + roots[-2:-1]

    def reversed_(g, bound, tol):
        roots = guide(g, bound, tol)
        return roots and roots[::-1]

    for mutant, sturm_used in ((guide, False), (shifted, True),
                               (doubled, True), (reversed_, False)):
        monkeypatch.setattr(realroots, "_float_roots", mutant)
        realroots._sqf_and_chain.cache_clear()
        assert _trace0_digest() == digest
        assert (_chain_lookups() > 0) == sturm_used


# -- degrees where each family fails ----------------------------------------------------


def test_family_shifts():
    assert [family_degree_shift(f) for f in FAMILIES] == [3, 1, 2]


def test_bad_degree_reports():
    r1 = bad_degrees(1, 100)
    assert r1.shift == 3
    assert r1.d_entries == ((2, (1,)), (8, (2,)), (12, (1,)), (18, (17,)),
                            (30, (24,)))
    assert r1.sporadic_d == ()
    even_bad = [d for d in r1.bad_degrees if d % 2 == 0]
    assert even_bad == [10, 18, 24, 26, 34, 42, 50, 54, 58, 66, 74, 82, 84,
                        90, 98]

    r2 = bad_degrees(2, 60)
    assert r2.shift == 1
    assert r2.d_entries == ((2, (1,)), (3, (2,)), (6, (3,)), (12, (4,)))
    assert r2.sporadic_d == (5,)

    r3 = bad_degrees(3, 60)
    assert r3.shift == 2
    assert r3.d_entries == ((2, (1,)), (3, (1,)), (4, (3,)), (6, (4,)),
                            (10, (5,)), (18, (6,)))
    assert r3.sporadic_d == (7,)


def test_bad_degrees_consistent_with_direct_checks():
    # even d <= 40: d is bad for a family iff salem_check rejects its member
    for family in (1, 2, 3):
        report = bad_degrees(family, 40)
        seq = FAMILIES[family - 1]
        shift = family_degree_shift(seq)
        for d in range(shift + 2, 41):
            cert = salem_check(seq_poly(seq, d - shift))
            assert bool(cert) == (d not in report.bad_degrees), (family, d)
