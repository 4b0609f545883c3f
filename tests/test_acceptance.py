"""End-to-end acceptance gate: one test per published behavior guarantee.

Each test is self-contained, asserts bit-exact outputs where the guarantee is
bit-exact, and enforces the documented wall-clock budget.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

from salemrel import cli
from salemrel.cyclo import (cyclotomic, cyclotomic_candidates,
                            cyclotomic_progressions, seq_poly)
from salemrel.factorint import factor, is_irreducible, kronecker_factor_oracle
from salemrel.polyarith import (IntPoly, norm_form, pair_sum_lift, trace_lift,
                                trace_project)
from salemrel.realroots import (count_roots, cubic_all_in_band,
                                cubic_salem_split)
from salemrel.relations import (CERTIFIED_PAIRSUM, CERTIFIED_QUADSPLIT,
                                CERTIFIED_TRACE, find_relations,
                                min_length_scan)
from salemrel.salemkit import (FAMILIES, RejectionKind, bad_degrees,
                               family_degree_shift, pair_sum_enum,
                               salem_check, trace0_salem, trace0_salem_detail)

from test_realroots import _float_real_roots, _random_squarefree

SEXTICS = (
    (1, 0, -1, -1, -1, 0, 1),
    (1, 0, -1, -2, -1, 0, 1),
    (1, 0, -2, -3, -2, 0, 1),
    (1, 0, -4, -7, -4, 0, 1),
)


def test_criterion_1_deg6_trace0_enumeration(capsys):
    start = time.perf_counter()
    code = cli.run(["enum", "--deg6-trace0", "--json"])
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["pairs"] == [[4, -1], [4, -2], [4, -3], [5, -3],
                                      [5, -4], [6, -5], [7, -7]]
    assert [tuple(int(c) for c in p["coeffs"])
            for p in doc["result"]["discarded_cubics"]] == [
        (-3, -4, 0, 1), (-4, -5, 0, 1), (-5, -6, 0, 1)
    ]
    assert tuple(tuple(int(c) for c in cert["minpoly"]["coeffs"])
                 for cert in doc["certificates"]) == SEXTICS
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_2_window_lift_enumeration():
    start = time.perf_counter()
    results = {k: pair_sum_enum(k) for k in (2, 3, 4, 5)}
    elapsed = time.perf_counter() - start

    assert [len(results[k].salem) for k in (2, 3, 4, 5)] == [15, 30, 20, 4]
    # sha256 of repr([h.coeffs for h in window_poly_search(5)])
    assert hashlib.sha256(repr([h.coeffs for h in results[5].satisfying])
                          .encode()).hexdigest() == (
        "82a87998fe9b3fb0685bdaceb1fda7511593eb5ad3739a7bb1e22ae0afc69d8b")

    minpolys2 = [c.minpoly for c in results[2].salem]
    assert IntPoly((1, 4, 1)) in results[2].satisfying
    assert IntPoly((1, -2, 1, -2, 1, -2, 1, -2, 1)) in minpolys2

    quintic = IntPoly((-1, -1, 16, 22, 9, 1))
    assert quintic in results[5].satisfying
    minpolys5 = [c.minpoly for c in results[5].salem]
    assert IntPoly((1, -5, 11, -19, 26, -29, 27, -19, 8, 1, -5,
                    1, 8, -19, 27, -29, 26, -19, 11, -5, 1)) in minpolys5

    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"


def test_criterion_3_cyclotomic_obstructions():
    start = time.perf_counter()

    assert cyclotomic_candidates(FAMILIES[0]).orders == (1, 2, 8, 12, 18, 30)
    assert cyclotomic_candidates(FAMILIES[1]).orders == (1, 2, 3, 6, 12)
    assert cyclotomic_candidates(FAMILIES[2]).orders == (1, 2, 3, 4, 6, 10, 18)

    r1 = bad_degrees(1, 200)
    assert r1.d_entries == ((2, (1,)), (8, (2,)), (12, (1,)), (18, (17,)),
                            (30, (24,)))
    assert r1.sporadic_d == ()
    r2 = bad_degrees(2, 200)
    assert r2.d_entries == ((2, (1,)), (3, (2,)), (6, (3,)), (12, (4,)))
    assert r2.sporadic_d == (5,)
    r3 = bad_degrees(3, 200)
    assert r3.d_entries == ((2, (1,)), (3, (1,)), (4, (3,)), (6, (4,)),
                            (10, (5,)), (18, (6,)))
    assert r3.sporadic_d == (7,)

    # exhaustive sweep: divisibility happens on exactly the predicted indices
    for fam in FAMILIES:
        shift = family_degree_shift(fam)
        ps = cyclotomic_progressions(fam)
        residues = {e.order: e.residues for e in ps.entries}
        sporadic = set(ps.sporadic)
        for n in range(2, 201):
            g = seq_poly(fam, n)
            for order in cyclotomic_candidates(fam).orders:
                predicted = (n % order in residues.get(order, frozenset())
                             or (order, n) in sporadic)
                divides = (g % cyclotomic(order)).is_zero
                assert divides == predicted, (shift, order, n)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_4_trace0_all_even_degrees():
    start = time.perf_counter()
    for d in range(6, 101, 2):
        cert = trace0_salem(d)
        assert cert and cert.degree == d and cert.trace == 0
        assert cert.minpoly.is_monic
        assert cert.beta_boxes[0].lo > 2

    det10 = trace0_salem_detail(10)
    assert det10.family == 2 and det10.attempts == ((1, 7, "Reducible"),)
    det26 = trace0_salem_detail(26)
    assert det26.family == 3
    assert det26.attempts == ((1, 23, "Reducible"), (2, 25, "Reducible"))

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_5_norm_form_constructions():
    g = norm_form(IntPoly((-3, -5, 0, 1)), IntPoly((2, 1)), 2)
    assert g.coeffs == (1, 22, 23, -6, -10, 0, 1)
    f12 = trace_lift(g)
    assert f12.coeffs == (1, 0, -4, -6, -2, 4, 7, 4, -2, -6, -4, 0, 1)
    cert = salem_check(f12)
    assert cert
    assert abs(float(cert.alpha.mid) - 2.502568) < 1e-6

    g3 = norm_form(IntPoly((-3, -5, 0, 1)), IntPoly((2, 1)), 3)
    assert dict(factor(g3).factors) == {
        IntPoly((-3, 0, 1)): 1, IntPoly((1, -6, -7, 0, 1)): 1
    }
    g5 = norm_form(IntPoly((-3, -5, 0, 1)), IntPoly((2, 1)), 5)
    assert dict(factor(g5).factors) == {
        IntPoly((-1, 1, 1)): 1, IntPoly((11, 1, -8, -1, 1)): 1
    }
    f8r = pair_sum_lift(IntPoly((2, 4, 1)))
    assert dict(factor(f8r).factors) == {
        IntPoly((1, 0, 0, 0, 1)): 1, IntPoly((1, -2, 1, -2, 1)): 1
    }

    cert8 = salem_check(pair_sum_lift(IntPoly((1, 4, 1))))
    assert cert8
    assert abs(float(cert8.alpha.mid) - 1.994004) < 1e-6


def test_criterion_6_conjugate_relations(deg8_cert, deg12_cert, sextic_certs):
    reports = find_relations(deg8_cert, max_length=8)
    assert [r.status for r in reports if r.nontrivial] == [CERTIFIED_PAIRSUM]
    assert reports[0].vector.length == 8

    reports = find_relations(deg12_cert, max_length=6)
    nontrivial = [r for r in reports if r.nontrivial]
    assert len(nontrivial) == 2
    assert all(r.status == CERTIFIED_QUADSPLIT for r in nontrivial)
    assert all(r.vector.length == 6 for r in nontrivial)

    assert min_length_scan(deg8_cert, 6)
    assert min_length_scan(deg12_cert, 6)

    for cert in sextic_certs:
        reports = find_relations(cert, max_length=10)
        assert [(r.nontrivial, r.status) for r in reports] == [
            (False, CERTIFIED_TRACE)
        ]


def test_criterion_7_property_suites():
    rng = random.Random(777)

    for _ in range(500):  # dual-route factorization
        deg = rng.randrange(1, 7)
        p = IntPoly(tuple(rng.randint(-9, 9) for _ in range(deg))
                    + (rng.choice((-3, -2, -1, 1, 2, 3)),))
        assert factor(p) == kronecker_factor_oracle(p)
    assert is_irreducible(IntPoly((1, 0, 0, 0, 1)))

    done = 0  # exact root counting vs float oracle
    while done < 500:
        p = _random_squarefree(rng, 8)
        real = _float_real_roots(p)
        if real is None:
            continue
        lo = rng.randint(-8, 7)
        hi = rng.randint(lo + 1, 8)
        if any(abs(r - lo) < 1e-4 or abs(r - hi) < 1e-4 for r in real):
            continue
        assert count_roots(p, lo, hi) == sum(1 for r in real if lo < r < hi)
        done += 1

    for a in range(-15, 16):  # cubic window predicates vs exact counting
        for b in range(-15, 16):
            h = IntPoly((b, -a, 0, 1))
            try:
                band = count_roots(h, -2, 2) == 3
                split = (count_roots(h, -2, 2) == 2
                         and count_roots(h, 2, None) == 1)
            except ValueError:  # endpoint root: reject
                band = split = False
            assert cubic_all_in_band(a, b) == band, (a, b)
            assert cubic_salem_split(a, b) == split, (a, b)

    for _ in range(1000):  # lift/project round trip
        deg = rng.randrange(1, 9)
        g = IntPoly(tuple(rng.randint(-9, 9) for _ in range(deg)) + (1,))
        assert trace_project(trace_lift(g)) == g

    for n in range(1, 61):  # cyclotomic product identity
        prod = IntPoly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == IntPoly((-1,) + (0,) * (n - 1) + (1,))


def test_criterion_8_no_even_quartic_family():
    for a in range(-50, 51):
        reason = salem_check(IntPoly((1, 0, a, 0, 1)))
        assert not reason
        assert reason.kind is RejectionKind.ROOT_WINDOW_VIOLATION, a
