import bisect
import random

import pytest

from salemrel.cyclo import (CyclotomicHit, SalemSeq, _orders_up_to,
                            _root_mod_prime, _value_mod, cyclotomic,
                            cyclotomic_candidates, cyclotomic_part,
                            cyclotomic_progressions, seq_poly)
from salemrel.polyarith import IntPoly, _divisors, _is_prime
from salemrel.salemkit import FAMILIES


def _divides(d: IntPoly, p: IntPoly) -> bool:
    return (p % d).is_zero


# -- cyclotomic polynomials ------------------------------------------------------------


def test_cyclotomic_golden_values():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(8).coeffs == (1, 0, 0, 0, 1)
    assert cyclotomic(10).coeffs == (1, -1, 1, -1, 1)
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)
    assert cyclotomic(18).coeffs == (1, 0, 0, -1, 0, 0, 1)
    assert cyclotomic(30).coeffs == (1, 1, 0, -1, -1, -1, 0, 1, 1)
    assert cyclotomic(105)[7] == -2  # first order with a coefficient beyond +-1


def test_cyclotomic_product_identity():
    for n in range(1, 61):
        prod = IntPoly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == IntPoly((-1,) + (0,) * (n - 1) + (1,))


def test_cyclotomic_rejects_bad_order():
    with pytest.raises(ValueError):
        cyclotomic(0)
    with pytest.raises(ValueError):
        cyclotomic(-3)


# -- detecting cyclotomic divisors -----------------------------------------------------


def test_cyclotomic_part_constructed_product():
    p = cyclotomic(1) ** 2 * cyclotomic(12) * IntPoly((-3, 0, 1))
    assert cyclotomic_part(p) == [CyclotomicHit(1, 2), CyclotomicHit(12, 1)]

    p = IntPoly((-1,) + (0,) * 29 + (1,))  # x^30 - 1
    hits = cyclotomic_part(p)
    assert [h.order for h in hits] == [1, 2, 3, 5, 6, 10, 15, 30]
    assert all(h.multiplicity == 1 for h in hits)

    assert cyclotomic_part(IntPoly((1, 1, 1, 1))) == [
        CyclotomicHit(2, 1),
        CyclotomicHit(4, 1),
    ]
    assert cyclotomic_part(IntPoly((-3, 0, 1))) == []


def test_cyclotomic_part_family_members():
    assert cyclotomic_part(seq_poly(FAMILIES[1], 4)) == [
        CyclotomicHit(1, 2),
        CyclotomicHit(2, 1),
        CyclotomicHit(3, 1),
    ]
    assert cyclotomic_part(seq_poly(FAMILIES[2], 5)) == [
        CyclotomicHit(1, 2),
        CyclotomicHit(2, 1),
        CyclotomicHit(3, 1),
        CyclotomicHit(4, 1),
    ]
    assert cyclotomic_part(seq_poly(FAMILIES[0], 7)) == [CyclotomicHit(8, 1)]


def _totient_sieve(limit: int) -> list[int]:
    phi = list(range(limit + 1))
    for i in range(2, limit + 1):
        if phi[i] == i:  # i prime
            for j in range(i, limit + 1, i):
                phi[j] -= phi[j] // i
    return phi


def _sieve_and_divide(p: IntPoly) -> list[CyclotomicHit]:
    """The reference method: trial division by every Phi_l with
    totient(l) <= deg p, for l up to 2*deg**2 (totient(l) >= sqrt(l/2))."""
    deg = p.degree
    if deg < 1:
        return []
    limit = 2 * deg * deg
    phi = _totient_sieve(limit)
    hits = []
    for order in range(1, limit + 1):
        if phi[order] > deg:
            continue
        q = cyclotomic(order)
        mult = 0
        quo, rem = divmod(p, q)
        while rem.is_zero:
            mult += 1
            quo, rem = divmod(quo, q)
        if mult:
            hits.append(CyclotomicHit(order, mult))
    return hits


def test_orders_match_totient_sieve():
    phi = _totient_sieve(2 * 150 * 150)
    for deg in range(151):
        expected = [(l, phi[l]) for l in range(1, 2 * deg * deg + 1)
                    if phi[l] <= deg]
        assert _orders_up_to(deg) == expected, deg


def _orders_by_trial_division(deg):
    """_orders_up_to as it was before its sieve: the primes p <= deg + 1
    by one Miller-Rabin test each."""
    primes = [p for p in range(2, deg + 2) if _is_prime(p)]
    out = []

    def extend(l, phi, start):
        out.append((l, phi))
        for i in range(start, len(primes)):
            p = primes[i]
            pe, phe = p, phi * (p - 1)
            if phe > deg:
                return
            while phe <= deg:
                extend(l * pe, phe, i + 1)
                pe *= p
                phe *= p

    extend(1, 1, 0)
    out.sort()
    return out


def test_sieved_orders_match_trial_division():
    # the orders for deg are those for 3000 with totient at most deg: each
    # degree adds the orders of totient deg to the previous list
    by_totient = {}
    for order in _orders_by_trial_division(3000):
        by_totient.setdefault(order[1], []).append(order)
    expected = []
    for deg in range(1, 3001):
        for order in by_totient.get(deg, ()):
            bisect.insort(expected, order)
        assert _orders_up_to(deg) == expected, deg


def test_root_mod_prime_is_a_root_of_phi():
    for order in range(1, 331):
        q, r = _root_mod_prime(order)
        assert _is_prime(q) and (q - 1) % order == 0
        assert pow(r, order, q) == 1
        for d in _divisors(order):
            if d < order:
                assert pow(r, d, q) != 1, (order, d)
        assert _value_mod(cyclotomic(order).coeffs, r, q) == 0


def _cofactor(rng, reciprocal: bool) -> IntPoly:
    """A random cofactor of degree 1..8 with small coefficients; when asked,
    palindromic, the shape of the paper's reciprocal members."""
    deg = rng.randint(1, 8)
    if reciprocal:
        half = [rng.choice((1, 2))] + [rng.randint(-4, 4)
                                       for _ in range(deg // 2)]
        return IntPoly(tuple(half + half[:(deg + 1) // 2][::-1]))
    low = [rng.randint(-4, 4) for _ in range(deg)]
    return IntPoly(tuple(low) + (rng.choice((1, 2, 3)),))


def test_cyclotomic_part_matches_sieve_and_divide():
    rng = random.Random(2024)
    for case in range(40):
        p = _cofactor(rng, reciprocal=case % 2 == 0)
        assert case % 2 or p == p.reciprocal()
        budget = 48
        for _ in range(rng.randint(1, 3)):
            q = cyclotomic(rng.randint(1, 60))
            if q.degree <= budget:
                p = p * q
                budget -= q.degree
        assert cyclotomic_part(p) == _sieve_and_divide(p)
    for n in range(1, 61):
        p = IntPoly.monomial(n) - IntPoly.one()
        assert cyclotomic_part(p) == _sieve_and_divide(p)


# -- sequence definitions --------------------------------------------------------------


def test_seq_poly_construction():
    fam1 = FAMILIES[0]
    assert seq_poly(fam1, 3).coeffs == (1, 0, -1, -2, -1, 0, 1)
    suffix = fam1.f.reciprocal() * fam1.eps
    for n in (2, 5, 9):
        assert seq_poly(fam1, n) == fam1.f.shift_mul(n) + suffix

    fam2 = FAMILIES[1]
    undivided = fam2.f.shift_mul(6) + fam2.f.reciprocal() * fam2.eps
    assert seq_poly(fam2, 6) * IntPoly((-1, 1)) == undivided


def test_seq_poly_rejects_small_index():
    with pytest.raises(ValueError):
        seq_poly(FAMILIES[0], 0)


# -- candidate orders and index progressions -------------------------------------------


def test_candidate_orders_per_family():
    assert cyclotomic_candidates(FAMILIES[0]).orders == (1, 2, 8, 12, 18, 30)
    assert cyclotomic_candidates(FAMILIES[1]).orders == (1, 2, 3, 6, 12)
    assert cyclotomic_candidates(FAMILIES[2]).orders == (1, 2, 3, 4, 6, 10, 18)
    for fam in FAMILIES:
        assert not cyclotomic_candidates(fam).identically_zero


def test_progression_structures_per_family():
    ps1 = cyclotomic_progressions(FAMILIES[0])
    assert [(e.order, set(e.residues)) for e in ps1.entries] == [
        (2, {0}), (8, {7}), (12, {10}), (18, {14}), (30, {21})
    ]
    assert ps1.sporadic == ()

    ps2 = cyclotomic_progressions(FAMILIES[1])
    assert [(e.order, set(e.residues)) for e in ps2.entries] == [
        (2, {0}), (3, {1}), (6, {2}), (12, {3})
    ]
    assert ps2.sporadic == ((1, 4),)

    ps3 = cyclotomic_progressions(FAMILIES[2])
    assert [(e.order, set(e.residues)) for e in ps3.entries] == [
        (2, {1}), (3, {2}), (4, {1}), (6, {2}), (10, {3}), (18, {4})
    ]
    assert ps3.sporadic == ((1, 5),)

    for ps in (ps1, ps2, ps3):
        assert ps.exhaustive
        assert ps.validated_range == (2, 200)
        assert all(e.periodic for e in ps.entries)


def test_progression_of_order_sharing_a_root_with_f():
    # f = (x^2 - x - 1)*Phi_3: the periodicity argument fails for order 3,
    # so its residues come from a scan of the validated range only
    phi3 = cyclotomic(3)
    f = IntPoly((-1, -1, 1)) * phi3
    lo, hi = (2, 200)
    for eps in (1, -1):
        ps = cyclotomic_progressions(SalemSeq(f, eps))
        assert not ps.exhaustive
        assert ps.validated_range == (lo, hi)
        (entry,) = [e for e in ps.entries if e.order == 3]
        assert not entry.periodic
        assert entry.residues == {0, 1, 2}
        direct = {n % 3 for n in range(lo, hi + 1)
                  if _divides(phi3, f.shift_mul(n) + eps * f.reciprocal())}
        assert entry.residues == direct


def test_progressions_predict_divisibility_exactly():
    # independent sweep: divisibility happens exactly on the predicted indices
    for fam in FAMILIES:
        ps = cyclotomic_progressions(fam)
        residues = {e.order: e.residues for e in ps.entries}
        sporadic = set(ps.sporadic)
        for n in range(2, 201):
            g = seq_poly(fam, n)
            for order in ps.checked_orders:
                predicted = (
                    n % order in residues.get(order, frozenset())
                    or (order, n) in sporadic
                )
                assert _divides(cyclotomic(order), g) == predicted, (order, n)


def test_non_candidate_orders_never_divide():
    for fam in FAMILIES:
        orders = set(cyclotomic_candidates(fam).orders)
        others = [o for o in range(1, 31) if o not in orders]
        for n in range(2, 61):
            g = seq_poly(fam, n)
            for order in others:
                assert not _divides(cyclotomic(order), g), (order, n)
