import random
import time
from unittest import mock

import pytest

from salemrel import factorint
from salemrel.cyclo import cyclotomic, seq_poly
from salemrel.factorint import (DegreeTooLargeError, factor, is_irreducible,
                                kronecker_factor_oracle,
                                squarefree_decomposition)
from salemrel.polyarith import IntPoly, pair_sum_lift, trace_lift
from salemrel.salemkit import FAMILIES, trace0_salem


def _random_poly(rng, max_deg):
    deg = rng.randrange(1, max_deg + 1)
    coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
    return IntPoly(tuple(coeffs))


def _as_dict(fz):
    return dict(fz.factors)


# -- golden factorizations ------------------------------------------------------------


def test_sextic_norm_form_factorizations():
    g3 = IntPoly((-3, 18, 22, -6, -10, 0, 1))
    fz = factor(g3)
    assert fz.content == 1
    assert _as_dict(fz) == {IntPoly((-3, 0, 1)): 1, IntPoly((1, -6, -7, 0, 1)): 1}

    g5 = IntPoly((-11, 10, 20, -6, -10, 0, 1))
    fz = factor(g5)
    assert fz.content == 1
    assert _as_dict(fz) == {IntPoly((-1, 1, 1)): 1, IntPoly((11, 1, -8, -1, 1)): 1}


def test_pair_sum_lift_reducible_case():
    f = pair_sum_lift(IntPoly((2, 4, 1)))
    fz = factor(f)
    assert fz.content == 1
    assert _as_dict(fz) == {IntPoly((1, 0, 0, 0, 1)): 1, IntPoly((1, -2, 1, -2, 1)): 1}
    assert not is_irreducible(f)


def test_small_golden_cases():
    assert is_irreducible(IntPoly((1, 0, 0, 0, 1)))  # x^4 + 1
    assert _as_dict(factor(IntPoly((4, 0, 0, 0, 1)))) == {
        IntPoly((2, -2, 1)): 1,
        IntPoly((2, 2, 1)): 1,
    }
    assert _as_dict(factor(IntPoly((1, 0, 1, 0, 1)))) == {
        IntPoly((1, -1, 1)): 1,
        IntPoly((1, 1, 1)): 1,
    }
    assert _as_dict(factor(IntPoly((-1, 0, 0, 0, 0, 0, 1)))) == {
        IntPoly((-1, 1)): 1,
        IntPoly((1, 1)): 1,
        IntPoly((1, -1, 1)): 1,
        IntPoly((1, 1, 1)): 1,
    }


def test_content_sign_and_power_handling():
    p = IntPoly((6, 0, -6))  # -6(x-1)(x+1)
    fz = factor(p)
    assert fz.content == -6
    assert _as_dict(fz) == {IntPoly((-1, 1)): 1, IntPoly((1, 1)): 1}
    assert fz.expand() == p

    p = IntPoly((0, 0, 0, 1, 0, 1))  # x^3 (x^2 + 1)
    fz = factor(p)
    assert _as_dict(fz) == {IntPoly((0, 1)): 3, IntPoly((1, 0, 1)): 1}

    p = IntPoly((-1, 1)) ** 2 * IntPoly((1, 1))
    assert _as_dict(factor(p)) == {IntPoly((-1, 1)): 2, IntPoly((1, 1)): 1}


def test_high_degree_cyclotomic_times_eisenstein():
    # x^21 + 8x^7 - 6x^3 + 4x + 2 is irreducible by Eisenstein at 2
    eis = IntPoly((2, 4, 0, -6, 0, 0, 0, 8) + (0,) * 13 + (1,))
    phi17, phi32, phi39 = cyclotomic(17), cyclotomic(32), cyclotomic(39)
    p = phi17 * phi32 * phi39 ** 2 * eis
    assert p.degree == 101
    with mock.patch.object(factorint, "_gp_reducer",
                           wraps=factorint._gp_reducer) as reducer, \
            mock.patch.object(factorint, "_hensel_multilift",
                              wraps=factorint._hensel_multilift) as lift:
        start = time.perf_counter()
        fz = factor(p)
        assert time.perf_counter() - start < 2.0
    assert fz.content == 1
    assert fz.factors == ((phi32, 1), (phi17, 1), (eis, 1), (phi39, 2))
    assert fz.expand() == p
    # fixed-modulus powering takes the reversed-inverse path, and Hensel
    # lifting splits more than two modular factors
    assert max(len(c.args[0]) - 1 for c in reducer.call_args_list) >= \
        factorint._NEWTON_MIN_DEGREE
    assert max(len(c.args[1]) for c in lift.call_args_list) >= 3


def test_recombination_divides_only_true_factors(monkeypatch):
    # the modular factors of a reciprocal member pair up as u, u*, and each
    # pair's product passes the constant-term test; the coefficient bound
    # must reject every such false candidate before a trial division
    member = seq_poly(FAMILIES[0], 80)
    exact = []

    def counting_divmod(a, b):
        quo, rem = divmod(a, b)
        exact.append(rem.is_zero)
        return quo, rem

    monkeypatch.setattr(factorint, "divmod", counting_divmod, raising=False)
    found = factorint._factor_monic_squarefree(member)
    product = IntPoly((1,))
    for q in found:
        product = product * q
    assert product == member and len(found) == 2
    assert exact == [True]
    # factor takes the cyclotomic factor off first: recombination is left
    # with the irreducible cofactor and divides nothing
    exact.clear()
    assert factor(member).factor_count == 2
    assert exact == []


# -- placement shortcut ---------------------------------------------------------------

# Lehmer's polynomial, ascending: the smallest known Salem number's minpoly
LEHMER = IntPoly((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))


def test_lehmer_is_certified_by_placement():
    assert factorint._placed_irreducible(LEHMER)
    with mock.patch.object(factorint, "_choose_prime") as choose:
        assert factor(LEHMER).factors == ((LEHMER, 1),)
    choose.assert_not_called()


@pytest.mark.parametrize("other", [
    # the degree-8 pair-sum member: placement of the product has two roots
    # of its trace polynomial beyond 2
    (1, -2, 1, -2, 1, -2, 1, -2, 1),
    # x^2 - 3x + 1 adds a second root beyond 2
    (1, -3, 1),
    # x^4 + x^3 + 3x^2 + x + 1 = x^2 (y^2 + y + 1) in y = x + 1/x: the trace
    # polynomial keeps one root beyond 2 and lacks two in (-2, 2), so only
    # the (-2, 2) count rejects the product
    (1, 1, 3, 1, 1),
])
def test_products_with_lehmer_fall_through_to_zassenhaus(other):
    p = LEHMER * IntPoly(other)
    assert not factorint._placed_irreducible(p)
    assert _as_dict(factor(p)) == {LEHMER: 1, IntPoly(other): 1}


def test_placement_runs_only_after_the_cyclotomic_strip():
    # the roots of Phi_5 lie on the unit circle, so L * Phi_5 passes the
    # placement test: it is sound only on a cyclotomic-free cofactor
    p = LEHMER * cyclotomic(5)
    assert factorint._placed_irreducible(p)
    assert factor(p).factors == ((cyclotomic(5), 1), (LEHMER, 1))


def _salem_inputs():
    """(input, part) for the family members n = 20..90, whose part is the
    Salem cofactor the cyclotomic strip leaves, and for the trace-0 minpolys
    of degree 6..100, each its own part."""
    members = [seq_poly(fam, n) for fam in FAMILIES for n in range(20, 91, 10)]
    minpolys = [trace0_salem(d).minpoly for d in range(6, 101, 2)]
    assert len(members) == 24 and len(minpolys) == 48
    return ([(m, factorint._cyclotomic_split(m)[1]) for m in members]
            + [(f, f) for f in minpolys])


def test_salem_parts_skip_the_modular_pipeline():
    inputs = _salem_inputs()
    with mock.patch.object(factorint, "_choose_prime") as choose, \
            mock.patch.object(factorint, "_hensel_multilift") as lift:
        for p, part in inputs:
            fz = factor(p)
            assert fz.expand() == p and (part, 1) in fz.factors
    choose.assert_not_called()
    lift.assert_not_called()
    # the full pipeline agrees that every such part is irreducible
    for _, part in inputs:
        assert squarefree_decomposition(part) == [(part, 1)]
        assert factorint._placed_irreducible(part)
        assert factorint._factor_squarefree(part) == [part]


def test_trace_lift_of_linear_shift_two():
    f = trace_lift(IntPoly((-2, 1)))  # becomes (x-1)^2
    assert f.coeffs == (1, -2, 1)
    assert _as_dict(factor(f)) == {IntPoly((-1, 1)): 2}
    with pytest.raises(ValueError):
        is_irreducible(IntPoly((5,)))


# -- Yun squarefree decomposition -----------------------------------------------------


def test_squarefree_decomposition_golden():
    p = IntPoly((-1, 1)) ** 2 * IntPoly((-2, 0, 0, 1)) ** 1
    parts = squarefree_decomposition(p)
    assert parts == [(IntPoly((-2, 0, 0, 1)), 1), (IntPoly((-1, 1)), 2)]

    p = IntPoly((1, 1)) ** 3 * IntPoly((1, 0, 1)) * IntPoly((-1, 1)) ** 2 * 4
    parts = squarefree_decomposition(p)
    rebuilt = IntPoly((1,))
    for part, mult in parts:
        assert part.lc > 0
        rebuilt = rebuilt * part ** mult
    assert rebuilt * 4 == p
    assert dict(parts)[IntPoly((1, 1))] == 3


def test_squarefree_decomposition_random_reconstruction():
    rng = random.Random(311)
    for _ in range(150):
        base = _random_poly(rng, 3)
        extra = _random_poly(rng, 2)
        p = base ** rng.randint(1, 3) * extra
        parts = squarefree_decomposition(p)
        rebuilt = IntPoly((1,))
        for part, mult in parts:
            rebuilt = rebuilt * part ** mult
        content = p.content() * (1 if p.lc > 0 else -1)
        assert rebuilt * content == p


# -- dual-route equivalence ------------------------------------------------------------


def test_factor_matches_kronecker_oracle_random():
    rng = random.Random(312)
    for _ in range(500):
        p = _random_poly(rng, 6)
        if rng.random() < 0.3:  # force composites into the mix
            q = _random_poly(rng, 3)
            if p.degree + q.degree <= 8:
                p = p * q
        fast = factor(p)
        slow = kronecker_factor_oracle(p)
        assert fast == slow
        assert fast.expand() == p


def test_kronecker_oracle_degree_cap():
    with pytest.raises(DegreeTooLargeError):
        kronecker_factor_oracle(IntPoly((1,) + (0,) * 8 + (1,)))


def test_factor_reconstructs_large_inputs():
    rng = random.Random(313)
    for _ in range(40):
        p = _random_poly(rng, 6) * _random_poly(rng, 6)
        fz = factor(p)
        assert fz.expand() == p
        for irr, _ in fz.factors:
            assert is_irreducible(irr)
