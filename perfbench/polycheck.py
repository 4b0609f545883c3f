"""Exact integer-polynomial helpers the benchmark uses to build inputs and to
check outputs, written apart from salemrel so that no check trusts the code
under test.

Polynomials are tuples of ints in ascending order with no trailing zeros.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb


def trim(coeffs) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def add(a, b) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(n))


def scale(a, c: int) -> tuple[int, ...]:
    return trim(c * x for x in a)


def mul(a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def power(a, n: int) -> tuple[int, ...]:
    out = (1,)
    for _ in range(n):
        out = mul(out, a)
    return out


def div_monic(a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of a by a monic b."""
    if not b or b[-1] != 1:
        raise ValueError("monic divisor required")
    rem = list(a)
    db = len(b) - 1
    quo = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1 - db, -1, -1):
        c = rem[i + db]
        if c:
            quo[i] = c
            for j, y in enumerate(b):
                rem[i + j] -= c * y
    return trim(quo), trim(rem)


@functools.cache
def cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n as (x^n - 1) divided by Phi_d for every proper divisor d."""
    q = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            q, r = div_monic(q, cyclotomic(d))
            if r:
                raise AssertionError("inexact cyclotomic division")
    return q


def sign_at(p, t: Fraction) -> int:
    """Exact sign of p(t) from the integer den**deg * p(num/den)."""
    num, den = t.numerator, t.denominator
    deg = len(p) - 1
    acc = sum(c * num ** i * den ** (deg - i) for i, c in enumerate(p))
    return (acc > 0) - (acc < 0)


def is_palindromic(p) -> bool:
    return tuple(p) == tuple(reversed(p))


def trace_lift(g) -> tuple[int, ...]:
    """x^s * g(x + 1/x) for g of degree s, expanded term by term."""
    s = len(g) - 1
    out = [0] * (2 * s + 1)
    for i, c in enumerate(g):
        # x^(s-i) * (x^2 + 1)^i
        for j in range(i + 1):
            out[s - i + 2 * j] += c * comb(i, j)
    return trim(out)


def compose_y_minus_y2(h) -> tuple[int, ...]:
    """h(y - y^2)."""
    inner = (0, 1, -1)
    out: tuple[int, ...] = ()
    for c in reversed(h):
        out = add(mul(out, inner), (c,))
    return out


# the three sequence families of the paper: g_n = x^n f + eps f~, divided by
# x - 1 for families 2 and 3; d-progressions (order -> degree residues) of the
# cyclotomic factors each family keeps, as the paper tabulates them
FAMILIES = {
    1: {"f": (-1, -1, 0, 1), "eps": 1, "divide": False,
        "d_residues": {2: {1}, 8: {2}, 12: {1}, 18: {17}, 30: {24}}},
    2: {"f": (-1, -1, 1), "eps": -1, "divide": True,
        "d_residues": {2: {1}, 3: {2}, 6: {3}, 12: {4}}},
    3: {"f": (-1, 0, -1, 1), "eps": -1, "divide": True,
        "d_residues": {2: {1}, 3: {1}, 4: {3}, 6: {4}, 10: {5}, 18: {6}}},
}


def family_shift(family: int) -> int:
    fam = FAMILIES[family]
    return len(fam["f"]) - 1 - (1 if fam["divide"] else 0)


def family_member(family: int, n: int) -> tuple[int, ...]:
    fam = FAMILIES[family]
    f = fam["f"]
    g = add((0,) * n + f, scale(tuple(reversed(f)), fam["eps"]))
    if fam["divide"]:
        g, r = div_monic(g, (-1, 1))
        if r:
            raise AssertionError("x - 1 does not divide the member")
    return g


def predicted_cyclotomic_orders(family: int, degree: int) -> list[int]:
    """Orders l with Phi_l dividing the family member of this degree, for
    degrees past the families' sporadic cases."""
    return sorted(order for order, res in
                  FAMILIES[family]["d_residues"].items()
                  if degree % order in res)


def frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))
