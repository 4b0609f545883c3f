"""Exact factorization of univariate integer polynomials over the rationals.

`factor` takes off powers of x and the cyclotomic factors that
`cyclo.cyclotomic_part` finds, then runs the classical modular pipeline on
the cofactor: Yun squarefree decomposition, Cantor-Zassenhaus factorization
modulo a well-chosen small prime, quadratic multifactor Hensel lifting past
a Mignotte-style coefficient bound, and subset recombination, which divides
only by candidates within that bound.  `kronecker_factor_oracle` is an
independent interpolation-based method kept for cross-checking in tests.

Before the pipeline, a squarefree part f of the cofactor is emitted as one
irreducible factor, with no prime chosen and nothing lifted, when its root
placement proves it irreducible (`_placed_irreducible`): f is monic,
reciprocal and of degree 2s, and `realroots._misplacement` finds the
placement of g = trace_project(f) holds: g(-2) and g(2) nonzero, s - 1
distinct roots in (-2, 2) and one in (2, oo).  The Salem polynomials of
the paper's families pass it once their cyclotomic factors are off.

Proof.  g has s simple real roots, and f = x^s g(x + 1/x) is the product of
the x^2 - t x + 1 over them: each root t in (-2, 2) gives two roots of f on
the unit circle, and the root beyond 2 gives alpha > 1 and 1/alpha.  The
cofactor has no cyclotomic factor, because the sweep tests every order
whose totient is at most its degree.  Suppose f = h k with h, k monic
integer polynomials of positive degree.  If one of them holds both alpha
and 1/alpha, the other has all its roots on the unit circle, so by
Kronecker's theorem it is a product of cyclotomic polynomials, which the
sweep rules out.  Otherwise the factor holding alpha has all its other
roots on the unit circle, so its constant term is +-alpha, which is not an
integer: 1/alpha is a root of the monic f, so an algebraic integer, and not
in Z.  So f is irreducible (Kronecker, J. reine angew. Math. 53, 1857;
Smyth, "Seventy years of Salem numbers", Bull. LMS 47, 2015).  Every other
part goes through the modular pipeline unchanged.
"""

from __future__ import annotations

import itertools
import math
import random
import struct
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import _cyclotomic_split, cyclotomic
from .polyarith import (IntPoly, _divisors, _is_prime, _signed_content,
                        div_exact, poly_gcd, trace_project)
from .realroots import _misplacement


class DegreeTooLargeError(ValueError):
    """Input degree exceeds what the exponential oracle method accepts."""


@dataclass(frozen=True)
class Factorization:
    """content * prod(factor**multiplicity) == the factored polynomial.

    Factors are primitive with positive leading coefficient, irreducible over
    the rationals, and sorted by (degree, coefficient sequence).
    """

    content: int
    factors: tuple[tuple[IntPoly, int], ...]

    def expand(self) -> IntPoly:
        acc = IntPoly((self.content,))
        for f, mult in self.factors:
            acc = acc * f ** mult
        return acc

    @property
    def factor_count(self) -> int:
        return sum(mult for _, mult in self.factors)


def squarefree_decomposition(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun decomposition: pairwise coprime squarefree parts by multiplicity.

    The product of part**multiplicity reconstructs p divided by its signed
    content; parts carry positive leading coefficients.
    """
    if p.is_zero:
        raise ValueError("nonzero polynomial required")
    _, f = _signed_content(p)
    if f.degree < 1:
        return []
    g = poly_gcd(f, f.derivative())
    if g.degree < 1:
        return [(f, 1)]
    parts: list[tuple[IntPoly, int]] = []
    c = div_exact(f, g)
    d = div_exact(f.derivative(), g) - c.derivative()
    i = 1
    while c.degree >= 1:
        a = poly_gcd(c, d)
        if a.degree >= 1:
            parts.append((a, i))
        c = div_exact(c, a)
        d = div_exact(d, a) - c.derivative()
        i += 1
    return parts


# -- GF(p) polynomial arithmetic (dense ascending lists, trimmed) ---------------


def _gp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gp_add(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _gp_trim(out)


def _gp_sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _gp_trim(out)


# struct codes of little-endian unsigned slots, by slot size in bytes
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _kron_mul(a, b):
    """Exact product of two lists of nonnegative integer coefficients.

    Kronecker substitution: each list is packed into one integer, w bits per
    coefficient, the two integers are multiplied once and the product is
    unpacked.  A product coefficient is a sum of at most min(len(a), len(b))
    terms, each at most max(a)*max(b), so w is the bit length of that bound
    and no slot carries into the next.  Slots of up to 64 bits are rounded
    up to 1, 2, 4 or 8 bytes and packed and unpacked by struct in C; wider
    ones by shift loops.  A one-coefficient operand is a plain scalar
    multiply, an all-zero one gives zeros.  The result is not trimmed.
    """
    if not a or not b:
        return []
    if len(a) == 1:
        c = a[0]
        return [c * x for x in b]
    if len(b) == 1:
        c = b[0]
        return [c * x for x in a]
    n = len(a) + len(b) - 1
    w = (max(a) * max(b) * min(len(a), len(b))).bit_length()
    if w == 0:
        return [0] * n
    if w <= 64:
        nb = 1 << ((w - 1) // 8).bit_length()
        fmt = "<%d" + _SLOT_CODES[nb]
        x = int.from_bytes(struct.pack(fmt % len(a), *a), "little")
        y = int.from_bytes(struct.pack(fmt % len(b), *b), "little")
        z = (x * y).to_bytes(n * nb, "little")
        return list(struct.unpack(fmt % n, z))
    x = 0
    for c in reversed(a):
        x = (x << w) | c
    y = 0
    for c in reversed(b):
        y = (y << w) | c
    z = x * y
    mask = (1 << w) - 1
    out = []
    for _ in range(n):
        out.append(z & mask)
        z >>= w
    return out


def _gp_mul(a, b, p):
    """a*b over Z/p; every coefficient of a and b must satisfy 0 <= c < p."""
    return _gp_trim([c % p for c in _kron_mul(a, b)])


def _gp_divmod(a, b, p):
    """(q, r) with a == q*b + r over Z/p and deg r < deg b.

    Only lc(b) is inverted, so any modulus serves when lc(b) is a unit.  The
    coefficients of a may be any integers: the running remainder is reduced
    only where a leading coefficient is read, and once at the end.
    """
    if not b:
        raise ZeroDivisionError
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], _gp_trim([c % p for c in a])
    r = list(a)
    binv = pow(b[-1], -1, p)
    low = b[:db]
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] % p * binv % p
        if c:
            q[i - db] = c
            j = i - db
            r[j:i] = [x - c * y for x, y in zip(r[j:i], low)]
    return _gp_trim(q), _gp_trim([c % p for c in r[:db]])


def _gp_monic(a, p):
    if not a or a[-1] == 1:
        return a[:]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gp_gcd(a, b, p):
    a, b = a[:], b[:]
    while b:
        a, b = b, _gp_divmod(a, b, p)[1]
    return _gp_monic(a, p)


def _gp_extgcd(a, b, p):
    """(g, s, t) with s*a + t*b == g (monic) in GF(p)[x]."""
    r0, r1 = a[:], b[:]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gp_sub(s0, _gp_mul(q, s1, p), p)
        t0, t1 = t1, _gp_sub(t0, _gp_mul(q, t1, p), p)
    if r0:
        inv = pow(r0[-1], -1, p)
        r0 = [c * inv % p for c in r0]
        s0 = [c * inv % p for c in s0]
        t0 = [c * inv % p for c in t0]
    return r0, s0, t0


# below this modulus degree a schoolbook remainder beats the reversed inverse
_NEWTON_MIN_DEGREE = 16


def _gp_reducer(mod, p):
    """The remainder modulo a fixed mod over Z/p, as a function rem(a) of a
    trimmed a with coefficients in [0, p) and deg a <= 2*deg mod - 2.

    From degree _NEWTON_MIN_DEGREE on, rem reads the quotient off the reversed
    inverse of mod modulo x^(deg mod - 1), built once by Newton iteration:
    rev(q) = rev(a)*rev(mod)^-1 mod x^(deg a - deg mod + 1).  Below it rem is
    _gp_divmod.  lc(mod) must be a unit modulo p.
    """
    n = len(mod) - 1
    if n < _NEWTON_MIN_DEGREE:
        return lambda a: _gp_divmod(a, mod, p)[1]
    rev = mod[::-1]
    inv = [pow(rev[0], -1, p)]
    k = 1
    while k < n - 1:
        # inv <- inv - inv*(rev*inv - 1) mod x^k, doubling the precision
        k = min(2 * k, n - 1)
        e = [c % p for c in _kron_mul(rev[:k], inv)[:k]]
        e[0] -= 1
        t = _kron_mul(inv, e)
        inv = [(x - y) % p for x, y in zip(inv + [0] * (k - len(inv)), t)]
    low = mod[:n]

    def rem(a):
        m = len(a) - n
        if m <= 0:
            return a
        q = [c % p for c in _kron_mul(a[:n - 1:-1], inv[:m])[:m]]
        q.reverse()
        return _gp_trim([(x - y) % p
                         for x, y in zip(a[:n], _kron_mul(q, low))])

    return rem


def _gp_powmod(base, e, rem, p):
    """base**e over Z/p modulo the modulus of rem = _gp_reducer(mod, p),
    which callers build once per modulus; base must be reduced modulo it."""
    result = [1]
    while e:
        if e & 1:
            result = rem(_gp_mul(result, base, p))
        base = rem(_gp_mul(base, base, p))
        e >>= 1
    return result


def _gp_deriv(a, p):
    return _gp_trim([i * c % p for i, c in enumerate(a)][1:])


def _gp_ddf(f, p):
    """Distinct-degree split of a monic squarefree f over GF(p)."""
    out = []
    v = f[:]
    rem = _gp_reducer(v, p)
    h = [0, 1]
    i = 1
    while len(v) - 1 >= 2 * i:
        h = _gp_powmod(h, p, rem, p)
        g = _gp_gcd(_gp_sub(h, [0, 1], p), v, p)
        if len(g) > 1:
            out.append((g, i))
            v = _gp_divmod(v, g, p)[0]
            h = _gp_divmod(h, v, p)[1]
            rem = _gp_reducer(v, p)
        i += 1
    if len(v) > 1:
        out.append((v, len(v) - 1))
    return out


def _gp_edf(g, d, p, rng):
    """Equal-degree split of monic g into its degree-d irreducible factors."""
    if len(g) - 1 == d:
        return [g]
    e = (p ** d - 1) // 2
    rem = _gp_reducer(g, p)
    while True:
        a = _gp_trim([rng.randrange(p) for _ in range(len(g) - 1)])
        if len(a) < 2:
            continue
        t = _gp_sub(_gp_powmod(a, e, rem, p), [1], p)
        u = _gp_gcd(t, g, p)
        if 1 <= len(u) - 1 < len(g) - 1:
            q = _gp_divmod(g, u, p)[0]
            return _gp_edf(u, d, p, rng) + _gp_edf(q, d, p, rng)


def _gp_factor_monic_squarefree(f, p, rng):
    out = []
    for g, d in _gp_ddf(f, p):
        out.extend(_gp_edf(g, d, p, rng))
    out.sort(key=lambda a: (len(a), a))
    return out


# -- Z/m arithmetic for Hensel lifting -------------------------------------------
#
# The _gp_ routines serve any modulus m, prime or not: only _gp_divmod
# inverts, and only the divisor's leading coefficient.  Hensel lifting divides
# by the monic h, and pow(1, -1, m) == 1 for every m; a non-monic divisor with
# no inverse modulo m raises ValueError.


def _hensel_step(f, g, h, s, t, m):
    """Lift f = g*h (mod m) with s*g + t*h = 1 (mod m) to modulus m*m.

    h must be monic; returns (g, h, s, t) mod m*m with the same invariants.
    """
    mm = m * m
    fm = [c % mm for c in f]
    e = _gp_sub(fm, _gp_mul(g, h, mm), mm)
    q, r = _gp_divmod(_gp_mul(s, e, mm), h, mm)
    g1 = _gp_add(g, _gp_add(_gp_mul(t, e, mm), _gp_mul(q, g, mm), mm), mm)
    h1 = _gp_add(h, r, mm)
    b = _gp_sub(_gp_add(_gp_mul(s, g1, mm), _gp_mul(t, h1, mm), mm), [1], mm)
    c, d = _gp_divmod(_gp_mul(s, b, mm), h1, mm)
    s1 = _gp_sub(s, d, mm)
    t1 = _gp_sub(t, _gp_add(_gp_mul(t, b, mm), _gp_mul(c, g1, mm), mm), mm)
    return g1, h1, s1, t1


def _hensel_multilift(f_mod, facs, p, steps):
    """Lift the monic GF(p) factors of a monic f to modulus p**(2**steps).

    f_mod is f reduced mod p**(2**steps); the recursion lifts the two halves
    of the factor list and descends.
    """
    if len(facs) == 1:
        return [f_mod[:]]
    half = len(facs) // 2
    left, right = facs[:half], facs[half:]
    g = [1]
    for a in left:
        g = _gp_mul(g, a, p)
    h = [1]
    for a in right:
        h = _gp_mul(h, a, p)
    one, s, t = _gp_extgcd(g, h, p)
    if one != [1]:
        raise AssertionError("modular factors not coprime")
    m = p
    for _ in range(steps):
        g, h, s, t = _hensel_step(f_mod, g, h, s, t, m)
        m = m * m
    return (_hensel_multilift(g, left, p, steps)
            + _hensel_multilift(h, right, p, steps))


# -- the Zassenhaus driver --------------------------------------------------------


def _choose_prime(f: IntPoly) -> int:
    """Smallest p >= 5 keeping f squarefree and degree-preserving mod p."""
    p = 5
    while True:
        if _is_prime(p) and f.lc % p != 0:
            fbar = [c % p for c in f.coeffs]
            if _gp_gcd(fbar, _gp_deriv(fbar, p), p) == [1]:
                return p
        p += 2 if p > 2 else 1


def _coeff_seed(f: IntPoly) -> int:
    seed = 0x5A1E
    for c in f.coeffs:
        seed = (seed * 1000003 + c) % (1 << 63)
    return seed


def _mignotte_bound(f: IntPoly) -> int:
    """A bound on the absolute value of every coefficient of every integer
    factor of f: Mignotte's 2**n * ||f||_2 for deg f = n, with
    ||f||_2 < (isqrt(n + 1) + 1) * height(f), times |lc(f)|."""
    n = f.degree
    height = max(abs(c) for c in f.coeffs)
    return (math.isqrt(n + 1) + 1) * (1 << n) * height * abs(f.lc)


def _lift_steps(bound: int, p: int) -> int:
    """Doubling steps so p**(2**steps) exceeds 2*bound + 1: symmetric
    residues modulo it then recover every coefficient within the bound."""
    target = 2 * bound + 1
    steps = 0
    m = p
    while m < target:
        m = m * m
        steps += 1
    return steps


def _factor_monic_squarefree(f: IntPoly) -> list[IntPoly]:
    """Irreducible factors of a monic squarefree integer polynomial."""
    if f.degree == 1:
        return [f]
    p = _choose_prime(f)
    rng = random.Random(_coeff_seed(f))
    fbar = [c % p for c in f.coeffs]
    modular = _gp_factor_monic_squarefree(fbar, p, rng)
    if len(modular) == 1:
        return [f]
    bound = _mignotte_bound(f)
    steps = _lift_steps(bound, p)
    modulus = p ** (1 << steps)
    f_mod = [c % modulus for c in f.coeffs]
    lifted = _hensel_multilift(f_mod, modular, p, steps)

    def symmetric(poly_mod: list[int]) -> IntPoly:
        half = modulus // 2
        return IntPoly(tuple(c if c <= half else c - modulus for c in poly_mod))

    remaining = list(range(len(lifted)))
    found: list[IntPoly] = []
    g = f
    size = 1
    while 2 * size <= len(remaining):
        hit = False
        for combo in itertools.combinations(remaining, size):
            prod = [1]
            for i in combo:
                prod = _gp_mul(prod, lifted[i], modulus)
            # every coefficient of a true factor lies within the bound
            if any(bound < c < modulus - bound for c in prod):
                continue
            cand = symmetric(prod)
            if g[0] != 0 and cand[0] != 0 and g[0] % cand[0] != 0:
                continue
            quo, rem = divmod(g, cand)
            if rem.is_zero:
                found.append(cand)
                g = quo
                remaining = [i for i in remaining if i not in combo]
                hit = True
                break
        if not hit:
            size += 1
    if g.degree >= 1:
        found.append(g)
    return found


def _placed_irreducible(f: IntPoly) -> bool:
    """True when the root placement of f proves it irreducible: f is monic,
    reciprocal, of degree 2s, and g = trace_project(f) has g(-2), g(2)
    nonzero, s - 1 distinct roots in (-2, 2) and one in (2, oo); s distinct
    roots of the degree-s g prove it squarefree.  f must have no cyclotomic
    factor; `factor` tests only the parts of its cofactor.  The cached
    Sturm chain of g decides it (`realroots._misplacement`); trying the
    float guide of `realroots._beta_boxes` first made `factor` slower.
    """
    if not f.is_monic or f.degree & 1 or f.reciprocal() != f:
        return False
    return not _misplacement(trace_project(f))


def _monicize(f: IntPoly) -> tuple[IntPoly, int]:
    """(F, lam) with F(x) = lam**(deg-1) * f(x/lam) monic over the integers."""
    lam = f.lc
    n = f.degree
    coeffs = tuple(c * lam ** (n - 1 - i)
                   for i, c in enumerate(f.coeffs[:-1])) + (1,)
    return IntPoly(coeffs), lam


def _demonicize(g: IntPoly, lam: int) -> IntPoly:
    coeffs = tuple(c * lam ** i for i, c in enumerate(g.coeffs))
    return _signed_content(IntPoly(coeffs))[1]


def _factor_squarefree(f: IntPoly) -> list[IntPoly]:
    """Irreducible factors of a primitive squarefree f with positive lc."""
    if f.degree == 1:
        return [f]
    if f.is_monic:
        return sorted(_factor_monic_squarefree(f), key=IntPoly.sort_key)
    big, lam = _monicize(f)
    parts = [_demonicize(g, lam) for g in _factor_monic_squarefree(big)]
    return sorted(parts, key=IntPoly.sort_key)


def factor(p: IntPoly) -> Factorization:
    """Complete factorization into content and rational irreducibles."""
    if p.is_zero:
        raise ValueError("nonzero polynomial required")
    content, f = _signed_content(p)
    counts: dict[IntPoly, int] = {}
    # x**k factors come off first so every later value test sees f(0) != 0
    k = 0
    while f.degree >= 1 and f[0] == 0:
        k += 1
        f = IntPoly(f.coeffs[1:])
    if k:
        counts[IntPoly.x()] = k
    # then the cyclotomic factors, found by one modular value per order, so
    # that only the cofactor is lifted and recombined
    hits, f = _cyclotomic_split(f)
    for hit in hits:
        counts[cyclotomic(hit.order)] = hit.multiplicity
    for part, mult in squarefree_decomposition(f):
        irrs = [part] if _placed_irreducible(part) else _factor_squarefree(part)
        for irr in irrs:
            counts[irr] = counts.get(irr, 0) + mult
    factors = tuple(sorted(counts.items(), key=lambda kv: kv[0].sort_key()))
    return Factorization(content, factors)


def is_irreducible(p: IntPoly) -> bool:
    """True iff p is irreducible over the rationals (up to unit content)."""
    if p.is_zero or p.degree < 1:
        raise ValueError("polynomial of degree >= 1 required")
    fz = factor(p)
    return (abs(fz.content) == 1 and len(fz.factors) == 1
            and fz.factors[0][1] == 1)


# -- Kronecker interpolation oracle (tests only) ----------------------------------


def _interpolate(points: list[tuple[int, int]]):
    """Lagrange interpolation; returns ascending Fraction coefficients."""
    k = len(points)
    coeffs = [Fraction(0)] * k
    for i, (xi, yi) in enumerate(points):
        # basis polynomial prod_{j != i} (x - xj) / (xi - xj)
        basis = [Fraction(1)]
        denom = 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for t, c in enumerate(basis):
                new[t] -= c * xj
                new[t + 1] += c
            basis = new
            denom *= xi - xj
        scale = Fraction(yi, denom)
        for t, c in enumerate(basis):
            coeffs[t] += c * scale
    return coeffs


def _strip_rational_roots(f: IntPoly, counts: dict[IntPoly, int]) -> IntPoly:
    changed = True
    while changed and f.degree >= 1:
        changed = False
        c0 = f[0]
        if c0 == 0:
            counts[IntPoly.x()] = counts.get(IntPoly.x(), 0) + 1
            f = IntPoly(f.coeffs[1:])
            changed = True
            continue
        for num in _divisors(c0):
            for den in _divisors(f.lc):
                if math.gcd(num, den) != 1:
                    continue
                for s in (1, -1):
                    if f.eval_fraction(Fraction(s * num, den)) == 0:
                        lin = IntPoly((-s * num, den))
                        f = div_exact(f, lin)
                        counts[lin] = counts.get(lin, 0) + 1
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break
    return f


def _kronecker_split(f: IntPoly):
    """A nontrivial primitive factor of f, or None if f is irreducible.

    f must be primitive with positive lc, degree >= 2, and no rational roots.
    """
    candidates = []
    seq = itertools.chain([0], (s * v for v in range(1, 30) for s in (1, -1)))
    for x in seq:
        val = f.eval_int(x)
        if val == 0:
            raise AssertionError("rational roots must be stripped first")
        candidates.append((len(_divisors(val)), abs(x), x, val))
        if len(candidates) >= f.degree + 3:
            break
    candidates.sort()
    for k in range(2, f.degree // 2 + 1):
        pts = candidates[:k + 1]
        xs = [c[2] for c in pts]
        vals = [c[3] for c in pts]
        divs = []
        for i, v in enumerate(vals):
            base = _divisors(v)
            if i == 0:
                divs.append(base)  # sign symmetry: fix d0 > 0
            else:
                divs.append([s * d for d in base for s in (1, -1)])

        def search(level: int, chosen: list[int]):
            if level == len(xs):
                coeffs = _interpolate(list(zip(xs, chosen)))
                if any(c.denominator != 1 for c in coeffs):
                    return None
                g = IntPoly(tuple(int(c) for c in coeffs))
                if g.degree != k:
                    return None
                if g.lc < 0:
                    g = -g
                try:
                    div_exact(f, g)
                except ValueError:
                    return None
                return g
            for d in divs[level]:
                ok = True
                for j in range(level):
                    if (d - chosen[j]) % (xs[level] - xs[j]) != 0:
                        ok = False
                        break
                if ok:
                    got = search(level + 1, chosen + [d])
                    if got is not None:
                        return got
            return None

        got = search(0, [])
        if got is not None:
            return got
    return None


def kronecker_factor_oracle(p: IntPoly) -> Factorization:
    """Same contract as factor(), by exponential interpolation search."""
    if p.is_zero:
        raise ValueError("nonzero polynomial required")
    if p.degree > 8:
        raise DegreeTooLargeError("oracle limited to degree <= 8")
    content, f = _signed_content(p)
    counts: dict[IntPoly, int] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        g = _strip_rational_roots(g, counts)
        if g.degree < 1:
            continue
        if g.degree == 1:
            counts[g] = counts.get(g, 0) + 1
            continue
        piece = _kronecker_split(g)
        if piece is None:
            counts[g] = counts.get(g, 0) + 1
        else:
            stack.append(piece)
            stack.append(div_exact(g, piece))
    factors = tuple(sorted(counts.items(), key=lambda kv: kv[0].sort_key()))
    return Factorization(content, factors)
