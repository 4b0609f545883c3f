"""Cyclotomic factors of the two-term sequences x^n*f + eps*f~.

Here f~ is the reversed (reciprocal) polynomial of f.  For a sequence of that
shape, the roots of unity that can ever divide a member are confined to a
finite candidate set computed from five auxiliary polynomials; for each
candidate order the indices n where the cyclotomic factor appears form an
arithmetic progression (plus, on sequences divided by x-1, at most one
sporadic index where (x-1)^2 appears).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .polyarith import IntPoly, _divisors, _is_prime, div_exact, poly_gcd

VALIDATED_RANGE = (2, 200)


class NotDivisibleError(ValueError):
    """The configured exact division by x-1 left a remainder."""


@dataclass(frozen=True)
class CyclotomicHit:
    order: int
    multiplicity: int


@dataclass(frozen=True)
class SalemSeq:
    """Sequence g_n = x^n*f + eps*f~, optionally divided by x-1.

    Requires f~ != +-f (otherwise every member is reciprocal-degenerate and
    the candidate machinery does not apply); the division flag is only legal
    when x-1 divides every member, i.e. f(1) + eps*f~(1) == 0.
    """

    f: IntPoly
    eps: int
    divide_by_x_minus_1: bool = False

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        if self.f.degree < 1:
            raise ValueError("f must be nonconstant")
        fs = self.f.reciprocal()
        if fs == self.f or fs == -self.f:
            raise ValueError("reversed polynomial must differ from +-f")
        if self.divide_by_x_minus_1:
            if self.f.eval_int(1) + self.eps * fs.eval_int(1) != 0:
                raise ValueError("x-1 does not divide every member")

    @property
    def f_reversed(self) -> IntPoly:
        return self.f.reciprocal()


@dataclass(frozen=True)
class CandidateSet:
    """Possible orders of roots of unity dividing any member of a sequence."""

    aux: tuple[IntPoly, ...]
    orders: tuple[int, ...]
    identically_zero: bool

    @property
    def exhaustive(self) -> bool:
        return not self.identically_zero


@dataclass(frozen=True)
class ProgressionEntry:
    """Indices n with Phi_order | g_n: n mod order lies in residues.

    periodic=False marks a degraded entry whose residues were only verified
    across VALIDATED_RANGE because f shares a root with Phi_order.
    """

    order: int
    residues: frozenset[int]
    periodic: bool = True


@dataclass(frozen=True)
class ProgressionSet:
    entries: tuple[ProgressionEntry, ...]
    sporadic: tuple[tuple[int, int], ...]
    checked_orders: tuple[int, ...]
    validated_range: tuple[int, int]
    exhaustive: bool


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """n-th cyclotomic polynomial, via exact division of x^n - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    q = IntPoly.monomial(n) - IntPoly.one()
    for d in _divisors(n):
        if d < n:
            q = div_exact(q, cyclotomic(d))
    return q


def _orders_up_to(deg: int) -> list[tuple[int, int]]:
    """(l, totient(l)) for every order l with totient(l) <= deg, by l.

    Each l is built prime power by prime power over increasing primes, with
    totient(p**e) = (p - 1) * p**(e - 1); a prime p can only occur when
    p - 1 <= deg.  Those primes come from one sieve of Eratosthenes.  An l
    recurses only when the next prime could still extend it.
    """
    if deg < 1:
        return []
    sieve = bytearray([1]) * (deg + 2)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(deg + 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, deg + 2, i)))
    # deg + 2 closes the list: no totient times deg + 1 is <= deg
    primes = list(itertools.compress(range(deg + 2), sieve)) + [deg + 2]
    out = [(1, 1)]

    def extend(l, phi, start):
        for i in range(start, len(primes) - 1):
            p = primes[i]
            pe, phe = p, phi * (p - 1)
            if phe > deg:
                return
            nxt = primes[i + 1] - 1
            while phe <= deg:
                out.append((l * pe, phe))
                if phe * nxt <= deg:
                    extend(l * pe, phe, i + 1)
                pe *= p
                phe *= p

    extend(1, 1, 0)
    out.sort()
    return out


@functools.lru_cache(maxsize=None)
def _root_mod_prime(order: int) -> tuple[int, int]:
    """(q, r): the least prime q = 1 (mod order) above 2**29, and an r of
    exact multiplicative order `order` modulo q, so Phi_order(r) = 0
    (mod q).  A large q makes a chance zero of p(r) mod q rare."""
    k = (1 << 29) // order + 1
    while not _is_prime(k * order + 1):
        k += 1
    q = k * order + 1
    primes = [d for d in _divisors(order) if d > 1 and _is_prime(d)]
    a = 2
    while True:
        r = pow(a, k, q)
        if all(pow(r, order // d, q) != 1 for d in primes):
            return q, r
        a += 1


def _value_mod(coeffs: tuple[int, ...], r: int, q: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * r + c) % q
    return acc


def _cyclotomic_split(p: IntPoly) -> tuple[list[CyclotomicHit], IntPoly]:
    """(hits, cofactor): the hits of cyclotomic_part(p) and p divided by
    every Phi_l**multiplicity among them."""
    if p.is_zero:
        raise ValueError("nonzero polynomial required")
    hits = []
    for order, phi in _orders_up_to(p.degree):
        if phi > p.degree:
            continue
        # Phi_l(r) = 0 (mod q) and Phi_l is monic, so Phi_l | p forces
        # p(r) = 0 (mod q): an order failing that test is never built
        q, r = _root_mod_prime(order)
        mult = 0
        while _value_mod(p.coeffs, r, q) == 0:
            quo, rem = divmod(p, cyclotomic(order))
            if not rem.is_zero:
                break
            p = quo
            mult += 1
        if mult:
            hits.append(CyclotomicHit(order, mult))
    return hits, p


def cyclotomic_part(p: IntPoly) -> list[CyclotomicHit]:
    """All orders l with Phi_l | p, with multiplicities, sorted by order.

    Candidates are every l whose totient is at most deg p.  Each is first
    tested by one value of p modulo a prime q = 1 (mod l), at a root of
    Phi_l there; only an order passing it is divided exactly.
    """
    return _cyclotomic_split(p)[0]


def cyclotomic_candidates(seq: SalemSeq) -> CandidateSet:
    """Orders of every root of unity that can divide any member g_n.

    A root of unity z with g_n(z) = 0 also kills one of five auxiliary
    polynomials built from f at z, -z, z^2, -z^2 (eliminating the x^n term),
    so the union of their cyclotomic orders is exhaustive whenever all five
    are nonzero.
    """
    f = seq.f
    fs = seq.f_reversed
    eps = seq.eps
    xsq = IntPoly((0, 0, 1))
    neg_xsq = IntPoly((0, 0, -1))
    neg_x = IntPoly((0, -1))
    f_sq = f.compose(xsq)
    fs_sq = fs.compose(xsq)
    f_nsq = f.compose(neg_xsq)
    fs_nsq = fs.compose(neg_xsq)
    f_neg = f.compose(neg_x)
    fs_neg = fs.compose(neg_x)
    a = f_sq * fs * fs + eps * (f * f * fs_sq)
    b_plus = f * f * fs_nsq + f_nsq * fs * fs
    b_minus = f * f * fs_nsq - f_nsq * fs * fs
    c_plus = f * fs_neg + f_neg * fs
    c_minus = f * fs_neg - f_neg * fs
    aux = (a, b_plus, b_minus, c_plus, c_minus)
    identically_zero = any(q.is_zero for q in aux)
    orders: set[int] = set()
    for q in aux:
        if not q.is_zero:
            orders.update(hit.order for hit in cyclotomic_part(q))
    return CandidateSet(aux, tuple(sorted(orders)), identically_zero)


def seq_poly(seq: SalemSeq, n: int) -> IntPoly:
    """g_n = x^n*f + eps*f~, divided exactly by x-1 when configured."""
    if n < 2:
        raise ValueError("n >= 2 required")
    g = seq.f.shift_mul(n) + seq.eps * seq.f_reversed
    if seq.divide_by_x_minus_1:
        quo, rem = divmod(g, IntPoly((-1, 1)))
        if not rem.is_zero:
            raise NotDivisibleError(f"x-1 does not divide member n={n}")
        return quo
    return g


def _order_divides_members(seq: SalemSeq, order: int, ns) -> set[int]:
    """Residues n mod order (n in ns) where Phi_order divides x^n*f + eps*f~."""
    phi_l = cyclotomic(order)
    fbar = seq.f % phi_l
    fsbar = seq.f_reversed % phi_l
    residues = set()
    ns = list(ns)
    xn = IntPoly.monomial(ns[0]) % phi_l
    x = IntPoly.x()
    prev = ns[0]
    for n in ns:
        while prev < n:
            xn = (xn * x) % phi_l
            prev += 1
        if ((xn * fbar + seq.eps * fsbar) % phi_l).is_zero:
            residues.add(n % order)
    return residues


def _sporadic_extra_unit_root(seq: SalemSeq) -> list[tuple[int, int]]:
    """Indices where the divided sequence keeps a factor x-1, i.e. where
    (x-1)^2 divides the undivided member: the derivative condition at 1 is
    affine in n, so there is at most one such index.  Needs f(1) != 0; the
    caller handles f(1) == 0 as a periodic all-or-nothing entry."""
    f, eps = seq.f, seq.eps
    fs = seq.f_reversed
    a = f.eval_int(1)
    b = f.derivative().eval_int(1) + eps * fs.derivative().eval_int(1)
    n0 = Fraction(-b, a)
    if n0.denominator == 1 and n0 >= 2:
        return [(1, int(n0))]
    return []


def cyclotomic_progressions(seq: SalemSeq) -> ProgressionSet:
    """Progressions of indices n where each candidate cyclotomic order hits.

    For orders coprime to f the one-period scan extends to all n >= 2; the
    order-1 factor on divided sequences is the sporadic derivative condition.
    """
    cands = cyclotomic_candidates(seq)
    lo, hi = VALIDATED_RANGE
    entries: list[ProgressionEntry] = []
    sporadic: list[tuple[int, int]] = []
    exhaustive = cands.exhaustive
    for order in cands.orders:
        if order == 1 and seq.divide_by_x_minus_1:
            f, fs = seq.f, seq.f_reversed
            if f.eval_int(1) == 0:
                b = (f.derivative().eval_int(1)
                     + seq.eps * fs.derivative().eval_int(1))
                if b == 0:
                    entries.append(ProgressionEntry(1, frozenset({0})))
                continue
            sporadic.extend(_sporadic_extra_unit_root(seq))
            continue
        phi_l = cyclotomic(order)
        if poly_gcd(seq.f, phi_l).degree >= 1:
            # periodicity hypothesis fails: certify over the bounded range only
            residues = _order_divides_members(seq, order, range(lo, hi + 1))
            if residues:
                entries.append(ProgressionEntry(order, frozenset(residues),
                                                periodic=False))
            exhaustive = False
            continue
        residues = _order_divides_members(seq, order, range(2, 2 + order))
        if residues:
            entries.append(ProgressionEntry(order, frozenset(residues)))
    entries.sort(key=lambda e: e.order)
    return ProgressionSet(tuple(entries), tuple(sorted(sporadic)),
                          cands.orders, VALIDATED_RANGE, exhaustive)
