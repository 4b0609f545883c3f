"""Exact arithmetic on univariate integer polynomials.

Coefficients are arbitrary-precision Python ints stored densely in ascending
order: coeffs[i] is the coefficient of x**i.  The zero polynomial has an empty
coefficient tuple and degree -inf (a sentinel distinct from 0).  No floating
point is used anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Rational = Union[int, Fraction]

NEG_INF = float("-inf")


class NotReciprocalError(ValueError):
    """The operation requires a self-reciprocal (palindromic) polynomial."""


class OddDegreeError(ValueError):
    """The operation requires an even-degree polynomial."""


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _divisors(n: int) -> list[int]:
    """Positive divisors of |n| in ascending order, by trial division."""
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


# Miller-Rabin with these bases decides primality for every n below the
# bound, the least strong pseudoprime to all twelve of them
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < _MR_BOUND."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:
        raise ValueError("primality test limited to n < 3.18e23")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _scaled_value(coeffs: tuple[int, ...], n: int, d: int) -> int:
    """d**deg * p(n/d) for p = sum coeffs[i] x**i of degree deg, by integer
    Horner; for d > 0 its sign is the sign of p(n/d).  A power-of-two d,
    which every bisection point has, scales by shifts, not products."""
    if not coeffs:
        return 0
    acc = coeffs[-1]
    if d & (d - 1):
        dp = 1
        for c in coeffs[-2::-1]:
            dp *= d
            acc = acc * n + c * dp
    else:
        e = d.bit_length() - 1
        shift = 0
        for c in coeffs[-2::-1]:
            shift += e
            acc = acc * n + (c << shift)
    return acc


class IntPoly:
    """Immutable dense polynomial over the integers."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = _trim(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        object.__setattr__(self, "_coeffs", cs)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "IntPoly":
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        return cls((0,) * exponent + (coefficient,))

    # -- basic queries -------------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self._coeffs[-1] if self._coeffs else 0

    @property
    def is_monic(self) -> bool:
        return bool(self._coeffs) and self._coeffs[-1] == 1

    def __getitem__(self, i: int) -> int:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return 0

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def sort_key(self) -> tuple:
        """Deterministic ordering key: by degree, then coefficient tuple."""
        return (len(self._coeffs), self._coeffs)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        out = list(self._coeffs)
        b = other._coeffs
        if len(b) > len(out):
            out.extend([0] * (len(b) - len(out)))
        for i, c in enumerate(b):
            out[i] -= c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self._coeffs))

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            if other == 0:
                return IntPoly()
            return IntPoly(tuple(c * other for c in self._coeffs))
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    def __rmul__(self, other: int) -> "IntPoly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative power")
        result = IntPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Pseudo-division (quotient, remainder).

        Satisfies lc(q)**(deg p - deg q + 1) * p == Q*q + R when
        deg p >= deg q; when the divisor is monic this is plain Euclidean
        division over the integers.  For deg p < deg q returns (0, p).
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = _pseudo_divmod(self._coeffs, other._coeffs)
        return IntPoly(quo), IntPoly(rem)

    def __floordiv__(self, other: "IntPoly") -> "IntPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "IntPoly") -> "IntPoly":
        return divmod(self, other)[1]

    # -- structural operations -------------------------------------------------

    def derivative(self) -> "IntPoly":
        cs = self._coeffs
        return IntPoly(tuple(i * cs[i] for i in range(1, len(cs))))

    def reciprocal(self) -> "IntPoly":
        """x**deg(p) * p(1/x); trailing zero coefficients drop the degree."""
        return IntPoly(tuple(reversed(self._coeffs)))

    def compose(self, inner: "IntPoly") -> "IntPoly":
        """Exact composition self(inner(x)) by Horner's rule."""
        result = IntPoly()
        for c in reversed(self._coeffs):
            result = result * inner + IntPoly((c,))
        return result

    def shift_mul(self, k: int) -> "IntPoly":
        """Multiply by x**k."""
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self._coeffs)

    def content(self) -> int:
        """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self._coeffs:
            g = math.gcd(g, c)
            if g == 1:
                return 1
        return g

    def primitive_part(self) -> "IntPoly":
        """self divided by its content; the leading-coefficient sign is kept."""
        g = self.content()
        if g <= 1:
            return self
        return IntPoly(tuple(c // g for c in self._coeffs))

    # -- evaluation ------------------------------------------------------------

    def eval_int(self, t: int) -> int:
        return _scaled_value(self._coeffs, t, 1)

    def eval_fraction(self, t: Rational) -> Fraction:
        fr = Fraction(t)
        d = fr.denominator
        deg = max(len(self._coeffs) - 1, 0)
        return Fraction(_scaled_value(self._coeffs, fr.numerator, d), d ** deg)

    def sign_at(self, t: Rational) -> int:
        """Exact sign of p(t) via the scaled integer den**deg * p(num/den)."""
        fr = Fraction(t)
        return _sign(_scaled_value(self._coeffs, fr.numerator,
                                   fr.denominator))

    # -- printing ----------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"IntPoly({list(self._coeffs)!r})"


def format_poly(p: IntPoly) -> str:
    """Canonical form: descending powers, explicit signs, no zero terms."""
    if p.is_zero:
        return "0"
    parts = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif i == 1:
            body = "x" if mag == 1 else f"{mag}x"
        else:
            body = f"x^{i}" if mag == 1 else f"{mag}x^{i}"
        parts.append(sign + body)
    return "".join(parts)


# -- division and gcd -----------------------------------------------------------


def _long_div(num: tuple[int, ...], den: tuple[int, ...]):
    """Long division of nonzero den into num over Z: trimmed (quo, rem).

    Returns None as soon as lc(den) does not divide a leading term, since
    the quotient over Q has then left Z[x].
    """
    dq = len(den) - 1
    lc = den[-1]
    rem = list(num)
    quo = [0] * max(len(rem) - dq, 0)
    for k in range(len(quo) - 1, -1, -1):
        head = rem[k + dq]
        if head:
            c, r = divmod(head, lc)
            if r:
                return None
            quo[k] = c
            # rem[k + dq] cancels and is never read again
            for i in range(dq):
                rem[k + i] -= c * den[i]
    return _trim(quo), _trim(rem[:dq])


def _pseudo_divmod(a: tuple[int, ...], b: tuple[int, ...]):
    """(quo, rem) of lc(b)**(deg a - deg b + 1) * a by b; every step is exact."""
    if b[-1] != 1 and len(a) >= len(b):
        scale = b[-1] ** (len(a) - len(b) + 1)
        a = tuple(c * scale for c in a)
    return _long_div(a, b)


def _primitive_prs(a: tuple[int, ...], b: tuple[int, ...]):
    """Primitive PRS of coefficient tuples a and b, len(a) >= len(b) >= 1.

    Yields (m, q, kappa, c) for each element c after b, where
    m = lc(B)**(deg A - deg B + 1) and m*A == q*B + kappa*c for the previous
    two elements A, B; c is primitive and kappa carries the sign that makes
    c a positive multiple of -sign(m)*prem(A, B), the Sturm sign.  Stops at
    a zero remainder, which leaves gcd(a, b) up to a scalar as the last
    element, or at a constant element.
    """
    while len(b) > 1:
        m = b[-1] ** (len(a) - len(b) + 1)
        q, r = _pseudo_divmod(a, b)
        if not r:
            return
        g = math.gcd(*r)
        kappa = g if m < 0 else -g
        c = tuple(x // kappa for x in r)
        yield m, q, kappa, c
        a, b = b, c


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Gcd over the rationals as a primitive polynomial with positive lc.

    Computed with the primitive polynomial remainder sequence, the one the
    Sturm chains of realroots use; dividing out each remainder's content
    keeps intermediate coefficients from exploding.
    """
    if p.is_zero and q.is_zero:
        return IntPoly()
    if p.is_zero:
        return _signed_content(q)[1]
    if q.is_zero:
        return _signed_content(p)[1]
    a = p.primitive_part().coeffs
    b = q.primitive_part().coeffs
    if len(a) < len(b):
        a, b = b, a
    for *_, b in _primitive_prs(a, b):
        pass
    if len(b) == 1:
        # nonzero constant: coprime over Q
        return IntPoly((1,))
    return _signed_content(IntPoly(b))[1]


def _signed_content(p: IntPoly) -> tuple[int, IntPoly]:
    """(c, q) with p == c*q, q primitive with positive leading coefficient."""
    c = p.content()
    if p.lc < 0:
        c = -c
    if c in (0, 1):
        return c, p
    return c, IntPoly(tuple(a // c for a in p.coeffs))


def div_exact(p: IntPoly, q: IntPoly) -> IntPoly:
    """Exact quotient p/q over Q, required to land back in Z[x]."""
    if q.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    out = _long_div(p.coeffs, q.coeffs)
    if out is None or out[1]:
        raise ValueError("division is not exact")
    return IntPoly(out[0])


# -- trace-polynomial transforms ---------------------------------------------------


def trace_lift(g: IntPoly) -> IntPoly:
    """Reciprocal lift x**s * g(x + 1/x) of a degree-s polynomial g.

    The roots of the result come in pairs z, 1/z with z + 1/z running over the
    roots of g; the result is self-reciprocal of degree 2s and is monic exactly
    when g is.
    """
    s = g.degree
    if g.is_zero or s < 1:
        raise ValueError("polynomial of degree >= 1 required")
    # Horner in y = x + 1/x: out = x^(s-j) * sum_{i>=j} g_i y^(i-j) steps
    # from j+1 to j as out <- (x^2 + 1)*out + g_j*x^(s-j)
    out = [g[s]]
    for j in range(s - 1, -1, -1):
        out = [a + b for a, b in zip(out + [0, 0], [0, 0] + out)]
        out[s - j] += g[j]
    return IntPoly(out)


def trace_project(f: IntPoly) -> IntPoly:
    """Inverse of trace_lift: the g with f = x**s * g(x + 1/x).

    Raises NotReciprocalError unless f equals its reciprocal, OddDegreeError
    for odd degree.
    """
    if f.is_zero:
        raise ValueError("nonzero polynomial required")
    if f != f.reciprocal():
        raise NotReciprocalError(f"{f} is not self-reciprocal")
    deg = f.degree
    if deg % 2 == 1:
        raise OddDegreeError(f"degree {deg} is odd")
    s = deg // 2
    # x^-s*f = f_s + sum_{j>=1} f_(s+j) P_j(y) with P_j = x^j + x^-j, which
    # obeys P_(j+1) = y*P_j - P_(j-1) from P_1 = y, P_2 = y^2 - 2; Clenshaw's
    # b_j = f_(s+j) + y*b_(j+1) - b_(j+2) gives f_s + y*b_1 - 2*b_2
    b1, b2 = [], []
    for j in range(s, 0, -1):
        b = [0] + b1
        b[0] += f[s + j]
        for i, c in enumerate(b2):
            b[i] -= c
        b1, b2 = b, b1
    out = [f[s]] + b1
    for i, c in enumerate(b2):
        out[i] -= 2 * c
    return IntPoly(out)


def pair_sum_lift(h: IntPoly) -> IntPoly:
    """Lift h (monic, degree k) to (-1)**k x**(2k) h((x+1/x)(1-x-1/x)).

    Stage one substitutes y(1-y) into h, giving the monic trace polynomial
    (-1)**k h(y - y^2) whose roots pair up with sum 1; stage two is trace_lift.
    The result is self-reciprocal of degree 4k.
    """
    return trace_lift(pair_sum_trace_poly(h))


def pair_sum_trace_poly(h: IntPoly) -> IntPoly:
    """The intermediate monic polynomial (-1)**k h(y - y^2) of degree 2k."""
    k = h.degree
    if not h.is_monic or k < 1:
        raise ValueError("monic polynomial of degree >= 1 required")
    inner = IntPoly((0, 1, -1))  # y - y^2
    g = h.compose(inner)
    if k % 2 == 1:
        g = -g
    return g


def norm_form(p: IntPoly, q: IntPoly, m: int) -> IntPoly:
    """p**2 - m*q**2 for a positive squarefree integer m.

    This is the norm of p + sqrt(m)*q from Q(sqrt(m))[x] down to Q[x]; its
    roots are the roots of the two conjugate factors p +- sqrt(m)*q.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    mm = m
    d = 2
    while d * d <= mm:
        if mm % (d * d) == 0:
            raise ValueError("m must be squarefree")
        d += 1
    return p * p - (q * q) * m


def trace(p: IntPoly) -> int:
    """Sum of the roots of a monic polynomial: -coefficient of x**(deg-1)."""
    if not p.is_monic or p.degree < 1:
        raise ValueError("monic polynomial of degree >= 1 required")
    return -p[p.degree - 1]
