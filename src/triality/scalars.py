"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A scalar is stored in the power basis 1, zeta, ..., zeta^(phi(N)-1) as a
tuple of Python int numerators over one positive int denominator, in lowest
terms: gcd(*num, den) == 1, and zero is (0, ..., 0) / 1.  The form is
canonical, so equality of scalars is equality of (num, den) and the zero
test is a test on ints.  The default conductor is 12, which contains a
primitive cube root of unity omega = zeta^4 and a primitive fourth root
zeta^3 while keeping the field degree at 4.

The N-th cyclotomic polynomial Phi_N is monic with integer coefficients, so
a product is an integer convolution, a reduction by the integer rows of
x^j mod Phi_N, and one gcd against the product of the denominators;
`CycloField.sum_products` folds and divides once for a whole sum.  The
inverse of a is the product of its other Galois conjugates divided by the
rational norm N(a), again in integers.

`coeffs` gives the coefficients as a tuple of fractions.Fraction (exported
here as `Rational`), derived on demand; they print as "p/q", which is what
the JSON serialization uses.
"""

from __future__ import annotations

from fractions import Fraction as Rational
from functools import lru_cache
from math import gcd
from operator import add, neg, sub


def _euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


# -- dense integer polynomials (lists, lowest degree first)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b, i):
            out[j] += ai * bj
    return out


def _poly_divmod_monic(a, b):
    """Quotient and remainder of a by the monic polynomial b."""
    a = list(a)
    n = len(b) - 1
    q = [0] * max(len(a) - n, 0)
    for i in range(len(a) - 1 - n, -1, -1):
        c = a[i + n]
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return q, a[:n]


@lru_cache(maxsize=None)
def _cyclotomic_poly(n: int):
    """Phi_n as an integer coefficient tuple, computed by exact division of
    x^n - 1 by the product of Phi_d over proper divisors d of n."""
    if n == 1:
        return (-1, 1)
    xn1 = [-1] + [0] * (n - 1) + [1]
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, _cyclotomic_poly(d))
    quo, rem = _poly_divmod_monic(xn1, den)
    if any(rem):
        raise ArithmeticError(f"cyclotomic division left a remainder for n={n}")
    return tuple(quo)


# The largest conductor a field is built for.  The power table below has
# max(2 phi(N) - 1, N) rows of phi(N) ints, so its cost grows like N^2:
# make_field took 0.07 s at N = 1200, 0.14 s at the prime 1193 (the
# largest table under the bound), 0.38 s at 2520 and 1.1 s at 5040 (2-core
# VM).  The constructions need only omega and i, which Q(zeta_12) holds,
# and the benchmark's largest field is Q(zeta_24); the bound keeps every
# field cheap, where an unbounded N could take minutes and gigabytes
# before anything is checked.
MAX_CONDUCTOR = 1200


class CycloField:
    """The field Q(zeta_N), acting as a factory and arithmetic context for
    CycloScalar values.  Instances are cached per conductor; use make_field.
    """

    def __init__(self, conductor: int):
        if conductor < 1:
            raise ValueError("conductor must be a positive integer")
        if conductor > MAX_CONDUCTOR:
            raise ValueError(f"conductor {conductor} exceeds MAX_CONDUCTOR = {MAX_CONDUCTOR}")
        self.conductor = conductor
        self.minimal_polynomial = phi = _cyclotomic_poly(conductor)
        self.degree = d = len(phi) - 1
        assert d == _euler_phi(conductor)
        # x^j mod Phi_N for j = 0 .. max(2d-1, N); row j is an int tuple.
        rows = []
        cur = [1] + [0] * (d - 1)
        for _ in range(max(2 * d - 1, conductor)):
            rows.append(tuple(cur))
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                for i in range(d):
                    cur[i] -= lead * phi[i]
        rows.append(tuple(cur))
        self._pow_rows = rows
        # the nonzero entries of the rows that fold x^d .. x^(3d-3) back
        # (a product of two numerator vectors needs the first d - 1)
        fold = [(j, [(i, r) for i, r in enumerate(rows[j % conductor]) if r]) for j in range(d, 3 * d - 2)]
        self._fold, self._fold3 = fold[: d - 1], fold
        # zeta -> zeta^k for the units k != 1: the conjugates in the norm
        self._conjugators = [k for k in range(2, conductor) if gcd(k, conductor) == 1]
        self.zero = CycloScalar(self, (0,) * d, 1)
        self.one = CycloScalar(self, (1,) + (0,) * (d - 1), 1)

    # -- element constructors

    def element(self, coeffs) -> CycloScalar:
        """The scalar with the given rational power-basis coefficients."""
        qs = [Rational(c) for c in coeffs]
        if len(qs) != self.degree:
            raise ValueError("coefficient vector has the wrong length")
        den = 1
        for q in qs:
            den = den * q.denominator // gcd(den, q.denominator)
        # every prime power of den is the exact denominator of some entry,
        # whose numerator it does not divide: the result is in lowest terms
        return CycloScalar(self, tuple(q.numerator * (den // q.denominator) for q in qs), den)

    def scalar(self, p, q=1) -> CycloScalar:
        """The rational p/q, for p and q ints or Fractions, in lowest terms."""
        n, d = p.numerator * q.denominator, p.denominator * q.numerator
        if not d:
            raise ZeroDivisionError("scalar with zero denominator")
        g = gcd(n, d) if d > 0 else -gcd(n, d)
        return CycloScalar(self, (n // g,) + (0,) * (self.degree - 1), d // g)

    def zeta(self, power: int = 1) -> CycloScalar:
        return CycloScalar(self, self._pow_rows[power % self.conductor], 1)

    @property
    def omega(self) -> CycloScalar:
        """A primitive cube root of unity, zeta^(N/3).  Requires 3 | N."""
        if self.conductor % 3 != 0:
            raise ValueError("field contains no primitive cube root of unity")
        return self.zeta(self.conductor // 3)

    def _galois_num(self, num, k: int) -> list:
        """The numerators of zeta -> zeta^k applied to num (0 <= k < N)."""
        out = [0] * self.degree
        rows, n = self._pow_rows, self.conductor
        for i, c in enumerate(num):
            if c:
                for j, r in enumerate(rows[(i * k) % n]):
                    out[j] += c * r
        return out

    def sum_products(self, terms) -> CycloScalar:
        """The sum of the products over the scalar tuples of terms (pairs
        or triples), in lowest terms: int products, not folded, over the
        lcm of the terms' denominators, then one fold mod Phi_N and one
        gcd.  Rational factors scale, as in __mul__; the form is canonical,
        so the value is the one a loop of scalar products and sums gives."""
        acc = [0] * (3 * self.degree - 2)
        den = 1
        for factors in terms:
            d, k, vec = 1, 1, None
            for f in factors:
                d *= f.den
                v = f.num
                if any(v[1:]):
                    vec = v if vec is None else _poly_mul(vec, v)
                else:
                    k *= v[0]
            if den % d:
                s = d // gcd(den, d)
                acc = [s * t for t in acc]
                den *= s
            k *= den // d
            if vec is None:
                acc[0] += k
            else:
                for i, t in enumerate(vec):
                    acc[i] += k * t
        for j, row in self._fold3:
            t = acc[j]
            if t:
                for i, r in row:
                    acc[i] += t * r
        g = gcd(den, *acc[: self.degree])
        return CycloScalar(self, tuple([t // g for t in acc[: self.degree]]), den // g)

    def __repr__(self):
        return f"CycloField(conductor={self.conductor})"

    def __hash__(self):
        return hash(("CycloField", self.conductor))

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.conductor == self.conductor


class CycloScalar:
    """An element of Q(zeta_N): int numerators `num` in the reduced power
    basis over the positive int denominator `den`, in lowest terms.  Build
    values through the CycloField constructors."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """The power-basis coefficients as fractions."""
        den = self.den
        if den == 1:
            return tuple(map(Rational, self.num))
        return tuple(Rational(c, den) for c in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Rational(self.num[0], self.den)

    def _check(self, other):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("scalars live in different cyclotomic fields")

    def __add__(self, other):
        if not isinstance(other, CycloScalar):
            return NotImplemented
        if self.field is not other.field:
            self._check(other)
        return _combine(self, other, add)

    def __sub__(self, other):
        if not isinstance(other, CycloScalar):
            return NotImplemented
        if self.field is not other.field:
            self._check(other)
        return _combine(self, other, sub)

    def __neg__(self):
        return CycloScalar(self.field, tuple(map(neg, self.num)), self.den)

    def __mul__(self, other):
        if not isinstance(other, CycloScalar):
            return NotImplemented
        F = self.field
        if F is not other.field:
            self._check(other)
        a, b = self.num, other.num
        # rational fast paths carry most of the split-algebra arithmetic;
        # a factor q/den with q == den is 1 (the form is in lowest terms),
        # as is every structure constant of End_L(V)
        if not any(b[1:]):
            q = b[0]
            if not q:
                return F.zero
            if q == other.den:
                return self
            out = [c * q for c in a]
        elif not any(a[1:]):
            q = a[0]
            if not q:
                return F.zero
            if q == self.den:
                return other
            out = [q * c for c in b]
        else:
            out = _convolve(F, a, b)
        den = self.den * other.den
        if den != 1:
            g = gcd(den, *out)
            if g != 1:
                den //= g
                out = [c // g for c in out]
        return CycloScalar(F, tuple(out), den)

    def inverse(self) -> CycloScalar:
        F = self.field
        num, den = self.num, self.den
        if not any(num[1:]):
            q = num[0]
            if not q:
                raise ZeroDivisionError("division by zero in Q(zeta_N)")
            if q < 0:
                q, den = -q, -den
            return CycloScalar(F, (den,) + num[1:], q)
        # a = A/den with A in Z[zeta]; P, the product of the other Galois
        # conjugates of A, satisfies P A = N(A) in Z, so 1/a = den P / N(A)
        cof = F.one.num
        for k in F._conjugators:
            cof = _convolve(F, cof, F._galois_num(num, k))
        norm = _convolve(F, num, cof)
        n = norm[0]
        # Q(zeta_N) with phi(N) > 1 is a CM field: the norm is a product of
        # |sigma(a)|^2 and so a positive rational
        if n <= 0 or any(norm[1:]):
            raise ArithmeticError("the product of the conjugates is not a positive rational")
        out = [den * c for c in cof]
        g = gcd(n, *out)
        return CycloScalar(F, tuple([c // g for c in out]), n // g)

    def __truediv__(self, other):
        if not isinstance(other, CycloScalar):
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        if not isinstance(other, CycloScalar):
            return NotImplemented
        return (
            self.num == other.num
            and self.den == other.den
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self):
        return hash((self.field.conductor, self.num, self.den))

    def to_strings(self):
        return [str(c) for c in self.coeffs]

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{i}")
        return " + ".join(parts)


def _convolve(F: CycloField, a, b) -> list:
    """The numerators of the product of two numerator vectors: an integer
    convolution folded back by the rows of x^j mod Phi_N."""
    d = F.degree
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                conv[j] += x * y
    out = conv[:d]
    for j, row in F._fold:
        c = conv[j]
        if c:
            for i, r in row:
                out[i] += c * r
    return out


def _combine(x: CycloScalar, y: CycloScalar, op) -> CycloScalar:
    """x op y for op in {add, sub}, brought to lowest terms."""
    dx, dy = x.den, y.den
    if dx == dy:
        out = tuple(map(op, x.num, y.num))
        if dx != 1:
            g = gcd(dx, *out)
            if g != 1:
                return CycloScalar(x.field, tuple([c // g for c in out]), dx // g)
        return CycloScalar(x.field, out, dx)
    g = gcd(dx, dy)
    mx, my = dy // g, dx // g
    out = tuple([op(a * mx, b * my) for a, b in zip(x.num, y.num)])
    den = dx * mx
    if g != 1:
        # coprime denominators leave the sum in lowest terms; others may not
        h = gcd(den, *out)
        if h != 1:
            return CycloScalar(x.field, tuple([c // h for c in out]), den // h)
    return CycloScalar(x.field, out, den)


@lru_cache(maxsize=None)
def make_field(conductor: int) -> CycloField:
    """The cyclotomic field Q(zeta_N); instances are shared per conductor.

    >>> make_field(1).minimal_polynomial
    (-1, 1)
    >>> make_field(12).degree
    4
    """
    return CycloField(conductor)
