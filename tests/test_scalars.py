from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from triality.scalars import MAX_CONDUCTOR, Rational, make_field


def naive_poly_divmod(num, den):
    """Independent schoolbook division for cross-checking reductions."""
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        c = Rational(num[-1]) / Rational(den[-1])
        d = len(num) - len(den)
        q[d] = c
        for i, dc in enumerate(den):
            num[d + i] -= c * dc
    return q, num


def test_cyclotomic_small_conductors():
    assert [str(c) for c in make_field(1).minimal_polynomial] == ["-1", "1"]
    assert [str(c) for c in make_field(3).minimal_polynomial] == ["1", "1", "1"]


def test_phi12_by_exhaustive_division():
    # divide x^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6 with schoolbook division
    prod = [Rational(1)]
    for d in (1, 2, 3, 4, 6):
        phi = [Rational(str(c)) for c in (make_field(d).minimal_polynomial if d != 2 else (1, 1))]
        if d == 2:
            phi = [Rational(1), Rational(1)]
        new = [Rational(0)] * (len(prod) + len(phi) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(phi):
                new[i + j] += a * b
        prod = new
    x12 = [Rational(-1)] + [Rational(0)] * 11 + [Rational(1)]
    q, rem = naive_poly_divmod(x12, prod)
    assert not any(rem)
    assert q == [Rational(1), Rational(0), Rational(-1), Rational(0), Rational(1)]
    assert [str(c) for c in make_field(12).minimal_polynomial] == ["1", "0", "-1", "0", "1"]
    assert make_field(12).degree == 4


def test_omega_relations(field):
    w = field.omega
    assert (w * w + w + field.one).is_zero()
    assert w * w * w == field.one


def test_zeta6_by_independent_reduction(field):
    # reduce x^6 mod x^4 - x^2 + 1 with schoolbook division
    x6 = [0, 0, 0, 0, 0, 0, 1]
    phi = [1, 0, -1, 0, 1]
    _q, rem = naive_poly_divmod([Rational(c) for c in x6], [Rational(c) for c in phi])
    rem = rem + [Rational(0)] * (4 - len(rem))
    assert field.zeta(6).coeffs == tuple(rem[:4])


def test_field_mismatch_raises():
    a = make_field(3).one
    b = make_field(12).one
    with pytest.raises(ValueError):
        a + b


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 4).map(lambda k: 3 if k == 3 else 12),
    st.tuples(*(st.integers(-6, 6) for _ in range(4))),
    st.tuples(*(st.integers(-6, 6) for _ in range(4))),
    st.tuples(*(st.integers(-6, 6) for _ in range(4))),
)
def test_field_axioms(conductor, ca, cb, cc):
    F = make_field(conductor)
    d = F.degree
    a, b, c = (F.element(list(t)[:d]) for t in (ca, cb, cc))
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not b.is_zero():
        assert (a * b) / b == a
        assert b * b.inverse() == F.one


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 5, 7, 11]),
    st.tuples(*(st.integers(-5, 5) for _ in range(4))),
    st.tuples(*(st.integers(-5, 5) for _ in range(4))),
)
def test_galois_ring_homomorphism(k, ca, cb):
    F = make_field(12)
    a, b = F.element(ca), F.element(cb)
    assert F.galois(a + b, k) == F.galois(a, k) + F.galois(b, k)
    assert F.galois(a * b, k) == F.galois(a, k) * F.galois(b, k)


def test_conductor_bound():
    # rejected before the cyclotomic polynomial or the power table is built
    with pytest.raises(ValueError, match="MAX_CONDUCTOR"):
        make_field(MAX_CONDUCTOR + 3)


def test_galois_examples(field):
    w = field.omega
    x = field.element([3, -2, 5, 7])
    assert field.galois(x, 1) == x
    assert field.galois(w, -1) == w * w
    assert field.galois(field.scalar(22, 7), 5) == field.scalar(22, 7)
    with pytest.raises(ValueError):
        field.galois(x, 2)  # gcd(2, 12) != 1


def test_serialization_roundtrip(field):
    x = field.element([Rational(3, 7), Rational(-1), Rational(0), Rational(11, 2)])
    strings = x.to_strings()
    assert all(isinstance(s, str) for s in strings)
    assert field.element([Rational(s) for s in strings]) == x


# -- the integer kernel against an independent Fraction reference

_DENS = [1, 1, 2, 3, 4, 6, 9, 35, 2**70]


def _ref_reduce(poly, field):
    """poly (Fraction coefficients) mod Phi_N by schoolbook division."""
    phi = [Rational(c) for c in field.minimal_polynomial]
    _q, rem = naive_poly_divmod(list(poly), phi)
    rem = [Rational(c) for c in rem] + [Rational(0)] * field.degree
    return tuple(rem[: field.degree])


def _ref_mul(x, y, field):
    prod = [Rational(0)] * (2 * field.degree - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    return _ref_reduce(prod, field)


def _ref_galois(x, k, field):
    N = field.conductor
    poly = [Rational(0)] * N
    for i, a in enumerate(x):
        poly[(i * k) % N] += a
    return _ref_reduce(poly, field)


@st.composite
def _scalar_coeffs(draw, degree):
    """Coefficients with mixed non-unit denominators; sometimes rational
    (the fast path) or zero."""
    q = st.builds(Rational, st.integers(-40, 40), st.sampled_from(_DENS))
    coeffs = draw(st.lists(q, min_size=degree, max_size=degree))
    shape = draw(st.sampled_from(["full", "full", "rational", "zero"]))
    if shape == "rational":
        coeffs[1:] = [Rational(0)] * (degree - 1)
    elif shape == "zero":
        coeffs = [Rational(0)] * degree
    return coeffs


def _assert_canonical(x):
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    assert all(isinstance(c, int) for c in x.num + (x.den,))
    if not any(x.num):
        assert x.den == 1 and x.is_zero()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([3, 12, 24]), st.data())
def test_kernel_against_fraction_reference(conductor, data):
    F = make_field(conductor)
    d = F.degree
    ca = data.draw(_scalar_coeffs(d))
    cb = data.draw(_scalar_coeffs(d))
    a, b = F.element(ca), F.element(cb)
    assert a.coeffs == tuple(ca) and b.coeffs == tuple(cb)
    zero_sum = a + (-a)
    for x in (a, b, a * b, a + b, a - b, zero_sum):
        _assert_canonical(x)
    assert zero_sum.num == (0,) * d and zero_sum.den == 1
    assert (a * b).coeffs == _ref_mul(ca, cb, F)
    assert (a + b).coeffs == tuple(x + y for x, y in zip(ca, cb))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(ca, cb))
    # canonical form: equality of scalars is equality of coefficients
    assert (a == b) == (ca == cb)
    assert (a * b == b * a) and (a - b == -(b - a))
    if not b.is_zero():
        inv = b.inverse()
        _assert_canonical(inv)
        assert _ref_mul(inv.coeffs, cb, F) == F.one.coeffs
        _assert_canonical(a / b)
    else:
        with pytest.raises(ZeroDivisionError):
            b.inverse()
    k = data.draw(st.sampled_from([k for k in range(1, conductor) if gcd(k, conductor) == 1]))
    g = F.galois(a, k)
    _assert_canonical(g)
    assert g.coeffs == _ref_galois(ca, k, F)


def test_scalar_from_integers_matches_fraction(field):
    # integer p/q is reduced by one gcd with the sign on the numerator; the
    # stored form is that of the Fraction p/q
    for p in range(-13, 14):
        for q in [q for q in range(-13, 14) if q]:
            r = Rational(p, q)
            s = field.scalar(p, q)
            assert (s.num, s.den) == ((r.numerator,) + (0,) * (field.degree - 1), r.denominator)
            assert s == field.scalar(Rational(p), Rational(q))
        with pytest.raises(ZeroDivisionError):
            field.scalar(p, 0)
    assert field.scalar(Rational(2, 3), -4) == field.scalar(-1, 6)
    with pytest.raises(ZeroDivisionError):
        field.scalar(Rational(1, 2), 0)
