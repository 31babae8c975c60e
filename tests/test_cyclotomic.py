"""Exact field arithmetic in Q(zeta_n)."""

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from slndeform import cyclotomic
from slndeform.cyclotomic import (
    CycloField,
    CycloNumber,
    Monomial,
    cyclotomic_polynomial,
    root,
)
from slndeform.errors import InternalCheckError
from slndeform.fixtures import fixture
from slndeform.potential import MultiPoly
from slndeform.resolution import resolve
from slndeform.states import StateAlgebra


def test_first_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)  # x - 1
    assert cyclotomic_polynomial(2) == (1, 1)  # x + 1
    assert cyclotomic_polynomial(6) == (1, -1, 1)  # x^2 - x + 1


def test_cyclotomic_polynomials_match_sympy():
    x = sympy.Symbol("x")
    # to 120: Phi_105 is the first with a coefficient of absolute value 2
    for n in range(1, 121):
        ours = cyclotomic_polynomial(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs]


def test_cyclotomic_polynomial_rejects_zero():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_roots_of_unity_basics():
    assert root(0, 7) == 1
    assert root(1, 2) == -1
    z3 = root(1, 3)
    assert z3 * z3 + z3 + 1 == 0
    for n in range(1, 9):
        for k in range(n):
            assert root(k, n) ** n == 1


def test_gaussian_integer_product():
    i = root(1, 4)
    assert (1 - i) * (1 + i) == 2


def test_root_inverse():
    for n in range(2, 10):
        assert root(1, n).inv() == root(n - 1, n)


def test_derivative_of_xn_minus_1_at_one():
    # (x^n - 1)/(x - 1) evaluated at 1 gives n = prod_{k=1}^{n-1} (1 - zeta^k)
    for n in range(2, 12):
        fld = CycloField(n)
        acc = fld.one
        for k in range(1, n):
            acc = acc * (fld.one - fld.root(k))
        assert acc == n


def test_multiplicative_inverses_are_exact():
    for n in range(1, 13):
        fld = CycloField(n)
        samples = [
            fld.root(k) + Fraction(j, 3)
            for k in range(fld.degree)
            for j in (-2, 0, 1, 5)
        ]
        for a in samples:
            if a.is_zero:
                continue
            assert a * a.inv() == 1


def test_inversion_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycloField(5).zero.inv()


def test_root_multiplication_table():
    for n in range(1, 13):
        for i in range(n):
            for j in range(n):
                assert root(i, n) * root(j, n) == root((i + j) % n, n)


def test_distinct_roots_are_distinct_elements():
    for n in range(1, 13):
        values = [root(k, n) for k in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                assert values[i] != values[j]


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(ValueError):
        root(1, 3) + root(1, 4)


def test_power_and_division():
    z = root(1, 5)
    assert z ** -1 == z.inv()
    assert (z / z) == 1
    assert (2 / (root(0, 5) * 2)) == 1


def test_power_costs_squarings_plus_popcount_minus_one_products(monkeypatch):
    fld = CycloField(5)
    x = fld.element([2, -1, Fraction(1, 3), 5])
    calls = []
    mul = CycloField._mul

    def counting(self, *args):
        calls.append(1)
        return mul(self, *args)

    expected = fld.one
    for k in range(18):
        monkeypatch.setattr(CycloField, "_mul", counting)
        calls.clear()
        got = x**k
        monkeypatch.setattr(CycloField, "_mul", mul)
        assert got == expected, k
        products = 0 if k == 0 else k.bit_length() - 1 + bin(k).count("1") - 1
        assert len(calls) == products, k
        expected = expected * x
    assert x**0 is fld.one
    assert x**-3 == x.inv() * x.inv() * x.inv()
    assert x**-3 * x**3 == 1


def _ring_element(kind):
    """(x, one) in the polynomial ring or in a state algebra."""
    if kind == "MultiPoly":
        xy = ("x", "y")
        x, y = (MultiPoly.variable(v, xy) for v in xy)
        return x + y * Fraction(1, 2) + 3, MultiPoly.constant(1, xy)
    r = resolve(fixture("hopf_pos"), (1, 1))
    algebra = StateAlgebra(r, 3, Fraction(2))
    return algebra.generator_action(r.thin_edges[0]) + 1, algebra.one


@pytest.mark.parametrize("kind", ["MultiPoly", "StateFunction"])
def test_ring_powers_cost_squarings_plus_popcount_minus_one_products(monkeypatch, kind):
    x, one = _ring_element(kind)
    cls = type(x)
    calls = []
    mul = cls.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    expected = one
    for k in range(18):
        monkeypatch.setattr(cls, "__mul__", counting)
        calls.clear()
        got = x**k
        monkeypatch.setattr(cls, "__mul__", mul)
        assert got == expected, k
        products = 0 if k == 0 else k.bit_length() - 1 + bin(k).count("1") - 1
        assert len(calls) == products, k
        expected = expected * x
    with pytest.raises(ValueError if kind == "MultiPoly" else TypeError):
        x**-1


def test_rational_extraction_and_rendering():
    fld = CycloField(4)
    two = fld.from_rational(2)
    assert not any(two.num[1:]) and Fraction(two.num[0], two.den) == 2
    i = fld.root(1)
    assert any(i.num[1:])  # zeta_4 lies outside the prime field
    assert str(fld.zero) == "0"
    assert str(1 - i * 2) == "1 - 2*z"


# ----------------------------------------------------------------------
# Rational shortcuts of the field kernels against the general kernels
# ----------------------------------------------------------------------
# A rational operand is scaled into the other coefficient vector and a
# rational is inverted as 1/c.  The general convolve-and-fold product and
# norm inverse are reached through operands with a nonzero zeta
# coefficient; at n = 2 the field is Q and every operand is rational.

RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@st.composite
def field_and_element(draw):
    """A field Q(zeta_n), n = 2..7, and an element, non-rational if it can be."""
    fld = CycloField(draw(st.integers(min_value=2, max_value=7)))
    coeffs = draw(st.lists(RATIONALS, min_size=fld.degree, max_size=fld.degree))
    assume(fld.degree == 1 or any(coeffs[1:]))
    return fld, fld.element(coeffs)


def _is_rational(a) -> bool:
    return not any(a.coeffs[1:])


@settings(deadline=None)
@given(field_and_element(), RATIONALS)
def test_rational_times_general_matches_convolve_and_fold(fb, r):
    fld, b = fb
    rational, z = fld.from_rational(r), fld.root(1)
    general = (rational + z) * b - z * b
    if fld.degree > 1:
        assert not _is_rational(b) and not _is_rational(rational + z)
    assert rational * b == general
    assert b * rational == general
    assert all(isinstance(c, Fraction) for c in (rational * b).coeffs)


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=7), RATIONALS.filter(bool))
def test_rational_inverse_matches_extended_euclid(n, r):
    fld = CycloField(n)
    rational, z = fld.from_rational(r), fld.root(1)
    shifted = rational * z
    if fld.degree > 1:
        assert not _is_rational(shifted)
    inverse = rational.inv()
    assert inverse == shifted.inv() * z
    assert inverse.coeffs == (1 / r,) + (Fraction(0),) * (fld.degree - 1)
    assert all(isinstance(c, Fraction) for c in inverse.coeffs)
    assert inverse * rational == 1


# ----------------------------------------------------------------------
# Field arithmetic against sympy, and the canonical form
# ----------------------------------------------------------------------
# Elements are integer numerators over one positive denominator with no
# common factor.  Sums, differences, products and inverses are compared
# with sympy's arithmetic in Q[x] modulo Phi_n, on coefficient vectors
# longer than the degree (so element() folds them) and with small, large
# and unequal denominators.

X = sympy.Symbol("x")
LARGE_RATIONALS = st.builds(
    Fraction,
    st.integers(min_value=-10**18, max_value=10**18),
    st.integers(min_value=1, max_value=10**15),
)
ANY_RATIONALS = st.one_of(st.just(Fraction(0)), RATIONALS, LARGE_RATIONALS)


def _assert_canonical(a):
    assert all(type(c) is int for c in a.num) and type(a.den) is int
    assert len(a.num) == a.field.degree
    assert a.den > 0 and gcd(a.den, *a.num) == 1
    if a.is_zero:
        assert a.num == (0,) * a.field.degree and a.den == 1
    assert hash(a) == hash((a.field.n, a.coeffs))


def _sympy_poly(vec):
    """A coefficient list, low degree first, as a sympy polynomial over QQ."""
    terms = [sympy.Rational(c.numerator, c.denominator) for c in reversed(vec)]
    return sympy.Poly(terms, X, domain="QQ")


def _sympy_phi(n):
    return sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain="QQ")


def _sympy_coeffs(p, n):
    """The coefficients of p mod Phi_n, low degree first, as Fractions."""
    phi = _sympy_phi(n)
    rem = [Fraction(int(c.p), int(c.q)) for c in reversed(p.rem(phi).all_coeffs())]
    return tuple(rem + [Fraction(0)] * (phi.degree() - len(rem)))


@st.composite
def field_and_two_vectors(draw, min_n=2):
    """Q(zeta_n), n = min_n..12, and two rational vectors of up to 2*degree entries."""
    n = draw(st.integers(min_value=min_n, max_value=12))
    size = st.integers(min_value=1, max_value=2 * CycloField(n).degree)
    u = draw(st.lists(ANY_RATIONALS, min_size=1, max_size=draw(size)))
    v = draw(st.lists(ANY_RATIONALS, min_size=1, max_size=draw(size)))
    return n, u, v


@settings(deadline=None, max_examples=150, derandomize=True)
@given(field_and_two_vectors())
def test_arithmetic_matches_sympy(nuv):
    n, u, v = nuv
    fld = CycloField(n)
    a, b = fld.element(u), fld.element(v)
    pa, pb = _sympy_poly(u), _sympy_poly(v)
    assert a.coeffs == _sympy_coeffs(pa, n)
    assert b.coeffs == _sympy_coeffs(pb, n)
    results = {
        "sum": (a + b, pa + pb),
        "difference": (a - b, pa - pb),
        "product": (a * b, pa * pb),
    }
    for name, (ours, theirs) in results.items():
        _assert_canonical(ours)
        assert ours.coeffs == _sympy_coeffs(theirs, n), name
    for x, px in ((a, pa), (b, pb)):
        _assert_canonical(x)
        if x.is_zero:
            continue
        inverse = x.inv()
        _assert_canonical(inverse)
        assert inverse.coeffs == _sympy_coeffs(px.invert(_sympy_phi(n)), n)
    _assert_canonical(a - a)
    assert (a - a).num == (0,) * fld.degree and (a - a).den == 1


@settings(deadline=None, max_examples=100, derandomize=True)
@given(
    field_and_two_vectors(min_n=1),
    ANY_RATIONALS.filter(bool),
    st.integers(min_value=-5, max_value=5),
)
def test_equal_values_built_two_ways_are_equal_and_hash_equal(nuv, r, k):
    n, u, v = nuv
    fld = CycloField(n)
    a, b = fld.element(u), fld.element(v)
    # an int operand takes from_rational's int shortcut, a Fraction does not
    rational_k = fld.from_rational(Fraction(k))
    pairs = [
        (fld.element([c * r for c in u]), a * r),
        (a * b, b * a),
        ((a + b) - b, a),
        (a + r, r + a),
        (a * k, a * rational_k),
        (k * a, rational_k * a),
        (a + k, a + rational_k),
        (fld.from_rational(k), rational_k),
    ]
    assert (a == k) == (a == rational_k)
    assert fld.element([k]) == k
    if not a.is_zero:
        pairs.append((a.inv().inv(), a))
        pairs.append(((a * b) / a, b))
    for x, y in pairs:
        _assert_canonical(x)
        _assert_canonical(y)
        assert x == y and (x.num, x.den) == (y.num, y.den)
        assert hash(x) == hash(y)


def test_half_sum_built_two_ways():
    for n in range(2, 13):
        fld = CycloField(n)
        x = fld.element([Fraction(1, 2), Fraction(1, 2)])
        y = fld.element([1, 1]) * Fraction(1, 2)
        assert x == y and hash(x) == hash(y) == hash((n, x.coeffs))
        assert x.den == 2 or fld.degree == 1


def test_norm_that_is_not_rational_raises(monkeypatch):
    fld = CycloField(5)
    monkeypatch.setattr(fld, "_conjugates", fld._conjugates[:-1])
    with pytest.raises(InternalCheckError):
        (fld.root(1) + 2).inv()


# ----------------------------------------------------------------------
# Monomials and rational numerators, built by integer scaling
# ----------------------------------------------------------------------


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-20, max_value=20).filter(bool),
)
@example(n=1, e=-3, p=4, q=-6)
@example(n=6, e=-1, p=0, q=-5)
@example(n=6, e=3, p=3, q=-9)
@example(n=7, e=13, p=-2, q=4)
def test_monomial_is_root_times_rational(n, e, p, q):
    fld = CycloField(n)
    got = fld.monomial(e, p, q)
    want = fld.root(e) * Fraction(p, q)
    _assert_canonical(got)
    assert (got.num, got.den) == (want.num, want.den)
    if p == 0:
        assert got.num == (0,) * fld.degree and got.den == 1


def test_rational_over_element_scales_the_inverse(monkeypatch):
    fld = CycloField(5)
    a = fld.element([2, -1, Fraction(1, 3), 5])
    products = []
    mul = CycloNumber.__mul__

    def counting(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(CycloNumber, "__mul__", counting)
    monkeypatch.setattr(CycloNumber, "__rmul__", counting)
    quotients = [Fraction(1) / a, 1 / a, Fraction(3, 2) / a, -4 / a, Fraction(0) / a]
    assert products == []
    monkeypatch.undo()
    assert (quotients[0].num, quotients[0].den) == (a.inv().num, a.inv().den)
    assert quotients[1] == a.inv()
    assert (Fraction(3, 2) / a) * a == Fraction(3, 2)
    assert quotients[3] * a == -4
    assert quotients[4].is_zero
    for x in quotients:
        _assert_canonical(x)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(field_and_element(), ANY_RATIONALS)
def test_rational_over_element_matches_product_with_inverse(fb, r):
    fld, a = fb
    assume(not a.is_zero)
    got = r / a
    want = fld.from_rational(r) * a.inv()
    _assert_canonical(got)
    assert (got.num, got.den) == (want.num, want.den)


# ----------------------------------------------------------------------
# Monomial arithmetic in ints, against honest field arithmetic on
# root(e) * Fraction(p, q)

MONOMIAL_P = st.integers(min_value=-30, max_value=30)
MONOMIAL_Q = st.integers(min_value=-20, max_value=20).filter(bool)


@st.composite
def two_monomials(draw):
    """n = 1..13 and two triples (e, p, q); the second shares e mod n half the time."""
    n = draw(st.integers(min_value=1, max_value=13))
    e = draw(st.integers(min_value=-40, max_value=40))
    shift = n * draw(st.integers(min_value=-2, max_value=2))
    f = e + shift if draw(st.booleans()) else draw(st.integers(min_value=-40, max_value=40))
    return n, (e, draw(MONOMIAL_P), draw(MONOMIAL_Q)), (f, draw(MONOMIAL_P), draw(MONOMIAL_Q))


def _honest(fld, e, p, q):
    return fld.root(e) * Fraction(p, q)


def _assert_reduced(m):
    assert type(m) is Monomial
    assert 0 <= m.e < m.field.n and m.q > 0 and gcd(m.p, m.q) == 1
    if not m.p:
        assert (m.e, m.q) == (0, 1)


def _assert_same_element(got, want):
    _assert_canonical(got)
    assert type(want) is CycloNumber
    assert (got.num, got.den) == (want.num, want.den)
    assert got == want and want == got and hash(got) == hash(want)
    assert bool(got) == bool(want)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(two_monomials(), st.integers(min_value=-6, max_value=6))
@example(nab=(4, (0, 1, 1), (2, 1, 1)), k=2)
@example(nab=(4, (1, 3, -2), (3, 3, -2)), k=0)
@example(nab=(6, (5, 0, -7), (2, -4, 6)), k=-1)
@example(nab=(2, (0, 2, 3), (1, 2, 3)), k=1)
@example(nab=(1, (3, -5, -10), (0, 0, 3)), k=3)
def test_monomial_arithmetic_matches_field_arithmetic(nab, k):
    n, ta, tb = nab
    fld = CycloField(n)
    a, b = fld.monomial(*ta), fld.monomial(*tb)
    ha, hb = _honest(fld, *ta), _honest(fld, *tb)
    same_e = a.e == b.e  # as reduced: zero has e = 0
    # (result, honest value, whether it must stay a Monomial)
    checks = [
        (a, ha, True),
        (a * b, ha * hb, True),
        (a * k, ha * k, True),
        (k * a, k * ha, True),
        (-a, -ha, True),
        (a + b, ha + hb, same_e),
        (a - b, ha - hb, same_e),
        (a * hb, ha * hb, False),
        (hb * a, hb * ha, False),
        (a + hb, ha + hb, False),
        (hb - a, hb - ha, False),
    ]
    if ta[1]:
        checks += [
            (a.inv(), ha.inv(), True),
            (Fraction(1) / a, Fraction(1) / ha, True),
            (Fraction(k, 7) / a, Fraction(k, 7) / ha, True),
            (b / a, hb / ha, True),
        ]
    else:
        with pytest.raises(ZeroDivisionError):
            a.inv()
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / a
    for got, want, stays in checks:
        if stays:
            _assert_reduced(got)
        _assert_same_element(got, want)


def test_monomials_half_a_turn_apart_cancel_at_even_n():
    # at even n, zeta^(e + n/2) = -zeta^e: equal values with different triples
    for n in range(2, 14, 2):
        fld = CycloField(n)
        for e in range(n):
            a, b = fld.monomial(e, 3, 2), fld.monomial(e + n // 2, -3, 2)
            assert (a.e, a.p) != (b.e, b.p)
            assert a == b and hash(a) == hash(b)
            total = fld.monomial(e, 1, 1) + fld.monomial(e + n // 2, 1, 1)
            assert not total and total == 0 and total == fld.zero
            _assert_canonical(total)
            assert not (a - b) and a - b == 0
    assert not CycloField(4).monomial(0, 1, 1) + CycloField(4).monomial(2, 1, 1)


def test_monomial_arithmetic_stays_in_ints(monkeypatch):
    fld = CycloField(12)
    want = _honest(fld, 10, -2907, 40)
    built = []
    scaled = cyclotomic._scaled

    def counting(*args):
        built.append(args)
        return scaled(*args)

    def no_field_arithmetic(*args):
        raise AssertionError("monomial arithmetic used a field kernel")

    monkeypatch.setattr(cyclotomic, "_scaled", counting)
    for name in ("_add", "_mul", "_inv"):
        monkeypatch.setattr(fld, name, no_field_arithmetic)
    a, b = fld.monomial(5, -4, 6), fld.monomial(17, 9, 2)
    # a = zeta^5 * -2/3 and b = zeta^5 * 9/2, so every term below has e = 10
    c = (a * b + b * a) * 3 - (-a).inv() * (Fraction(2, 5) / b) * b**4
    assert bool(c) and not (a - a)
    assert built == []
    assert (c.e, c.p, c.q) == (10, -2907, 40)
    assert c == want  # reads num and den: built once
    assert len(built) == 1 and c.num is c.num and len(built) == 1
    with pytest.raises(ZeroDivisionError):
        fld.monomial(1, 1, 0)
