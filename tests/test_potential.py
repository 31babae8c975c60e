"""g, the divided differences u1/u2, pi, and the admissibility lemma."""

from fractions import Fraction
from itertools import product

import pytest

from slndeform import potential
from slndeform.cyclotomic import CycloField
from slndeform.potential import (
    ExactDivisionError,
    MultiPoly,
    PotentialContext,
    X_VARS,
    admissible_tuple,
    g_poly,
    lemma_brute_check,
    pi_poly,
    u1_poly,
    u2_poly,
)

ZW = ("z", "w")
XY = ("x", "y")


def evaluate(poly, values):
    """``poly`` at ``values``, which live in any commutative ring containing Q.

    The point-check oracle for u1 and u2: each term's powers multiplied
    out and summed, with no use of the polynomial arithmetic under test.
    """
    total = Fraction(0)
    for expo, coeff in sorted(poly.terms.items()):
        term = coeff
        for name, e in zip(poly.vars, expo):
            if e:
                term = values[name] ** e * term
        total = term + total
    return total


def _xvar(name, vars=X_VARS):
    return MultiPoly.variable(name, vars)


def test_g_small_cases():
    z, w = MultiPoly.variable("z", ZW), MultiPoly.variable("w", ZW)
    assert g_poly(1) == z * z - 2 * w
    assert g_poly(2) == z**3 - 3 * z * w


def test_g_defining_identity_by_substitution():
    # independent oracle: substitute z = x+y, w = xy and expand
    x, y = (MultiPoly.variable(v, XY) for v in XY)
    for n in range(1, 11):
        lhs = g_poly(n).substitute({"z": x + y, "w": x * y})
        assert lhs == x ** (n + 1) + y ** (n + 1)


def test_u1_closed_form_n2():
    x1, x2, x3, x4 = (_xvar(v) for v in X_VARS)
    s, t = x1 + x2, x3 + x4
    assert u1_poly(2) == s * s + s * t + t * t - 3 * x1 * x2


def test_u2_closed_form_n2():
    x3, x4 = _xvar("x3"), _xvar("x4")
    assert u2_poly(2) == -3 * (x3 + x4)


def test_divided_difference_divisions_are_exact():
    for n in range(1, 11):
        u1_poly(n)  # raises ExactDivisionError on any remainder
        u2_poly(n)


def test_exact_division_error_on_indivisible():
    x1, x2 = _xvar("x1"), _xvar("x2")
    with pytest.raises(ExactDivisionError):
        (x1 * x1 + x2).exact_div(x1 + x2)


def test_u1_u2_symmetry_under_pair_swaps():
    def swapped(p, a, b):
        ia, ib = X_VARS.index(a), X_VARS.index(b)
        terms = {}
        for expo, coeff in p.terms.items():
            e = list(expo)
            e[ia], e[ib] = e[ib], e[ia]
            terms[tuple(e)] = coeff
        return MultiPoly(X_VARS, terms)

    for n in range(1, 7):
        for p in (u1_poly(n), u2_poly(n)):
            assert swapped(p, "x1", "x2") == p
            assert swapped(p, "x3", "x4") == p


def test_u1_u2_values_on_admissible_tuples():
    # u1 -> (n+1)*beta^n and u2 -> 0 at x_i = beta*zeta^{l_i} when admissible
    for n in (2, 3):
        fld = CycloField(n)
        for beta in (Fraction(1), Fraction(2)):
            pts = {f"x{i+1}": fld.root(k) * beta
                   for i, k in enumerate((0, 1, 1, 0))}
            assert evaluate(u1_poly(n), pts) == (n + 1) * beta**n
            assert evaluate(u2_poly(n), pts) == 0


def test_pi_small_and_diagonal():
    x, y = (MultiPoly.variable(v, XY) for v in XY)
    assert pi_poly(1) == x + y
    for n in range(1, 8):
        diag = pi_poly(n).substitute({"x": x, "y": x})
        assert diag == (n + 1) * x**n


def test_pi_times_difference():
    x, y = (MultiPoly.variable(v, XY) for v in XY)
    for n in range(1, 11):
        assert (x - y) * pi_poly(n) == x ** (n + 1) - y ** (n + 1)


def test_admissible_tuple_examples():
    assert admissible_tuple((0, 1, 0, 1), 3)
    assert not admissible_tuple((0, 0, 0, 0), 3)
    assert not admissible_tuple((0, 1, 1, 2), 3)
    assert admissible_tuple((0, 1, 1, 0), 2)
    assert admissible_tuple((0, 4, 1, 3), 3)  # labels reduce mod n


def test_lemma_brute_check_counts():
    rep = lemma_brute_check(PotentialContext(2, Fraction(1)))
    assert rep.tuples_checked == 16
    assert rep.admissible_count == 4  # ordered distinct pairs x 2 pairings
    assert rep.passed

    rep = lemma_brute_check(PotentialContext(3, Fraction(1)))
    assert rep.tuples_checked == 81
    assert rep.admissible_count == 12
    assert rep.passed


def test_lemma_admissible_set_is_beta_independent():
    base = lemma_brute_check(PotentialContext(2, Fraction(1)))
    scaled = lemma_brute_check(PotentialContext(2, Fraction(5)))
    assert base.admissible_count == scaled.admissible_count
    assert base.passed and scaled.passed


def test_lemma_full_sweep():
    for n in range(2, 7):
        for beta in (Fraction(1), Fraction(2), Fraction(-3)):
            rep = lemma_brute_check(PotentialContext(n, beta))
            assert rep.passed, rep.counterexamples[:3]
            assert rep.admissible_count == 2 * n * (n - 1)


@pytest.mark.parametrize("shift", ["z", "w"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("beta", [Fraction(1), Fraction(-3)])
def test_lemma_reports_a_shifted_u_as_counterexamples(monkeypatch, shift, n, beta):
    # g + z adds 1 to u1 and g + w adds 1 to u2, so the equations fail on
    # every admissible tuple and the check must report exactly those
    real = potential.g_poly
    monkeypatch.setattr(
        potential, "g_poly",
        lambda k: real(k) + MultiPoly.variable(shift, ("z", "w")),
    )
    rep = lemma_brute_check(PotentialContext(n, beta))
    admissible = [
        t for t in product(range(n), repeat=4) if admissible_tuple(t, n)
    ]
    assert len(admissible) == 2 * n * (n - 1)
    assert rep.counterexamples == admissible
    assert rep.admissible_count == len(admissible)


def test_lemma_holds_at_n7():
    rep = lemma_brute_check(PotentialContext(7, Fraction(1)))
    assert rep.passed
    assert (rep.admissible_count, rep.tuples_checked) == (84, 2401)


def test_potential_context_validation():
    with pytest.raises(ValueError):
        PotentialContext(1, Fraction(1))
    with pytest.raises(ValueError):
        PotentialContext(2, Fraction(0))


def test_telescoping_identity_with_symbolic_beta():
    ext = X_VARS + ("b",)
    x1, x2, x3, x4, b = (MultiPoly.variable(v, ext) for v in ext)
    for n in range(1, 7):
        shift = (n + 1) * b**n
        lhs = (u1_poly(n).with_vars(ext) - shift) * (x1 + x2 - x3 - x4) + (
            u2_poly(n).with_vars(ext) * (x1 * x2 - x3 * x4)
        )
        rhs = MultiPoly.constant(0, ext)
        for x in (x1, x2):
            rhs = rhs + (x ** (n + 1) - shift * x)
        for x in (x3, x4):
            rhs = rhs - (x ** (n + 1) - shift * x)
        assert lhs == rhs


def test_divided_difference_sum_form_matches_expanded_polynomials():
    # the evaluation path used by lemma_brute_check, as a symbolic identity
    x1, x2, x3, x4 = (_xvar(v) for v in X_VARS)
    z, zp = x1 + x2, x3 + x4
    w, wp = x1 * x2, x3 * x4
    for n in range(1, 7):
        u1_sum = MultiPoly.constant(0, X_VARS)
        u2_sum = MultiPoly.constant(0, X_VARS)
        for (ea, eb), coeff in sorted(g_poly(n).terms.items()):
            if ea > 0:
                dd = MultiPoly.constant(0, X_VARS)
                for i in range(ea):
                    dd = dd + z**i * zp ** (ea - 1 - i)
                u1_sum = u1_sum + coeff * dd * w**eb
            if eb > 0:
                dd = MultiPoly.constant(0, X_VARS)
                for j in range(eb):
                    dd = dd + w**j * wp ** (eb - 1 - j)
                u2_sum = u2_sum + coeff * zp**ea * dd
        assert u1_sum == u1_poly(n)
        assert u2_sum == u2_poly(n)


def test_multipoly_rendering_is_canonical():
    x1, x2 = _xvar("x1"), _xvar("x2")
    p = x1 * x1 - 2 * x2 + 1
    assert str(p) == "x1^2 - 2*x2 + 1"
    assert str(MultiPoly.constant(0, X_VARS)) == "0"
