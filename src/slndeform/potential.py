"""The deformed potential layer: g, u1, u2, pi and the admissibility lemma.

The potential w(x) = x^{n+1} - (n+1)*beta^n*x enters the construction only
through a handful of polynomial identities.  This module keeps them exact:

* ``g_poly(n)`` is the unique g with g(x+y, xy) = x^{n+1} + y^{n+1},
  produced by the power-sum recurrence p_k = z*p_{k-1} - w*p_{k-2}.
* ``u1_poly`` / ``u2_poly`` are the divided differences of g across a thick
  edge; their defining divisions must be exact, and a nonzero remainder is
  reported as an internal error rather than silently truncated.
* ``admissible_tuple`` is the set-theoretic condition under which the four
  thick-edge equations vanish, and ``lemma_brute_check`` confirms the
  equivalence over all n^4 root tuples, at any n; ``slndeform verify``
  bounds the n^4 by ``--max-raw-states``.  The two linear equations decide
  first; u1 and u2 are summed only where they hold.

Polynomials are sparse Fraction-coefficient maps from exponent vectors, so
everything here (including the brute-force lemma scan) is exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .cyclotomic import CycloField, power

__all__ = [
    "MultiPoly",
    "PotentialContext",
    "ExactDivisionError",
    "g_poly",
    "u1_poly",
    "u2_poly",
    "pi_poly",
    "admissible_tuple",
    "lemma_brute_check",
    "LemmaReport",
]

X_VARS = ("x1", "x2", "x3", "x4")


class ExactDivisionError(ArithmeticError):
    """A division that is exact by construction left a remainder (a bug)."""


# ----------------------------------------------------------------------
# Sparse multivariate polynomials over Q
# ----------------------------------------------------------------------

class MultiPoly:
    """Sparse polynomial: map from exponent vectors to Fraction coefficients.

    Immutable by convention; zero coefficients are never stored.  The
    variable tuple is part of the value, and mixed-variable arithmetic is
    rejected rather than guessed at.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: dict | None = None):
        self.vars = tuple(vars)
        clean = {}
        for expo, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c != 0:
                clean[tuple(expo)] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value, vars: tuple[str, ...]) -> "MultiPoly":
        zero = (0,) * len(vars)
        return cls(vars, {zero: Fraction(value)})

    @classmethod
    def variable(cls, name: str, vars: tuple[str, ...]) -> "MultiPoly":
        expo = [0] * len(vars)
        expo[vars.index(name)] = 1
        return cls(vars, {tuple(expo): Fraction(1)})

    def with_vars(self, vars: tuple[str, ...]) -> "MultiPoly":
        """The same polynomial viewed inside a larger variable tuple."""
        positions = [vars.index(v) for v in self.vars]
        terms = {}
        for expo, coeff in self.terms.items():
            new = [0] * len(vars)
            for pos, e in zip(positions, expo):
                new[pos] = e
            terms[tuple(new)] = coeff
        return MultiPoly(vars, terms)

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.vars != other.vars:
            raise ValueError("polynomials over different variable tuples")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.vars)
        self._check(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, Fraction(0)) + coeff
        return MultiPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return MultiPoly(self.vars, {e: c * v for e, v in self.terms.items()})
        self._check(other)
        terms: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                terms[expo] = terms.get(expo, Fraction(0)) + c1 * c2
        return MultiPoly(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return MultiPoly.constant(1, self.vars) if k == 0 else power(self, k)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- substitution ------------------------------------------------------

    def substitute(self, mapping: dict[str, "MultiPoly"]) -> "MultiPoly":
        """Plug polynomials in for variables (all images share one tuple)."""
        images = list(mapping.values())
        target = images[0].vars
        acc = MultiPoly(target)
        for expo, coeff in self.terms.items():
            term = MultiPoly.constant(coeff, target)
            for name, e in zip(self.vars, expo):
                if e:
                    term = term * (mapping[name] ** e)
            acc = acc + term
        return acc

    # -- exact division ----------------------------------------------------

    def _leading(self):
        expo = max(self.terms)
        return expo, self.terms[expo]

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Quotient self/divisor by lex leading-term elimination.

        Divisibility is guaranteed by construction at all call sites, so a
        leading term that the divisor cannot cancel raises
        ``ExactDivisionError`` instead of producing a remainder.
        """
        self._check(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        lead_e, lead_c = divisor._leading()
        rem = self
        quot = MultiPoly(self.vars)
        while not rem.is_zero:
            expo, coeff = rem._leading()
            diff = tuple(a - b for a, b in zip(expo, lead_e))
            if any(d < 0 for d in diff):
                raise ExactDivisionError(
                    f"remainder with leading term {expo} not divisible by {lead_e}"
                )
            factor = MultiPoly(self.vars, {diff: coeff / lead_c})
            quot = quot + factor
            rem = rem - factor * divisor
        return quot

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, reverse=True):
            coeff = self.terms[expo]
            factors = []
            for name, e in zip(self.vars, expo):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        out = parts[0]
        for term in parts[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out

    def __repr__(self):
        return f"MultiPoly({self})"


# ----------------------------------------------------------------------
# The potential polynomials
# ----------------------------------------------------------------------

def g_poly(n: int) -> MultiPoly:
    """The unique g(z, w) with g(x+y, xy) = x^{n+1} + y^{n+1}.

    Power sums in two variables satisfy p_k = z*p_{k-1} - w*p_{k-2} with
    p_0 = 2 and p_1 = z, which gives g = p_{n+1} in O(n) polynomial steps.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    zw = ("z", "w")
    z = MultiPoly.variable("z", zw)
    w = MultiPoly.variable("w", zw)
    p_prev = MultiPoly.constant(2, zw)  # p_0
    p_cur = z  # p_1
    for _ in range(2, n + 2):
        p_prev, p_cur = p_cur, z * p_cur - w * p_prev
    return p_cur


def _g_substituted(n: int, zsub: MultiPoly, wsub: MultiPoly) -> MultiPoly:
    return g_poly(n).substitute({"z": zsub, "w": wsub})


def u1_poly(n: int) -> MultiPoly:
    """(g(x1+x2, x1*x2) - g(x3+x4, x1*x2)) / (x1+x2-x3-x4), exactly."""
    x1, x2, x3, x4 = (MultiPoly.variable(v, X_VARS) for v in X_VARS)
    num = _g_substituted(n, x1 + x2, x1 * x2) - _g_substituted(n, x3 + x4, x1 * x2)
    return num.exact_div(x1 + x2 - x3 - x4)


def u2_poly(n: int) -> MultiPoly:
    """(g(x3+x4, x1*x2) - g(x3+x4, x3*x4)) / (x1*x2-x3*x4), exactly."""
    x1, x2, x3, x4 = (MultiPoly.variable(v, X_VARS) for v in X_VARS)
    num = _g_substituted(n, x3 + x4, x1 * x2) - _g_substituted(n, x3 + x4, x3 * x4)
    return num.exact_div(x1 * x2 - x3 * x4)


def pi_poly(n: int) -> MultiPoly:
    """(x^{n+1} - y^{n+1}) / (x - y)  =  sum_{i=0}^{n} x^i y^{n-i}."""
    xy = ("x", "y")
    return MultiPoly(xy, {(i, n - i): Fraction(1) for i in range(n + 1)})


# ----------------------------------------------------------------------
# Admissibility of root tuples
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialContext:
    """Fixed (n, beta) for a run; beta stays an exact nonzero rational."""

    n: int
    beta: Fraction = Fraction(1)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.beta == 0:
            raise ValueError("beta must be nonzero")


def admissible_tuple(labels, n: int) -> bool:
    """True iff {l1, l2} = {l3, l4} as sets of roots and l1 != l2."""
    l1, l2, l3, l4 = (k % n for k in labels)
    return l1 != l2 and {l1, l2} == {l3, l4}


@dataclass
class LemmaReport:
    n: int
    beta: Fraction
    tuples_checked: int = 0
    admissible_count: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def lemma_brute_check(ctx: PotentialContext) -> LemmaReport:
    """Exhaustively verify the thick-edge equations against admissibility.

    Scans all n^4 tuples (l1, l2, l3, l4) of root labels, evaluates the four
    equations at x_i = beta*zeta^{l_i} in Q(zeta_n)

        x1 + x2 - x3 - x4 = 0
        x1*x2 - x3*x4 = 0
        u1(x) = (n+1)*beta^n
        u2(x) = 0

    and records every tuple where "all four hold" disagrees with
    ``admissible_tuple``.  The two linear equations decide first: they hold
    only when {x1, x2} = {x3, x4}, and only there are u1 and u2 summed.
    Divided differences are evaluated through their expanded-sum form,
    never by dividing, so coincident points are fine.
    """
    n, beta = ctx.n, ctx.beta
    fld = CycloField(n)
    gterms = g_poly(n).terms
    target_u1 = fld.from_rational((n + 1) * beta**n)
    points = [fld.root(k) * beta for k in range(n)]
    report = LemmaReport(n=n, beta=beta)

    # z = x + y and w = x*y depend only on the unordered label pair
    zw = {
        (i, j): (points[i] + points[j], points[i] * points[j])
        for i in range(n)
        for j in range(i, n)
    }

    cache: dict[tuple, bool] = {}
    for labels in product(range(n), repeat=4):
        l1, l2, l3, l4 = labels
        key = (min(l1, l2), max(l1, l2), min(l3, l4), max(l3, l4))
        equations_hold = cache.get(key)
        if equations_hold is None:
            (z, w), (zp, wp) = zw[key[:2]], zw[key[2:]]
            equations_hold = z == zp and w == wp
            if equations_hold:
                # u1 = sum c * DD_a(z, z') * w^b, u2 = sum c * z'^a * DD_b(w, w'),
                # with DD_a(s, t) = sum_i s^i * t^(a-1-i)
                u1_val = sum(
                    (z**i * zp ** (a - 1 - i) * w**b * c
                     for (a, b), c in gterms.items() for i in range(a)),
                    fld.zero,
                )
                u2_val = sum(
                    (zp**a * w**j * wp ** (b - 1 - j) * c
                     for (a, b), c in gterms.items() for j in range(b)),
                    fld.zero,
                )
                equations_hold = u1_val == target_u1 and u2_val.is_zero
            cache[key] = equations_hold
        admissible = admissible_tuple(labels, n)
        report.tuples_checked += 1
        if admissible:
            report.admissible_count += 1
        if equations_hold != admissible:
            report.counterexamples.append(labels)

    report.counterexamples.sort()
    return report
