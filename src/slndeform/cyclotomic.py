"""Exact arithmetic in the cyclotomic field Q(zeta_n).

Every scalar the engine touches lives here: eigenvalues beta*zeta^k of the
edge generators, projector coefficients, and the entries of the chain
differentials.  Elements are residues modulo the n-th cyclotomic polynomial
Phi_n, so arithmetic is exact and the quotient is a genuine field (Phi_n is
irreducible over Q).  Working modulo x^n - 1 instead would introduce zero
divisors and break the nonvanishing arguments that the rank computations
depend on.

An element is stored as integer numerators of 1, zeta, ..., zeta^(d-1) over
one positive integer denominator, reduced so that the denominator and the
numerators have no common factor; equal values therefore have equal
storage.  Phi_n is monic with integer coefficients, so sums and products
stay in the integers and each operation normalises once.  The inverse is
read off the norm: 1/a is the product of the Galois conjugates sigma_k(a),
k != 1 a unit mod n, divided by N(a), which is checked to be a nonzero
rational.  A rational divided by an element scales the inverse, with no
field product.  ``coeffs`` gives the rational coefficients as Fractions.

``CycloField.monomial`` returns a ``Monomial``, the element zeta^e * p/q
kept as the three ints: its products with monomials and ints, its sums
with monomials of the same exponent, its negation and its inverse stay in
those ints, and its ``num``/``den`` (one integer row scaled by p/q) are
built only when general code first reads them.  A rescaled chain entry is
such a monomial, so d o d on a rescaled complex needs no field product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import InternalCheckError

__all__ = [
    "cyclotomic_polynomial",
    "CycloField",
    "CycloNumber",
    "Monomial",
    "root",
    "power",
]

RootLabel = int  # exponent k standing for zeta_n^k, always reduced mod n


def power(x, k: int):
    """x**k for k >= 1 in any ring, by square-and-multiply.

    It starts from x and stops squaring after the last exponent bit, so it
    takes floor(log2 k) squarings plus popcount(k) - 1 products.  Callers
    handle k <= 0, each with its own one and inverse.
    """
    result = None
    while True:
        if k & 1:
            result = x if result is None else result * x
        k >>= 1
        if not k:
            return result
        x = x * x


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low degree first.

    x^n - 1 is divided in turn by Phi_d for each proper divisor d of n.
    Every Phi_d is monic with integer coefficients, so each quotient stays
    in the integers; a nonzero remainder raises ``InternalCheckError``.
    """
    if n < 1:
        raise ValueError("cyclotomic polynomial needs n >= 1")
    quot = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            quot = _divide_by_monic(quot, cyclotomic_polynomial(d), n)
    return tuple(quot)


def _divide_by_monic(p: list, q: tuple, n: int) -> list:
    """p / q for monic integer q, low degree first; the remainder must be 0."""
    k = len(q) - 1
    rem = list(p)
    quot = [0] * (len(p) - k)
    for i in reversed(range(len(quot))):
        c = quot[i] = rem[i + k]
        if c:
            for j, b in enumerate(q):
                rem[i + j] -= c * b
    if any(rem):
        raise InternalCheckError(f"inexact division while computing Phi_{n}")
    return quot


# ----------------------------------------------------------------------
# The field and its elements
# ----------------------------------------------------------------------

class CycloField:
    """Q(zeta_n), represented as Q[x] / Phi_n(x).

    The arithmetic kernels take and return elements as ``(num, den)``: a
    tuple of ``degree`` integer numerators and one positive integer
    denominator, in canonical form (see ``_canon``).
    """

    _instances: dict[int, "CycloField"] = {}

    def __new__(cls, n: int):
        if n in cls._instances:
            return cls._instances[n]
        self = super().__new__(cls)
        cls._instances[n] = self
        return self

    def __init__(self, n: int):
        if getattr(self, "_ready", False):
            return
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.phi = cyclotomic_polynomial(n)
        self.degree = d = len(self.phi) - 1
        # x^k mod Phi_n for k = 0 .. max(2*(degree-1), n-1): they fold
        # products and give each root of unity.  Phi_n is monic with integer
        # coefficients, so the rows are integers.
        self._xpow: list[tuple[int, ...]] = [
            tuple(int(i == k) for i in range(d)) for k in range(d)
        ]
        self._pow_row(max(2 * d - 2, n - 1))
        # The Galois conjugations sigma_k: zeta -> zeta^k, one for each unit
        # k != 1 mod n, each given by the rows x^i is sent to.  a times the
        # product of its conjugates is the norm N(a), a rational.
        self._conjugates = [
            [self._pow_row(i * k % n) for i in range(d)]
            for k in range(2, n)
            if gcd(k, n) == 1
        ]
        self._root_cache: dict[int, CycloNumber] = {}
        self._zero_num = (0,) * d
        self._zero = CycloNumber(self, self._zero_num, 1)
        self._one = CycloNumber(self, (1,) + self._zero_num[1:], 1)
        self._ready = True

    # -- constructors --------------------------------------------------

    def element(self, coeffs) -> "CycloNumber":
        """sum_k coeffs[k] * zeta^k, for rational coefficients of any length."""
        vec = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in vec))
        ints = [c.numerator * (den // c.denominator) for c in vec]
        d = self.degree
        out = ints[:d] + [0] * (d - len(ints))
        for k in range(d, len(ints)):
            c = ints[k]
            if c:
                for i, r in enumerate(self._pow_row(k)):
                    out[i] += c * r
        return CycloNumber(self, *_canon(out, den))

    def _pow_row(self, k: int) -> tuple[int, ...]:
        while k >= len(self._xpow):
            prev = self._xpow[-1]
            top = prev[-1]
            shifted = (0,) + prev[:-1]
            self._xpow.append(
                tuple(shifted[i] - top * self.phi[i] for i in range(self.degree))
            )
        return self._xpow[k]

    def from_rational(self, value) -> "CycloNumber":
        """``value`` as a field element; an int is already canonical over 1."""
        if type(value) is int:
            return CycloNumber(self, (value,) + self._zero_num[1:], 1)
        q = Fraction(value)
        return CycloNumber(self, (q.numerator,) + self._zero_num[1:], q.denominator)

    @property
    def zero(self) -> "CycloNumber":
        return self._zero

    @property
    def one(self) -> "CycloNumber":
        return self._one

    def root(self, k: int) -> "CycloNumber":
        """zeta_n^k as a field element."""
        k %= self.n
        if k not in self._root_cache:
            self._root_cache[k] = CycloNumber(self, self._xpow[k], 1)
        return self._root_cache[k]

    def monomial(self, e: int, p: int, q: int) -> "Monomial":
        """zeta_n^e * p/q for ints e, p and q != 0, as a ``Monomial``.

        It keeps the reduced ints; its ``num`` and ``den`` are the integer
        row of zeta^(e mod n) scaled by p over q, built on first read.
        """
        if not q:
            raise ZeroDivisionError("monomial with denominator 0")
        return Monomial(self, e, p, q)

    # -- arithmetic kernels ---------------------------------------------

    def _add(self, a: tuple, da: int, b: tuple, db: int) -> tuple:
        if da == db:
            num = [x + y for x, y in zip(a, b)]
            return (tuple(num), 1) if da == 1 else _canon(num, da)
        g = gcd(da, db)
        sa, sb = db // g, da // g
        return _canon([x * sa + y * sb for x, y in zip(a, b)], da * sa)

    def _mul(self, a: tuple, da: int, b: tuple, db: int) -> tuple:
        # a rational operand scales the other numerator vector
        if not any(b[1:]):
            a, b = b, a
        if not any(a[1:]):
            c = a[0]
            num = [c * y for y in b]
        else:
            num = self._fold_product(a, b)
        den = da * db
        return (tuple(num), 1) if den == 1 else _canon(num, den)

    def _fold_product(self, a, b) -> list[int]:
        """The integer product a*b mod Phi_n: convolve, then fold x^k, k >= d."""
        d = self.degree
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                for i, r in enumerate(self._xpow[k]):
                    out[i] += c * r
        return out

    def _inv(self, a: tuple, da: int) -> tuple:
        """1/a = prod_{k != 1} sigma_k(a) / N(a), N(a) = a * prod sigma_k(a)."""
        if not any(a):
            raise ZeroDivisionError("inversion of zero in Q(zeta_n)")
        if not any(a[1:]):
            c = a[0]
            return ((da if c > 0 else -da,) + a[1:], abs(c))
        cofactor = None
        for rows in self._conjugates:
            conj = [0] * self.degree
            for x, row in zip(a, rows):
                if x:
                    for i, r in enumerate(row):
                        conj[i] += x * r
            cofactor = conj if cofactor is None else self._fold_product(cofactor, conj)
        norm = self._fold_product(a, cofactor)
        if any(norm[1:]) or not norm[0]:
            raise InternalCheckError(
                f"norm of {a} in Q(zeta_{self.n}) is {norm}, not a nonzero rational"
            )
        den = norm[0]
        if den < 0:
            den, da = -den, -da
        return _canon([da * c for c in cofactor], den)

    def __repr__(self):
        return f"CycloField(n={self.n})"


def _scaled(num: tuple, den: int, p: int, q: int) -> tuple:
    """``(num, den)`` times the rational p/q, q != 0, in canonical form."""
    if q < 0:
        p, q = -p, -q
    return _canon([p * x for x in num], den * q)


def _canon(num: list, den: int) -> tuple:
    """``(num, den)`` divided by gcd(den, *num): zero becomes (0, ..., 0)/1."""
    g = gcd(den, *num)
    if g != 1:
        return tuple([x // g for x in num]), den // g
    return tuple(num), den


class CycloNumber:
    """An element of Q(zeta_n): sum_k num[k] * zeta^k / den.

    The form is canonical (``den > 0``, ``gcd(den, *num) == 1``), so equal
    values have equal ``(num, den)``.  Build elements through ``CycloField``.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple, den: int = 1):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients of 1, zeta, ..., zeta^(degree-1)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- coercion -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            if other.field is not self.field:
                raise ValueError("mixing elements of different cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    # -- ring / field operations -----------------------------------------
    # A ``Monomial`` operand takes the integer path first wherever the result
    # is again a monomial (see ``Monomial``).  The subclass overrides none of
    # these operators, so whatever wraps them (perfbench's operator counts)
    # sees every call.

    def __add__(self, other):
        if (
            type(self) is Monomial and type(other) is Monomial
            and other.e == self.e and other.field is self.field
        ):
            q = other.q
            return Monomial(self.field, self.e, self.p * q + other.p * self.q, self.q * q)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not any(self.num):
            return o
        if not any(o.num):
            return self
        return CycloNumber(
            self.field, *self.field._add(self.num, self.den, o.num, o.den)
        )

    __radd__ = __add__

    def __neg__(self):
        if type(self) is Monomial:
            return Monomial(self.field, self.e, -self.p, self.q)
        return CycloNumber(self.field, tuple([-a for a in self.num]), self.den)

    def __sub__(self, other):
        if (
            type(self) is Monomial and type(other) is Monomial
            and other.e == self.e and other.field is self.field
        ):
            q = other.q
            return Monomial(self.field, self.e, self.p * q - other.p * self.q, self.q * q)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNumber(
            self.field,
            *self.field._add(self.num, self.den, tuple([-b for b in o.num]), o.den),
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if type(self) is Monomial:
            if type(other) is int:
                return Monomial(self.field, self.e, self.p * other, self.q)
            if type(other) is Monomial and other.field is self.field:
                return Monomial(
                    self.field, self.e + other.e, self.p * other.p, self.q * other.q
                )
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNumber(
            self.field, *self.field._mul(self.num, self.den, o.num, o.den)
        )

    __rmul__ = __mul__

    def inv(self) -> "CycloNumber":
        if type(self) is Monomial:
            if not self.p:
                raise ZeroDivisionError("inversion of zero in Q(zeta_n)")
            return Monomial(self.field, -self.e, self.q, self.p)
        return CycloNumber(self.field, *self.field._inv(self.num, self.den))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        """other / self for a rational other: 1/self scaled, no field product."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        inv = self.inv()
        if type(inv) is Monomial:
            return Monomial(
                self.field, inv.e, other.numerator * inv.p, other.denominator * inv.q
            )
        return CycloNumber(
            self.field, *_scaled(inv.num, inv.den, other.numerator, other.denominator)
        )

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inv() ** (-exponent)
        if exponent == 0:
            return self.field.one
        return power(self, exponent)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.field.n, self.coeffs))

    def __bool__(self):
        if type(self) is Monomial:
            return self.p != 0
        return any(self.num)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    term = mono
                elif c == -1:
                    term = f"-{mono}"
                else:
                    term = f"{c}*{mono}"
                parts.append(term)
        if not parts:
            return "0"
        out = parts[0]
        for term in parts[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out

    def __repr__(self):
        return f"CycloNumber({self}, n={self.field.n})"


class Monomial(CycloNumber):
    """zeta^e * p/q kept as the ints (e, p, q), reduced as built.

    Reduced means 0 <= e < n, q > 0 and gcd(p, q) = 1, with zero as
    (0, 0, 1).  A product of two monomials, a monomial times an int, the sum
    or difference of two with the same e, the negation and the inverse are
    again monomials, and ``CycloNumber``'s operators compute them in these
    ints.  Everything else reads ``num`` and ``den``: they are built on first
    read as the integer row of zeta^e scaled by p/q, and kept.  ``==`` and
    ``hash`` compare that canonical form; at even n, zeta^(e + n/2) * p/q
    equals zeta^e * (-p)/q.
    """

    __slots__ = ("e", "p", "q")

    def __init__(self, field: CycloField, e: int, p: int, q: int):
        if q < 0:
            p, q = -p, -q
        g = gcd(p, q)
        self.field = field
        self.e = e % field.n if p else 0
        self.p = p // g
        self.q = q // g

    def __getattr__(self, name):
        # reached only for unset slots: num and den until their first read
        if name == "num" or name == "den":
            self.num, self.den = _scaled(self.field._xpow[self.e], 1, self.p, self.q)
        return object.__getattribute__(self, name)


def root(k: int, n: int) -> CycloNumber:
    """zeta_n^k, as an element of Q(zeta_n)."""
    return CycloField(n).root(k)
