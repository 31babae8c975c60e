"""Exact arithmetic in the cyclotomic field Q(zeta_n).

Every scalar the engine touches lives here: eigenvalues beta*zeta^k of the
edge generators, projector coefficients, and the entries of the chain
differentials.  Elements are residues modulo the n-th cyclotomic polynomial
Phi_n with Fraction coefficients, so arithmetic is exact and the quotient is
a genuine field (Phi_n is irreducible over Q).  Working modulo x^n - 1
instead would introduce zero divisors and break the nonvanishing arguments
that the rank computations depend on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

__all__ = [
    "cyclotomic_polynomial",
    "CycloField",
    "CycloNumber",
    "root",
]

RootLabel = int  # exponent k standing for zeta_n^k, always reduced mod n


# ----------------------------------------------------------------------
# Integer / rational polynomial helpers (dense, low degree first)
# ----------------------------------------------------------------------

def _poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _poly_trim(out)


def _poly_divmod_exact(p, q):
    """Long division p = s*q + r over Fractions; returns (s, r)."""
    p = [Fraction(c) for c in p]
    q = [Fraction(c) for c in q]
    s = [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    lead = q[-1]
    while len(p) >= len(q) and any(p):
        p = _poly_trim(p)
        if len(p) < len(q):
            break
        k = len(p) - len(q)
        factor = p[-1] / lead
        s[k] = factor
        for i, c in enumerate(q):
            p[k + i] -= factor * c
        p = p[:-1]
    return _poly_trim(s), _poly_trim(p)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low degree first.

    Computed by dividing x^n - 1 by the product of Phi_d over the proper
    divisors d of n.  The result has integer coefficients; the division is
    checked to be exact.
    """
    if n < 1:
        raise ValueError("cyclotomic polynomial needs n >= 1")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    quot, rem = _poly_divmod_exact(num, den)
    if rem:
        raise RuntimeError(f"inexact division while computing Phi_{n}")
    coeffs = []
    for c in quot:
        if c.denominator != 1:
            raise RuntimeError(f"non-integer coefficient in Phi_{n}")
        coeffs.append(int(c))
    return tuple(coeffs)


# ----------------------------------------------------------------------
# The field and its elements
# ----------------------------------------------------------------------

class CycloField:
    """Q(zeta_n), represented as Q[x] / Phi_n(x)."""

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
        self.degree = len(self.phi) - 1
        # x^k mod Phi_n for k = 0 .. 2*(degree-1); used to fold products
        self._xpow: list[tuple[Fraction, ...]] = [
            tuple(Fraction(int(i == k)) for i in range(self.degree))
            for k in range(self.degree)
        ]
        self._pow_row(2 * self.degree - 2)
        self._root_cache: dict[int, CycloNumber] = {}
        self._zero_coeffs = tuple([Fraction(0)] * self.degree)
        self._zero = CycloNumber(self, self._zero_coeffs)
        self._one = CycloNumber(
            self, tuple([Fraction(1)] + [Fraction(0)] * (self.degree - 1))
        )
        self._ready = True

    # -- constructors --------------------------------------------------

    def element(self, coeffs) -> "CycloNumber":
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            folded = [Fraction(0)] * self.degree
            for k, c in enumerate(vec):
                if c == 0:
                    continue
                if k < self.degree:
                    folded[k] += c
                else:
                    row = self._pow_row(k)
                    for i, r in enumerate(row):
                        folded[i] += c * r
            vec = folded
        else:
            vec = vec + [Fraction(0)] * (self.degree - len(vec))
        return CycloNumber(self, tuple(vec))

    def _pow_row(self, k: int) -> tuple[Fraction, ...]:
        while k >= len(self._xpow):
            prev = self._xpow[-1]
            shifted = [Fraction(0)] + list(prev[:-1])
            top = prev[-1]
            self._xpow.append(
                tuple(shifted[i] - top * self.phi[i] for i in range(self.degree))
            )
        return self._xpow[k]

    def from_rational(self, value) -> "CycloNumber":
        return self.element([Fraction(value)])

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
            self._root_cache[k] = self.element(self._pow_row(k) if k else [1])
        return self._root_cache[k]

    # -- arithmetic kernels ---------------------------------------------

    def _mul(self, a: tuple, b: tuple) -> tuple:
        d = self.degree
        if not (any(a) and any(b)):
            return self._zero_coeffs
        # a rational operand scales the other coefficient vector
        if not any(b[1:]):
            a, b = b, a
        if not any(a[1:]):
            c = a[0]
            return tuple(c * y for y in b)
        conv = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y != 0:
                    conv[i + j] += x * y
        out = list(conv[:d])
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c == 0:
                continue
            row = self._xpow[k]
            for i, r in enumerate(row):
                if r != 0:
                    out[i] += c * r
        return tuple(out)

    def _inv(self, a: tuple) -> tuple:
        if not any(a):
            raise ZeroDivisionError("inversion of zero in Q(zeta_n)")
        if not any(a[1:]):
            return (Fraction(1) / a[0],) + a[1:]
        # extended Euclid on (a, phi) over Q[x]
        r0 = _poly_trim(list(a))
        r1 = [Fraction(c) for c in self.phi]
        s0, s1 = [Fraction(1)], []
        while r1:
            q, r = _poly_divmod_exact(r0, r1)
            qs = _poly_mul(q, s1) if s1 else []
            news = [Fraction(0)] * max(len(s0), len(qs))
            for i, c in enumerate(s0):
                news[i] += c
            for i, c in enumerate(qs):
                news[i] -= c
            s0, s1 = s1, _poly_trim(news)
            r0, r1 = r1, r
        # r0 is the gcd: a nonzero constant since phi is irreducible
        if len(r0) != 1:
            raise ZeroDivisionError("element not invertible modulo Phi_n")
        scale = Fraction(1) / r0[0]
        vec = [c * scale for c in s0]
        return tuple((vec + [Fraction(0)] * self.degree)[: self.degree])

    def __repr__(self):
        return f"CycloField(n={self.n})"


class CycloNumber:
    """An element of Q(zeta_n) in canonical reduced form."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycloField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

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

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not any(self.coeffs):
            return o
        if not any(o.coeffs):
            return self
        return CycloNumber(
            self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNumber(
            self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNumber(self.field, self.field._mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def inv(self) -> "CycloNumber":
        return CycloNumber(self.field, self.field._inv(self.coeffs))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = self.field.one
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field.n, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def as_rational(self) -> Fraction:
        """The value as a rational, if it lies in the prime field."""
        if any(self.coeffs[1:]):
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

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


def root(k: int, n: int) -> CycloNumber:
    """zeta_n^k, as an element of Q(zeta_n)."""
    return CycloField(n).root(k)
