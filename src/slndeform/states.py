"""States of a resolution and the semisimple model of its edge algebra.

A state assigns a root-of-unity label to every thin edge; it is admissible
when each thick edge sees two equal unordered pairs of distinct labels.
The algebra generated by the edge variables modulo the deformed potential
relations is semisimple with one-dimensional summands indexed by admissible
states, so we realize it directly as the algebra of functions on the
admissible-state set.  In that model the edge generator X_e acts as the
function phi -> beta*zeta^{phi(e)} and the projector attached to any raw
state evaluates to an indicator function (or to zero when the state is not
admissible) -- properties that ``verify_projector_identities`` checks by
honest field arithmetic rather than assuming.  A ``StateFunction`` stores
only its nonzero values, so a projector costs its support, not the whole
state set; that support is read off the evaluated edge factors (where each
is an exact zero), never off a comparison of labels, so a wrong factor
still shows in the checks.

States are label tuples aligned with ``resolution.thin_edges`` (which is
sorted), and all enumerations are in lexicographic order.
``enumerate_admissible`` uses the local lemma: each thick edge of an
admissible state is straight or crossed, never both, with slots 1 and 2
apart, so ``iter_admissible`` walks the thick edges choosing one pairing
at each and labelling the positions it meets first there.  It never walks
the n^(#thin) raw states; dead ends remain only where a later thick edge
sees labels that fit neither pairing (an odd cycle at n = 2, say).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .cyclotomic import CycloField, CycloNumber, power
from .errors import SizeBoundError
from .resolution import Resolution

__all__ = [
    "StateAlgebra",
    "StateFunction",
    "ProjectorReport",
    "enumerate_admissible",
    "iter_admissible",
    "generator_action",
    "idempotent",
    "verify_projector_identities",
    "DEFAULT_MAX_RAW_STATES",
]

State = tuple  # labels indexed by position in resolution.thin_edges

# admits 12 thin edges at n=2 (4096) and 8 at n=3 (6561), one more of neither;
# verify also bounds the lemma's n^4 tuples by it, so runs up to n = 9
DEFAULT_MAX_RAW_STATES = 6561


def enumerate_admissible(r: Resolution, n: int) -> tuple[State, ...]:
    """All admissible states, lexicographically ordered (``iter_admissible``)."""
    out = list(iter_admissible(r, n))
    out.sort()
    return tuple(out)


def iter_admissible(r: Resolution, n: int):
    """Every admissible state of ``r`` once, depth first, each a new tuple.

    A thick edge of an admissible state is straight (l1=l3, l2=l4) or
    crossed (l1=l4, l2=l3), never both, with l1 != l2: two groups of slots,
    one label each, the two labels distinct.  The walk takes the thick edges
    one at a time, next the one that shares the most positions already
    labelled, and tries both pairings at it, labelling only the positions
    new there: a pairing whose groups share a new position admits nothing,
    and a group's label is forced by any of its positions labelled at an
    earlier step.  Circles meet no thick edge and take every label.  A step
    costs the positions it labels, not the whole state, so a count stopped
    at a bound (``slndeform states``) walks only that many states.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    edges = [tuple(r.slot[s] for s in t.slots) for t in r.thick_edges]
    # per step, its pairings: for each of the two groups, (its positions
    # labelled at earlier steps, its positions labelled here)
    plan, seen, left = [], set(), list(range(len(edges)))
    while left:
        i = max(left, key=lambda j: len(seen.intersection(edges[j])))
        left.remove(i)
        p1, p2, p3, p4 = edges[i]
        pairings = []
        for groups in (((p1, p3), (p2, p4)), ((p1, p4), (p2, p3))):
            split = [
                (tuple(p for p in g if p in seen),
                 tuple(dict.fromkeys(p for p in g if p not in seen)))
                for g in groups
            ]
            if not set(split[0][1]).intersection(split[1][1]):
                pairings.append(split)
        plan.append(pairings)
        seen.update(edges[i])

    labels = [0] * len(r.thin_edges)
    circles = [p for p in range(len(labels)) if p not in seen]
    every = range(n)

    def options(known):
        if not known:
            return every
        x = labels[known[0]]
        for p in known:
            if labels[p] != x:
                return ()
        return (x,)

    def moves(step):
        """Label the positions new at ``step``, one pairing and label pair at a time."""
        for (known1, fresh1), (known2, fresh2) in plan[step]:
            ys = options(known2)  # labelled at earlier steps, so not by x
            for x in options(known1):
                for p in fresh1:
                    labels[p] = x
                for y in ys:
                    if y != x:
                        for p in fresh2:
                            labels[p] = y
                        yield

    # below the root (one way to label nothing), one suspended ``moves`` per
    # step entered; a step labels only its own new positions, so each
    # resumes on the labels it left
    stack = [iter((None,))]
    while stack:
        for _ in stack[-1]:
            if len(stack) <= len(plan):
                stack.append(moves(len(stack) - 1))
                break
            for chosen in product(every, repeat=len(circles)):
                for p, x in zip(circles, chosen):
                    labels[p] = x
                yield tuple(labels)
        else:
            stack.pop()


def iter_raw_states(r: Resolution, n: int, max_raw_states: int = DEFAULT_MAX_RAW_STATES):
    """All n^(#thin) states, lexicographically; gated by a size bound."""
    count = n ** len(r.thin_edges)
    if count > max_raw_states:
        raise SizeBoundError(
            f"raw-state enumeration of size {count} exceeds bound {max_raw_states}"
        )
    return product(range(n), repeat=len(r.thin_edges))


class StateAlgebra:
    """Functions on the admissible states of one resolution, over Q(zeta_n)."""

    def __init__(self, resolution: Resolution, n: int, beta=Fraction(1)):
        beta = Fraction(beta)
        if beta == 0:
            raise ValueError("beta must be nonzero")
        self.resolution = resolution
        self.n = n
        self.beta = beta
        self.field = CycloField(n)
        self.states = enumerate_admissible(resolution, n)
        self.index = {s: i for i, s in enumerate(self.states)}
        self._tables: tuple | None = None

    # -- basic elements ----------------------------------------------------

    def _constant(self, v: CycloNumber) -> "StateFunction":
        if v.is_zero:
            return StateFunction(self, {})
        return StateFunction(self, dict.fromkeys(range(len(self.states)), v))

    def constant(self, value) -> "StateFunction":
        return self._constant(self.field.from_rational(value))

    @property
    def one(self) -> "StateFunction":
        return self.constant(1)

    @property
    def zero(self) -> "StateFunction":
        return self.constant(0)

    def generator_action(self, e: int) -> "StateFunction":
        """The edge generator X_e: the function phi -> beta * zeta^{phi(e)}."""
        if e not in self.resolution.thin_edges:
            raise KeyError(f"unknown thin edge {e}")
        p = self.resolution.slot[e]
        vals = {i: self.field.root(s[p]) * self.beta for i, s in enumerate(self.states)}
        return StateFunction(self, vals)

    # -- projectors ----------------------------------------------------------

    def _edge_factors(self) -> list[CycloNumber]:
        """(1/n) sum_j (beta*zeta^a)^j / (beta*zeta^b)^j, by m = a-b mod n."""
        n, fld = self.n, self.field
        factors = []
        for m in range(n):
            ratio = (fld.root(m) * self.beta) / (fld.root(0) * self.beta)
            acc, p = fld.zero, fld.one
            for _ in range(n):
                acc = acc + p
                p = p * ratio
            factors.append(acc * Fraction(1, n))
        return factors

    def _projector_tables(self) -> tuple:
        """The edge factors, and where each edge's factor is nonzero.

        ``support[p][a]`` is the set of state indices psi whose factor
        ``factors[(psi[p] - a) % n]`` is nonzero, read off the evaluated
        factors, so a wrong factor moves the supports with it.
        """
        if self._tables is None:
            factors = self._edge_factors()
            n = self.n
            nonzero = [not f.is_zero for f in factors]
            states = list(enumerate(self.states))
            support = [
                [
                    frozenset(i for i, s in states if nonzero[(s[p] - a) % n])
                    for a in range(n)
                ]
                for p in range(len(self.resolution.thin_edges))
            ]
            self._tables = (factors, support)
        return self._tables

    def idempotent(self, phi: State) -> "StateFunction":
        """Q_phi = prod_e (1/n)(1 + X_e/(beta*phi(e)) + ... ), in the model.

        For admissible phi this is the indicator function of phi; for
        non-admissible phi it is the zero function.  Both facts come out of
        the evaluation rather than being special-cased: Q_phi is multiplied
        out at every state where no edge factor is an exact zero (the
        intersection of the factors' supports), and is zero elsewhere.
        """
        if len(phi) != len(self.resolution.thin_edges):
            raise ValueError("state length does not match thin-edge count")
        factors, support = self._projector_tables()
        n = self.n
        candidates = frozenset.intersection(
            *(support[p][b % n] for p, b in enumerate(phi))
        )
        one = self.field.one
        vals = {}
        for i in candidates:
            acc = one
            for a, b in zip(self.states[i], phi):
                acc = acc * factors[(a - b) % n]
            vals[i] = acc  # a product of nonzero field elements is nonzero
        return StateFunction(self, vals)


class StateFunction:
    """A map from admissible states to Q(zeta_n), with pointwise operations.

    Only the nonzero values are stored, by state index, so the zero
    function is the empty dict and equal functions have equal dicts.
    Products visit the intersection of the two supports, sums the union.
    """

    __slots__ = ("algebra", "_vals")

    def __init__(self, algebra: StateAlgebra, nonzero: dict):
        self.algebra = algebra
        self._vals = nonzero  # state index -> nonzero CycloNumber

    @property
    def values(self) -> tuple:
        """Every value, zeros included, in state order."""
        zero = self.algebra.field.zero
        return tuple(self._vals.get(i, zero) for i in range(len(self.algebra.states)))

    def _coerce(self, other):
        if isinstance(other, StateFunction):
            if other.algebra is not self.algebra:
                raise ValueError("state functions over different algebras")
            return other
        if isinstance(other, (int, Fraction, CycloNumber)):
            v = other if isinstance(other, CycloNumber) else (
                self.algebra.field.from_rational(other)
            )
            return self.algebra._constant(v)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        big, small = self._vals, o._vals
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for i, b in small.items():
            a = out.get(i)
            if a is None:
                out[i] = b
                continue
            total = a + b
            if total.is_zero:
                del out[i]
            else:
                out[i] = total
        return StateFunction(self.algebra, out)

    __radd__ = __add__

    def __neg__(self):
        return StateFunction(self.algebra, {i: -a for i, a in self._vals.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._vals, o._vals
        if len(a) > len(b):
            a, b = b, a
        # a field has no zero divisors, so no product needs dropping
        vals = {i: v * b[i] for i, v in a.items() if i in b}
        return StateFunction(self.algebra, vals)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return self.algebra.one if k == 0 else power(self, k)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._vals == o._vals

    def __hash__(self):
        return hash(frozenset(self._vals.items()))

    @property
    def is_zero(self) -> bool:
        return not self._vals

    def __call__(self, state: State):
        return self._vals.get(self.algebra.index[state], self.algebra.field.zero)

    def support(self) -> tuple[State, ...]:
        """The states where the function is nonzero, in state order."""
        states = self.algebra.states
        return tuple(states[i] for i in sorted(self._vals))

    def __repr__(self):
        shown = ", ".join(
            f"{s}: {v}" for s, v in zip(self.algebra.states, self.values)
        )
        return f"StateFunction({{{shown}}})"


# ----------------------------------------------------------------------
# Free-function wrappers
# ----------------------------------------------------------------------

def generator_action(e: int, r: Resolution, n: int, beta=Fraction(1)) -> StateFunction:
    return StateAlgebra(r, n, beta).generator_action(e)


def idempotent(phi: State, r: Resolution, n: int, beta=Fraction(1)) -> StateFunction:
    return StateAlgebra(r, n, beta).idempotent(phi)


@dataclass
class ProjectorReport:
    n: int
    beta: Fraction
    raw_count: int = 0
    admissible_count: int = 0
    vanishing_count: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_projector_identities(
    r: Resolution,
    n: int,
    beta=Fraction(1),
    max_raw_states: int = DEFAULT_MAX_RAW_STATES,
) -> ProjectorReport:
    """Check idempotency, orthogonality, completeness and vanishing exactly.

    Runs over the full raw-state set S', so it is gated by
    ``max_raw_states``.  Orthogonality is checked through supports: the
    pointwise product of two projectors vanishes iff no admissible state is
    in both supports.
    """
    algebra = StateAlgebra(r, n, beta)
    report = ProjectorReport(n=n, beta=Fraction(beta))
    running = algebra.zero
    owners: dict[State, State] = {}
    for phi in iter_raw_states(r, n, max_raw_states):
        report.raw_count += 1
        q = algebra.idempotent(phi)
        if not (q * q == q):
            report.failures.append(f"Q^2 != Q for state {phi}")
        admissible = phi in algebra.index
        if admissible:
            report.admissible_count += 1
            if not q(phi) == algebra.field.one:
                report.failures.append(f"Q(phi) != 1 for admissible state {phi}")
        elif q.is_zero:
            report.vanishing_count += 1
        else:
            report.failures.append(f"Q != 0 for non-admissible state {phi}")
        for psi in q.support():
            if psi in owners and owners[psi] != phi:
                report.failures.append(
                    f"orthogonality broken: {owners[psi]} and {phi} overlap at {psi}"
                )
            owners[psi] = phi
        running = running + q
    if not (running == algebra.one):
        report.failures.append("completeness failed: sum of projectors != 1")
    report.failures.sort()
    return report
