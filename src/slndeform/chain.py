"""The deformed chain complex on the basis of (resolution, admissible state).

The differential has one component per cube edge, running from the
lower-degree vertex to the higher-degree one: the 0->1 direction at positive
crossings and the 1->0 direction at negative crossings, so that it uniformly
raises degree by 1.  A component is supported exactly on matched state
pairs -- a state of local type 3 on the 0-side paired with the type 1 state
on the 1-side obtained by retaining the same label on every arc; type 4 and
type 2 states have no partner and map to zero.

Each component's scalar is +1 before signs.  On every summand with fixed
labels the cube has one-dimensional vertex spaces and commuting squares, so
any choice of nonzero scalars is related to this one by a diagonal change of
basis: the complex is integral, and Q(zeta_n) enters only through such a
rescaling.  ``build_complex`` therefore stores every entry as the Python
int 1 or -1, the standard alternating cube sign (parity of the 1-bits
before the flipped crossing), which makes the squares anticommute;
``rescale_basis`` exists precisely to exercise the claim.  It conjugates
the integral complex by a diagonal of monomials zeta^e * p/q, so each
rescaled entry is again a monomial, built in integer arithmetic as a
``CycloNumber`` with no field product or inverse.  The deformation scale
beta could change only these nonzero scalars, so the complex does not take
it; the lemma and the projectors read it.  ``check_d_squared`` verifies
d o d = 0 exactly with the entries as stored, ints or field elements alike.

The differential keeps every arc's label, so the complex splits into one
block per arc coloring, stored as ``DeformedComplex.blocks``: the cube over
the crossings free for that coloring.  ``build_complex`` assembles each cube
directly; ``matched_pairs`` is the classifying reference it is tested against.
d o d, the ranks and rescaling run block by block.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, replace
from itertools import product
from typing import NamedTuple

from .cyclotomic import CycloField, CycloNumber
from .diagram import Crossing, LinkDiagram
from .errors import InternalCheckError, SizeBoundError
from .resolution import Resolution, degree as vertex_degree, resolve
from .states import enumerate_admissible

__all__ = [
    "LocalType",
    "classify_local",
    "matched_pairs",
    "ChainBasisElement",
    "DeformedComplex",
    "build_complex",
    "rescale_basis",
    "DEFAULT_MAX_CROSSINGS",
]

DEFAULT_MAX_CROSSINGS = 12


class LocalType(enum.Enum):
    TYPE1 = 1
    TYPE2 = 2
    TYPE3 = 3
    TYPE4 = 4
    INADMISSIBLE = 0


def classify_local(values, bit: int) -> LocalType:
    """Classify the four slot labels at one crossing of a resolution.

    For bit 1 (thick edge): type 1 is the straight pairing l1=l3, l2=l4 and
    type 2 the crossed pairing l1=l4, l2=l3, both with l1 != l2.  For bit 0
    the smoothing itself identifies slots (1,3) and (2,4); the state is
    type 4 when the two strands carry equal labels and type 3 otherwise.
    """
    l1, l2, l3, l4 = values
    if bit == 1:
        if l1 == l2:
            return LocalType.INADMISSIBLE
        if l1 == l3 and l2 == l4:
            return LocalType.TYPE1
        if l1 == l4 and l2 == l3:
            return LocalType.TYPE2
        return LocalType.INADMISSIBLE
    if l1 != l3 or l2 != l4:
        return LocalType.INADMISSIBLE  # cannot arise from a real 0-smoothing
    return LocalType.TYPE4 if l1 == l2 else LocalType.TYPE3


def _partners(src: Resolution, dst: Resolution, states, c: Crossing, bit: int, valid):
    """(state, partner) pairs across the cube edge that flips crossing c.

    ``bit`` is c's bit in ``src``: type 3 states match from the 0-side and
    type 1 states from the 1-side; every other state maps to zero.  The
    partner retains every arc's label and must lie in ``valid``, the
    admissible states of ``dst``; a missing partner raises
    InternalCheckError.
    """
    want = LocalType.TYPE3 if bit == 0 else LocalType.TYPE1
    for s in states:
        if classify_local(src.local_values(s, c), bit) is not want:
            continue
        partner = dst.state_of(src.coloring(s))
        if partner is None or partner not in valid:
            raise InternalCheckError(
                f"type {want.value} state {s} has no admissible partner "
                f"across crossing {c.id}"
            )
        yield s, partner


def matched_pairs(r0: Resolution, r1: Resolution, crossing: int, n: int):
    """The (type 3, type 1) state pairs across one cube edge.

    ``r0`` and ``r1`` must differ exactly at ``crossing`` (bits 0 and 1).
    Pairs agree on every arc outside the crossing disk and are matched
    bijectively; the bijection is re-derived from both sides and checked.
    """
    if len(r0.choice) != len(r1.choice):
        raise ValueError("resolutions of different diagrams")
    diffs = [i for i, (a, b) in enumerate(zip(r0.choice, r1.choice)) if a != b]
    if diffs != [crossing] or r0.choice[crossing] != 0 or r1.choice[crossing] != 1:
        raise ValueError(
            "resolutions must differ at exactly the given crossing, bits 0 vs 1"
        )
    c = r0.diagram.crossings[crossing]
    states0 = enumerate_admissible(r0, n)
    states1 = enumerate_admissible(r1, n)
    pairs = sorted(_partners(r0, r1, states0, c, 0, set(states1)))
    # re-derive from the thick side and insist on the same bijection
    back = sorted(
        (s0, s1) for s1, s0 in _partners(r1, r0, states1, c, 1, set(states0))
    )
    if pairs != back:
        raise InternalCheckError(
            f"matched pairs disagree between the two sides at crossing {crossing}"
        )
    return pairs


class ChainBasisElement(NamedTuple):
    """One basis element: a cube vertex, an admissible state there, its degree.

    A named tuple, so it is immutable, hashes and compares as the plain
    tuple (vertex, state, degree), and unpacks in a loop at C speed; its
    ``repr`` names the fields, as in a ``check_d_squared`` failure.
    """

    vertex: tuple[int, ...]
    state: tuple
    degree: int


@dataclass
class DeformedComplex:
    """Basis lists per degree plus the sparse integral differential.

    ``blocks`` holds the nonzero entries, as block id -> degree k ->
    {(target, source): value}, indexed like the whole bases of degrees k+1
    and k; no block holds an empty degree.  A value is the int 1 or -1 as
    ``build_complex`` stores it, and a ``CycloNumber`` after rescaling.
    ``build_complex`` files each block's entries crossing-major (free
    crossings outer, members inner), so the entries across the block's first
    free crossing come first; the matching in ``homology.matrix_rank``
    relies on that order.  ``block_of`` gives each basis element its
    arc-coloring block id, or None if no entry touches it.
    """

    diagram: LinkDiagram
    n: int
    field: CycloField
    resolutions: dict[tuple[int, ...], Resolution]
    degrees: tuple[int, ...]
    basis: dict[int, tuple[ChainBasisElement, ...]]
    blocks: dict[int, dict[int, dict[tuple[int, int], int | CycloNumber]]]
    block_of: dict[int, tuple]

    @property
    def differentials(self) -> dict[int, dict[tuple[int, int], int | CycloNumber]]:
        """The blocks merged per degree; built anew on each access, never stored."""
        out: dict[int, dict] = {}
        for per_degree in self.blocks.values():
            for k, entries in per_degree.items():
                out.setdefault(k, {}).update(entries)
        return out

    def dims(self) -> dict[int, int]:
        return {k: len(self.basis[k]) for k in self.degrees}

    def euler_characteristic(self) -> int:
        return sum((-1) ** (k % 2) * len(b) for k, b in self.basis.items())

    def check_d_squared(self):
        """First nonzero entry of d o d, or None if the complex is honest.

        d o d is composed one arc-coloring block at a time with the entries
        as stored: ints as ``build_complex`` leaves them, ``CycloNumber``s
        after rescaling, or a mix.  An entry whose source or target lies
        outside its block (or in none) raises InternalCheckError.  A failure
        names the square with the smallest (degree, target, source):
        (degree, source basis element, target basis element, value), the
        value a CycloNumber.
        """
        failures = {}
        for b, per_degree in self.blocks.items():
            for k, first in per_degree.items():
                sources, targets = self.block_of[k], self.block_of[k + 1]
                by_source: dict[int, list[tuple[int, int | CycloNumber]]] = {}
                for (t, s), v in per_degree.get(k + 1, {}).items():
                    by_source.setdefault(s, []).append((t, v))
                composite: dict[tuple[int, int], int | CycloNumber] = {}
                for (mid, src), v1 in first.items():
                    if sources[src] != b or targets[mid] != b:
                        raise InternalCheckError(
                            f"d_{k} entry of block {b} joins {self.basis[k][src]} "
                            f"and {self.basis[k + 1][mid]} across arc colorings"
                        )
                    for tgt, v2 in by_source.get(mid, ()):
                        cur = composite.get((tgt, src))
                        composite[tgt, src] = v2 * v1 if cur is None else cur + v2 * v1
                failures.update(((k, t, s), v) for (t, s), v in composite.items() if v)
        if not failures:
            return None
        k, tgt, src = min(failures)
        value = self.field.one * failures[k, tgt, src]
        return k, self.basis[k][src], self.basis[k + 2][tgt], value

    def matrices_json(self) -> dict:
        merged = self.differentials
        return {
            str(k): [[t, s, str(v)] for (t, s), v in sorted(merged.get(k, {}).items())]
            for k in self.degrees
        }


def build_complex(
    d: LinkDiagram, n: int, *, max_crossings: int = DEFAULT_MAX_CROSSINGS
) -> DeformedComplex:
    """Assemble the cube complex, one arc-coloring cube at a time.

    A crossing is free for a state with l1 = l3 != l2 at slots 1..3 (type 3
    at bit 0, type 1 at bit 1).  The states with free crossings form one cube
    per arc coloring, which becomes the next block: one entry per member and
    free crossing at which the member is the source, the int cube sign,
    filed crossing-major (see ``DeformedComplex``).  A cube with fewer than
    2^|free| members raises InternalCheckError.
    """
    k = len(d.crossings)
    if k > max_crossings:
        raise SizeBoundError(f"{k} crossings exceed the bound {max_crossings}")

    vertices = list(product((0, 1), repeat=k))
    resolutions = {v: resolve(d, v) for v in vertices}
    vdeg = {v: vertex_degree(d, v) for v in vertices}
    disk = [(c.out_over, c.out_under, c.in_under) for c in d.crossings]  # slots 1..3

    basis: dict[int, list[ChainBasisElement]] = {}
    # arc coloring -> (its free crossings, {vertex: index of its member})
    cubes: dict[tuple, tuple[list[int], dict]] = {}
    for v in vertices:  # lexicographic vertex order, then state order
        r, kv = resolutions[v], vdeg[v]
        column = basis.setdefault(kv, [])
        slots = [(r.slot[a], r.slot[b], r.slot[c]) for a, b, c in disk]
        for s in enumerate_admissible(r, n):
            free = [i for i, (a, b, c) in enumerate(slots) if s[a] == s[c] != s[b]]
            if free:
                members = cubes.setdefault(r.coloring(s), (free, {}))[1]
                if members.setdefault(v, len(column)) != len(column):
                    raise InternalCheckError(
                        f"two states at {v} carry the arc coloring of {s}"
                    )
            column.append(ChainBasisElement(v, s, kv))

    block_of = {k_: [None] * len(b) for k_, b in basis.items()}
    blocks: dict[int, dict[int, dict[tuple[int, int], int]]] = {}
    signs = (1, -1)  # by the parity of 1-bits before the crossing
    source_bit = [0 if c.sign > 0 else 1 for c in d.crossings]
    for b, (coloring, (free, members)) in enumerate(cubes.items()):
        per_degree = blocks[b] = {}
        for v, i in members.items():
            block_of[vdeg[v]][i] = b
        for ci in free:  # crossing-major: the first free crossing's entries first
            for v, i in members.items():
                if v[ci] != source_bit[ci]:
                    continue
                kv = vdeg[v]
                t = members.get(v[:ci] + (1 - v[ci],) + v[ci + 1:])
                if t is None:
                    raise InternalCheckError(
                        f"state {basis[kv][i].state} at {v} has no admissible "
                        f"partner across crossing {d.crossings[ci].id}"
                    )
                per_degree.setdefault(kv, {})[t, i] = signs[sum(v[:ci]) % 2]
        if len(members) != 1 << len(free):  # a lost all-source member misses no lookup
            raise InternalCheckError(
                f"the cube of arc coloring {coloring} has {len(members)} members, "
                f"not 2^{len(free)}"
            )

    return DeformedComplex(
        diagram=d,
        n=n,
        field=CycloField(n),
        resolutions=resolutions,
        degrees=tuple(sorted(basis)),
        basis={k_: tuple(b) for k_, b in basis.items()},
        blocks=blocks,
        block_of={k_: tuple(b) for k_, b in block_of.items()},
    )


def rescale_basis(cx: DeformedComplex, seed: int) -> DeformedComplex:
    """Conjugate the differential by a seeded diagonal of monomials zeta^e * p/q.

    Each basis element draws p = +-(1..5), q in 1..4 and e in 0..n-1, in that
    order, from ``random.Random(seed)``.
    """
    rng = random.Random(seed)
    scalars = {}
    for k in cx.degrees:
        col = []
        for _ in cx.basis[k]:
            p = rng.randint(1, 5) * rng.choice((1, -1))
            q = rng.randint(1, 4)
            col.append((rng.randrange(cx.n), p, q))
        scalars[k] = col
    return rescale_with(cx, scalars)


def rescale_with(cx: DeformedComplex, scalars: dict[int, list]) -> DeformedComplex:
    """Explicit diagonal change of basis; each block rescales into itself.

    ``scalars[k]`` holds one int triple (e, p, q), standing for the monomial
    zeta^e * p/q, per basis element of degree k; p = 0 or q = 0 raises
    ValueError.  Only the integral complex of ``build_complex`` is accepted:
    an entry v that is not an int raises ValueError.  The entry v from s to t
    becomes S[t] * v / S[s] = zeta^(e_t - e_s) * (v p_t q_s) / (q_t p_s),
    built by ``CycloField.monomial`` in integer arithmetic.
    """
    for k in cx.degrees:
        col = scalars.get(k, ())
        if len(col) != len(cx.basis[k]) or not all(p and q for _, p, q in col):
            raise ValueError("rescaling needs one nonzero scalar per basis element")
    monomial = cx.field.monomial

    def rescaled(k, entries):
        target, source = scalars[k + 1], scalars[k]
        out = {}
        for (t, s), v in entries.items():
            if type(v) is not int:
                raise ValueError(f"rescaling needs an integral complex, got entry {v!r}")
            et, pt, qt = target[t]
            es, ps, qs = source[s]
            out[t, s] = monomial(et - es, v * pt * qs, qt * ps)
        return out

    return replace(cx, blocks={
        b: {k: rescaled(k, entries) for k, entries in per_degree.items()}
        for b, per_degree in cx.blocks.items()
    })
