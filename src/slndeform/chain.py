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
rescaled entry is again a monomial, a ``cyclotomic.Monomial`` kept as the
ints (e, p, q), whose power-basis ``num``/``den`` are built on first read.
The deformation scale beta could change only these nonzero scalars, so the
complex does not take it; the lemma and the projectors read it.
``check_d_squared`` verifies d o d = 0 exactly with the entries as stored,
ints or field elements alike; on a rescaled complex every product and every
cancelling sum of a square is again a monomial, computed in ints.

The differential keeps every arc's label, so the complex splits into one
block per arc coloring, stored as ``DeformedComplex.blocks``: the cube over
the crossings free for that coloring.  ``build_complex`` takes the cubes
from one walk over the arc colorings of the diagram (``_arc_colorings``),
which also counts the chain dimension, so ``max_chain_dim`` stops a run
before any vertex is resolved; no per-vertex state search is involved.
Labelling the Seifert circles with two labels gives a coloring free at
every crossing, so the chain dimension is at least 2^k * n^loops for k
crossings: that bound refuses a diagram before the walk starts, and is
the only gate on the crossing count.
The complex keeps the walk's colorings; each vertex is resolved only to
read its states off them.  The resolution-based ``enumerate_admissible``
stays the oracle for that walk (``DeformedComplex.check_states``, which
resolves every vertex anew), and ``matched_pairs`` the classifying
reference for the entries.  d o d, the ranks and rescaling run block by
block.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, replace
from itertools import groupby, islice, product, repeat, starmap
from operator import add, eq, itemgetter
from typing import NamedTuple

from .cyclotomic import CycloField, CycloNumber
from .diagram import Crossing, LinkDiagram
from .errors import InternalCheckError, SizeBoundError
from .resolution import Resolution, degree as vertex_degree, reader, records, resolve
from .states import enumerate_admissible

__all__ = [
    "LocalType",
    "classify_local",
    "matched_pairs",
    "ChainBasisElement",
    "DeformedComplex",
    "build_complex",
    "rescale_basis",
    "DEFAULT_MAX_CHAIN_DIM",
]

DEFAULT_MAX_CHAIN_DIM = 500_000  # admits T(2,9) at n = 4: 118,108 elements


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
    ``build_complex`` stores it, and a ``Monomial`` (a ``CycloNumber`` whose
    ``num``/``den`` are built on first read) after rescaling.
    ``build_complex`` files each block's entries crossing-major (free
    crossings outer, members inner), so the entries across the block's first
    free crossing come first; the matching in ``homology.matrix_rank``
    relies on that order.  ``block_of`` gives each basis element its
    arc-coloring block id, or None if no entry touches it.  ``colorings``
    keeps the walk's (labels, free, ones) triples in walk order, ``labels``
    aligned with ``diagram.arcs`` (see ``_arc_colorings``); a coloring with
    no free crossing is a cube of one member, which no block holds.
    """

    diagram: LinkDiagram
    n: int
    field: CycloField
    colorings: list[tuple[tuple[int, ...], int, int]]
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
        as stored, through their own operators: ints as ``build_complex``
        leaves them, ``Monomial``s after rescaling, other ``CycloNumber``s,
        or a mix.  An entry whose source or target lies outside its block
        (or in none) raises InternalCheckError.  A failure names the square
        with the smallest (degree, target, source):
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

    def check_states(self):
        """The first vertex whose states are not ``enumerate_admissible``'s, or None.

        The resolution-based enumeration is the oracle for the arc-coloring
        walk that ``build_complex`` assembles from: at every vertex the
        complex's states, in basis order, must be exactly its states.
        """
        found: dict[tuple, list] = {}
        for k in self.degrees:
            for el in self.basis[k]:
                found.setdefault(el.vertex, []).append(el.state)
        d = self.diagram
        for v in product((0, 1), repeat=len(d.crossings)):
            if tuple(found.get(v, ())) != enumerate_admissible(resolve(d, v), self.n):
                return v
        return None

    def matrices_json(self) -> dict:
        merged = self.differentials
        return {
            str(k): [[t, s, str(v)] for (t, s), v in sorted(merged.get(k, {}).items())]
            for k in self.degrees
        }


def _arc_colorings(d: LinkDiagram, n: int, max_chain_dim: int) -> list[tuple]:
    """Every arc coloring some cube vertex admits, as (labels, free, ones).

    At each crossing a coloring shows one of three pieces at slots 1..4: all
    four labels equal (bit 0 forced), l1 = l3 != l2 = l4 (free: either bit)
    or l1 = l4 != l2 = l3 (bit 1 forced); other labels admit no vertex.
    ``labels`` gives each arc of ``d.arcs`` its label, and ``free`` and
    ``ones`` are crossing masks with crossing i at bit k-1-i, so that masks
    order as vertex tuples do: the coloring's cube is the vertices ``ones``
    | s for the subsets s of ``free``.  The walk visits next the crossing
    that shares the most arcs already labelled, and reads the labels of its
    other arcs off the piece it tries.  Free loops stay out of the walk:
    each coloring stands for n^loops of them.  The chain dimension, the sum
    of 2^|free| * n^loops, is counted as the colorings come out, and passing
    ``max_chain_dim`` raises SizeBoundError.
    """
    k = len(d.crossings)
    where = {a: p for p, a in enumerate(d.arcs)}
    slots = [
        (where[c.out_over], where[c.out_under], where[c.in_under], where[c.in_over])
        for c in d.crossings
    ]
    # per step, the pieces of its crossing: (first group, second group or
    # None, free bit, one bit), a group of equal labels given as (its arcs
    # labelled at earlier steps, its arcs labelled here)
    plan, seen, left = [], set(), list(range(k))
    while left:
        i = max(left, key=lambda j: len(seen.intersection(slots[j])))
        left.remove(i)
        p1, p2, p3, p4 = slots[i]
        bit = 1 << (k - 1 - i)
        pieces = []
        for groups, free, one in (
            (((p1, p2, p3, p4),), 0, 0),
            (((p1, p3), (p2, p4)), bit, 0),
            (((p1, p4), (p2, p3)), 0, bit),
        ):
            split = [
                (tuple(p for p in g if p in seen),
                 tuple(dict.fromkeys(p for p in g if p not in seen)))
                for g in groups
            ]
            new = [p for _, fresh in split for p in fresh]
            if len(new) == len(set(new)):  # else one arc would need two labels
                pieces.append((split[0], split[1] if len(split) > 1 else None, free, one))
        plan.append(pieces)
        seen.update(slots[i])

    labels = [0] * len(d.arcs)
    every = range(n)
    per_coloring = n ** d.free_loops
    out = []
    total = 0

    def options(known):
        if not known:
            return every
        x = labels[known[0]]
        for p in known:
            if labels[p] != x:
                return ()
        return (x,)

    def moves(step, free, ones):
        """Label the arcs new at ``step``, piece by piece; yield the masks so far."""
        if step == k:  # no crossing at all: the one empty coloring
            yield free, ones
            return
        for (known, fresh), second, f, o in plan[step]:
            for x in options(known):
                for p in fresh:
                    labels[p] = x
                if second is None:
                    yield free | f, ones | o
                    continue
                known2, fresh2 = second
                for y in options(known2):
                    if y != x:
                        for p in fresh2:
                            labels[p] = y
                        yield free | f, ones | o

    # depth first, one suspended ``moves`` per step entered; a step labels
    # only its own new arcs, so each resumes on the labels it left
    stack = [moves(0, 0, 0)]
    while stack:
        for free, ones in stack[-1]:
            if len(stack) < k:
                stack.append(moves(len(stack), free, ones))
                break
            total += per_coloring << free.bit_count()
            if total > max_chain_dim:
                raise SizeBoundError(f"chain dimension exceeds the bound {max_chain_dim}")
            out.append((tuple(labels), free, ones))
        else:
            stack.pop()
    return out


def _cube_layout(free: int, k: int) -> tuple[list[int], list[tuple[int, int]]]:
    """The subsets of crossing mask ``free`` in ascending order, and its edges.

    Member j of a cube sits at vertex ``ones | subsets[j]``, so members
    ascend with their vertices.  Each free crossing, in crossing order,
    gives (the bit of j that flips it, the crossing).
    """
    subsets = [0]
    while nxt := (subsets[-1] - free) & free:  # the next subset up; 0 once past free
        subsets.append(nxt)
    crossings = [i for i in range(k) if free >> (k - 1 - i) & 1]
    f = len(crossings)
    return subsets, [(1 << (f - 1 - t), i) for t, i in enumerate(crossings)]


def build_complex(
    d: LinkDiagram,
    n: int,
    *,
    max_chain_dim: int = DEFAULT_MAX_CHAIN_DIM,
) -> DeformedComplex:
    """Assemble the cube complex from the arc colorings, one cube each.

    n < 2 raises ValueError.  A chain dimension past ``max_chain_dim``
    raises SizeBoundError before any vertex is resolved: at once when the
    lower bound 2^k * n^loops passes it (see the module docstring), else
    from ``_arc_colorings``, which lists each coloring with its free and
    forced-one crossings.
    Each member of a coloring's cube reads its state off the coloring
    through its vertex's ``Resolution.reads``; each vertex sorts its states
    once, and one state arriving twice (a coloring listed twice) raises
    InternalCheckError.  A cube with free crossings becomes a block for
    each labelling of the free loops, numbered by its first member in
    (vertex, state) order: one entry per member and free crossing at which
    the member is the source, the int cube sign, filed crossing-major (see
    ``DeformedComplex``).  Partners and signs come from bit masks.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    k = len(d.crossings)
    if n ** d.free_loops << k > max_chain_dim:  # also spares the k-deep walk
        raise SizeBoundError(
            f"chain dimension exceeds the bound {max_chain_dim}: {k} crossings and "
            f"{d.free_loops} free loops give at least 2^{k} * {n}^{d.free_loops}"
        )
    colorings = _arc_colorings(d, n, max_chain_dim)

    vertices = list(product((0, 1), repeat=k))  # vertex mask m is vertices[m]
    vdeg = [vertex_degree(d, v) for v in vertices]
    read = [reader(resolve(d, v).reads[d.free_loops:]) for v in vertices]  # loops lead

    # each member's arc state at its vertex, beside its member number
    # (colorings in order, each cube's members in subset order)
    layouts: dict[int, tuple] = {}
    states: list[list] = [[] for _ in vertices]
    members: list[list[int]] = [[] for _ in vertices]
    count = 0
    for labels, free, ones in colorings:
        layout = layouts.get(free)
        if layout is None:
            layout = layouts[free] = _cube_layout(free, k)
        for s in layout[0]:
            m = ones | s
            states[m].append(read[m](labels))
            members[m].append(count)
            count += 1

    basis: dict[int, list[ChainBasisElement]] = {}
    loops = list(product(range(n), repeat=d.free_loops))
    place = [0] * count  # member -> place among its vertex's states
    start = [0] * len(vertices)  # vertex -> index of its first element in its column
    size = [0] * len(vertices)  # vertex -> its arc states, one run per loop labelling
    for m, v in enumerate(vertices):  # lexicographic vertex order, then state order
        kv, found, numbers = vdeg[m], states[m], members[m]
        order = sorted(range(len(found)), key=found.__getitem__)
        ordered = [found[i] for i in order]
        if any(map(eq, ordered, islice(ordered, 1, None))):
            twice = next(a for a, b in zip(ordered, ordered[1:]) if a == b)
            raise InternalCheckError(
                f"vertex {v} receives state {twice} twice: an arc coloring was listed twice"
            )
        for p, i in enumerate(order):
            place[numbers[i]] = p
        column = basis.setdefault(kv, [])
        start[m], size[m] = len(column), len(ordered)
        column.extend(records(  # one run of the vertex's states per loop labelling
            ChainBasisElement, repeat(v), starmap(add, product(loops, ordered)), repeat(kv)
        ))
        states[m] = members[m] = None

    # cubes with free crossings by their first member: vertex, loop labels, state
    cubes = []
    first = 0
    for _, free, ones in colorings:
        if free:
            cubes.append((ones, place[first], first, free))
        first += 1 << free.bit_count()
    del states, members
    cubes.sort()

    block_of = {k_: [None] * len(b) for k_, b in basis.items()}
    blocks: dict[int, dict[int, dict[tuple[int, int], int]]] = {}
    signs = (1, -1)  # by the parity of 1-bits before the crossing
    negative = [0 if c.sign > 0 else 1 for c in d.crossings]
    for _, group in groupby(cubes, key=itemgetter(0)):
        group = list(group)
        for run in range(len(loops)):
            for ones, _, first, free in group:
                subsets, edges = layouts[free]
                at = [ones | s for s in subsets]
                index = [
                    start[m] + run * size[m] + place[first + j] for j, m in enumerate(at)
                ]
                b = len(blocks)
                per_degree = blocks[b] = {}
                for m, i in zip(at, index):
                    block_of[vdeg[m]][i] = b
                for jb, ci in edges:  # crossing-major
                    source, shift = (jb if negative[ci] else 0), k - ci
                    for j, m in enumerate(at):
                        if j & jb == source:
                            per_degree.setdefault(vdeg[m], {})[index[j ^ jb], index[j]] = (
                                signs[(m >> shift).bit_count() & 1]
                            )

    return DeformedComplex(
        diagram=d,
        n=n,
        field=CycloField(n),
        colorings=colorings,
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
    becomes S[t] * v / S[s] = zeta^(e_t - e_s) * (v p_t q_s) / (q_t p_s), a
    ``Monomial`` from ``CycloField.monomial``: reduced ints, whose
    ``num``/``den`` are built only when general field code first reads them.
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
