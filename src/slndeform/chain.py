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

The differential keeps every arc's label, so the complex is a direct sum
of blocks, one per arc coloring: the cube over the crossings free for it.
Its entries depend only on the cube (the forced-one and free crossings),
so ``DeformedComplex.blocks`` stores each cube's local matrices once, and
a block adds only its members, an ``array`` of global indices per degree.
``build_complex`` takes the cubes from one walk over the arc colorings
(``_arc_colorings``), which also counts the chain dimension, so
``max_chain_dim`` stops a run before any vertex is resolved.  Labelling
the Seifert circles with two labels gives a coloring free at every
crossing, so the chain dimension is at least 2^k * n^loops for k
crossings: that bound refuses a diagram before the walk starts, and is
the only gate on the crossing count.

The basis keeps no state and no record per element.  Each vertex is
resolved only for the reader of its states off a coloring's labels; it
keeps the indices of the colorings whose cube holds it, sorted once by
the states they give, as an ``array``, and drops the states.
``basis[k]`` is a ``BasisColumn`` of those runs and the loop labellings
that prefix them, which reads a state, and builds a ``ChainBasisElement``,
only when one is read.  The resolution-based ``enumerate_admissible``
stays the oracle for that walk (``DeformedComplex.check_states``), and
``matched_pairs`` the classifying reference for the entries.  d o d is
composed once per distinct block matrix, and ``homology.compute_homology``
ranks once per distinct block matrix and block sizes; every block is
still checked on its own: its bounds, its members owned by no other
block, and its squares mapped to global indices.  Rescaling gives every
block its own matrices, so a rescaled complex is composed and ranked
block by block.
"""

from __future__ import annotations

import enum
import random
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import islice, product, repeat, starmap
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
    "BasisColumn",
    "Block",
    "DeformedComplex",
    "build_complex",
    "rescale_basis",
    "DEFAULT_MAX_CHAIN_DIM",
]

# admits T(2,11) at n = 4: 1,062,892 elements; ``slndeform homology`` on it
# takes about 2.5 s at 111 MB peak RSS (Python 3.11)
DEFAULT_MAX_CHAIN_DIM = 1_100_000


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


_LABELS = itemgetter(0)  # a coloring triple's labels


def _read_states(colorings, read, held) -> list:
    """The arc states ``read`` takes off the labels of ``colorings[c]``, c in ``held``."""
    return list(map(read, map(_LABELS, map(colorings.__getitem__, held))))


class BasisColumn(Sequence):
    """The basis of one degree, kept as its vertices' runs of coloring indices.

    ``colorings`` is the complex's list of (labels, free, ones) triples.
    ``runs`` holds (vertex, read, held, start) for each vertex of the degree
    with a state, in lexicographic vertex order: the vertex's ``reader`` of
    its arc state, without the free loops' labels, off a coloring's labels;
    the indices in ``colorings`` of the colorings whose cube holds the
    vertex, as an ``array`` sorted by the states they give; and the index of
    its first element.  ``loops`` holds the loop labellings in order.  A run
    spans len(loops) * len(held) elements, loop labelling outer and state
    inner, so element ``start + a * len(held) + b`` is
    ``ChainBasisElement(vertex, loops[a] + read(labels of colorings[held[b]]),
    degree)``: the order of the sorted (vertex, state) pairs.  No state is
    kept: states and records are built only on read, one per ``column[i]``
    and in bulk, a run at a time, by iteration; a slice gives a tuple of
    records, and ``index``, ``count`` and ``in`` compare them as a tuple's
    items.  Code that needs only the size reads ``len``.
    """

    __slots__ = ("degree", "loops", "colorings", "runs", "_len")

    def __init__(self, degree: int, loops: tuple[tuple[int, ...], ...], colorings, runs):
        self.degree, self.loops, self.colorings, self.runs = degree, loops, colorings, tuple(runs)
        self._len = len(loops) * sum(len(held) for _, _, held, _ in self.runs)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(self._len)[i]))
        j = i + self._len if i < 0 else i
        if not 0 <= j < self._len:
            raise IndexError("basis column index out of range")
        vertex, read, held, start = self.runs[bisect_right(self.runs, j, key=itemgetter(3)) - 1]
        a, b = divmod(j - start, len(held))
        return ChainBasisElement(
            vertex, self.loops[a] + read(self.colorings[held[b]][0]), self.degree
        )

    def __iter__(self):
        for vertex, read, held, _ in self.runs:
            states = _read_states(self.colorings, read, held)
            yield from records(
                ChainBasisElement,
                repeat(vertex), starmap(add, product(self.loops, states)), repeat(self.degree),
            )


class Block(NamedTuple):
    """An arc-coloring block: its members per degree and its local matrices.

    ``members[k]`` holds the global basis indices of the block's degree-k
    members, in ascending order, as an ``array``.  ``d[k]`` is
    {(row, column): value}, the row a position in ``members[k + 1]`` and
    the column one in ``members[k]``.
    """

    members: dict[int, Sequence[int]]
    d: dict[int, dict[tuple[int, int], int | CycloNumber]]

    def sizes(self) -> tuple[tuple[int, int, int], ...]:
        """(k, rows, columns) for each d[k]: the members in degrees k + 1 and k."""
        members = self.members
        return tuple([(k, len(members.get(k + 1, ())), len(members.get(k, ()))) for k in self.d])


def _squares(d):
    """The nonzero squares of ``d`` in local positions: (k, target, source, value)
    for each nonzero entry of d[k + 1] o d[k]."""
    squares = []
    for k, first in d.items():
        by_source: dict[int, list[tuple[int, int | CycloNumber]]] = {}
        for (t, s), v in d.get(k + 1, {}).items():
            by_source.setdefault(s, []).append((t, v))
        composite: dict[tuple[int, int], int | CycloNumber] = {}
        for (mid, src), v1 in first.items():
            for tgt, v2 in by_source.get(mid, ()):
                cur = composite.get((tgt, src))
                composite[tgt, src] = v2 * v1 if cur is None else cur + v2 * v1
        squares.extend((k, t, s, v) for (t, s), v in composite.items() if v)
    return squares


@dataclass
class DeformedComplex:
    """The basis per degree plus the differential in direct-sum form.

    ``basis[k]`` is a ``BasisColumn``: each degree-k vertex's colorings, as
    indices in ``colorings`` sorted by the states they give, with states
    and ``ChainBasisElement`` records read on demand; its positions are
    the global basis indices the blocks' ``members`` hold.
    ``blocks`` holds a ``Block`` per arc coloring with a free crossing and
    labelling of the free loops, in walk order; no block holds an empty
    degree.  A value is the int 1 or -1 from ``build_complex``, and a
    ``Monomial`` after rescaling.  Blocks of one cube share their ``d``:
    never edit a ``d`` in place, replace the block.  Each ``d[k]`` is filed
    crossing-major (free crossings outer, members inner), an order the
    matching in ``homology.matrix_rank`` relies on.  ``colorings`` keeps
    the walk's (labels, free, ones) triples in walk order (see
    ``_arc_colorings``), off which the basis reads every state; a coloring
    with no free crossing is a cube of one member, which no block holds.
    """

    diagram: LinkDiagram
    n: int
    field: CycloField
    colorings: list[tuple[tuple[int, ...], int, int]]
    degrees: tuple[int, ...]
    basis: dict[int, BasisColumn]
    blocks: tuple[Block, ...]

    @property
    def differentials(self) -> dict[int, dict[tuple[int, int], int | CycloNumber]]:
        """The blocks merged per degree, keyed (target, source) globally; never stored."""
        out: dict[int, dict] = {}
        for members, d in self.blocks:
            for k, entries in d.items():
                merged, rows, cols = out.setdefault(k, {}), members[k + 1], members[k]
                merged.update(((rows[t], cols[s]), v) for (t, s), v in entries.items())
        return out

    def dims(self) -> dict[int, int]:
        return {k: len(self.basis[k]) for k in self.degrees}

    def euler_characteristic(self) -> int:
        return sum((-1) ** (k % 2) * len(b) for k, b in self.basis.items())

    def check_d_squared(self):
        """First nonzero entry of d o d, or None if the complex is honest.

        d o d is composed in local positions once per distinct ``d`` object
        (``_squares``), however many blocks share it, with the entries as
        stored, through their own operators: ints, ``Monomial``s after
        rescaling, other ``CycloNumber``s, or a mix.  Every block is still
        checked on its own, in order: a basis element in two blocks, or an
        entry of its ``d`` outside its members, raises InternalCheckError
        (the entries are scanned once per ``d`` and block sizes, since a
        block of the sizes already scanned holds them all), and its members
        map the shared squares to global ones.  A failure names the square
        with the smallest global (degree, target, source): (degree, source
        basis element, target basis element, value), the value a
        CycloNumber.
        """
        owner = {k: [None] * len(column) for k, column in self.basis.items()}
        # the blocks hold every d for the call, so an id names one d; a d's
        # squares, and the block sizes its entries were found to fit, are
        # kept only until its last block is checked
        last = {id(d): b for b, (_, d) in enumerate(self.blocks)}
        composed = {}  # id(d) -> (sizes, squares)
        smallest = None  # ((degree, global target, global source), value)
        for b, block in enumerate(self.blocks):
            members, d = block
            for k, column in members.items():
                of_k = owner[k]
                for i in column:
                    if of_k[i] is not None:
                        el = self.basis[k][i]
                        raise InternalCheckError(f"{el} lies in blocks {of_k[i]} and {b}")
                    of_k[i] = b
            sizes = block.sizes()
            held = composed.pop(id(d), None)
            if held is None or held[0] != sizes:
                for k, rows, cols in sizes:
                    for r, c in d[k]:
                        if not (0 <= r < rows and 0 <= c < cols):
                            raise InternalCheckError(f"d_{k} entry {r, c} lies outside block {b}")
            if held is None:
                held = sizes, _squares(d)
            if b < last[id(d)]:
                composed[id(d)] = held
            # every entry is in bounds, so the local keys map to global ones
            for k, t, s, v in held[1]:
                key = k, members[k + 2][t], members[k][s]
                if smallest is None or key < smallest[0]:
                    smallest = key, v
        if smallest is None:
            return None
        (k, tgt, src), value = smallest
        return k, self.basis[k][src], self.basis[k + 2][tgt], self.field.one * value

    def check_states(self):
        """The first vertex whose states are not ``enumerate_admissible``'s, or None.

        The resolution-based enumeration is the oracle for the arc-coloring
        walk that ``build_complex`` assembles from: at every vertex the
        complex's states, in basis order, must be exactly its states.  They
        are read off the columns' runs, a run at a time, through the run's
        reader from the colorings, each state prefixed by every loop
        labelling, with no ``ChainBasisElement`` built.
        """
        runs = {
            v: (column, read, held)
            for column in self.basis.values()
            for v, read, held, _ in column.runs
        }
        d = self.diagram
        for v in product((0, 1), repeat=len(d.crossings)):
            found = ()
            if v in runs:
                column, read, held = runs[v]
                states = _read_states(column.colorings, read, held)
                found = tuple(starmap(add, product(column.loops, states)))
            if found != enumerate_admissible(resolve(d, v), self.n):
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


def _cube(ones: int, free: int, vdeg: list[int], crossings: list[Crossing]):
    """A cube's member vertex masks, its members by degree, its local matrices.

    Member j sits at ``ones | s`` for the j-th subset s of ``free`` in
    ascending order.  ``groups`` maps each degree to its (j, vertex mask)
    pairs.  ``local[k]`` holds, crossing-major, an entry per free crossing
    and member that is its source, keyed by positions in ``groups[k + 1]``
    and ``groups[k]``: the cube sign, by the parity of the source's 1-bits
    before the crossing.
    """
    at = [ones]
    while nxt := (at[-1] - ones - free) & free:  # the next subset up; 0 once past free
        at.append(ones | nxt)
    groups: dict[int, list[tuple[int, int]]] = {}
    pos = {}  # vertex mask -> its position among the cube's members of its degree
    for j, m in enumerate(at):
        group = groups.setdefault(vdeg[m], [])
        pos[m] = len(group)
        group.append((j, m))
    k = len(crossings)
    local: dict[int, dict[tuple[int, int], int]] = {}
    for i, c in enumerate(crossings):  # crossing-major
        bit = 1 << (k - 1 - i)
        if free & bit:
            source = bit if c.sign < 0 else 0
            for m in at:
                if m & bit == source:
                    sign = -1 if (m >> (k - i)).bit_count() & 1 else 1
                    local.setdefault(vdeg[m], {})[pos[m ^ bit], pos[m]] = sign
    return at, groups, local


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
    from ``_arc_colorings``.  Each vertex records the colorings whose cube
    holds it, then reads their states through its ``Resolution.reads``,
    sorts the coloring indices by them once and drops them, so the states
    of one vertex at a time are held; one state arriving twice (a coloring
    listed twice) raises InternalCheckError.  A coloring with free crossings
    gives a block for each labelling of the free loops, in walk order, which
    shares its cube's local matrices (``_cube``, built once per cube).
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

    # the colorings whose cube holds each vertex, in walk order (a list
    # holds a pointer per member to one int per coloring)
    cubes: dict[tuple[int, int], tuple] = {}  # (ones, free) -> _cube's answer
    held = [[] for _ in vertices]
    for c, (labels, free, ones) in enumerate(colorings):
        cube = cubes.get((ones, free))
        if cube is None:
            cube = cubes[ones, free] = _cube(ones, free, vdeg, d.crossings)
        for m in cube[0]:
            held[m].append(c)

    # each vertex reads its states, sorts its colorings by them and drops
    # them; ``held[m]`` then turns into its colorings' places in its column,
    # in walk order, in the first loop run, kept as an array since every
    # place is its own int
    loops = tuple(product(range(n), repeat=d.free_loops))
    runs: dict[int, list] = {}  # degree -> its vertices' (vertex, read, held, start)
    dim: dict[int, int] = {}  # degree -> its elements so far
    size = [0] * len(vertices)  # vertex -> its arc states, one run per loop labelling
    for m, v in enumerate(vertices):  # lexicographic vertex order, then state order
        kv, mine = vdeg[m], held[m]
        found = _read_states(colorings, read[m], mine)
        order = sorted(range(len(found)), key=found.__getitem__)
        ordered = [found[i] for i in order]
        if any(map(eq, ordered, islice(ordered, 1, None))):
            twice = next(a for a, b in zip(ordered, ordered[1:]) if a == b)
            raise InternalCheckError(
                f"vertex {v} receives state {twice} twice: an arc coloring was listed twice"
            )
        del found, ordered  # one vertex's states at a time
        start = dim.setdefault(kv, 0)
        size[m] = len(order)
        if order:
            sorted_held = array("q", map(mine.__getitem__, order))
            runs.setdefault(kv, []).append((v, read[m], sorted_held, start))
            dim[kv] = start + len(loops) * len(order)
        held[m] = place = array("q", order)
        for p, i in enumerate(order, start):
            place[i] = p

    # a block per coloring with a free crossing and loop labelling; each
    # vertex's places are taken in the walk order they were recorded in
    blocks = []
    places = [iter(place) for place in held]  # vertex -> its places, in walk order
    for _, free, ones in colorings:
        at, groups, local = cubes[ones, free]
        got = [next(places[m]) for m in at]
        if free:
            for run in range(len(loops)):
                blocks.append(Block({
                    kv: array("q", [got[j] + run * size[m] for j, m in group])
                    for kv, group in groups.items()
                }, local))

    return DeformedComplex(
        diagram=d,
        n=n,
        field=CycloField(n),
        colorings=colorings,
        degrees=tuple(sorted(dim)),
        basis={kv: BasisColumn(kv, loops, colorings, runs.get(kv, ())) for kv in dim},
        blocks=tuple(blocks),
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
        for _ in range(len(cx.basis[k])):
            p = rng.randint(1, 5) * rng.choice((1, -1))
            q = rng.randint(1, 4)
            col.append((rng.randrange(cx.n), p, q))
        scalars[k] = col
    return rescale_with(cx, scalars)


def rescale_with(cx: DeformedComplex, scalars: dict[int, list]) -> DeformedComplex:
    """Explicit diagonal change of basis; each block rescales into itself.

    Every block gets a new ``d``; the shared ones of ``cx`` stay untouched.

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

    def rescaled(block):
        members, d = block
        out = {}
        for k, entries in d.items():
            target, source = ([scalars[j][i] for i in members[j]] for j in (k + 1, k))
            out[k] = rescaled_k = {}
            for (t, s), v in entries.items():
                if type(v) is not int:
                    raise ValueError(f"rescaling needs an integral complex, got entry {v!r}")
                et, pt, qt = target[t]
                es, ps, qs = source[s]
                rescaled_k[t, s] = monomial(et - es, v * pt * qs, qt * ps)
        return Block(members, out)

    return replace(cx, blocks=tuple(map(rescaled, cx.blocks)))
