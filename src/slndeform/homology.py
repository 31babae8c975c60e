"""Homology of the deformed complex, three ways, and their reconciliation.

* ``compute_homology``: exact kernel/image ranks of the differentials, whose
  entries are the ints +-1 or, after rescaling, elements of Q(zeta_n).
  The complex stores its differential as arc-coloring blocks
  (``DeformedComplex.blocks``).  Each block is a cube of isomorphisms over
  its free crossings, hence acyclic, and its entries are filed
  crossing-major, so a greedy matching in entry order pairs the cube along
  its first free crossing: a triangular (Morse) matching, as in
  Bar-Natan's cancellation.  ``matrix_rank`` takes the number of pairs as
  the rank when it meets a proven ceiling, and otherwise falls back to
  exact sparse Gaussian elimination with sparsest-row pivoting.  The
  ceiling rests on d o d = 0, which ``check_d_squared`` checks (run by
  ``cross_validate`` and by ``slndeform verify``).  The generators are the
  one-element blocks: the basis elements that no nonzero entry of any
  differential touches, marked None in ``block_of``.  Those are exactly
  the arc colorings with no free crossing (``DeformedComplex.colorings``),
  and each is read straight off its coloring: its vertex is the mask of
  its forced 1-bits, whose signed count is the degree, and its coloring of
  the components is the label at each component's first arc, checked to
  be constant along every component.
* ``closed_form``: the combinatorial answer -- one generator per coloring
  of the components by roots of unity, in degree given by the linking
  numbers of the preimage sublinks, n^l generators in total.
* ``survivors_combinatorial``: for each coloring, resolve every crossing by
  0 when its two strands carry equal colors and by 1 otherwise, and read
  the degree off that single resolution; no linear algebra at all.  Each
  crossing's pair of strand components and each arc's component are looked
  up once per diagram, and each distinct resolution and its degree once
  per choice; the per-coloring loop indexes the coloring through them and
  still checks each induced state.

Free loops are a product factor in all three.  A loop links nothing and
meets no crossing, so only the colorings of the drawn components are
computed (and, for the survivors, checked) one by one;
``_with_loops`` extends each by every labelling of the loops, which come
last in psi, into its degree's column, and every column comes out sorted.
The survivors check that no resolution reads a loop at a tie or a crossing
(``_loops_apart``), which is what lets one check stand for every labelling
of the loops.

``cross_validate`` runs all three and insists on identical degree->dimension
tables and generator columns plus Euler-characteristic agreement with the
chain level.  Each of the three keeps its n^l generators as plain columns,
``HomologyResult.psis``: degree -> the sorted tuple of its colorings, each
a plain tuple of root labels, which the cyclic collector stops walking
once it has seen them.  The named records, ``GeneratorDescriptor``
(degree, psi), are built from the columns in bulk by
``resolution.records`` the first time ``HomologyResult.generators`` is
read; the check itself reads none.  None of the three reads the
deformation scale beta (see ``chain``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import groupby, product, repeat
from operator import add, itemgetter
from typing import NamedTuple

from .chain import (
    DEFAULT_MAX_CHAIN_DIM,
    DeformedComplex,
    LocalType,
    build_complex,
    classify_local,
)
from .diagram import LinkDiagram, linking_matrix
from .errors import InternalCheckError
from .resolution import Resolution, degree as vertex_degree, records, resolve

__all__ = [
    "GeneratorDescriptor",
    "HomologyResult",
    "CrossValidation",
    "matrix_rank",
    "closed_form",
    "compute_homology",
    "survivors_combinatorial",
    "cross_validate",
]


# ----------------------------------------------------------------------
# Exact rank of a sparse matrix over Q or Q(zeta_n)
# ----------------------------------------------------------------------

def matrix_rank(entries: dict, nrows: int, *, ceiling: int | None = None) -> int:
    """Rank of the matrix {(row, column): value} with rows 0..nrows-1.

    A value is any exact scalar: an int, a Fraction or a ``CycloNumber``.
    Without ``ceiling`` the rank comes from exact elimination.  A caller
    that has proven the rank is at most ``ceiling`` lets the rank be read
    off a triangular matching instead (``_triangular_pairs``): when it has
    ``ceiling`` pairs, the rank is at least and at most ``ceiling``, with no
    field arithmetic.  Any other matching falls back to elimination.
    """
    if ceiling is not None and _triangular_pairs(entries) == ceiling:
        return ceiling
    return _eliminate(entries, nrows)


def _triangular_pairs(entries: dict) -> int | None:
    """Pairs of the greedy matching, or None when it is not triangular.

    Columns and rows are paired along nonzero entries, greedily in the
    dict's insertion order.  Column c precedes matched column c' when c has
    a nonzero entry in the row paired with c'; if a Kahn pass orders every
    matched column, the matched submatrix is triangular with a nonzero
    diagonal, so the rank is at least the number of pairs.
    """
    nonzero = [key for key, v in entries.items() if v]
    row_of: dict = {}  # matched column -> its row
    column_of: dict = {}  # matched row -> its column
    for r, c in nonzero:
        if c not in row_of and r not in column_of:
            row_of[c] = r
            column_of[r] = c
    after: dict = {c: [] for c in row_of}
    indegree = dict.fromkeys(row_of, 0)
    for r, c in nonzero:
        later = column_of.get(r)
        if later is not None and later != c and c in row_of:
            after[c].append(later)
            indegree[later] += 1
    ready = [c for c, deg in indegree.items() if not deg]
    ordered = 0
    while ready:
        ordered += 1
        for c in after[ready.pop()]:
            indegree[c] -= 1
            if not indegree[c]:
                ready.append(c)
    return ordered if ordered == len(row_of) else None


def _eliminate(entries: dict, nrows: int) -> int:
    """Rank by exact elimination; pivots favor the sparsest remaining row.

    Entries may be ints, Fractions or ``CycloNumber``s: each pivot is
    inverted as ``Fraction(1) / pivot``, which stays exact for all three
    (for a ``CycloNumber`` it calls its ``inv``), and zero is read by
    truthiness.  A rescaled block holds ``Monomial``s, whose entry of row r
    and column c is always zeta^(a_r - b_c) times a rational, so each
    factor, product and fill-in stays a monomial computed in ints.
    """
    rows: list[dict] = [dict() for _ in range(nrows)]
    for (r, c), v in entries.items():
        if v:
            rows[r][c] = v
    active = {i for i in range(nrows) if rows[i]}
    rank = 0
    while active:
        pick = min(active, key=lambda i: (len(rows[i]), i))
        row = rows[pick]
        pivot_col = min(row)
        inv = Fraction(1) / row[pivot_col]
        rank += 1
        active.discard(pick)
        for i in sorted(active):
            other = rows[i]
            coeff = other.get(pivot_col)
            if coeff is None:
                continue
            factor = coeff * inv
            for col, val in row.items():
                cur = other.get(col)
                new = -(factor * val) if cur is None else cur - factor * val
                if new:
                    other[col] = new
                else:
                    other.pop(col, None)
            if not other:
                active.discard(i)
    return rank


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

class GeneratorDescriptor(NamedTuple):
    """A homology generator: a coloring of the components and its degree.

    A named tuple, so generators sort by (degree, psi) and lists of them
    compare as plain tuples.
    """

    degree: int
    psi: tuple[int, ...]  # component index -> root label


@dataclass(frozen=True)
class HomologyResult:
    """Dimensions per degree and the generators as plain per-degree columns.

    ``psis`` maps each degree that has generators, in ascending order, to
    the sorted tuple of their colorings, each a plain tuple of root labels.
    Exact tuples of ints are untracked by the cyclic collector once it has
    seen them, so long-lived results cost it nothing.  ``generators`` builds
    the ``GeneratorDescriptor`` records from the columns, in (degree, psi)
    order, the first time it is read.
    """

    dims: dict  # degree -> dimension
    psis: dict  # degree -> sorted tuple of colorings

    @cached_property
    def generators(self) -> tuple[GeneratorDescriptor, ...]:
        gens = []
        for k, column in self.psis.items():
            gens.extend(records(GeneratorDescriptor, repeat(k), column))
        return tuple(gens)

    @property
    def total(self) -> int:
        return sum(self.dims.values())

    def euler_characteristic(self) -> int:
        return sum((-1) ** (k % 2) * v for k, v in self.dims.items())

    def to_json(self) -> dict:
        return {
            "dims": {str(k): self.dims[k] for k in sorted(self.dims)},
            "total": self.total,
            "generators": [
                {"psi": list(psi), "degree": k}
                for k, column in self.psis.items() for psi in column
            ],
        }


def _with_loops(heads, n: int, loops: int) -> HomologyResult:
    """The generators of (degree, coloring of the drawn components) pairs.

    A free loop links nothing and meets no crossing, so each pair stands for
    n^loops generators in its degree, one per labelling of the loops (the
    last components).  The pairs are sorted once and each is extended by
    the loop labellings in lex order into its degree's column, so every
    column comes out sorted.
    """
    tails = list(product(range(n), repeat=loops))
    psis = {}
    for degree, group in groupby(sorted(heads), key=itemgetter(0)):
        column = []
        for _, head in group:
            column.extend(map(add, repeat(head), tails))
        psis[degree] = tuple(column)
    return HomologyResult(dims={k: len(c) for k, c in psis.items()}, psis=psis)


# ----------------------------------------------------------------------
# Closed form from linking numbers
# ----------------------------------------------------------------------

def closed_form(d: LinkDiagram, n: int) -> HomologyResult:
    """One generator per map {components} -> roots; n^l in total.

    A free loop's ``linking_matrix`` row is zero, so only the colorings of
    the drawn components get a degree; ``_with_loops`` labels the loops.
    """
    lk = linking_matrix(d)
    l, drawn = d.component_count, len(d.components)
    # a coloring's degree sums 2*lk over the linked pairs it colors apart
    linked = [(i, j) for i in range(l) for j in range(i + 1, l) if lk[i][j]]
    if any(j >= drawn for _, j in linked):
        raise InternalCheckError(f"a free loop has linking numbers: {lk}")
    heads = [
        (sum(2 * lk[i][j] for i, j in linked if head[i] != head[j]), head)
        for head in product(range(n), repeat=drawn)
    ]
    return _with_loops(heads, n, d.free_loops)


# ----------------------------------------------------------------------
# Linear algebra on the complex
# ----------------------------------------------------------------------

def _non_survivor(r: Resolution, state):
    """The first crossing where ``state`` fails to survive, or None.

    A survivor has local type 2 at every 1-resolved crossing and type 4 at
    every 0-resolved one.  A failure is (crossing, its type, wanted type).
    """
    for c, bit in zip(r.diagram.crossings, r.choice):
        kind = classify_local(r.local_values(state, c), bit)
        want = LocalType.TYPE2 if bit == 1 else LocalType.TYPE4
        if kind is not want:
            return c.id, kind, want
    return None


def compute_homology(cx: DeformedComplex) -> HomologyResult:
    """Per-degree dimensions by exact rank computation.

    dim H^k = dim C^k - rank(d_k) - rank(d_{k-1}), each rank summed over
    the stored arc-coloring blocks of d_k; a block's rows are the targets
    its entries reach.  A block's degrees are ranked in ascending order,
    each with the ceiling (its members in degree k) - rank(its d_{k-1}),
    so ``matrix_rank`` can prove the rank by a matching.  That ceiling
    holds only if d o d = 0 and every entry lies in its block, which
    ``check_d_squared`` checks (``cross_validate`` and ``slndeform verify``
    run it; so does the benchmark).  The generator columns are read off the
    arc colorings with no free crossing, the elements of no block, and
    extended by the loop labellings; ``cross_validate`` checks they account
    for every dimension and match the survivor resolutions.
    """
    members = {k: Counter(cx.block_of[k]) for k in cx.degrees}  # k -> block -> size
    ranks = Counter()
    for b, per_degree in cx.blocks.items():
        block_rank: dict[int, int] = {}  # k -> rank of the block's d_k
        for k in sorted(per_degree):
            rows: dict[int, int] = {}  # target -> row, in order of first use
            block = {
                (rows.setdefault(t, len(rows)), s): v
                for (t, s), v in per_degree[k].items()
            }
            block_rank[k] = matrix_rank(
                block, len(rows), ceiling=members[k][b] - block_rank.get(k - 1, 0)
            )
            ranks[k] += block_rank[k]
    dims = {}
    for k in cx.degrees:
        dim = len(cx.basis[k]) - ranks[k] - ranks[k - 1]
        if dim < 0:
            raise InternalCheckError(f"negative homology dimension in degree {k}")
        if dim:
            dims[k] = dim
    d = cx.diagram
    where = {a: p for p, a in enumerate(d.arcs)}
    arcs = [[where[a] for a in comp] for comp in d.components]
    # crossing i is bit k-1-i of a mask
    signs = [(c.sign, 1 << j) for j, c in enumerate(reversed(d.crossings))]
    heads = []
    for labels, free, ones in cx.colorings:
        if free:
            continue
        for comp, (first, *rest) in zip(d.components, arcs):
            if any(labels[p] != labels[first] for p in rest):
                raise InternalCheckError(
                    f"coloring {labels} is not constant on component {comp}"
                )
        degree = sum(sign for sign, bit in signs if ones & bit)
        heads.append((degree, tuple([labels[first] for first, *_ in arcs])))
    return HomologyResult(dims=dims, psis=_with_loops(heads, cx.n, d.free_loops).psis)


# ----------------------------------------------------------------------
# Survivors without linear algebra
# ----------------------------------------------------------------------

def survivors_combinatorial(d: LinkDiagram, n: int) -> HomologyResult:
    """Resolve by color agreement and read degrees off single resolutions.

    Every coloring determines one resolution (0 where its strands agree, 1
    where they differ) and exactly one admissible state there; the induced
    state is checked to be well defined and of the surviving types, which
    would fail loudly if the local type rules were reconstructed wrongly.
    Each distinct resolution and its degree are built once per call.

    Free loops meet no crossing, so only the colorings of the drawn
    components are resolved and checked, each once, with the loops at
    their first labelling.  That check speaks for every labelling of the
    loops because no tie and no crossing slot of a resolution reads a loop
    (``_loops_apart``, checked once per resolution); ``_with_loops`` then
    labels the loops.
    """
    drawn = len(d.components)
    # once per diagram: each crossing's (under, over) components, and the
    # component carrying each arc, in ``slot`` order
    strands = [
        (d.component_of(c.in_under), d.component_of(c.in_over)) for c in d.crossings
    ]
    carrier = [d.component_of(a) for a in d.arcs]
    first_loops = (0,) * d.free_loops  # the loops' first labelling
    vertices: dict[tuple, tuple[Resolution, int]] = {}  # choice -> (r, its degree)
    heads = []
    for head in product(range(n), repeat=drawn):
        choice = tuple([0 if head[i] == head[j] else 1 for i, j in strands])
        vertex = vertices.get(choice)
        if vertex is None:
            r = resolve(d, choice)
            _loops_apart(r)
            vertex = vertices[choice] = (r, vertex_degree(d, choice))
        r, degree = vertex
        state = r.state_of([head[i] for i in carrier] + list(first_loops))
        if state is None:
            raise InternalCheckError(
                f"coloring {head + first_loops} induces an ill-defined state "
                f"at choice {choice}"
            )

        failure = _non_survivor(r, state)
        if failure is not None:
            ci, kind, want = failure
            raise InternalCheckError(
                f"induced state of coloring {head + first_loops} has type {kind} at "
                f"crossing {ci}, expected {want}"
            )
        heads.append((degree, head))
    return _with_loops(heads, n, d.free_loops)


def _loops_apart(r: Resolution) -> None:
    """Raise InternalCheckError if a tie or a crossing slot of ``r`` reads a loop.

    A free loop's label then moves only its own state position, so one
    check of a coloring of the drawn components holds for every labelling
    of the loops.
    """
    d = r.diagram
    loop_positions = range(len(d.arcs), len(d.arcs) + d.free_loops)  # in a coloring
    loop_slots = {r.slot[-(i + 1)] for i in range(d.free_loops)}  # in a state
    tied = set(r.ties[0]).union(r.ties[1]).intersection(loop_positions)
    crossed = [
        c.id for c in d.crossings
        if loop_slots.intersection(
            r.slot[a] for a in (c.out_over, c.out_under, c.in_under, c.in_over)
        )
    ]
    if tied or crossed:
        raise InternalCheckError(
            f"resolution {r.choice} reads a free loop at coloring positions "
            f"{sorted(tied)} or at crossings {crossed}"
        )


# ----------------------------------------------------------------------
# Reconciliation
# ----------------------------------------------------------------------

@dataclass
class CrossValidation:
    n: int
    computed: HomologyResult
    closed: HomologyResult
    survivors: HomologyResult
    chain_euler: int
    messages: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.messages


def cross_validate(
    d: LinkDiagram,
    n: int,
    *,
    max_chain_dim: int = DEFAULT_MAX_CHAIN_DIM,
) -> CrossValidation:
    """Run all three methods and insist on exact agreement."""
    cx = build_complex(d, n, max_chain_dim=max_chain_dim)
    computed = compute_homology(cx)
    closed = closed_form(d, n)
    survivors = survivors_combinatorial(d, n)
    chain_euler = cx.euler_characteristic()
    report = CrossValidation(
        n=n,
        computed=computed,
        closed=closed,
        survivors=survivors,
        chain_euler=chain_euler,
    )
    if computed.dims != closed.dims:
        report.messages.append(
            f"rank computation {computed.dims} != closed form {closed.dims}"
        )
    if survivors.dims != closed.dims:
        report.messages.append(
            f"survivor resolution {survivors.dims} != closed form {closed.dims}"
        )
    if computed.psis != survivors.psis:
        report.messages.append("survivor generator lists disagree")
    if closed.psis != survivors.psis:
        report.messages.append("closed-form and survivor generator lists disagree")
    homology_euler = computed.euler_characteristic()
    if chain_euler != homology_euler:
        report.messages.append(
            f"chain Euler characteristic {chain_euler} != "
            f"homology Euler characteristic {homology_euler}"
        )
    failure = cx.check_d_squared()
    if failure is not None:
        report.messages.append(f"d o d != 0: {failure}")
    return report
