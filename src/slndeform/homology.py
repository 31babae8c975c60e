"""Homology of the deformed complex, three ways, and their reconciliation.

* ``compute_homology``: exact kernel/image ranks of the differentials over
  Q(zeta_n).  The complex stores its differential as arc-coloring blocks
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
  differential touches, marked None in ``block_of``.
* ``closed_form``: the combinatorial answer -- one generator per coloring
  of the components by roots of unity, in degree given by the linking
  numbers of the preimage sublinks, n^l generators in total.
* ``survivors_combinatorial``: for each coloring, resolve every crossing by
  0 when its two strands carry equal colors and by 1 otherwise, and read
  the degree off that single resolution; no linear algebra at all.

``cross_validate`` runs all three and insists on identical degree->dimension
tables and generator lists plus Euler-characteristic agreement with the
chain level.  None of
the three reads the deformation scale beta (see ``chain``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from .chain import (
    DEFAULT_MAX_CROSSINGS,
    DeformedComplex,
    LocalType,
    build_complex,
    classify_local,
)
from .diagram import LinkDiagram, linking_matrix
from .errors import InternalCheckError
from .resolution import Resolution, degree as vertex_degree, resolve

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
# Exact rank of a sparse matrix over Q(zeta_n)
# ----------------------------------------------------------------------

def matrix_rank(entries: dict, nrows: int, *, ceiling: int | None = None) -> int:
    """Rank of the matrix {(row, column): value} with rows 0..nrows-1.

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
    nonzero = [key for key, v in entries.items() if not v.is_zero]
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
    """Rank by exact elimination; pivots favor the sparsest remaining row."""
    rows: list[dict] = [dict() for _ in range(nrows)]
    for (r, c), v in entries.items():
        if not v.is_zero:
            rows[r][c] = v
    active = {i for i in range(nrows) if rows[i]}
    rank = 0
    while active:
        pick = min(active, key=lambda i: (len(rows[i]), i))
        row = rows[pick]
        pivot_col = min(row)
        inv = row[pivot_col].inv()
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
                if new.is_zero:
                    other.pop(col, None)
                else:
                    other[col] = new
            if not other:
                active.discard(i)
    return rank


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class GeneratorDescriptor:
    """A homology generator: a coloring of the components and its degree."""

    degree: int
    psi: tuple[int, ...]  # component index -> root label


@dataclass(frozen=True)
class HomologyResult:
    dims: dict  # degree -> dimension
    generators: tuple[GeneratorDescriptor, ...]

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
                {"psi": list(g.psi), "degree": g.degree} for g in self.generators
            ],
        }


def _by_degree_psi(g: GeneratorDescriptor) -> tuple:
    """The dataclass order, without building two tuples per comparison."""
    return g.degree, g.psi


def _result(pairs) -> HomologyResult:
    gens = tuple(sorted(pairs, key=_by_degree_psi))
    dims = Counter(g.degree for g in gens)
    return HomologyResult(dims=dict(sorted(dims.items())), generators=gens)


# ----------------------------------------------------------------------
# Closed form from linking numbers
# ----------------------------------------------------------------------

def closed_form(d: LinkDiagram, n: int) -> HomologyResult:
    """One generator per map {components} -> roots; n^l in total."""
    lk = linking_matrix(d)
    l = d.component_count
    # a coloring's degree sums 2*lk over the linked pairs it colors apart
    linked = [(i, j) for i in range(l) for j in range(i + 1, l) if lk[i][j]]
    gens = [
        GeneratorDescriptor(
            degree=sum(2 * lk[i][j] for i, j in linked if psi[i] != psi[j]), psi=psi
        )
        for psi in product(range(n), repeat=l)
    ]
    return _result(gens)


# ----------------------------------------------------------------------
# Linear algebra on the complex
# ----------------------------------------------------------------------

def _survivor_psi(r: Resolution, state) -> tuple[int, ...]:
    """Convert a survivor state (constant per component) to a coloring."""
    d = r.diagram
    psi = []
    for comp in d.components:
        labels = {state[r.slot[a]] for a in comp}
        if len(labels) != 1:
            raise InternalCheckError(
                f"survivor state {state} is not constant on component {comp}"
            )
        psi.append(labels.pop())
    for i in range(d.free_loops):
        psi.append(state[r.slot[-(i + 1)]])
    return tuple(psi)


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
    run it; so does the benchmark).  Generator descriptors are read off the
    elements of no block; ``cross_validate`` checks they account for every
    dimension and match the survivor resolutions.
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
    gens = sorted(
        (GeneratorDescriptor(k, _survivor_psi(cx.resolutions[el.vertex], el.state))
         for k in cx.degrees
         for el, b in zip(cx.basis[k], cx.block_of[k]) if b is None),
        key=_by_degree_psi,
    )
    return HomologyResult(dims=dims, generators=tuple(gens))


# ----------------------------------------------------------------------
# Survivors without linear algebra
# ----------------------------------------------------------------------

def survivors_combinatorial(d: LinkDiagram, n: int) -> HomologyResult:
    """Resolve by color agreement and read degrees off single resolutions.

    Every coloring determines one resolution (0 where its strands agree, 1
    where they differ) and exactly one admissible state there; the induced
    state is checked to be well defined and of the surviving types, which
    would fail loudly if the local type rules were reconstructed wrongly.
    Each distinct resolution is built once per call.
    """
    l = d.component_count
    resolutions: dict[tuple, Resolution] = {}
    gens = []
    for psi in product(range(n), repeat=l):
        choice = tuple(
            0 if psi[d.component_of(c.in_under)] == psi[d.component_of(c.in_over)]
            else 1
            for c in d.crossings
        )
        r = resolutions.get(choice)
        if r is None:
            r = resolutions[choice] = resolve(d, choice)
        # arcs, then free loops: the coloring that psi induces
        state = r.state_of(
            [psi[d.component_of(a)] for a in d.arcs] + list(psi[len(d.components):])
        )
        if state is None:
            raise InternalCheckError(
                f"coloring {psi} induces an ill-defined state at choice {choice}"
            )

        failure = _non_survivor(r, state)
        if failure is not None:
            ci, kind, want = failure
            raise InternalCheckError(
                f"induced state of coloring {psi} has type {kind} at "
                f"crossing {ci}, expected {want}"
            )
        gens.append(
            GeneratorDescriptor(degree=vertex_degree(d, choice), psi=psi)
        )
    return _result(gens)


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
    d: LinkDiagram, n: int, *, max_crossings: int = DEFAULT_MAX_CROSSINGS
) -> CrossValidation:
    """Run all three methods and insist on exact agreement."""
    cx = build_complex(d, n, max_crossings=max_crossings)
    computed = compute_homology(cx)
    closed = closed_form(d, n)
    survivors = survivors_combinatorial(d, n)
    report = CrossValidation(
        n=n,
        computed=computed,
        closed=closed,
        survivors=survivors,
        chain_euler=cx.euler_characteristic(),
    )
    if computed.dims != closed.dims:
        report.messages.append(
            f"rank computation {computed.dims} != closed form {closed.dims}"
        )
    if survivors.dims != closed.dims:
        report.messages.append(
            f"survivor resolution {survivors.dims} != closed form {closed.dims}"
        )
    if computed.generators != survivors.generators:
        report.messages.append("survivor generator lists disagree")
    if closed.generators != survivors.generators:
        report.messages.append("closed-form and survivor generator lists disagree")
    if cx.euler_characteristic() != computed.euler_characteristic():
        report.messages.append(
            f"chain Euler characteristic {cx.euler_characteristic()} != "
            f"homology Euler characteristic {computed.euler_characteristic()}"
        )
    failure = cx.check_d_squared()
    if failure is not None:
        report.messages.append(f"d o d != 0: {failure}")
    return report
