"""Homology of the deformed complex, three ways, and their reconciliation.

* ``compute_homology``: exact kernel/image ranks of the differentials over
  Q(zeta_n).  The complex stores its differential as arc-coloring blocks
  (``DeformedComplex.blocks``); each block of each d_k is ranked by exact
  sparse Gaussian elimination with sparsest-row pivoting.  The generators
  are the one-element blocks: the basis elements that no nonzero entry of
  any differential touches, marked None in ``block_of``.
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

def matrix_rank(entries: dict, nrows: int) -> int:
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
    its entries reach.  The blocks are taken as stored: ``check_d_squared``
    checks that each entry lies in its block.  Generator descriptors are
    read off the elements of no block; ``cross_validate`` checks they
    account for every dimension and match the survivor resolutions.
    """
    ranks = Counter()
    for per_degree in cx.blocks.values():
        for k, d_k in per_degree.items():
            rows: dict[int, int] = {}  # target -> row, in order of first use
            block = {(rows.setdefault(t, len(rows)), s): v for (t, s), v in d_k.items()}
            ranks[k] += matrix_rank(block, len(rows))
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
