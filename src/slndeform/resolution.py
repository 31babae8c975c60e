"""Cube-of-resolutions vertices: thin/thick edge graphs for a choice vector.

Bit 0 at a crossing is always the oriented two-arc smoothing (in-under joins
out-over, in-over joins out-under) and bit 1 always inserts a thick edge,
independent of the crossing sign; the differential direction is chosen later
so that it raises the cohomological degree.

Thick-edge slots are numbered so that slot 1 carries the out-over arc,
slot 2 the out-under arc, slot 3 the in-under arc and slot 4 the in-over
arc; the 0-smoothing of the same crossing joins slots (1,3) and (2,4).
Thin edges are the arc classes generated by all 0-smoothings, identified by
their smallest arc label; crossingless circles of the diagram get the
negative identifiers -1, -2, ... in input order.

A state is a tuple of labels aligned with ``thin_edges``.  ``slot`` owns
that layout: it maps every arc and free-loop id (arcs first, then loops)
to the index of its label in a state.  Because every thin-edge id is the
smallest arc of its class or a loop id, ``slot`` also maps thin-edge ids.
``local_values`` reads the four labels at a crossing through it.

An arc coloring is the label of every arc and free loop, in ``slot`` order.
The differential keeps it, so it keys the blocks of the complex.
``coloring`` reads it off a state and ``state_of`` is the only way back:
the state of this resolution carrying a coloring, if there is one.
``resolve`` lays that way back out once per vertex: ``reads`` gives each
thin edge the first coloring position on it, and ``ties`` pairs every
other position with the first one of its thin edge, so ``state_of`` is one
comparison of two tuples and one tuple read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import itemgetter

from .diagram import Crossing, LinkDiagram
from .errors import InternalCheckError

__all__ = [
    "ThickEdge", "Resolution", "resolve", "reader", "records", "p_parity", "degree",
]


def reader(positions):
    """The function taking a sequence to the tuple of its items at ``positions``."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (p,) = positions
        return lambda seq: (seq[p],)
    return lambda seq: ()


def records(cls, *columns):
    """An iterator of ``cls(*row)`` over the rows of ``columns``, zipped.

    ``cls`` is a named tuple class.  Each record is made by ``tuple.__new__``,
    as the class's own ``__new__`` makes it, but without a Python call per
    record.
    """
    return map(tuple.__new__, repeat(cls), zip(*columns))


@dataclass(frozen=True)
class ThickEdge:
    crossing: int
    slots: tuple[int, int, int, int]  # thin-edge ids at slots 1..4


@dataclass(frozen=True)
class Resolution:
    diagram: LinkDiagram
    choice: tuple[int, ...]
    thin_edges: tuple[int, ...]
    thick_edges: tuple[ThickEdge, ...]
    circles: tuple[int, ...]
    slot: dict[int, int]  # arc or loop id -> index of its label in a state
    reads: tuple[int, ...]  # thin-edge index -> its first position in a coloring
    ties: tuple[tuple[int, ...], tuple[int, ...]]  # positions that must agree, pairwise

    @cached_property
    def _readers(self):
        return reader(self.reads), reader(self.ties[0]), reader(self.ties[1])

    def local_values(self, state, c: Crossing) -> tuple:
        """Labels at slots 1..4 of crossing c (valid for either bit)."""
        slot = self.slot
        return (
            state[slot[c.out_over]],
            state[slot[c.out_under]],
            state[slot[c.in_under]],
            state[slot[c.in_over]],
        )

    def coloring(self, state) -> tuple:
        """The label of every arc and free loop, in ``slot`` order."""
        return tuple([state[i] for i in self.slot.values()])

    def state_of(self, coloring):
        """The state carrying ``coloring``; None if a thin edge gets two labels."""
        read, first, other = self._readers
        if first(coloring) != other(coloring):
            return None
        return read(coloring)


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # keep the smaller label as representative for determinism
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


def resolve(d: LinkDiagram, choice) -> Resolution:
    """Build the resolution for one vertex of the cube."""
    choice = tuple(choice)
    if len(choice) != len(d.crossings):
        raise ValueError(
            f"choice length {len(choice)} != crossing count {len(d.crossings)}"
        )
    if any(b not in (0, 1) for b in choice):
        raise ValueError("choice bits must be 0 or 1")

    uf = _UnionFind(d.arcs)
    for c, bit in zip(d.crossings, choice):
        if bit == 0:
            uf.union(c.in_under, c.out_over)
            uf.union(c.in_over, c.out_under)

    arc_to_thin = {arc: uf.find(arc) for arc in d.arcs}
    loop_ids = [-(i + 1) for i in range(d.free_loops)]
    thin_edges = tuple(sorted(set(arc_to_thin.values()) | set(loop_ids)))
    for i, loop in enumerate(loop_ids):
        arc_to_thin[loop] = loop  # loops are their own (closed) thin edges

    thick_edges = []
    incidence = {t: 0 for t in thin_edges}
    for c, bit in zip(d.crossings, choice):
        if bit == 1:
            slots = (
                arc_to_thin[c.out_over],
                arc_to_thin[c.out_under],
                arc_to_thin[c.in_under],
                arc_to_thin[c.in_over],
            )
            thick_edges.append(ThickEdge(crossing=c.id, slots=slots))
            for t in slots:
                incidence[t] += 1

    circles = []
    for t in thin_edges:
        if incidence[t] == 0:
            circles.append(t)
        elif incidence[t] != 2:
            raise InternalCheckError(
                f"thin edge {t} has {incidence[t]} thick-edge endpoints; "
                "resolution graph is not a union of circles and intervals"
            )

    index = {t: i for i, t in enumerate(thin_edges)}
    slot = {a: index[t] for a, t in arc_to_thin.items()}
    reads: dict[int, int] = {}  # thin-edge index -> its first coloring position
    ties = []
    for p, i in enumerate(slot.values()):
        first = reads.setdefault(i, p)
        if first != p:
            ties.append((first, p))
    return Resolution(
        diagram=d,
        choice=choice,
        thin_edges=thin_edges,
        thick_edges=tuple(thick_edges),
        circles=tuple(circles),
        slot=slot,
        reads=tuple(reads[i] for i in range(len(thin_edges))),
        ties=(tuple(a for a, _ in ties), tuple(b for _, b in ties)),
    )


def p_parity(r: Resolution) -> int:
    """Mod-2 circle count after 0-smoothing every thick edge.

    Replacing a thick edge by the 0-smoothing joins its slots (1,3) and
    (2,4); afterwards every thin edge closes up, so circles are exactly the
    classes of that identification.
    """
    uf = _UnionFind(r.thin_edges)
    for t in r.thick_edges:
        uf.union(t.slots[0], t.slots[2])
        uf.union(t.slots[1], t.slots[3])
    classes = {uf.find(t) for t in r.thin_edges}
    return len(classes) % 2


def degree(d: LinkDiagram, choice) -> int:
    """Cohomological degree of a cube vertex: signed count of its 1-bits."""
    choice = tuple(choice)
    if len(choice) != len(d.crossings):
        raise ValueError("choice length does not match crossing count")
    return sum(c.sign for c, bit in zip(d.crossings, choice) if bit == 1)
