"""Oriented planar link diagrams: parsing, validation, signs, linking.

Two input formats are supported.

``X[a,b,c,d]`` tokens are PD codes: the four arcs at a crossing listed
rotationally starting from the incoming under-strand ``a``, so the
under-strand runs a -> c and the over-strand occupies slots b and d.  The
over-strand's direction is not part of the notation; it is recovered by
walking each component once.  The strand passes a <-> c or b <-> d at each
crossing, so the arcs form one cycle per component; its under passes fix
its direction (they must agree), and a component that never passes under
is oriented by a numeric-successor tie-break.  The crossing sign is +1 when
the over-strand runs b -> d and -1 when it runs d -> b; under this
convention the PD ``X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]`` is the writhe +3
trefoil.

``C[s;a,b,c,d]`` tokens carry the same four slots plus an explicit sign
``s`` that is taken verbatim, so no sign convention is involved; the
over-strand's direction is still recovered by the same walk.  ``U`` adds a
crossingless circle in either format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "DiagramError",
    "Crossing",
    "LinkDiagram",
    "parse_pd",
    "parse_signed",
    "parse",
    "render_signed",
    "linking_matrix",
    "writhe",
]


class DiagramError(ValueError):
    """Malformed or inconsistent diagram input."""


@dataclass(frozen=True)
class Crossing:
    """One crossing with resolved orientations on all four arc slots."""

    id: int
    sign: int
    in_under: int
    in_over: int
    out_under: int
    out_over: int

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise DiagramError(f"crossing {self.id}: sign must be +1 or -1")
        if self.in_under == self.out_under or self.in_over == self.out_over:
            raise DiagramError(
                f"crossing {self.id}: a strand cannot enter and leave on the same arc"
            )


@dataclass(frozen=True)
class LinkDiagram:
    """A validated oriented diagram.

    ``components`` lists the traced arc cycles, ordered by their smallest
    arc label; crossingless circles are counted separately in
    ``free_loops`` and occupy the component indices after the traced ones.
    """

    crossings: tuple[Crossing, ...]
    free_loops: int
    arcs: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]

    @property
    def component_count(self) -> int:
        return len(self.components) + self.free_loops

    def component_of(self, arc: int) -> int:
        return self._component_index()[arc]

    def _component_index(self) -> dict[int, int]:
        idx = getattr(self, "_comp_idx", None)
        if idx is None:
            idx = {}
            for i, comp in enumerate(self.components):
                for arc in comp:
                    idx[arc] = i
            object.__setattr__(self, "_comp_idx", idx)
        return idx

    def to_json(self) -> dict:
        return {
            "crossings": [
                {
                    "id": c.id,
                    "sign": c.sign,
                    "in_under": c.in_under,
                    "in_over": c.in_over,
                    "out_under": c.out_under,
                    "out_over": c.out_over,
                }
                for c in self.crossings
            ],
            "arcs": list(self.arcs),
            "free_loops": self.free_loops,
            "components": [list(comp) for comp in self.components],
        }


# ----------------------------------------------------------------------
# Tokenizing
# ----------------------------------------------------------------------

_PD_TOKEN = re.compile(r"^X\[(\d+),(\d+),(\d+),(\d+)\]$")
_SIGNED_TOKEN = re.compile(r"^C\[([+\-−]);(\d+),(\d+),(\d+),(\d+)\]$")


def _tokens(text: str) -> list[str]:
    toks = text.split()
    if not toks:
        raise DiagramError("empty diagram input")
    return toks


def _crossing_tokens(text: str, token: re.Pattern, kind: str):
    """The crossings of ``text``, the groups before their arcs, and its ``U`` count.

    Every token is ``U`` or matches ``token``, whose last four groups are
    the arcs a, b, c, d; a malformed token, or one whose strand re-enters
    its own slot (a == c or b == d), raises DiagramError.
    """
    raw: list[tuple[int, int, int, int]] = []
    heads: list[tuple[str, ...]] = []
    free_loops = 0
    for tok in _tokens(text):
        if tok == "U":
            free_loops += 1
            continue
        m = token.match(tok)
        if not m:
            raise DiagramError(f"malformed {kind} token {tok!r}")
        *head, a, b, c, d = m.groups()
        a, b, c, d = int(a), int(b), int(c), int(d)
        if a == c or b == d:
            raise DiagramError(f"token {tok!r}: strand re-enters its own slot")
        raw.append((a, b, c, d))
        heads.append(tuple(head))
    return raw, heads, free_loops


def _check_arc_occurrences(slot_lists: list[tuple[int, ...]]):
    counts: dict[int, int] = {}
    for slots in slot_lists:
        for arc in slots:
            if arc <= 0:
                raise DiagramError(f"arc identifiers must be positive, got {arc}")
            counts[arc] = counts.get(arc, 0) + 1
    bad = sorted(a for a, k in counts.items() if k != 2)
    if bad:
        raise DiagramError(f"arcs {bad} do not appear exactly twice")
    return sorted(counts)


# ----------------------------------------------------------------------
# PD parsing with orientation inference
# ----------------------------------------------------------------------

def parse_pd(text: str) -> LinkDiagram:
    """Parse whitespace-separated ``X[a,b,c,d]`` / ``U`` tokens."""
    raw, _, free_loops = _crossing_tokens(text, _PD_TOKEN, "PD")
    return _orient(raw, None, free_loops)


def _orient(
    raw: list[tuple[int, int, int, int]],
    signs: list[int] | None,
    free_loops: int,
) -> LinkDiagram:
    """Walk each component once; signs from the PD rule or verbatim.

    The strand passes a <-> c (under) or b <-> d (over) at each crossing, so
    the arcs form one cycle per component, walked from its smallest arc.
    Its under passes fix its direction and must agree; its over passes then
    give each crossing's over-strand its direction.
    """
    arcs = _check_arc_occurrences(raw)
    at: dict[int, list[tuple[int, int]]] = {arc: [] for arc in arcs}
    for i, slots in enumerate(raw):
        for s, arc in enumerate(slots):
            at[arc].append((i, s))

    # [arcs in walk order, {over crossing: walk enters at b}, walk is forward]
    cycles: list[list] = []
    seen: set[int] = set()
    for start in arcs:
        if start in seen:
            continue
        walk, over, under = [], {}, set()
        arc, (i, s) = start, at[start][0]
        while True:
            walk.append(arc)
            seen.add(arc)
            if s % 2:
                over[i] = s == 1
            else:
                under.add(s == 0)
            arc = raw[i][s ^ 2]  # slot a <-> c, b <-> d
            if arc == start:
                break
            first, second = at[arc]
            i, s = second if first == (i, s ^ 2) else first
        if len(under) > 1:
            raise DiagramError(
                f"inconsistent orientation: the component through arc {start} "
                "passes under in both directions"
            )
        cycles.append([walk, over, under.pop() if under else None])

    # Components that never pass under, in order of their smallest crossing:
    # that crossing's over-strand runs towards its cyclic numeric successor
    # among the labels of this component and every later such component.
    loose = sorted((min(c[1]), k) for k, c in enumerate(cycles) if c[2] is None)
    for m, (i, k) in enumerate(loose):
        labels = sorted(arc for _, j in loose[m:] for arc in cycles[j][0])
        succ = dict(zip(labels, labels[1:] + labels[:1]))
        _, b, _, d = raw[i]
        cycles[k][2] = cycles[k][1][i] == (succ[b] == d or succ[d] != b)

    b_to_d: dict[int, bool] = {}  # crossing -> its over-strand runs b -> d
    components = []
    for walk, over, forward in cycles:
        b_to_d.update((i, at_b == forward) for i, at_b in over.items())
        components.append(tuple(walk) if forward else (walk[0], *walk[:0:-1]))

    crossings = []
    for i, (a, b, c, d) in enumerate(raw):
        sign = (1 if b_to_d[i] else -1) if signs is None else signs[i]
        in_over, out_over = (b, d) if b_to_d[i] else (d, b)
        crossings.append(Crossing(i, sign, a, in_over, c, out_over))
    return LinkDiagram(
        crossings=tuple(crossings),
        free_loops=free_loops,
        arcs=tuple(arcs),
        components=tuple(components),
    )


# ----------------------------------------------------------------------
# Signed parsing
# ----------------------------------------------------------------------

def parse_signed(text: str) -> LinkDiagram:
    """Parse ``C[s;a,b,c,d]`` / ``U`` tokens; signs are taken verbatim."""
    raw, heads, free_loops = _crossing_tokens(text, _SIGNED_TOKEN, "signed")
    return _orient(raw, [+1 if s == "+" else -1 for s, in heads], free_loops)


def parse(text: str) -> LinkDiagram:
    """Dispatch on token kind: any C token selects the signed format."""
    toks = _tokens(text)
    has_c = any(t.startswith("C[") for t in toks)
    has_x = any(t.startswith("X[") for t in toks)
    if has_c and has_x:
        raise DiagramError("cannot mix X[...] and C[...] tokens in one diagram")
    return parse_signed(text) if has_c else parse_pd(text)


# ----------------------------------------------------------------------
# Derived data
# ----------------------------------------------------------------------

def writhe(d: LinkDiagram) -> int:
    """Sum of crossing signs."""
    return sum(c.sign for c in d.crossings)


def linking_matrix(d: LinkDiagram) -> tuple[tuple[int, ...], ...]:
    """lk(i, j) = half the signed count of crossings between components.

    Diagonal entries are 0 by definition; free loops contribute zero rows.
    """
    l = d.component_count
    twice = [[0] * l for _ in range(l)]
    for c in d.crossings:
        i = d.component_of(c.in_under)
        j = d.component_of(c.in_over)
        if i != j:
            twice[i][j] += c.sign
            twice[j][i] += c.sign
    for i in range(l):
        for j in range(l):
            if twice[i][j] % 2:
                raise DiagramError(
                    f"odd signed crossing count between components {i} and {j}; "
                    "diagram is not planar-consistent"
                )
    return tuple(tuple(v // 2 for v in row) for row in twice)


def render_signed(d: LinkDiagram) -> str:
    """Serialize to the signed token format (parse_signed round-trips it)."""
    toks = [
        f"C[{'+' if c.sign > 0 else '-'};{c.in_under},{c.in_over},{c.out_under},{c.out_over}]"
        for c in d.crossings
    ]
    toks.extend("U" for _ in range(d.free_loops))
    return " ".join(toks)
