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
basis; ``rescale_basis`` exists precisely to exercise that claim.  Standard
alternating cube signs (parity of the 1-bits before the flipped crossing)
make the squares anticommute, and ``check_d_squared`` verifies d o d = 0 by
exact arithmetic.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

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


def _local_values(r: Resolution, state, positions, c: Crossing):
    """Labels at the four slots of crossing c (valid for either bit)."""
    return (
        state[positions[r.thin_of(c.out_over)]],
        state[positions[r.thin_of(c.out_under)]],
        state[positions[r.thin_of(c.in_under)]],
        state[positions[r.thin_of(c.in_over)]],
    )


def _positions(r: Resolution) -> dict[int, int]:
    return {t: i for i, t in enumerate(r.thin_edges)}


def _transfer_state(
    src: Resolution, dst: Resolution, state, src_pos, dst_pos
):
    """Carry a state across resolutions by retaining every arc's label.

    Returns None when some thin edge of ``dst`` would receive two different
    labels (the ill-defined case that kills type 2 states).
    """
    out = [None] * len(dst.thin_edges)
    for arc, t in dst.arc_to_thin.items():
        v = state[src_pos[src.arc_to_thin[arc]]]
        slot = dst_pos[t]
        if out[slot] is None:
            out[slot] = v
        elif out[slot] != v:
            return None
    return tuple(out)


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
    pos0, pos1 = _positions(r0), _positions(r1)
    states0 = enumerate_admissible(r0, n)
    states1 = enumerate_admissible(r1, n)
    index0 = {s: i for i, s in enumerate(states0)}
    index1 = {s: i for i, s in enumerate(states1)}

    pairs = []
    for s0 in states0:
        if classify_local(_local_values(r0, s0, pos0, c), 0) is not LocalType.TYPE3:
            continue
        s1 = _transfer_state(r0, r1, s0, pos0, pos1)
        if s1 is None or s1 not in index1:
            raise InternalCheckError(
                f"type 3 state {s0} has no admissible partner across crossing {crossing}"
            )
        pairs.append((s0, s1))

    # re-derive from the thick side and insist on the same bijection
    back = []
    for s1 in states1:
        if classify_local(_local_values(r1, s1, pos1, c), 1) is not LocalType.TYPE1:
            continue
        s0 = _transfer_state(r1, r0, s1, pos1, pos0)
        if s0 is None or s0 not in index0:
            raise InternalCheckError(
                f"type 1 state {s1} has no admissible partner across crossing {crossing}"
            )
        back.append((s0, s1))
    if sorted(pairs) != sorted(back):
        raise InternalCheckError(
            f"matched pairs disagree between the two sides at crossing {crossing}"
        )
    return sorted(pairs)


@dataclass(frozen=True)
class ChainBasisElement:
    vertex: tuple[int, ...]
    state: tuple
    degree: int


@dataclass
class DeformedComplex:
    """Basis lists per degree plus sparse differentials over Q(zeta_n)."""

    diagram: LinkDiagram
    n: int
    beta: Fraction
    field: CycloField
    resolutions: dict[tuple[int, ...], Resolution]
    degrees: tuple[int, ...]
    basis: dict[int, tuple[ChainBasisElement, ...]]
    differentials: dict[int, dict[tuple[int, int], CycloNumber]]

    def dims(self) -> dict[int, int]:
        return {k: len(self.basis[k]) for k in self.degrees}

    def euler_characteristic(self) -> int:
        return sum((-1) ** (k % 2) * len(b) for k, b in self.basis.items())

    def check_d_squared(self):
        """First nonzero entry of d o d, or None if the complex is honest.

        A failure names the offending square: (degree, source basis element,
        target basis element, value).
        """
        for k in self.degrees:
            first = self.differentials.get(k)
            second = self.differentials.get(k + 1)
            if not first or not second:
                continue
            by_source: dict[int, list[tuple[int, CycloNumber]]] = {}
            for (t, s), v in sorted(second.items()):
                by_source.setdefault(s, []).append((t, v))
            composite: dict[tuple[int, int], CycloNumber] = {}
            for (mid, src), v1 in sorted(first.items()):
                for tgt, v2 in by_source.get(mid, ()):
                    key = (tgt, src)
                    cur = composite.get(key)
                    composite[key] = v2 * v1 if cur is None else cur + v2 * v1
            for (tgt, src) in sorted(composite):
                if not composite[(tgt, src)].is_zero:
                    return (
                        k,
                        self.basis[k][src],
                        self.basis[k + 2][tgt],
                        composite[(tgt, src)],
                    )
        return None

    def matrices_json(self) -> dict:
        out = {}
        for k in self.degrees:
            entries = self.differentials.get(k, {})
            out[str(k)] = [
                [t, s, str(v)] for (t, s), v in sorted(entries.items())
            ]
        return out


def build_complex(
    d: LinkDiagram,
    n: int,
    beta=Fraction(1),
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> DeformedComplex:
    """Assemble the full cube complex for a diagram."""
    beta = Fraction(beta)
    if beta == 0:
        raise ValueError("beta must be nonzero")
    k = len(d.crossings)
    if k > max_crossings:
        raise SizeBoundError(f"{k} crossings exceed the bound {max_crossings}")
    field = CycloField(n)

    vertices = list(product((0, 1), repeat=k))
    resolutions = {v: resolve(d, v) for v in vertices}
    states = {v: enumerate_admissible(resolutions[v], n) for v in vertices}
    vdeg = {v: vertex_degree(d, v) for v in vertices}
    positions = {v: _positions(resolutions[v]) for v in vertices}

    basis: dict[int, list[ChainBasisElement]] = {}
    locator: dict[tuple[tuple[int, ...], tuple], int] = {}
    for v in vertices:  # lexicographic vertex order, then state order
        for s in states[v]:
            basis.setdefault(vdeg[v], []).append(
                ChainBasisElement(vertex=v, state=s, degree=vdeg[v])
            )
            locator[(v, s)] = len(basis[vdeg[v]]) - 1

    differentials: dict[int, dict[tuple[int, int], CycloNumber]] = {}
    one = field.one
    for v in vertices:
        for ci, c in enumerate(d.crossings):
            src_bit = 0 if c.sign > 0 else 1
            if v[ci] != src_bit:
                continue
            w = tuple(b ^ 1 if i == ci else b for i, b in enumerate(v))
            r_src, r_tgt = resolutions[v], resolutions[w]
            want = LocalType.TYPE3 if src_bit == 0 else LocalType.TYPE1
            cube_sign = (-1) ** sum(v[:ci])
            coeff = one * cube_sign
            block = differentials.setdefault(vdeg[v], {})
            for s in states[v]:
                if classify_local(
                    _local_values(r_src, s, positions[v], c), src_bit
                ) is not want:
                    continue
                target = _transfer_state(
                    r_src, r_tgt, s, positions[v], positions[w]
                )
                if target is None or (w, target) not in locator:
                    raise InternalCheckError(
                        f"retained state unexpectedly invalid across crossing {ci}"
                    )
                key = (locator[(w, target)], locator[(v, s)])
                cur = block.get(key)
                block[key] = coeff if cur is None else cur + coeff

    degrees = tuple(sorted(basis))
    return DeformedComplex(
        diagram=d,
        n=n,
        beta=beta,
        field=field,
        resolutions=resolutions,
        degrees=degrees,
        basis={k_: tuple(b) for k_, b in basis.items()},
        differentials=differentials,
    )


def rescale_basis(cx: DeformedComplex, seed: int) -> DeformedComplex:
    """Conjugate the differential by a seeded diagonal with nonzero entries."""
    rng = random.Random(seed)
    scalars = {}
    for k in cx.degrees:
        col = []
        for _ in cx.basis[k]:
            num = rng.randint(1, 5) * rng.choice((1, -1))
            den = rng.randint(1, 4)
            expo = rng.randrange(cx.n)
            col.append(cx.field.root(expo) * Fraction(num, den))
        scalars[k] = col
    return rescale_with(cx, scalars)


def rescale_with(cx: DeformedComplex, scalars: dict[int, list]) -> DeformedComplex:
    """Explicit diagonal change of basis; scalars indexed like the bases."""
    for k in cx.degrees:
        if len(scalars[k]) != len(cx.basis[k]) or any(
            v.is_zero for v in scalars[k]
        ):
            raise ValueError("rescaling needs one nonzero scalar per basis element")
    new_diff = {}
    for k, entries in cx.differentials.items():
        target = scalars.get(k + 1, [])
        source = scalars[k]
        inverse = {s: source[s].inv() for s in {s for _, s in entries}}
        new_diff[k] = {
            (t, s): target[t] * v * inverse[s] for (t, s), v in entries.items()
        }
    return DeformedComplex(
        diagram=cx.diagram,
        n=cx.n,
        beta=cx.beta,
        field=cx.field,
        resolutions=cx.resolutions,
        degrees=cx.degrees,
        basis=cx.basis,
        differentials=new_diff,
    )
