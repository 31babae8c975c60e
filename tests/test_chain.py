"""Differential assembly: local types, matched pairs, d^2 = 0, rescaling."""

import gc
import hashlib
import json
import random
import re
import time
import tracemalloc
from array import array
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product, repeat, starmap
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_homology import TORUS_2_7, block_of, eliminated_dims, own_block, split_union
from test_states import _braid_closure, _torus_pd, braid_diagrams

from slndeform import chain, cyclotomic
from slndeform.chain import (
    DEFAULT_MAX_CHAIN_DIM,
    BasisColumn,
    ChainBasisElement,
    LocalType,
    _partners,
    build_complex,
    classify_local,
    matched_pairs,
    rescale_basis,
    rescale_with,
)
from slndeform.cyclotomic import CycloNumber, Monomial
from slndeform.diagram import parse, parse_pd, parse_signed, render_signed
from slndeform.errors import InternalCheckError, SizeBoundError
from slndeform.fixtures import fixture, fixture_names
from slndeform.homology import closed_form, compute_homology, cross_validate
from slndeform.resolution import degree as vertex_degree, records, resolve
from slndeform.states import enumerate_admissible


def test_classify_local_thick_edge():
    assert classify_local((0, 1, 0, 1), 1) is LocalType.TYPE1
    assert classify_local((0, 1, 1, 0), 1) is LocalType.TYPE2
    assert classify_local((1, 1, 1, 1), 1) is LocalType.INADMISSIBLE
    assert classify_local((0, 1, 0, 2), 1) is LocalType.INADMISSIBLE


def test_classify_local_smoothing():
    assert classify_local((1, 1, 1, 1), 0) is LocalType.TYPE4
    assert classify_local((0, 1, 0, 1), 0) is LocalType.TYPE3
    assert classify_local((0, 1, 1, 0), 0) is LocalType.INADMISSIBLE


def test_matched_pairs_on_hopf_first_crossing():
    d = fixture("hopf_pos")
    r0, r1 = resolve(d, (0, 0)), resolve(d, (1, 0))
    pairs = matched_pairs(r0, r1, 0, 2)
    # the two bicolored states of the two circles match the two thick states
    assert len(pairs) == 2
    states0 = enumerate_admissible(r0, 2)
    type3 = [s for s in states0 if s[0] != s[1]]
    assert sorted(s0 for s0, _ in pairs) == sorted(type3)
    # type 4 states (equal labels) match nothing
    matched0 = {s0 for s0, _ in pairs}
    for s in states0:
        if s[0] == s[1]:
            assert s not in matched0


def test_type2_states_match_nothing_downward():
    # at the 01 -> 11 edge of the Hopf cube, the thick vertex has two
    # type 2 states at the flipped crossing; neither appears in any pair
    d = fixture("hopf_pos")
    r0, r1 = resolve(d, (0, 1)), resolve(d, (1, 1))
    pairs = matched_pairs(r0, r1, 0, 2)
    assert len(pairs) == 2
    matched1 = {s1 for _, s1 in pairs}
    c = d.crossings[0]
    for s in enumerate_admissible(r1, 2):
        values = tuple(
            s[r1.slot[a]] for a in (c.out_over, c.out_under, c.in_under, c.in_over)
        )
        kind = classify_local(values, 1)
        assert (s in matched1) == (kind is LocalType.TYPE1)
        if kind is LocalType.TYPE2:
            assert s not in matched1


def test_missing_partner_is_detected_and_names_the_crossing():
    d = fixture("hopf_pos")
    r0, r1 = resolve(d, (0, 0)), resolve(d, (1, 0))
    states0 = enumerate_admissible(r0, 2)
    with pytest.raises(InternalCheckError, match="crossing 0"):
        list(_partners(r0, r1, states0, d.crossings[0], 0, set()))


def _assert_states_are_the_resolutions(cx):
    """At every vertex the complex's states, in basis order, are the oracle's.

    The oracle is ``enumerate_admissible`` on a fresh ``resolve``: the
    per-vertex state search that ``build_complex`` no longer runs.
    """
    d, found = cx.diagram, {}
    for k in cx.degrees:
        for el in cx.basis[k]:
            found.setdefault(el.vertex, []).append(el.state)
    for v in product((0, 1), repeat=len(d.crossings)):
        assert found.pop(v, []) == list(enumerate_admissible(resolve(d, v), cx.n)), v
    assert not found


@pytest.mark.parametrize("n", [2, 3, 4])
def test_complex_states_are_the_admissible_states_at_every_vertex(n):
    for name in fixture_names():
        cx = build_complex(fixture(name), n)
        _assert_states_are_the_resolutions(cx)
        assert cx.check_states() is None, name


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    braid_diagrams(),
    braid_diagrams(max_letters=2),
    st.integers(min_value=0, max_value=2),
    st.sampled_from((2, 3, 4)),
)
def test_complex_states_are_the_admissible_states_on_generated_diagrams(d1, d2, loops, n):
    # split unions of two closed braids, with up to two more free loops; a
    # union past 20,000 chain elements is skipped, which keeps the budget
    d = parse_signed(" ".join([render_signed(split_union(d1, d2))] + ["U"] * loops))
    try:
        cx = build_complex(d, n, max_chain_dim=20_000)
    except SizeBoundError:
        assume(False)
    _assert_states_are_the_resolutions(cx)


def _inject(monkeypatch, fault):
    """Have ``build_complex`` assemble from ``fault`` of the walk's colorings."""
    walk = chain._arc_colorings
    monkeypatch.setattr(
        chain, "_arc_colorings", lambda d, n, bound: fault(walk(d, n, bound))
    )


def test_dropped_cube_member_fails_the_oracle(monkeypatch):
    # report the free crossing of a one-crossing cube as forced 0: the member
    # at its bit 1 is lost, and the complex still builds with d o d = 0
    def drop_member(colorings):
        i = next(i for i, (_, free, _) in enumerate(colorings) if free.bit_count() == 1)
        labels, _, ones = colorings[i]
        return colorings[:i] + [(labels, 0, ones)] + colorings[i + 1:]

    _inject(monkeypatch, drop_member)
    cx = build_complex(fixture("trefoil_right"), 3)
    assert cx.check_d_squared() is None
    with pytest.raises(AssertionError):
        _assert_states_are_the_resolutions(cx)
    assert cx.check_states() is not None


def test_dropped_coloring_fails_the_oracle(monkeypatch):
    # a whole cube goes missing; every remaining block is intact
    def drop_coloring(colorings):
        i = next(i for i, (_, free, _) in enumerate(colorings) if free)
        return colorings[:i] + colorings[i + 1:]

    _inject(monkeypatch, drop_coloring)
    cx = build_complex(fixture("hopf_pos"), 2)
    assert cx.check_d_squared() is None
    with pytest.raises(AssertionError):
        _assert_states_are_the_resolutions(cx)
    assert cx.check_states() is not None


def test_repeated_coloring_is_rejected(monkeypatch):
    # each member of the repeated cube would reach its vertex twice
    _inject(monkeypatch, lambda colorings: colorings + colorings[-1:])
    with pytest.raises(InternalCheckError, match="receives state .* twice"):
        build_complex(fixture("hopf_pos"), 2)


def _permuted_build(d, n, permute):
    """``build_complex`` assembled from the walk's colorings in ``permute``'s order."""
    with pytest.MonkeyPatch.context() as mp:
        _inject(mp, permute)
        return build_complex(d, n)


def _reversed(colorings):
    return colorings[::-1]


def _shuffled(colorings):
    return random.Random(len(colorings)).sample(colorings, len(colorings))


def _assert_same_complex(cx, base):
    """Every read of ``cx`` equals that of ``base``, and both of its checks pass."""
    assert cx.degrees == base.degrees
    for k in base.degrees:
        assert list(cx.basis[k]) == list(base.basis[k]), k
    assert cx.differentials == base.differentials
    assert cx.dims() == base.dims()
    assert cx.euler_characteristic() == base.euler_characteristic()
    assert cx.check_states() is None
    assert cx.check_d_squared() is None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_order_of_the_colorings_does_not_change_the_complex(n):
    # the colorings are sorted by their labels, whatever order they come in
    for name in fixture_names():
        d = fixture(name)
        base = build_complex(d, n)
        for permute in (_reversed, _shuffled):
            _assert_same_complex(_permuted_build(d, n, permute), base)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(braid_diagrams(), st.sampled_from((2, 3, 4)))
def test_the_order_of_the_colorings_does_not_change_the_complex_on_generated_diagrams(d, n):
    try:
        base = build_complex(d, n, max_chain_dim=20_000)
    except SizeBoundError:
        assume(False)
    for permute in (_reversed, _shuffled):
        _assert_same_complex(_permuted_build(d, n, permute), base)


def test_a_diagram_with_arcs_out_of_order_is_rejected_before_the_walk(monkeypatch):
    # the basis order is the colorings' label order only with ascending arcs
    def never(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(chain, "_arc_colorings", never)
    d = fixture("trefoil_right")
    for arcs in (d.arcs[::-1], d.arcs[1:] + d.arcs[:1], d.arcs[:1] + d.arcs[:-1]):
        with pytest.raises(ValueError, match="strictly ascending"):
            build_complex(replace(d, arcs=arcs), 2)


def _counting_resolve(monkeypatch):
    """Count ``chain.resolve``'s calls per vertex."""
    calls = Counter()
    real = chain.resolve

    def counted(d, choice):
        calls[tuple(choice)] += 1
        return real(d, choice)

    monkeypatch.setattr(chain, "resolve", counted)
    return calls


def test_build_ranks_and_checks_resolve_no_vertex(monkeypatch):
    d = parse_pd(_torus_pd(7))
    calls = _counting_resolve(monkeypatch)
    cx = build_complex(d, 4)
    assert not calls

    def no_resolve(*args):
        raise AssertionError("a vertex was resolved")

    monkeypatch.setattr(chain, "resolve", no_resolve)
    assert cx.check_d_squared() is None
    assert compute_homology(cx).dims == closed_form(d, 4).dims
    assert sum(cx.dims().values()) == 13_132
    assert cx.euler_characteristic() == 4


def test_a_run_resolves_its_vertex_on_its_first_read_only(monkeypatch):
    cx = build_complex(fixture("figure_eight"), 3)
    calls = _counting_resolve(monkeypatch)
    column = cx.basis[0]
    vertex, _, held, start = column.runs[len(column.runs) // 2]
    first = column[start]
    assert first.vertex == vertex and calls == {vertex: 1}
    assert column[start] == first and column[start + len(held) - 1].vertex == vertex
    assert calls == {vertex: 1}
    elements = list(column)
    assert elements[start] == first
    assert calls == {v: 1 for v, _, _, _ in column.runs}
    assert list(column) == elements and column[:] == tuple(elements)
    assert calls == {v: 1 for v, _, _, _ in column.runs}


def test_check_states_resolves_every_vertex(monkeypatch):
    d = fixture("figure_eight")
    cx = build_complex(d, 3)
    calls = _counting_resolve(monkeypatch)
    assert cx.check_states() is None
    assert set(calls) == set(product((0, 1), repeat=len(d.crossings)))


# sha256 of ``json.dumps(cx.matrices_json())`` and of the repr of the list of
# basis records as plain tuples, recorded from the assembly that read and
# sorted every vertex's states
GOLDEN_DIGESTS = [
    ("figure_eight", 3,
     "2799928afed726febd856067186248901bc4497b9e2cff5d7aa68cfbfaedc7cc",
     "be8516f0d2d2921bb865e2485279660d2f93aebec93c8f1507f526a55b74edcd"),
    ("trefoil_right", 4,
     "502fbf45ce1b5f9df8baf3aa1163b2ffe134f843f6af21534996fd623362cdd1",
     "449c5a4e6bfed06d616ce585f47265d8cd56510ef965f2bf9ed4ff0db6ac40f6"),
    ("T(2,7)", 3,
     "6d775c301af2efb6ce57855bc211aadea3a98df39624f5ff8b78cf760b7e336a",
     "fae0121be7ed1bde33a8331c5addd6ea265312aa4bd3500130f789b1d8c0309f"),
]


@pytest.mark.parametrize(
    "name, n, matrices, basis", GOLDEN_DIGESTS, ids=[f"{g[0]}-{g[1]}" for g in GOLDEN_DIGESTS]
)
def test_matrices_and_basis_match_their_recorded_digests(name, n, matrices, basis):
    d = parse_pd(_torus_pd(7)) if name == "T(2,7)" else fixture(name)
    cx = build_complex(d, n)
    assert hashlib.sha256(json.dumps(cx.matrices_json()).encode()).hexdigest() == matrices
    rows = [tuple(el) for k in cx.degrees for el in cx.basis[k]]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == basis


def _sigma1_power(k):
    """The closure of sigma_1^k on two strands: T(2, k) for odd k."""
    crossings, circles = _braid_closure([1] * k, 2)
    return parse_signed(
        " ".join(f"C[{s};" + ",".join(map(str, arcs)) + "]" for s, arcs in crossings)
        + " U" * circles
    )


def test_chain_dimension_gate_fires_before_any_vertex_is_resolved(monkeypatch):
    # T(2,13) at n = 4 has 9,565,948 chain elements, over eight times the default bound
    d = _sigma1_power(13)

    def no_resolve(*args):
        raise AssertionError("a vertex was resolved")

    monkeypatch.setattr(chain, "resolve", no_resolve)
    began = time.perf_counter()
    with pytest.raises(
        SizeBoundError, match=f"chain dimension exceeds the bound {DEFAULT_MAX_CHAIN_DIM}$"
    ):
        build_complex(d, 4)
    with pytest.raises(SizeBoundError, match="chain dimension"):
        cross_validate(d, 4, max_chain_dim=100_000)
    assert time.perf_counter() - began < 1.0


@pytest.mark.parametrize(
    "code, n, total",
    [
        # the totals that test_states.test_torus_cube_state_counts pins
        pytest.param(_torus_pd(7), 2, 2190, id="T(2,7)-2"),
        pytest.param(_torus_pd(7), 3, 6567, id="T(2,7)-3"),
        pytest.param(_torus_pd(7), 4, 13132, id="T(2,7)-4"),
        pytest.param(_torus_pd(9), 4, 118108, id="T(2,9)-4"),
        # free loops multiply by n each (counted with enumerate_admissible)
        pytest.param("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3] U U", 4, 2752, id="trefoil+U^2-4"),
        pytest.param("C[+;1,2,3,4] C[+;4,3,2,1] U U U", 3, 891, id="hopf+U^3-3"),
    ],
)
def test_chain_dimension_gate_is_exact(code, n, total):
    d = parse(code)
    colorings = chain._arc_colorings(d, n, total)
    members = sum(1 << free.bit_count() for _, free, _ in colorings)
    assert n ** d.free_loops * members == total
    with pytest.raises(SizeBoundError):
        chain._arc_colorings(d, n, total - 1)
    if total < 20_000:
        assert sum(build_complex(d, n, max_chain_dim=total).dims().values()) == total
        with pytest.raises(SizeBoundError):
            build_complex(d, n, max_chain_dim=total - 1)


def _assert_entries_are_matched_pairs(cx):
    """The entries on every cube edge are exactly ``matched_pairs`` there."""
    on_edge = {}
    for k, entries in cx.differentials.items():
        for t, s in entries:
            ends = (cx.basis[k][s], cx.basis[k + 1][t])
            low, high = sorted(ends, key=lambda el: el.vertex)
            ci = next(i for i, bit in enumerate(low.vertex) if bit != high.vertex[i])
            on_edge.setdefault((low.vertex, ci), set()).add((low.state, high.state))
    d = cx.diagram
    for v in product((0, 1), repeat=len(d.crossings)):
        for ci, bit in enumerate(v):
            if bit == 0:
                w = v[:ci] + (1,) + v[ci + 1:]
                pairs = matched_pairs(resolve(d, v), resolve(d, w), ci, cx.n)
                assert on_edge.pop((v, ci), set()) == set(pairs), (v, ci)
    assert not on_edge


ORACLE_CASES = [
    pytest.param(fixture(name), n, id=f"{name}-{n}")
    for name in fixture_names()
    for n in (2, 3)
] + [
    pytest.param(
        parse_pd("X[1,6,2,7] X[3,8,4,9] X[5,10,6,1] X[7,2,8,3] X[9,4,10,5]"), 3,
        id="T(2,5)-3",
    ),
]


@pytest.mark.parametrize("d,n", ORACLE_CASES)
def test_cube_entries_are_the_matched_pairs(d, n):
    _assert_entries_are_matched_pairs(build_complex(d, n))


@settings(max_examples=8)
@given(braid_diagrams(), st.sampled_from((2, 3)))
def test_cube_entries_are_the_matched_pairs_on_generated_diagrams(d, n):
    _assert_entries_are_matched_pairs(build_complex(d, n))


def reference_blocks(cx):
    """Each block's entries, keyed by global basis indices, in dict form.

    The assembly as it was before blocks kept local matrices: the colorings
    with a free crossing in walk order, each once per labelling of the free
    loops; each member's state read off its coloring through its vertex's
    resolution and looked up in the basis; one entry per free crossing and
    member at which the member is the source, crossing-major, its sign the
    parity of the source's 1-bits before the crossing.
    """
    d = cx.diagram
    k = len(d.crossings)
    index = {(el.vertex, el.state): i for col in cx.basis.values() for i, el in enumerate(col)}
    reads = {}
    out = []
    for labels, free, ones in cx.colorings:
        if not free:
            continue
        subsets = [s for s in range(free + 1) if s & free == s]
        vertices = [tuple((ones | s) >> (k - 1 - i) & 1 for i in range(k)) for s in subsets]
        for v in vertices:
            if v not in reads:
                reads[v] = resolve(d, v).reads[d.free_loops:]
        for loops in product(range(cx.n), repeat=d.free_loops):
            at = [index[v, loops + tuple(labels[p] for p in reads[v])] for v in vertices]
            block = {}
            for ci in range(k):
                bit = 1 << (k - 1 - ci)
                if not free & bit:
                    continue
                for j, v in enumerate(vertices):
                    if v[ci] != (0 if d.crossings[ci].sign > 0 else 1):
                        continue
                    t = subsets.index(subsets[j] ^ bit)
                    sign = -1 if sum(v[:ci]) % 2 else 1
                    block.setdefault(vertex_degree(d, v), {})[at[t], at[j]] = sign
            out.append(block)
    return out


def _assert_blocks_are_the_reference_assembly(cx):
    ref = reference_blocks(cx)
    assert len(cx.blocks) == len(ref)
    for (members, d), want in zip(cx.blocks, ref):
        got = {
            k: [((members[k + 1][t], members[k][s]), v) for (t, s), v in entries.items()]
            for k, entries in d.items()
        }
        assert list(got.items()) == [(k, list(e.items())) for k, e in want.items()]
    merged = {}
    for block in ref:
        for k, entries in block.items():
            merged.setdefault(k, {}).update(entries)
    assert cx.differentials == merged


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("n", [2, 3, 4])
def test_blocks_are_the_reference_assembly(name, n):
    _assert_blocks_are_the_reference_assembly(build_complex(fixture(name), n))


@settings(max_examples=25, deadline=None)
@given(braid_diagrams(), st.sampled_from((2, 3, 4)))
def test_blocks_are_the_reference_assembly_on_generated_diagrams(d, n):
    try:
        cx = build_complex(d, n, max_chain_dim=20_000)
    except SizeBoundError:
        assume(False)
    _assert_blocks_are_the_reference_assembly(cx)


@pytest.mark.parametrize("code, n", [
    pytest.param(_torus_pd(5), 4, id="T(2,5)-4"),
    pytest.param("C[+;1,2,3,4] C[+;4,3,2,1] U U U", 3, id="hopf+U^3-3"),
])
def test_blocks_of_one_cube_share_their_matrices(code, n):
    d = parse(code)
    cx = build_complex(d, n)
    loops = n ** d.free_loops
    cube_of = [(ones, free) for _, free, ones in cx.colorings if free for _ in range(loops)]
    assert len(cube_of) == len(cx.blocks)
    shared = {}
    for cube, (_, matrices) in zip(cube_of, cx.blocks):
        assert shared.setdefault(cube, matrices) is matrices, cube
    assert len({id(m) for m in shared.values()}) == len(shared) < len(cx.blocks)
    # rescaling gives every block its own matrices and leaves the shared ones
    rescaled = rescale_basis(cx, seed=n)
    assert cx.differentials == build_complex(d, n).differentials
    owned = {id(matrices) for _, matrices in rescaled.blocks}
    assert len(owned) == len(rescaled.blocks)
    assert not owned & {id(m) for m in shared.values()}
    assert all(rx.members is block.members for rx, block in zip(rescaled.blocks, cx.blocks))


def test_matched_pairs_validates_vertices():
    d = fixture("hopf_pos")
    with pytest.raises(ValueError):
        matched_pairs(resolve(d, (0, 0)), resolve(d, (1, 1)), 0, 2)
    with pytest.raises(ValueError):
        matched_pairs(resolve(d, (1, 0)), resolve(d, (0, 0)), 0, 2)


def test_hopf_chain_dimensions():
    cx = build_complex(fixture("hopf_pos"), 2)
    assert cx.dims() == {0: 4, 1: 4, 2: 4}
    assert cx.euler_characteristic() == 4


def test_free_loop_complex_is_inert():
    cx = build_complex(parse_pd("U"), 3)
    assert cx.dims() == {0: 3}
    assert cx.differentials == {}


def test_d_squared_vanishes_everywhere():
    for name in fixture_names():
        d = fixture(name)
        for n in (2, 3):
            cx = build_complex(d, n)
            assert cx.check_d_squared() is None, (name, n)


def test_differential_raises_degree_by_one():
    cx = build_complex(fixture("figure_eight"), 2)
    for k, entries in cx.differentials.items():
        for (t, s) in entries:
            assert cx.basis[k][s].degree == k
            assert cx.basis[k + 1][t].degree == k + 1


def test_differential_entries_retain_all_arc_labels():
    # entries never connect states that disagree on a shared thin edge;
    # in particular the label of a split free loop is preserved
    d = parse_pd("X[1,4,2,3] X[3,2,4,1] U")
    cx = build_complex(d, 2)
    for k, entries in cx.differentials.items():
        for (t, s) in entries:
            src = cx.basis[k][s]
            tgt = cx.basis[k + 1][t]
            r_s = resolve(d, src.vertex)
            r_t = resolve(d, tgt.vertex)
            for arc in list(d.arcs) + [-1]:
                assert src.state[r_s.slot[arc]] == tgt.state[r_t.slot[arc]]


def test_cube_squares_carry_both_paths_or_neither():
    # before signs every composite entry is exactly 2: the two paths around
    # each square both exist (and the signed sum cancels them)
    for name in ("hopf_pos", "hopf_neg", "figure_eight"):
        cx = build_complex(fixture(name), 2)
        one = cx.field.one
        for k in cx.degrees:
            first = cx.differentials.get(k)
            second = cx.differentials.get(k + 1)
            if not first or not second:
                continue
            by_source = {}
            for (t, s) in second:
                by_source.setdefault(s, []).append(t)
            composite = {}
            for (mid, src) in first:
                for tgt in by_source.get(mid, ()):
                    composite[(tgt, src)] = composite.get((tgt, src), 0) + 1
            for count in composite.values():
                assert count == 2


def test_cube_lower_bound_refuses_before_the_walk(monkeypatch):
    # the chain dimension is at least 2^k * n^loops, so a diagram past that
    # is refused before the walk, which runs k steps deep
    def never(*args):
        raise AssertionError("the walk or a vertex ran")

    monkeypatch.setattr(chain, "_arc_colorings", never)
    monkeypatch.setattr(chain, "resolve", never)
    with pytest.raises(
        SizeBoundError, match=r"41 crossings and 0 free loops give at least 2\^41 \* 2\^0"
    ):
        build_complex(parse_pd(_torus_pd(41)), 2)
    d = parse_pd(_torus_pd(5001))
    began = time.perf_counter()
    with pytest.raises(SizeBoundError, match=f"exceeds the bound {DEFAULT_MAX_CHAIN_DIM}:"):
        build_complex(d, 3)
    with pytest.raises(SizeBoundError, match=f"exceeds the bound {DEFAULT_MAX_CHAIN_DIM}:"):
        cross_validate(d, 3)
    assert time.perf_counter() - began < 1.0
    with pytest.raises(SizeBoundError, match=r"0 crossings and 2 free loops .* 2\^0 \* 3\^2"):
        build_complex(parse("U U"), 3, max_chain_dim=8)


def test_a_walk_a_thousand_crossings_deep_stops_at_the_bound():
    # 2^1001 passes the cube lower bound of T(2,1001) at n = 2, so the walk
    # starts, one step per crossing; it keeps its own stack, so the first
    # colorings push the count past the bound long before any call-depth limit
    d = parse_pd(_torus_pd(1001))
    with pytest.raises(SizeBoundError, match="exceeds the bound"):
        build_complex(d, 2, max_chain_dim=1 << 1001)


def test_the_walk_leaves_no_reference_cycle():
    d = fixture("trefoil_right")
    gc.collect()
    gc.disable()
    try:
        colorings = chain._arc_colorings(d, 3, 10**9)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert sum(1 << free.bit_count() for _, free, _ in colorings) == 87


def test_cube_lower_bound_meets_the_walk_count():
    # with no crossings the bound is the chain dimension itself
    assert build_complex(parse("U U"), 3, max_chain_dim=9).dims() == {0: 9}
    # hopf_pos at n = 2: 12 elements; past the lower bound 4 the walk decides
    d = fixture("hopf_pos")
    with pytest.raises(SizeBoundError, match=r"bound 4$"):
        build_complex(d, 2, max_chain_dim=4)
    with pytest.raises(SizeBoundError, match="2 crossings and 0 free loops"):
        build_complex(d, 2, max_chain_dim=3)


def _assert_a_coloring_is_free_everywhere(d, n):
    """Some arc coloring's cube is the whole cube, so dim >= 2^k * n^loops.

    Two labels on the two colour classes of the (bipartite) Seifert graph
    give l1 = l3 != l2 = l4 at every crossing; the crossing-count gate of
    ``build_complex`` rests on this.
    """
    k = len(d.crossings)
    colorings = chain._arc_colorings(d, n, 10**9)
    assert any(free == (1 << k) - 1 for _, free, _ in colorings)
    assert sum(build_complex(d, n).dims().values()) >= n ** d.free_loops << k


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("n", [2, 3])
def test_a_coloring_is_free_at_every_crossing(name, n):
    _assert_a_coloring_is_free_everywhere(fixture(name), n)


@given(braid_diagrams(), st.sampled_from((2, 3)))
def test_a_coloring_is_free_at_every_crossing_on_generated_diagrams(d, n):
    _assert_a_coloring_is_free_everywhere(d, n)


@pytest.mark.parametrize("n", [0, 1])
def test_n_below_2_is_rejected(n):
    with pytest.raises(ValueError, match="n must be >= 2"):
        build_complex(fixture("figure_eight"), n)
    with pytest.raises(ValueError, match="n must be >= 2"):
        cross_validate(fixture("figure_eight"), n)


def test_identity_rescaling_is_identity():
    cx = build_complex(fixture("hopf_pos"), 2)
    ones = {k: [(0, 1, 1)] * len(cx.basis[k]) for k in cx.degrees}
    same = rescale_with(cx, ones)
    assert same.blocks == cx.blocks
    assert all(
        isinstance(v, CycloNumber)
        for _, d in same.blocks for es in d.values() for v in es.values()
    )


def test_rescaling_preserves_d_squared_and_homology():
    for name in ("hopf_pos", "trefoil_left", "unknot_kink_neg"):
        cx = build_complex(fixture(name), 2)
        base = compute_homology(cx).dims
        for seed in (0, 1, 17):
            rescaled = rescale_basis(cx, seed)
            assert rescaled.check_d_squared() is None
            assert eliminated_dims(rescaled) == base


@pytest.mark.parametrize("n", [3, 4, 6])
def test_rescaled_d_squared_and_elimination_stay_in_monomials(n, monkeypatch):
    # every product, cancelling sum, pivot inverse and fill-in of a rescaled
    # block is again a monomial, so neither check builds a power-basis form
    cx = build_complex(fixture("figure_eight"), n)
    base = compute_homology(cx).dims
    rescaled = [rescale_basis(cx, seed) for seed in (0, 1)]

    def power_basis(*args):
        raise AssertionError("a rescaled check left the monomials")

    monkeypatch.setattr(cyclotomic, "_scaled", power_basis)
    for name in ("_add", "_mul", "_inv"):
        monkeypatch.setattr(cx.field, name, power_basis)
    for rx in rescaled:
        assert rx.check_d_squared() is None
        assert eliminated_dims(rx) == base


def test_rescaling_rejects_zero_scalars():
    cx = build_complex(fixture("hopf_pos"), 2)
    for zero in ((0, 0, 1), (0, 1, 0)):  # p = 0, then q = 0
        bad = {k: [zero] + [(0, 1, 1)] * (len(cx.basis[k]) - 1) for k in cx.degrees}
        with pytest.raises(ValueError, match="one nonzero scalar per basis element"):
            rescale_with(cx, bad)
    # a degree of the complex with no scalars at all
    missing = {k: [(0, 1, 1)] * len(cx.basis[k]) for k in cx.degrees[1:]}
    with pytest.raises(ValueError, match="one nonzero scalar per basis element"):
        rescale_with(cx, missing)


def test_rescaling_rejects_a_complex_that_is_not_integral():
    cx = build_complex(fixture("hopf_pos"), 3)
    ones = {k: [(0, 1, 1)] * len(cx.basis[k]) for k in cx.degrees}
    with pytest.raises(ValueError, match="integral complex"):
        rescale_with(rescale_basis(cx, 0), ones)
    d = own_block(cx, 0)
    k = min(d)
    d[k][min(d[k])] = Fraction(1, 2)
    with pytest.raises(ValueError, match="integral complex"):
        rescale_with(cx, ones)


def _rescale_and_draws(cx, seed):
    """rescale_basis(cx, seed) and the triples it hands to rescale_with."""
    drawn = {}

    def spy(cx_, scalars):
        drawn.update(scalars)
        return rescale_with(cx_, scalars)

    chain.rescale_with = spy
    try:
        return rescale_basis(cx, seed), drawn
    finally:
        chain.rescale_with = rescale_with


def _assert_rescaled_by_field_products(cx, seed):
    """Each rescaled entry equals S[t] * v * S[s].inv() in field arithmetic.

    S = root(e) * Fraction(p, q) from the drawn triples, with honest
    ``CycloNumber`` products and norm inverses; the rescaled blocks keep the
    members, the keys and the entry order of the integral ones, and every
    entry is a ``Monomial``.
    """
    rx, drawn = _rescale_and_draws(cx, seed)
    field = cx.field
    scale = {
        k: [field.root(e) * Fraction(p, q) for e, p, q in col] for k, col in drawn.items()
    }
    assert len(rx.blocks) == len(cx.blocks)
    for b, ((members, d), (rx_members, rx_d)) in enumerate(zip(cx.blocks, rx.blocks)):
        assert rx_members is members and rx_d.keys() == d.keys()
        for k, entries in d.items():
            got = rx_d[k]
            assert list(got) == list(entries)
            for (t, s), v in entries.items():
                want = scale[k + 1][members[k + 1][t]] * v * scale[k][members[k][s]].inv()
                assert type(got[t, s]) is Monomial
                assert (got[t, s].num, got[t, s].den) == (want.num, want.den), (b, k, t, s)


@pytest.mark.parametrize("n", [3, 5, 6])
@pytest.mark.parametrize("name", ["hopf_pos", "trefoil_left", "figure_eight"])
def test_rescaled_entries_match_field_arithmetic(name, n):
    cx = build_complex(fixture(name), n)
    for seed in range(4):
        _assert_rescaled_by_field_products(cx, seed)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(braid_diagrams(), st.sampled_from((3, 4)), st.integers(min_value=0, max_value=2**16))
def test_rescaled_entries_match_field_arithmetic_on_generated_diagrams(d, n, seed):
    _assert_rescaled_by_field_products(build_complex(d, n), seed)


def test_injected_sign_flip_is_detected_and_named():
    cx = build_complex(fixture("hopf_pos"), 2)
    k = 0
    (t, s), value = sorted(cx.differentials[k].items())[0]
    b = block_of(cx)[k][s]
    members, _ = cx.blocks[b]
    own_block(cx, b)[k][members[k + 1].index(t), members[k].index(s)] = -value
    failure = cx.check_d_squared()
    assert failure is not None
    degree, src_el, tgt_el, residue = failure
    assert degree == 0
    assert src_el.degree == 0 and tgt_el.degree == 2
    assert not residue.is_zero


def _whole_degree_failures(cx):
    """Every nonzero entry of d o d, composed from whole degree matrices."""
    failures = {}
    for k, first in cx.differentials.items():
        second = cx.differentials.get(k + 1, {})
        composite = {}
        for (mid, src), v1 in first.items():
            for (tgt, mid2), v2 in second.items():
                if mid2 == mid:
                    cur = composite.get((tgt, src), cx.field.zero)
                    composite[tgt, src] = cur + v2 * v1
        for (tgt, src), v in composite.items():
            if not v.is_zero:
                failures[k, tgt, src] = v
    return failures


def test_d_squared_failure_is_the_smallest_square_over_all_blocks():
    cx = build_complex(fixture("figure_eight"), 2)
    # the first block with a square, and a later one with a square whose
    # degrees start lower
    squared = [b for b, (_, d) in enumerate(cx.blocks) if len(d) > 1]
    assert squared
    first = squared[0]
    later = next((b for b in squared if min(cx.blocks[b].d) < min(cx.blocks[first].d)), None)
    assert later is not None
    # break d o d in the earlier block at its top degree, and in the later
    # block at a lower degree
    for b, k in ((first, max(cx.blocks[first].d)), (later, min(cx.blocks[later].d))):
        _scale_smallest_entry(cx, b, k, -1)
    failures = _whole_degree_failures(cx)
    owner = block_of(cx)
    assert len({k for k, _, _ in failures}) >= 2
    assert len({owner[k][s] for k, _, s in failures}) >= 2
    k, tgt, src = min(failures)
    assert owner[k][src] == later
    assert cx.check_d_squared() == (
        k, cx.basis[k][src], cx.basis[k + 2][tgt], failures[k, tgt, src]
    )


def _first_failure(cx):
    """``check_d_squared``'s answer read off ``_whole_degree_failures``."""
    failures = _whole_degree_failures(cx)
    if not failures:
        return None
    k, tgt, src = min(failures)
    return k, cx.basis[k][src], cx.basis[k + 2][tgt], failures[k, tgt, src]


def _assert_reports_first_failure(cx):
    failure = cx.check_d_squared()
    expected = _first_failure(cx)
    assert failure == expected
    if expected is not None:
        # an int residue would compare equal to its CycloNumber, so pin the type
        assert isinstance(failure[3], CycloNumber)
        assert str(failure[3]) == str(expected[3])
    return failure


def _scale_smallest_entry(cx, b, k, factor):
    """Multiply block b's smallest d_k entry by ``factor``, in a copy of its ``d``.

    A block's members ascend, so its smallest local key is its smallest
    global one.
    """
    entries = own_block(cx, b)[k]
    key = min(entries)
    entries[key] = entries[key] * factor


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unrescaled_d_squared_needs_no_field_arithmetic(n, monkeypatch):
    complexes = [build_complex(fixture(name), n) for name in fixture_names()]
    if n == 4:
        complexes.append(build_complex(parse_pd(TORUS_2_7), n))

    def no_field_arithmetic(self, other):
        raise AssertionError("d o d of a block of signs used Q(zeta_n) arithmetic")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(CycloNumber, name, no_field_arithmetic)
    for cx in complexes:
        assert cx.check_d_squared() is None


def _blocks_with_squares(cx):
    """Blocks with two or more degrees, by their lowest degree, then first element.

    A block's first element is its smallest (vertex, state), the member at
    its cube's forced-one vertex.
    """
    def first_element(b):
        return min((cx.basis[k][i].vertex, cx.basis[k][i].state)
                   for k, column in cx.blocks[b].members.items() for i in column)

    return sorted((b for b, (_, d) in enumerate(cx.blocks) if len(d) > 1),
                  key=lambda b: (min(cx.blocks[b].d), first_element(b)))


@pytest.mark.parametrize("scale", ["zeta", "1/2"])
@pytest.mark.parametrize("scaled_first", [True, False])
def test_sign_and_field_blocks_report_through_one_minimum(scaled_first, scale):
    # one block mixes a field entry into its ints (an entry times zeta, or
    # times 1/2), another keeps its ints with a flipped sign; the smallest
    # square of the two must be reported
    cx = build_complex(fixture("figure_eight"), 3)
    factor = cx.field.root(1) if scale == "zeta" else cx.field.from_rational(Fraction(1, 2))
    low, *rest = _blocks_with_squares(cx)
    high = next(b for b in rest if min(cx.blocks[b].d) > min(cx.blocks[low].d))
    scaled, flipped = (low, high) if scaled_first else (high, low)
    _scale_smallest_entry(cx, scaled, min(cx.blocks[scaled].d), factor)
    _scale_smallest_entry(cx, flipped, min(cx.blocks[flipped].d), -1)
    k, src, _, residue = _assert_reports_first_failure(cx)
    assert block_of(cx)[k][cx.basis[k].index(src)] == low
    # a square through the scaled entry leaves (factor -+ 1); a flipped sign -+2
    assert (residue in (2, -2)) != scaled_first


def test_negated_entry_of_a_rescaled_complex_is_caught():
    cx = rescale_basis(build_complex(fixture("figure_eight"), 3), seed=3)
    assert cx.check_d_squared() is None
    b = _blocks_with_squares(cx)[-1]
    _scale_smallest_entry(cx, b, max(cx.blocks[b].d), -1)
    assert _assert_reports_first_failure(cx) is not None


SHIFTED_EXPONENT_FAILURE = {
    3: "(0, ChainBasisElement(vertex=(1, 1, 1, 1), state=(2, 1, 1, 1, 2, 0, 0, 0), degree=0), "
       "ChainBasisElement(vertex=(0, 0, 1, 1), state=(2, 1, 1, 0, 0), degree=2), "
       "CycloNumber(-1 + z, n=3))",
    4: "(0, ChainBasisElement(vertex=(1, 1, 1, 1), state=(3, 2, 2, 2, 3, 1, 1, 1), degree=0), "
       "ChainBasisElement(vertex=(0, 0, 1, 1), state=(3, 2, 2, 1, 1), degree=2), "
       "CycloNumber(-2 + 2*z, n=4))",
}


@pytest.mark.parametrize("n", [3, 4])
def test_exponent_shift_of_a_rescaled_entry_is_caught(n):
    # times zeta, an entry keeps its rational part and its nonzero pattern:
    # only its exponent is wrong, so a sum of monomials that ignored
    # exponents would still cancel every square
    cx = rescale_basis(build_complex(fixture("figure_eight"), n), seed=3)
    b = _blocks_with_squares(cx)[-1]
    k = max(cx.blocks[b].d)
    key = min(cx.blocks[b].d[k])
    before = cx.blocks[b].d[k][key]
    _scale_smallest_entry(cx, b, k, cx.field.monomial(1, 1, 1))
    after = cx.blocks[b].d[k][key]
    assert (after.p, after.q) == (before.p, before.q) and after.e == (before.e + 1) % n
    failure = _assert_reports_first_failure(cx)
    assert failure is not None and type(failure[3]) is CycloNumber
    assert repr(failure) == SHIFTED_EXPONENT_FAILURE[n]


def test_negated_entry_failure_text_on_figure_eight():
    cx = build_complex(fixture("figure_eight"), 3)
    b = _blocks_with_squares(cx)[0]
    _scale_smallest_entry(cx, b, min(cx.blocks[b].d), -1)
    assert repr(cx.check_d_squared()) == (
        "(-2, ChainBasisElement(vertex=(1, 1, 0, 0), state=(0, 1, 0, 1, 0), degree=-2), "
        "ChainBasisElement(vertex=(0, 0, 0, 0), state=(0, 1, 0), degree=0), "
        "CycloNumber(-2, n=3))"
    )


@settings(max_examples=30)
@given(braid_diagrams(), st.sampled_from((2, 3)), st.integers(min_value=0))
def test_negated_entry_is_the_first_failure_on_generated_diagrams(d, n, pick):
    cx = build_complex(d, n)
    entries = sorted(
        (b, k, key) for b, (_, d) in enumerate(cx.blocks) for k, es in d.items() for key in es
    )
    if entries:
        b, k, key = entries[pick % len(entries)]
        d = own_block(cx, b)
        d[k][key] = -d[k][key]
        assert (_assert_reports_first_failure(cx) is None) == (len(d) == 1)
    else:
        assert cx.check_d_squared() is None


def _cubes(cx):
    """Block numbers grouped by the ``d`` object they share, by first block."""
    shared = {}
    for b, (_, d) in enumerate(cx.blocks):
        shared.setdefault(id(d), []).append(b)
    return list(shared.values())


def _shared_cube_with_squares(cx):
    """The first cube of two or more blocks, not led by block 0, whose ``d``
    has two degrees."""
    return next(
        cube for cube in _cubes(cx) if len(cube) > 1 and cube[0] and len(cx.blocks[cube[0]].d) > 1
    )


def test_fault_in_a_shared_cube_matrix_breaks_every_block_of_the_cube():
    # a _cube that filed one wrong sign: every block of the cube holds it.
    # Blocks come in label order, which puts a cube's smallest square in its
    # first block, so they are checked here in reverse: the direct sum is
    # the same, and the smallest square lies in a block checked later
    cx = build_complex(fixture("figure_eight"), 3)
    cx.blocks = cx.blocks[::-1]
    cube = _shared_cube_with_squares(cx)
    d = cx.blocks[cube[0]].d
    k = min(d)
    key = min(d[k])
    d[k][key] = -d[k][key]  # in place, in the shared matrix
    assert all(cx.blocks[b].d is d for b in cube)
    owner = block_of(cx)
    failures = _whole_degree_failures(cx)
    assert {owner[k][s] for k, _, s in failures} == set(cube)
    k, _, src = min(failures)
    assert owner[k][src] != cube[0]  # the smallest square lies in a later block
    assert _assert_reports_first_failure(cx) is not None


def test_block_given_its_own_copy_is_composed_on_its_own():
    cx = build_complex(fixture("figure_eight"), 3)
    cube = _shared_cube_with_squares(cx)
    shared = cx.blocks[cube[0]].d
    b = cube[len(cube) // 2]
    d = own_block(cx, b)
    k = max(d)
    key = min(d[k])
    d[k][key] = -d[k][key]
    assert all(cx.blocks[c].d is shared for c in cube if c != b)
    owner = block_of(cx)
    assert {owner[k][s] for k, _, s in _whole_degree_failures(cx)} == {b}
    assert _assert_reports_first_failure(cx) is not None
    cx.blocks = cx.blocks[:b] + (chain.Block(cx.blocks[b].members, shared),) + cx.blocks[b + 1:]
    assert cx.check_d_squared() is None  # the shared matrix is untouched


class _CountingInt(int):
    """An int that counts the products it enters."""

    products = 0

    def __mul__(self, other):
        _CountingInt.products += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def test_a_shared_matrix_is_composed_once_however_many_blocks_share_it():
    cx = build_complex(fixture("figure_eight"), 3)
    cube = _shared_cube_with_squares(cx)
    d = cx.blocks[cube[0]].d
    counted = {k: {key: _CountingInt(v) for key, v in es.items()} for k, es in d.items()}
    # products of one composition: d_k entries times d_{k+1} entries they feed
    sources = {k: [s for _, s in es] for k, es in d.items()}
    expected = sum(sources.get(k + 1, []).count(mid) for k, es in d.items() for mid, _ in es)
    assert expected > 0
    for holders in (cube[:1], cube):
        blocks = list(cx.blocks)
        for b in holders:
            blocks[b] = chain.Block(cx.blocks[b].members, counted)
        shared = replace(cx, blocks=tuple(blocks))
        _CountingInt.products = 0
        assert shared.check_d_squared() is None
        assert _CountingInt.products == expected, holders


def test_each_block_sharing_a_matrix_is_checked_for_bounds():
    # a later block of the cube, one member short, still shares the cube's d
    cx = build_complex(fixture("figure_eight"), 3)
    cube = _shared_cube_with_squares(cx)
    b = cube[-1]
    members, d = cx.blocks[b]
    k = max(d)
    short = {**members, k + 1: members[k + 1][:-1]}
    cx.blocks = cx.blocks[:b] + (chain.Block(short, d),) + cx.blocks[b + 1:]
    outside = next((t, s) for t, s in d[k] if t == len(short[k + 1]))
    with pytest.raises(
        InternalCheckError, match=re.escape(f"d_{k} entry {outside} lies outside block {b}")
    ):
        cx.check_d_squared()


def test_bounds_fault_in_a_shared_matrix_names_the_first_block_that_holds_it():
    cx = build_complex(fixture("figure_eight"), 3)
    cube = _shared_cube_with_squares(cx)
    members, d = cx.blocks[cube[0]]
    k = max(d)
    (t, s), v = next(iter(d[k].items()))
    del d[k][t, s]
    d[k][len(members[k + 1]), s] = v  # the first entry out of bounds
    d[k][-1, s] = v
    with pytest.raises(
        InternalCheckError,
        match=re.escape(f"d_{k} entry {len(members[k + 1]), s} lies outside block {cube[0]}"),
    ):
        cx.check_d_squared()


def test_basis_ordering_contract():
    cx = build_complex(fixture("hopf_pos"), 2)
    for k in cx.degrees:
        elements = cx.basis[k]
        keys = [(el.vertex, el.state) for el in elements]
        assert keys == sorted(keys)


def _eager_basis(d, n):
    """Each degree's basis built the eager way, one record per element.

    A vertex's arc states are its ``enumerate_admissible`` states with the
    loop labels cut off, sorted; every loop labelling prefixes them all.
    """
    loops = list(product(range(n), repeat=d.free_loops))
    basis = {}
    for v in product((0, 1), repeat=len(d.crossings)):
        k = vertex_degree(d, v)
        states = sorted({s[d.free_loops:] for s in enumerate_admissible(resolve(d, v), n)})
        basis.setdefault(k, []).extend(records(
            ChainBasisElement, repeat(v), starmap(add, product(loops, states)), repeat(k)
        ))
    return {k: tuple(col) for k, col in basis.items()}


def _same_index(column, reference, value, *span):
    """``column.index`` answers as the tuple's ``index`` does, ValueError included."""
    try:
        expected = reference.index(value, *span)
    except ValueError:
        with pytest.raises(ValueError):
            column.index(value, *span)
    else:
        assert column.index(value, *span) == expected


LOOP_CASES = [
    ("U U U", 4),
    ("X[1,2,2,1] U U", 3),
    ("C[+;1,2,3,4] C[+;4,3,2,1] U U U", 3),
]


@pytest.mark.parametrize(
    "code, n", [(name, n) for name in fixture_names() for n in (2, 3)] + LOOP_CASES
)
def test_basis_column_reads_as_the_eager_tuple(code, n):
    d = fixture(code) if code in fixture_names() else parse(code)
    cx = build_complex(d, n)
    eager = _eager_basis(d, n)
    assert cx.degrees == tuple(sorted(eager))
    for k, column in cx.basis.items():
        reference = eager[k]
        size = len(reference)
        assert type(column) is BasisColumn and len(column) == size
        read = list(column)
        assert read == list(reference)
        assert [column[i] for i in range(size)] == read
        assert [column[i] for i in range(-size, 0)] == read
        for el, ref in zip(read, reference):
            assert type(el) is ChainBasisElement and repr(el) == repr(ref)
        for i in (size, -size - 1):
            with pytest.raises(IndexError):
                column[i]
        for cut in (slice(None), slice(1, -1), slice(None, None, -1), slice(-3, None, 2),
                    slice(size + 5, None)):
            assert column[cut] == reference[cut]
        absent = ChainBasisElement((2,) * len(d.crossings), (n,), k)
        assert column.count(absent) == 0 and absent not in column
        _same_index(column, reference, absent)
        if size:
            assert column[-1] == reference[-1]
            for i in {0, size // 2, size - 1}:
                el = reference[i]
                assert column.count(el) == 1 and el in column
                for span in ((), (i,), (i + 1,), (0, i), (-size, i + 1), (-1,)):
                    _same_index(column, reference, el, *span)


def test_no_basis_record_outlives_build_or_cross_validate():
    # the basis keeps its vertices' runs; the eager layout would hold a
    # ChainBasisElement, which the collector tracks, per element
    d = parse("U U U U U U")
    gc.collect()
    before = [o for o in gc.get_objects() if type(o) is ChainBasisElement]
    seen = {id(o) for o in before}
    cx = build_complex(d, 3)
    report = cross_validate(d, 3)
    assert len(cx.basis[0]) == 3 ** 6 and report.passed
    held = [o for o in gc.get_objects() if type(o) is ChainBasisElement and id(o) not in seen]
    assert held == []


def test_the_basis_keeps_coloring_indices_not_states():
    # a run keeps the indices of its colorings, and a block its members, as
    # arrays of machine ints; a state tuple per element (a 56-byte header
    # plus 8 bytes per label) takes the retained size past the bound: runs
    # of state tuples retained 230 bytes per element here
    d = parse_pd(_torus_pd(7))
    tracemalloc.start()
    try:
        cx = build_complex(d, 4)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sum(cx.dims().values())
    assert size == 13_132
    assert retained < 160 * size, retained / size
    for column in cx.basis.values():
        for _, _, held, _ in column.runs:
            assert type(held) is array and held.typecode == "q"
    for members, _ in cx.blocks:
        assert all(type(column) is array for column in members.values())


@pytest.mark.parametrize("code, n", [("figure_eight", 2), ("C[+;1,2,3,4] C[+;4,3,2,1] U U U", 3)])
def test_check_states_names_the_vertex_of_a_changed_run(code, n):
    d = fixture(code) if code in fixture_names() else parse(code)
    cx = build_complex(d, n)
    assert cx.check_states() is None
    for k, column in cx.basis.items():
        for r, (vertex, read, held, start) in enumerate(column.runs):
            # label n is no label: the replaced state, read off a coloring
            # labelled n everywhere, is admissible nowhere
            labels = column.colorings[held[-1]][0]
            colorings = column.colorings + [((n,) * len(labels), 0, 0)]
            changed = held[:-1] + array("q", [len(column.colorings)])
            runs = column.runs[:r] + ((vertex, read, changed, start),) + column.runs[r + 1:]
            bad = replace(cx, basis={**cx.basis, k: BasisColumn(k, column.loops, colorings, runs)})
            assert bad.check_states() == vertex


def test_positional_third_argument_is_rejected():
    # max_chain_dim is keyword-only, so a positional beta cannot become the bound
    with pytest.raises(TypeError):
        build_complex(fixture("hopf_pos"), 2, 1)
    with pytest.raises(TypeError):
        cross_validate(fixture("hopf_pos"), 2, 1)


def test_matrices_json_round_trip_determinism():
    cx = build_complex(fixture("hopf_neg"), 2)
    assert cx.matrices_json() == cx.matrices_json()
    blob = cx.matrices_json()
    for key, triplets in blob.items():
        assert triplets == sorted(triplets)
        for t, s, v in triplets:
            assert v in ("1", "-1")
