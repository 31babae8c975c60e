"""Resolution graphs, circle parity and cube-vertex degrees."""

import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_states import braid_diagrams

from slndeform.cli import main
from slndeform.diagram import Crossing, LinkDiagram, parse_pd
from slndeform.errors import InternalCheckError
from slndeform.fixtures import fixture, fixture_names
from slndeform.resolution import degree, p_parity, resolve
from slndeform.states import enumerate_admissible

TORUS_2_5 = "X[1,6,2,7] X[3,8,4,9] X[5,10,6,1] X[7,2,8,3] X[9,4,10,5]"


def _every_vertex():
    diagrams = [(name, fixture(name)) for name in fixture_names()]
    diagrams.append(("T(2,5)", parse_pd(TORUS_2_5)))
    for name, d in diagrams:
        for choice in product((0, 1), repeat=len(d.crossings)):
            yield name, resolve(d, choice)


def test_hopf_all_zero_resolution_is_two_circles():
    r = resolve(fixture("hopf_pos"), (0, 0))
    assert len(r.circles) == 2
    assert len(r.thick_edges) == 0
    assert len(r.thin_edges) == 2


def test_hopf_all_one_resolution():
    r = resolve(fixture("hopf_pos"), (1, 1))
    assert len(r.thin_edges) == 4
    assert len(r.thick_edges) == 2
    assert len(r.circles) == 0


def test_thin_edge_with_three_thick_endpoints_is_an_internal_error():
    # arc 1 leaves crossing 1 on both strands, so it has three endpoints
    d = LinkDiagram(
        crossings=(
            Crossing(id=0, sign=1, in_under=1, in_over=2, out_under=3, out_over=4),
            Crossing(id=1, sign=1, in_under=3, in_over=4, out_under=1, out_over=1),
        ),
        free_loops=0,
        arcs=(1, 2, 3, 4),
        components=((1, 2, 3, 4),),
    )
    with pytest.raises(InternalCheckError, match="thin edge 1 has 3 thick-edge endpoints"):
        resolve(d, (1, 1))


def test_free_loop_resolution_is_one_circle():
    r = resolve(parse_pd("U"), ())
    assert r.circles == (-1,)
    assert r.thin_edges == (-1,)


def test_kink_resolutions():
    d = fixture("unknot_kink_pos")
    smooth = resolve(d, (0,))
    assert len(smooth.circles) == 2
    thick = resolve(d, (1,))
    assert len(thick.thick_edges) == 1
    assert len(thick.thin_edges) == 2
    assert len(thick.circles) == 0
    # the kink's thick edge sees each thin edge on both sides
    slots = thick.thick_edges[0].slots
    assert slots[0] == slots[2] and slots[1] == slots[3]


def test_choice_length_validated():
    with pytest.raises(ValueError):
        resolve(fixture("hopf_pos"), (0,))
    with pytest.raises(ValueError):
        resolve(fixture("hopf_pos"), (0, 2))


def test_parity_examples():
    assert p_parity(resolve(parse_pd("U"), ())) == 1
    d = fixture("hopf_pos")
    assert p_parity(resolve(d, (0, 0))) == 0  # two circles
    assert p_parity(resolve(d, (1, 1))) == 0  # smoothing back gives two circles


def test_parity_of_all_zero_choice_counts_circles():
    for name in fixture_names():
        d = fixture(name)
        r = resolve(d, (0,) * len(d.crossings))
        assert p_parity(r) == len(r.circles) % 2


def test_degree_examples():
    d = fixture("hopf_pos")
    assert degree(d, (0, 0)) == 0
    assert degree(d, (1, 1)) == 2
    assert degree(fixture("hopf_neg"), (1, 1)) == -2


def test_degree_changes_by_sign_under_single_flips():
    for name in ("hopf_pos", "hopf_neg", "trefoil_right", "figure_eight"):
        d = fixture(name)
        k = len(d.crossings)
        for choice in product((0, 1), repeat=k):
            base = degree(d, choice)
            for i in range(k):
                if choice[i] == 0:
                    flipped = choice[:i] + (1,) + choice[i + 1 :]
                    assert degree(d, flipped) == base + d.crossings[i].sign


def test_every_thin_edge_is_circle_or_interval():
    # resolve() raises if any thin edge has other than 0 or 2 endpoints
    for name in fixture_names():
        d = fixture(name)
        for choice in product((0, 1), repeat=len(d.crossings)):
            r = resolve(d, choice)
            incidence = {t: 0 for t in r.thin_edges}
            for thick in r.thick_edges:
                for s in thick.slots:
                    incidence[s] += 1
            for t in r.thin_edges:
                assert incidence[t] in (0, 2)
                assert (incidence[t] == 0) == (t in r.circles)


def test_smoothing_pairs_slots_13_and_24():
    # resolving 0 at a crossing merges exactly the classes that p_parity
    # merges when it undoes the matching thick edge
    d = fixture("trefoil_right")
    r0 = resolve(d, (0, 1, 1))
    r1 = resolve(d, (1, 1, 1))
    t = next(t for t in r1.thick_edges if t.crossing == 0)
    c = d.crossings[0]
    assert r0.slot[c.in_under] == r0.slot[c.out_over]
    assert r0.slot[c.in_over] == r0.slot[c.out_under]
    assert t.slots[0] == r1.thin_edges[r1.slot[c.out_over]]
    assert t.slots[2] == r1.thin_edges[r1.slot[c.in_under]]


def test_resolution_json_shape(capsys):
    # ``slndeform states`` is where a resolution is written out as JSON
    r = resolve(fixture("hopf_pos"), (1, 0))
    assert main(["states", "hopf_pos", "--resolution", "10", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["resolution"] == "10"
    assert blob["thin_edges"] == list(r.thin_edges)
    assert blob["thick_edges"] == [list(t.slots) for t in r.thick_edges]
    assert blob["circles"] == list(r.circles)


def test_slot_maps_arcs_then_loops_to_their_thin_edge_index():
    for name, r in _every_vertex():
        d = r.diagram
        loops = [-(i + 1) for i in range(d.free_loops)]
        assert list(r.slot) == list(d.arcs) + loops, (name, r.choice)
        for a, i in r.slot.items():
            assert r.thin_edges[i] == (a if a < 0 else min(
                b for b in d.arcs if r.slot[b] == i
            )), (name, r.choice, a)


def test_local_values_read_the_thick_edge_slots():
    for name, r in _every_vertex():
        state = tuple(range(len(r.thin_edges)))  # distinct labels: no misread hides
        for thick in r.thick_edges:
            c = r.diagram.crossings[thick.crossing]
            expected = tuple(state[r.thin_edges.index(t)] for t in thick.slots)
            assert r.local_values(state, c) == expected, (name, r.choice, c.id)


def test_state_of_inverts_coloring_on_every_admissible_state():
    for name, r in _every_vertex():
        for n in (3,) if name == "T(2,5)" else (2, 3):
            for s in enumerate_admissible(r, n):
                assert r.state_of(r.coloring(s)) == s, (name, r.choice, n, s)


def test_state_of_rejects_two_labels_on_one_thin_edge():
    r = resolve(fixture("hopf_pos"), (0, 0))
    coloring = r.coloring((0,) * len(r.thin_edges))
    # two arcs of one thin edge, told apart by the label of the second
    keys = list(r.slot)
    a = next(a for a in keys if a != r.thin_edges[r.slot[a]])
    broken = list(coloring)
    broken[keys.index(a)] = 1
    assert r.state_of(coloring) == (0,) * len(r.thin_edges)
    assert r.state_of(broken) is None


def _state_of_by_loop(r, coloring):
    """``state_of`` as one pass over the slots, the way it was written first."""
    out = [None] * len(r.thin_edges)
    for i, v in zip(r.slot.values(), coloring):
        if out[i] is None:
            out[i] = v
        elif out[i] != v:
            return None
    return tuple(out)


KINDS = ("consistent", "one label changed", "random")


@settings(max_examples=200, derandomize=True)
@given(braid_diagrams(), st.sampled_from(KINDS), st.data())
def test_state_of_matches_a_pass_over_the_slots(d, kind, data):
    labels = st.integers(min_value=0, max_value=3)
    r = resolve(d, data.draw(st.tuples(*[st.integers(0, 1)] * len(d.crossings))))
    if kind == "random":  # nearly always two labels on some thin edge
        coloring = data.draw(st.lists(labels, min_size=len(r.slot), max_size=len(r.slot)))
    else:
        coloring = list(r.coloring(data.draw(st.tuples(*[labels] * len(r.thin_edges)))))
    if kind == "one label changed":
        coloring[data.draw(st.integers(0, len(coloring) - 1))] = data.draw(labels)
    assert r.state_of(coloring) == _state_of_by_loop(r, coloring)
    assert r.state_of(tuple(coloring)) == _state_of_by_loop(r, coloring)
