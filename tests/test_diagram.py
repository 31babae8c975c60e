"""Parsing, orientation inference, signs, components and linking numbers."""

import pytest
from hypothesis import given, settings
from test_states import braid_diagrams

from slndeform.diagram import (
    DiagramError,
    linking_matrix,
    parse,
    parse_pd,
    parse_signed,
    render_signed,
    writhe,
)
from slndeform.fixtures import FIXTURES, fixture, fixture_names

HOPF_PD = "X[1,3,2,4] X[3,1,4,2]"


def test_free_loop_is_a_component():
    d = parse_pd("U")
    assert len(d.crossings) == 0
    assert d.component_count == 1
    assert d.free_loops == 1


def test_hopf_pd_two_components_equal_signs():
    d = parse_pd(HOPF_PD)
    assert len(d.crossings) == 2
    assert d.component_count == 2
    assert d.crossings[0].sign == d.crossings[1].sign


def test_dangling_arcs_rejected():
    with pytest.raises(DiagramError):
        parse_pd("X[1,3,2,4]")


def test_malformed_tokens_rejected():
    for bad in ("X[1,2,3]", "X[a,b,c,d]", "Y[1,2,3,4]", "X[1,2,2,1] garbage"):
        with pytest.raises(DiagramError):
            parse_pd(bad)
    with pytest.raises(DiagramError):
        parse_pd("")


def test_strand_reentering_own_slot_rejected():
    with pytest.raises(DiagramError):
        parse_pd("X[1,2,1,2]")


@pytest.mark.parametrize("parser,text,message", [
    (parse_pd, "X[1,2,3]", "malformed PD token 'X[1,2,3]'"),
    (parse_pd, "X[1,2,2,1] C[+;1,2,2,1]", "malformed PD token 'C[+;1,2,2,1]'"),
    (parse_signed, "C[+;1,2,3]", "malformed signed token 'C[+;1,2,3]'"),
    (parse_signed, "U X[1,2,2,1]", "malformed signed token 'X[1,2,2,1]'"),
    (parse_pd, "U X[1,2,1,2]", "token 'X[1,2,1,2]': strand re-enters its own slot"),
    (parse_signed, "C[-;1,2,3,2]", "token 'C[-;1,2,3,2]': strand re-enters its own slot"),
    (parse_pd, " ", "empty diagram input"),
    (parse_signed, "", "empty diagram input"),
])
def test_token_errors_of_both_formats(parser, text, message):
    with pytest.raises(DiagramError) as exc:
        parser(text)
    assert str(exc.value) == message


def test_signed_signs_are_read_per_token_beside_loops():
    d = parse_signed("U C[+;1,3,2,4] U C[\u2212;3,1,4,2]")
    assert [c.sign for c in d.crossings] == [1, -1] and d.free_loops == 2


def test_inconsistent_orientation_rejected():
    # arc 5 would have to end at both crossings
    with pytest.raises(DiagramError):
        parse_pd("X[5,1,2,3] X[5,3,2,1]")


def test_signed_hopf_positive_and_negative():
    pos = parse_signed("C[+;1,3,2,4] C[+;3,1,4,2]")
    neg = parse_signed("C[-;1,3,2,4] C[-;3,1,4,2]")
    assert linking_matrix(pos) == ((0, 1), (1, 0))
    assert linking_matrix(neg) == ((0, -1), (-1, 0))


def test_signed_invalid_sign_rejected():
    with pytest.raises(DiagramError):
        parse_signed("C[*;1,2,3,4]")


def test_signed_inconsistent_orientation_rejected():
    with pytest.raises(DiagramError):
        parse_signed("C[+;1,2,3,4] C[+;1,2,3,4]")


def test_linking_split_union_is_zero():
    d = parse_pd("U U")
    assert linking_matrix(d) == ((0, 0), (0, 0))


def test_linking_knot_is_zero_matrix():
    d = fixture("trefoil_right")
    assert linking_matrix(d) == ((0,),)


def test_writhe_values():
    assert writhe(parse_pd("U")) == 0
    assert writhe(fixture("trefoil_right")) == 3
    assert writhe(fixture("trefoil_left")) == -3
    assert writhe(fixture("hopf_neg")) == -2
    assert writhe(fixture("figure_eight")) == 0
    assert writhe(fixture("unknot_kink_pos")) == 1
    assert writhe(fixture("unknot_kink_neg")) == -1


def test_hopf_r2_keeps_linking_number():
    d = fixture("hopf_r2")
    assert writhe(d) == 2
    assert sorted(c.sign for c in d.crossings) == [-1, 1, 1, 1]
    assert linking_matrix(d) == ((0, 1), (1, 0))


def test_knots_trace_to_one_component():
    for name in ("trefoil_right", "trefoil_left", "figure_eight",
                 "unknot_kink_pos", "unknot_kink_neg"):
        assert fixture(name).component_count == 1


def test_writhe_decomposes_into_linking_and_self_crossings():
    for name in fixture_names():
        d = fixture(name)
        lk = linking_matrix(d)
        l = d.component_count
        inter = sum(2 * lk[i][j] for i in range(l) for j in range(i + 1, l))
        self_cross = sum(
            c.sign
            for c in d.crossings
            if d.component_of(c.in_under) == d.component_of(c.in_over)
        )
        assert inter + self_cross == writhe(d)


def test_render_signed_round_trip():
    for name in fixture_names():
        d = fixture(name)
        again = parse_signed(render_signed(d))
        assert again.to_json() == d.to_json()


def test_parse_dispatches_on_token_kind():
    assert parse(HOPF_PD).to_json() == parse_pd(HOPF_PD).to_json()
    signed = "C[+;1,3,2,4] C[+;3,1,4,2]"
    assert parse(signed).to_json() == parse_signed(signed).to_json()
    with pytest.raises(DiagramError):
        parse("X[1,3,2,4] C[+;3,1,4,2]")


def test_noncontiguous_arc_labels_tolerated():
    scaled = parse_pd("X[10,40,20,30] X[30,20,40,10]")
    plain = parse_pd(FIXTURES["hopf_pos"])
    assert [c.sign for c in scaled.crossings] == [c.sign for c in plain.crossings]
    assert linking_matrix(scaled) == ((0, 1), (1, 0))


def test_fully_over_component_gets_deterministic_orientation():
    # component {5, 6} never passes under; the numeric-successor tie-break
    # orients it, and both crossings come out positive (a Hopf diagram)
    d = parse_pd("X[1,5,2,6] X[2,6,1,5]")
    assert d.component_count == 2
    assert [c.sign for c in d.crossings] == [1, 1]
    assert linking_matrix(d) == ((0, 1), (1, 0))


def test_components_are_cyclic_successor_orbits():
    d = fixture("hopf_pos")
    assert d.components == ((1, 2), (3, 4))
    t = fixture("trefoil_right")
    assert t.components == ((1, 2, 3, 4, 5, 6),)


def test_tie_break_labels_span_every_later_never_under_component():
    # (2, 4) and (3, 7) never pass under; the first tie-break reads the
    # labels of both.  The code is not planar-consistent (each of the two
    # crosses (1, 5) once), but it parses.
    d = parse_pd("X[5,4,1,2] X[1,7,5,3] X[6,7,8,3] X[8,4,6,2]")
    assert [c.sign for c in d.crossings] == [1, 1, -1, -1]
    assert d.components == ((1, 5), (2, 4), (3, 7), (6, 8))


def test_tie_break_labels_decide_a_planar_orientation():
    # two circles lie over two clasps: (1, 6) over (2, 3), (4, 5) over
    # (7, 8).  Among 1, 4, 5, 6 the successor of 6 is 1, so (1, 6) runs
    # 6 -> 1 at crossing 0; its own labels alone would send 1 -> 6.
    d = parse_pd("X[2,1,3,6] X[3,1,2,6] X[7,4,8,5] X[8,4,7,5]")
    assert [c.sign for c in d.crossings] == [-1, 1, 1, -1]
    assert d.components == ((1, 6), (2, 3), (4, 5), (7, 8))
    assert linking_matrix(d) == tuple((0,) * 4 for _ in range(4))


def _render_pd(d):
    """PD tokens whose slot b holds the incoming over-strand at + crossings."""
    toks = [
        f"X[{c.in_under},{c.in_over},{c.out_under},{c.out_over}]" if c.sign > 0
        else f"X[{c.in_under},{c.out_over},{c.out_under},{c.in_over}]"
        for c in d.crossings
    ]
    return " ".join(toks + ["U"] * d.free_loops)


@settings(max_examples=60)
@given(braid_diagrams())
def test_walk_round_trips_generated_diagrams(d):
    assert parse_signed(render_signed(d)).to_json() == d.to_json()
    # PD leaves a component that never passes under to the tie-break, which
    # depends on how b and d are written, so only the others must round-trip
    unders = {c.in_under for c in d.crossings}
    if all(unders.intersection(comp) for comp in d.components):
        assert parse_pd(_render_pd(d)).to_json() == d.to_json()
