"""The three homology computations and their exact agreement."""

from collections import Counter

import pytest

from slndeform.chain import build_complex, rescale_basis
from slndeform import homology
from slndeform.cyclotomic import CycloField
from slndeform.diagram import parse, parse_pd
from slndeform.errors import InternalCheckError
from slndeform.fixtures import FIXTURES, fixture, fixture_names
from slndeform.homology import (
    GeneratorDescriptor,
    _non_survivor,
    _result,
    _survivor_psi,
    closed_form,
    compute_homology,
    cross_validate,
    matrix_rank,
    survivors_combinatorial,
)

TORUS_2_3 = FIXTURES["trefoil_right"]
TORUS_2_5 = "X[1,6,2,7] X[3,8,4,9] X[5,10,6,1] X[7,2,8,3] X[9,4,10,5]"


def test_matrix_rank_small_cases():
    fld = CycloField(3)
    one, zero = fld.one, fld.zero
    assert matrix_rank({}, 0) == 0
    assert matrix_rank({(0, 0): one, (1, 1): one}, 2) == 2
    # rank-1 matrix from an outer product
    entries = {(i, j): fld.root(i) * fld.root(j) for i in range(3) for j in range(3)}
    assert matrix_rank(entries, 3) == 1
    # a singular 3x3 with a zero row sum
    entries = {
        (0, 0): one, (0, 1): one,
        (1, 1): one, (1, 2): one,
        (2, 0): -one, (2, 1): -(one + one), (2, 2): -one,
    }
    assert matrix_rank(entries, 3) == 2
    assert matrix_rank({(0, 0): zero}, 1) == 0


def test_closed_form_unknot():
    assert closed_form(fixture("unknot0"), 3).dims == {0: 3}


def test_closed_form_hopf_and_unlink():
    assert closed_form(fixture("hopf_pos"), 2).dims == {0: 2, 2: 2}
    assert closed_form(fixture("unlink2"), 2).dims == {0: 4}


def test_closed_form_total_is_n_to_the_components():
    for name in fixture_names():
        d = fixture(name)
        for n in (2, 3):
            assert closed_form(d, n).total == n ** d.component_count


def test_compute_homology_hopf_pos():
    cx = build_complex(fixture("hopf_pos"), 2)
    res = compute_homology(cx)
    assert res.dims == {0: 2, 2: 2}
    assert res.dims == closed_form(fixture("hopf_pos"), 2).dims


def test_compute_homology_trefoil_is_two_dimensional():
    cx = build_complex(fixture("trefoil_right"), 2)
    assert compute_homology(cx).dims == {0: 2}


def test_compute_homology_hopf_neg():
    cx = build_complex(fixture("hopf_neg"), 2)
    assert compute_homology(cx).dims == {-2: 2, 0: 2}


def test_survivor_degrees():
    # constant colorings sit in the all-zero resolution at degree 0
    res = survivors_combinatorial(fixture("trefoil_right"), 3)
    assert res.dims == {0: 3}
    # bicolored Hopf colorings resolve to choice 11 at degree +-2
    pos = survivors_combinatorial(fixture("hopf_pos"), 2)
    assert pos.dims == {0: 2, 2: 2}
    neg = survivors_combinatorial(fixture("hopf_neg"), 2)
    assert neg.dims == {-2: 2, 0: 2}
    # unlinks resolve everything to 0
    assert survivors_combinatorial(fixture("unlink3"), 2).dims == {0: 8}


def test_unknot_diagrams_for_larger_n():
    for name in ("unknot_kink_pos", "unknot_kink_neg"):
        d = fixture(name)
        for n in (2, 3, 4):
            rep = cross_validate(d, n)
            assert rep.passed
            assert rep.computed.dims == {0: n}


def test_hopf_cross_validation():
    for n in (2, 3):
        rep = cross_validate(fixture("hopf_pos"), n)
        assert rep.passed
        assert rep.computed.dims == {0: n, 2: n * (n - 1)}


def test_closed_form_generators_must_match_the_survivors(monkeypatch):
    # swapping the degrees of psi = (0, 0) and (0, 1) keeps the dims
    real = closed_form

    def swapped(d, n):
        swap = {(0, 0): (0, 1), (0, 1): (0, 0)}
        degree = {g.psi: g.degree for g in real(d, n).generators}
        gens = [GeneratorDescriptor(degree[swap.get(p, p)], p) for p in degree]
        return _result(gens)

    monkeypatch.setattr(homology, "closed_form", swapped)
    rep = cross_validate(fixture("hopf_pos"), 2)
    assert rep.closed.dims == rep.survivors.dims == rep.computed.dims
    assert rep.closed.generators != rep.survivors.generators
    assert not rep.passed
    assert rep.messages == ["closed-form and survivor generator lists disagree"]


def test_trefoil_cross_validation():
    for n in (2, 3):
        for name in ("trefoil_right", "trefoil_left"):
            rep = cross_validate(fixture(name), n)
            assert rep.passed
            assert rep.computed.dims == {0: n}


def test_three_way_agreement_everywhere():
    for name in fixture_names():
        d = fixture(name)
        for n in (2, 3):
            rep = cross_validate(d, n)
            assert rep.passed, (name, n, rep.messages)
            assert rep.computed.generators == rep.closed.generators
            assert rep.computed.generators == rep.survivors.generators


def test_all_degrees_are_even():
    for name in fixture_names():
        res = closed_form(fixture(name), 3)
        assert all(k % 2 == 0 for k in res.dims)


def test_diagram_invariance_unknots():
    results = [
        cross_validate(fixture(name), 2).computed
        for name in ("unknot0", "unknot_kink_pos", "unknot_kink_neg")
    ]
    assert results[0].dims == results[1].dims == results[2].dims == {0: 2}


def test_diagram_invariance_hopf_r2():
    for n in (2, 3):
        a = cross_validate(fixture("hopf_pos"), n).computed
        b = cross_validate(fixture("hopf_r2"), n).computed
        assert a.dims == b.dims
        assert a.generators == b.generators


def test_euler_characteristics_agree():
    for name in fixture_names():
        d = fixture(name)
        cx = build_complex(d, 2)
        assert cx.euler_characteristic() == compute_homology(cx).euler_characteristic()


def test_curled_unknot_diagrams():
    # writhe +2 unknots with stacked and nested kinks; thick edges here see
    # repeated thin edges in several slot patterns
    for text in ("X[1,2,2,3] X[3,4,4,1]", "X[1,4,2,1] X[2,3,3,4]"):
        d = parse_pd(text)
        assert d.component_count == 1
        for n in (2, 3):
            rep = cross_validate(d, n)
            assert rep.passed, (text, n, rep.messages)
            assert rep.computed.dims == {0: n}


def test_generators_constant_per_component():
    d = parse_pd("X[1,4,2,3] X[3,2,4,1] U")  # hopf with a split circle
    rep = cross_validate(d, 2)
    assert rep.passed
    assert rep.computed.total == 8  # n^3
    for g in rep.computed.generators:
        assert len(g.psi) == 3


def test_homology_result_json():
    blob = closed_form(fixture("hopf_pos"), 2).to_json()
    assert blob["dims"] == {"0": 2, "2": 2}
    assert blob["total"] == 4
    assert all(set(g) == {"psi", "degree"} for g in blob["generators"])


# ----------------------------------------------------------------------
# Ranking by arc-coloring blocks
# ----------------------------------------------------------------------

def _assert_block_ranks_match(cx):
    block_sums = Counter()
    for per_degree in cx.blocks.values():
        for k, entries in per_degree.items():
            rows = {t: i for i, t in enumerate(sorted({t for t, _ in entries}))}
            block = {(rows[t], s): v for (t, s), v in entries.items()}
            block_sums[k] += matrix_rank(block, len(rows))
    for k, entries in cx.differentials.items():
        whole = matrix_rank(entries, len(cx.basis.get(k + 1, ())))
        assert block_sums[k] == whole, k
    # the generators, read off the untouched basis elements, are exactly
    # the basis elements that pass the survivor rule
    scan = []
    for k in cx.degrees:
        for el in cx.basis[k]:
            r = cx.resolutions[el.vertex]
            if _non_survivor(r, el.state) is None:
                scan.append(GeneratorDescriptor(k, _survivor_psi(r, el.state)))
    assert compute_homology(cx).generators == tuple(sorted(scan))


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("n", [2, 3])
def test_block_ranks_equal_whole_matrix_rank_on_fixtures(name, n):
    _assert_block_ranks_match(build_complex(fixture(name), n))


@pytest.mark.parametrize("code", [TORUS_2_3, TORUS_2_5], ids=["T(2,3)", "T(2,5)"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_block_ranks_equal_whole_matrix_rank_on_torus_knots(code, n):
    _assert_block_ranks_match(build_complex(parse_pd(code), n))


@pytest.mark.parametrize("code", [TORUS_2_3, TORUS_2_5], ids=["T(2,3)", "T(2,5)"])
@pytest.mark.parametrize("n", [3, 5, 6])
def test_block_ranks_equal_whole_matrix_rank_after_rescaling(code, n):
    rescaled = rescale_basis(build_complex(parse_pd(code), n), seed=n)
    assert any(
        any(v.coeffs[1:]) for entries in rescaled.differentials.values()
        for v in entries.values()
    )
    _assert_block_ranks_match(rescaled)


def test_entry_joining_two_arc_colorings_is_rejected():
    cx = build_complex(fixture("hopf_pos"), 2)
    b, per_degree = next(iter(cx.blocks.items()))
    k, entries = next(iter(per_degree.items()))
    (t, s), v = next(iter(entries.items()))
    target = cx.basis[k + 1][t]
    # two states of one resolution differ on some thin edge, hence on an arc
    other = next(
        i for i, el in enumerate(cx.basis[k + 1])
        if el.vertex == target.vertex and el.state != target.state
    )
    assert cx.block_of[k + 1][other] != b
    del entries[t, s]
    entries[other, s] = v
    with pytest.raises(InternalCheckError, match="arc colorings"):
        cx.check_d_squared()


PARTITION_CASES = [
    pytest.param(FIXTURES[name], n, id=f"{name}-{n}")
    for name in fixture_names()
    for n in (2, 3)
] + [
    pytest.param(TORUS_2_3, 3, id="T(2,3)-3"),
    pytest.param(TORUS_2_5, 3, id="T(2,5)-3"),
]


@pytest.mark.parametrize("code,n", PARTITION_CASES)
def test_block_of_is_the_arc_coloring_partition(code, n):
    cx = build_complex(parse(code), n)
    touched = {k: set() for k in cx.degrees}
    for k, entries in cx.differentials.items():
        for (t, s), v in entries.items():
            if not v.is_zero:
                touched[k].add(s)
                touched[k + 1].add(t)
    block_of_coloring = {}
    for k in cx.degrees:
        assert len(cx.block_of[k]) == len(cx.basis[k])
        for i, (el, b) in enumerate(zip(cx.basis[k], cx.block_of[k])):
            assert (b is None) == (i not in touched[k]), (k, el)
            if b is not None:
                coloring = cx.resolutions[el.vertex].coloring(el.state)
                assert block_of_coloring.setdefault(coloring, b) == b, (k, el)
    # equal colorings share a block id, and distinct colorings never do
    assert len(set(block_of_coloring.values())) == len(block_of_coloring)
    # each block is a cube over the set F of crossings where its members'
    # vertices differ: 2^|F| members, one per vertex, joined by
    # |F| * 2^(|F| - 1) entries
    members = {}
    for k in cx.degrees:
        for el, b in zip(cx.basis[k], cx.block_of[k]):
            if b is not None:
                members.setdefault(b, []).append(el.vertex)
    assert members.keys() == cx.blocks.keys()
    for b, vertices in members.items():
        free = {i for i, bits in enumerate(zip(*vertices)) if len(set(bits)) == 2}
        assert len(set(vertices)) == len(vertices) == 2 ** len(free), b
        entries = sum(len(e) for e in cx.blocks[b].values())
        assert entries == len(free) * 2 ** (len(free) - 1), b

    rescaled = rescale_basis(cx, seed=n)
    assert rescaled.block_of == cx.block_of

    def shape(c):
        return {
            (b, k, key) for b, per in c.blocks.items() for k in per for key in per[k]
        }

    assert shape(rescaled) == shape(cx)
    # each entry is stored once, in the block of both its ends, and the
    # merged view holds exactly the stored entries
    for c in (cx, rescaled):
        stored, total = {}, 0
        for b, per_degree in c.blocks.items():
            for k, entries in per_degree.items():
                assert entries, (b, k)
                total += len(entries)
                for (t, s), v in entries.items():
                    assert c.block_of[k][s] == b and c.block_of[k + 1][t] == b
                    stored[k, t, s] = v
        merged = c.differentials
        assert sum(len(e) for e in merged.values()) == total
        flat = {(k, t, s): v for k, e in merged.items() for (t, s), v in e.items()}
        assert flat == stored


def test_kink_beside_five_unknots_cross_validates():
    rep = cross_validate(parse_pd("X[1,2,2,1] U U U U U"), 4)
    assert rep.passed, rep.messages
    assert rep.computed.dims == {0: 4096}
