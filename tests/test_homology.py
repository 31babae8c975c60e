"""The three homology computations and their exact agreement."""

import gc
import re
from array import array
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from slndeform.chain import (
    Block,
    ChainBasisElement,
    LocalType,
    build_complex,
    rescale_basis,
)
from slndeform import homology
from slndeform.cyclotomic import CycloField
from slndeform.diagram import linking_matrix, parse, parse_pd, parse_signed, render_signed
from slndeform.errors import InternalCheckError, SizeBoundError
from slndeform.fixtures import FIXTURES, fixture, fixture_names
from slndeform.homology import (
    GeneratorDescriptor,
    HomologyResult,
    _non_survivor,
    closed_form,
    compute_homology,
    cross_validate,
    matrix_rank,
    survivors_combinatorial,
)
from slndeform.resolution import Resolution, degree as vertex_degree, resolve
from test_states import braid_diagrams

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
    # int entries are eliminated exactly: in floats 7 - 7 * (1/3) * 3 is not 0
    assert matrix_rank({(0, 0): 3, (0, 1): 3, (1, 0): 7, (1, 1): 7}, 2) == 1


# ----------------------------------------------------------------------
# Ranks proven by a triangular matching under a ceiling
# ----------------------------------------------------------------------

def _no_elimination(entries, nrows):
    raise AssertionError("matrix_rank fell back to elimination")


def test_a_cyclic_matching_falls_back_to_elimination():
    one = CycloField(2).one
    # greedy pairs (0, 0) and (1, 1); each column also meets the other's
    # row, so the matched submatrix is not triangular
    ones = {(0, 0): one, (0, 1): one, (1, 0): one, (1, 1): one}
    assert matrix_rank(ones, 2, ceiling=2) == 1


def test_a_triangular_matching_meeting_its_ceiling_is_the_rank(monkeypatch):
    one = CycloField(3).one
    monkeypatch.setattr(homology, "_eliminate", _no_elimination)
    assert matrix_rank({(0, 0): one, (0, 1): one, (1, 1): one}, 2, ceiling=2) == 2
    assert matrix_rank({}, 0, ceiling=0) == 0


def test_zero_entries_never_pair():
    fld = CycloField(3)
    one, zero = fld.one, fld.zero
    assert matrix_rank({(0, 0): zero, (1, 1): one}, 2, ceiling=2) == 1
    assert matrix_rank({(0, 0): zero}, 1, ceiling=1) == 0


@st.composite
def sparse_matrices(draw):
    """(entries, nrows) over Q(zeta_n), n = 2..6, keys in a drawn order.

    Entries include explicit zeros.  Half the matrices are the product of
    an nrows x inner and an inner x ncols matrix, every cell stored (zero
    or not), so their rank is often below their shape.
    """
    fld = CycloField(draw(st.integers(min_value=2, max_value=6)))
    values = st.one_of(
        st.sampled_from((fld.zero, fld.one, -fld.one)),
        st.integers(min_value=0, max_value=fld.n - 1).map(fld.root),
        st.lists(
            st.integers(min_value=-2, max_value=2),
            min_size=fld.degree, max_size=fld.degree,
        ).map(fld.element),
    )
    nrows = draw(st.integers(min_value=0, max_value=5))
    ncols = draw(st.integers(min_value=0, max_value=5))
    cells = draw(st.permutations([(r, c) for r in range(nrows) for c in range(ncols)]))
    if draw(st.booleans()):
        inner = draw(st.integers(min_value=1, max_value=3))
        left = [[draw(values) for _ in range(inner)] for _ in range(nrows)]
        right = [[draw(values) for _ in range(ncols)] for _ in range(inner)]
        entries = {}
        for r, c in cells:
            total = fld.zero
            for i in range(inner):
                total = total + left[r][i] * right[i][c]
            entries[r, c] = total
        return entries, nrows
    kept = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    return {cell: draw(values) for cell, keep in zip(cells, kept) if keep}, nrows


@settings(max_examples=200)
@given(sparse_matrices())
def test_any_true_ceiling_gives_the_eliminated_rank(matrix):
    entries, nrows = matrix
    rank = matrix_rank(entries, nrows)
    columns = len({c for _, c in entries})
    for ceiling in range(rank, max(nrows, columns) + 2):
        assert matrix_rank(entries, nrows, ceiling=ceiling) == rank, ceiling


@settings(max_examples=100)
@given(sparse_matrices(), st.integers(min_value=1, max_value=4))
def test_copies_multiply_the_rank_under_any_true_ceiling(matrix, copies):
    entries, nrows = matrix
    rank = matrix_rank(entries, nrows)
    assert matrix_rank(entries, nrows, copies=copies) == copies * rank
    columns = len({c for _, c in entries})
    for ceiling in range(copies * rank, copies * max(nrows, columns) + 2):
        assert matrix_rank(entries, nrows, ceiling=ceiling, copies=copies) == copies * rank


TORUS_2_7 = (
    "X[1,8,2,9] X[3,10,4,11] X[5,12,6,13] X[7,14,8,1] "
    "X[9,2,10,3] X[11,4,12,5] X[13,6,14,7]"
)


def _ranked_without_elimination(d, n, rescale_seed=None):
    cx = build_complex(d, n)
    if rescale_seed is not None:
        cx = rescale_basis(cx, seed=rescale_seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_eliminate", _no_elimination)
        assert compute_homology(cx).dims == closed_form(d, n).dims


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_fixture_block_is_ranked_by_its_matching(name, n):
    _ranked_without_elimination(fixture(name), n)


def test_torus_2_7_blocks_are_ranked_by_their_matchings():
    _ranked_without_elimination(parse_pd(TORUS_2_7), 4)


@pytest.mark.parametrize("code", [TORUS_2_3, TORUS_2_5], ids=["T(2,3)", "T(2,5)"])
def test_rescaled_blocks_are_ranked_by_their_matchings(code):
    _ranked_without_elimination(parse_pd(code), 5, rescale_seed=5)


@settings(max_examples=15)
@given(braid_diagrams(), st.sampled_from((2, 3)))
def test_generated_blocks_are_ranked_by_their_matchings(d, n):
    _ranked_without_elimination(d, n)


def _negated(dims):
    return {-k: v for k, v in dims.items()}


@settings(max_examples=30, derandomize=True)
@given(braid_diagrams(), st.sampled_from((3, 4)))
def test_mirroring_negates_every_degree(d, n):
    # the mirror keeps every arc and flips every crossing sign, so the cube
    # and its states are the same and each vertex degree changes sign
    mirror = parse_signed(render_signed(d).translate(str.maketrans("+-", "-+")))
    assert [c.sign for c in mirror.crossings] == [-c.sign for c in d.crossings]
    original, mirrored = cross_validate(d, n), cross_validate(mirror, n)
    assert original.passed, original.messages
    assert mirrored.passed, mirrored.messages
    assert mirrored.computed.dims == _negated(original.computed.dims)
    assert build_complex(mirror, n).dims() == _negated(build_complex(d, n).dims())


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
        return reference_result(gens)

    monkeypatch.setattr(homology, "closed_form", swapped)
    rep = cross_validate(fixture("hopf_pos"), 2)
    assert rep.closed.dims == rep.survivors.dims == rep.computed.dims
    assert rep.closed.generators != rep.survivors.generators
    assert not rep.passed
    assert rep.messages == ["closed-form and survivor generator lists disagree"]


def test_computed_generators_must_match_the_survivors(monkeypatch):
    # moving the rank computation's (0, 1) from degree 2 to degree 0 keeps
    # its dims; only the generator columns can tell
    real = compute_homology

    def moved(cx):
        result = real(cx)
        psis = {0: tuple(sorted(result.psis[0] + ((0, 1),))),
                2: tuple(p for p in result.psis[2] if p != (0, 1))}
        return replace(result, psis=psis)

    monkeypatch.setattr(homology, "compute_homology", moved)
    rep = cross_validate(fixture("hopf_pos"), 2)
    assert rep.closed.dims == rep.survivors.dims == rep.computed.dims
    assert not rep.passed
    assert rep.messages == ["survivor generator lists disagree"]


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

@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in ("hopf_pos", "trefoil_left") for n in (7, 11, 12)]
    + [("figure_eight", 7)],
)
def test_three_way_and_rescaled_elimination_past_n6(name, n):
    # Q(zeta_n) of degree 6, 10 and 4: the complex meets fields no lower n has
    d = fixture(name)
    report = cross_validate(d, n)
    assert report.passed, report.messages
    rescaled = rescale_basis(build_complex(d, n), n)
    assert rescaled.check_d_squared() is None
    assert eliminated_dims(rescaled) == report.closed.dims


def block_ranks(cx):
    """degree k -> the sum of every block's rank of d_k, each by elimination."""
    ranks = Counter()
    for members, d in cx.blocks:
        for k, entries in d.items():
            ranks[k] += matrix_rank(entries, len(members[k + 1]))
    return ranks


def eliminated_dims(cx):
    """Homology dims, every block's degrees ranked by elimination.

    ``compute_homology`` ranks by the matching, which reads only which
    entries are nonzero; elimination reads their values, so only it can
    tell whether a rescaled complex keeps the homology.
    """
    ranks = block_ranks(cx)
    dims = {k: len(cx.basis[k]) - ranks[k] - ranks[k - 1] for k in cx.degrees}
    return {k: dim for k, dim in dims.items() if dim}


def block_of(cx):
    """degree -> each basis element's block number, or None, from the members."""
    out = {k: [None] * len(column) for k, column in cx.basis.items()}
    for b, (members, _) in enumerate(cx.blocks):
        for k, column in members.items():
            for i in column:
                out[k][i] = b
    return out


def own_block(cx, b):
    """Give block b of ``cx`` its own copy of ``d`` and return that copy.

    Blocks of one cube share ``d``, so a fault is injected into this copy,
    never into the shared matrices.
    """
    members, d = cx.blocks[b]
    copy = {k: dict(entries) for k, entries in d.items()}
    cx.blocks = cx.blocks[:b] + (Block(members, copy),) + cx.blocks[b + 1:]
    return copy


def _assert_block_ranks_match(cx):
    block_sums = block_ranks(cx)
    for k, entries in cx.differentials.items():
        whole = matrix_rank(entries, len(cx.basis.get(k + 1, ())))
        assert block_sums[k] == whole, k
    # the generators, read off the untouched basis elements, are exactly
    # the basis elements that pass the survivor rule
    scan = []
    for k in cx.degrees:
        for el in cx.basis[k]:
            r = resolve(cx.diagram, el.vertex)
            if _non_survivor(r, el.state) is None:
                psi = _survivor_psi(_psi_layout(r), el.state)
                scan.append(GeneratorDescriptor(k, psi))
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
    # a block is block-local: an entry cannot reach past its block's
    # members, and no basis element may lie in two blocks
    built = build_complex(fixture("hopf_pos"), 2)
    for row in ("past", "negative"):
        cx = replace(built)
        members, _ = cx.blocks[0]
        d = own_block(cx, 0)
        k, entries = next(iter(d.items()))
        (t, s), v = next(iter(entries.items()))
        del entries[t, s]
        entries[len(members[k + 1]) if row == "past" else -1, s] = v
        with pytest.raises(InternalCheckError, match=rf"d_{k} entry \(.*\) lies outside block 0"):
            cx.check_d_squared()
    assert built.check_d_squared() is None  # the shared matrices are untouched

    cx = replace(built)
    (members0, _), (members1, d1) = cx.blocks[:2]
    k = min(members1)
    taken = members0[k][0]
    # block 1 swaps its first degree-k member for one of block 0's
    stolen = {**members1, k: (taken,) + tuple(members1[k][1:])}
    cx.blocks = (cx.blocks[0], Block(stolen, d1)) + cx.blocks[2:]
    with pytest.raises(
        InternalCheckError,
        match=re.escape(f"{cx.basis[k][taken]} lies in blocks 0 and 1"),
    ):
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
    owner = block_of(cx)
    touched = {k: set() for k in cx.degrees}
    for k, entries in cx.differentials.items():
        for (t, s), v in entries.items():
            # the complex is integral: assembly stores the cube signs as ints
            assert type(v) is int and v in (1, -1), (k, t, s, v)
            if v:
                touched[k].add(s)
                touched[k + 1].add(t)
    block_of_coloring = {}
    for k in cx.degrees:
        for i, (el, b) in enumerate(zip(cx.basis[k], owner[k])):
            assert (b is None) == (i not in touched[k]), (k, el)
            if b is not None:
                coloring = resolve(cx.diagram, el.vertex).coloring(el.state)
                assert block_of_coloring.setdefault(coloring, b) == b, (k, el)
    # equal colorings share a block id, and distinct colorings never do
    assert len(set(block_of_coloring.values())) == len(block_of_coloring)
    # each block is a cube over the set F of crossings where its members'
    # vertices differ: 2^|F| members, one per vertex, joined by
    # |F| * 2^(|F| - 1) entries
    members = {}
    for k in cx.degrees:
        for el, b in zip(cx.basis[k], owner[k]):
            if b is not None:
                members.setdefault(b, []).append(el.vertex)
    assert sorted(members) == list(range(len(cx.blocks)))
    for b, vertices in members.items():
        free = {i for i, bits in enumerate(zip(*vertices)) if len(set(bits)) == 2}
        assert len(set(vertices)) == len(vertices) == 2 ** len(free), b
        entries = sum(len(e) for e in cx.blocks[b].d.values())
        assert entries == len(free) * 2 ** (len(free) - 1), b
        # a block's members ascend in each degree, so its local positions
        # order as the global indices do
        for column in cx.blocks[b].members.values():
            assert list(column) == sorted(column), b

    rescaled = rescale_basis(cx, seed=n)
    assert block_of(rescaled) == owner

    def shape(c):
        return [(members, {k: list(e) for k, e in d.items()}) for members, d in c.blocks]

    assert shape(rescaled) == shape(cx)
    # each entry is stored once, in the block of both its ends, and the
    # merged view holds exactly the stored entries
    for c in (cx, rescaled):
        stored, total = {}, 0
        for b, (block_members, d) in enumerate(c.blocks):
            for k, entries in d.items():
                assert entries, (b, k)
                total += len(entries)
                rows, cols = block_members[k + 1], block_members[k]
                for (t, s), v in entries.items():
                    assert owner[k][cols[s]] == b and owner[k + 1][rows[t]] == b
                    stored[k, rows[t], cols[s]] = v
        merged = c.differentials
        assert sum(len(e) for e in merged.values()) == total
        flat = {(k, t, s): v for k, e in merged.items() for (t, s), v in e.items()}
        assert flat == stored


def test_kink_beside_five_unknots_cross_validates():
    rep = cross_validate(parse_pd("X[1,2,2,1] U U U U U"), 4)
    assert rep.passed, rep.messages
    assert rep.computed.dims == {0: 4096}


# ----------------------------------------------------------------------
# Each shared cube matrix ranked once
# ----------------------------------------------------------------------

def reference_dims(cx):
    """Homology dims with every block ranked on its own, under its ceiling.

    The reference for ``compute_homology``, which ranks each shared ``d``
    once: a block's degrees in ascending order, each with the ceiling (its
    members in degree k) - rank(its d_{k-1}).
    """
    ranks = Counter()
    for members, d in cx.blocks:
        block_rank = {}
        for k in sorted(d):
            ceiling = len(members[k]) - block_rank.get(k - 1, 0)
            block_rank[k] = matrix_rank(d[k], len(members[k + 1]), ceiling=ceiling)
            ranks[k] += block_rank[k]
    dims = {k: len(cx.basis[k]) - ranks[k] - ranks[k - 1] for k in cx.degrees}
    return {k: dim for k, dim in dims.items() if dim}


def _rank_calls(monkeypatch):
    """(id of the entries, rows) -> the ``copies`` of each ``matrix_rank`` call on them."""
    calls = {}
    rank = homology.matrix_rank

    def spy(entries, nrows, *, ceiling=None, copies=1):
        calls.setdefault((id(entries), nrows), []).append(copies)
        return rank(entries, nrows, ceiling=ceiling, copies=copies)

    monkeypatch.setattr(homology, "matrix_rank", spy)
    return calls


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("n", [2, 3, 4])
def test_ranks_once_per_cube_equal_the_block_loop_on_fixtures(name, n):
    cx = build_complex(fixture(name), n)
    assert compute_homology(cx).dims == reference_dims(cx)


@settings(max_examples=20, deadline=None)
@given(braid_diagrams(), st.sampled_from((2, 3, 4)))
def test_ranks_once_per_cube_equal_the_block_loop_on_generated_diagrams(d, n):
    try:
        cx = build_complex(d, n, max_chain_dim=20_000)
    except SizeBoundError:
        assume(False)
    assert compute_homology(cx).dims == reference_dims(cx)


@pytest.mark.parametrize("code", [TORUS_2_3, TORUS_2_5], ids=["T(2,3)", "T(2,5)"])
@pytest.mark.parametrize("n", [3, 5])
def test_rescaled_blocks_are_ranked_block_by_block(monkeypatch, code, n):
    rescaled = rescale_basis(build_complex(parse_pd(code), n), seed=n)
    calls = _rank_calls(monkeypatch)
    assert compute_homology(rescaled).dims == reference_dims(rescaled)
    # every block owns its d, so each of its matrices is ranked once, alone
    assert calls == {
        (id(entries), len(members[k + 1])): [1]
        for members, d in rescaled.blocks for k, entries in d.items()
    }


def _shared_cube(cx, entries=None, degrees=1):
    """The ``d`` held by the most blocks, and those blocks' numbers.

    With ``entries``, only a ``d`` of that many entries in all is taken;
    only a ``d`` of at least ``degrees`` degrees is taken.
    """
    holders = {}
    for b, (_, d) in enumerate(cx.blocks):
        if len(d) >= degrees and (entries is None or sum(map(len, d.values())) == entries):
            holders.setdefault(id(d), []).append(b)
    blocks = max(holders.values(), key=len)
    assert len(blocks) > 1
    return cx.blocks[blocks[0]].d, blocks


def test_shared_cube_matrices_are_ranked_once_for_all_their_blocks(monkeypatch):
    cx = build_complex(parse_pd(TORUS_2_7), 4)
    calls = _rank_calls(monkeypatch)
    assert compute_homology(cx).dims == reference_dims(cx)
    held = Counter(id(d) for _, d in cx.blocks)
    assert len(held) < len(cx.blocks)
    # one call per distinct d and degree, for every block that holds it
    assert calls == {
        (id(entries), len(members[k + 1])): [held[id(d)]]
        for members, d in cx.blocks for k, entries in d.items()
    }


def test_an_entry_zeroed_in_a_shared_cube_shifts_every_block_of_it(monkeypatch):
    d = parse_pd(TORUS_2_5)
    cx = build_complex(d, 3)
    base = compute_homology(cx).dims
    # a cube over one free crossing: its one entry is the whole of d[k]
    shared, blocks = _shared_cube(cx, entries=1)
    (k, entries), = shared.items()
    entries[next(iter(entries))] = 0  # in place: every block of the cube sees it
    shifted = Counter(base)
    shifted[k] += len(blocks)
    shifted[k + 1] += len(blocks)
    assert compute_homology(cx).dims == reference_dims(cx) == dict(sorted(shifted.items()))
    monkeypatch.setattr(homology, "build_complex", lambda *args, **kwargs: cx)
    report = cross_validate(d, 3)
    # a cube over one crossing has no square, so only the ranks tell
    assert report.computed.dims == dict(sorted(shifted.items()))
    assert report.messages == [
        f"rank computation {report.computed.dims} != closed form {report.closed.dims}"
    ]


def test_a_block_with_its_own_faulted_copy_is_ranked_on_its_own(monkeypatch):
    cx = build_complex(parse_pd(TORUS_2_5), 3)
    base = compute_homology(cx).dims
    shared, blocks = _shared_cube(cx, entries=1)
    b = blocks[-1]
    (k, entries), = shared.items()
    copy = {k: dict.fromkeys(entries, 0)}
    cx.blocks = tuple(
        block._replace(d=copy) if i == b else block for i, block in enumerate(cx.blocks)
    )
    shifted = Counter(base)
    shifted[k] += 1
    shifted[k + 1] += 1
    calls = _rank_calls(monkeypatch)
    assert compute_homology(cx).dims == reference_dims(cx) == dict(sorted(shifted.items()))
    rows = len(cx.blocks[b].members[k + 1])
    assert calls[id(copy[k]), rows] == [1]
    assert calls[id(entries), rows] == [len(blocks) - 1]


def test_a_block_of_other_sizes_is_ranked_apart_from_its_cube(monkeypatch):
    cx = build_complex(parse_pd(TORUS_2_5), 3)
    base = compute_homology(cx).dims
    shared, blocks = _shared_cube(cx, degrees=2)
    assert len(shared) > 1
    b = blocks[-1]
    members = cx.blocks[b].members
    top = max(members)
    # one more row in the top degree: the same matrices at other sizes
    grown = {**members, top: array("q", [*members[top], members[top][-1]])}
    cx.blocks = tuple(
        block._replace(members=grown) if i == b else block for i, block in enumerate(cx.blocks)
    )
    calls = _rank_calls(monkeypatch)
    assert compute_homology(cx).dims == reference_dims(cx) == base
    for k, entries in shared.items():
        rows = len(members[k + 1])
        if k + 1 == top:
            assert calls[id(entries), rows] == [len(blocks) - 1]
            assert calls[id(entries), rows + 1] == [1]
        else:
            # every degree of the grown block is ranked apart
            assert sorted(calls[id(entries), rows]) == [1, len(blocks) - 1]


# ----------------------------------------------------------------------
# The records and the checks of the per-coloring loops
# ----------------------------------------------------------------------

def test_records_are_immutable_named_tuples_ordered_by_their_fields():
    g = GeneratorDescriptor(0, (0, 1))
    assert GeneratorDescriptor._fields == ("degree", "psi")
    assert repr(g) == "GeneratorDescriptor(degree=0, psi=(0, 1))"
    el = ChainBasisElement((0, 1), (2, 0, 1), -1)
    assert ChainBasisElement._fields == ("vertex", "state", "degree")
    assert repr(el) == "ChainBasisElement(vertex=(0, 1), state=(2, 0, 1), degree=-1)"
    for record, name in ((g, "psi"), (el, "state")):
        with pytest.raises(AttributeError):
            setattr(record, name, ())
        with pytest.raises(TypeError):
            record[0] = 1
    gens = [GeneratorDescriptor(2, (0, 1)), GeneratorDescriptor(0, (1, 0)),
            GeneratorDescriptor(0, (0, 1)), GeneratorDescriptor(-2, (1, 1))]
    assert sorted(gens) == [gens[3], gens[2], gens[1], gens[0]]


def _with_coloring(cx, i, labels):
    """``cx`` with its ``i``-th arc coloring relabelled to ``labels``."""
    colorings = list(cx.colorings)
    _, free, ones = colorings[i]
    colorings[i] = (tuple(labels), free, ones)
    return replace(cx, colorings=colorings)


def test_generator_scan_rejects_a_state_not_constant_on_a_component():
    cx = build_complex(fixture("trefoil_right"), 2)
    i, labels = next(
        (i, labels) for i, (labels, free, _) in enumerate(cx.colorings) if not free
    )
    # the knot's one component runs through every arc: relabel the last
    bad = labels[:-1] + (1 - labels[-1],)
    comp = cx.diagram.components[0]
    message = re.escape(f"coloring {bad} is not constant on component {comp}")
    with pytest.raises(InternalCheckError, match=message):
        compute_homology(_with_coloring(cx, i, bad))


def test_survivors_reject_an_ill_defined_induced_state(monkeypatch):
    monkeypatch.setattr(Resolution, "state_of", lambda self, coloring: None)
    with pytest.raises(InternalCheckError, match="induces an ill-defined state"):
        survivors_combinatorial(fixture("hopf_pos"), 2)


def test_survivors_reject_an_induced_state_of_the_wrong_type(monkeypatch):
    monkeypatch.setattr(
        homology, "_non_survivor", lambda r, state: (0, LocalType.TYPE1, LocalType.TYPE2)
    )
    with pytest.raises(InternalCheckError, match="has type .* at crossing 0, expected"):
        survivors_combinatorial(fixture("hopf_pos"), 2)


# a Hopf clasp beside three free loops: the loops lead every state and
# trail every coloring of the components
HOPF_U3 = "C[+;1,2,3,4] C[+;4,3,2,1] U U U"


def test_generator_scan_with_loops_rejects_a_state_not_constant_on_a_component():
    cx = build_complex(parse(HOPF_U3), 2)
    d = cx.diagram
    assert d.free_loops == 3
    # a free-less coloring, relabelled on the second arc of a component
    i, labels = next(
        (i, labels) for i, (labels, free, _) in enumerate(cx.colorings) if not free
    )
    comp = next(comp for comp in d.components if len(comp) > 1)
    p = d.arcs.index(comp[1])
    bad = labels[:p] + (1 - labels[p],) + labels[p + 1:]
    message = re.escape(f"is not constant on component {comp}")
    with pytest.raises(InternalCheckError, match=message):
        compute_homology(_with_coloring(cx, i, bad))


def test_survivors_with_loops_reject_an_ill_defined_induced_state(monkeypatch):
    monkeypatch.setattr(Resolution, "state_of", lambda self, coloring: None)
    with pytest.raises(
        InternalCheckError, match=re.escape("coloring (0, 0, 0, 0, 0) induces an ill-defined")
    ):
        survivors_combinatorial(parse(HOPF_U3), 2)


def test_survivors_with_loops_reject_an_induced_state_of_the_wrong_type(monkeypatch):
    monkeypatch.setattr(
        homology, "_non_survivor", lambda r, state: (0, LocalType.TYPE1, LocalType.TYPE2)
    )
    with pytest.raises(InternalCheckError, match="has type .* at crossing 0, expected"):
        survivors_combinatorial(parse(HOPF_U3), 2)


@pytest.mark.parametrize("code, n", [(HOPF_U3, 3), ("U U U U U U U", 4)])
def test_cross_validate_keeps_generators_as_untracked_columns(code, n):
    d = parse(code)
    rep = cross_validate(d, n)
    assert rep.passed, rep.messages
    results = (rep.computed, rep.closed, rep.survivors)
    assert all("generators" not in vars(r) for r in results)  # no record built
    # a full collection untracks each coloring, a tuple of ints; the next
    # one untracks its column, which the first may have scanned before them
    gc.collect()
    gc.collect()
    for r in results:
        assert list(r.psis) == sorted(r.psis)
        assert not any(map(gc.is_tracked, r.psis.values()))
    # the records, built on first read, are the per-coloring references'
    expected = reference_generator_scan(build_complex(d, n))
    assert reference_closed_form(d, n).generators == expected
    assert reference_survivors(d, n).generators == expected
    for r in results:
        assert r.generators == expected
        assert all(type(g) is GeneratorDescriptor for g in r.generators)
        assert r.generators is vars(r)["generators"]


def _tie_a_loop(r):
    """``r`` with the first arc's coloring position tied to the first loop's."""
    ties = (r.ties[0] + (0,), r.ties[1] + (len(r.diagram.arcs),))
    return replace(r, ties=ties)


def _cross_a_loop(r):
    """``r`` with the first crossing's out-over arc read from the first loop's slot."""
    slot = dict(r.slot)
    slot[r.diagram.crossings[0].out_over] = r.slot[-1]
    return replace(r, slot=slot)


@pytest.mark.parametrize("fault", [_tie_a_loop, _cross_a_loop])
def test_survivors_reject_a_resolution_that_reads_a_loop(monkeypatch, fault):
    real = homology.resolve
    monkeypatch.setattr(homology, "resolve", lambda d, choice: fault(real(d, choice)))
    with pytest.raises(InternalCheckError, match="reads a free loop"):
        survivors_combinatorial(parse(HOPF_U3), 2)


# ----------------------------------------------------------------------
# The per-coloring loops that the loop factor and the bulk scan replaced,
# kept as references: one Python iteration per coloring or basis element
# ----------------------------------------------------------------------

def reference_result(pairs):
    psis = {}
    for degree, psi in sorted(pairs):
        psis.setdefault(degree, []).append(psi)
    return HomologyResult(
        dims={k: len(c) for k, c in psis.items()},
        psis={k: tuple(c) for k, c in psis.items()},
    )


def reference_closed_form(d, n):
    lk = linking_matrix(d)
    l = d.component_count
    linked = [(i, j) for i in range(l) for j in range(i + 1, l) if lk[i][j]]
    return reference_result(
        GeneratorDescriptor(sum(2 * lk[i][j] for i, j in linked if psi[i] != psi[j]), psi)
        for psi in product(range(n), repeat=l)
    )


def reference_survivors(d, n):
    l = d.component_count
    strands = [
        (d.component_of(c.in_under), d.component_of(c.in_over)) for c in d.crossings
    ]
    carrier = [d.component_of(a) for a in d.arcs] + list(range(len(d.components), l))
    vertices = {}
    gens = []
    for psi in product(range(n), repeat=l):
        choice = tuple([0 if psi[i] == psi[j] else 1 for i, j in strands])
        vertex = vertices.get(choice)
        if vertex is None:
            vertex = vertices[choice] = (resolve(d, choice), vertex_degree(d, choice))
        r, degree = vertex
        state = r.state_of([psi[i] for i in carrier])
        assert state is not None and _non_survivor(r, state) is None, (psi, choice)
        gens.append(GeneratorDescriptor(degree, psi))
    return reference_result(gens)


def _psi_layout(r):
    """Where a survivor state of ``r`` keeps its coloring of the components.

    Returns one state slot per component, in component order (free loops
    last), and the (slot, other slot, component) ties that a state must
    satisfy to be constant on each component.
    """
    d = r.diagram
    reads, ties = [], []
    for comp in d.components:
        first, *rest = dict.fromkeys(r.slot[a] for a in comp)
        reads.append(first)
        ties.extend((first, other, comp) for other in rest)
    reads.extend(r.slot[-(i + 1)] for i in range(d.free_loops))
    return reads, ties


def _survivor_psi(layout, state):
    """Read a survivor state's coloring through its vertex's ``_psi_layout``."""
    reads, ties = layout
    for a, b, comp in ties:
        assert state[a] == state[b], (state, comp)
    return tuple([state[i] for i in reads])


def reference_generator_scan(cx):
    """The generators read off the states of the elements of no block."""
    layouts = {}
    gens = []
    owner = block_of(cx)
    for k in cx.degrees:
        for (vertex, state, _), b in zip(cx.basis[k], owner[k]):
            if b is None:
                layout = layouts.get(vertex)
                if layout is None:
                    layout = layouts[vertex] = _psi_layout(resolve(cx.diagram, vertex))
                gens.append(GeneratorDescriptor(k, _survivor_psi(layout, state)))
    gens.sort()
    return tuple(gens)


# chain elements a loop-extended case may have, to keep the whole near 2 s
LOOP_CASE_CHAIN_MAX = 20_000


def _assert_per_coloring_equivalence(d, n):
    for new, old in ((closed_form(d, n), reference_closed_form(d, n)),
                     (survivors_combinatorial(d, n), reference_survivors(d, n))):
        assert list(new.dims.items()) == list(old.dims.items())
        assert new.generators == old.generators
        assert all(type(g) is GeneratorDescriptor for g in new.generators)
    cx = build_complex(d, n)
    assert compute_homology(cx).generators == reference_generator_scan(cx)


def _beside_loops(text, n):
    """(loops, diagram) for 0..4 unknots beside ``text``, within the chain bound."""
    base = sum(build_complex(parse(text), n).dims().values())
    return [
        (loops, parse(" ".join([text] + ["U"] * loops)))
        for loops in range(5) if base * n**loops <= LOOP_CASE_CHAIN_MAX
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_loop_factor_matches_the_per_coloring_loops_on_fixtures(n):
    for name in fixture_names():
        cases = _beside_loops(FIXTURES[name], n)
        assert len(cases) >= 3, name  # at least 0, 1 and 2 unknots beside it
        for loops, d in cases:
            assert d.free_loops == fixture(name).free_loops + loops
            _assert_per_coloring_equivalence(d, n)


@settings(max_examples=25)
@given(braid_diagrams(max_letters=4), st.sampled_from((2, 3, 4)),
       st.integers(min_value=0, max_value=4))
def test_loop_factor_matches_the_per_coloring_loops_on_braid_closures(d, n, loops):
    cases = _beside_loops(render_signed(d), n)
    assume(len(cases) > loops)
    _assert_per_coloring_equivalence(cases[loops][1], n)


@settings(max_examples=30)
@given(braid_diagrams(), st.sampled_from((2, 3, 4)))
def test_generators_read_off_the_colorings_are_the_state_scan(d, n):
    # the colorings with no free crossing against the untouched elements'
    # states, read through each vertex's resolution
    try:
        cx = build_complex(d, n, max_chain_dim=20_000)
    except SizeBoundError:
        assume(False)
    free_less = [c for c in cx.colorings if not c[1]]
    assert len(free_less) * n**d.free_loops == sum(b.count(None) for b in block_of(cx).values())
    assert compute_homology(cx).generators == reference_generator_scan(cx)


# ----------------------------------------------------------------------
# Split unions of generated diagrams
# ----------------------------------------------------------------------

def split_union(d1, d2):
    """The split union of two diagrams: d2's arc labels shifted past d1's."""
    shift = max(d1.arcs, default=0)
    shifted = re.sub(r"\d+", lambda m: str(int(m.group()) + shift), render_signed(d2))
    return parse_signed(f"{render_signed(d1)} {shifted}")


def _convolved(p, q):
    out = Counter()
    for i, x in p.items():
        for j, y in q.items():
            out[i + j] += x * y
    return dict(out)


# the union's chain dimension is the product of the parts', so examples are
# kept to unions of at most UNION_CHAIN_MAX basis elements
UNION_CHAIN_MAX = 20_000


@settings(max_examples=12, derandomize=True, deadline=None)
@given(braid_diagrams(), braid_diagrams(), st.sampled_from((3, 4)))
def test_split_union_convolves_homology_and_chain_dims(d1, d2, n):
    chains = [build_complex(d, n).dims() for d in (d1, d2)]
    assume(sum(chains[0].values()) * sum(chains[1].values()) <= UNION_CHAIN_MAX)
    union = split_union(d1, d2)
    assert union.component_count == d1.component_count + d2.component_count
    rep = cross_validate(union, n)
    assert rep.passed, rep.messages
    parts = [cross_validate(d, n) for d in (d1, d2)]
    assert rep.computed.dims == _convolved(*(p.computed.dims for p in parts))
    assert build_complex(union, n).dims() == _convolved(*chains)
