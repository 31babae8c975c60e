"""Admissible states, edge-generator actions and projector identities."""

import gc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from slndeform.chain import LocalType, classify_local
from slndeform.cyclotomic import CycloField
from slndeform.diagram import parse_pd, parse_signed
from slndeform.errors import SizeBoundError
from slndeform.fixtures import fixture, fixture_names
from slndeform.potential import admissible_tuple, u1_poly, u2_poly
from slndeform.resolution import resolve
from test_potential import evaluate
from slndeform.states import (
    StateAlgebra,
    enumerate_admissible,
    generator_action,
    idempotent,
    iter_raw_states,
    verify_projector_identities,
)


def _brute_force_states(r, n):
    """Oracle: filter all n^(#thin) states by the thick-edge condition."""
    pos = {t: i for i, t in enumerate(r.thin_edges)}
    out = []
    for raw in product(range(n), repeat=len(r.thin_edges)):
        ok = True
        for t in r.thick_edges:
            labels = tuple(raw[pos[s]] for s in t.slots)
            if not admissible_tuple(labels, n):
                ok = False
                break
        if ok:
            out.append(raw)
    return out


def test_single_circle_has_n_states():
    r = resolve(parse_pd("U"), ())
    for n in (2, 3, 5):
        assert len(enumerate_admissible(r, n)) == n


def test_closed_thick_edge_has_n_times_n_minus_1_states():
    r = resolve(fixture("unknot_kink_pos"), (1,))
    for n in (2, 3, 4):
        assert len(enumerate_admissible(r, n)) == n * (n - 1)


def test_hopf_all_one_has_four_states_for_n2():
    r = resolve(fixture("hopf_pos"), (1, 1))
    assert len(enumerate_admissible(r, 2)) == 4


def test_enumeration_matches_brute_force_oracle():
    for name in fixture_names():
        d = fixture(name)
        for n in (2, 3):
            for choice in product((0, 1), repeat=len(d.crossings)):
                r = resolve(d, choice)
                if len(r.thin_edges) > 10:
                    continue
                fast = list(enumerate_admissible(r, n))
                assert fast == _brute_force_states(r, n)
                assert fast == sorted(fast)  # deterministic lexicographic order


def _torus_pd(k):
    """The (2, k) torus knot or link: crossing j is X[2j-1, 2j+k-1, 2j, 2j+k] mod 2k."""
    def lab(x):
        return (x - 1) % (2 * k) + 1

    return " ".join(
        f"X[{lab(2 * j - 1)},{lab(2 * j + k - 1)},{lab(2 * j)},{lab(2 * j + k)}]"
        for j in range(1, k + 1)
    )


def _cube_state_count(d, n):
    return sum(
        len(enumerate_admissible(resolve(d, v), n))
        for v in product((0, 1), repeat=len(d.crossings))
    )


@pytest.mark.parametrize(
    "k, n, total",
    [(7, 2, 2190), (7, 3, 6567), (7, 4, 13132), (9, 4, 118108)],
)
def test_torus_cube_state_counts(k, n, total):
    assert _cube_state_count(parse_pd(_torus_pd(k)), n) == total


def _braid_closure(word, strands):
    """Crossings and circle count of a braid closure.

    A letter i is sigma_i (strand i over strand i+1, sign +) and -i its
    inverse.  Position p starts on arc p, each crossing gives its outgoing
    strands fresh labels and the strand left at position p is closed onto
    arc p; untouched positions become crossingless circles.  A crossing is
    (sign, (in_under, in_over, out_under, out_over)).
    """
    at = list(range(1, strands + 1))
    fresh = strands + 1
    crossings = []
    for g in word:
        left, right = abs(g) - 1, abs(g)
        under, over = (right, left) if g > 0 else (left, right)
        crossings.append(("+" if g > 0 else "-", (at[under], at[over], fresh, fresh + 1)))
        at[under], at[over] = fresh + 1, fresh
        fresh += 2
    closing = {arc: p for p, arc in enumerate(at, start=1) if arc != p}
    crossings = [(sign, tuple(closing.get(a, a) for a in arcs)) for sign, arcs in crossings]
    return crossings, sum(1 for p, arc in enumerate(at, start=1) if arc == p)


@st.composite
def braid_diagrams(draw, max_letters=6):
    """Closed braids on at most 4 strands and ``max_letters`` letters, arcs relabelled."""
    strands = draw(st.integers(min_value=1, max_value=4))
    letters = [g for i in range(1, strands) for g in (i, -i)]
    word = draw(st.lists(st.sampled_from(letters), max_size=max_letters)) if letters else []
    crossings, circles = _braid_closure(word, strands)
    labels = sorted({a for _, arcs in crossings for a in arcs})
    relabel = dict(zip(labels, draw(st.permutations(labels))))
    tokens = [
        f"C[{sign};" + ",".join(str(relabel[a]) for a in arcs) + "]"
        for sign, arcs in crossings
    ]
    return parse_signed(" ".join(tokens + ["U"] * circles))


def _kink_chain(m):
    """One circle with m positive kinks in series: X[2j+1, 2j+2, 2j+2, 2j+3] mod 2m."""
    return " ".join(
        f"X[{2 * j + 1},{2 * j + 2},{2 * j + 2},{(2 * j + 2) % (2 * m) + 1}]" for j in range(m)
    )


def test_enumeration_walks_a_thousand_thick_edges():
    # every crossing of 1001 kinks thick: a walk 1001 steps deep that ends
    # in two states at n = 2
    d = parse_pd(_kink_chain(1001))
    r = resolve(d, (1,) * 1001)
    states = enumerate_admissible(r, 2)
    assert len(states) == 2 and len(states[0]) == 2002
    for s in states:
        for t in r.thick_edges:
            values = r.local_values(s, d.crossings[t.crossing])
            assert classify_local(values, 1) in (LocalType.TYPE1, LocalType.TYPE2)
    for m in (1, 2, 3, 4):
        r = resolve(parse_pd(_kink_chain(m)), (1,) * m)
        assert len(enumerate_admissible(r, 2)) == 2
        assert list(enumerate_admissible(r, 3)) == _brute_force_states(r, 3)


def test_enumeration_leaves_no_reference_cycle():
    r = resolve(fixture("trefoil_right"), (1, 1, 1))
    gc.collect()
    gc.disable()
    try:
        states = enumerate_admissible(r, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert list(states) == _brute_force_states(r, 3)


@settings(max_examples=25, derandomize=True)
@given(braid_diagrams())
def test_enumeration_on_generated_diagrams(d):
    for choice in product((0, 1), repeat=len(d.crossings)):
        r = resolve(d, choice)
        for n in (2, 3, 4):
            states = list(enumerate_admissible(r, n))
            if n ** len(r.thin_edges) <= 4096:
                assert states == _brute_force_states(r, n)
                continue
            assert states == sorted(set(states))
            for s in states:
                for t in r.thick_edges:
                    values = r.local_values(s, d.crossings[t.crossing])
                    assert classify_local(values, 1) in (LocalType.TYPE1, LocalType.TYPE2)


def test_generator_action_on_single_circle():
    r = resolve(parse_pd("U"), ())
    x = generator_action(-1, r, 2, Fraction(1))
    fld = CycloField(2)
    assert x.values == (fld.one, -fld.one)


def test_generator_action_unknown_edge():
    r = resolve(parse_pd("U"), ())
    with pytest.raises(KeyError):
        generator_action(99, r, 2)
    # arc 3 lies on the thin edge named by arc 1, so it names no thin edge
    r = resolve(fixture("hopf_pos"), (0, 0))
    assert r.thin_edges[r.slot[3]] == 1
    with pytest.raises(KeyError):
        generator_action(3, r, 2)


def test_generator_power_n_is_beta_power_n():
    for name, choice in (("unknot_kink_pos", (1,)), ("hopf_pos", (1, 1))):
        r = resolve(fixture(name), choice)
        for n in (2, 3):
            for beta in (Fraction(1), Fraction(2), Fraction(-3)):
                algebra = StateAlgebra(r, n, beta)
                for e in r.thin_edges:
                    x = algebra.generator_action(e)
                    assert x**n == algebra.constant(beta**n)


def test_thick_edge_relations_act_as_zero():
    """The four defining relations vanish on the semisimple model."""
    for name, choice in (("unknot_kink_pos", (1,)), ("hopf_pos", (1, 1))):
        r = resolve(fixture(name), choice)
        for n in (2, 3):
            beta = Fraction(2)
            algebra = StateAlgebra(r, n, beta)
            shift = algebra.constant((n + 1) * beta**n)
            for t in r.thick_edges:
                x1, x2, x3, x4 = (algebra.generator_action(s) for s in t.slots)
                assert (x1 + x2 - x3 - x4).is_zero
                assert (x1 * x2 - x3 * x4).is_zero
                values = {"x1": x1, "x2": x2, "x3": x3, "x4": x4}
                assert (evaluate(u1_poly(n), values) - shift).is_zero
                u2val = evaluate(u2_poly(n), values)
                assert (u2val * algebra.one).is_zero


def test_idempotent_is_indicator_for_admissible_states():
    r = resolve(fixture("hopf_pos"), (1, 1))
    algebra = StateAlgebra(r, 2, Fraction(1))
    for phi in algebra.states:
        q = algebra.idempotent(phi)
        assert q(phi) == 1
        for psi in algebra.states:
            if psi != phi:
                assert q(psi).is_zero


def test_idempotent_vanishes_for_non_admissible_states():
    r = resolve(fixture("unknot_kink_pos"), (1,))
    algebra = StateAlgebra(r, 3, Fraction(1))
    constant_state = (1, 1)  # equal labels violate the thick-edge condition
    assert constant_state not in algebra.index
    assert algebra.idempotent(constant_state).is_zero


def test_idempotent_n2_circle_formula():
    # Q for the label-0 state of a single circle is (1 + X/beta)/2
    r = resolve(parse_pd("U"), ())
    for beta in (Fraction(1), Fraction(3)):
        algebra = StateAlgebra(r, 2, beta)
        x = algebra.generator_action(-1)
        explicit = (algebra.one + x * (1 / beta)) * Fraction(1, 2)
        q = algebra.idempotent((0,))
        assert q == explicit
        assert q.values == (algebra.field.one, algebra.field.zero)


def test_idempotent_rejects_wrong_length():
    r = resolve(parse_pd("U"), ())
    with pytest.raises(ValueError):
        idempotent((0, 1), r, 2)


def test_projector_identities_on_circles():
    r = resolve(parse_pd("U"), ())
    for n in (2, 3, 4, 5):
        rep = verify_projector_identities(r, n)
        assert rep.passed
        assert rep.raw_count == n and rep.admissible_count == n


def test_projector_identities_on_hopf_all_one():
    r = resolve(fixture("hopf_pos"), (1, 1))
    rep = verify_projector_identities(r, 2, Fraction(1))
    assert rep.passed
    assert rep.raw_count == 16
    assert rep.admissible_count == 4
    assert rep.vanishing_count == 12


def test_projector_sum_over_admissible_states_is_one():
    r = resolve(fixture("hopf_pos"), (1, 1))
    algebra = StateAlgebra(r, 2, Fraction(2))
    total = algebra.zero
    for phi in algebra.states:
        total = total + algebra.idempotent(phi)
    assert total == algebra.one


def test_raw_state_gate():
    r = resolve(fixture("figure_eight"), (1, 1, 1, 1))
    with pytest.raises(SizeBoundError):
        list(iter_raw_states(r, 3, max_raw_states=100))
    with pytest.raises(SizeBoundError):
        verify_projector_identities(r, 3, max_raw_states=100)


def test_state_algebra_rejects_zero_beta():
    r = resolve(parse_pd("U"), ())
    with pytest.raises(ValueError):
        StateAlgebra(r, 2, Fraction(0))


def _dense_projectors(algebra):
    """Oracle: each raw phi with Q_phi at every admissible psi, in state order.

    Q_phi(psi) is the full product of the edge factors at the label
    differences psi - phi mod n, with no zero factor skipped; it depends
    only on those differences, so it is multiplied out once per tuple.
    """
    factors = algebra._edge_factors()
    n = algebra.n
    k = len(algebra.resolution.thin_edges)
    by_diff = {}
    for diff in product(range(n), repeat=k):
        acc = algebra.field.one
        for m in diff:
            acc = acc * factors[m]
        by_diff[diff] = acc
    for phi in product(range(n), repeat=k):
        yield phi, tuple(
            by_diff[tuple([(a - b) % n for a, b in zip(psi, phi)])]
            for psi in algebra.states
        )


def test_sparse_projector_matches_dense_product_of_edge_factors():
    cases = [
        (resolve(fixture(name), choice), n)
        for name in fixture_names()
        for choice in product((0, 1), repeat=len(fixture(name).crossings))
        for n in (2, 3)
    ]
    cases = [(r, n) for r, n in cases if len(r.thin_edges) <= 6]
    cases += [(resolve(fixture("hopf_pos"), (1, 1)), n) for n in (4, 5, 6)]
    for r, n in cases:
        for beta in (Fraction(1), Fraction(-3)):
            algebra = StateAlgebra(r, n, beta)
            for phi, dense in _dense_projectors(algebra):
                assert algebra.idempotent(phi).values == dense


@pytest.mark.parametrize(
    "m, value, count, first",
    [
        (1, Fraction(1, 2), 319, "Q != 0 for non-admissible state (0, 0, 0, 0)"),
        (0, Fraction(2), 25, "Q(phi) != 1 for admissible state (0, 0, 1, 1)"),
    ],
)
def test_projector_check_fails_on_a_wrong_edge_factor(monkeypatch, m, value, count, first):
    """A wrong factor must move the supports too, so the identities fail."""
    computed = StateAlgebra._edge_factors

    def corrupted(self):
        factors = list(computed(self))
        factors[m] = self.field.from_rational(value)
        return factors

    monkeypatch.setattr(StateAlgebra, "_edge_factors", corrupted)
    rep = verify_projector_identities(resolve(fixture("hopf_pos"), (1, 1)), 3)
    assert len(rep.failures) == count
    assert rep.failures[0] == first


def test_state_function_contract():
    r = resolve(fixture("hopf_pos"), (1, 1))
    algebra = StateAlgebra(r, 3, Fraction(-3))
    projectors = [algebra.idempotent(phi) for phi in iter_raw_states(r, 3)]
    total = algebra.zero
    for q in projectors:
        total = total + q
    assert total == algebra.one and hash(total) == hash(algebra.one)

    q = algebra.idempotent(algebra.states[1])
    assert (q - q).is_zero and q - q == algebra.zero
    assert algebra.constant(0).is_zero and algebra.constant(0) == 0

    picked = algebra.states[::3]
    f = algebra.zero
    for phi in reversed(picked):
        f = f + algebra.idempotent(phi)
    assert f.support() == picked

    x = algebra.generator_action(r.thin_edges[0])
    assert (x * 0).is_zero and (0 * x).is_zero and x * 0 == algebra.zero

    other = StateAlgebra(r, 3, Fraction(-3))
    for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a == b):
        with pytest.raises(ValueError):
            op(algebra.one, other.one)
