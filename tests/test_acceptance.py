"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything here is exact (no tolerances); the only numeric limits
are the stated runtime budgets.
"""

import time
from fractions import Fraction
from itertools import product

from test_homology import eliminated_dims
from test_lee import lee_complex, lee_homology

from slndeform.chain import build_complex, rescale_basis
from slndeform.fixtures import fixture, fixture_names
from slndeform.homology import closed_form, compute_homology, cross_validate
from slndeform.potential import (
    MultiPoly,
    PotentialContext,
    X_VARS,
    g_poly,
    lemma_brute_check,
    u1_poly,
    u2_poly,
)
from slndeform.resolution import resolve
from slndeform.states import verify_projector_identities

ALL_N = (2, 3)
BETAS = (Fraction(1), Fraction(2), Fraction(-3))
KNOTS = ("unknot_kink_pos", "unknot_kink_neg", "trefoil_right", "trefoil_left",
         "figure_eight")


def test_criterion_1_total_dimension_is_n_to_the_components():
    worst = 0.0
    for name in fixture_names():
        d = fixture(name)
        for n in ALL_N:
            t0 = time.perf_counter()
            result = compute_homology(build_complex(d, n))
            elapsed = time.perf_counter() - t0
            worst = max(worst, elapsed)
            assert result.total == n ** d.component_count, (name, n)
            assert elapsed < 10.0, f"{name} n={n} took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: total dim = n^l on all {len(fixture_names())} "
          f"diagrams, n in {ALL_N} (worst case {worst:.2f}s)")


def test_criterion_2_degree_tables():
    assert compute_homology(build_complex(fixture("hopf_pos"), 2)).dims == \
        {0: 2, 2: 2}
    assert compute_homology(build_complex(fixture("hopf_neg"), 2)).dims == \
        {-2: 2, 0: 2}
    assert compute_homology(build_complex(fixture("hopf_pos"), 3)).dims == \
        {0: 3, 2: 6}
    for name in KNOTS:
        for n in ALL_N:
            dims = compute_homology(build_complex(fixture(name), n)).dims
            assert dims == {0: n}, (name, n, dims)
    print("\nPASS criterion 2: Hopf degree tables and degree-0 knots, exactly")


def test_criterion_3_three_way_agreement():
    for name in fixture_names():
        for n in ALL_N:
            report = cross_validate(fixture(name), n)
            assert report.passed, (name, n, report.messages)
    print(f"\nPASS criterion 3: rank = closed form = survivors on all "
          f"{len(fixture_names())} diagrams, n in {ALL_N}")


def test_criterion_4_lemma_brute_force():
    t0 = time.perf_counter()
    total = 0
    for n in range(2, 7):
        for beta in BETAS:
            report = lemma_brute_check(PotentialContext(n, beta))
            assert report.passed, (n, beta, report.counterexamples[:3])
            assert report.tuples_checked == n**4
            total += report.tuples_checked
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"lemma sweep took {elapsed:.1f}s"
    print(f"\nPASS criterion 4: {total} tuples, n in 2..6, beta in "
          f"{tuple(map(str, BETAS))}, zero counterexamples ({elapsed:.2f}s)")


def test_criterion_5_projector_suite():
    checked = 0
    for name in fixture_names():
        d = fixture(name)
        for n in ALL_N:
            for choice in product((0, 1), repeat=len(d.crossings)):
                r = resolve(d, choice)
                if len(r.thin_edges) > 12:
                    continue
                report = verify_projector_identities(r, n)
                assert report.passed, (name, n, choice, report.failures[:3])
                checked += 1
    print(f"\nPASS criterion 5: projector identities exact on {checked} "
          f"resolutions, n in {ALL_N}")


def test_criterion_6_potential_identities():
    xy = ("x", "y")
    x, y = (MultiPoly.variable(v, xy) for v in xy)
    ext = X_VARS + ("b",)
    x1, x2, x3, x4, b = (MultiPoly.variable(v, ext) for v in ext)
    for n in range(1, 7):
        assert g_poly(n).substitute({"z": x + y, "w": x * y}) == \
            x ** (n + 1) + y ** (n + 1)
        u1, u2 = u1_poly(n), u2_poly(n)  # raising = inexact division
        shift = (n + 1) * b**n
        lhs = (u1.with_vars(ext) - shift) * (x1 + x2 - x3 - x4) + (
            u2.with_vars(ext) * (x1 * x2 - x3 * x4)
        )
        rhs = MultiPoly.constant(0, ext)
        for v in (x1, x2):
            rhs = rhs + (v ** (n + 1) - shift * v)
        for v in (x3, x4):
            rhs = rhs - (v ** (n + 1) - shift * v)
        assert lhs == rhs, f"telescoping identity fails at n={n}"
    print("\nPASS criterion 6: g identity, exact divisions and telescoping "
          "identity, symbolic beta, n <= 6")


def test_criterion_7_complex_integrity():
    assert build_complex(fixture("hopf_pos"), 2).dims() == {0: 4, 1: 4, 2: 4}
    cases = 0
    for name in fixture_names():
        d = fixture(name)
        for n in ALL_N:
            cx = build_complex(d, n)
            assert cx.check_d_squared() is None, (name, n)
            hom = compute_homology(cx)
            assert cx.euler_characteristic() == hom.euler_characteristic()
            cases += 1
    print(f"\nPASS criterion 7: d^2 = 0, Hopf chain dims {{0:4,1:4,2:4}} and "
          f"Euler match on {cases} cases")


def test_criterion_8_rescaling_robustness():
    cases = 0
    for name in fixture_names():
        d = fixture(name)
        for n in ALL_N:
            cx = build_complex(d, n)
            base = compute_homology(cx).dims
            for seed in (11, 12, 13):
                rescaled = rescale_basis(cx, seed)
                assert rescaled.check_d_squared() is None, (name, n, seed)
                assert eliminated_dims(rescaled) == base, (name, n, seed)
            cases += 1
    print(f"\nPASS criterion 8: homology invariant under 3 diagonal "
          f"rescalings on {cases} cases, ranked by elimination")


def test_criterion_9_beta_independence():
    # the complex of ``build_complex`` does not read beta; Lee's n = 2
    # complex does, and its homology must still be the closed form
    for name in fixture_names():
        d = fixture(name)
        closed = closed_form(d, 2).dims
        for beta in BETAS:
            assert lee_homology(*lee_complex(d, beta**2)) == closed, (name, beta)
    print(f"\nPASS criterion 9: Lee's complex gives the closed form for beta in "
          f"{tuple(map(str, BETAS))} on all diagrams, n = 2")


def test_criterion_10_diagram_invariance():
    for n in ALL_N:
        unknots = [
            compute_homology(build_complex(fixture(name), n))
            for name in ("unknot0", "unknot_kink_pos", "unknot_kink_neg")
        ]
        assert unknots[0].dims == unknots[1].dims == unknots[2].dims == {0: n}
        hopf = compute_homology(build_complex(fixture("hopf_pos"), n))
        hopf_r2 = compute_homology(build_complex(fixture("hopf_r2"), n))
        assert hopf.dims == hopf_r2.dims
        assert hopf.generators == hopf_r2.generators
    print("\nPASS criterion 10: unknot diagrams agree and Hopf+R2 matches "
          "Hopf, n in {2, 3}")
