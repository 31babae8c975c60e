"""The benchmark's workloads: seeded corpora and checked case runners.

Every case goes through a public entry point of the package and checks its
answer; a wrong answer raises ``CaseFailure``.  The package is reached
through its module attributes at call time (``homology.cross_validate``,
``chain.rescale_basis``, ...), so the traced pass can wrap them.

* ``torus``: (2,k) torus knots, odd k <= 7, n in {2,3,4}, seeded arc
  labels.  One component, so closed form and survivors are trivial and
  the exact rank dominates.
* ``colorings``: split unions of 5-8 unknots, one of them carrying a Hopf
  clasp, n in {3,4,5}.  Up to 16,384 colorings and almost no differential,
  so the closed form, survivors and the survivor scan do the work.  A
  crossing whose differential is near-diagonal but large (a kink beside
  five unknots) is left out: it makes the rank pivot loop the wall, which
  ``torus`` already covers.
* ``verify``: the identity checks of ``slndeform verify`` scaled up: the
  admissibility lemma for n <= 6 (the check's documented cap), projector
  identities on fixture resolutions, and seeded rescalings of torus
  complexes over Q(zeta_n) for n in {3,5,6}.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from slndeform import chain, diagram, homology, potential, resolution, states
from slndeform.cyclotomic import CycloField
from slndeform.fixtures import FIXTURES

import linkgen

class CaseFailure(Exception):
    """A case gave a wrong answer or failed one of its checks."""


@dataclass
class Case:
    name: str
    run: Callable[[], object]  # checked; returns a signature of the answer
    n: int
    d: diagram.LinkDiagram | None = None  # the complex's diagram, if any
    homology_runs: int = 0  # exact-rank homology computations per run
    expected_total: int = 0  # total homology dimension of each of them
    largest: bool = False


def _dims_key(dims: dict) -> tuple:
    return tuple(sorted(dims.items()))


def _cross_validated(d, n: int, expected: dict):
    rep = homology.cross_validate(d, n)
    if not rep.passed:
        raise CaseFailure("; ".join(rep.messages))
    if rep.computed.dims != expected:
        raise CaseFailure(f"dims {rep.computed.dims} != expected {expected}")
    return _dims_key(rep.computed.dims)


def _rescaled(d, n: int, seeds, expected: dict):
    cx = chain.build_complex(d, n)
    if cx.check_d_squared() is not None:
        raise CaseFailure("d o d != 0 on the unrescaled complex")
    base = homology.compute_homology(cx).dims
    if base != expected:
        raise CaseFailure(f"dims {base} != expected {expected}")
    for seed in seeds:
        rx = chain.rescale_basis(cx, seed)
        failure = rx.check_d_squared()
        if failure is not None:
            raise CaseFailure(f"d o d != 0 after rescaling with seed {seed}: {failure}")
        dims = homology.compute_homology(rx).dims
        if dims != base:
            raise CaseFailure(f"rescaling with seed {seed} changed dims {base} -> {dims}")
    return _dims_key(base)


def _lemma(n: int, betas):
    out = []
    for beta in betas:
        report = potential.lemma_brute_check(potential.PotentialContext(n, beta))
        if not report.passed:
            raise CaseFailure(f"lemma n={n} beta={beta}: {report.counterexamples[:3]}")
        if report.tuples_checked != n**4 or report.admissible_count != 2 * n * (n - 1):
            raise CaseFailure(
                f"lemma n={n} beta={beta}: {report.admissible_count} admissible "
                f"of {report.tuples_checked} tuples"
            )
        out.append(report.admissible_count)
    return tuple(out)


def _projectors(resolutions, n: int):
    out = []
    for r in resolutions:
        report = states.verify_projector_identities(r, n)
        if not report.passed:
            raise CaseFailure(f"projectors at {r.choice}: {report.failures[:3]}")
        if report.raw_count != n ** len(r.thin_edges):
            raise CaseFailure(f"projectors at {r.choice}: {report.raw_count} raw states")
        out.append(report.admissible_count)
    return tuple(out)


def _torus_cases(rng: random.Random) -> list[Case]:
    cases = []
    for k in (3, 5, 7):
        for n in (2, 3, 4):
            d = diagram.parse(linkgen.relabel(linkgen.torus_pd(k), rng))
            expected = {0: n}
            cases.append(Case(
                f"T(2,{k}) n={n}", lambda d=d, n=n, e=expected: _cross_validated(d, n, e),
                d=d, n=n, homology_runs=1, expected_total=n, largest=(k, n) == (7, 4),
            ))
    return cases


# (components, n, with a Hopf clasp); the largest is U^7 at n=4
COLORING_SHAPES = (
    (8, 3, False), (7, 4, False), (6, 5, False), (7, 3, False),
    (6, 4, False), (5, 5, False), (5, 3, True),
)


def _coloring_cases(rng: random.Random) -> list[Case]:
    cases = []
    for comps, n, clasp in COLORING_SHAPES:
        parts = ["U"] * comps
        expected = {0: n**comps}
        if clasp:
            sign = rng.choice((1, -1))
            parts[:2] = [linkgen.relabel(linkgen.braid_closure([sign, sign], 2), rng)]
            # colorings with the two clasped components unequal sit in degree 2*lk
            expected = {0: n ** (comps - 1), 2 * sign: n ** (comps - 1) * (n - 1)}
        rng.shuffle(parts)
        d = diagram.parse(linkgen.split_union(parts))
        name = f"{'Hopf+U^' + str(comps - 2) if clasp else 'U^' + str(comps)} n={n}"
        cases.append(Case(
            name, lambda d=d, n=n, e=expected: _cross_validated(d, n, e),
            d=d, n=n, homology_runs=1, expected_total=n**comps,
            largest=(comps, n) == (7, 4),
        ))
    return cases


# Each seeded rescaling draws its own scalars, whose sizes set the cost of
# the exact arithmetic; two per complex halve the spread that one draw adds.
RESCALINGS = 2
LEMMA_BETAS = (Fraction(1), Fraction(2), Fraction(-3))
PROJECTOR_FIXTURES = (
    ("unknot0", (2, 3, 4, 5, 6)),
    ("unknot_kink_pos", (2, 3, 4, 5, 6)),
    ("hopf_pos", (2, 3, 4, 5, 6)),
    ("hopf_neg", (2, 3, 4, 5, 6)),
    ("trefoil_right", (2, 3)),
)


def _verify_cases(rng: random.Random) -> list[Case]:
    cases = [
        Case(f"lemma n={n}", lambda n=n: _lemma(n, LEMMA_BETAS), n=n)
        for n in range(2, 7)
    ]
    for name, ns in PROJECTOR_FIXTURES:
        d = diagram.parse(FIXTURES[name])
        for n in ns:
            rs = [resolution.resolve(d, c) for c in product((0, 1), repeat=len(d.crossings))]
            rs = [r for r in rs if n ** len(r.thin_edges) <= states.DEFAULT_MAX_RAW_STATES]
            cases.append(Case(
                f"projectors {name} n={n}", lambda rs=rs, n=n: _projectors(rs, n), n=n
            ))
    for k in (3, 5):
        for n in (3, 5, 6):
            d = diagram.parse(linkgen.relabel(linkgen.torus_pd(k), rng))
            seeds = [rng.randrange(2**31) for _ in range(RESCALINGS)]
            expected = {0: n}
            cases.append(Case(
                f"rescaled T(2,{k}) n={n}",
                lambda d=d, n=n, s=seeds, e=expected: _rescaled(d, n, s, e),
                d=d, n=n, homology_runs=1 + RESCALINGS, expected_total=n,
                largest=(k, n) == (5, 6),
            ))
    return cases


_BUILDERS = {"torus": _torus_cases, "colorings": _coloring_cases, "verify": _verify_cases}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int) -> list[Case]:
    """Generate and parse a workload's corpus; construct its fields."""
    cases = _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
    for n in sorted({c.n for c in cases}):
        CycloField(n)
    return cases


def chain_dim(case: Case) -> int:
    """Dimension of the case's chain complex (0 for identity checks)."""
    if case.d is None:
        return 0
    return sum(
        len(states.enumerate_admissible(resolution.resolve(case.d, v), case.n))
        for v in product((0, 1), repeat=len(case.d.crossings))
    )


def expected_rank_sum(case: Case, dim: int) -> int:
    """Sum of differential ranks the case's homology computations must find.

    dim H = dim C - 2 * (sum of ranks), for each computation.
    """
    return case.homology_runs * (dim - case.expected_total) // 2
