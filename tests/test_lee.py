"""Lee's complex at n = 2: a fourth computation, and one that reads beta.

At n = 2 the deformed potential x^3 - 3 beta^2 x gives Lee's Frobenius
algebra Q[x]/(x^2 - t) with t = beta^2 (Lee, *An endomorphism of the
Khovanov invariant*, arXiv math/0210213).  So Khovanov's cube can be built
in the {1, x} basis per circle, with no states, no thick edges and no roots
of unity (conventions from Bar-Natan, arXiv math/0201043):

* bit 0 is the oriented smoothing at a positive crossing and the unoriented
  one (in_under-in_over, out_under-out_over) at a negative crossing;
* merge: m(1 1) = 1, m(1 x) = m(x 1) = x, m(x x) = t;
* split: D(1) = 1 x + x 1, D(x) = x x + t 1 1;
* the edge that flips crossing i has sign (-1)^(1-bits before i);
* a vertex sits in degree (number of 1-bits) - n_-.

Here t enters the differential, and the homology must still equal the
closed form at every t != 0 with no degree shift.  At t = 0 the complex is
Khovanov's, so the test can tell the deformation from its absence.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from test_states import braid_diagrams

from slndeform.chain import build_complex
from slndeform.fixtures import fixture, fixture_names
from slndeform.homology import closed_form, cross_validate

BETAS = (Fraction(1), Fraction(2), Fraction(1, 2))


def _circles(d, v):
    """Arc -> circle key at cube vertex v; a circle's key is its smallest arc."""
    parent = {a: a for a in d.arcs}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for c, bit in zip(d.crossings, v):
        if (bit == 0) == (c.sign > 0):  # oriented smoothing
            pairs = ((c.in_under, c.out_over), (c.in_over, c.out_under))
        else:
            pairs = ((c.in_under, c.in_over), (c.out_under, c.out_over))
        for a, b in pairs:
            ra, rb = sorted((find(a), find(b)))
            parent[rb] = ra
    return {a: find(a) for a in d.arcs}


def lee_complex(d, t):
    """Degree -> basis, and degree -> {(target, source): coefficient}.

    A basis element is (vertex, labels), labels aligned with the sorted
    circle keys of the vertex, 0 for 1 and 1 for x; free loops get the keys
    -1, -2, ...
    """
    n_minus = sum(1 for c in d.crossings if c.sign < 0)
    loops = tuple(-(i + 1) for i in range(d.free_loops))
    circle_of, keys = {}, {}
    for v in product((0, 1), repeat=len(d.crossings)):
        circle_of[v] = _circles(d, v)
        keys[v] = tuple(sorted(set(circle_of[v].values()))) + loops
    basis: dict[int, list] = {}
    index = {}
    for v in keys:
        column = basis.setdefault(sum(v) - n_minus, [])
        for labels in product((0, 1), repeat=len(keys[v])):
            index[v, labels] = len(column)
            column.append((v, labels))

    differentials: dict[int, dict] = {}
    for v in keys:
        k = sum(v) - n_minus
        entries = differentials.setdefault(k, {})
        for i, c in enumerate(d.crossings):
            if v[i]:
                continue
            w = v[:i] + (1,) + v[i + 1:]
            sign = (-1) ** sum(v[:i])
            arcs = (c.in_under, c.in_over, c.out_under, c.out_over)
            before = sorted({circle_of[v][a] for a in arcs})
            after = sorted({circle_of[w][a] for a in arcs})
            for labels in product((0, 1), repeat=len(keys[v])):
                old = dict(zip(keys[v], labels))
                if len(before) == 2 and len(after) == 1:  # merge
                    xs = sum(old.pop(key) for key in before)
                    images = [({after[0]: xs}, 1)] if xs < 2 else [({after[0]: 0}, t)]
                elif len(before) == 1 and len(after) == 2:  # split
                    r, s = after
                    if old.pop(before[0]) == 0:
                        images = [({r: 0, s: 1}, 1), ({r: 1, s: 0}, 1)]
                    else:
                        images = [({r: 1, s: 1}, 1), ({r: 0, s: 0}, t)]
                else:
                    raise AssertionError(f"crossing {c.id} neither merges nor splits")
                source = index[v, labels]
                for new, coeff in images:
                    if coeff == 0:
                        continue
                    target = index[w, tuple({**old, **new}[key] for key in keys[w])]
                    key = (target, source)
                    entries[key] = entries.get(key, 0) + sign * coeff
    return basis, differentials


def _rank(entries) -> int:
    """Rank of a sparse matrix {(row, col): int or Fraction}, exactly.

    Each pivot is a unit where its row has one, so integer entries stay
    integers as long as they can.
    """
    rows: dict[int, dict] = {}
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
    rank = 0
    while rows:
        _, row = rows.popitem()
        col, pivot = min(row.items(), key=lambda cv: (abs(cv[1]) != 1, cv[0]))
        rank += 1
        for r in list(rows):
            other = rows[r]
            factor = other.get(col)
            if factor is None:
                continue
            factor = factor * pivot if abs(pivot) == 1 else Fraction(factor, pivot)
            for c, v in row.items():
                new = other.get(c, 0) - factor * v
                if new:
                    other[c] = new
                else:
                    other.pop(c, None)
            if not other:
                del rows[r]
    return rank


def lee_homology(basis, differentials) -> dict:
    """Degree -> dimension of the homology of a ``lee_complex``, nonzero only."""
    ranks = {k: _rank(e) for k, e in differentials.items()}
    dims = {
        k: len(basis[k]) - ranks.get(k, 0) - ranks.get(k - 1, 0) for k in sorted(basis)
    }
    return {k: v for k, v in dims.items() if v}


def _d_squared_is_zero(differentials) -> bool:
    for k, first in differentials.items():
        by_source: dict[int, list] = {}
        for (tgt, mid), b in differentials.get(k + 1, {}).items():
            by_source.setdefault(mid, []).append((tgt, b))
        composite: dict = {}
        for (mid, src), a in first.items():
            for tgt, b in by_source.get(mid, ()):
                composite[tgt, src] = composite.get((tgt, src), 0) + a * b
        if any(composite.values()):
            return False
    return True


def _assert_lee_agrees(d):
    report = cross_validate(d, 2)  # rank computation = closed form = survivors
    assert report.passed, report.messages
    closed = report.closed.dims
    chain_dims = {k: v for k, v in build_complex(d, 2).dims().items() if v}
    for beta in BETAS:
        basis, differentials = lee_complex(d, beta**2)
        assert _d_squared_is_zero(differentials), beta
        assert {k: len(b) for k, b in basis.items()} == chain_dims, beta
        assert lee_homology(basis, differentials) == closed, beta


@pytest.mark.parametrize("name", fixture_names())
def test_lee_complex_matches_closed_form_on_fixtures(name):
    _assert_lee_agrees(fixture(name))


@settings(max_examples=20, derandomize=True)
@given(braid_diagrams())
def test_lee_complex_matches_closed_form_on_generated_diagrams(d):
    _assert_lee_agrees(d)


def test_lee_complex_at_beta_zero_is_khovanov_homology():
    d = fixture("trefoil_right")
    basis, differentials = lee_complex(d, 0)
    assert _d_squared_is_zero(differentials)
    assert lee_homology(basis, differentials) == {0: 2, 2: 1, 3: 1}
    assert closed_form(d, 2).dims == {0: 2}
