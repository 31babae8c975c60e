"""Seeded diagram generators for the benchmark corpus.

Diagrams are emitted as text in the two formats the package parses:
``X[a,b,c,d]`` PD tokens and signed ``C[s;a,b,c,d]`` tokens, plus ``U`` for
a crossingless circle.  The package only ever receives the generated text.
"""

from __future__ import annotations

import random
import re

_TOKEN = re.compile(r"^([XC])\[(?:([+-]);)?(\d+),(\d+),(\d+),(\d+)\]$")


def _parse_tokens(code: str) -> list:
    """Split a code into ``"U"`` or ``(head, sign, (a, b, c, d))`` items."""
    out = []
    for tok in code.split():
        if tok == "U":
            out.append(tok)
            continue
        m = _TOKEN.match(tok)
        if m is None:
            raise ValueError(f"unrecognised token {tok!r}")
        head, sign, *arcs = m.groups()
        out.append((head, sign, tuple(int(a) for a in arcs)))
    return out


def _render(tokens, mapping=None) -> str:
    parts = []
    for tok in tokens:
        if tok == "U":
            parts.append(tok)
            continue
        head, sign, arcs = tok
        if mapping is not None:
            arcs = tuple(mapping[a] for a in arcs)
        body = ",".join(str(a) for a in arcs)
        parts.append(f"{head}[{sign};{body}]" if sign else f"{head}[{body}]")
    return " ".join(parts)


def arc_labels(code: str) -> list[int]:
    """Sorted distinct arc labels of a code."""
    return sorted({a for tok in _parse_tokens(code) if tok != "U" for a in tok[2]})


def torus_pd(k: int) -> str:
    """PD code of the (2, k) torus knot or link, writhe +k.

    Crossing j is ``X[2j-1, 2j+k-1, 2j, 2j+k]`` with labels taken mod 2k,
    so k = 3 is the bundled ``trefoil_right``.
    """
    if k < 1:
        raise ValueError("k must be positive")
    m = 2 * k

    def lab(x: int) -> int:
        return (x - 1) % m + 1

    return " ".join(
        f"X[{lab(2 * j - 1)},{lab(2 * j + k - 1)},{lab(2 * j)},{lab(2 * j + k)}]"
        for j in range(1, k + 1)
    )


def braid_closure(word, strands: int) -> str:
    """Signed code of the closure of a braid word.

    A letter ``i`` is the generator sigma_i (strand i crosses over strand
    i+1, sign +) and ``-i`` its inverse (sign -).  Position p starts on arc
    p; each crossing gives its two outgoing strands fresh labels, under
    first, and the strand left at position p at the end is closed up onto
    arc p.  Tokens list ``in_under, in_over, out_under, out_over``.  A
    position no letter touches closes up into a crossingless circle.
    """
    at = list(range(1, strands + 1))  # arc currently at each position
    nxt = strands + 1
    crossings = []
    for g in word:
        i = abs(g)
        if not 1 <= i < strands:
            raise ValueError(f"letter {g} outside a {strands}-strand braid")
        left, right = i - 1, i
        under, over = (right, left) if g > 0 else (left, right)
        out_under, out_over = nxt, nxt + 1
        nxt += 2
        crossings.append(("C", "+" if g > 0 else "-", (at[under], at[over], out_under, out_over)))
        at[under], at[over] = out_over, out_under
    closing = {arc: p for p, arc in enumerate(at, start=1) if arc != p}
    tokens = [(h, s, tuple(closing.get(a, a) for a in arcs)) for h, s, arcs in crossings]
    tokens += ["U"] * sum(1 for p, arc in enumerate(at, start=1) if arc == p)
    return _render(tokens)


def split_union(codes) -> str:
    """Disjoint union of diagrams, offsetting arc labels so they stay apart."""
    tokens = []
    offset = 0
    for code in codes:
        part = _parse_tokens(code)
        labels = arc_labels(code)
        tokens += [
            tok if tok == "U" else (tok[0], tok[1], tuple(a + offset for a in tok[2]))
            for tok in part
        ]
        offset += max(labels, default=0)
    return _render(tokens)


def relabel(code: str, rng: random.Random) -> str:
    """Apply a random permutation to the arc labels of a code."""
    labels = arc_labels(code)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    return _render(_parse_tokens(code), dict(zip(labels, shuffled)))
