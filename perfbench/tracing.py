"""Spans around the package's public functions, installed for traced passes.

``Tracer.installed`` replaces each function in ``TRACED`` at the place it is
looked up (a module attribute or a class attribute) with a wrapper that
records a span, and puts the originals back afterwards.  Spans stay in
memory: name, start, end, parent span and the case they belong to, plus
counts read off the arguments and result at the same boundary.  A span's
self time is its duration minus the durations of its direct children.

``counting_ops`` is the separate counting pass: it wraps the arithmetic
operators of ``CycloNumber`` with counters and no clock, so that the span
self times never pay for them.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from slndeform import chain, diagram, homology, potential, states
from slndeform.chain import DeformedComplex
from slndeform.cyclotomic import CycloNumber


def _complex_counts(args, result):
    dims = [len(b) for b in result.basis.values()]
    return {
        "basis": sum(dims),
        "nnz": sum(len(e) for e in result.differentials.values()),
        "degree_dim_max": max(dims, default=0),
    }


def _homology_counts(args, result):
    return {
        "scanned": sum(len(b) for b in args[0].basis.values()),
        "generators": len(result.generators),
    }


TRACED = (
    # (owner, attribute, span name, counts read at the boundary)
    (diagram, "parse", "diagram.parse", None),
    (homology, "cross_validate", "homology.cross_validate", None),
    (homology, "build_complex", "chain.build_complex", _complex_counts),
    (chain, "build_complex", "chain.build_complex", _complex_counts),
    (homology, "compute_homology", "homology.compute_homology", _homology_counts),
    (homology, "matrix_rank", "homology.matrix_rank",
     lambda args, result: {"rows": args[1], "rank": result}),
    (homology, "closed_form", "homology.closed_form", None),
    (homology, "survivors_combinatorial", "homology.survivors_combinatorial",
     lambda args, result: {"colorings": len(result.generators)}),
    (homology, "resolve", "resolution.resolve", None),
    (chain, "resolve", "resolution.resolve", None),
    (chain, "enumerate_admissible", "states.enumerate_admissible",
     lambda args, result: {"states": len(result)}),
    (DeformedComplex, "check_d_squared", "chain.check_d_squared", None),
    (chain, "rescale_basis", "chain.rescale_basis", None),
    (potential, "lemma_brute_check", "potential.lemma_brute_check",
     lambda args, result: {"tuples": result.tuples_checked}),
    (states, "verify_projector_identities", "states.verify_projector_identities", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "case", "counts")

    def __init__(self, name, start, end, parent, case, counts):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.case = case
        self.counts = counts

    def to_json(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "case": self.case, "counts": self.counts,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.case = ""

    def _wrap(self, name, fn, counts):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.case, None)
            if counts is not None:
                spans[idx].counts = counts(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, counts in TRACED:
                fn = vars(owner)[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, counts))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def run_case(self, name: str, run):
        """Run one case under a root span named ``case``."""
        self.case = name
        return self._wrap("case", run, None)()


def write_spans(path, passes: dict):
    """One JSON line per span; ``parent`` indexes the spans of the same pass."""
    with open(path, "w") as fh:
        for label, spans in passes.items():
            for span in spans:
                fh.write(json.dumps({"pass": label, **span.to_json()}) + "\n")


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass, from its spans."""
    own = defaultdict(float)
    calls = defaultdict(int)
    longest = defaultdict(float)
    counts = defaultdict(int)
    maxima = defaultdict(int)
    for s, t in zip(spans, self_times(spans)):
        own[s.name] += t
        calls[s.name] += 1
        longest[s.name] = max(longest[s.name], s.end - s.start)
        for key, v in (s.counts or {}).items():
            counts[key] += v
            maxima[key] = max(maxima[key], v)
    rows = counts["rows"]
    scanned = counts["scanned"]
    return {
        "resolution.resolve_s": own["resolution.resolve"],
        "resolution.resolve_calls": calls["resolution.resolve"],
        "states.enumerate_s": own["states.enumerate_admissible"],
        "states.enumerate_calls": calls["states.enumerate_admissible"],
        "states.admissible": counts["states"],
        "chain.build_self_s": own["chain.build_complex"],
        "chain.basis": counts["basis"],
        "chain.nnz": counts["nnz"],
        "chain.degree_dim_max": maxima["degree_dim_max"],
        "chain.d_squared_s": own["chain.check_d_squared"],
        "chain.rescale_s": own["chain.rescale_basis"],
        "homology.rank_s": own["homology.matrix_rank"],
        "homology.rank_max_s": longest["homology.matrix_rank"],
        "homology.rank_calls": calls["homology.matrix_rank"],
        "homology.rank_rows_max": maxima["rows"],
        "homology.rank_sum": counts["rank"],
        "homology.rank_per_row": counts["rank"] / rows if rows else 0.0,
        "homology.survivor_scan_s": own["homology.compute_homology"],
        "homology.survivor_hit_ratio": counts["generators"] / scanned if scanned else 0.0,
        "homology.closed_form_s": own["homology.closed_form"],
        "homology.survivors_s": own["homology.survivors_combinatorial"],
        "homology.colorings": counts["colorings"],
        "homology.reconcile_s": own["homology.cross_validate"],
        "potential.lemma_s": own["potential.lemma_brute_check"],
        "potential.tuples": counts["tuples"],
        "states.projector_s": own["states.verify_projector_identities"],
        "trace.layer_self_s": sum(v for k, v in own.items() if k != "case"),
    }


OPERATORS = {
    "cyclotomic.mul": ("__mul__", "__rmul__"),
    "cyclotomic.add": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "cyclotomic.inv": ("inv",),
}


def _counted(fn, counts, key):
    def counted(*args):
        counts[key] += 1
        return fn(*args)

    return counted


@contextmanager
def counting_ops():
    """Count ``CycloNumber`` operator calls while the context is open."""
    counts = dict.fromkeys(OPERATORS, 0)
    saved = []
    try:
        for key, names in OPERATORS.items():
            for name in names:
                fn = vars(CycloNumber)[name]
                saved.append((name, fn))
                setattr(CycloNumber, name, _counted(fn, counts, key))
        yield counts
    finally:
        for name, fn in saved:
            setattr(CycloNumber, name, fn)
