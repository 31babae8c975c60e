"""Command-line front end.

Commands:

* ``homology``  -- the three-way check: exact rank computation, closed form
  and survivor resolutions, plus d^2 = 0, with agreement in the exit code
  (0 agree, 1 mismatch).
* ``states``    -- admissible-state count (and optional listing) for one
  resolution of the cube.
* ``complex``   -- per-degree chain dimensions and optional sparse matrix
  dump of the differentials.
* ``verify``    -- the identity suites: admissibility lemma brute force,
  projector identities, telescoping identity, the complex's states against
  the per-resolution enumeration, d^2 = 0 with rescaling invariance, and
  the three-way homology cross-validation.  Only ``verify``
  takes ``--beta``: the complex and its homology do not depend on it.

Exit codes: 0 success, 1 mathematical mismatch, 2 input error, 3 resource
bound exceeded.  The bounds gate the work they measure, before it starts:
``--max-chain-dim`` the chain dimension of ``homology`` and ``complex``
(no vertex is resolved past it), and ``--max-raw-states`` the n^4 label
tuples of ``verify``'s lemma and the raw states of its projector suite.
``states`` walks its resolution's states once, cut one past the default
chain dimension bound, and keeps them only for ``--list``.
Diagrams are given as file paths or bundled fixture names;
output is deterministic for fixed input and flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import islice, product

from .chain import DEFAULT_MAX_CHAIN_DIM, build_complex, rescale_basis
from .diagram import DiagramError, LinkDiagram, linking_matrix, parse, writhe
from .errors import InternalCheckError, SizeBoundError
from .fixtures import FIXTURES
from .homology import compute_homology, cross_validate, matrix_rank
from .potential import (
    MultiPoly,
    PotentialContext,
    X_VARS,
    lemma_brute_check,
    u1_poly,
    u2_poly,
)
from .resolution import p_parity, resolve
from .states import (
    DEFAULT_MAX_RAW_STATES,
    iter_admissible,
    verify_projector_identities,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_BOUND = 3

VERIFY_DIAGRAMS = (
    "unknot0",
    "unknot_kink_pos",
    "unknot_kink_neg",
    "unlink2",
    "hopf_pos",
    "hopf_neg",
    "trefoil_right",
)


@dataclass
class RunConfig:
    n: int = 2
    beta: Fraction = Fraction(1)
    fmt: str = "text"
    max_chain_dim: int = DEFAULT_MAX_CHAIN_DIM
    max_raw_states: int = DEFAULT_MAX_RAW_STATES
    seed: int = 0

    def __post_init__(self):
        try:
            self.beta = Fraction(self.beta)
        except (ValueError, ZeroDivisionError) as exc:
            raise DiagramError(f"invalid --beta {self.beta!r}: {exc}") from None
        if self.n < 2:
            raise DiagramError("--n must be >= 2")
        if self.beta == 0:
            raise DiagramError("--beta must be nonzero")
        if min(self.max_chain_dim, self.max_raw_states) <= 0:
            raise DiagramError("size bounds must be positive")


def _load_diagram(source: str) -> tuple[str, LinkDiagram]:
    """Parse a file or fixture; the linking matrix rejects a non-planar code."""
    if os.path.exists(source):
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise DiagramError(f"cannot read {source!r}: {exc}") from None
    elif source in FIXTURES:
        text = FIXTURES[source]
    else:
        raise DiagramError(f"{source!r} is neither a file nor a bundled fixture name")
    d = parse(text)
    linking_matrix(d)
    return source, d


def _emit(payload: dict, lines: list[str], cfg: RunConfig):
    if cfg.fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _dims_str(dims: dict) -> str:
    return "{" + ", ".join(f"{k}: {dims[k]}" for k in sorted(dims)) + "}"


# ----------------------------------------------------------------------
# homology
# ----------------------------------------------------------------------

def cmd_homology(name: str, d: LinkDiagram, cfg: RunConfig) -> int:
    report = cross_validate(d, cfg.n, max_chain_dim=cfg.max_chain_dim)
    closed, computed, agree = report.closed, report.computed, report.passed

    payload = {
        "diagram": name,
        "n": cfg.n,
        "components": d.component_count,
        "dims": {str(k): v for k, v in sorted(computed.dims.items())},
        "total": computed.total,
        "generators": closed.to_json()["generators"],
        "closed_form_dims": {str(k): v for k, v in sorted(closed.dims.items())},
        "computed_dims": {str(k): v for k, v in sorted(computed.dims.items())},
        "agree": agree,
    }
    lines = [
        f"diagram: {name} ({len(d.crossings)} crossings, "
        f"{d.component_count} components, writhe {writhe(d)})",
        f"n = {cfg.n}",
        f"closed form:      {_dims_str(closed.dims)}  total {closed.total}",
        f"rank computation: {_dims_str(computed.dims)}  total {computed.total}",
        f"agreement: {'yes' if agree else 'NO'}",
        *(f"  {m}" for m in report.messages),
        "generators (degree: colorings):",
    ]
    for k, column in closed.psis.items():
        lines.append(f"  {k}: {' '.join(map(str, column))}")
    _emit(payload, lines, cfg)
    return EXIT_OK if agree else EXIT_MISMATCH


# ----------------------------------------------------------------------
# states
# ----------------------------------------------------------------------

def cmd_states(
    name: str, d: LinkDiagram, bits: str, list_states: bool, cfg: RunConfig
) -> int:
    if len(bits) != len(d.crossings) or any(b not in "01" for b in bits):
        raise DiagramError(
            f"--resolution needs {len(d.crossings)} bits of 0/1, got {bits!r}"
        )
    choice = tuple(int(b) for b in bits)
    r = resolve(d, choice)
    # one walk, cut one state past the bound; only --list keeps the states
    # (a state holds a label per thin edge), sorted as enumerate_admissible
    # sorts them
    walk = islice(iter_admissible(r, cfg.n), cfg.max_chain_dim + 1)
    states = list(walk) if list_states else None
    count = len(states) if list_states else sum(1 for _ in walk)
    if count > cfg.max_chain_dim:
        raise SizeBoundError(
            f"the resolution has more than {cfg.max_chain_dim} admissible states"
        )
    payload = {
        "diagram": name,
        "diagram_data": d.to_json(),
        "n": cfg.n,
        "resolution": bits,
        "thin_edges": list(r.thin_edges),
        "thick_edges": [list(t.slots) for t in r.thick_edges],
        "circles": list(r.circles),
        "parity": p_parity(r),
        "admissible_count": count,
    }
    lines = [
        f"diagram: {name}, resolution {bits}",
        f"thin edges: {list(r.thin_edges)}",
        f"thick edges: {len(r.thick_edges)}, free circles: {len(r.circles)}, "
        f"parity {p_parity(r)}",
        f"admissible states (n = {cfg.n}): {count}",
    ]
    if list_states:
        states.sort()
        payload["states"] = [list(s) for s in states]
        lines.extend(f"  {s}" for s in states)
    _emit(payload, lines, cfg)
    return EXIT_OK


# ----------------------------------------------------------------------
# complex
# ----------------------------------------------------------------------

def cmd_complex(
    name: str, d: LinkDiagram, matrices: bool, cfg: RunConfig
) -> int:
    cx = build_complex(d, cfg.n, max_chain_dim=cfg.max_chain_dim)
    dims = cx.dims()
    payload = {
        "diagram": name,
        "diagram_data": d.to_json(),
        "n": cfg.n,
        "dims": {str(k): v for k, v in sorted(dims.items())},
        "euler": cx.euler_characteristic(),
    }
    lines = [
        f"diagram: {name}",
        f"chain dimensions: {_dims_str(dims)}",
        f"euler characteristic: {cx.euler_characteristic()}",
    ]
    failure = cx.check_d_squared()
    payload["d_squared_zero"] = failure is None
    lines.append(f"d^2 = 0: {'yes' if failure is None else f'NO ({failure})'}")
    if matrices:
        blob = cx.matrices_json()
        payload["matrices"] = blob
        for k, triplets in sorted(blob.items(), key=lambda kv: int(kv[0])):
            lines.append(f"d_{k}: {len(triplets)} entries")
            lines.extend(f"  target {t} <- source {s}: {v}" for t, s, v in triplets)
    _emit(payload, lines, cfg)
    return EXIT_OK if failure is None else EXIT_MISMATCH


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _suite_lemma(cfg: RunConfig):
    betas = list(dict.fromkeys((cfg.beta, Fraction(2), Fraction(-3))))
    for n in range(2, cfg.n + 1):
        for beta in betas:
            report = lemma_brute_check(PotentialContext(n, beta))
            if not report.passed:
                return False, (
                    f"n={n} beta={beta}: counterexample {report.counterexamples[0]}"
                )
    return True, (
        f"n={cfg.n} beta {', '.join(map(str, betas))}: "
        f"{report.admissible_count} admissible of {report.tuples_checked} tuples"
    )


def _suite_projectors(cfg: RunConfig):
    last = ""
    for name in ("unknot0", "unknot_kink_pos", "hopf_pos", "hopf_neg"):
        d = parse(FIXTURES[name])
        for choice in product((0, 1), repeat=len(d.crossings)):
            r = resolve(d, choice)
            if cfg.n ** len(r.thin_edges) > cfg.max_raw_states:
                continue
            report = verify_projector_identities(
                r, cfg.n, cfg.beta, max_raw_states=cfg.max_raw_states
            )
            last = (
                f"{name}@{''.join(map(str, choice))}: "
                f"{report.admissible_count} admissible of {report.raw_count}"
            )
            if not report.passed:
                return False, f"{last}; {report.failures[0]}"
    if not last:  # unreachable from cmd_verify, whose n^4 gate admits unknot0
        raise SizeBoundError(
            f"--max-raw-states {cfg.max_raw_states} admits no projector "
            f"resolution at n={cfg.n}"
        )
    return True, last


def _suite_telescoping(cfg: RunConfig):
    for n in range(2, cfg.n + 1):
        ext = X_VARS + ("b",)
        x1, x2, x3, x4, b = (MultiPoly.variable(v, ext) for v in ext)
        shift = (n + 1) * b**n
        lhs = (u1_poly(n).with_vars(ext) - shift) * (x1 + x2 - x3 - x4) + (
            u2_poly(n).with_vars(ext) * (x1 * x2 - x3 * x4)
        )
        rhs = sum(
            ((x ** (n + 1)) - shift * x for x in (x1, x2)),
            MultiPoly.constant(0, ext),
        ) - sum(
            ((x ** (n + 1)) - shift * x for x in (x3, x4)),
            MultiPoly.constant(0, ext),
        )
        if not lhs == rhs:
            return False, f"telescoping identity fails at n={n}"
    return True, f"telescoping identity holds up to n={cfg.n}"


def _eliminated_dims(cx) -> dict[int, int]:
    """Homology dims per degree, every block's degrees ranked by elimination.

    ``compute_homology`` reads only which entries are nonzero, so it cannot
    tell a rescaled complex from the original; elimination reads the values.
    """
    ranks = Counter()
    for members, d in cx.blocks:
        for k, entries in d.items():
            ranks[k] += matrix_rank(entries, len(members[k + 1]))
    dims = {k: len(cx.basis[k]) - ranks[k] - ranks[k - 1] for k in cx.degrees}
    return {k: dim for k, dim in dims.items() if dim}


def _suite_complex(cfg: RunConfig):
    last = ""
    for name in VERIFY_DIAGRAMS:
        d = parse(FIXTURES[name])
        cx = build_complex(d, cfg.n)
        vertex = cx.check_states()
        if vertex is not None:
            return False, (
                f"{name}: states at vertex {''.join(map(str, vertex))} differ "
                "from the resolution enumeration"
            )
        failure = cx.check_d_squared()
        if failure is not None:
            return False, f"{name}: d^2 != 0 at {failure}"
        base = compute_homology(cx).dims
        for k in range(3):
            rescaled = rescale_basis(cx, cfg.seed + k)
            failure = rescaled.check_d_squared()
            if failure is not None:
                return False, f"{name}: rescaled d^2 != 0 at {failure}"
            if _eliminated_dims(rescaled) != base:
                return False, f"{name}: homology changed under rescaling seed {cfg.seed + k}"
        last = f"{name}: dims {_dims_str(base)} stable under 3 rescalings by elimination"
    return True, last


def _suite_cross_validate(cfg: RunConfig):
    last = ""
    for name in VERIFY_DIAGRAMS:
        d = parse(FIXTURES[name])
        report = cross_validate(d, cfg.n)
        if not report.passed:
            return False, f"{name}: {report.messages[0]}"
        last = f"{name}: three-way agreement on {_dims_str(report.closed.dims)}"
    return True, last


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.n**4 > cfg.max_raw_states:
        raise SizeBoundError(
            f"--max-raw-states {cfg.max_raw_states} is below the {cfg.n**4} "
            f"label tuples of the admissibility lemma at n={cfg.n}"
        )
    suites = [
        ("admissibility lemma", _suite_lemma),
        ("projector identities", _suite_projectors),
        ("telescoping identity", _suite_telescoping),
        ("complex integrity", _suite_complex),
        ("three-way homology", _suite_cross_validate),
    ]
    results = []
    ok_all = True
    for label, fn in suites:
        ok, detail = fn(cfg)
        results.append({"name": label, "passed": ok, "detail": detail})
        ok_all = ok_all and ok
    payload = {
        "n": cfg.n,
        "beta": str(cfg.beta),
        "suites": results,
        "passed": ok_all,
    }
    lines = [
        f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}: {r['detail']}"
        for r in results
    ]
    lines.append(f"verify: {'all suites passed' if ok_all else 'FAILURES PRESENT'}")
    _emit(payload, lines, cfg)
    return EXIT_OK if ok_all else EXIT_MISMATCH


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="slndeform",
        description="Deformed sl(n) link homology from planar diagrams, exactly.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, help, diagram=True):
        """A subcommand with --n and --format; options not given stay unset."""
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        if diagram:
            p.add_argument("diagram", help="diagram file or bundled fixture name")
        p.add_argument("--n", type=int, help="order of the root of unity")
        p.add_argument("--format", dest="fmt", choices=("text", "json"))
        return p

    def size_bounds(p):
        p.add_argument("--max-chain-dim", type=int, help="bound on the chain dimension")
        return p

    size_bounds(command("homology", "three-way homology check"))
    p = command("states", "admissible states of one resolution")
    p.add_argument("--resolution", required=True, help="bit string, one per crossing")
    p.add_argument("--list", action="store_true", default=False, help="list the states")
    p = size_bounds(command("complex", "chain dimensions and matrices"))
    p.add_argument(
        "--matrices", action="store_true", default=False, help="dump sparse differentials"
    )
    p = command("verify", "run the identity suites", diagram=False)
    p.add_argument("--beta", help="nonzero rational deformation scale")
    p.add_argument("--max-raw-states", type=int)
    p.add_argument("--seed", type=int)
    return top


def _config(args) -> RunConfig:
    """RunConfig from the options given; RunConfig holds every default."""
    opts = vars(args)
    names = [f.name for f in fields(RunConfig) if f.name in opts]
    return RunConfig(**{name: opts[name] for name in names})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        if args.command == "verify":
            return cmd_verify(cfg)
        name, d = _load_diagram(args.diagram)
        if args.command == "homology":
            return cmd_homology(name, d, cfg)
        if args.command == "states":
            return cmd_states(name, d, args.resolution, args.list, cfg)
        if args.command == "complex":
            return cmd_complex(name, d, args.matrices, cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except DiagramError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SizeBoundError as exc:
        print(f"size bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
