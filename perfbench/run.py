"""Layered benchmark of the slndeform pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload torus --seed 1 --seconds 30 --trace 0

``--trace 0`` times untraced passes over the workload's corpus for about
``--seconds`` seconds and reports the end-to-end metrics.  ``--trace 1``
alternates untraced and traced passes for as long, adds one
operator-counting pass, reports the per-layer metrics and writes the spans
of the first traced pass to ``.bench_trace/<workload>-<seed>.jsonl``.
Without ``--workload`` every workload runs, each in its own process.

End-to-end times are scaled to a nominal machine speed by ``SpeedProbe``,
which samples the interpreter's speed while each case runs; the wall times
are printed beside them.

Every case's answer is checked; a failure is printed and counted, never
skipped.  Every metric is printed by name with its unit, and the last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every check passed, 1 when one
failed, 2 when the package source is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_SAMPLES = 11
# End-to-end times are reported at a nominal machine speed, at which one
# probe (PROBE_LOOP iterations of an integer loop) takes PROBE_NOMINAL_S.
PROBE_LOOP = 20_000
PROBE_NOMINAL_S = 0.001
PROBE_INTERVAL_S = 0.04
PROBE_WINDOW = 15
CHILD_TIMEOUT_S = 170


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="torus, colorings or verify; all when omitted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class SpeedProbe:
    """Times calls and rescales them to the nominal machine speed.

    While a call runs, a SIGALRM handler times a fixed integer loop every
    PROBE_INTERVAL_S of wall time.  ``time`` returns the call's wall time
    without the probes, and that time scaled by PROBE_NOMINAL_S over the
    median of the probes taken during the call, extended back to the last
    PROBE_WINDOW probes when the call holds fewer.
    """

    def __init__(self):
        self.probes: list[float] = []

    def _probe(self, *_):
        start = time.perf_counter()
        acc = 0
        for j in range(PROBE_LOOP):
            acc += j * j
        self.probes.append(time.perf_counter() - start)

    def time(self, fn):
        """Call ``fn``; return (its result, wall seconds, scaled seconds)."""
        while len(self.probes) < PROBE_WINDOW:
            self._probe()
        first = len(self.probes)
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        during = self.probes[first:]
        wall = elapsed - sum(during)
        speed = statistics.median(self.probes[-max(len(during), PROBE_WINDOW):])
        return result, wall, wall * PROBE_NOMINAL_S / speed


def _check(case, i, answer, reference, failures):
    if reference[i] is None:
        reference[i] = answer
    elif answer != reference[i]:
        failures.append(f"{case.name}: answer {answer} != first pass {reference[i]}")


def _run_case(case, run, failures):
    """The case's answer, or None after recording why it failed."""
    try:
        return run(case)
    except Exception as exc:  # a failing case is reported and counted, never skipped
        failures.append(f"{case.name}: {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
        return None


def _run_pass(cases, reference, failures, run=lambda case: case.run(), probe=None):
    """Run every case once, checking each answer against the first pass.

    Returns the wall time of each case and, with a probe, its time at the
    nominal machine speed.
    """
    walls, scaled = [], []
    for i, case in enumerate(cases):
        if probe is None:
            start = time.perf_counter()
            answer = _run_case(case, run, failures)
            walls.append(time.perf_counter() - start)
        else:
            answer, wall, nominal = probe.time(lambda: _run_case(case, run, failures))
            walls.append(wall)
            scaled.append(nominal)
        if answer is not None:
            _check(case, i, answer, reference, failures)
    return walls, scaled


def _setup_once(workload: str, seed: int):
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL,
    )


def _measure(workloads, workload: str, seed: int, seconds: float):
    probe = SpeedProbe()
    setup = [probe.time(lambda: _setup_once(workload, seed))[1:] for _ in range(SETUP_SAMPLES)]
    cases = workloads.build(workload, seed)
    failures: list[str] = []
    reference = [None] * len(cases)
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        gc.collect()
        passes.append(_run_pass(cases, reference, failures, probe=probe))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    basis = sum(workloads.chain_dim(c) * c.homology_runs for c in cases)
    largest = next(i for i, c in enumerate(cases) if c.largest)

    def medians(k):
        return {
            "setup_s": statistics.median(s[k] for s in setup),
            "solve_s": statistics.median(sum(p[k]) for p in passes),
            "largest_case_s": statistics.median(p[k][largest] for p in passes),
        }

    wall, values = medians(0), medians(1)
    attempted = len(passes) * len(cases)
    values.update({
        "basis_per_s": basis / values["solve_s"],
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": (attempted - len(failures)) / attempted,
    })
    notes = {name: f"wall {t:.4g} s" for name, t in wall.items()}
    notes["setup_s"] += f", median of {len(setup)} processes"
    notes["solve_s"] += f", median of {len(passes)} passes of {len(cases)} cases"
    notes["largest_case_s"] += f", {cases[largest].name}"
    notes["basis_per_s"] = f"{basis} basis elements per pass"
    notes["peak_rss_mb"] = f"{len(probe.probes)} speed probes"
    return values, notes, attempted, failures


def _trace(workloads, tracing, workload: str, seed: int, seconds: float):
    setup_tracer = tracing.Tracer()
    with setup_tracer.installed():
        cases = workloads.build(workload, seed)
    parse_s = sum(s.end - s.start for s in setup_tracer.spans if s.name == "diagram.parse")
    dims = [workloads.chain_dim(c) for c in cases]
    want_rank_sum = sum(workloads.expected_rank_sum(c, d) for c, d in zip(cases, dims))

    failures: list[str] = []
    reference = [None] * len(cases)
    untraced, traced, layers = [], [], []
    first = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        gc.collect()
        untraced.append(sum(_run_pass(cases, reference, failures)[0]))
        gc.collect()
        tracer = tracing.Tracer()
        with tracer.installed():
            traced.append(sum(_run_pass(
                cases, reference, failures, lambda c: tracer.run_case(c.name, c.run)
            )[0]))
        layer = tracing.layer_metrics(tracer.spans)
        if layer["homology.rank_sum"] != want_rank_sum:
            failures.append(
                f"traced rank sum {layer['homology.rank_sum']} != {want_rank_sum} "
                "implied by the untraced dims"
            )
        if layer["chain.basis"] != sum(dims):
            failures.append(f"traced chain basis {layer['chain.basis']} != {sum(dims)}")
        layers.append(layer)
        if first is None:
            first = tracer
    gc.collect()
    with tracing.counting_ops() as ops:
        _run_pass(cases, reference, failures)

    units = {name: unit for name, unit, _, _ in metrics.PER_LAYER}
    values = {"diagram.parse_s": parse_s, **ops}
    for key in layers[0]:
        samples = [layer[key] for layer in layers]
        if units[key] == "s":
            values[key] = statistics.median(samples)
            continue
        values[key] = samples[0]
        if len(set(samples)) != 1:
            failures.append(f"{key} differs between traced passes: {samples}")
    values["trace.solve_s"] = statistics.median(traced)
    values["trace.overhead_ratio"] = values["trace.solve_s"] / statistics.median(untraced)

    TRACE_DIR.mkdir(exist_ok=True)
    tracing.write_spans(
        TRACE_DIR / f"{workload}-{seed}.jsonl",
        {"setup": setup_tracer.spans, "traced": first.spans},
    )
    notes = {key: f"median of {len(layers)} traced passes"
             for key in layers[0] if units[key] == "s"}
    notes["diagram.parse_s"] = "one traced set-up"
    notes["trace.overhead_ratio"] = f"over {len(untraced)} untraced passes"
    attempted = (2 * len(traced) + 1) * len(cases)
    return values, notes, attempted, failures


def _report(workload, table, values, notes, attempted, failures) -> dict:
    for msg in failures:
        print(f"FAIL {workload}: {msg}")
    result_metrics = {}
    for name, unit, *_ in table:
        value = values[name]
        print(f"{workload:<10} {name:<28} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
        result_metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result_metrics,
    }


def _run_all(args, names) -> int:
    """Each workload in its own process; prints their lines and a merged result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "slndeform" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload is None:
        return _run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.build(args.workload, args.seed)
        return 0
    if args.trace:
        import tracing

        table = metrics.PER_LAYER
        outcome = _trace(workloads, tracing, args.workload, args.seed, args.seconds)
    else:
        table = metrics.END_TO_END
        outcome = _measure(workloads, args.workload, args.seed, args.seconds)
    result = _report(args.workload, table, *outcome)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
