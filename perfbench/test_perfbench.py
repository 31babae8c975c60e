"""Fast checks of the benchmark itself: generators, workloads, tracing, output.

Run from the repository root with ``python -m pytest perfbench``.
"""

import importlib.util
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from slndeform import chain, homology
from slndeform.diagram import linking_matrix, parse, writhe
from slndeform.fixtures import FIXTURES

import linkgen
import metrics
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_CHAIN_DIM = 1000  # cases up to this chain dimension run in well under a second


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _test_links():
    spec = importlib.util.spec_from_file_location("test_links", ROOT / "tests" / "test_links.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- generators ------------------------------------------------------------

def test_braid_closure_reproduces_borromean_token_for_token():
    want = _test_links().BORROMEAN
    assert linkgen.braid_closure([1, -2] * 3, 3).split() == want.split()


def test_torus_pd_at_three_is_the_trefoil_fixture():
    assert linkgen.torus_pd(3) == FIXTURES["trefoil_right"]


@pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
def test_torus_knot_has_one_component_and_writhe_k(k):
    for code in (linkgen.torus_pd(k), linkgen.relabel(linkgen.torus_pd(k), random.Random(k))):
        d = parse(code)
        assert d.component_count == 1
        assert writhe(d) == k
    closure = parse(linkgen.braid_closure([1] * k, 2))
    assert closure.component_count == 1 and writhe(closure) == k


@pytest.mark.parametrize("sign", [1, -1])
def test_hopf_closure_links_once(sign):
    d = parse(linkgen.braid_closure([sign, sign], 2))
    assert d.component_count == 2
    assert linking_matrix(d) == ((0, sign), (sign, 0))


def test_untouched_braid_strand_closes_into_a_circle():
    assert linkgen.braid_closure([1, 1], 3).split()[-1] == "U"


@pytest.mark.parametrize("parts,lk", [
    ([linkgen.torus_pd(3), "U", FIXTURES["hopf_neg"], FIXTURES["hopf_pos"]], (-1, 1)),
    (["U", linkgen.braid_closure([1, 1], 2), linkgen.braid_closure([-1, -1], 2)], (1, -1)),
])
def test_split_union_keeps_arc_labels_disjoint(parts, lk):
    code = linkgen.split_union(parts)
    labels = linkgen.arc_labels(code)
    assert len(labels) == sum(len(linkgen.arc_labels(p)) for p in parts)
    d = parse(code)
    assert d.component_count == sum(parse(p).component_count for p in parts)
    links = sorted(v for row in linking_matrix(d) for v in row if v)
    assert links == sorted(lk * 2)


def test_relabel_is_a_seeded_permutation():
    code = linkgen.torus_pd(5)
    a = linkgen.relabel(code, random.Random(4))
    assert a == linkgen.relabel(code, random.Random(4))
    assert linkgen.arc_labels(a) == linkgen.arc_labels(code)
    assert a != code


# -- workloads ---------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corpus_is_a_function_of_the_seed(workload):
    a = [(c.name, c.d) for c in workloads.build(workload, 3)]
    b = [(c.name, c.d) for c in workloads.build(workload, 3)]
    assert a == b
    assert sum(c.largest for c in workloads.build(workload, 3)) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_cases_pass_their_checks_and_trace_consistently(workload):
    cases = [c for c in workloads.build(workload, 5) if workloads.chain_dim(c) <= SMOKE_CHAIN_DIM]
    cases = [c for c in cases if not c.name.startswith(("projectors", "lemma n=5", "lemma n=6"))]
    assert cases
    answers = [c.run() for c in cases]
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = [tracer.run_case(c.name, c.run) for c in cases]
    assert traced == answers
    assert homology.matrix_rank is vars(homology)["matrix_rank"]
    assert chain.DeformedComplex.check_d_squared.__name__ == "check_d_squared"
    layer = tracing.layer_metrics(tracer.spans)
    dims = [workloads.chain_dim(c) for c in cases]
    assert layer["chain.basis"] == sum(dims)
    assert layer["homology.rank_sum"] == sum(
        workloads.expected_rank_sum(c, d) for c, d in zip(cases, dims)
    )
    assert all(t >= -1e-6 for t in tracing.self_times(tracer.spans))
    assert all(s.parent is None or s.parent < i for i, s in enumerate(tracer.spans))


def test_wrong_answer_is_a_case_failure():
    d = parse(linkgen.torus_pd(3))
    with pytest.raises(workloads.CaseFailure):
        workloads._cross_validated(d, 2, {0: 3})


def test_operator_counts_repeat_and_are_restored():
    case = next(c for c in workloads.build("verify", 1) if c.name == "rescaled T(2,3) n=3")
    runs = []
    for _ in range(2):
        with tracing.counting_ops() as ops:
            case.run()
        runs.append(dict(ops))
    assert runs[0] == runs[1] and runs[0]["cyclotomic.mul"] > 0
    assert tracing.CycloNumber.__mul__.__name__ == "__mul__"


# -- the command and its contract -------------------------------------------------

def test_metric_tables_match_benchmark_json():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        m[:3] for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in metrics.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,table", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_metric_it_declares(trace, table):
    proc = _run(["--workload", "colorings", "--seed", "2", "--seconds", "0", "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[table]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[1]: line.split()[3] for line in lines[:-1]}
    assert printed == declared


def test_command_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "torus", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
