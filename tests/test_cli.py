"""Command-line behavior: outputs, exit codes, schemas, determinism."""

import json
from dataclasses import replace

import jsonschema
import pytest

from test_states import _torus_pd

from slndeform import chain, cli, homology, states
from slndeform.chain import DEFAULT_MAX_CHAIN_DIM
from slndeform.cli import RunConfig, main
from slndeform.cyclotomic import CycloNumber
from slndeform.diagram import parse_pd
from slndeform.errors import SizeBoundError
from slndeform.fixtures import fixture
from slndeform.resolution import resolve

HOMOLOGY_SCHEMA = {
    "type": "object",
    "required": [
        "diagram", "n", "components", "dims", "total",
        "generators", "closed_form_dims", "computed_dims", "agree",
    ],
    "properties": {
        "n": {"type": "integer", "minimum": 2},
        "components": {"type": "integer", "minimum": 1},
        "dims": {
            "type": "object",
            "patternProperties": {r"^-?\d+$": {"type": "integer", "minimum": 0}},
            "additionalProperties": False,
        },
        "total": {"type": "integer"},
        "generators": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["psi", "degree"],
                "properties": {
                    "psi": {"type": "array", "items": {"type": "integer"}},
                    "degree": {"type": "integer"},
                },
            },
        },
        "agree": {"type": "boolean"},
    },
}

DIAGRAM_SCHEMA = {
    "type": "object",
    "required": ["crossings", "arcs", "free_loops", "components"],
    "properties": {
        "crossings": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "sign", "in_under", "in_over",
                             "out_under", "out_over"],
                "properties": {"sign": {"enum": [1, -1]}},
            },
        },
        "free_loops": {"type": "integer", "minimum": 0},
        "components": {"type": "array", "items": {"type": "array"}},
    },
}

STATES_SCHEMA = {
    "type": "object",
    "required": ["diagram", "diagram_data", "n", "resolution", "thin_edges",
                 "thick_edges", "circles", "parity", "admissible_count"],
    "properties": {
        "diagram_data": DIAGRAM_SCHEMA,
        "resolution": {"type": "string", "pattern": "^[01]*$"},
        "parity": {"enum": [0, 1]},
        "admissible_count": {"type": "integer", "minimum": 0},
        "states": {"type": "array"},
    },
}

COMPLEX_SCHEMA = {
    "type": "object",
    "required": ["diagram", "diagram_data", "n", "dims", "euler",
                 "d_squared_zero"],
    "properties": {
        "diagram_data": DIAGRAM_SCHEMA,
        "euler": {"type": "integer"},
        "d_squared_zero": {"type": "boolean"},
        "matrices": {"type": "object"},
    },
}

VERIFY_SCHEMA = {
    "type": "object",
    "required": ["n", "beta", "suites", "passed"],
    "properties": {
        "suites": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "passed", "detail"],
            },
        },
        "passed": {"type": "boolean"},
    },
}


# `complex hopf_neg --n 3 --matrices`: the cube signs print as the ints +-1
HOPF_NEG_N3_MATRICES = """\
diagram: hopf_neg
chain dimensions: {-2: 12, -1: 12, 0: 9}
euler characteristic: 9
d^2 = 0: yes
d_-2: 12 entries
  target 0 <- source 2: 1
  target 1 <- source 3: 1
  target 2 <- source 4: 1
  target 3 <- source 7: 1
  target 4 <- source 8: 1
  target 5 <- source 9: 1
  target 6 <- source 2: -1
  target 7 <- source 3: -1
  target 8 <- source 4: -1
  target 9 <- source 7: -1
  target 10 <- source 8: -1
  target 11 <- source 9: -1
d_-1: 12 entries
  target 1 <- source 0: 1
  target 1 <- source 6: 1
  target 2 <- source 1: 1
  target 2 <- source 7: 1
  target 3 <- source 2: 1
  target 3 <- source 8: 1
  target 5 <- source 3: 1
  target 5 <- source 9: 1
  target 6 <- source 4: 1
  target 6 <- source 10: 1
  target 7 <- source 5: 1
  target 7 <- source 11: 1
d_0: 0 entries
"""


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homology_hopf_agrees(capsys):
    code, out, _ = _run(capsys, "homology", "hopf_pos", "--n", "2")
    assert code == 0
    assert "agreement: yes" in out
    assert "{0: 2, 2: 2}" in out


def test_homology_unknot_n5(capsys):
    code, out, _ = _run(capsys, "homology", "unknot0", "--n", "5")
    assert code == 0
    assert "{0: 5}" in out


def test_homology_json_schema(capsys):
    code, out, _ = _run(capsys, "homology", "hopf_neg", "--n", "3",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, HOMOLOGY_SCHEMA)
    assert "beta" not in payload
    assert payload["agree"] is True
    assert payload["dims"] == {"-2": 6, "0": 3}


def test_homology_mismatch_reports_the_computed_dims(capsys, monkeypatch):
    real = homology.compute_homology
    monkeypatch.setattr(
        "slndeform.homology.compute_homology",
        lambda cx: replace(real(cx), dims={0: 99}),
    )
    code, out, _ = _run(capsys, "homology", "hopf_pos", "--n", "2",
                        "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["agree"] is False
    assert payload["dims"] == {"0": 99}
    assert payload["total"] == 99
    assert payload["closed_form_dims"] == {"0": 2, "2": 2}
    code, out, _ = _run(capsys, "homology", "hopf_pos", "--n", "2")
    assert code == 1
    assert "agreement: NO\n  rank computation {0: 99} != closed form" in out


def test_corrupt_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.pd"
    bad.write_text("X[1,2,3] nonsense")
    code, _, err = _run(capsys, "homology", str(bad))
    assert code == 2
    assert "input error" in err


def test_directory_path_is_input_error(tmp_path, capsys):
    code, _, err = _run(capsys, "homology", str(tmp_path))
    assert code == 2
    assert "input error" in err
    assert str(tmp_path) in err


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "binary.pd"
    bad.write_bytes(b"\xff\xfe")
    code, _, err = _run(capsys, "homology", str(bad))
    assert code == 2
    assert "input error" in err
    assert str(bad) in err


def test_missing_diagram_is_input_error(capsys):
    code, _, err = _run(capsys, "homology", "no_such_thing")
    assert code == 2
    assert "fixture" in err


# (1, 5) crosses each of (2, 4) and (3, 7) once: it parses, but no planar
# diagram has it
NON_PLANAR = "X[5,4,1,2] X[1,7,5,3] X[6,7,8,3] X[8,4,6,2]\n"


@pytest.mark.parametrize("argv", [
    ["homology"],
    ["complex", "--matrices"],
    ["states", "--resolution", "0000"],
], ids=["homology", "complex", "states"])
def test_non_planar_code_is_input_error(tmp_path, capsys, argv):
    f = tmp_path / "non_planar.pd"
    f.write_text(NON_PLANAR)
    code, out, err = _run(capsys, argv[0], str(f), *argv[1:])
    assert code == 2
    assert out == ""
    assert "not planar-consistent" in err


def test_diagram_file_loading(tmp_path, capsys):
    f = tmp_path / "hopf.pd"
    f.write_text("X[1,4,2,3] X[3,2,4,1]\n")
    code, out, _ = _run(capsys, "homology", str(f), "--format", "json")
    assert code == 0
    assert json.loads(out)["dims"] == {"0": 2, "2": 2}


def test_signed_file_loading(tmp_path, capsys):
    f = tmp_path / "hopf.signed"
    f.write_text("C[-;1,3,2,4] C[-;3,1,4,2]\n")
    code, out, _ = _run(capsys, "homology", str(f), "--format", "json")
    assert code == 0
    assert json.loads(out)["dims"] == {"-2": 2, "0": 2}


def test_size_bound_exit_code(tmp_path, capsys, monkeypatch):
    # 2^41 cube vertices: refused before the walk or any vertex
    def never(*args):
        raise AssertionError("the walk or a vertex ran")

    monkeypatch.setattr(chain, "_arc_colorings", never)
    monkeypatch.setattr(chain, "resolve", never)
    f = tmp_path / "t241.pd"
    f.write_text(_torus_pd(41))
    code, out, err = _run(capsys, "homology", str(f), "--n", "2")
    assert code == 3 and out == ""
    assert err.startswith(
        f"size bound exceeded: chain dimension exceeds the bound {DEFAULT_MAX_CHAIN_DIM}:"
    )
    assert "at least 2^41 * 2^0" in err


@pytest.mark.parametrize("command", ["homology", "complex"])
def test_max_crossings_is_not_an_option(capsys, command):
    # the chain dimension bound also bounds the cube, so no crossing cap exists
    with pytest.raises(SystemExit) as exc:
        main([command, "hopf_pos", "--max-crossings", "12"])
    assert exc.value.code == 2
    assert "--max-crossings" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["homology", "complex"])
def test_chain_dimension_bound_exit_code(capsys, command):
    # trefoil_right at n = 3 has 87 chain elements
    code, out, err = _run(
        capsys, command, "trefoil_right", "--n", "3", "--max-chain-dim", "86"
    )
    assert code == 3 and out == ""
    assert "chain dimension exceeds the bound 86" in err
    code, _, _ = _run(capsys, command, "trefoil_right", "--n", "3", "--max-chain-dim", "87")
    assert code == 0
    code, _, err = _run(capsys, command, "trefoil_right", "--max-chain-dim", "0")
    assert code == 2 and "size bounds must be positive" in err


def test_verify_rejects_max_chain_dim(capsys):
    # verify builds only its fixed small diagrams
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-chain-dim", "10"])
    assert exc.value.code == 2


def test_verify_fails_on_a_dropped_coloring(capsys, monkeypatch):
    # the walk loses the first cube of each diagram; verify compares each
    # fixture complex with the resolution-based enumeration, vertex by vertex
    walk = chain._arc_colorings

    def drop_first_cube(d, n, bound):
        colorings = walk(d, n, bound)
        i = next((i for i, (_, free, _) in enumerate(colorings) if free), None)
        return colorings if i is None else colorings[:i] + colorings[i + 1:]

    monkeypatch.setattr(chain, "_arc_colorings", drop_first_cube)
    code, out, _ = _run(capsys, "verify", "--n", "2")
    assert code == 1
    assert "FAIL  complex integrity: unknot_kink_pos: states at vertex" in out
    assert "differ from the resolution enumeration" in out


def test_states_counts(capsys):
    code, out, _ = _run(capsys, "states", "hopf_pos", "--resolution", "11")
    assert code == 0
    assert "admissible states (n = 2): 4" in out
    code, out, _ = _run(capsys, "states", "hopf_pos", "--resolution", "00")
    assert code == 0
    assert "admissible states (n = 2): 4" in out


def test_states_bad_bits(capsys):
    code, _, err = _run(capsys, "states", "hopf_pos", "--resolution", "1")
    assert code == 2
    code, _, err = _run(capsys, "states", "hopf_pos", "--resolution", "12")
    assert code == 2


def test_states_json_schema(capsys):
    code, out, _ = _run(capsys, "states", "hopf_pos", "--resolution", "11",
                        "--list", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, STATES_SCHEMA)
    assert payload["admissible_count"] == 4
    assert len(payload["states"]) == 4


def test_states_past_the_bound_exits_3_before_any_state_is_kept(tmp_path, capsys, monkeypatch):
    # T(2,1001) at n = 2: 2^1001 states at the all-ones vertex, a walk
    # 1001 thick edges deep; counted up to the bound, never listed
    def never(*args):
        raise AssertionError("the states were enumerated")

    config = cli._config
    monkeypatch.setattr(cli, "_config", lambda args: replace(config(args), max_chain_dim=1000))
    monkeypatch.setattr(states, "enumerate_admissible", never)
    f = tmp_path / "t21001.pd"
    f.write_text(_torus_pd(1001))
    code, out, err = _run(capsys, "states", str(f), "--n", "2", "--resolution", "1" * 1001)
    assert code == 3 and out == ""
    assert err == "size bound exceeded: the resolution has more than 1000 admissible states\n"


def test_states_bound_counts_the_states_exactly(capsys):
    # T(2,11) at n = 2 has 2^11 states at the all-ones vertex; T(2,21) 2^21
    d = parse_pd(_torus_pd(11))
    assert cli.cmd_states("t", d, "1" * 11, False, RunConfig(n=2, max_chain_dim=2048)) == 0
    assert "admissible states (n = 2): 2048" in capsys.readouterr().out
    for k, bound in ((11, 2047), (21, 2**14)):
        with pytest.raises(SizeBoundError, match=f"more than {bound} admissible states"):
            cli.cmd_states(
                "t", parse_pd(_torus_pd(k)), "1" * k, False, RunConfig(n=2, max_chain_dim=bound)
            )
    assert capsys.readouterr().out == ""


def test_states_walks_the_resolution_once(capsys, monkeypatch):
    d = fixture("trefoil_right")
    expected = states.enumerate_admissible(resolve(d, (1, 1, 1)), 3)
    walk, walks = states.iter_admissible, []

    def spy(r, n):
        walks.append(n)
        return walk(r, n)

    def never(*args):
        raise AssertionError("enumerate_admissible was called")

    # enumerate_admissible walks through states' own iter_admissible
    monkeypatch.setattr(cli, "iter_admissible", spy)
    monkeypatch.setattr(states, "iter_admissible", spy)
    monkeypatch.setattr(states, "enumerate_admissible", never)
    for list_states in (False, True):
        walks.clear()
        assert cli.cmd_states("trefoil_right", d, "111", list_states, RunConfig(n=3)) == 0
        assert walks == [3]
    out = capsys.readouterr().out
    assert out.count("admissible states (n = 3): 24") == 2
    assert out.splitlines()[-24:] == [f"  {s}" for s in expected]


@pytest.mark.parametrize("list_states", [False, True])
def test_states_bound_admits_exactly_the_count(list_states, capsys, monkeypatch):
    # trefoil_right at n = 3, resolution 111: 24 admissible states
    d = fixture("trefoil_right")
    config = RunConfig(n=3, max_chain_dim=24, fmt="json")
    assert cli.cmd_states("trefoil_right", d, "111", list_states, config) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["admissible_count"] == 24
    assert ("states" in payload) == list_states
    parse_args = cli._config
    monkeypatch.setattr(cli, "_config", lambda args: replace(parse_args(args), max_chain_dim=23))
    argv = ["states", "trefoil_right", "--n", "3", "--resolution", "111"]
    code, out, err = _run(capsys, *argv, *(["--list"] if list_states else []))
    assert code == 3 and out == ""
    assert err == "size bound exceeded: the resolution has more than 23 admissible states\n"


def test_states_rejects_options_it_does_not_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["states", "hopf_pos", "--resolution", "11", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_verify_rejects_max_crossings(capsys):
    # no command takes a crossing cap: the chain dimension bound covers the cube
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-crossings", "12"])
    assert exc.value.code == 2
    assert "--max-crossings" in capsys.readouterr().err


def test_complex_json_schema(capsys):
    code, out, _ = _run(capsys, "complex", "hopf_pos", "--matrices",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, COMPLEX_SCHEMA)
    assert "beta" not in payload
    assert payload["dims"] == {"0": 4, "1": 4, "2": 4}
    assert payload["d_squared_zero"] is True
    assert set(payload["matrices"]) == {"0", "1", "2"}
    assert payload["matrices"]["2"] == []  # top degree has no outgoing map
    assert len(payload["matrices"]["0"]) == 4


@pytest.mark.parametrize("command", ["homology", "complex"])
def test_beta_is_not_an_option_of_the_complex(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "hopf_pos", "--beta", "2"])
    assert exc.value.code == 2
    assert "--beta" in capsys.readouterr().err


def test_invalid_beta_rejected(capsys):
    code, _, err = _run(capsys, "verify", "--beta", "0")
    assert code == 2
    code, _, err = _run(capsys, "verify", "--beta", "x")
    assert code == 2


def test_beta_fraction_accepted(capsys):
    code, out, _ = _run(capsys, "verify", "--n", "2", "--beta", "1/2",
                        "--format", "json")
    assert code == 0
    assert json.loads(out)["beta"] == "1/2"


def test_verify_text_names_every_beta_of_the_lemma(capsys):
    code, out, _ = _run(capsys, "verify", "--n", "3", "--beta", "1/2")
    assert code == 0
    lemma = "admissibility lemma: n=3 beta 1/2, 2, -3: 12 admissible of 81 tuples"
    assert lemma in out


def test_verify_passes_by_default(capsys):
    code, out, _ = _run(capsys, "verify")
    assert code == 0
    assert "all suites passed" in out
    assert out.count("PASS") == 5


def test_verify_json_schema(capsys):
    code, out, _ = _run(capsys, "verify", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, VERIFY_SCHEMA)
    assert payload["passed"] is True


def test_verify_n6_covers_1296_tuples(capsys):
    code, out, _ = _run(capsys, "verify", "--n", "6")
    assert code == 0
    assert "1296 tuples" in out


def test_verify_past_the_raw_state_bound_exits_3_before_any_suite(capsys, monkeypatch):
    # the lemma scans n^4 label tuples: 10^4 > 6561 = 9^4, the default bound
    def no_suite(cfg):
        raise AssertionError("a suite ran before n^4 was checked")

    for suite in ("lemma", "projectors", "telescoping", "complex", "cross_validate"):
        monkeypatch.setattr(cli, f"_suite_{suite}", no_suite)
    code, out, err = _run(capsys, "verify", "--n", "10")
    assert code == 3
    assert out == ""
    assert err.startswith("size bound exceeded:")
    assert "--max-raw-states 6561" in err and "n=10" in err
    code, _, err = _run(capsys, "verify", "--n", "3", "--max-raw-states", "80")
    assert code == 3 and "--max-raw-states 80" in err
    monkeypatch.undo()
    code, out, _ = _run(capsys, "verify", "--n", "3", "--max-raw-states", "81")
    assert code == 0 and "12 admissible of 81 tuples" in out


def test_verify_n7_passes(capsys):
    code, out, _ = _run(capsys, "verify", "--n", "7")
    assert code == 0
    assert "n=7 beta 1, 2, -3: 84 admissible of 2401 tuples" in out
    assert out.count("PASS") == 5


def test_projector_suite_with_no_resolution_in_bound_raises():
    # cmd_verify's n^4 gate admits unknot0 (n raw states), so only a direct
    # call can leave the suite nothing to check, which must not read as a pass
    with pytest.raises(SizeBoundError, match="--max-raw-states 1 admits no projector"):
        cli._suite_projectors(RunConfig(n=2, max_raw_states=1))


@pytest.mark.parametrize("n,bound", [(2, 1), (3, 2)])
def test_verify_with_no_projector_resolution_in_bound_exits_3(capsys, n, bound):
    # a bound below n^4 stops verify before any suite, projectors included
    code, out, err = _run(
        capsys, "verify", "--n", str(n), "--max-raw-states", str(bound)
    )
    assert code == 3
    assert out == ""
    assert f"--max-raw-states {bound}" in err and f"n={n}" in err


def test_output_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = _run(capsys, "homology", "figure_eight", "--n", "3",
                            "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, _ = _run(capsys, "verify", "--seed", "7")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    code, out, _ = _run(capsys, "complex", "hopf_neg", "--n", "3", "--matrices")
    assert code == 0
    assert out == HOPF_NEG_N3_MATRICES


def test_verify_ranks_rescaled_blocks_by_elimination(capsys, monkeypatch):
    # an elimination that multiplies by each pivot instead of its inverse
    # leaves the unrescaled ±1 blocks alone, so only the rescaling check,
    # which ranks the rescaled blocks by elimination, can see it
    eliminate = homology._eliminate

    def without_inverse(entries, nrows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CycloNumber, "inv", lambda self: self)
            return eliminate(entries, nrows)

    monkeypatch.setattr(homology, "_eliminate", without_inverse)
    code, out, _ = _run(capsys, "verify", "--n", "3")
    assert code == 1
    assert "FAIL  complex integrity:" in out and "under rescaling seed" in out
    assert "PASS  three-way homology:" in out
