"""Command-line behavior: outputs, exit codes, schemas, determinism."""

import json
from dataclasses import replace

import jsonschema
import pytest

from slndeform import cli, homology
from slndeform.cli import main

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


def test_size_bound_exit_code(capsys):
    code, _, err = _run(capsys, "homology", "figure_eight", "--max-crossings", "2")
    assert code == 3
    assert "size bound" in err


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


def test_states_rejects_options_it_does_not_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["states", "hopf_pos", "--resolution", "11", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_verify_rejects_max_crossings(capsys):
    # verify's diagrams are fixed and have at most 3 crossings
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


def test_verify_above_lemma_cap_is_an_input_error(capsys, monkeypatch):
    def no_suite(cfg):
        raise AssertionError("a suite ran before --n was checked")

    monkeypatch.setattr(cli, "_suite_lemma", no_suite)
    code, out, err = _run(capsys, "verify", "--n", "7")
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and "--n <= 6" in err


@pytest.mark.parametrize("n,bound", [(2, 1), (3, 2)])
def test_verify_with_no_projector_resolution_in_bound_exits_3(capsys, n, bound):
    # a bound below every resolution's raw state count leaves the projector
    # suite nothing to check, which must not read as a pass
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
