import contextlib
import importlib
import io
import shutil
import unittest.mock
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TEXT_PIECES, mutated_texts

from onewaylab.cli import main
from onewaylab.dsl import parse, serialize
from onewaylab.library import BUILDERS, cnot, ghz, h, teleport


def run_cli(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["validate"], stdin=serialize(cnot())
    )
    assert code == 0
    assert "D0: ok" in out and "EMC: no" in out


def test_validate_failure_exit_code(capsys, monkeypatch):
    bad = (
        "pattern p { space: 1, 2; input: 1; output: 2; seq: "
        "X(2, s[1]); E(1,2); M(1, 0); }"
    )
    code, out, _ = run_cli(capsys, monkeypatch, ["validate"], stdin=bad)
    assert code == 1
    assert "violated" in out


def test_parse_error_exit_code(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["validate"], stdin="pattern {")
    assert code == 2
    assert "parse error" in err


def test_standardize_pipeline(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["standardize"], stdin=serialize(cnot(), "cnot")
    )
    assert code == 0
    std = parse(out)
    from onewaylab.rewrite import is_emc

    assert is_emc(std)


def test_standardize_trace_goes_to_stderr(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys,
        monkeypatch,
        ["standardize", "--trace"],
        stdin=serialize(teleport(Fraction(1, 4), Fraction(1, 3))),
    )
    assert code == 0
    assert "EX @" in err
    assert "EX @" not in out


def test_standardize_paper_order_output(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["standardize", "--paper-order"],
        stdin=serialize(teleport(Fraction(1, 4), Fraction(1, 3))),
    )
    assert code == 0
    body = [line.strip() for line in out.splitlines() if line.strip().endswith(";")]
    seq = [line for line in body if line[0] in "EMXZS"]
    assert seq == [
        "X(3, s[2]);",
        "Z(3, s[1]);",
        "M(2, 5/3 pi, s=s[1]);",
        "M(1, 7/4 pi);",
        "E(2,3);",
        "E(1,2);",
    ]


def test_simulate_reports_unitary(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["simulate"], stdin=serialize(cnot())
    )
    assert code == 0
    assert "deterministic: yes" in out
    assert "unitary:" in out


def test_simulate_branch_table(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["simulate", "--branches", "--input", "10"],
        stdin=serialize(cnot()),
    )
    assert code == 0
    assert "deterministic: yes" in out


def test_verify_against_builtin(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["verify", "--against", "cnot"],
        stdin=serialize(cnot()),
    )
    assert code == 0 and "match" in out


def test_verify_mismatch(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["verify", "--against", "j:1/4pi"],
        stdin=serialize(teleport(0, 0)),
    )
    assert code == 1 and "MISMATCH" in out


def test_verify_against_matrix_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "h.mat"
    s = 1 / np.sqrt(2)
    target.write_text(f"{s}+0j {s}+0j\n{s}+0j {-s}+0j\n")
    from onewaylab.library import h

    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["verify", "--against", str(target)],
        stdin=serialize(h()),
    )
    assert code == 0 and "match" in out


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 0\n\n0 1+\n", "line 3: not a row of complex numbers: '0 1+'"),
        ("1 0\n0 1 0\n", "line 2: 3 entries, but the first row has 2"),
        ("", "no rows"),
    ],
    ids=["bad-entry", "ragged", "empty"],
)
def test_verify_malformed_matrix_file_is_a_usage_error(tmp_path, capsys, monkeypatch, text, message):
    target = tmp_path / "bad.mat"
    target.write_text(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize(h())))
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--against", str(target)])
    assert exit_.value.code == 2
    assert f"error: cannot read matrix {target}: {message}" in capsys.readouterr().err


def test_verify_matrix_of_the_wrong_shape_is_a_failure(tmp_path, capsys, monkeypatch):
    target = tmp_path / "one.mat"
    target.write_text("1\n")
    code, out, _ = run_cli(capsys, monkeypatch, ["verify", "--against", str(target)], stdin=serialize(h()))
    assert code == 1 and "shape mismatch" in out


def test_graph_dependency_dot(capsys, monkeypatch):
    from onewaylab.rewrite import standardize_extended

    std, _ = standardize_extended(ghz(4))
    code, out, _ = run_cli(
        capsys, monkeypatch, ["graph", "--kind", "dependency"], stdin=serialize(std)
    )
    assert code == 0
    assert out.startswith("digraph")


def test_graph_entanglement_dot(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["graph", "--kind", "entanglement"], stdin=serialize(ghz(3))
    )
    assert code == 0
    assert out.startswith("graph")


def test_library_emits_parseable_pattern(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["library", "ghz", "3"])
    assert code == 0
    assert parse(out) == ghz(3)


def test_library_with_angle_params(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["library", "j", "1/4pi"])
    assert code == 0
    from onewaylab.library import j

    assert parse(out) == j(Fraction(1, 4))


@pytest.mark.parametrize("param", ["1/0pi", "1/0", "1e999", "inf", "nan"])
def test_library_bad_angle_parameter(capsys, param):
    with pytest.raises(SystemExit) as exit_:
        main(["library", "j", param])
    assert exit_.value.code == 2
    assert "error: bad parameter" in capsys.readouterr().err


@pytest.mark.parametrize("angle", ["1/0 pi", "pi/0", "1e999"])
def test_simulate_malformed_angle_exit_code(capsys, monkeypatch, angle):
    text = (
        "pattern p { space: 1, 2; input: 1; output: 2; seq: "
        f"E(1,2); M(1, {angle}); X(2, s[1]); }}"
    )
    code, _, err = run_cli(capsys, monkeypatch, ["simulate"], stdin=text)
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("command", ["validate", "simulate", "standardize"])
@pytest.mark.parametrize("entangle", ["E(1,1)", "E(2, 2)"])
def test_invalid_command_exit_code(capsys, monkeypatch, command, entangle):
    text = (
        "pattern p { space: 1, 2; input: 1; output: 2; seq: "
        f"E(1,2); {entangle}; M(1, 0); X(2, s[1]); }}"
    )
    code, out, err = run_cli(capsys, monkeypatch, [command], stdin=text)
    assert code == 2
    assert "parse error: line 1, column 60: entanglement needs two distinct qubits" in err
    assert out == ""


@pytest.mark.parametrize("command", ["validate", "simulate", "standardize"])
def test_command_outside_space_exit_code(capsys, monkeypatch, command):
    text = "pattern p { space: 1; input: 1; output: 1; seq: E(1,2); }"
    code, out, err = run_cli(capsys, monkeypatch, [command], stdin=text)
    assert code == 2
    assert "parse error: line 1, column 49: command E(1,2) refers to a qubit outside the space" in err
    assert out == ""


def test_simulate_reports_not_deterministic(capsys, monkeypatch):
    truncated = "pattern p { space: 1, 2; input: 1; output: 2; seq: E(1,2); M(1, 0); }"
    code, out, _ = run_cli(capsys, monkeypatch, ["simulate"], stdin=truncated)
    assert code == 0
    assert "deterministic: no" in out and "unitary:" not in out


@pytest.mark.parametrize("branches", [[], ["--branches"]])
@pytest.mark.parametrize("spec", ["101", "1,0,0", "0,0", "nan,1"])
def test_simulate_bad_input_state(capsys, monkeypatch, branches, spec):
    from onewaylab.library import h

    code, out, err = run_cli(
        capsys, monkeypatch, ["simulate", "--input", spec, *branches], stdin=serialize(h())
    )
    assert code == 1
    assert "input state" in err and out == ""


def test_simulate_unreadable_input_state_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize(h())))
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--input", "abc"])
    assert exit_.value.code == 2
    assert "error: cannot read input state 'abc'" in capsys.readouterr().err


def test_simulate_over_state_limit(capsys, monkeypatch):
    from onewaylab import simulate

    monkeypatch.setattr(simulate, "MAX_AMPLITUDES", 4)
    code, _, err = run_cli(capsys, monkeypatch, ["simulate"], stdin=serialize(ghz(3)))
    assert code == 1
    assert "qubits wide" in err


def test_library_unknown_name(capsys, monkeypatch):
    with pytest.raises(SystemExit):
        main(["library", "nosuch"])


@pytest.mark.parametrize(
    "argv",
    [
        ["library", "nosuch"],
        ["library", "cnot", "1"],
        ["library", "j"],
        ["verify", "--against", "cnot:1"],
        ["verify", "--against", "cu:1"],
        ["verify", "--against", "j:"],
        ["verify", "--against", "j:1/4"],
        pytest.param(["library", "ghz", "9" * 5000], id="library ghz 5000-digit count"),
    ],
)
def test_bad_builder_call_is_a_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize(h())))
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    captured = capsys.readouterr()
    assert exit_.value.code == 2
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("command", ["validate", "simulate", "standardize"])
@pytest.mark.parametrize(
    "lists, column, message",
    [
        ("input: 1, 1; output: 1;", 33, "duplicate input qubit 1"),
        ("input: 2; output: 2;", 30, "input qubit 2 not in space"),
        pytest.param(
            f"input: {'9' * 5000};", 30, "integer of 5000 digits is too long", id="5000-digit label"
        ),
    ],
)
def test_interface_list_error_exit_code(capsys, monkeypatch, command, lists, column, message):
    text = f"pattern p {{ space: 1; {lists} seq: }}"
    code, out, err = run_cli(capsys, monkeypatch, [command], stdin=text)
    assert code == 2
    assert f"parse error: line 1, column {column}: {message}" in err
    assert out == ""


# counts stay small: ghz(n) and its unitary grow with n
_PARAMS = st.one_of(
    st.sampled_from(["0", "1", "3", "pi", "-pi", "1/4pi", "-3/8 pi", "pi/4", "0.5", "2pi", "1/0", "x"]),
    TEXT_PIECES.filter(lambda text: not text.isdigit()),
)


def _main_exits_cleanly(argv, stdin=""):
    """Run the CLI; anything but a return code or SystemExit propagates."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with unittest.mock.patch("sys.stdin", io.StringIO(stdin)):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)


@settings(deadline=None, max_examples=150)
@given(
    st.one_of(st.sampled_from(sorted(BUILDERS)), st.text("chjnotu", max_size=4)),
    st.lists(_PARAMS, max_size=5),
)
def test_builder_commands_never_raise(name, params):
    _main_exits_cleanly(["library", "--", name, *params])
    _main_exits_cleanly(["verify", "--against", f"{name}:{','.join(params)}"], serialize(h()))


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(["validate", "standardize", "simulate"]), mutated_texts())
def test_text_commands_never_raise(command, text):
    _main_exits_cleanly([command], text)


def test_theorems_pass(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["theorems"])
    assert code == 0
    assert "FAIL" not in out
    assert "PASS  cnot" in out


def test_missing_file_exit_code(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["validate", "/nonexistent/file"])
    assert code == 2
    assert "error" in err


def _distribution(name):
    try:
        return metadata.distribution(name)
    except metadata.PackageNotFoundError:
        return None


@pytest.mark.skipif(
    _distribution("onewaylab") is None,
    reason="importlib.metadata.PackageNotFoundError: "
    "the onewaylab distribution is not installed",
)
def test_entry_point_installed():
    assert shutil.which("onewaylab") is not None
    (entry,) = [
        ep
        for ep in _distribution("onewaylab").entry_points
        if ep.group == "console_scripts" and ep.name == "onewaylab"
    ]
    assert entry.value == "onewaylab.cli:main"
    assert entry.load() is main


def test_entry_point_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["onewaylab"] == "onewaylab.cli:main"
    module, _, attr = scripts["onewaylab"].partition(":")
    target = getattr(importlib.import_module(module), attr)
    assert callable(target) and target is main
