import contextlib
import importlib
import io
import json
import shutil
import unittest.mock
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TEXT_PIECES, flat_pattern, mutated_texts, run_isolated

from onewaylab.angles import Angle
from onewaylab.cli import main
from onewaylab.dsl import parse, serialize
from onewaylab.library import BUILDERS, cnot, ghz, h, j_chain, teleport


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


def test_validate_lists_d2_qubits_in_label_order(capsys, monkeypatch):
    # no qubit is measured and 1 is the only output, so 2, 9, 10 and a break D2
    text = "pattern p { space: 1, 2, 9, 10, a; input: 1; output: 1; seq: }"
    code, out, _ = run_cli(capsys, monkeypatch, ["validate"], stdin=text)
    assert code == 1
    assert "D2: violated (qubits: 2, 9, 10, a)" in out.splitlines()


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


@pytest.mark.parametrize("argv", [["validate", "{}"], ["verify", "--against", "{}"]], ids=["validate", "verify"])
def test_non_utf8_file_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    target = tmp_path / "bad.txt"
    target.write_bytes(b"\xff\xfe1 0\n0 1\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize(h())))
    with pytest.raises(SystemExit) as exit_:
        main([arg.format(target) for arg in argv])
    assert exit_.value.code == 2
    assert f"error: cannot read {target}: not UTF-8 text (byte 0)" in capsys.readouterr().err


def test_simulate_deep_patterns(tmp_path):
    # 1,200 measurements walk in a loop; a certified branch of 1,100 Y
    # measurements, probability 2^-1100, is rescaled as it goes, so its norm
    # does not underflow and its unitary is |+> up to phase
    code = "import sys; from onewaylab.cli import main; sys.exit(main(sys.argv[1:]))"
    deep, tiny = tmp_path / "deep.txt", tmp_path / "tiny.txt"
    deep.write_text(serialize(flat_pattern(1200, Angle.exact(0))))
    tiny.write_text(serialize(flat_pattern(1100, Angle.exact(1, 2))))
    result = run_isolated(code, "simulate", str(deep))
    assert result.returncode == 0 and "deterministic: yes" in result.stdout, result.stderr
    result = run_isolated(code, "simulate", str(tiny))
    assert result.returncode == 0, result.stderr
    words = result.stdout.split()
    assert words[:3] == ["deterministic:", "yes", "unitary:"], result.stdout
    amplitudes = [complex(word) for word in words[3:]]
    assert len(amplitudes) == 2 and abs(amplitudes[0] - amplitudes[1]) < 1e-8
    assert abs(abs(amplitudes[0]) - 0.5**0.5) < 1e-8, amplitudes
    assert result.stderr == ""


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


def test_graph_dependency_of_an_invalid_pattern_is_a_failure(capsys, monkeypatch):
    twice = "pattern p { space: 1, 2; input: ; output: ; seq: M(1, 0); M(2, 1/3 pi, s=s[1]); M(1, 0); }"
    code, out, err = run_cli(capsys, monkeypatch, ["graph", "--kind", "dependency"], stdin=twice)
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read the dependencies of an invalid pattern: ValidityReport(d0=None, d1=2")
    assert "Traceback" not in err


def test_graph_entanglement_dot(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["graph", "--kind", "entanglement"], stdin=serialize(ghz(3))
    )
    assert code == 0
    assert out.startswith("graph")


_PIPELINES = {
    "cu entanglement": "library cu 0 0 0 0 | graph --kind entanglement",
    "ghz entanglement": "library ghz 4 | graph --kind entanglement",
    "cnot dependency": "library cnot | standardize | graph --kind dependency",
}
# runs each pipeline of argv[1:] in one process, feeding each stage's stdout
# to the next, and prints their final outputs as a JSON list
_RUN_PIPELINES = """
import contextlib, io, json, sys
from onewaylab.cli import main
texts = []
for pipeline in sys.argv[1:]:
    text = ""
    for stage in pipeline.split("|"):
        sys.stdin, out = io.StringIO(text), io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(stage.split()) == 0
        text = out.getvalue()
    texts.append(text)
print(json.dumps(texts))
"""


def test_graph_output_does_not_depend_on_the_hash_seed(monkeypatch):
    outputs = {}
    for seed in range(4):
        monkeypatch.setenv("PYTHONHASHSEED", str(seed))
        result = run_isolated(_RUN_PIPELINES, *_PIPELINES.values())
        assert result.returncode == 0, result.stderr
        outputs[seed] = dict(zip(_PIPELINES, json.loads(result.stdout)))
    for name in _PIPELINES:
        texts = {seed: outputs[seed][name] for seed in outputs}
        assert len(set(texts.values())) == 1, (name, texts)
    # str labels keep their E command's order: "A" before "b"
    assert '"A" -- "b";' in outputs[0]["cu entanglement"]


# writes the CLI's refusal of the invalid pattern argv[1] to stderr, then
# refusals over str labels: of a composition, a tensor product, a rename to
# two non-labels, a signal naming three qubits outside the space and a
# command outside the space whose signal names two qubits; then the reprs of
# such a command, a pattern, a pattern document and a validity report
_RUN_REFUSALS = """
import io, sys
from onewaylab.cli import main
from onewaylab.commands import CorrectX
from onewaylab.dsl import PatternDocument
from onewaylab.library import h
from onewaylab.patterns import Pattern, PatternError, compose, rename, tensor, validate
from onewaylab.signals import signal
sys.stdin = io.StringIO(sys.argv[1])
assert main(["standardize"]) == 1
abc = Pattern("abc", "abc", "abc", ())
for refuse in (
    lambda: compose(Pattern("abcd", "d", "abcd", ()), abc),
    lambda: tensor(abc, abc),
    lambda: rename(h(), {1: "a b", 2: "7"}),
    lambda: Pattern("ab", "a", "b", (CorrectX("b", signal("c", "d", "e")),)),
    lambda: Pattern("ab", "a", "b", (CorrectX("c", signal("d", "c")),)),
):
    try:
        refuse()
    except PatternError as exc:
        print(f"error: {exc}", file=sys.stderr)
abcd = Pattern("abcd", "a", "a", ())
for value in (CorrectX("b", signal("d", "c")), abcd, PatternDocument("p", abcd), validate(abcd)):
    print(repr(value), file=sys.stderr)
"""


def test_refusals_do_not_depend_on_the_hash_seed(monkeypatch):
    invalid = "pattern p { space: a, b, c, d, e; input: ; output: a; seq: E(a,b); }"
    errors = {}
    for seed in range(1, 5):
        monkeypatch.setenv("PYTHONHASHSEED", str(seed))
        result = run_isolated(_RUN_REFUSALS, invalid)
        assert result.returncode == 0 and result.stdout == "", result.stderr
        errors[seed] = result.stderr
    assert set(errors.values()) == {
        "error: cannot standardize an invalid pattern: ValidityReport(d0=None, d1=None, d2=-1, "
        "d2_qubits=frozenset({'b', 'c', 'd', 'e'}))\n"
        "error: composition interface mismatch: need space overlap == outputs of first == inputs "
        "of second, got {'a', 'b', 'c'} / {'a', 'b', 'c'} / {'d'}\n"
        "error: tensor spaces overlap on {'a', 'b', 'c'}\n"
        "error: qubit label '7' has no text form: labels are non-negative ints or words of letters, "
        "digits, '_' and primes, not all digits\n"
        "error: signal qubit 'c' not in space\n"
        "error: command CorrectX(qubit='c', signal=Signal(support=frozenset({'c', 'd'}), constant=0)) "
        "acts outside the space\n"
        "CorrectX(qubit='b', signal=Signal(support=frozenset({'c', 'd'}), constant=0))\n"
        "Pattern(space=frozenset({'a', 'b', 'c', 'd'}), inputs=('a',), outputs=('a',), commands=())\n"
        "PatternDocument(name='p', pattern=Pattern(space=frozenset({'a', 'b', 'c', 'd'}), inputs=('a',), "
        "outputs=('a',), commands=()))\n"
        "ValidityReport(d0=None, d1=None, d2=-1, d2_qubits=frozenset({'b', 'c', 'd'}))\n"
    }, errors


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


_GHZ_PAST_THE_LIMIT = """
import resource, subprocess, sys, time

main = "import sys; from onewaylab.cli import main; sys.exit(main(sys.argv[1:]))"

def cap():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

start = time.perf_counter()
result = subprocess.run(
    [sys.executable, "-c", main, "library", "ghz", "100000000"], capture_output=True, text=True, preexec_fn=cap
)
elapsed = time.perf_counter() - start
assert result.returncode == 1, (result.returncode, result.stderr[-500:])
assert result.stderr.startswith("error: ghz(100000000) would hold 399999996 commands"), result.stderr
assert result.stdout == ""
assert elapsed < 1.0, elapsed
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
assert peak_mb < 100, peak_mb
"""


def test_a_ghz_past_the_limit_is_refused_at_once():
    # a wrapper interpreter runs the CLI, so RUSAGE_CHILDREN sees only its run
    result = run_isolated(_GHZ_PAST_THE_LIMIT)
    assert result.returncode == 0, result.stderr


# runs the CLI on argv[4:] with argv[3] as its input and stdout
# block-buffered, as it is by default, and closes the stream argv[1] after
# one line, or before the CLI can write when argv[2] is 0; prints the exit
# code, the line read and what the CLI wrote to stderr when stdout is the
# stream closed
_CLOSE_EARLY = """
import os, subprocess, sys
stream, lines, text, *argv = sys.argv[1:]
main = "import sys; from onewaylab.cli import main; sys.exit(main(sys.argv[1:]))"
env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
pipes = {"stdout": subprocess.DEVNULL, "stderr": subprocess.PIPE, stream: subprocess.PIPE}
cli = subprocess.Popen([sys.executable, "-c", main, *argv], stdin=subprocess.PIPE, text=True, env=env, **pipes)
reader = getattr(cli, stream)
if lines == "0":
    reader.close()
cli.stdin.write(text)
cli.stdin.close()
first = "" if reader.closed else reader.readline()
reader.close()
rest = cli.stderr.read() if stream == "stdout" else ""
print(cli.wait(), repr(first), repr(rest))
"""


@pytest.mark.parametrize(
    "stream, lines, pattern, argv, first",
    [
        ("stdout", 1, ghz(7), ["simulate", "--branches"], "branches: 64  (outcome order: 2, 3, 4, 5, 6, 7)\n"),
        (
            "stderr",
            1,
            j_chain([Fraction(1, 4)] * 40),
            ["standardize", "--extended", "--trace"],
            "EX @ 2: E(2,3) X(2, s[1]) => Z(3, s[1]) X(2, s[1]) E(2,3)\n",
        ),
        ("stdout", 0, cnot(), ["standardize"], ""),
        ("stderr", 0, cnot(), ["standardize", "--trace"], ""),
    ],
    ids=["stdout", "stderr", "stdout-before-any-line", "stderr-before-any-line"],
)
def test_a_reader_closing_its_pipe_ends_the_cli_with_exit_141(stream, lines, pattern, argv, first):
    # the first two write over 100 kB to the stream, more than a pipe holds,
    # so the CLI is still writing when its reader goes; the last two write a
    # short text, which the interpreter's last flush would write again
    result = run_isolated(_CLOSE_EARLY, stream, str(lines), serialize(pattern), *argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"141 {first!r} ''\n"


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
