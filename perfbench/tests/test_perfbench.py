"""Tests of the benchmark itself: each workload runs end to end, each check bites.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
import workloads
from onewaylab import clifford, dsl, library, rewrite, simulate
from onewaylab.angles import Angle
from onewaylab.commands import CorrectX, CorrectZ, Entangle, Measure

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _declared(kind: str) -> set:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize(
    "workload, trace",
    [("rewrite-wild", 0), ("rewrite-wild", 1), ("unitary-check", 0), ("cli-pipeline", 0)],
)
def test_workload_runs_end_to_end(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _declared("per_layer" if trace else "end_to_end")
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "workloads.py", "oracles.py", "tracing.py"):
        (tmp_path / "perfbench" / name).write_text((BENCH / name).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rewrite-wild", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# the oracles ----------------------------------------------------------------


def test_reference_simulator_realises_textbook_j_and_cnot():
    assert oracles.check_realises(library.j(Fraction(1, 4)), oracles.j_mat(np.pi / 4), "j") == []
    assert oracles.check_realises(library.cnot(), oracles.CNOT, "cnot") == []
    assert oracles.check_realises(library.j(Fraction(1, 4)), oracles.j_mat(np.pi / 8), "j") != []


def test_textbook_controlled_u_matches_the_library_pattern():
    params = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    u = simulate.extract_unitary(library.controlled_u(*params), check_deterministic=False)
    textbook = oracles.controlled_u_mat(*(float(p) * np.pi for p in params))
    assert oracles.check_unitary(u, textbook, "cu") == []


# each check fails on a wrong answer -----------------------------------------


def _circuit_case(wl):
    name = next(n for n, (_, _, pauli) in wl.cases.items() if n.startswith("circuit") and pauli)
    return name, wl.cases[name]


def test_unitary_check_catches_a_j_angle_off_by_pi_over_8():
    wl = workloads.UnitaryCheck(3)
    gates = [("J", 0, Fraction(1, 4)), ("CZ", 0), ("J", 1, Fraction(3, 8))]
    textbook = oracles.circuit_matrix([(g[0], g[1], float(g[2]) * np.pi) if g[0] == "J" else g for g in gates], 2)
    wl.cases["probe"] = (workloads.circuit_pattern(gates, 2), textbook, False)
    good = simulate.extract_unitary(wl.cases["probe"][0])
    assert wl.check(("probe", "builder"), (good, None, None)) == []
    off = [gates[0], gates[1], ("J", 1, Fraction(3, 8) + Fraction(1, 8))]
    bad = simulate.extract_unitary(workloads.circuit_pattern(off, 2))
    assert wl.check(("probe", "builder"), (bad, None, None)) != []


def test_unitary_check_catches_a_wrong_clifford_verdict_and_a_dropped_correction():
    wl = workloads.UnitaryCheck(3)
    name, (pattern, textbook, _) = _circuit_case(wl)
    standard = rewrite.standardize(pattern)[0]
    u = simulate.extract_unitary(standard)
    eliminated = clifford.pauli_eliminate(standard)
    assert wl.check((name, "standardized"), (u, eliminated, True)) == []
    assert wl.check((name, "standardized"), (u, eliminated, False)) != []
    commands = list(eliminated.commands)
    last = max(k for k, c in enumerate(commands) if isinstance(c, CorrectX) and c.signal.support)
    dropped = eliminated.with_commands(commands[:last] + commands[last + 1:])
    assert wl.check((name, "standardized"), (u, dropped, True)) != []
    assert any(isinstance(c, Measure) and (c.s or c.t) for c in standard.commands)
    assert wl.check((name, "standardized"), (u, standard, True)) != []


def test_unitary_check_catches_a_wrong_ghz_branch():
    wl = workloads.UnitaryCheck(3)
    branches = [(b.probability, b.output) for b in simulate.run_all_branches(library.ghz(4))]
    assert wl.check(("ghz4", "builder"), (branches, True)) == []
    wrong = np.zeros(16, dtype=complex)
    wrong[0] = 1
    assert wl.check(("ghz4", "builder"), ([(branches[0][0], wrong)] + branches[1:], True)) != []
    assert wl.check(("ghz4", "builder"), (branches, False)) != []


def _small_wild(wl, extended: bool):
    for label, (source, _, ext) in wl.inputs.items():
        if ext == extended and len(source.space) <= workloads.WILD_REFERENCE_QUBITS:
            fn = rewrite.standardize_extended if extended else rewrite.standardize
            result = fn(source)[0]
            if any(isinstance(c, (CorrectX, CorrectZ)) and c.signal.support for c in result.commands):
                return label, result
    raise AssertionError("no small wild input with a dependent correction")


def test_rewrite_check_catches_a_dropped_correction():
    wl = workloads.RewriteWild(5)
    label, result = _small_wild(wl, extended=False)
    assert wl.check(label, (result, dsl.serialize(result, "nf"))) == []
    commands = list(result.commands)
    last = max(k for k, c in enumerate(commands) if isinstance(c, (CorrectX, CorrectZ)) and c.signal.support)
    dropped = result.with_commands(commands[:last] + commands[last + 1:])
    assert wl.check(label, (dropped, dsl.serialize(dropped, "nf"))) != []


def test_rewrite_check_catches_an_extended_measurement_off_by_pi_over_8():
    wl = workloads.RewriteWild(5)
    label, result = _small_wild(wl, extended=True)
    assert wl.check(label, (result, dsl.serialize(result, "nf"))) == []
    commands = list(result.commands)
    k = next(k for k, c in enumerate(commands) if isinstance(c, Measure))
    m = commands[k]
    commands[k] = Measure(m.qubit, Angle.exact(m.angle.fraction + Fraction(1, 8)), m.s, m.t)
    off = result.with_commands(commands)
    assert wl.check(label, (off, dsl.serialize(off, "nf"))) != []


def test_rewrite_check_catches_two_swapped_commands():
    wl = workloads.RewriteWild(5)
    label = next(l for l, (_, _, ext) in wl.inputs.items() if ext and l.startswith("wild100"))
    result = rewrite.standardize_extended(wl.inputs[label][0])[0]
    commands = list(result.commands)
    k = next(k for k, c in enumerate(commands) if isinstance(c, Measure))
    commands[k - 1], commands[k] = commands[k], commands[k - 1]
    swapped = result.with_commands(commands)
    assert isinstance(commands[k], Entangle)
    assert wl.check(label, (swapped, dsl.serialize(swapped, "nf"))) != []


def test_rewrite_check_catches_a_serialization_that_does_not_parse_back():
    wl = workloads.RewriteWild(5)
    label = next(iter(wl.inputs))
    result = rewrite.standardize(wl.inputs[label][0])[0]
    text = dsl.serialize(result, "nf").replace("E(", "E(1", 1)
    assert wl.check(label, (result, text)) != []


def test_cli_check_catches_a_printed_unitary_off_by_pi_over_8():
    wl = workloads.CliPipeline(3, runner=None)
    args, extended, textbook = wl.pipelines["teleport"]
    angles = [Fraction(a[:-2]) for a in args[1:]]

    def output(first, second):
        built = library.teleport(first, second)
        standard = (rewrite.standardize_extended if extended else rewrite.standardize)(built)[0]
        u = simulate.extract_unitary(standard)
        rows = "\n".join("  " + "  ".join(f"{a.real:+.9f}{a.imag:+.9f}j" for a in row) for row in u)
        printed = f"deterministic: yes\nunitary:\n{rows}\n"
        return [(0, dsl.serialize(built), ""), (0, dsl.serialize(standard), ""), (0, printed, "")]

    assert wl.check("teleport", output(*angles)) == []
    assert wl.check("teleport", output(angles[0], angles[1] + Fraction(1, 8))) != []
    assert wl.check("teleport", output(*angles)[:2] + [(1, "", "error")]) != []
