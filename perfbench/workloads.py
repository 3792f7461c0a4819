"""The benchmark's three workloads: inputs from a seed, one round of operations, checks.

A workload object builds its inputs in its constructor, lists one round of
operations in ``ops`` as ``(label, callable)`` pairs, and checks one
operation's output with ``check(label, output)``, which returns a list of
problems.  Checks run outside the timed region and compare with the
oracles in ``oracles.py`` or with properties of the method, never with a
stored copy of an earlier output.

The program is called through its modules' attributes (``rewrite.standardize``
rather than a name imported from it) so that the traced run's wrappers see
every call.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from functools import reduce

import oracles
from onewaylab import clifford, dsl, library, patterns, rewrite, simulate
from onewaylab.commands import Shift


def _radians(frac: Fraction) -> float:
    return float(frac) * math.pi


# rewrite-wild -------------------------------------------------------------

# (command count, patterns) of the seeded wild patterns in one round.  Each
# pattern's rewrite cost varies by about 25% from seed to seed, so the round
# holds many patterns, most of them mid-sized, and the large ones that
# would dominate the round's cost are few.  Every other pattern takes the
# extended rewrite, so half the operations take each function.  Size 24
# gives patterns of 10 qubits, small enough for the reference simulator.
WILD_MIX = ((24, 8), (30, 40), (40, 40), (50, 40), (65, 32), (80, 28), (100, 20), (125, 12), (160, 4), (200, 2))
WILD_REFERENCE_QUBITS = 10


class RewriteWild:
    """Parse, standardize or standardize_extended, then serialize."""

    name = "rewrite-wild"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.inputs = {}
        for size, count in WILD_MIX:
            for k in range(count):
                pattern = library.random_wild_pattern(size, rng.randrange(2**31))
                extended = k % 2 == 1
                label = f"wild{size}.{k}.{'extended' if extended else 'core'}"
                self.inputs[label] = (pattern, dsl.serialize(pattern, f"w{size}_{k}"), extended)
        self._reference = {}

    def ops(self):
        return [(label, self._op(text, extended)) for label, (_, text, extended) in self.inputs.items()]

    @staticmethod
    def _op(text: str, extended: bool):
        def op():
            pattern = dsl.parse(text)
            fn = rewrite.standardize_extended if extended else rewrite.standardize
            result, trace = fn(pattern)
            return result, dsl.serialize(result, "nf")

        return op

    def warm_up(self):
        for label, op in self.ops()[:2]:
            op()

    def check(self, label, output) -> list[str]:
        source, _, extended = self.inputs[label]
        result, text = output
        problems = oracles.check_rewrite_invariants(source, result, label)
        has_shifts = any(isinstance(c, Shift) for c in source.commands)
        if extended or not has_shifts:
            problems += oracles.check_emc(result.commands, label)
        if not extended:
            problems += oracles.check_core_normal_form(result.commands, label)
        try:
            reparsed = dsl.parse(text)
        except dsl.DslError as exc:
            reparsed = exc
        if reparsed != result:
            problems.append(f"{label}: serialized result does not parse back equal")
        if len(source.space) <= WILD_REFERENCE_QUBITS and not problems:
            if label not in self._reference:
                self._reference[label] = oracles.branch_maps(source)
            same = oracles.check_same_branch_multiset if extended else oracles.check_same_branches
            problems += same(self._reference[label], result, label)
        return problems


# unitary-check ------------------------------------------------------------

# (wires, J gates, CZ gates) of the seeded circuits, each built twice: with
# Pauli angles (multiples of pi/2) and with odd multiples of pi/8.  The seed
# places the gates and picks the angles, so each circuit costs about the
# same on every seed.
CIRCUIT_SLOTS = ((1, 3, 0), (1, 5, 0), (1, 8, 0), (2, 3, 1), (2, 5, 1), (2, 6, 2), (3, 4, 1), (3, 6, 2))
GHZ_SIZES = range(3, 10)


def _odd_eighth(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(1, 16, 2), 8)


def random_gates(rng: random.Random, wires: int, n_j: int, n_cz: int, pauli: bool) -> list:
    """A seeded gate list for ``oracles.circuit_matrix``, angles as fractions of pi."""
    kinds = ["J"] * n_j + ["CZ"] * n_cz
    rng.shuffle(kinds)
    gates = []
    for kind in kinds:
        if kind == "J":
            angle = Fraction(rng.randrange(4), 2) if pauli else _odd_eighth(rng)
            gates.append(("J", rng.randrange(wires), angle))
        else:
            gates.append(("CZ", rng.randrange(wires - 1)))
    return gates


def circuit_pattern(gates, wires: int):
    """The pattern of a gate list, built with the library's j, cz and identity.

    Wire ``w`` starts at qubit ``100 * (w + 1)``; each J moves it one qubit on.
    Inputs and outputs stay in wire order.
    """
    tip = [100 * (w + 1) for w in range(wires)]
    result = reduce(patterns.tensor, [library.identity(q) for q in tip])
    for gate in gates:
        pieces = []
        w = 0
        while w < wires:
            if gate[0] == "J" and gate[1] == w:
                pieces.append(library.j(gate[2], tip[w], tip[w] + 1))
                tip[w] += 1
                w += 1
            elif gate[0] == "CZ" and gate[1] == w:
                pieces.append(library.cz(tip[w], tip[w + 1]))
                w += 2
            else:
                pieces.append(library.identity(tip[w]))
                w += 1
        result = patterns.compose(reduce(patterns.tensor, pieces), result)
    return result


class UnitaryCheck:
    """standardize, then extract_unitary with its determinism check, in both orders."""

    name = "unitary-check"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.cases = {}  # name -> (pattern, textbook matrix, pauli)
        for k, (wires, n_j, n_cz) in enumerate(CIRCUIT_SLOTS):
            for pauli in (True, False):
                gates = random_gates(rng, wires, n_j, n_cz, pauli)
                textbook = oracles.circuit_matrix(
                    [(g[0], g[1], _radians(g[2])) if g[0] == "J" else g for g in gates], wires
                )
                name = f"circuit{k}.{'pauli' if pauli else 'general'}"
                self.cases[name] = (circuit_pattern(gates, wires), textbook, pauli)
        rot = [_odd_eighth(rng) for _ in range(3)]
        cu = [_odd_eighth(rng) for _ in range(4)]
        self.cases["h"] = (library.h(), oracles.j_mat(0), True)
        self.cases["cnot"] = (library.cnot(), oracles.CNOT, True)
        self.cases["rotation"] = (
            library.rotation(*rot), oracles.rotation_mat(*map(_radians, rot)), False
        )
        self.cases["cu"] = (
            library.controlled_u(*cu), oracles.controlled_u_mat(*map(_radians, cu)), False
        )
        for n in GHZ_SIZES:
            self.cases[f"ghz{n}"] = (library.ghz(n), None, False)

    def ops(self):
        ops = []
        for name, (pattern, textbook, pauli) in self.cases.items():
            run = self._ghz_op if textbook is None else self._unitary_op
            ops.append(((name, "builder"), run(pattern, False, pauli)))
            ops.append(((name, "standardized"), run(pattern, True, pauli)))
        return ops

    @staticmethod
    def _unitary_op(pattern, standardized: bool, pauli: bool):
        def op():
            if not standardized:
                return simulate.extract_unitary(pattern), None, None
            standard, _ = rewrite.standardize(pattern)
            u = simulate.extract_unitary(standard)
            if not pauli:
                return u, None, None
            return u, clifford.pauli_eliminate(standard), clifford.is_clifford(u)

        return op

    @staticmethod
    def _ghz_op(pattern, standardized: bool, pauli: bool):
        def op():
            p = rewrite.standardize(pattern)[0] if standardized else pattern
            branches = simulate.run_all_branches(p)
            return [(b.probability, b.output) for b in branches], simulate.is_deterministic(p)

        return op

    def warm_up(self):
        for label, op in self.ops():
            if label[0] in ("h", "ghz3"):
                op()

    def check(self, label, output) -> list[str]:
        name, order = label
        what = f"{name} ({order})"
        _, textbook, pauli = self.cases[name]
        if textbook is None:
            branches, deterministic = output
            problems = oracles.check_ghz_branches(branches, int(name[3:]), what)
            if deterministic is not True:
                problems.append(f"{what}: is_deterministic says {deterministic!r}")
            return problems
        u, eliminated, clifford_verdict = output
        problems = oracles.check_unitary(u, textbook, what)
        if order == "standardized" and pauli:
            if not oracles.is_clifford_matrix(textbook):
                problems.append(f"{what}: textbook matrix of a Pauli circuit is not Clifford")
            if clifford_verdict is not True:
                problems.append(f"{what}: is_clifford says {clifford_verdict!r} on a Pauli circuit")
            problems += oracles.check_no_dependency(eliminated, f"{what} pauli_eliminate")
            problems += oracles.check_realises(eliminated, textbook, f"{what} pauli_eliminate")
        return problems


# cli-pipeline -------------------------------------------------------------

WILD_STAGE_SIZE = 150


class StageRunner:
    """Runs one CLI stage at a time and records its wall time and peak memory.

    Stage input and output go through unnamed temporary files, so the child
    can be reaped with ``os.wait4``, which gives that child's own peak RSS.
    """

    def __init__(self, src_dir: str, tmp_dir: str):
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.tmp_dir = tmp_dir
        self.walls: dict[str, list[float]] = {}
        self.peak_rss_kb = 0

    def run(self, args: list[str], stdin_text: str):
        with tempfile.TemporaryFile(dir=self.tmp_dir) as fin, tempfile.TemporaryFile(
            dir=self.tmp_dir
        ) as fout, tempfile.TemporaryFile(dir=self.tmp_dir) as ferr:
            fin.write(stdin_text.encode())
            fin.seek(0)
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "onewaylab.cli", *args],
                stdin=fin, stdout=fout, stderr=ferr, env=self.env,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.walls.setdefault(args[0], []).append(wall)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            fout.seek(0)
            ferr.seek(0)
            return proc.returncode, fout.read().decode(), ferr.read().decode()


def _pi_param(frac: Fraction) -> str:
    return f"{frac.numerator}/{frac.denominator}pi"


class CliPipeline:
    """``library <builder> | standardize [--extended] | simulate``, one stage at a time."""

    name = "cli-pipeline"

    def __init__(self, seed: int, runner: StageRunner):
        rng = random.Random(seed)
        self.runner = runner
        a, b, c = (_odd_eighth(rng) for _ in range(3))
        t1, t2 = _odd_eighth(rng), _odd_eighth(rng)
        n = rng.randrange(3, 6)
        # name -> (library arguments, --extended, textbook matrix)
        self.pipelines = {
            "h": (["h"], False, oracles.j_mat(0)),
            "cnot": (["cnot"], True, oracles.CNOT),
            "rotation": (
                ["rotation", *map(_pi_param, (a, b, c))], False,
                oracles.rotation_mat(*map(_radians, (a, b, c))),
            ),
            "teleport": (
                ["teleport", _pi_param(t1), _pi_param(t2)], True,
                oracles.j_mat(_radians(t2)) @ oracles.j_mat(_radians(t1)),
            ),
            "ghz": (["ghz", str(n)], False, oracles.ghz_vec(n)),
        }
        self.wild = library.random_wild_pattern(WILD_STAGE_SIZE, rng.randrange(2**31))
        self.wild_text = dsl.serialize(self.wild, "wild")

    def ops(self):
        ops = [(name, self._pipeline(*spec[:2])) for name, spec in self.pipelines.items()]
        ops.append(("wild", lambda: [self.runner.run(["standardize", "--extended"], self.wild_text)]))
        return ops

    def _pipeline(self, library_args: list[str], extended: bool):
        stages = [["library", *library_args], ["standardize"] + ["--extended"] * extended, ["simulate"]]

        def op():
            results, text = [], ""
            for args in stages:
                code, text, err = self.runner.run(args, text)
                results.append((code, text, err))
                if code != 0:
                    break
            return results

        return op

    def warm_up(self):
        self.runner.run(["library", "h"], "")
        self.runner.walls.clear()
        self.runner.peak_rss_kb = 0

    def check(self, label, output) -> list[str]:
        for code, _, err in output:
            if code != 0:
                return [f"{label}: a stage exited {code}: {err.strip()[-200:]}"]
        if label == "wild":
            result = dsl.parse(output[0][1])
            return oracles.check_emc(result.commands, label) + oracles.check_rewrite_invariants(
                self.wild, result, label
            )
        _, extended, textbook = self.pipelines[label]
        if len(output) != 3:
            return [f"{label}: pipeline stopped early"]
        built, standard = dsl.parse(output[0][1]), dsl.parse(output[1][1])
        problems = oracles.check_rewrite_invariants(built, standard, label)
        if extended:
            problems += oracles.check_emc(standard.commands, label)
        else:
            problems += oracles.check_core_normal_form(standard.commands, label)
        printed = output[2][1]
        if "deterministic: yes" not in printed.splitlines():
            return problems + [f"{label}: simulate does not report a deterministic pattern"]
        try:
            u = oracles.parse_printed_unitary(printed)
        except ValueError as exc:
            return problems + [f"{label}: {exc}"]
        return problems + oracles.check_unitary(u, textbook, label, oracles.PRINTED_TOL)


WORKLOADS = {w.name: w for w in (RewriteWild, UnitaryCheck, CliPipeline)}
