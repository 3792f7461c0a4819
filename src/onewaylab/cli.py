"""Command-line front end.

Subcommands read a pattern document from a file argument (default ``-`` for
standard input) so they compose with pipes::

    onewaylab library cnot | onewaylab standardize | onewaylab simulate

Exit codes: 0 success, 1 validation/verification failure, 2 usage or parse
error, 141 when a reader closes standard output or error early.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from . import clifford, dsl, library, rewrite, simulate
from .patterns import PatternError, rename, tensor, validate
from .signals import qubit_key


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        _usage_error(f"cannot read {path}: not UTF-8 text (byte {exc.start})")


def _load(path: str) -> dsl.PatternDocument:
    return dsl.parse_document(_read_text(path))


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse_param(text: str):
    """A builder parameter: an integer count or an angle, as the text format reads it."""
    try:
        return int(text) if text.isdigit() else dsl.parse_angle(text)
    except ValueError as exc:  # a DslError, or digits that int() refuses
        _usage_error(f"bad parameter {text!r}: {exc}")


def _build(name: str, params):
    """The pattern of builder ``name`` on the text parameters ``params``."""
    if name not in library.BUILDERS:
        _usage_error(f"unknown pattern {name!r}; available: {', '.join(sorted(library.BUILDERS))}")
    arguments = [_parse_param(p) for p in params]
    try:
        return library.BUILDERS[name](*arguments)
    except TypeError as exc:
        _usage_error(f"bad parameters for {name}: {exc}")


def cmd_validate(args) -> int:
    doc = _load(args.file)
    report = validate(doc.pattern)
    emc = rewrite.is_emc(doc.pattern)
    for cond in ("d0", "d1", "d2"):
        where = getattr(report, cond)
        if where is None:
            print(f"{cond.upper()}: ok")
        elif where >= 0:
            print(f"{cond.upper()}: violated at command {where} "
                  f"({dsl.format_command(doc.pattern.commands[where])})")
        else:
            bad = ", ".join(str(q) for q in sorted(report.d2_qubits, key=qubit_key))
            print(f"{cond.upper()}: violated (qubits: {bad})")
    print(f"EMC: {'yes' if emc else 'no'}")
    return 0 if report.ok else 1


def cmd_standardize(args) -> int:
    doc = _load(args.file)
    if args.extended:
        result, trace = rewrite.standardize_extended(doc.pattern)
    else:
        result, trace = rewrite.standardize(doc.pattern)
    if args.trace:
        text = rewrite.format_trace(trace)
        if text:
            print(text, file=sys.stderr)
    sys.stdout.write(dsl.serialize(result, doc.name, paper_order=args.paper_order))
    return 0


def _input_state(spec: str | None, pattern):
    if spec is None:
        return None
    spec = spec.strip()
    n_inputs = len(pattern.inputs)
    if set(spec) <= {"0", "1"} and len(spec) == n_inputs and n_inputs > 0:
        state = np.zeros(2**n_inputs, dtype=complex)
        state[int(spec, 2)] = 1.0
        return state
    try:
        amplitudes = [complex(part) for part in spec.split(",")]
    except ValueError:
        _usage_error(f"cannot read input state {spec!r}")
    return simulate._input_vector(pattern, amplitudes)


def cmd_simulate(args) -> int:
    doc = _load(args.file)
    pattern = doc.pattern
    state = _input_state(args.input, pattern)
    if args.branches:
        branches = simulate.run_all_branches(pattern, state)
        print(simulate.format_branch_report(pattern, branches))
    try:
        u = simulate.extract_unitary(pattern)
    except simulate.NotDeterministicError:
        print("deterministic: no")
        return 0
    print("deterministic: yes")
    print("unitary:")
    for row in u:
        print("  " + "  ".join(f"{a.real:+.9f}{a.imag:+.9f}j" for a in row))
    return 0


def _phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance after optimal global-phase alignment."""
    inner = np.vdot(a, b)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(a * phase - b))


def cmd_verify(args) -> int:
    doc = _load(args.file)
    u = simulate.extract_unitary(doc.pattern)
    target = _target_matrix(args.against)
    if u.shape != target.shape:
        print(f"shape mismatch: pattern gives {u.shape}, target is {target.shape}")
        return 1
    distance = _phase_aligned_distance(u, target)
    ok = distance <= 1e-9 * max(1.0, float(np.linalg.norm(target)))
    print(f"{'match' if ok else 'MISMATCH'} (phase-aligned distance {distance:.3e})")
    return 0 if ok else 1


def _target_matrix(spec: str) -> np.ndarray:
    name, _, params = spec.partition(":")
    if name in library.BUILDERS:
        pattern = _build(name, [p for p in params.split(",") if p])
        return simulate.extract_unitary(pattern)
    rows = []
    for number, line in enumerate(_read_text(spec).splitlines(), 1):
        tokens = line.split()
        if not tokens:
            continue
        where = f"cannot read matrix {spec}: line {number}"
        try:
            rows.append([complex(tok) for tok in tokens])
        except ValueError:
            _usage_error(f"{where}: not a row of complex numbers: {line.strip()!r}")
        if len(rows[-1]) != len(rows[0]):
            _usage_error(f"{where}: {len(rows[-1])} entries, but the first row has {len(rows[0])}")
    if not rows:
        _usage_error(f"cannot read matrix {spec}: no rows")
    return np.asarray(rows, dtype=complex)


def cmd_graph(args) -> int:
    dot = library.entanglement_dot if args.kind == "entanglement" else library.dependency_dot
    sys.stdout.write(dot(_load(args.file).pattern))
    return 0


def cmd_library(args) -> int:
    pattern = _build(args.name, args.params)
    sys.stdout.write(dsl.serialize(pattern, args.name, paper_order=args.paper_order))
    return 0


def _theorem_suite():
    yield "cz", library.cz()
    yield "h", library.h()
    yield "teleport(0,0)", library.teleport(0, 0)
    yield "cnot", library.cnot()
    yield "cnot (x) cnot", tensor(library.cnot(), rename(library.cnot(), {1: 11, 2: 12, 3: 13, 4: 14}))
    yield "p_half", library.p_half()
    yield "j(1/4 pi)", library.j(Fraction(1, 4))
    yield "rx(1/4 pi)", library.rx(Fraction(1, 4))
    yield "rz(1/2 pi)", library.rz(Fraction(1, 2))


def cmd_theorems(args) -> int:
    checks = clifford.verify_no_dependency_theorems(_theorem_suite())
    print(clifford.format_theorem_report(checks))
    return 0 if all(c.passed for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onewaylab",
        description="Workbench for measurement-based computation patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the runnability conditions")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("standardize", help="rewrite to normal form")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--extended", action="store_true", help="also shift signals out")
    p.add_argument("--trace", action="store_true", help="print rewrite steps to stderr")
    p.add_argument("--paper-order", action="store_true", help="print commands right-to-left")
    p.set_defaults(func=cmd_standardize)

    p = sub.add_parser("simulate", help="run all measurement branches")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--input", help="basis bits ('10') or comma-separated amplitudes")
    p.add_argument("--branches", action="store_true", help="print the branch table")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="compare the pattern's unitary against a target")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument(
        "--against",
        required=True,
        help="builtin name (e.g. 'cnot' or 'j:1/4pi') or a matrix file",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("graph", help="export entanglement or dependency graph")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--kind", choices=("entanglement", "dependency"), required=True)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("library", help="emit a builtin pattern")
    p.add_argument("name")
    p.add_argument("params", nargs="*", help="angle or size parameters")
    p.add_argument("--paper-order", action="store_true")
    p.set_defaults(func=cmd_library)

    p = sub.add_parser("theorems", help="no-dependency theorem checks on the library")
    p.set_defaults(func=cmd_theorems)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, so that a reader gone before the exit is caught below
        return code
    except BrokenPipeError:
        # a reader closed its pipe: write nothing more, and let the interpreter's
        # last flush of either stream go to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        for stream in (sys.stdout, sys.stderr):
            os.dup2(devnull, stream.fileno())
        return 141  # the shell's code for a process that SIGPIPE ends
    except dsl.DslError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (PatternError, simulate.SimulationError, rewrite.RewriteError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
