"""Pauli-measurement analysis and Clifford-group verification.

Patterns whose measurements are all along the X or Y axis can be rewritten
so that no measurement depends on any other (the dependencies migrate into
the final corrections), which pins their unitaries inside the Clifford
group; this module provides that elimination plus a numeric Clifford
membership test used to check the claim on concrete patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .commands import Measure, command_signals
from .signals import Signal
from .patterns import Pattern, PatternError
from .rewrite import is_standard, standardize_extended
from .simulate import extract_unitary

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_PHASES = (1, 1j, -1, -1j)

# single-qubit products: _MUL[a][b] = (phase, letter) with a.b = phase*letter
_MUL = {
    "I": {"I": (1, "I"), "X": (1, "X"), "Y": (1, "Y"), "Z": (1, "Z")},
    "X": {"I": (1, "X"), "X": (1, "I"), "Y": (1j, "Z"), "Z": (-1j, "Y")},
    "Y": {"I": (1, "Y"), "X": (-1j, "Z"), "Y": (1, "I"), "Z": (1j, "X")},
    "Z": {"I": (1, "Z"), "X": (1j, "Y"), "Y": (-1j, "X"), "Z": (1, "I")},
}


class AngleClassificationError(ValueError):
    """An inexact measurement angle cannot be classified as Pauli or not."""


@dataclass(frozen=True)
class PauliWord:
    """A phase times a tensor product of single-qubit Pauli letters."""

    letters: tuple  # e.g. ("X", "I", "Z")
    phase: complex = 1

    def __post_init__(self):
        if self.phase not in _PHASES:
            raise ValueError(f"phase must be a fourth root of unity, got {self.phase!r}")
        if any(letter not in _PAULI for letter in self.letters):
            raise ValueError(f"bad Pauli letters {self.letters!r}")

    def __mul__(self, other: "PauliWord") -> "PauliWord":
        if len(self.letters) != len(other.letters):
            raise ValueError("Pauli words act on different qubit counts")
        phase = self.phase * other.phase
        letters = []
        for a, b in zip(self.letters, other.letters):
            p, c = _MUL[a][b]
            phase *= p
            letters.append(c)
        return PauliWord(tuple(letters), phase)

    def matrix(self) -> np.ndarray:
        out = np.array([[self.phase]], dtype=complex)
        for letter in self.letters:
            out = np.kron(out, _PAULI[letter])
        return out


def is_pauli_only(pattern: Pattern) -> bool:
    """True when every measurement is along the X or Y axis.

    Angles are classified exactly: 0 and pi are X-axis, pi/2 and 3pi/2
    Y-axis.  Inexact (float) angles refuse classification.
    """
    for cmd in pattern.commands:
        if isinstance(cmd, Measure):
            if not cmd.angle.is_exact:
                raise AngleClassificationError(
                    f"measurement angle of {cmd.qubit!r} is inexact; "
                    "cannot decide Pauli classification"
                )
            if not cmd.angle.is_pauli_axis:
                return False
    return True


def has_dependencies(pattern: Pattern) -> bool:
    """True when some command's signal mentions another qubit's outcome."""
    return any(
        sig.support for cmd in pattern.commands for sig in command_signals(cmd)
    )


def pauli_eliminate(pattern: Pattern) -> Pattern:
    """Remove all measurement dependencies from a standard Pauli-only pattern.

    Sign-action signals are vacuous on X-axis measurements and fold into the
    pi-action on Y-axis ones; the remaining pi-actions are then shifted out
    into the corrections.  The result implements the same unitary and has
    depth at most 2 (one measurement round, one correction round).
    """
    if not is_standard(pattern):
        raise PatternError("pauli_eliminate requires a standard pattern")
    if not is_pauli_only(pattern):
        raise PatternError("pauli_eliminate requires X/Y-axis measurements only")
    commands = []
    for cmd in pattern.commands:
        if isinstance(cmd, Measure) and cmd.s:
            # y-axis: flipping the sign of +-pi/2 equals adding pi
            commands.append(Measure(cmd.qubit, cmd.angle, Signal(), cmd.s + cmd.t))
        else:
            commands.append(cmd)
    result, _ = standardize_extended(pattern.with_commands(commands))
    return result


def is_clifford(u: np.ndarray) -> bool:
    """Whether a unitary on n qubits normalizes the Pauli group.

    For each generator g in {X_k, Z_k}, V = u g u^H must be a phase times a
    Pauli word P.  Such a V has one nonzero entry per row, at column r ^ x
    for the X part x of P, so P is read off V: x is the column of row 0's
    largest entry, and P has Z on qubit m when V[r, r ^ x] / V[0, x] is
    negative, for r = 2^(n-1-m).  That one candidate is then tested.
    """
    u = np.asarray(u, dtype=complex)
    dim = u.shape[0]
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("is_clifford needs a square matrix")
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"need a 2^n x 2^n matrix, got shape {u.shape}")
    if not np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-9):
        raise ValueError("matrix is not unitary")
    for k in range(n):
        for letter in ("X", "Z"):
            g = PauliWord(tuple(letter if m == k else "I" for m in range(n))).matrix()
            v = u @ g @ u.conj().T
            x = int(np.argmax(np.abs(v[0])))
            word = []
            for m in range(n):
                r = 1 << (n - 1 - m)
                z = int((v[r, r ^ x] / v[0, x]).real < 0)
                word.append("IZXY"[2 * bool(x & r) + z])
            # vdot(P, V) = tr(P^H V), of modulus 2^n exactly when V is a phase times P
            if abs(np.vdot(PauliWord(tuple(word)).matrix(), v)) < dim * (1 - 1e-9):
                return False
    return True


@dataclass(frozen=True)
class TheoremCheck:
    """One pattern's no-dependency verdict."""

    name: str
    pauli_only: bool
    dependent: bool
    clifford: bool | None  # None when the unitary is not square
    applicable: bool  # the theorems force this pattern to be Clifford
    passed: bool


def verify_no_dependency_theorems(patterns) -> list[TheoremCheck]:
    """Check both no-dependency statements over named deterministic patterns.

    ``patterns`` is an iterable of (name, pattern).  For each: if the pattern
    has no dependent commands, or uses only X/Y measurements, its unitary
    must be Clifford; patterns outside both hypotheses are reported but not
    asserted on.
    """
    checks = []
    for name, pattern in patterns:
        pauli = is_pauli_only(pattern)
        dependent = has_dependencies(pattern)
        u = extract_unitary(pattern)
        clifford = is_clifford(u) if u.shape[0] == u.shape[1] else None
        applicable = (pauli or not dependent) and clifford is not None
        passed = clifford if applicable else True
        checks.append(TheoremCheck(name, pauli, dependent, clifford, applicable, bool(passed)))
    return checks


def format_theorem_report(checks) -> str:
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        hypo = (
            "pauli-only" if c.pauli_only else "non-pauli",
            "dependent" if c.dependent else "independent",
        )
        verdict = {True: "clifford", False: "non-clifford", None: "not-square"}[c.clifford]
        scope = "asserted" if c.applicable else "exempt"
        lines.append(
            f"{status}  {c.name}: {hypo[0]}, {hypo[1]}, {verdict} ({scope})"
        )
    return "\n".join(lines)
