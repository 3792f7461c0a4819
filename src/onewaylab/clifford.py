"""Pauli-measurement analysis and Clifford-group verification.

Patterns whose measurements are all along the X or Y axis can be rewritten
so that no measurement depends on any other (the dependencies migrate into
the final corrections), which pins their unitaries inside the Clifford
group; this module provides that elimination plus a numeric Clifford
membership test used to check the claim on concrete patterns.
"""

from __future__ import annotations

import numpy as np

from ._values import Value
from .commands import Measure, command_signals
from .signals import Signal
from .patterns import Pattern, PatternError
from .rewrite import is_standard, standardize_extended
from .simulate import _is_isometry, extract_unitary

class AngleClassificationError(ValueError):
    """An inexact measurement angle cannot be classified as Pauli or not."""


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
    result, _ = standardize_extended(Pattern._rebuilt(pattern, commands))
    return result


def is_clifford(u: np.ndarray) -> bool:
    """Whether a unitary on n qubits normalizes the Pauli group.

    Paulis are an X bit mask and a Z bit mask over the flat index, qubit m
    at bit 2^(n-1-m), and phases are dropped; ``parity[c]`` is (-1)^|c|, so
    Z on a mask multiplies entry c by ``parity[c & mask]``.  For each
    generator g in {X_k, Z_k}, V = u g u^H must be a phase times a Pauli
    word P; u g is u with its columns permuted by ``rows ^ bit`` for X_k,
    or with the columns whose bit is set negated for Z_k.  Such a V has one
    nonzero entry per row, d[r] = V[r, r ^ x] for the X part x of P, so P
    is read off V: x is the column of row 0's largest entry, and P has Z on
    qubit m when d[r] / d[0] is negative, for r = 2^(n-1-m).  That one
    candidate is then tested: |tr(P^H V)| = |sum_r (-1)^|(r^x) & z| d[r]|
    is 2^n exactly when V is a phase times P.
    """
    u = np.asarray(u, dtype=complex)
    dim = u.shape[0]
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("is_clifford needs a square matrix")
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"need a 2^n x 2^n matrix, got shape {u.shape}")
    if not _is_isometry(u):
        raise ValueError("matrix is not unitary")
    uh = u.conj().T
    rows = np.arange(dim)
    bits = 1 << np.arange(n - 1, -1, -1)
    parity = np.ones(1)
    for _ in range(n):
        parity = np.concatenate((parity, -parity))
    for b in bits.tolist():
        for ug in (u[:, rows ^ b], u * parity[rows & b]):  # u X_k, u Z_k
            v = ug @ uh
            x = int(np.argmax(np.abs(v[0])))
            d = v[rows, rows ^ x]
            z = int(bits[(d[bits] / d[0]).real < 0].sum())
            if abs(parity[(rows ^ x) & z] @ d) < dim * (1 - 1e-9):
                return False
    return True


class TheoremCheck(Value):
    """One pattern's no-dependency verdict (``clifford`` is None for a non-square unitary)."""

    # ``applicable``: the theorems force this pattern to be Clifford
    __slots__ = ("name", "pauli_only", "dependent", "clifford", "applicable", "passed")

    def __init__(self, name, pauli_only, dependent, clifford, applicable, passed):
        self._set_fields(name, pauli_only, dependent, clifford, applicable, passed)


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
