"""Oracles for the benchmark, written apart from ``onewaylab.simulate``.

Matrices are built from their textbook definitions with numpy kron
products, in a pattern's declared input/output order with the first qubit
most significant.  The reference simulator reads a pattern's commands (the
value types only) and gives the linear map of every measurement branch by
enumerating all outcome assignments, one full pass per assignment.  The
structural checks read command sequences directly.  Each check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import reduce

import numpy as np

from onewaylab.commands import CorrectX, CorrectZ, Entangle, Measure, Shift

SQ2 = math.sqrt(2.0)
I2 = np.eye(2, dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Unitaries from the program agree with their textbook matrices to this
# Frobenius distance after phase alignment; the CLI prints 9 decimals.
UNITARY_TOL = 1e-9
PRINTED_TOL = 1e-6
# Reference-simulator limit: branches are enumerated one pass each.
MAX_REFERENCE_QUBITS = 12


# textbook matrices ------------------------------------------------------


def j_mat(theta: float) -> np.ndarray:
    """J(theta) = (1/sqrt 2) [[1, e^{i theta}], [1, -e^{i theta}]]."""
    e = np.exp(1j * theta)
    return np.array([[1, e], [1, -e]], dtype=complex) / SQ2


def kron_all(mats) -> np.ndarray:
    return reduce(np.kron, mats, np.eye(1, dtype=complex))


def circuit_matrix(gates, wires: int) -> np.ndarray:
    """Unitary of a gate list in application order.

    A gate is ``("J", w, theta)`` on wire ``w`` or ``("CZ", w)`` on the
    adjacent wires ``w`` and ``w + 1``; wire 0 is the most significant.
    """
    u = np.eye(2**wires, dtype=complex)
    for gate in gates:
        if gate[0] == "J":
            _, w, theta = gate
            layer = kron_all([j_mat(theta) if k == w else I2 for k in range(wires)])
        else:
            w = gate[1]
            layer = kron_all([I2] * w + [CZ] + [I2] * (wires - w - 2))
        u = layer @ u
    return u


def rotation_mat(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """The paper's general rotation J(0) J(alpha) J(beta) J(gamma)."""
    return j_mat(0) @ j_mat(alpha) @ j_mat(beta) @ j_mat(gamma)


def controlled_u_mat(alpha: float, beta: float, gamma: float, delta: float) -> np.ndarray:
    """|0><0| (x) I + |1><1| (x) U with U = e^{i alpha} J(0) J(beta) J(gamma) J(delta)."""
    u = np.exp(1j * alpha) * rotation_mat(beta, gamma, delta)
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = I2
    out[2:, 2:] = u
    return out


def ghz_vec(n: int) -> np.ndarray:
    v = np.zeros((2**n, 1), dtype=complex)
    v[0, 0] = v[-1, 0] = 1 / SQ2
    return v


def aligned_distance(a, b) -> float:
    """Frobenius distance after the global phase that best aligns ``a`` to ``b``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    inner = np.vdot(a, b)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(a * phase - b))


def is_clifford_matrix(u: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether u X_k u^H and u Z_k u^H are each a phase times a Pauli word."""
    dim = u.shape[0]
    n = dim.bit_length() - 1
    words = [kron_all([PAULI[c] for c in w]) for w in itertools.product("IXYZ", repeat=n)]
    for k in range(n):
        for letter in "XZ":
            g = kron_all([PAULI[letter] if m == k else I2 for m in range(n)])
            v = u @ g @ u.conj().T
            if not any(abs(np.vdot(p, v)) >= dim * (1 - tol) for p in words):
                return False
    return True


# reference simulator ----------------------------------------------------


def _bit(sig, record) -> int:
    return (sig.constant + sum(record[q] for q in sig.support)) % 2


def _run_branch(pattern, raw: dict) -> np.ndarray:
    """Linear map (2^out x 2^in) of the branch whose raw outcomes are ``raw``.

    Axis 0 of the state runs over the input basis; a non-input qubit joins
    as |+> when a command first touches it and leaves when measured.
    """
    n_in = len(pattern.inputs)
    state = np.eye(2**n_in, dtype=complex).reshape((2**n_in,) + (2,) * n_in)
    live = list(pattern.inputs)
    plus = np.full(2, 1 / SQ2, dtype=complex)
    record: dict = {}

    def axis(q) -> int:
        nonlocal state
        if q not in live:
            state = np.multiply.outer(state, plus)
            live.append(q)
        return 1 + live.index(q)

    def where(ax: int, value: int):
        idx = [slice(None)] * state.ndim
        idx[ax] = value
        return tuple(idx)

    for cmd in pattern.commands:
        if isinstance(cmd, Entangle):
            a, b = axis(cmd.i), axis(cmd.j)
            idx = [slice(None)] * state.ndim
            idx[a] = idx[b] = 1
            state[tuple(idx)] *= -1
        elif isinstance(cmd, Measure):
            ax = axis(cmd.qubit)
            theta = (-1) ** _bit(cmd.s, record) * cmd.angle.radians + _bit(cmd.t, record) * math.pi
            r = raw[cmd.qubit]
            state = (state[where(ax, 0)] + (-1) ** r * np.exp(-1j * theta) * state[where(ax, 1)]) / SQ2
            live.remove(cmd.qubit)
            record[cmd.qubit] = r
        elif isinstance(cmd, (CorrectX, CorrectZ)):
            ax = axis(cmd.qubit)
            if not _bit(cmd.signal, record):
                continue
            if isinstance(cmd, CorrectX):
                state = np.flip(state, axis=ax).copy()
            else:
                state[where(ax, 1)] *= -1
        elif isinstance(cmd, Shift):
            record[cmd.qubit] ^= _bit(cmd.signal, record)
        else:
            raise TypeError(f"unknown command {cmd!r}")
    for q in pattern.outputs:
        axis(q)
    order = [0] + [1 + live.index(q) for q in pattern.outputs]
    return np.transpose(state, order).reshape(2**n_in, -1).T


def branch_maps(pattern) -> dict:
    """Every branch's linear map, keyed by its ``(qubit, raw outcome)`` pairs.

    Vanishing branches are included as zero maps.
    """
    if len(pattern.space) > MAX_REFERENCE_QUBITS:
        raise ValueError(f"reference simulator takes at most {MAX_REFERENCE_QUBITS} qubits")
    measured = [c.qubit for c in pattern.commands if isinstance(c, Measure)]
    maps = {}
    for bits in itertools.product((0, 1), repeat=len(measured)):
        raw = dict(zip(measured, bits))
        maps[tuple(sorted(raw.items(), key=repr))] = _run_branch(pattern, raw)
    return maps


def _close(a, b) -> bool:
    return aligned_distance(a, b) <= UNITARY_TOL * max(1.0, float(np.linalg.norm(b)))


# checks -----------------------------------------------------------------


def check_unitary(u, target, what: str, tol: float = UNITARY_TOL) -> list[str]:
    u = np.asarray(u, dtype=complex)
    if u.shape != target.shape:
        return [f"{what}: shape {u.shape}, textbook {target.shape}"]
    d = aligned_distance(u, target)
    if not d <= tol * max(1.0, float(np.linalg.norm(target))):
        return [f"{what}: distance {d:.2e} from the textbook matrix"]
    return []


def check_realises(pattern, target, what: str) -> list[str]:
    """Every non-vanishing reference branch is proportional to ``target``.

    Also requires the branch probabilities of each basis input to sum to 1.
    """
    maps = list(branch_maps(pattern).values())
    problems = []
    totals = sum(np.sum(np.abs(m) ** 2, axis=0) for m in maps)
    if not np.allclose(totals, 1.0, atol=1e-9):
        problems.append(f"{what}: branch probabilities sum to {totals}")
    for m in maps:
        norm = np.linalg.norm(m)
        if norm > 1e-9 and not _close(m / norm * np.linalg.norm(target), target):
            problems.append(f"{what}: a branch is not proportional to the textbook matrix")
            break
    return problems


def check_ghz_branches(branches, n: int, what: str) -> list[str]:
    """``branches`` as ``(probability, output vector)``; each is the GHZ state."""
    target = ghz_vec(n).reshape(-1)
    problems = []
    total = sum(p for p, _ in branches)
    if abs(total - 1.0) > 1e-9:
        problems.append(f"{what}: probabilities sum to {total}")
    for p, out in branches:
        out = np.asarray(out, dtype=complex).reshape(-1)
        if out.shape != target.shape or not _close(out / np.linalg.norm(out), target):
            problems.append(f"{what}: a branch is not |0...0> + |1...1>")
            break
    return problems


def check_no_dependency(pattern, what: str) -> list[str]:
    for cmd in pattern.commands:
        if isinstance(cmd, Measure) and (cmd.s.support or cmd.t.support):
            return [f"{what}: measurement of {cmd.qubit!r} still depends on outcomes"]
    return []


def _rank(cmd) -> int:
    return {Entangle: 0, Measure: 1, CorrectX: 2, CorrectZ: 2}.get(type(cmd), 3)


def check_core_normal_form(commands, what: str) -> list[str]:
    """No core rule applies: every E is in front, no correction precedes an E or M."""
    problems = []
    ranks = [_rank(c) for c in commands]
    first_other = next((k for k, r in enumerate(ranks) if r != 0), len(ranks))
    if any(r == 0 for r in ranks[first_other:]):
        problems.append(f"{what}: an E command follows another command")
    for a, b in zip(ranks, ranks[1:]):
        if a == 2 and b in (0, 1):
            problems.append(f"{what}: a correction precedes an E or M command")
            break
    return problems


def check_emc(commands, what: str) -> list[str]:
    """E block, then M block, then corrections, and no shift commands."""
    ranks = [_rank(c) for c in commands]
    if 3 in ranks:
        return [f"{what}: shift command left in the extended form"]
    if ranks != sorted(ranks):
        return [f"{what}: not in E, M, C order"]
    return []


def check_rewrite_invariants(source, result, what: str) -> list[str]:
    """Space, interface, the E multiset and the set of measured qubits are kept."""
    problems = []
    if (source.space, source.inputs, source.outputs) != (result.space, result.inputs, result.outputs):
        problems.append(f"{what}: space or interface changed")

    def e_multiset(p):
        return Counter(frozenset((c.i, c.j)) for c in p.commands if isinstance(c, Entangle))

    def measured(p):
        return Counter(c.qubit for c in p.commands if isinstance(c, Measure))

    if e_multiset(source) != e_multiset(result):
        problems.append(f"{what}: E multiset changed")
    if measured(source) != measured(result):
        problems.append(f"{what}: measured qubits changed")
    return problems


def check_same_branches(source_maps: dict, result, what: str) -> list[str]:
    """Each branch of ``result`` equals the same-outcome branch of the source, up to phase."""
    maps = branch_maps(result)
    if maps.keys() != source_maps.keys():
        return [f"{what}: branch outcomes differ"]
    for key, m in maps.items():
        if not _close(m, source_maps[key]):
            return [f"{what}: branch {key} differs from the source pattern's"]
    return []


def check_same_branch_multiset(source_maps: dict, result, what: str) -> list[str]:
    """The branch maps of ``result`` are those of the source, up to phase and relabelling.

    Outcome shifts relabel branches by a bijection, so the extended form is
    compared as a multiset of maps.
    """
    pending = [(float(np.linalg.norm(m)), m) for m in source_maps.values()]
    for m in branch_maps(result).values():
        norm = float(np.linalg.norm(m))
        match = next(
            (k for k, (n, s) in enumerate(pending) if abs(n - norm) < 1e-9 and _close(m, s)),
            None,
        )
        if match is None:
            return [f"{what}: a branch has no equal branch in the source pattern"]
        pending.pop(match)
    return []


def parse_printed_unitary(text: str) -> np.ndarray:
    """The matrix printed after ``unitary:`` by ``onewaylab simulate``."""
    lines = text.splitlines()
    if "unitary:" not in lines:
        raise ValueError("no unitary printed")
    rows = [line.split() for line in lines[lines.index("unitary:") + 1 :] if line.strip()]
    return np.array([[complex(tok) for tok in row] for row in rows], dtype=complex)
