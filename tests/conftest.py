"""Shared oracles for the test suite.

Matrices here are built directly from textbook definitions (independent of
the simulator) so pattern extractions have something to be checked against.
Matrix convention: the first qubit of a pattern's input/output ordering is
the most significant bit of the state index.  The termination measure of the
core rewrite rules is defined here too, independently of the rewrite engine,
and so are the hypothesis strategies for pattern text, well formed or not.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import onewaylab
from onewaylab.angles import Angle
from onewaylab.commands import CorrectX, CorrectZ, Entangle, Measure, Shift
from onewaylab.dsl import serialize
from onewaylab.library import cnot, ghz, h, j, random_wild_pattern, teleport
from onewaylab.patterns import Pattern
from onewaylab.rewrite import standardize_extended
from onewaylab.signals import signal

SQ2 = math.sqrt(2.0)

I2 = np.eye(2, dtype=complex)
X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
Z_MAT = np.array([[1, 0], [0, -1]], dtype=complex)
H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / SQ2
CZ_MAT = np.diag([1, 1, 1, -1]).astype(complex)
CNOT_MAT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
P_HALF_MAT = np.diag([1, 1j]).astype(complex)

# exact arguments for the ``library.BUILDERS`` entries that take some
BUILDER_ARGS = {
    "j": (Fraction(1, 4),),
    "teleport": (Fraction(1, 4), Fraction(1, 3)),
    "rx": (Fraction(3, 8),),
    "rz": (Fraction(-1, 2),),
    "rotation": (Fraction(1, 4), Fraction(1, 3), Fraction(1, 5)),
    "ghz": (4,),
    "cu": (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(7, 8)),
}


def j_mat(theta: float) -> np.ndarray:
    return np.array(
        [[1, np.exp(1j * theta)], [1, -np.exp(1j * theta)]], dtype=complex
    ) / SQ2


def rotation_mat(alpha: float, beta: float, gamma: float) -> np.ndarray:
    return j_mat(0) @ j_mat(alpha) @ j_mat(beta) @ j_mat(gamma)


def ghz_vec(n: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1 / SQ2
    return v


def cu_mat(alpha: float, beta: float, gamma: float, delta: float) -> np.ndarray:
    """Controlled-U from its J-generator decomposition; control is the MSB."""
    a_prime = alpha + (beta + gamma + delta) / 2
    factors = [
        np.kron(I2, j_mat((-beta + delta - math.pi) / 2)),
        CZ_MAT,
        np.kron(I2, j_mat(0)),
        np.kron(I2, j_mat((-math.pi - delta - beta) / 2)),
        np.kron(I2, j_mat(gamma / 2)),
        np.kron(I2, j_mat(math.pi / 2)),
        CZ_MAT,
        np.kron(I2, j_mat(0)),
        np.kron(I2, j_mat(-math.pi / 2)),
        np.kron(I2, j_mat(-gamma / 2)),
        np.kron(I2, j_mat(beta + math.pi)),
        np.kron(I2, j_mat(0)),
        np.kron(j_mat(a_prime), I2),
        np.kron(j_mat(0), I2),
    ]
    u = np.eye(4, dtype=complex)
    for factor in factors:
        u = factor @ u
    return u


def aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance after optimal global-phase alignment."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    inner = np.vdot(a, b)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(a * phase - b))


def assert_proportional(a, b, tol=1e-9):
    assert aligned_distance(
        np.asarray(a) / np.linalg.norm(a), np.asarray(b) / np.linalg.norm(b)
    ) < tol


def flat_pattern(n: int, angle) -> Pattern:
    """Output 0 and qubits 1..n, each measured at ``angle`` with no dependency."""
    return Pattern(
        frozenset(range(n + 1)), (), (0,), tuple(Measure(q, angle) for q in range(1, n + 1))
    )


def with_extra_shifts(pattern, rng):
    """``pattern`` with random shifts after some measurements, and some
    angles made inexact, so that rounding shows where steps differ."""
    commands, measured = [], []
    for cmd in pattern.commands:
        commands.append(cmd)
        if isinstance(cmd, Measure):
            if rng.random() < 0.3:
                commands[-1] = Measure(cmd.qubit, Angle.from_radians(cmd.angle.radians + 0.1), cmd.s, cmd.t)
            measured.append(cmd.qubit)
            if rng.random() < 0.5:
                support = [q for q in measured if rng.random() < 0.3]
                commands.append(Shift(rng.choice(measured), signal(*support, constant=rng.randint(0, 1))))
    return pattern.with_commands(commands)


def run_isolated(code: str, *args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter, with ``args`` as ``sys.argv[1:]``.

    The child imports the same ``onewaylab`` as the tests, and this module.
    A run that outlives ``timeout`` seconds is killed and raises
    ``subprocess.TimeoutExpired``, so a hang fails the test instead of
    stalling the suite.
    """
    path = [str(Path(onewaylab.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


# termination of the core rewrite rules ------------------------------
#
# mu = (a_1, ..., a_m, c), compared lexicographically.  E_1 ... E_m are the
# entanglements in execution order; no core rule creates, deletes or
# reorders one, so the tuples of successive sequences line up.  a_k counts
# the non-E commands before E_k; c sums, over the corrections, the number of
# E and M commands after each one.  EX, EZ, FREE_E and a free correction
# crossing an E lower the a of the crossed E and leave every earlier E alone;
# MX/MZ lower a for every later E, or c when no E follows; a free correction
# crossing an M lowers c by one.


def emc_measure(commands) -> tuple:
    """The measure ``(a_1, ..., a_m, c)`` of a command sequence, from scratch."""
    a = []
    non_e = 0
    for cmd in commands:
        if isinstance(cmd, Entangle):
            a.append(non_e)
        else:
            non_e += 1
    c = em_after = 0
    for cmd in reversed(commands):
        if isinstance(cmd, (Entangle, Measure)):
            em_after += 1
        elif isinstance(cmd, (CorrectX, CorrectZ)):
            c += em_after
    return (*a, c)


def _window_profile(window):
    """Entanglements, their non-E offsets, and the counts the measure needs."""
    entangles, offsets = [], []
    non_e = em = corrections = local_c = 0
    for cmd in reversed(window):
        if isinstance(cmd, (Entangle, Measure)):
            em += 1
        elif isinstance(cmd, (CorrectX, CorrectZ)):
            corrections += 1
            local_c += em
    for cmd in window:
        if isinstance(cmd, Entangle):
            entangles.append(cmd)
            offsets.append(non_e)
        else:
            non_e += 1
    return entangles, offsets, non_e, em, corrections, local_c


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def emc_measure_change(seq, position, before, after) -> int:
    """Sign of ``mu(new) - mu(old)`` when ``before`` at ``position`` becomes ``after``.

    ``seq`` is the sequence before the rewrite.  Only the window and, when
    the window alone cannot decide, one scan of the commands on either side
    are looked at, so a whole trace is checked without recomputing mu.
    """
    e_old, off_old, non_e_old, em_old, corr_old, c_old = _window_profile(before)
    e_new, off_new, non_e_new, em_new, corr_new, c_new = _window_profile(after)
    assert e_old == e_new, "a rewrite created, deleted or reordered an entanglement"
    for old, new in zip(off_old, off_new):
        if old != new:
            return _sign(new - old)
    end = position + len(before)
    if non_e_new != non_e_old and any(isinstance(c, Entangle) for c in seq[end:]):
        return _sign(non_e_new - non_e_old)
    delta = c_new - c_old
    if corr_new != corr_old:
        em_right = sum(isinstance(c, (Entangle, Measure)) for c in seq[end:])
        delta += (corr_new - corr_old) * em_right
    if em_new != em_old:
        corr_left = sum(isinstance(c, (CorrectX, CorrectZ)) for c in seq[:position])
        delta += (em_new - em_old) * corr_left
    return _sign(delta)


# pattern text, well formed or not ------------------------------------

_TEXT_CHUNKS = [*"(){}[];:,=/+-.'_#\n 0129EMXZSaest", "pi", "e9", "s[", "space", "input", "output", "seq"]
TEXT_PIECES = st.lists(st.sampled_from(_TEXT_CHUNKS), max_size=4).map("".join)
"""Short strings over the text format's alphabet, empty included."""

_TEXT_SOURCES = [
    serialize(p)
    for p in (
        h(),
        cnot(),
        teleport(Fraction(1, 4), Fraction(1, 3)),
        j(1.234),
        ghz(3),
        standardize_extended(ghz(3))[0],
        *(random_wild_pattern(12, seed) for seed in range(4)),
    )
]


@st.composite
def mutated_texts(draw):
    """A serialized library or wild pattern with one to three spans replaced."""
    text = draw(st.sampled_from(_TEXT_SOURCES))
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 4)))
        text = text[:start] + draw(TEXT_PIECES) + text[end:]
    return text
