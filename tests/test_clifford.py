import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import CNOT_MAT, H_MAT, P_HALF_MAT, aligned_distance, j_mat

from onewaylab.angles import Angle
from onewaylab.clifford import (
    AngleClassificationError,
    format_theorem_report,
    has_dependencies,
    is_clifford,
    is_pauli_only,
    pauli_eliminate,
    verify_no_dependency_theorems,
)
from onewaylab.commands import CorrectX, Entangle, Measure
from onewaylab.library import cnot, cz, depth, h, j, p_half, teleport
from onewaylab.patterns import Pattern, PatternError, rename, tensor
from onewaylab.rewrite import standardize, standardize_extended
from onewaylab.signals import Signal, signal
from onewaylab.simulate import extract_unitary


# classification -----------------------------------------------------


def test_is_pauli_only():
    assert is_pauli_only(standardize(cnot())[0])
    assert is_pauli_only(standardize(teleport(0, 0))[0])
    assert is_pauli_only(standardize_extended(p_half())[0])
    assert not is_pauli_only(standardize(j(Fraction(1, 4)))[0])
    with pytest.raises(AngleClassificationError):
        is_pauli_only(j(0.5))


def test_has_dependencies():
    assert has_dependencies(standardize(cnot())[0])
    assert not has_dependencies(cz(1, 2))
    free = Pattern(
        frozenset((1, 2)),
        (1, 2),
        (1, 2),
        (Entangle(1, 2), CorrectX(1, signal(constant=1))),
    )
    assert not has_dependencies(free)


# elimination --------------------------------------------------------


def test_pauli_eliminate_on_cnot():
    std, _ = standardize(cnot())
    out = pauli_eliminate(std)
    for cmd in out.commands:
        if isinstance(cmd, Measure):
            assert not cmd.s and not cmd.t
    assert depth(out) <= 2
    assert aligned_distance(extract_unitary(out), CNOT_MAT) < 1e-9


def test_pauli_eliminate_teleport():
    std, _ = standardize(teleport(0, 0))
    out = pauli_eliminate(std)
    assert depth(out) <= 2
    assert aligned_distance(extract_unitary(out), np.eye(2)) < 1e-9


def test_pauli_eliminate_y_axis_dependency():
    # a y-axis measurement with a sign dependency: flipping +-pi/2 is the
    # same as adding pi, so the dependency folds into the pi-action and is
    # then shifted out into the corrections
    p = Pattern(
        frozenset((1, 2, 3)),
        (1,),
        (3,),
        (
            Entangle(1, 2),
            Entangle(2, 3),
            Measure(1, Angle.exact(1, 2)),
            Measure(2, Angle.exact(1, 2), s=signal(1)),
            CorrectX(3, signal(2)),
        ),
    )
    before = extract_unitary(p, check_deterministic=False)
    out = pauli_eliminate(p)
    for cmd in out.commands:
        if isinstance(cmd, Measure):
            assert not cmd.s and not cmd.t
    after = extract_unitary(out, check_deterministic=False)
    assert aligned_distance(after / np.linalg.norm(after), before / np.linalg.norm(before)) < 1e-9


def test_pauli_eliminate_preconditions():
    with pytest.raises(PatternError):
        pauli_eliminate(teleport(0, 0))  # wild, not standard
    std, _ = standardize(j(Fraction(1, 4)))
    with pytest.raises(PatternError):
        pauli_eliminate(std)


def test_pauli_eliminate_depth_on_library_corpus():
    for pattern in (cnot(), teleport(0, 0), p_half(), h()):
        std, _ = standardize_extended(pattern)
        assert depth(pauli_eliminate(std)) <= 2


# Clifford membership ------------------------------------------------


def test_is_clifford_basics():
    assert is_clifford(H_MAT)
    assert is_clifford(P_HALF_MAT)
    assert is_clifford(CNOT_MAT)
    assert is_clifford(np.diag([1, 1, 1, -1]).astype(complex))
    assert not is_clifford(j_mat(math.pi / 4))
    assert not is_clifford(np.diag([1, np.exp(1j * math.pi / 4)]))


def test_is_clifford_phase_and_pauli_invariance():
    phase = np.exp(0.321j)
    assert is_clifford(phase * H_MAT)
    assert is_clifford(_pauli("X") @ H_MAT)


def test_is_clifford_input_validation():
    with pytest.raises(ValueError):
        is_clifford(np.ones((2, 3)))
    with pytest.raises(ValueError):
        is_clifford(np.eye(2) * 2)  # not unitary
    with pytest.raises(ValueError):
        is_clifford(np.eye(3))  # not 2^n
    assert is_clifford(np.eye(16))  # no qubit cap


def _on(gate, qubit, n):
    """``gate`` on one qubit of n, the first qubit most significant."""
    return np.kron(np.kron(np.eye(2**qubit), gate), np.eye(2 ** (n - 1 - qubit)))


T_MAT = np.diag([1, np.exp(1j * math.pi / 4)])

_LETTERS = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def _pauli(*letters):
    """The Pauli word with these letters, the first qubit most significant."""
    out = np.eye(1)
    for letter in letters:
        out = np.kron(out, _LETTERS[letter])
    return out


def _random_product(rng, n, gates, t_gates=0):
    """A product of random H, S and CZ gates, with ``t_gates`` T gates at random places."""
    kinds = [rng.choice("HSC" if n > 1 else "HS") for _ in range(gates)] + ["T"] * t_gates
    rng.shuffle(kinds)
    u = np.eye(2**n, dtype=complex)
    for kind in kinds:
        if kind == "C":
            a, b = rng.sample(range(n), 2)
            gate = np.diag([-1 if (r >> (n - 1 - a)) & (r >> (n - 1 - b)) & 1 else 1 for r in range(2**n)])
        else:
            gate = _on({"H": H_MAT, "S": P_HALF_MAT, "T": T_MAT}[kind], rng.randrange(n), n)
        u = gate @ u
    return u


def _clifford_by_search(u) -> bool:
    """The definition, searched: u P u^H is a phase times a Pauli word for every generator."""
    n = u.shape[0].bit_length() - 1
    words = [_pauli(*w) for w in itertools.product("IXYZ", repeat=n)]
    for k, letter in itertools.product(range(n), "XZ"):
        v = u @ _pauli(*(letter if m == k else "I" for m in range(n))) @ u.conj().T
        if not any(abs(np.vdot(p, v)) > 2**n * (1 - 1e-9) for p in words):
            return False
    return True


@pytest.mark.parametrize("n", [4, 5])
def test_is_clifford_beyond_three_qubits(n):
    rng = random.Random(n)
    for _ in range(3):
        u = _random_product(rng, n, 30) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        assert is_clifford(u)
        assert not is_clifford(_on(T_MAT, rng.randrange(n), n) @ u)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_is_clifford_agrees_with_search(n):
    rng = random.Random(10 + n)
    verdicts = []
    for k in range(60):
        u = _random_product(rng, n, 10, t_gates=k % 3)
        verdicts.append(is_clifford(u))
        assert verdicts[-1] == _clifford_by_search(u)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("n", [3, 4])
def test_is_clifford_agrees_with_search_on_long_products(n):
    # the read-off works within one generator at a time: longer products,
    # with a global phase, up to two T gates
    rng = random.Random(20 + n)
    verdicts = []
    for k in range(24):
        u = _random_product(rng, n, 25, t_gates=k % 3) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        verdicts.append(is_clifford(u))
        assert verdicts[-1] == _clifford_by_search(u)
    assert any(verdicts) and not all(verdicts)


# theorem harness ----------------------------------------------------


def test_verify_no_dependency_theorems():
    suite = [
        ("cz", cz(1, 2)),
        ("h", h()),
        ("teleport", teleport(0, 0)),
        ("cnot", cnot()),
        ("p_half", p_half()),
        ("j_pi4", j(Fraction(1, 4))),
    ]
    checks = verify_no_dependency_theorems(suite)
    by_name = {c.name: c for c in checks}
    for name in ("cz", "h", "teleport", "cnot", "p_half"):
        assert by_name[name].clifford and by_name[name].passed
    jj = by_name["j_pi4"]
    assert not jj.pauli_only and jj.dependent and not jj.clifford
    assert not jj.applicable and jj.passed  # outside both hypotheses: exempt
    report = format_theorem_report(checks)
    assert "PASS  cnot" in report
    assert "non-clifford (exempt)" in report


def test_theorems_assert_clifford_beyond_three_qubits():
    two_cnots = tensor(cnot(), rename(cnot(), {1: 11, 2: 12, 3: 13, 4: 14}))
    (check,) = verify_no_dependency_theorems([("cnot x cnot", two_cnots)])
    assert check.pauli_only and check.clifford
    assert check.applicable and check.passed
