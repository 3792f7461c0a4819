import pytest
from hypothesis import given, strategies as st

from onewaylab.signals import MissingOutcomeError, Signal, signal

qubits = st.integers(min_value=1, max_value=6)
signals = st.builds(
    Signal,
    st.frozensets(qubits, max_size=4),
    st.integers(min_value=0, max_value=1),
)


def test_addition_is_xor():
    assert signal(1) + signal(1) == Signal()
    assert signal(1) + signal(2) == signal(1, 2)
    assert signal(1, constant=1) + signal(constant=1) == signal(1)


@given(signals, signals, signals)
def test_z2_group_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + Signal() == a
    assert a + a == Signal()


@given(signals, st.dictionaries(qubits, st.integers(0, 1), min_size=6, max_size=6))
def test_evaluate_is_homomorphism(a, outcomes):
    outcomes = {q: outcomes.get(q, 0) for q in range(1, 7)}
    assert a.evaluate(outcomes) == (
        a.constant ^ sum(outcomes[q] for q in a.support) % 2
    ) % 2


@given(signals, signals)
def test_sum_equals_constructed_signal(a, b):
    total = a + b
    expected = Signal(a.support ^ b.support, a.constant ^ b.constant)
    assert total == expected
    assert hash(total) == hash(expected)
    assert type(total.support) is frozenset


def test_constructor_still_checks_its_constant():
    with pytest.raises(ValueError, match="0 or 1"):
        Signal(frozenset(), 2)


def test_evaluate_missing_outcome():
    with pytest.raises(MissingOutcomeError):
        signal(3).evaluate({1: 0})


def test_substitute():
    # substitution implements s_i -> s_i + extra on signals that mention i
    s = signal(1, 2)
    assert s.substitute(1, signal(5)) == signal(1, 2, 5)
    assert s.substitute(1, signal(2)) == signal(1)  # cancellation
    assert s.substitute(4, signal(5)) == s
    assert s.substitute(1, signal(constant=1)) == signal(1, 2, constant=1)


def test_str_form():
    assert str(Signal()) == "0"
    assert str(signal(constant=1)) == "1"
    assert str(signal(2, 1, constant=1)) == "1 + s[1] + s[2]"


def test_renamed():
    assert signal(1, 2).renamed({1: "a", 2: "b"}) == Signal(frozenset(("a", "b")), 0)


def test_bool_and_is_zero():
    assert not Signal()
    assert signal(1)
    assert signal(constant=1)
