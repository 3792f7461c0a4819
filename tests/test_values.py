"""The value contract of commands, signals, patterns and results.

The repr strings below were written by the frozen dataclasses these classes
used to be.  Reprs reach error messages, and hashes can reach set order and
so output, which is why both are pinned.
"""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from onewaylab.angles import Angle
from onewaylab.clifford import TheoremCheck
from onewaylab.commands import CorrectX, CorrectZ, Entangle, Measure, Shift
from onewaylab.dsl import PatternDocument
from onewaylab.patterns import Pattern, PatternError, ValidityReport
from onewaylab.signals import ONE, Signal, signal
from onewaylab.simulate import Branch, BranchMap, _Layout

_SMALL = Pattern([1, 2], [1], [2], [Entangle(1, 2), Measure(1, 0), CorrectX(2, signal(1))])
_NO_SIGNAL = "Signal(support=frozenset(), constant=0)"

# (value, its fields in order, the dataclass's repr of it)
VALUES = [
    (Entangle(2, 1), ("i", "j"), "Entangle(i=1, j=2)"),
    (Entangle("b", "a"), ("i", "j"), "Entangle(i='a', j='b')"),
    (Entangle("a", 3), ("i", "j"), "Entangle(i=3, j='a')"),
    (
        Measure(3, Angle.exact(1, 4), signal(1), signal(2)),
        ("qubit", "angle", "s", "t"),
        "Measure(qubit=3, angle=Angle.exact(1, 4), s=Signal(support=frozenset({1}), constant=0), "
        "t=Signal(support=frozenset({2}), constant=0))",
    ),
    (
        Measure("q", 0.5),
        ("qubit", "angle", "s", "t"),
        f"Measure(qubit='q', angle=Angle.from_radians(0.5), s={_NO_SIGNAL}, t={_NO_SIGNAL})",
    ),
    (
        CorrectX(2, signal(1)),
        ("qubit", "signal"),
        "CorrectX(qubit=2, signal=Signal(support=frozenset({1}), constant=0))",
    ),
    (
        CorrectZ(2),
        ("qubit", "signal"),
        "CorrectZ(qubit=2, signal=Signal(support=frozenset(), constant=1))",
    ),
    (
        Shift(1, signal(2, constant=1)),
        ("qubit", "signal"),
        "Shift(qubit=1, signal=Signal(support=frozenset({2}), constant=1))",
    ),
    (Signal(), ("support", "constant"), _NO_SIGNAL),
    (Signal([2, 1], 1), ("support", "constant"), "Signal(support=frozenset({1, 2}), constant=1)"),
    (
        _SMALL,
        ("space", "inputs", "outputs", "commands"),
        "Pattern(space=frozenset({1, 2}), inputs=(1,), outputs=(2,), commands=(Entangle(i=1, j=2), "
        f"Measure(qubit=1, angle=Angle.exact(0, 1), s={_NO_SIGNAL}, t={_NO_SIGNAL}), "
        "CorrectX(qubit=2, signal=Signal(support=frozenset({1}), constant=0))))",
    ),
    (
        ValidityReport(None, 1, None),
        ("d0", "d1", "d2", "d2_qubits"),
        "ValidityReport(d0=None, d1=1, d2=None, d2_qubits=frozenset())",
    ),
    (
        ValidityReport(None, None, -1, frozenset({3})),
        ("d0", "d1", "d2", "d2_qubits"),
        "ValidityReport(d0=None, d1=None, d2=-1, d2_qubits=frozenset({3}))",
    ),
    (
        PatternDocument("p", Pattern([1], [1], [1], [])),
        ("name", "pattern"),
        "PatternDocument(name='p', pattern=Pattern(space=frozenset({1}), inputs=(1,), "
        "outputs=(1,), commands=()))",
    ),
    (
        _Layout(1, (), 0, (0,), (), 1),
        ("inputs", "steps", "tail", "perm", "measured", "width"),
        "_Layout(inputs=1, steps=(), tail=0, perm=(0,), measured=(), width=1)",
    ),
    (
        TheoremCheck("h", True, False, True, True, True),
        ("name", "pauli_only", "dependent", "clifford", "applicable", "passed"),
        "TheoremCheck(name='h', pauli_only=True, dependent=False, clifford=True, "
        "applicable=True, passed=True)",
    ),
]

# results that hold a dict and an array: no hash, and equality is not a bool
ARRAY_VALUES = [
    (
        Branch({1: 0}, 0.5, np.array([1, 0j])),
        ("outcomes", "probability", "output"),
        "Branch(outcomes={1: 0}, probability=0.5, output=array([1.+0.j, 0.+0.j]))",
    ),
    (
        BranchMap({1: 0}, {1: 1}, np.eye(2)),
        ("raw", "outcomes", "matrix"),
        "BranchMap(raw={1: 0}, outcomes={1: 1}, matrix=array([[1., 0.],\n       [0., 1.]]))",
    ),
]

_IDS = [text.partition("(")[0] for _, _, text in VALUES]
_ARRAY_IDS = [text.partition("(")[0] for _, _, text in ARRAY_VALUES]


def _fields(value, names) -> tuple:
    return tuple(getattr(value, name) for name in names)


@pytest.mark.parametrize("value, names, text", VALUES + ARRAY_VALUES, ids=_IDS + _ARRAY_IDS)
def test_repr_is_the_dataclass_repr(value, names, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, names, text", VALUES, ids=_IDS)
def test_equal_and_hashed_by_fields(value, names, text):
    fields = _fields(value, names)
    assert hash(value) == hash(fields)
    twin = type(value)(*fields)
    assert twin == value and not twin != value and hash(twin) == hash(value)
    assert value.__eq__(fields) is NotImplemented
    assert value != fields


@pytest.mark.parametrize("value, names, text", ARRAY_VALUES, ids=_ARRAY_IDS)
def test_values_holding_a_dict_have_no_hash(value, names, text):
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)


def test_equality_needs_the_same_class():
    assert CorrectX(1, signal(2)) != CorrectZ(1, signal(2))
    assert CorrectZ(1, signal(2)) != Shift(1, signal(2))
    assert CorrectX(1, signal(2)).__eq__(CorrectZ(1, signal(2))) is NotImplemented
    assert Signal(frozenset({1}), 0) != (frozenset({1}), 0)


@pytest.mark.parametrize("value, names, text", VALUES + ARRAY_VALUES, ids=_IDS + _ARRAY_IDS)
def test_pickle_and_deepcopy_round_trip(value, names, text):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value)
        assert repr(twin) == repr(value)
        if not isinstance(value, (Branch, BranchMap)):
            assert twin == value and hash(twin) == hash(value)


@pytest.mark.parametrize("value, names, text", VALUES + ARRAY_VALUES, ids=_IDS + _ARRAY_IDS)
def test_fields_cannot_be_assigned_or_deleted(value, names, text):
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


def test_entangle_orders_its_qubits_and_needs_two():
    assert _fields(Entangle(2, 1), ("i", "j")) == (1, 2)
    assert _fields(Entangle("a", 3), ("i", "j")) == (3, "a")  # ints before strings
    assert _fields(Entangle(3, "a"), ("i", "j")) == (3, "a")
    assert Entangle(j=1, i=2) == Entangle(1, 2)
    with pytest.raises(ValueError, match="two distinct qubits"):
        Entangle(4, 4)


def test_measure_normalizes():
    m = Measure(3, Angle.exact(1, 4), signal(1, constant=1), signal(2, constant=1))
    # -pi/4 + pi, with both constants folded away
    assert (m.angle, m.s, m.t) == (Angle.exact(3, 4), signal(1), signal(2))
    assert Measure(3, Fraction(1, 2)).angle == Angle.exact(1, 2)
    assert Measure(3, 1).angle == Angle.exact(1)
    assert Measure(qubit=3, angle=0.5).angle == Angle.from_radians(0.5)
    assert Measure(3, Angle.exact(1), signal(1), signal(2)).s == Signal()  # X axis drops s
    assert Measure(3, Angle.exact(1, 4), signal(1)).t == Signal()
    with pytest.raises(TypeError, match="cannot interpret"):
        Measure(3, "pi")


def test_correction_and_shift_defaults():
    assert CorrectX(1).signal == ONE and CorrectZ(1).signal == ONE
    with pytest.raises(TypeError):
        Shift(1)


def test_signal_checks_its_constant_and_freezes_its_support():
    assert type(Signal([1, 2]).support) is frozenset
    assert Signal(support={1}) == Signal(frozenset({1}), 0)
    with pytest.raises(ValueError, match="0 or 1"):
        Signal(frozenset(), 2)


def test_pattern_coerces_and_checks():
    p = Pattern(space=[1, 2], inputs=[1], outputs=[2], commands=[Entangle(1, 2)])
    assert (type(p.space), type(p.inputs), type(p.outputs), type(p.commands)) == (
        frozenset, tuple, tuple, tuple
    )
    with pytest.raises(PatternError, match="has no text form"):
        Pattern({-1}, (), (), ())
    with pytest.raises(PatternError, match="has no text form"):
        Pattern({"12"}, (), (), ())
    with pytest.raises(PatternError, match="duplicate input"):
        Pattern({1}, (1, 1), (1,), ())
    with pytest.raises(PatternError, match="duplicate output"):
        Pattern({1}, (1,), (1, 1), ())
    with pytest.raises(PatternError, match="not in space"):
        Pattern({1}, (2,), (1,), ())
    with pytest.raises(PatternError, match="acts outside the space"):
        Pattern({1}, (1,), (1,), (CorrectX(2),))
    with pytest.raises(PatternError, match="signal qubit 2 not in space"):
        Pattern({1}, (1,), (1,), (CorrectX(1, signal(2)),))
