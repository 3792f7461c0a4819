import random
from fractions import Fraction

import pytest

from conftest import with_extra_shifts

from onewaylab.angles import Angle
from onewaylab.commands import CorrectX, CorrectZ, Entangle, Measure, Shift
from onewaylab.clifford import pauli_eliminate
from onewaylab.dsl import parse, serialize
from onewaylab.library import cnot, identity, j, random_circuit_pattern, random_wild_pattern, rx
from onewaylab.patterns import (
    Pattern,
    PatternError,
    compose,
    rename,
    tensor,
    validate,
)
from onewaylab.rewrite import (
    applicable_redexes,
    apply_rule,
    random_order_standardize,
    standardize,
    standardize_extended,
)
from onewaylab.signals import signal


def h_pattern():
    return Pattern(
        frozenset((1, 2)),
        (1,),
        (2,),
        (Entangle(1, 2), Measure(1, Angle.exact(0)), CorrectX(2, signal(1))),
    )


def test_structural_checks():
    with pytest.raises(PatternError):
        Pattern(frozenset((1,)), (1, 1), (1,), ())
    with pytest.raises(PatternError):
        Pattern(frozenset((1,)), (2,), (1,), ())
    with pytest.raises(PatternError):
        Pattern(frozenset((1,)), (1,), (1,), (Entangle(1, 2),))
    with pytest.raises(PatternError):
        Pattern(frozenset((1, 2)), (1,), (2,), (CorrectX(2, signal(9)),))


_OUTSIDE = "command {first!r} acts outside the space"


@pytest.mark.parametrize(
    "first, second, message",
    [
        (Entangle(1, 7), CorrectX(2, signal(8)), _OUTSIDE),
        (Measure(7, Angle.exact(0)), Entangle(2, 8), _OUTSIDE),
        (CorrectZ(2, signal(7)), CorrectX(8, signal(1)), "signal qubit 7 not in space"),
        (Measure(1, Angle.exact(1, 4), signal(7)), Shift(8, signal(1)), "signal qubit 7 not in space"),
        # a command whose qubit and signal are both outside fails on its qubit
        (CorrectX(7, signal(8)), Entangle(2, 9), _OUTSIDE),
    ],
    ids=["entangle", "measure", "correction-signal", "measure-signal", "qubit-before-signal"],
)
def test_error_names_the_first_command_outside_the_space(first, second, message):
    commands = (Entangle(1, 2), first, Measure(1, Angle.exact(0)), second)
    with pytest.raises(PatternError) as info:
        Pattern(frozenset((1, 2)), (1,), (2,), commands)
    assert info.value.command == first
    assert str(info.value) == message.format(first=first)
    with pytest.raises(PatternError) as info:
        h_pattern().with_commands(commands)
    assert info.value.command == first


@pytest.mark.parametrize("impostor", [True, 1.0], ids=["True", "1.0"])
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda q: Entangle(q, 2), "command {first!r} acts on {q!r}, which is not a qubit label"),
        (lambda q: CorrectX(q, signal(2)), "command {first!r} acts on {q!r}, which is not a qubit label"),
        (lambda q: CorrectZ(2, signal(q)), "signal qubit {q!r} is not a qubit label"),
        (lambda q: Measure(2, Angle.exact(1, 4), signal(q)), "signal qubit {q!r} is not a qubit label"),
    ],
    ids=["entangle", "correction", "correction-signal", "measure-signal"],
)
def test_a_qubit_equal_to_a_label_but_not_one_is_refused(impostor, make, message):
    # True and 1.0 equal the label 1, but the text format would write them
    # as ``True`` and ``1.0``, which do not read back
    first = make(impostor)
    commands = (Entangle(1, 2), first, Measure(1, Angle.exact(0)), CorrectX(2, signal(True)))
    with pytest.raises(PatternError) as info:
        Pattern(frozenset((1, 2)), (1,), (2,), commands)
    assert info.value.command == first
    assert str(info.value) == message.format(first=first, q=impostor)
    with pytest.raises(PatternError) as info:
        h_pattern().with_commands(commands)
    assert info.value.command == first


class _LooksLikeACorrection:
    qubit = 2
    signal = signal(1)


@pytest.mark.parametrize(
    "impostor, name",
    [(_LooksLikeACorrection(), "_LooksLikeACorrection"), (None, "NoneType"), ((1, 2), "tuple")],
    ids=["duck", "None", "tuple"],
)
def test_only_the_five_command_types_are_commands(impostor, name):
    # an object with a ``qubit`` and a ``signal`` is no command: validate,
    # standardize, serialize and the simulator know only the five types
    commands = (Entangle(1, 2), Measure(1, Angle.exact(0)), impostor)
    for build in (lambda: Pattern({1, 2}, (1,), (2,), commands), lambda: h_pattern().with_commands(commands)):
        with pytest.raises(PatternError) as info:
            build()
        assert str(info.value) == f"a {name} is not a command"
        assert info.value.command is impostor


def test_parse_and_normal_forms_bypass_the_checking_constructor(monkeypatch):
    # reading a document and rewriting it build through ``Pattern._rebuilt``,
    # so ``Pattern``'s scan of every command stays off their path
    texts = []
    for seed in range(6):
        wild = random_wild_pattern(80, seed)
        texts += [serialize(wild), serialize(with_extra_shifts(wild, random.Random(seed)))]

    def results():
        found = []
        for text in texts:
            parsed = parse(text)
            core, extended = standardize(parsed)[0], standardize_extended(parsed)[0]
            found.append([serialize(p, paper_order=order) for p in (parsed, core, extended) for order in (False, True)])
        return found

    want = results()
    _refuse_checked_commands(monkeypatch)
    assert results() == want


def _refuse_checked_commands(monkeypatch):
    """Patch ``Pattern.__init__`` to raise when it is given commands."""
    checked = Pattern.__init__

    def no_commands(self, space, inputs, outputs, commands):
        commands = tuple(commands)
        if commands:
            raise AssertionError("a pattern with commands was built through the checking constructor")
        checked(self, space, inputs, outputs, commands)

    monkeypatch.setattr(Pattern, "__init__", no_commands)


def test_derivations_bypass_the_checking_constructor(monkeypatch):
    # the combinators, the rule steps and Pauli elimination build from
    # checked parts: the interface through ``Pattern(..., ())``, the
    # commands through ``Pattern._rebuilt``
    wild = [random_wild_pattern(40, seed) for seed in range(4)]
    circuit = random_circuit_pattern(5, 3, 12)
    j1, j2, lead = j(Fraction(1, 3)), j(Fraction(1, 4), 2, 3), j(Fraction(1, 2), 1, 100)
    wires = (identity(200), identity(300))
    cnot_, pauli = cnot(), standardize(rx(Fraction(1, 2)))[0]
    pauli_cnot = standardize(cnot_)[0]

    def results():
        found = [
            compose(j2, j1),
            compose(circuit, tensor(lead, tensor(*wires))),
            tensor(circuit, rename(cnot_, {1: "a", 2: "b", 3: "c", 4: "d"})),
            rename(circuit, {q: f"q{q}" for q in circuit.space}),
            pauli_eliminate(pauli),
            pauli_eliminate(pauli_cnot),
        ]
        for k, p in enumerate(wild):
            found += [apply_rule(p, rule, position) for rule, position in applicable_redexes(p)]
            found.append(random_order_standardize(p, k))
        return [(p, serialize(p)) for p in found]

    want = results()
    assert want[4][0] != pauli and len(want) > 10  # the Y-axis fold ran
    _refuse_checked_commands(monkeypatch)
    assert results() == want


def test_with_commands_keeps_the_interface_and_checks():
    p = h_pattern()
    q = p.with_commands(reversed(p.commands))
    assert (q.space, q.inputs, q.outputs) == (p.space, p.inputs, p.outputs)
    assert q.commands == tuple(reversed(p.commands))
    with pytest.raises(PatternError, match="acts outside the space"):
        p.with_commands(p.commands + (CorrectZ(3, signal(1)),))


def test_measure_constructor_normalizes_constants():
    m = Measure(1, Angle.exact(1, 4), signal(2, constant=1), signal(3, constant=1))
    assert m.angle == Angle.exact(3, 4)  # -1/4 pi + pi
    assert m.s == signal(2)
    assert m.t == signal(3)


def test_measure_constructor_erases_sign_signal_on_x_axis():
    m = Measure(1, Angle.exact(0), s=signal(2))
    assert not m.s
    m = Measure(1, Angle.exact(1), s=signal(2))
    assert not m.s
    m = Measure(1, Angle.exact(1, 2), s=signal(2))
    assert m.s == signal(2)


def test_entangle_symmetry():
    assert Entangle(2, 1) == Entangle(1, 2)
    with pytest.raises(ValueError):
        Entangle(1, 1)


def test_validate_ok():
    assert validate(h_pattern()).ok


def test_validate_d0_unmeasured_dependency():
    p = Pattern(
        frozenset((1, 2)),
        (1,),
        (2,),
        (CorrectX(2, signal(1)), Entangle(1, 2), Measure(1, Angle.exact(0))),
    )
    report = validate(p)
    assert report.d0 == 0 and not report.ok


def test_validate_d1_measured_qubit_use():
    p = Pattern(
        frozenset((1, 2)),
        (1,),
        (2,),
        (Measure(1, Angle.exact(0)), Entangle(1, 2)),
    )
    assert validate(p).d1 == 1


def test_validate_d2_output_measured_or_nonoutput_unmeasured():
    p = Pattern(frozenset((1, 2)), (1,), (2,), (Entangle(1, 2),))
    report = validate(p)
    assert report.d2 == -1 and report.d2_qubits == frozenset((1,))


def test_validate_shift_needs_measured_qubit():
    good = Pattern(
        frozenset((1, 2)),
        (1,),
        (2,),
        (
            Entangle(1, 2),
            Measure(1, Angle.exact(0)),
            Shift(1, signal(constant=1)),
            CorrectX(2, signal(1)),
        ),
    )
    assert validate(good).ok
    bad = Pattern(
        frozenset((1, 2)),
        (1,),
        (2,),
        (Shift(1, signal(constant=1)), Entangle(1, 2), Measure(1, Angle.exact(0))),
    )
    assert validate(bad).d0 == 0


def test_compose_interface_checks():
    a = h_pattern()
    b = rename(h_pattern(), {1: 2, 2: 3})
    c = compose(b, a)
    assert c.inputs == (1,) and c.outputs == (3,)
    assert c.commands == a.commands + b.commands
    with pytest.raises(PatternError):
        compose(a, a)  # overlap is the whole space, not the interface


def test_tensor_disjointness():
    a = h_pattern()
    b = rename(h_pattern(), {1: 3, 2: 4})
    t = tensor(a, b)
    assert t.inputs == (1, 3) and t.outputs == (2, 4)
    with pytest.raises(PatternError):
        tensor(a, a)


def test_rename_total_and_injective():
    with pytest.raises(PatternError):
        rename(h_pattern(), {1: 5})
    with pytest.raises(PatternError):
        rename(h_pattern(), {1: 5, 2: 5})
    r = rename(h_pattern(), {1: "a", 2: "b"})
    assert r.inputs == ("a",) and r.outputs == ("b",)


def test_rename_every_command_kind():
    p = Pattern(
        frozenset((1, 2, 3)),
        (1,),
        (3,),
        (
            Entangle(1, 2),
            Entangle(2, 3),
            Measure(1, Angle.exact(1, 4)),
            Measure(2, Angle.exact(1, 3), signal(1), signal(1)),
            Shift(1, signal(2)),
            CorrectX(3, signal(2)),
            CorrectZ(3, signal(1, constant=1)),
        ),
    )
    r = rename(p, {1: "a", 2: 7, 3: "c'"})
    assert r == Pattern(
        frozenset(("a", 7, "c'")),
        ("a",),
        ("c'",),
        (
            Entangle("a", 7),
            Entangle(7, "c'"),
            Measure("a", Angle.exact(1, 4)),
            Measure(7, Angle.exact(1, 3), signal("a"), signal("a")),
            Shift("a", signal(7)),
            CorrectX("c'", signal(7)),
            CorrectZ("c'", signal("a", constant=1)),
        ),
    )
    assert parse(serialize(r)) == r


_NO_TEXT_FORM = (
    "qubit label {!r} has no text form: labels are non-negative ints "
    "or words of letters, digits, '_' and primes, not all digits"
)


@pytest.mark.parametrize(
    "refuse, message",
    [
        # the overlap is the whole space, not the interface
        (
            lambda: compose(h_pattern(), h_pattern()),
            "composition interface mismatch: need space overlap == outputs of "
            "first == inputs of second, got {1, 2} / {2} / {1}",
        ),
        (
            lambda: compose(rename(h_pattern(), {1: 4, 2: 5}), h_pattern()),
            "composition interface mismatch: need space overlap == outputs of "
            "first == inputs of second, got set() / {2} / {4}",
        ),
        # sets are written in label order: ints, then words
        (
            lambda: compose(Pattern("abcd", "d", "abcd", ()), Pattern([9, 2, *"cba"], "", [9, 2, *"cba"], ())),
            "composition interface mismatch: need space overlap == outputs of "
            "first == inputs of second, got {'a', 'b', 'c'} / {2, 9, 'a', 'b', 'c'} / {'d'}",
        ),
        (lambda: tensor(h_pattern(), h_pattern()), "tensor spaces overlap on {1, 2}"),
        (
            lambda: tensor(Pattern([9, 2, "b", "a"], "", "", ()), Pattern("ab", "", "", ())),
            "tensor spaces overlap on {'a', 'b'}",
        ),
        (
            lambda: tensor(Pattern([9, 2], "", "", ()), Pattern([2, 9], "", "", ())),
            "tensor spaces overlap on {2, 9}",
        ),
        (lambda: rename(h_pattern(), {1: 5}), "rename map missing qubits [2]"),
        (
            lambda: rename(Pattern([10, 9, "b", "a"], "", "", ()), {9: 1}),
            "rename map missing qubits [10, 'a', 'b']",
        ),
        (lambda: rename(h_pattern(), {1: 5, 2: 5}), "rename map is not injective on the pattern space"),
        (lambda: rename(h_pattern(), {1: 5, 2: 5.0}), "rename map is not injective on the pattern space"),
        (lambda: rename(h_pattern(), {1: True, 2: 5}), _NO_TEXT_FORM.format(True)),
        (lambda: rename(h_pattern(), {1: 4, 2: -1}), _NO_TEXT_FORM.format(-1)),
        (lambda: rename(h_pattern(), {1: "7", 2: "a"}), _NO_TEXT_FORM.format("7")),
        (lambda: rename(h_pattern(), {1: 3, 2: "a b"}), _NO_TEXT_FORM.format("a b")),
    ],
    ids=[
        "compose-whole-space",
        "compose-disjoint",
        "compose-words",
        "tensor",
        "tensor-words",
        "tensor-wrapping-ints",
        "rename-missing",
        "rename-missing-several",
        "rename-not-injective",
        "rename-equal-images",
        "rename-True",
        "rename-negative",
        "rename-digits",
        "rename-space",
    ],
)
def test_combinators_refuse_with_their_messages(refuse, message):
    with pytest.raises(PatternError) as info:
        refuse()
    assert str(info.value) == message
    assert info.value.command is None
