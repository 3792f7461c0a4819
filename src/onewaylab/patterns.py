"""Measurement patterns and their combinators.

A pattern is a computation space ``V`` (set of qubits), ordered input and
output qubit lists, and a command sequence stored in *execution order*:
the first element of ``commands`` runs first.
"""

from __future__ import annotations

from typing import Iterable, Mapping, get_args

from ._values import Value
from .commands import Command, Entangle, Measure, Shift, command_signals, rename_command
from .signals import Qubit, _fixed_key, _in_label_order, is_label, qubit_key

_COMMAND_TYPES = frozenset(get_args(Command))


class PatternError(ValueError):
    """Structurally invalid pattern or invalid pattern combination.

    ``command`` is the command at fault, when one is.
    """

    def __init__(self, message: str, command: Command | None = None):
        super().__init__(message)
        self.command = command


class Pattern(Value):
    """A measurement pattern, checked once when it is made.

    ``Pattern(space, inputs, outputs, commands)`` checks what comes from
    outside the package: every label of the space, no duplicate input or
    output, inputs and outputs in the space, and, in one in-order scan,
    that each command is one of the five command types, and every qubit it
    acts on or its signals name.  Where several qubits are at fault, the
    message names the first in a fixed order (``signals._fixed_key``).  A
    pattern derived inside the package from checked parts is not scanned
    again: its interface goes through ``Pattern(space, inputs, outputs, ())``,
    which still checks the labels, duplicates and space membership, and its
    commands, which name only qubits of that space, join it through
    ``_rebuilt``.  Parsing, the combinators, the rewrite rules, the normal
    forms and ``clifford.pauli_eliminate`` build that way, so each command
    of a composite is checked once, when its leaf is made.
    """

    __slots__ = ("space", "inputs", "outputs", "commands")

    def __init__(self, space: Iterable, inputs: Iterable, outputs: Iterable, commands: Iterable):
        space, inputs, outputs = frozenset(space), tuple(inputs), tuple(outputs)
        commands = tuple(commands)
        bad = [q for q in space if not is_label(q)]
        if bad:
            raise PatternError(
                f"qubit label {min(bad, key=_fixed_key)!r} has no text form: labels are non-negative "
                "ints or words of letters, digits, '_' and primes, not all digits"
            )
        if len(set(inputs)) != len(inputs):
            raise PatternError("duplicate input qubit")
        if len(set(outputs)) != len(outputs):
            raise PatternError("duplicate output qubit")
        for q in (*inputs, *outputs):
            if q not in space:
                raise PatternError(f"input/output qubit {q!r} not in space")
        # in command order, so the error names the first command at fault; a
        # qubit in the space is also tested as a label, since True and 1.0
        # equal 1 and are not labels
        for cmd in commands:
            if type(cmd) not in _COMMAND_TYPES:
                raise PatternError(f"a {type(cmd).__name__} is not a command", cmd)
            for q in (cmd.i, cmd.j) if type(cmd) is Entangle else (cmd.qubit,):
                if q not in space:
                    raise PatternError(f"command {cmd!r} acts outside the space", cmd)
                if not is_label(q):
                    raise PatternError(f"command {cmd!r} acts on {q!r}, which is not a qubit label", cmd)
            for sig in command_signals(cmd):
                bad = [q for q in sig.support if q not in space or not is_label(q)]
                if bad:
                    q = min(bad, key=_fixed_key)
                    reason = "is not a qubit label" if q in space else "not in space"
                    raise PatternError(f"signal qubit {q!r} {reason}", cmd)
        self._set_fields(space, inputs, outputs, commands)

    @classmethod
    def _rebuilt(cls, like: "Pattern", commands: Iterable[Command]) -> "Pattern":
        """``like``'s interface with ``commands``, which are not scanned.

        The caller vouches that ``commands`` name only qubits of ``like``'s
        space: they were made from commands of checked patterns whose spaces
        ``like``'s holds.  Commands from a caller go through ``with_commands``.
        """
        pattern = object.__new__(cls)
        pattern._set_fields(like.space, like.inputs, like.outputs, tuple(commands))
        return pattern

    @property
    def input_set(self) -> frozenset:
        return frozenset(self.inputs)

    @property
    def output_set(self) -> frozenset:
        return frozenset(self.outputs)

    @property
    def prepared(self) -> frozenset:
        """Non-input qubits, implicitly prepared in the |+> state."""
        return self.space - self.input_set

    @property
    def measured(self) -> frozenset:
        return frozenset(c.qubit for c in self.commands if isinstance(c, Measure))

    def with_commands(self, commands: Iterable[Command]) -> "Pattern":
        """This pattern's interface with ``commands``, scanned as ``Pattern`` scans
        them; for commands from outside the package, such as ``rewrite.replay``'s."""
        return Pattern(self.space, self.inputs, self.outputs, tuple(commands))


class ValidityReport(Value):
    """Per-condition result of the runnability checks.

    Each field is ``None`` when the condition holds, otherwise the execution
    index of the first offending command (for D2, of the qubit's last use or
    -1 when no command is at fault).
    """

    __slots__ = ("d0", "d1", "d2", "d2_qubits")

    def __init__(self, d0, d1, d2, d2_qubits=frozenset()):
        self._set_fields(d0, d1, d2, d2_qubits)

    @property
    def ok(self) -> bool:
        return self.d0 is None and self.d1 is None and self.d2 is None


def validate(pattern: Pattern) -> ValidityReport:
    """Check the three definiteness conditions.

    D0: no command depends on an outcome not yet measured.
    D1: no command acts on a qubit already measured.
    D2: a qubit is measured iff it is not an output.
    """
    measured: set = set()
    d0 = d1 = d2 = None
    bad_qubits: set = set()
    for idx, cmd in enumerate(pattern.commands):
        kind = type(cmd)
        if kind is Entangle:
            if d1 is None and (cmd.i in measured or cmd.j in measured):
                d1 = idx
            continue
        if d0 is None:
            if kind is Measure:
                ready = cmd.s.support <= measured and cmd.t.support <= measured
            else:
                ready = cmd.signal.support <= measured
                if kind is Shift:
                    ready = ready and cmd.qubit in measured
            if not ready:
                d0 = idx
        if d1 is None and kind is not Shift and cmd.qubit in measured:
            d1 = idx
        if kind is Measure:
            measured.add(cmd.qubit)
    should_measure = pattern.space - pattern.output_set
    if measured != should_measure:
        bad_qubits = measured ^ should_measure
        d2 = -1
    return ValidityReport(d0, d1, d2, frozenset(bad_qubits))


def _check_valid(pattern: Pattern, verb: str) -> None:
    """Raise ``PatternError`` saying that one cannot ``verb`` an invalid pattern."""
    report = validate(pattern)
    if not report.ok:
        raise PatternError(f"cannot {verb} an invalid pattern: {report}")


def compose(second: Pattern, first: Pattern) -> Pattern:
    """Sequential composition: run ``first``, then ``second``.

    Requires ``space(first) & space(second) == outputs(first) == inputs(second)``
    as sets.  The composite keeps ``first``'s inputs and ``second``'s outputs.
    """
    overlap = first.space & second.space
    if not (overlap == first.output_set == second.input_set):
        raise PatternError(
            "composition interface mismatch: need space overlap == outputs of "
            f"first == inputs of second, got {_in_label_order(overlap)} / "
            f"{_in_label_order(first.output_set)} / {_in_label_order(second.input_set)}"
        )
    interface = Pattern(first.space | second.space, first.inputs, second.outputs, ())
    return Pattern._rebuilt(interface, first.commands + second.commands)


def tensor(left: Pattern, right: Pattern) -> Pattern:
    """Parallel composition of patterns on disjoint spaces."""
    if left.space & right.space:
        raise PatternError(f"tensor spaces overlap on {_in_label_order(left.space & right.space)}")
    interface = Pattern(left.space | right.space, left.inputs + right.inputs, left.outputs + right.outputs, ())
    return Pattern._rebuilt(interface, left.commands + right.commands)


def rename(pattern: Pattern, mapping: Mapping[Qubit, Qubit]) -> Pattern:
    """Rename qubits through an injective map defined on the whole space.

    The images are checked as labels by ``Pattern``, with its message.
    """
    missing = [q for q in pattern.space if q not in mapping]
    if missing:
        raise PatternError(f"rename map missing qubits {sorted(missing, key=qubit_key)!r}")
    images = [mapping[q] for q in pattern.space]
    if len(set(images)) != len(images):
        raise PatternError("rename map is not injective on the pattern space")
    interface = Pattern(images, (mapping[q] for q in pattern.inputs), (mapping[q] for q in pattern.outputs), ())
    return Pattern._rebuilt(interface, (rename_command(c, mapping) for c in pattern.commands))
