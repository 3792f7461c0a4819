"""Pattern commands: entanglement, dependent measurement, corrections, shift."""

from __future__ import annotations

from typing import Union

from ._values import Value
from .angles import Angle, as_angle
from .signals import ONE, ZERO, Qubit, Signal, qubit_key


class Entangle(Value):
    """Controlled-Z between two distinct qubits; symmetric in its arguments."""

    __slots__ = ("i", "j")

    def __init__(self, i: Qubit, j: Qubit):
        if i == j:
            raise ValueError("entanglement needs two distinct qubits")
        # labels of one type order by ``<``, which ``qubit_key`` agrees with
        if (j < i) if type(i) is type(j) else (qubit_key(j) < qubit_key(i)):
            i, j = j, i
        set_i, set_j = self._setters
        set_i(self, i)
        set_j(self, j)


class Measure(Value):
    """Destructive measurement of ``qubit`` in the basis |0> +- e^{i a}|1>.

    The effective angle is ``(-1)^s * angle + t * pi`` where ``s`` flips the
    sign (X-action) and ``t`` adds pi (Z-action).

    Construction normalizes:

    * a constant 1 in ``s`` is folded into the angle by negation;
    * a constant 1 in ``t`` is folded into the angle by adding pi;
    * when the (exact) angle is 0 or pi, the sign action is vacuous and the
      ``s`` signal is dropped.
    """

    __slots__ = ("qubit", "angle", "s", "t")

    def __init__(self, qubit: Qubit, angle: Angle, s: Signal = ZERO, t: Signal = ZERO):
        angle = as_angle(angle)
        if s.constant:
            angle = angle.negated()
            s = Signal(s.support, 0)
        if t.constant:
            angle = angle.plus_pi()
            t = Signal(t.support, 0)
        if angle.is_x_axis:
            s = ZERO
        set_qubit, set_angle, set_s, set_t = self._setters
        set_qubit(self, qubit)
        set_angle(self, angle)
        set_s(self, s)
        set_t(self, t)


class CorrectX(Value):
    """Pauli X on ``qubit``, applied when the signal evaluates to 1."""

    __slots__ = ("qubit", "signal")

    def __init__(self, qubit: Qubit, signal: Signal = ONE):
        set_qubit, set_signal = self._setters
        set_qubit(self, qubit)
        set_signal(self, signal)


class CorrectZ(Value):
    """Pauli Z on ``qubit``, applied when the signal evaluates to 1."""

    __slots__ = ("qubit", "signal")

    def __init__(self, qubit: Qubit, signal: Signal = ONE):
        set_qubit, set_signal = self._setters
        set_qubit(self, qubit)
        set_signal(self, signal)


class Shift(Value):
    """Classical command: add the signal's value to the recorded outcome of ``qubit``."""

    __slots__ = ("qubit", "signal")

    def __init__(self, qubit: Qubit, signal: Signal):
        set_qubit, set_signal = self._setters
        set_qubit(self, qubit)
        set_signal(self, signal)


Command = Union[Entangle, Measure, CorrectX, CorrectZ, Shift]


def command_signals(cmd: Command) -> tuple[Signal, ...]:
    """All signals carried by a command (empty for entanglement)."""
    if isinstance(cmd, Measure):
        return (cmd.s, cmd.t)
    if isinstance(cmd, (CorrectX, CorrectZ, Shift)):
        return (cmd.signal,)
    return ()


def rename_command(cmd: Command, mapping) -> Command:
    if isinstance(cmd, Entangle):
        return Entangle(mapping[cmd.i], mapping[cmd.j])
    if isinstance(cmd, Measure):
        return Measure(mapping[cmd.qubit], cmd.angle, cmd.s.renamed(mapping), cmd.t.renamed(mapping))
    if isinstance(cmd, (CorrectX, CorrectZ, Shift)):
        return type(cmd)(mapping[cmd.qubit], cmd.signal.renamed(mapping))
    raise TypeError(f"unknown command {cmd!r}")
