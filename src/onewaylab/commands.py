"""Pattern commands: entanglement, dependent measurement, corrections, shift."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .angles import Angle, as_angle
from .signals import ONE, ZERO, Qubit, Signal, qubit_key


@dataclass(frozen=True)
class Entangle:
    """Controlled-Z between two distinct qubits; symmetric in its arguments."""

    i: Qubit
    j: Qubit

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("entanglement needs two distinct qubits")
        if qubit_key(self.j) < qubit_key(self.i):
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)


@dataclass(frozen=True)
class Measure:
    """Destructive measurement of ``qubit`` in the basis |0> +- e^{i a}|1>.

    The effective angle is ``(-1)^s * angle + t * pi`` where ``s`` flips the
    sign (X-action) and ``t`` adds pi (Z-action).

    Construction normalizes:

    * a constant 1 in ``s`` is folded into the angle by negation;
    * a constant 1 in ``t`` is folded into the angle by adding pi;
    * when the (exact) angle is 0 or pi, the sign action is vacuous and the
      ``s`` signal is dropped.
    """

    qubit: Qubit
    angle: Angle
    s: Signal = ZERO
    t: Signal = ZERO

    def __post_init__(self):
        angle = as_angle(self.angle)
        s, t = self.s, self.t
        if s.constant:
            angle = angle.negated()
            s = Signal(s.support, 0)
        if t.constant:
            angle = angle.plus_pi()
            t = Signal(t.support, 0)
        if angle.is_x_axis:
            s = ZERO
        object.__setattr__(self, "angle", angle)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class CorrectX:
    """Pauli X on ``qubit``, applied when the signal evaluates to 1."""

    qubit: Qubit
    signal: Signal = ONE


@dataclass(frozen=True)
class CorrectZ:
    """Pauli Z on ``qubit``, applied when the signal evaluates to 1."""

    qubit: Qubit
    signal: Signal = ONE


@dataclass(frozen=True)
class Shift:
    """Classical command: add the signal's value to the recorded outcome of ``qubit``."""

    qubit: Qubit
    signal: Signal


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
