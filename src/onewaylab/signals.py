"""Signals: Z2 sums of measurement outcomes plus a constant bit."""

from __future__ import annotations

import re
from typing import Mapping

from ._values import Value

Qubit = int | str
"""Qubit identifier: a non-negative int or a str label (see ``is_label``)."""

LABEL_WORD = r"\d+'*|[A-Za-z_][A-Za-z0-9_']*"
"""A qubit label as the text format reads it: digits or a word, either primed."""

_LABEL_RE = re.compile(LABEL_WORD)


def is_label(q) -> bool:
    """Whether the text format writes ``q`` and reads it back as ``q``.

    True for non-negative ints, and for strings that are one label word
    and not all digits, since text reads an all-digit word as an int.
    """
    if type(q) is int:
        return q >= 0
    return isinstance(q, str) and _LABEL_RE.fullmatch(q) is not None and not q.isdigit()


def qubit_key(q: Qubit):
    """Sort key giving a stable total order over mixed int/str labels."""
    return (q.__class__.__name__, q)


def _fixed_key(q):
    """A sort key over any hashable objects: labels in ``qubit_key`` order,
    then everything else by type name and repr."""
    return (0, *qubit_key(q)) if is_label(q) else (1, type(q).__name__, repr(q))


def _in_label_order(qubits) -> str:
    """``qubits`` written like a set's repr, but in ``_fixed_key`` order
    rather than hash order, so that no message depends on
    ``PYTHONHASHSEED``."""
    return "{" + ", ".join(repr(q) for q in sorted(qubits, key=_fixed_key)) + "}" if qubits else "set()"


class MissingOutcomeError(KeyError):
    """A signal was evaluated against an outcome map missing one of its qubits."""


class Signal(Value):
    """An affine Z2 expression: ``constant + sum of s_i over support``.

    Addition is XOR on the constant and symmetric difference on the support,
    so every signal is its own inverse.
    """

    __slots__ = ("support", "constant")

    def __init__(self, support: frozenset = frozenset(), constant: int = 0):
        if constant not in (0, 1):
            raise ValueError("signal constant must be 0 or 1")
        set_support, set_constant = self._setters
        set_support(self, support if isinstance(support, frozenset) else frozenset(support))
        set_constant(self, constant)

    @property
    def is_zero(self) -> bool:
        return not self.support and self.constant == 0

    def __add__(self, other: "Signal") -> "Signal":
        # the xor of two bits is a bit and ``^`` of two frozensets is a
        # frozenset, so the sum skips the constructor's checks
        total = object.__new__(Signal)
        set_support, set_constant = Signal._setters
        set_support(total, self.support ^ other.support)
        set_constant(total, self.constant ^ other.constant)
        return total

    def __bool__(self) -> bool:
        return not self.is_zero

    def evaluate(self, outcomes: Mapping[Qubit, int]) -> int:
        """Value of the signal under an outcome map (Z2)."""
        value = self.constant
        for q in self.support:
            try:
                value ^= outcomes[q]
            except KeyError:
                raise MissingOutcomeError(q) from None
        return value

    def substitute(self, qubit: Qubit, extra: "Signal") -> "Signal":
        """Replace the occurrence of ``s_qubit`` by ``extra + s_qubit``.

        If ``qubit`` is not in the support this is the identity; otherwise the
        result is ``self + extra`` by Z2 arithmetic.
        """
        if qubit in self.support:
            return self + extra
        return self

    def renamed(self, mapping: Mapping[Qubit, Qubit]) -> "Signal":
        return Signal(frozenset(mapping[q] for q in self.support), self.constant)

    def __str__(self) -> str:
        terms = [f"s[{q}]" for q in sorted(self.support, key=qubit_key)]
        if self.constant:
            terms.insert(0, "1")
        return " + ".join(terms) if terms else "0"


ZERO = Signal()
ONE = Signal(constant=1)


def signal(*qubits: Qubit, constant: int = 0) -> Signal:
    """Shorthand constructor: ``signal(1, 2)`` is ``s_1 + s_2``."""
    return Signal(frozenset(qubits), constant)
