"""Signals: Z2 sums of measurement outcomes plus a constant bit."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

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


_set_field = object.__setattr__


class MissingOutcomeError(KeyError):
    """A signal was evaluated against an outcome map missing one of its qubits."""


@dataclass(frozen=True)
class Signal:
    """An affine Z2 expression: ``constant + sum of s_i over support``.

    Addition is XOR on the constant and symmetric difference on the support,
    so every signal is its own inverse.
    """

    support: frozenset = frozenset()
    constant: int = 0

    def __post_init__(self):
        if self.constant not in (0, 1):
            raise ValueError("signal constant must be 0 or 1")
        if not isinstance(self.support, frozenset):
            object.__setattr__(self, "support", frozenset(self.support))

    @property
    def is_zero(self) -> bool:
        return not self.support and self.constant == 0

    def __add__(self, other: "Signal") -> "Signal":
        # the xor of two bits is a bit and ``^`` of two frozensets is a
        # frozenset, so the sum skips the constructor's checks
        total = object.__new__(Signal)
        _set_field(total, "support", self.support ^ other.support)
        _set_field(total, "constant", self.constant ^ other.constant)
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
