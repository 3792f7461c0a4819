"""Measurement angles, exact when possible.

Angles are kept as exact rational multiples of pi whenever they are
constructed from rationals; this is what makes Pauli-axis detection
(angle exactly 0 or pi/2) reliable.  Arbitrary float angles are supported
as a fallback, but they never compare equal to exact angles and refuse
Pauli classification.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Angle:
    """An angle normalized into [0, 2*pi).

    Exact angles store a ``Fraction`` f meaning ``f * pi`` with ``0 <= f < 2``;
    inexact angles store raw radians.  Negation and adding pi are closed and
    lossless on exact angles.

    An exact angle keeps its ``negated()``, ``plus_pi()`` and ``radians``
    once first asked for, in slots that stay unset until then; they take no
    part in equality, hashing, printing or pickling.
    """

    __slots__ = ("_frac", "_rad", "_negated", "_plus_pi", "_radians")

    def __init__(self, frac: Fraction | None = None, rad: float | None = None):
        if (frac is None) == (rad is None):
            raise ValueError("exactly one of frac/rad must be given")
        if frac is not None:
            frac = Fraction(frac) % 2
        else:
            rad = float(rad)
            if not math.isfinite(rad):
                raise ValueError(f"angle {rad!r} is not a finite number")
            # a tiny negative angle reduces to 2*pi itself once rounded
            rad = rad % (2 * math.pi) % (2 * math.pi)
        self._frac = frac
        self._rad = rad

    @classmethod
    def exact(cls, numerator: int | Fraction, denominator: int = 1) -> "Angle":
        """Angle of (numerator/denominator) * pi."""
        return cls(frac=Fraction(numerator, denominator))

    @classmethod
    def from_radians(cls, radians: float) -> "Angle":
        return cls(rad=radians)

    @classmethod
    def _reduced(cls, frac: Fraction) -> "Angle":
        """The exact angle of a ``Fraction`` already in [0, 2), built without reducing it again."""
        angle = object.__new__(cls)
        angle._frac = frac
        angle._rad = None
        return angle

    @property
    def is_exact(self) -> bool:
        return self._frac is not None

    @property
    def fraction(self) -> Fraction:
        """The multiple of pi, for exact angles only."""
        if self._frac is None:
            raise ValueError("inexact angle has no fraction-of-pi form")
        return self._frac

    @property
    def radians(self) -> float:
        frac = self._frac
        if frac is None:
            return self._rad  # type: ignore[return-value]
        try:
            return self._radians
        except AttributeError:
            self._radians = value = float(frac) * math.pi
            return value

    def negated(self) -> "Angle":
        """-alpha, normalized."""
        frac = self._frac
        if frac is None:
            return Angle(rad=-self._rad)
        try:
            return self._negated
        except AttributeError:
            pass
        # negation is its own inverse on exact angles, so the result keeps self
        self._negated = result = Angle._reduced(2 - frac if frac else frac)
        result._negated = self
        return result

    def plus_pi(self) -> "Angle":
        """alpha + pi, normalized."""
        frac = self._frac
        if frac is None:
            return Angle(rad=self._rad + math.pi)
        try:
            return self._plus_pi
        except AttributeError:
            pass
        self._plus_pi = result = Angle._reduced(frac + 1 if frac < 1 else frac - 1)
        result._plus_pi = self
        return result

    @property
    def is_x_axis(self) -> bool:
        """True for angle 0 or pi: the X-action on such a measurement is trivial."""
        return self._frac is not None and self._frac.denominator == 1

    @property
    def is_y_axis(self) -> bool:
        """True for angle pi/2 or 3*pi/2."""
        return self._frac is not None and self._frac.denominator == 2

    @property
    def is_pauli_axis(self) -> bool:
        return self.is_x_axis or self.is_y_axis

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Angle):
            return NotImplemented
        if (self._frac is None) != (other._frac is None):
            return False
        if self._frac is not None:
            return self._frac == other._frac
        return self._rad == other._rad

    def __hash__(self) -> int:
        if self._frac is not None:
            return hash(("Angle", self._frac))
        return hash(("Angle", self._rad))

    def __reduce__(self):
        # through the constructor, so the memos are not pickled or copied
        return type(self), (self._frac, self._rad)

    def __repr__(self) -> str:
        if self._frac is not None:
            return f"Angle.exact({self._frac.numerator}, {self._frac.denominator})"
        return f"Angle.from_radians({self._rad!r})"


def as_angle(value) -> Angle:
    """Coerce to an Angle.

    ``int`` and ``Fraction`` are read as exact multiples of pi; ``float`` as
    raw (inexact) radians; Angle instances pass through.
    """
    if isinstance(value, Angle):
        return value
    if isinstance(value, (int, Fraction)):
        return Angle.exact(Fraction(value))
    if isinstance(value, float):
        return Angle.from_radians(value)
    raise TypeError(f"cannot interpret {value!r} as an angle")
