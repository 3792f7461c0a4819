import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from onewaylab import angles
from onewaylab.angles import Angle, as_angle


def test_exact_normalization():
    assert Angle.exact(9, 4) == Angle.exact(1, 4)
    assert Angle.exact(-1, 4) == Angle.exact(7, 4)
    assert Angle.exact(2) == Angle.exact(0)


def test_radians_of_exact():
    assert Angle.exact(1, 2).radians == pytest.approx(math.pi / 2)
    assert Angle.exact(3, 2).radians == pytest.approx(3 * math.pi / 2)


def test_inexact_never_equals_exact():
    assert Angle.from_radians(math.pi) != Angle.exact(1)
    assert Angle.from_radians(0.0) != Angle.exact(0)


def test_negated_and_plus_pi():
    assert Angle.exact(1, 4).negated() == Angle.exact(7, 4)
    assert Angle.exact(1, 4).plus_pi() == Angle.exact(5, 4)
    assert Angle.exact(3, 2).plus_pi() == Angle.exact(1, 2)
    assert Angle.from_radians(1.0).negated().radians == pytest.approx(2 * math.pi - 1.0)


def test_axis_classification():
    assert Angle.exact(0).is_x_axis
    assert Angle.exact(1).is_x_axis
    assert Angle.exact(1, 2).is_y_axis
    assert Angle.exact(3, 2).is_y_axis
    assert not Angle.exact(1, 4).is_pauli_axis
    assert not Angle.from_radians(0.0).is_x_axis


def test_as_angle_coercions():
    assert as_angle(0) == Angle.exact(0)
    assert as_angle(Fraction(1, 2)) == Angle.exact(1, 2)
    assert not as_angle(0.5).is_exact
    assert as_angle(Angle.exact(1)) == Angle.exact(1)
    with pytest.raises(TypeError):
        as_angle("pi")


@given(st.fractions(min_value=-8, max_value=8))
def test_double_negation_roundtrip(frac):
    a = Angle.exact(frac)
    assert a.negated().negated() == a
    assert a.plus_pi().plus_pi() == a


def test_fraction_refused_for_inexact():
    with pytest.raises(ValueError):
        Angle.from_radians(1.0).fraction


def test_tiny_negative_radians_reduce_below_two_pi():
    # -1e-20 % (2 pi) rounds to 2 pi itself, which would print and parse
    # back as a different angle
    assert Angle.from_radians(-1e-20).radians == 0.0
    assert Angle.from_radians(-1e-20) == Angle.from_radians(0.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_radians_refused(value):
    with pytest.raises(ValueError, match="finite"):
        Angle.from_radians(value)


EVERY_SMALL_FRACTION = sorted({Fraction(p, q) for q in range(1, 17) for p in range(2 * q)})


@pytest.mark.parametrize("frac", EVERY_SMALL_FRACTION, ids=str)
def test_exact_operations_match_their_fraction_definitions(frac):
    a = Angle.exact(frac)
    assert a.negated() == Angle.exact(-frac)
    assert a.plus_pi() == Angle.exact(frac + 1)
    assert a.is_x_axis == (frac in (0, 1))
    assert a.is_y_axis == (frac in (Fraction(1, 2), Fraction(3, 2)))
    for result in (a.negated(), a.plus_pi()):
        assert result.is_exact
        assert type(result.fraction) is Fraction
        assert 0 <= result.fraction < 2
        assert hash(result) == hash(Angle.exact(result.fraction))


@pytest.mark.parametrize("radians", [0.0, 1.0, math.pi, 3.0, 2 * math.pi - 1e-9])
def test_inexact_operations_unchanged(radians):
    a = Angle.from_radians(radians)
    assert a.negated() == Angle.from_radians(-radians)
    assert a.plus_pi() == Angle.from_radians(radians + math.pi)
    for result in (a.negated(), a.plus_pi()):
        assert not result.is_exact
        assert 0 <= result.radians < 2 * math.pi
    assert not a.is_x_axis and not a.is_y_axis


@pytest.mark.parametrize("frac", [Fraction(0), Fraction(1, 4), Fraction(1), Fraction(3, 2)], ids=str)
def test_memos_change_no_value(frac):
    fresh, used = Angle.exact(frac), Angle.exact(frac)
    assert used.negated() is used.negated() and used.negated().negated() is used
    assert used.plus_pi() is used.plus_pi() and used.plus_pi().plus_pi() is used
    assert used.radians == fresh.radians == float(frac) * math.pi
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert pickle.dumps(used) == pickle.dumps(fresh)
    for twin in (copy.copy(used), copy.deepcopy(used), pickle.loads(pickle.dumps(used))):
        assert twin == used and repr(twin) == repr(used)
        assert twin.negated() == used.negated() and twin.plus_pi() == used.plus_pi()


def test_an_angle_pickled_without_memo_slots_loads(monkeypatch):
    # an Angle of the layout before the memos: two slots, pickled by state
    class Angle:
        __slots__ = ("_frac", "_rad")

    Angle.__module__, Angle.__qualname__ = angles.__name__, "Angle"
    old = Angle.__new__(Angle)
    old._frac, old._rad = Fraction(1, 4), None
    with monkeypatch.context() as patch:
        patch.setattr(angles, "Angle", Angle)
        data = pickle.dumps(old)
    loaded = pickle.loads(data)
    assert type(loaded) is angles.Angle and loaded == angles.Angle.exact(1, 4)
    assert loaded.negated() == angles.Angle.exact(7, 4)
    assert loaded.plus_pi() == angles.Angle.exact(5, 4)
    assert loaded.radians == math.pi / 4
