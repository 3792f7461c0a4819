"""The base of onewaylab's immutable value classes."""

from operator import attrgetter


class Value:
    """An immutable value whose fields are its ``__slots__``, two or more: it
    equals a value of its class with equal fields, hashes as the tuple of its
    fields, prints like a dataclass, pickles through its constructor and
    refuses assignment, so ``__init__`` sets fields through the slots' ``_setters``.

    A ``frozenset`` field prints with its elements in label order
    (``signals._fixed_key``) rather than hash order, so no value's repr
    depends on ``PYTHONHASHSEED``."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def _set_fields(self, *values) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        from .signals import _in_label_order  # signals imports this module

        def text(v):
            return f"frozenset({_in_label_order(v) if v else ''})" if type(v) is frozenset else repr(v)

        fields = zip(self.__slots__, self._fields(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={text(v)}' for n, v in fields)})"

    def __reduce__(self):
        return type(self), self._fields(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
