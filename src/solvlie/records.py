"""Immutable value records.

A record lists its fields in ``__slots__`` and stores them once, with
``_set`` from its own ``__init__`` (which carries the signature and the
defaults).  The base gives equality and hash over the fields, a repr of
the form ``Name(field=value, ...)``, and refuses assignment.  Plain
classes rather than frozen dataclasses: those compile their generated
methods with ``exec`` at import, which every CLI call would pay for.
"""


class Record:
    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __reduce__(self):
        return type(self), self._values()
