"""Immutable value records, the base of the package's small data types.

A subclass names its fields in ``__slots__`` and passes their values to
``Record.__init__`` in that order.  Fields are then read-only, and two
records are equal (and hash alike) when their types and fields are.
Written by hand rather than generated, so importing the package loads
no class generator (the standard library's pulls in ``inspect``,
``ast`` and ``dis``).
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
