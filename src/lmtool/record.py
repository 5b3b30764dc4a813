"""Immutable records: the value types the engine passes around.

A record lists its fields in ``__slots__`` and sets each one once, in its
own ``__init__``, through ``_set``; assigning or deleting a field afterwards
raises AttributeError.  Records compare, hash and print by their fields in
slot order; a class that compares by less than all its fields writes its
own ``__eq__`` and ``__hash__``.  Plain classes, not ``dataclasses``: that
module imports ``inspect`` and generates every method at import time, which
a command line run pays on every start.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _set(self, **fields: object) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple[None, dict]) -> None:
        self._set(**state[1])  # pickle and copy pass (None, {slot: value})

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        # a slot named with a leading underscore is a cache, not a field
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__name__}({', '.join(shown)})"
