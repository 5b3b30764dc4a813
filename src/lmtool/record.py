"""Immutable records: the value types the engine passes around.

A record lists its fields in ``__slots__`` and sets each one once;
assigning or deleting a field afterwards raises AttributeError.  A record
that only stores values has no ``__init__`` of its own: ``Record``'s takes
the fields by position or name, and ``_defaults`` holds the optional ones.
One that validates its input sets its fields through ``_set``, which
stores a dict as a read-only view of its own copy.  Records compare, hash
and print by their fields in slot order; a class that compares by less than
all its fields writes its own ``__eq__`` and ``__hash__``.  Plain classes,
not ``dataclasses``: that module imports ``inspect`` and generates every
method at import time, which a command line run pays on every start.
"""

from __future__ import annotations

from types import MappingProxyType


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *values: object, **fields: object) -> None:
        names = self.__slots__
        # unknown or repeated: a keyword naming no later slot, a value past the last
        bad = sorted(fields.keys() - names[len(values):]) + list(values[len(names):])
        fields.update(zip(names, values))
        missing = [name for name in names if name not in fields and name not in self._defaults]
        if bad or missing:
            raise TypeError(f"{type(self).__name__}: unknown or repeated {bad}, missing {missing}")
        self._set(**{**self._defaults, **fields})

    def _set(self, **fields: object) -> None:
        for name, value in fields.items():
            if isinstance(value, dict):
                value = MappingProxyType(dict(value))
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple[None, dict]:
        # pickle cannot take a read-only view: hand over its dict
        return None, {name: dict(value) if isinstance(value, MappingProxyType) else value
                      for name, value in zip(self.__slots__, self._values())}

    def __setstate__(self, state: tuple[None, dict]) -> None:
        self._set(**state[1])

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
