"""Immutable slot records: the base of every result type in the package.

A record stores its fields in __slots__, in constructor order, and each
record type writes its own __init__, which stores them with set_field
because assignment is refused.  Records of one type compare and hash as the
tuple of their fields, and one never equals a value of another type.  The
repr reads Name(field=value, ...).
"""

from __future__ import annotations

# object.__setattr__, which passes the refusal; as a module global a
# constructor looks it up faster
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since assignment is refused
        return self.__class__, self._values()
