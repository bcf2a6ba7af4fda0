"""Base classes of the package's record types.

A record is a slotted class with a hand-written ``__init__``.  It names its
fields in ``_fields``, in constructor order; equality, hashing, repr and
pickling read them.  A field left out of ``_fields`` (a value derived in
``__init__``) is neither compared nor shown.
"""

from __future__ import annotations

# a frozen record's __init__ sets its fields through this, past the guard
set_field = object.__setattr__


class Record:
    """A mutable record: equal to a record of its own class with equal
    fields, unhashable, with a ``Name(field=value, ...)`` repr."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        for f in self._fields:
            if getattr(self, f) != getattr(other, f):
                return False
        return True

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class Frozen(Record):
    """A record whose fields are set once, in ``__init__``: assigning or
    deleting an attribute raises AttributeError, and it hashes its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
