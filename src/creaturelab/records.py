"""Bases of the package's plain record and value classes.

Every command pays for its imports at start-up, so these classes are
written out rather than generated: the standard library's class
generator pulls in `inspect` and compiles each class's methods when the
class is built.  A subclass names its fields in `__slots__`, in
constructor order, and writes its own `__init__`; repr and == read the
fields in that order.
"""


class Record:
    """A mutable record, compared field by field; unhashable."""

    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented


class Frozen(Record):
    """An immutable value: `__init__` sets each field once with
    `object.__setattr__`, and hash reads the fields == reads."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()
