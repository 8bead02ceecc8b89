"""Value records with no generated code.

A `Record` subclass writes its own ``__init__`` and names its attributes in
``_fields``, in declaration order; it gets equality between instances of
the same class and a repr listing those attributes.  A `FrozenRecord` also
refuses assignment and deletion once built (its ``__init__`` sets each
attribute with ``object.__setattr__`` and takes the fields in order, which
`copy` and `pickle` rely on) and hashes by value.  Small immutable
results with no checks are `typing.NamedTuple`s instead.

The library's classes used to be generated by the standard library's class
decorator, whose import loads `inspect`, `ast`, `dis` and `tokenize`, and
which execs source for every class: about a fifth of a `metricat` CLI run.
"""
from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            # one C call reads every field: __eq__ on a category runs in the
            # transformation checks of [X, Y]
            cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):
        # copy and pickle rebuild through __init__, past the frozen __setattr__
        return self.__class__, tuple([getattr(self, name) for name in self._fields])
