"""Bases of the package's value types.

The value types are plain ``__slots__`` classes, not dataclasses: importing
``dataclasses`` (which pulls in ``inspect``) and generating the methods of each
class at import time cost every fresh CLI process about 14 ms, several times
the work of a command. A subclass names its fields once, as
``__slots__ = __match_args__ = (...)``, and equality, hashing, repr, pickling
and ``__init__`` follow from that tuple. The ``__init__`` is compiled once per
class, as ``collections.namedtuple`` compiles its ``__new__``: it takes every
field, in order, and sets each through ``_set``, so Python binds the arguments
and raises the usual ``TypeError`` on a bad call. Only the classes that
validate their input or have defaults write their own, taking the fields in
the same order: ``FieldElement``, ``Timestamp``, ``OpCounts``, ``SmartCard``,
``Transcript`` and ``Dictionary``, and ``BitString``, whose ``__init__`` calls
the ``__post_init__`` hook that the benchmark's tracer replaces.
"""

from operator import attrgetter

_set = object.__setattr__  # frozen types set their fields through this in __init__


def _compiled_init(cls, fields):
    """``def __init__(self, a, b): _set(self, "a", a); _set(self, "b", b)``."""
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
    namespace = {"_set": _set, "__name__": cls.__module__}
    exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
    namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"  # as TypeErrors name it
    return namespace["__init__"]


class Record:
    """Mutable value, equal to an instance of the same class with equal fields.

    Defining ``__eq__`` without ``__hash__`` leaves it unhashable.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        fields = vars(cls).get("__match_args__")
        if fields is not None:
            # The fields read at C speed: a tuple of them, or the only one.
            cls._key = property(attrgetter(*fields))
            if "__init__" not in vars(cls):
                cls.__init__ = _compiled_init(cls, fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Rebuilt through __init__: a frozen __setattr__ refuses the default
        # slot-by-slot restore.
        return self.__class__, tuple([getattr(self, name) for name in self.__match_args__])


class Frozen(Record):
    """Immutable, hashable value whose fields are set once, in ``__init__``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
