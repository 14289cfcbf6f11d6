"""Bases of the package's value types.

The value types are plain ``__slots__`` classes, not dataclasses: importing
``dataclasses`` (which pulls in ``inspect``) and generating the methods of each
class at import time cost every fresh CLI process about 14 ms, several times
the work of a command. A subclass names its fields once, as
``__slots__ = __match_args__ = (...)``, and equality, hashing, repr, pickling
and ``__init__`` follow from that tuple. Each class gets a ``_fill`` compiled
once, as ``collections.namedtuple`` compiles its ``__new__``: it takes every
field, in order, and stores each through its slot's ``__set__``, so Python
binds the arguments and raises the usual ``TypeError`` on a bad call. It is
the ``__init__`` of a class that writes none. ``FieldElement``, ``Timestamp``,
``Params``, ``ServerState``, ``SmartCard``, ``UserLoginContext``,
``Transcript``, ``Dictionary`` and ``BitString`` validate their input and
store it with one ``_fill``; ``OpCounts``, mutable, with defaults, keeps
plain attribute stores, which the interpreter specialises.
"""

from operator import attrgetter


def _compiled_filler(cls, fields):
    """``def _fill(self, a, b): set_a(self, a); set_b(self, b)``, set_a the bound ``__set__`` of slot a."""
    namespace = {f"set_{name}": vars(cls)[name].__set__ for name in fields} | {"__name__": cls.__module__}
    body = "".join(f"\n    set_{name}(self, {name})" for name in fields)
    exec(f"def _fill(self, {', '.join(fields)}):{body}", namespace)
    return namespace["_fill"]


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
            cls._fill = _compiled_filler(cls, fields)
            if "__init__" not in vars(cls):
                cls.__init__ = cls._fill
                cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"  # as TypeErrors name it

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
    """Immutable, hashable value whose fields are set once, by ``_fill``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
