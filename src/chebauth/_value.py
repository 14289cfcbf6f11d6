"""Bases of the package's value types.

The value types are plain ``__slots__`` classes, not dataclasses: importing
``dataclasses`` (which pulls in ``inspect``) and generating the methods of each
class at import time cost every fresh CLI process about 14 ms, several times
the work of a command. A subclass names its fields once, as
``__slots__ = __match_args__ = (...)``, and takes them in that order in its
``__init__``, which sets each one (through ``_set`` on a frozen type);
equality, hashing, repr and pickling follow from that tuple.
"""

from operator import attrgetter

_set = object.__setattr__  # frozen types set their fields through this in __init__


class Record:
    """Mutable value, equal to an instance of the same class with equal fields.

    Defining ``__eq__`` without ``__hash__`` leaves it unhashable.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if "__match_args__" in vars(cls):
            # The fields read at C speed: a tuple of them, or the only one.
            cls._key = property(attrgetter(*cls.__match_args__))

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
