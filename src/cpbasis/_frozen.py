"""The base of the library's immutable value classes.

The value classes are plain classes with ``__slots__``, written out
rather than generated by `dataclasses`: importing that module loads
`inspect` and its dependencies, and each decorated class is compiled
from generated source; together that cost every command run some 16 ms
before any work started (CPython 3.11 on a 2-vCPU Xeon).

A subclass lists its fields in ``__slots__`` in constructor order and
sets each once in ``__init__`` through `setfield`.  `Frozen` gives it
``__eq__`` (equal only to an instance of the same class) and ``__hash__``
over the field tuple, as a frozen dataclass would, built once per class
from its fields.

A slot whose name starts with ``_`` is a cache, not a field: a value
derived from the fields.  Either ``__init__`` sets it, as it sets a
field, or it is filled on first use through the slot's descriptor
(``cls._name.__set__``) and set to None by every constructor.  It takes
no part in ``==``, hash, ``repr``, copy or pickle, so a cache changes
nothing a caller sees; a copy or an unpickled value is rebuilt through
``__init__``, so it starts with the one set and the other empty.  The
class's field names are kept in ``_fields``.
"""

from operator import attrgetter

setfield = object.__setattr__
"""Set a field from ``__init__``, past `Frozen`'s refusal to assign."""


class Frozen:
    """Refuses assignment and deletion; ``==``, hash, ``repr``, copy and pickle go by the fields."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = names = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        get = attrgetter(*names)
        # attrgetter of one name returns the bare value, not a 1-tuple
        fields = (lambda self: (get(self),)) if len(names) == 1 else get

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return fields(self) == fields(other)

        def __hash__(self):
            return hash(fields(self))

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # rebuild through __init__, which sets the fields and its own caches and empties the rest
        return self.__class__, tuple([getattr(self, name) for name in self._fields])
