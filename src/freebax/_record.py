"""Frozen value classes, built without ``dataclasses``.

``record`` gives a class the methods ``dataclass(frozen=True)`` would:
``__init__``, ``__repr__``, ``__eq__``, ``__hash__`` and a guard against
assignment, from the class's annotated fields.  Only ``__init__`` is
compiled, with one ``exec`` per class, so that it keeps its named,
defaulted signature and the speed of plain code: value classes such as
``Element`` are built thousands of times a pass, and a generic
``*args`` ``__init__`` takes about 1.7 times as long.  The other methods
are closures over the field names, which read the fields with one
``operator.attrgetter``; compiling them as well took about a third of the
package's import time.  ``dataclasses`` would compile each method
separately and import ``inspect``.
"""
from operator import attrgetter


def _frozen(verb: str, name: str):
    from dataclasses import FrozenInstanceError  # only when a guard trips

    return FrozenInstanceError(f"cannot {verb} field {name!r}")


def _setattr(self, name, value):
    raise _frozen("assign to", name)


def _delattr(self, name):
    raise _frozen("delete", name)


def _getter(names: tuple):
    """The function from a record to the tuple of its fields; a 1-tuple
    or () when there is one field or none, where ``attrgetter`` would not
    return a tuple."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        one = attrgetter(names[0])
        return lambda self: (one(self),)
    return lambda self: ()


def record(cls):
    """Decorate a frozen value class.

    Each annotated field, in order, is a parameter of ``__init__``, with the
    class attribute of the same name, if any, as its default; ``__init__``
    ends by calling ``__post_init__`` where the class defines one.  Equality
    holds for the record itself and otherwise compares the class and then
    the tuple of fields, and ``__hash__`` hashes that tuple unless the class
    defines or inherits its own.  ``__init__`` is compiled from generated
    source; the other methods are closures.
    """
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    params = "".join(f", {n}=_d_{n}" if n in defaults else f", {n}" for n in names)
    body = "".join(f" _set(self, {n!r}, {n})\n" for n in names)
    if hasattr(cls, "__post_init__"):
        body += " self.__post_init__()\n"
    ns = {"__name__": cls.__module__, "_set": object.__setattr__,
          **{f"_d_{n}": v for n, v in defaults.items()}}
    exec(f"def __init__(self{params}):\n{body or ' pass'}", ns)
    fields = _getter(names)
    shown = "%s(" + ", ".join(f"{n}=%r" for n in names) + ")"

    def __repr__(self):
        return shown % (self.__class__.__qualname__, *fields(self))

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    methods = [ns["__init__"], __repr__, __eq__]
    if cls.__hash__ is object.__hash__:
        methods.append(__hash__)
    for f in methods:
        f.__qualname__ = f"{cls.__qualname__}.{f.__name__}"
        f.__module__ = cls.__module__
        setattr(cls, f.__name__, f)
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls
