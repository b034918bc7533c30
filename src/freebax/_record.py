"""Frozen value classes, built without ``dataclasses``.

``record`` gives a class the methods ``dataclass(frozen=True)`` would:
``__init__``, ``__repr__``, ``__eq__``, ``__hash__`` and a guard against
assignment, from the class's annotated fields.  It compiles them with one
``exec`` per class; ``dataclasses`` compiles each method separately and
imports ``inspect``, which made up most of the package's import time.
"""


def _frozen(verb: str, name: str):
    from dataclasses import FrozenInstanceError  # only when a guard trips

    return FrozenInstanceError(f"cannot {verb} field {name!r}")


def _setattr(self, name, value):
    raise _frozen("assign to", name)


def _delattr(self, name):
    raise _frozen("delete", name)


def record(cls):
    """Decorate a frozen value class.

    Each annotated field, in order, is a parameter of ``__init__``, with the
    class attribute of the same name, if any, as its default; ``__init__``
    ends by calling ``__post_init__`` where the class defines one.  Equality
    compares the class and then the tuple of fields, and ``__hash__`` hashes
    that tuple unless the class defines or inherits its own.
    """
    names = list(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    fields = "".join(f"self.{n}," for n in names)
    others = "".join(f"other.{n}," for n in names)
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    params = "".join(f", {n}=_d_{n}" if n in defaults else f", {n}" for n in names)
    body = "".join(f" _set(self, {n!r}, {n})\n" for n in names)
    if hasattr(cls, "__post_init__"):
        body += " self.__post_init__()\n"
    src = [f"def __repr__(self):\n return f'{{self.__class__.__qualname__}}({shown})'",
           f"def __init__(self{params}):\n{body or ' pass'}",
           "def __eq__(self, other):\n"
           " if other.__class__ is self.__class__:\n"
           f"  return ({fields}) == ({others})\n"
           " return NotImplemented"]
    if cls.__hash__ is object.__hash__:
        src.append(f"def __hash__(self):\n return hash(({fields}))")
    ns = {"__name__": cls.__module__, "_set": object.__setattr__,
          **{f"_d_{n}": v for n, v in defaults.items()}}
    exec("\n".join(src), ns)
    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        if name in ns:
            ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, ns[name])
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls
