"""Frozen record classes, made without generated code.

``record`` stands in for ``dataclasses.dataclass(frozen=True)`` on the
library's record types.  A dataclass writes the source of its methods and
compiles it as its module is imported, which took a fifth of a fresh import
of the package; ``record`` makes the same methods as closures over the field
names and compiles nothing.  It keeps the dataclass behaviour that the
library relies on:

- The fields are the annotated names of the class and of its bases, in MRO
  order, the bases' first.  A class attribute of a field's name is that
  field's default.
- ``__init__`` takes the fields by position or by keyword, sets each with
  ``object.__setattr__``, and then calls ``self.__post_init__()`` when the
  class has one.  That method is looked up at each call, so one patched onto
  the class is the one called.  ``init=False`` keeps the class's own
  ``__init__``.
- The repr is ``Name(field=value, ...)``, and ``__match_args__`` holds the
  field names.
- With ``eq`` (the default) a record equals only a record of its own class
  whose field tuple is equal, and it hashes as that tuple.  With ``eq=False``
  it compares and hashes by identity.
- Setting or deleting a field, or any attribute of an instance of the record
  class itself, raises ``dataclasses.FrozenInstanceError``.

A record is not a dataclass: ``dataclasses.fields``, ``asdict`` and
``replace`` do not take it.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def _frozen(message: str) -> Exception:
    # Imported here: dataclasses adds about 1 ms to every command's import.
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


def _init(cls: type, names: tuple[str, ...]):
    """The __init__ of a record with these fields, one to six of them.

    It is the template below for that many fields, with its parameters
    renamed to the fields and given the defaults of the trailing fields that
    have one.  So the interpreter binds every call, by position or by
    keyword, as it binds the dataclass's generated __init__, and the call
    the library makes, all by position, packs nothing: each field is stored
    straight from its own parameter.
    """
    post_init = hasattr(cls, "__post_init__")
    if not 1 <= len(names) <= 6:
        raise TypeError(f"a record takes 1 to 6 fields, not {len(names)}")
    f0, f1, f2, f3, f4, f5 = names + (None,) * (6 - len(names))
    if len(names) == 1:
        def __init__(self, a):
            _set(self, f0, a)
            if post_init:
                self.__post_init__()
    elif len(names) == 2:
        def __init__(self, a, b):
            _set(self, f0, a)
            _set(self, f1, b)
            if post_init:
                self.__post_init__()
    elif len(names) == 3:
        def __init__(self, a, b, c):
            _set(self, f0, a)
            _set(self, f1, b)
            _set(self, f2, c)
            if post_init:
                self.__post_init__()
    elif len(names) == 4:
        def __init__(self, a, b, c, d):
            _set(self, f0, a)
            _set(self, f1, b)
            _set(self, f2, c)
            _set(self, f3, d)
            if post_init:
                self.__post_init__()
    elif len(names) == 5:
        def __init__(self, a, b, c, d, e):
            _set(self, f0, a)
            _set(self, f1, b)
            _set(self, f2, c)
            _set(self, f3, d)
            _set(self, f4, e)
            if post_init:
                self.__post_init__()
    else:
        def __init__(self, a, b, c, d, e, f):
            _set(self, f0, a)
            _set(self, f1, b)
            _set(self, f2, c)
            _set(self, f3, d)
            _set(self, f4, e)
            _set(self, f5, f)
            if post_init:
                self.__post_init__()
    required = len(names)
    while required and hasattr(cls, names[required - 1]):
        required -= 1
    if any(hasattr(cls, name) for name in names[:required]):
        raise TypeError("record fields with a default must come last")
    __init__.__code__ = __init__.__code__.replace(co_varnames=("self", *names))
    __init__.__defaults__ = tuple(getattr(cls, name) for name in names[required:]) or None
    return __init__


def record(cls: type | None = None, /, *, init: bool = True, eq: bool = True):
    """Make cls a frozen record, as the module docstring describes; used as
    ``@record`` or ``@record(init=False)``."""
    if cls is None:
        return lambda cls: record(cls, init=init, eq=eq)
    names = tuple(dict.fromkeys(
        name for base in reversed(cls.__mro__) for name in base.__dict__.get("__annotations__", ())))
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(map('{}={!r}'.format, names, values(self)))})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise _frozen(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise _frozen(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    methods = {"__repr__": __repr__, "__setattr__": __setattr__, "__delattr__": __delattr__}
    if init:
        methods["__init__"] = _init(cls, names)
    if eq:
        methods.update(__eq__=__eq__, __hash__=__hash__)
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__match_args__ = names
    return cls
