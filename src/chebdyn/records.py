"""Frozen records: what the package uses of ``dataclass(frozen=True)``, built
from closures.

``dataclasses`` writes each method as source text and runs ``exec`` on it, and
importing it pulls in ``inspect``; for this package's records that was most of
the cost of importing the CLI. A record hashes exactly as the tuple of
its fields, so cache keys and set iteration order are those of a dataclass.
"""

from operator import attrgetter, ge, gt, le, lt

_setattr = object.__setattr__


def record(cls=None, *, order=False):
    """Make ``cls`` a frozen record over its annotated fields, in order.

    As ``dataclass(frozen=True, order=order)``: ``__init__`` takes the fields
    by position or keyword, a class attribute is the field's default, and
    ``__post_init__`` runs last if the class defines it. ``==``, ``hash``,
    ``repr`` and the order read the tuple of fields; assigning or deleting an
    attribute raises AttributeError. A method the class body defines is kept.
    """
    if cls is None:
        return lambda c: record(c, order=order)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    n = len(names)
    defaults = {f: cls.__dict__[f] for f in names if f in cls.__dict__}
    post = getattr(cls, "__post_init__", None)
    key = attrgetter(*names) if n > 1 else (lambda self, get=attrgetter(*names): (get(self),))

    def bind(args, kwargs):
        if len(args) > n:
            raise TypeError(f"{cls.__name__}() takes {n} positional arguments but {len(args)} were given")
        given = dict(zip(names, args))
        for f in kwargs:
            if f not in names or f in given:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {f!r}")
        given.update(kwargs)
        missing = [f for f in names if f not in given and f not in defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() missing required arguments: {', '.join(missing)}")
        return [given[f] if f in given else defaults[f] for f in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        # object.__setattr__, not self.__dict__, keeps the fields inline,
        # where attribute reads are fastest
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if post is not None:
            post(self)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = {
        "__init__": __init__,
        "__eq__": __eq__,
        "__hash__": lambda self: hash(key(self)),
        "__repr__": lambda self: f"{self.__class__.__qualname__}({', '.join(map('{}={!r}'.format, names, key(self)))})",
        "__setattr__": __setattr__,
        "__delattr__": __delattr__,
    }
    if order:
        for op in (lt, le, gt, ge):
            methods[f"__{op.__name__}__"] = _ordering(op, key)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def _ordering(op, key):
    return lambda self, other: op(key(self), key(other)) if other.__class__ is self.__class__ else NotImplemented
