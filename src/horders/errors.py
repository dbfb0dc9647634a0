"""Exception hierarchy, the shared diagnostics container and the
:func:`record` decorator every value class of the package is built with.

Arithmetic and algebraic preconditions raise subclasses of
:class:`HordersError`; session-file problems raise subclasses of
:class:`SessionError` so the CLI can map them to distinct exit codes.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _bind(cls, names: tuple, args: tuple, kwargs: dict) -> list:
    """The field values of ``cls(*args, **kwargs)``; TypeError as a
    function with the fields as parameters would raise it."""
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} positional arguments "
                        f"but {len(args)} were given")
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
        values[name] = value
    missing = [name for name in names if name not in values and name not in cls.__dict__]
    if missing:
        raise TypeError(f"{cls.__qualname__}() missing required arguments: "
                        f"{', '.join(map(repr, missing))}")
    return [values[name] if name in values else cls.__dict__[name] for name in names]


def record(cls):
    """Make ``cls`` an immutable value class, without generating source.

    The fields are the names annotated in the class body, in order, and a
    class attribute of the same name is the field's default.  ``__init__``
    takes the fields (all given positionally is the fast path) and then
    calls ``__post_init__`` if the class has one; ``__eq__`` holds only
    between instances of one class, and it and ``__hash__`` compare the
    tuple of fields; ``__repr__`` reads ``Name(field=value, ...)``;
    assignment and deletion raise AttributeError.  A method the class body
    defines itself (``__init__`` of a class that canonicalises its input)
    is kept, and a class with ``__slots__`` pickles through its fields.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    arity = len(names)
    getter = attrgetter(*names)
    fields = getter if arity > 1 else lambda self: (getter(self),)
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = _bind(cls, names, args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __setstate__(self, state):
        for name, value in zip(names, state):
            _set(self, name, value)

    methods = {
        "__init__": __init__,
        "__eq__": __eq__,
        "__hash__": lambda self: hash(fields(self)),
        "__repr__": lambda self: (
            f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, names, fields(self)))})"),
        "__setattr__": _frozen_setattr,
        "__delattr__": _frozen_delattr,
        "__match_args__": names,
    }
    if "__slots__" in cls.__dict__:
        methods.update(__getstate__=lambda self: fields(self), __setstate__=__setstate__)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


class HordersError(Exception):
    """Base class for every error raised by this package."""


# -- scalar / jet arithmetic -------------------------------------------------

class ScalarKindMismatch(HordersError):
    """Operands live over different scalar kinds."""


class IndeterminateValuation(HordersError):
    """The jet is zero up to its precision, so its valuation is unknown."""


class InsufficientPrecision(HordersError):
    """The requested comparison or coefficient lies beyond the known precision."""


class NotInvertible(HordersError):
    """A scalar, jet or matrix has no inverse in the ambient ring."""


# -- signatures and base change ----------------------------------------------

class NotDivisible(HordersError):
    """A signature part is not divisible by the residue degree."""


class NotPeriodic(HordersError):
    """The tuple is not periodic with the required period, up to rotation."""


class SizeLimit(HordersError):
    """A requested size exceeds a desk-scale bound: a base change, or its
    pattern verification, to length s*t*n above 2^16."""


# -- involutions ---------------------------------------------------------------

class NotEpsilonHermitian(HordersError):
    """The gauge fails tau(a) = epsilon * a."""


class NotStable(HordersError):
    """The twisted involution maps a generator outside the order."""


class UnsupportedGaugeShape(HordersError):
    """The gauge is not block-diagonal: it mixes the blocks of the order."""


class UnsupportedFormKind(HordersError):
    """Isotropy is only decided for epsilon = +1 forms."""


class SingularForm(HordersError):
    """The hermitian form is degenerate."""


# -- witnesses -----------------------------------------------------------------

class SizeMismatch(HordersError):
    """Matrix sizes or orders do not line up."""


class UnknownScenario(HordersError):
    """No bundled replay scenario has this name."""


# -- session files ---------------------------------------------------------------

class SessionError(HordersError):
    """A problem in a session file, annotated with a source position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class SessionSyntaxError(SessionError):
    pass


class UnknownIdentifier(SessionError):
    pass


class DuplicateIdentifier(SessionError):
    pass


class SessionTypeError(SessionError):
    """Declared objects do not fit together (sizes, kinds, references)."""


@record
class Diagnostics:
    """Boolean result with a machine-readable failure code and details."""

    ok: bool
    code: str | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "ok"
        return f"{self.code}: {self.detail}" if self.detail else str(self.code)


OK = Diagnostics(True)


def failure(code: str, detail: str = "") -> Diagnostics:
    return Diagnostics(False, code, detail)
