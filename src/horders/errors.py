"""Exception hierarchy and the shared diagnostics container.

Arithmetic and algebraic preconditions raise subclasses of
:class:`HordersError`; session-file problems raise subclasses of
:class:`SessionError` so the CLI can map them to distinct exit codes.
"""

from __future__ import annotations

from dataclasses import dataclass


class HordersError(Exception):
    """Base class for every error raised by this package."""


# -- scalar / jet arithmetic -------------------------------------------------

class ScalarKindMismatch(HordersError):
    """Operands live over different scalar kinds."""


class IndeterminateValuation(HordersError):
    """The jet is zero up to its precision, so its valuation is unknown."""


class NegativeValuation(HordersError):
    """A residue was requested for a jet with a pole."""


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
    """The requested pattern verification exceeds the desk-scale bound 64."""


# -- involutions ---------------------------------------------------------------

class NotEpsilonHermitian(HordersError):
    """The gauge fails tau(a) = epsilon * a."""


class NotStable(HordersError):
    """The twisted involution maps a generator outside the order."""


class UnsupportedGaugeShape(HordersError):
    """The gauge is not block-diagonal of the form t^m times a unit block."""


class UnsupportedFormKind(HordersError):
    """Isotropy is only decided for epsilon = +1 forms."""


class SingularForm(HordersError):
    """The hermitian form is degenerate."""


# -- witnesses -----------------------------------------------------------------

class SizeMismatch(HordersError):
    """Matrix sizes or orders do not line up."""


class NotUnit(HordersError):
    """The scaling factor is not a unit of the coefficient ring of the mode."""


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


@dataclass(frozen=True)
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
