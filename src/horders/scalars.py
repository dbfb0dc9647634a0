"""Exact scalar tower and truncated Laurent jets.

Scalars live over one of three coefficient models: the rationals, an
imaginary quadratic extension, or the (-1,-1)-quaternions over the
rationals.  All three carry a conjugation whose norm form is positive
definite, so the sign of a conjugation-fixed element is well defined and
definiteness arguments transfer to the modelled real, complex and
quaternionic coefficients.  A kind may additionally be extended by a
central, conjugation-fixed square root (quadratic etale base change of
the coefficient ring); the extended algebra can contain zero divisors,
so inversion there may legitimately fail.

A :class:`LaurentJet` is a truncated Laurent series over a single scalar
kind: a dense coefficient window starting at ``lowest_exp`` together
with the precision modulo ``t^precision`` to which the value is known.
``precision=None`` marks an exact Laurent polynomial.  A jet that is
zero up to its precision has indeterminate valuation and is flagged,
never silently treated as zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Sequence

from .errors import (
    IndeterminateValuation,
    InsufficientPrecision,
    NegativeValuation,
    NotInvertible,
    ScalarKindMismatch,
)

Q = Fraction

#: Working precision used when inverting an exact, non-monomial jet.
DEFAULT_PRECISION = 16


def set_default_precision(n: int) -> None:
    """Set the working precision for operations that must truncate."""
    if n < 2:
        raise ValueError("default precision must be at least 2")
    global DEFAULT_PRECISION
    DEFAULT_PRECISION = int(n)


def default_precision() -> int:
    return DEFAULT_PRECISION


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


_CORE_DIM = {"base": 1, "quad": 2, "quat": 4}


@dataclass(frozen=True)
class ScalarKind:
    """Which coefficient algebra scalars live in.

    ``core`` is ``"base"``, ``"quad"`` or ``"quat"``; quadratic kinds
    carry the negative square-free discriminant ``d``.  ``ext`` adjoins
    a central conjugation-fixed square root of ``ext`` to the core.
    """

    core: str
    d: int | None = None
    ext: int | None = None

    def __post_init__(self):
        if self.core not in _CORE_DIM:
            raise ValueError(f"unknown scalar core {self.core!r}")
        if self.core == "quad":
            if self.d is None or self.d >= 0 or not _is_squarefree(self.d):
                raise ValueError("quadratic kind needs a negative square-free d")
        elif self.d is not None:
            raise ValueError("only quadratic kinds carry d")
        if self.ext is not None:
            if self.ext in (0, 1) or not _is_squarefree(self.ext):
                raise ValueError("extension discriminant must be square-free and not a square")

    @property
    def core_dim(self) -> int:
        return _CORE_DIM[self.core]

    @property
    def dim(self) -> int:
        return self.core_dim * (2 if self.ext is not None else 1)

    def extended(self, d: int) -> "ScalarKind":
        if self.ext is not None:
            raise ValueError("kind is already extended")
        return ScalarKind(self.core, self.d, d)

    def unextended(self) -> "ScalarKind":
        return ScalarKind(self.core, self.d)

    def __str__(self) -> str:
        name = {"base": "base", "quad": f"quadratic({self.d})", "quat": "quaternion"}[self.core]
        if self.ext is not None:
            name += f"+sqrt({self.ext})"
        return name


BASE = ScalarKind("base")
QUATERNION = ScalarKind("quat")


def quadratic(d: int) -> ScalarKind:
    return ScalarKind("quad", d)


def _core_mul(core: str, d: int | None, a: tuple, b: tuple) -> tuple:
    if core == "base":
        return (a[0] * b[0],)
    if core == "quad":
        return (a[0] * b[0] + d * a[1] * b[1], a[0] * b[1] + a[1] * b[0])
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 + y1 * w2 + z1 * x2 - x1 * z2,
        w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2,
    )


def _core_conj(core: str, a: tuple) -> tuple:
    if core == "base":
        return a
    return (a[0],) + tuple(-c for c in a[1:])


@dataclass(frozen=True)
class Scalar:
    """An exact element of a scalar kind, stored over its rational basis."""

    kind: ScalarKind
    parts: tuple[Q, ...]

    @staticmethod
    def of(kind: ScalarKind, *parts) -> "Scalar":
        qs = tuple(Q(p) for p in parts)
        if len(qs) != kind.dim:
            qs = qs + (Q(0),) * (kind.dim - len(qs))
        return Scalar(kind, qs)

    @staticmethod
    def rational(kind: ScalarKind, value) -> "Scalar":
        return Scalar.of(kind, Q(value))

    @staticmethod
    def zero(kind: ScalarKind) -> "Scalar":
        return Scalar.of(kind)

    @staticmethod
    def one(kind: ScalarKind) -> "Scalar":
        return Scalar.of(kind, 1)

    @staticmethod
    def basis(kind: ScalarKind, index: int) -> "Scalar":
        parts = [Q(0)] * kind.dim
        parts[index] = Q(1)
        return Scalar(kind, tuple(parts))

    @staticmethod
    def sqrt_gen(kind: ScalarKind) -> "Scalar":
        """The quadratic generator sqrt(d) of a quadratic core."""
        if kind.core != "quad":
            raise ScalarKindMismatch(f"{kind} has no quadratic generator")
        return Scalar.basis(kind, 1)

    @staticmethod
    def ext_gen(kind: ScalarKind) -> "Scalar":
        """The central adjoined square root of an extended kind."""
        if kind.ext is None:
            raise ScalarKindMismatch(f"{kind} is not extended")
        return Scalar.basis(kind, kind.core_dim)

    def _check(self, other: "Scalar") -> None:
        if self.kind != other.kind:
            raise ScalarKindMismatch(f"{self.kind} vs {other.kind}")

    def is_zero(self) -> bool:
        return all(p == 0 for p in self.parts)

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.kind, tuple(a + b for a, b in zip(self.parts, other.parts)))

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.kind, tuple(a - b for a, b in zip(self.parts, other.parts)))

    def __neg__(self) -> "Scalar":
        return Scalar(self.kind, tuple(-a for a in self.parts))

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        k = self.kind
        m = k.core_dim
        if k.ext is None:
            return Scalar(k, _core_mul(k.core, k.d, self.parts, other.parts))
        alo, ahi = self.parts[:m], self.parts[m:]
        blo, bhi = other.parts[:m], other.parts[m:]
        lo1 = _core_mul(k.core, k.d, alo, blo)
        lo2 = _core_mul(k.core, k.d, ahi, bhi)
        hi1 = _core_mul(k.core, k.d, alo, bhi)
        hi2 = _core_mul(k.core, k.d, ahi, blo)
        e = k.ext
        lo = tuple(a + e * b for a, b in zip(lo1, lo2))
        hi = tuple(a + b for a, b in zip(hi1, hi2))
        return Scalar(k, lo + hi)

    def times(self, q) -> "Scalar":
        """Multiply by a central rational."""
        q = Q(q)
        return Scalar(self.kind, tuple(q * a for a in self.parts))

    def conj(self) -> "Scalar":
        k = self.kind
        m = k.core_dim
        if k.ext is None:
            return Scalar(k, _core_conj(k.core, self.parts))
        return Scalar(k, _core_conj(k.core, self.parts[:m]) + _core_conj(k.core, self.parts[m:]))

    def norm(self) -> Q:
        """x * conj(x) as a rational; positive definite on unextended kinds."""
        k = self.kind
        if k.ext is not None:
            raise ScalarKindMismatch("norm is only rational-valued on unextended kinds")
        if k.core == "base":
            return self.parts[0] ** 2
        if k.core == "quad":
            return self.parts[0] ** 2 - k.d * self.parts[1] ** 2
        return sum(p * p for p in self.parts)

    def inverse(self) -> "Scalar":
        k = self.kind
        if k.ext is None:
            n = self.norm()
            if n == 0:
                raise NotInvertible("zero scalar")
            return self.conj().times(Q(1) / n)
        # The extended algebra can have zero divisors; invert through the
        # left-regular representation over the rational basis.
        dim = k.dim
        cols = []
        for j in range(dim):
            cols.append((self * Scalar.basis(k, j)).parts)
        mat = [[cols[j][i] for j in range(dim)] for i in range(dim)]
        rhs = [Q(1)] + [Q(0)] * (dim - 1)
        sol = _solve_rational(mat, rhs)
        if sol is None:
            raise NotInvertible(f"scalar {self} is a zero divisor or zero")
        return Scalar(k, tuple(sol))

    def is_rational(self) -> bool:
        return all(p == 0 for p in self.parts[1:])

    def rational_value(self) -> Q:
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not rational")
        return self.parts[0]

    def extended(self, d: int) -> "Scalar":
        k = self.kind.extended(d)
        return Scalar(k, self.parts + (Q(0),) * self.kind.core_dim)

    def __str__(self) -> str:
        k = self.kind
        m = k.core_dim
        if k.ext is None:
            return _core_str(k, self.parts)
        lo, hi = self.parts[:m], self.parts[m:]
        root = f"sqrt({k.ext})"
        if all(p == 0 for p in hi):
            return _core_str(k, lo)
        hi_str = _core_str(k, hi)
        hi_part = root if hi_str == "1" else f"({hi_str})*{root}"
        if all(p == 0 for p in lo):
            return hi_part
        return f"{_core_str(k, lo)} + {hi_part}"


def _core_str(kind: ScalarKind, parts: tuple) -> str:
    units = {"base": [""], "quad": ["", f"sqrt({kind.d})"], "quat": ["", "qi", "qj", "qk"]}[kind.core]
    pieces = []
    for coeff, unit in zip(parts, units):
        if coeff == 0:
            continue
        if unit == "":
            term = str(coeff)
        elif coeff == 1:
            term = unit
        elif coeff == -1:
            term = f"-{unit}"
        else:
            term = f"{coeff}*{unit}"
        pieces.append(term)
    if not pieces:
        return "0"
    out = pieces[0]
    for term in pieces[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def _solve_rational(mat: list[list[Q]], rhs: list[Q]) -> list[Q] | None:
    """Gaussian elimination over the rationals; None if singular."""
    n = len(mat)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = Q(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# Laurent jets


@dataclass(frozen=True, init=False)
class LaurentJet:
    """Truncated Laurent series over one scalar kind.

    The coefficient window is canonical: leading and trailing zero
    coefficients are stripped and coefficients at exponents at or beyond
    the precision are dropped.  An empty window with finite precision is
    a jet that is zero up to that precision; an empty window with
    ``precision=None`` is the exact zero polynomial.
    """

    kind: ScalarKind
    lowest_exp: int
    coeffs: tuple[Scalar, ...]
    precision: int | None

    def __init__(self, kind: ScalarKind, lowest_exp: int, coeffs: Sequence[Scalar],
                 precision: int | None = None):
        coeffs = list(coeffs)
        for c in coeffs:
            if c.kind != kind:
                raise ScalarKindMismatch(f"coefficient kind {c.kind} in a {kind} jet")
        if precision is not None:
            keep = precision - lowest_exp
            coeffs = coeffs[:max(keep, 0)]
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo].is_zero():
            lo += 1
        while lo < hi and coeffs[hi - 1].is_zero():
            hi -= 1
        window = tuple(coeffs[lo:hi])
        start = lowest_exp + lo if window else (precision if precision is not None else 0)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "lowest_exp", start)
        object.__setattr__(self, "coeffs", window)
        object.__setattr__(self, "precision", precision)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(kind: ScalarKind, precision: int | None = None) -> "LaurentJet":
        return LaurentJet(kind, 0, (), precision)

    @staticmethod
    def constant(kind: ScalarKind, value, precision: int | None = None) -> "LaurentJet":
        s = value if isinstance(value, Scalar) else Scalar.rational(kind, value)
        return LaurentJet(kind, 0, (s,), precision)

    @staticmethod
    def one(kind: ScalarKind) -> "LaurentJet":
        return LaurentJet.constant(kind, 1)

    @staticmethod
    def t_power(kind: ScalarKind, exp: int, coeff=1, precision: int | None = None) -> "LaurentJet":
        s = coeff if isinstance(coeff, Scalar) else Scalar.rational(kind, coeff)
        return LaurentJet(kind, exp, (s,), precision)

    @staticmethod
    def from_coeffs(kind: ScalarKind, lowest_exp: int, values, precision: int | None = None) -> "LaurentJet":
        coeffs = [v if isinstance(v, Scalar) else Scalar.rational(kind, v) for v in values]
        return LaurentJet(kind, lowest_exp, coeffs, precision)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        """Zero as far as the jet can tell (exactly zero if exact)."""
        return not self.coeffs

    @property
    def is_exact(self) -> bool:
        return self.precision is None

    def valuation(self) -> int:
        if not self.coeffs:
            raise IndeterminateValuation(
                "jet is zero up to its precision; valuation is indeterminate")
        return self.lowest_exp

    def valuation_floor(self) -> int | None:
        """A proven lower bound for the valuation; None means +infinity."""
        if self.coeffs:
            return self.lowest_exp
        return self.precision

    def degree(self) -> int:
        if not self.coeffs:
            raise IndeterminateValuation("zero jet has no degree")
        return self.lowest_exp + len(self.coeffs) - 1

    def coeff(self, exp: int) -> Scalar:
        if self.precision is not None and exp >= self.precision:
            raise InsufficientPrecision(
                f"coefficient of t^{exp} is beyond precision {self.precision}")
        if self.coeffs and self.lowest_exp <= exp <= self.degree():
            return self.coeffs[exp - self.lowest_exp]
        return Scalar.zero(self.kind)

    def residue(self) -> Scalar:
        """Coefficient at exponent 0 of a pole-free jet."""
        if not self.coeffs:
            raise IndeterminateValuation(
                "jet is zero up to its precision; residue class undetermined")
        if self.lowest_exp < 0:
            raise NegativeValuation(f"valuation {self.lowest_exp} < 0")
        return self.coeff(0)

    def _check(self, other: "LaurentJet") -> None:
        if self.kind != other.kind:
            raise ScalarKindMismatch(f"{self.kind} vs {other.kind}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "LaurentJet") -> "LaurentJet":
        self._check(other)
        prec = _min_prec(self.precision, other.precision)
        if not self.coeffs:
            return LaurentJet(self.kind, other.lowest_exp, other.coeffs, prec)
        if not other.coeffs:
            return LaurentJet(self.kind, self.lowest_exp, self.coeffs, prec)
        lo = min(self.lowest_exp, other.lowest_exp)
        hi = max(self.degree(), other.degree()) + 1
        window = [self.coeff_raw(e) + other.coeff_raw(e) for e in range(lo, hi)]
        return LaurentJet(self.kind, lo, window, prec)

    def coeff_raw(self, exp: int) -> Scalar:
        # Window lookup without precision checks; internal use.
        if self.coeffs and self.lowest_exp <= exp <= self.degree():
            return self.coeffs[exp - self.lowest_exp]
        return Scalar.zero(self.kind)

    def __neg__(self) -> "LaurentJet":
        return LaurentJet(self.kind, self.lowest_exp, tuple(-c for c in self.coeffs), self.precision)

    def __sub__(self, other: "LaurentJet") -> "LaurentJet":
        return self + (-other)

    def __mul__(self, other: "LaurentJet") -> "LaurentJet":
        self._check(other)
        prec = _product_precision(self, other)
        if not self.coeffs or not other.coeffs:
            return LaurentJet.zero(self.kind, prec)
        lo = self.lowest_exp + other.lowest_exp
        out = [Scalar.zero(self.kind) for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return LaurentJet(self.kind, lo, out, prec)

    def lscale(self, s: Scalar) -> "LaurentJet":
        if s.kind != self.kind:
            raise ScalarKindMismatch(f"{s.kind} vs {self.kind}")
        return LaurentJet(self.kind, self.lowest_exp, tuple(s * c for c in self.coeffs), self.precision)

    def rscale(self, s: Scalar) -> "LaurentJet":
        if s.kind != self.kind:
            raise ScalarKindMismatch(f"{s.kind} vs {self.kind}")
        return LaurentJet(self.kind, self.lowest_exp, tuple(c * s for c in self.coeffs), self.precision)

    def shift(self, k: int) -> "LaurentJet":
        """Multiply by t^k."""
        prec = None if self.precision is None else self.precision + k
        return LaurentJet(self.kind, self.lowest_exp + k, self.coeffs, prec)

    def conj(self) -> "LaurentJet":
        return LaurentJet(self.kind, self.lowest_exp, tuple(c.conj() for c in self.coeffs), self.precision)

    def inverse(self, precision: int | None = None) -> "LaurentJet":
        """Invert through the valuation and a geometric series.

        Exact monomials with invertible coefficient invert exactly.
        Otherwise the result precision is ``P - 2v`` where ``v`` is the
        valuation and ``P`` the input precision (exact inputs use the
        default working precision above their valuation).
        """
        if not self.coeffs:
            raise IndeterminateValuation("cannot invert a jet that is zero to precision")
        v = self.lowest_exp
        lead = self.coeffs[0]
        lead_inv = lead.inverse()  # NotInvertible propagates
        if len(self.coeffs) == 1 and self.precision is None and precision is None:
            return LaurentJet(self.kind, -v, (lead_inv,), None)
        if precision is not None:
            target = precision
        elif self.precision is not None:
            target = self.precision - 2 * v
        else:
            target = DEFAULT_PRECISION - v
        unit_prec = target + v  # precision of the valuation-zero unit part
        if unit_prec <= 0:
            raise InsufficientPrecision(
                f"inverse of a valuation-{v} jet known modulo t^{self.precision} "
                "would carry no coefficients")
        unit = self.shift(-v)
        unit = LaurentJet(self.kind, unit.lowest_exp, unit.coeffs, unit_prec)
        z = unit.lscale(lead_inv) - LaurentJet.one(self.kind)  # valuation >= 1
        acc = LaurentJet.one(self.kind)
        term = LaurentJet.one(self.kind)
        for _ in range(unit_prec - 1):
            term = -(term * z)
            if term.is_zero():
                break
            acc = acc + term
        inv_unit = (acc.rscale(lead_inv))
        inv_unit = LaurentJet(self.kind, inv_unit.lowest_exp, inv_unit.coeffs, unit_prec)
        return inv_unit.shift(-v)

    def __pow__(self, k: int) -> "LaurentJet":
        if k < 0:
            return self.inverse() ** (-k)
        out = LaurentJet.one(self.kind)
        for _ in range(k):
            out = out * self
        return out

    # -- comparison -----------------------------------------------------------

    def agrees(self, other: "LaurentJet") -> bool:
        """Equality up to the smaller precision (floor of one coefficient)."""
        self._check(other)
        prec = _min_prec(self.precision, other.precision)
        if prec is None:
            return self.lowest_exp == other.lowest_exp and self.coeffs == other.coeffs
        if prec < 1:
            raise InsufficientPrecision(
                f"cannot compare jets below the precision floor (precision {prec})")
        diff = self - other
        return not diff.coeffs

    def extended(self, d: int) -> "LaurentJet":
        kind = self.kind.extended(d)
        return LaurentJet(kind, self.lowest_exp, tuple(c.extended(d) for c in self.coeffs), self.precision)

    def __str__(self) -> str:
        if not self.coeffs:
            body = "0"
        else:
            pieces = []
            for off, c in enumerate(self.coeffs):
                if c.is_zero():
                    continue
                e = self.lowest_exp + off
                cs = str(c)
                composite = ("+" in cs) or (" " in cs) or ("*" in cs) or (cs.startswith("-") and e != 0)
                if e == 0:
                    term = f"({cs})" if ("+" in cs or " " in cs) else cs
                else:
                    tpow = "t" if e == 1 else f"t^{e}"
                    if cs == "1":
                        term = tpow
                    elif cs == "-1":
                        term = f"-{tpow}"
                    else:
                        term = f"({cs})*{tpow}" if composite else f"{cs}*{tpow}"
                pieces.append(term)
            body = pieces[0]
            for term in pieces[1:]:
                body += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        if self.precision is not None:
            body += f" mod t^{self.precision}"
        return body


def _min_prec(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _product_precision(a: LaurentJet, b: LaurentJet) -> int | None:
    # min over (valuation floor of one factor + precision of the other).
    cands = []
    if b.precision is not None:
        fa = a.valuation_floor()
        if fa is not None:
            cands.append(fa + b.precision)
        else:
            return None  # a is exactly zero
    if a.precision is not None:
        fb = b.valuation_floor()
        if fb is not None:
            cands.append(fb + a.precision)
        else:
            return None
    return min(cands) if cands else None


def random_scalar(kind: ScalarKind, rng: Random, bound: int = 3, nonzero: bool = False) -> Scalar:
    while True:
        s = Scalar(kind, tuple(Q(rng.randint(-bound, bound)) for _ in range(kind.dim)))
        if not nonzero or not s.is_zero():
            return s
