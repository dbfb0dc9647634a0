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

A :class:`Scalar` stores its rational coordinates as integer numerators
over one shared positive denominator, always in lowest terms, so every
value has exactly one representation and arithmetic runs on integers.
Linear algebra over the scalars goes through the left-regular
representation, an integer matrix over Q (each block-row scaled by the
lcm of its denominators, which does not change singularity), and one
fraction-free elimination (Bareiss 1968): every intermediate entry is a
minor of the input, so the integers stay small and every division is
exact.

A :class:`LaurentJet` is a truncated Laurent series over a single scalar
kind: a dense coefficient window starting at ``lowest_exp`` together
with the precision modulo ``t^precision`` to which the value is known.
``precision=None`` marks an exact Laurent polynomial.  A jet that is
zero up to its precision has indeterminate valuation and is flagged,
never silently treated as zero.  An exact jet that is not a monomial
inverts to a jet known modulo ``t^DEFAULT_PRECISION`` above its
valuation; ``DEFAULT_PRECISION`` is the constant 16, and nothing in the
package changes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import (
    IndeterminateValuation,
    InsufficientPrecision,
    NegativeValuation,
    NotInvertible,
    ScalarKindMismatch,
    SizeMismatch,
)

Q = Fraction

#: Working precision used when inverting an exact, non-monomial jet; a
#: constant, so no operation depends on process-wide state.
DEFAULT_PRECISION = 16


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
    ``core_dim`` and ``dim`` are the rational dimensions of the core and
    of the whole algebra, fixed when the kind is made.
    """

    core: str
    d: int | None = None
    ext: int | None = None
    core_dim: int = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

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
        core_dim = _CORE_DIM[self.core]
        object.__setattr__(self, "core_dim", core_dim)
        object.__setattr__(self, "dim", core_dim * (2 if self.ext is not None else 1))

    @cached_property
    def basis_products(self) -> tuple:
        """``basis_products[a]`` lists ``(c, r, k)`` for each nonzero
        coordinate ``k``, at index ``r``, of the basis product ``e_a * e_c``.

        Built on first use and kept for the life of the kind: extending a
        matrix makes a new kind per coefficient, and most never need it.
        """
        dim = self.dim
        unit = [tuple(int(i == a) for i in range(dim)) for a in range(dim)]
        return tuple(
            tuple((c, r, k) for c in range(dim)
                  for r, k in enumerate(_mul_parts(self, unit[a], unit[c])) if k)
            for a in range(dim))

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


def _mul_parts(k: ScalarKind, a: tuple, b: tuple) -> tuple:
    # product of two integer coordinate tuples over k
    if k.ext is None:
        return _core_mul(k.core, k.d, a, b)
    m = k.core_dim
    lo1 = _core_mul(k.core, k.d, a[:m], b[:m])
    lo2 = _core_mul(k.core, k.d, a[m:], b[m:])
    hi1 = _core_mul(k.core, k.d, a[:m], b[m:])
    hi2 = _core_mul(k.core, k.d, a[m:], b[:m])
    lo = tuple(x + k.ext * y for x, y in zip(lo1, lo2))
    hi = tuple(x + y for x, y in zip(hi1, hi2))
    return lo + hi


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


def _same_kind(a: ScalarKind, b: ScalarKind) -> None:
    if a is not b and a != b:
        raise ScalarKindMismatch(f"{a} vs {b}")


@dataclass(frozen=True, slots=True, init=False)
class Scalar:
    """An exact element of a scalar kind: ``num[i] / den`` is its rational
    coordinate on the i-th basis element.

    The form is canonical: ``den > 0`` and ``gcd(den, *num) == 1``, so
    zero is ``(0, ..., 0), 1`` and field equality and hashing are value
    equality.  ``Scalar(kind, parts)`` accepts exactly ``kind.dim`` exact
    numbers, ``Scalar.of`` pads a shorter tuple with zeros, and ``parts``
    reads the coordinates back as fractions.
    """

    kind: ScalarKind
    num: tuple[int, ...]
    den: int

    def __init__(self, kind: ScalarKind, parts: Sequence) -> None:
        parts = tuple(parts)
        if len(parts) != kind.dim:
            raise SizeMismatch(f"a {kind} scalar has {kind.dim} coordinates, got {len(parts)}")
        if all(type(p) is int for p in parts):
            num, den = parts, 1
        else:
            qs = [Q(p) for p in parts]
            den = lcm(*(q.denominator for q in qs))
            num = tuple(q.numerator * (den // q.denominator) for q in qs)
        _set_kind(self, kind)
        _set_num(self, num)
        _set_den(self, den)

    @property
    def parts(self) -> tuple[Q, ...]:
        return tuple(Q(x, self.den) for x in self.num)

    @staticmethod
    def of(kind: ScalarKind, *parts) -> "Scalar":
        return Scalar(kind, parts + (0,) * (kind.dim - len(parts)))

    @staticmethod
    def rational(kind: ScalarKind, value) -> "Scalar":
        return Scalar.of(kind, value)

    @staticmethod
    def zero(kind: ScalarKind) -> "Scalar":
        return _raw(kind, (0,) * kind.dim, 1)

    @staticmethod
    def one(kind: ScalarKind) -> "Scalar":
        return _raw(kind, (1,) + (0,) * (kind.dim - 1), 1)

    @staticmethod
    def basis(kind: ScalarKind, index: int) -> "Scalar":
        num = [0] * kind.dim
        num[index] = 1
        return _raw(kind, tuple(num), 1)

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

    def is_zero(self) -> bool:
        return not any(self.num)

    def __add__(self, other: "Scalar") -> "Scalar":
        k = self.kind
        _same_kind(k, other.kind)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _reduced(k, tuple(a + b for a, b in zip(self.num, other.num)), d1)
        return _reduced(k, tuple(a * d2 + b * d1 for a, b in zip(self.num, other.num)), d1 * d2)

    def __sub__(self, other: "Scalar") -> "Scalar":
        k = self.kind
        _same_kind(k, other.kind)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _reduced(k, tuple(a - b for a, b in zip(self.num, other.num)), d1)
        return _reduced(k, tuple(a * d2 - b * d1 for a, b in zip(self.num, other.num)), d1 * d2)

    def __neg__(self) -> "Scalar":
        return _raw(self.kind, tuple(-a for a in self.num), self.den)

    def __mul__(self, other: "Scalar") -> "Scalar":
        k = self.kind
        _same_kind(k, other.kind)
        return _reduced(k, _mul_parts(k, self.num, other.num), self.den * other.den)

    def times(self, q) -> "Scalar":
        """Multiply by a central rational."""
        q = Q(q)
        p = q.numerator
        return _reduced(self.kind, tuple(p * a for a in self.num), self.den * q.denominator)

    def conj(self) -> "Scalar":
        k = self.kind
        if k.ext is None:
            return _raw(k, _core_conj(k.core, self.num), self.den)
        m = k.core_dim
        return _raw(k, _core_conj(k.core, self.num[:m]) + _core_conj(k.core, self.num[m:]),
                    self.den)

    def _norm_num(self) -> int:
        # den^2 * norm, an integer
        k = self.kind
        if k.ext is not None:
            raise ScalarKindMismatch("norm is only rational-valued on unextended kinds")
        if k.core == "quad":
            a, b = self.num
            return a * a - k.d * b * b
        return sum(p * p for p in self.num)

    def norm(self) -> Q:
        """x * conj(x) as a rational; positive definite on unextended kinds."""
        return Q(self._norm_num(), self.den * self.den)

    def inverse(self) -> "Scalar":
        k = self.kind
        den = self.den
        if k.ext is None:
            n = self._norm_num()
            if n == 0:
                raise NotInvertible("zero scalar")
            return _reduced(k, tuple(den * c for c in _core_conj(k.core, self.num)), n)
        # The extended algebra can have zero divisors; invert through the
        # left-regular representation of num = den * self over Q.
        dim = k.dim
        rows = [row + [int(i == 0)] for i, row in enumerate(left_regular(((self,),)))]
        det = _bareiss(rows, dim)
        if det == 0:
            raise NotInvertible(f"scalar {self} is a zero divisor or zero")
        y = _back_substitute(rows, dim, det, dim)
        if det < 0:
            den, det = -den, -det
        return _reduced(k, tuple(den * v for v in y), det)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Q:
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not rational")
        return Q(self.num[0], self.den)

    def extended(self, d: int) -> "Scalar":
        k = self.kind.extended(d)
        return _raw(k, self.num + (0,) * self.kind.core_dim, self.den)

    def __str__(self) -> str:
        k = self.kind
        parts = self.parts
        if k.ext is None:
            return _core_str(k, parts)
        m = k.core_dim
        lo, hi = parts[:m], parts[m:]
        root = f"sqrt({k.ext})"
        if all(p == 0 for p in hi):
            return _core_str(k, lo)
        hi_str = _core_str(k, hi)
        hi_part = root if hi_str == "1" else f"({hi_str})*{root}"
        if all(p == 0 for p in lo):
            return hi_part
        return f"{_core_str(k, lo)} + {hi_part}"


_set_kind = Scalar.kind.__set__
_set_num = Scalar.num.__set__
_set_den = Scalar.den.__set__
_new_scalar = object.__new__


def _raw(kind: ScalarKind, num: tuple, den: int) -> Scalar:
    # a Scalar already in canonical form
    s = _new_scalar(Scalar)
    _set_kind(s, kind)
    _set_num(s, num)
    _set_den(s, den)
    return s


def _reduced(kind: ScalarKind, num: tuple, den: int) -> Scalar:
    # num / den in lowest terms; den > 0
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(a // g for a in num)
            den //= g
    return _raw(kind, num, den)


def exact_int(digits: str) -> int:
    """int(digits) past the interpreter's limit on decimal strings, which
    stays as it is (Decimal converts exactly)."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def exact_str(q) -> str:
    """str(q) of an int or a fraction of any size; see :func:`exact_int`."""
    try:
        return str(q)
    except ValueError:
        q = Q(q)
        top = str(Decimal(q.numerator))
        return top if q.denominator == 1 else f"{top}/{Decimal(q.denominator)}"


def _core_str(kind: ScalarKind, parts: tuple) -> str:
    units = {"base": [""], "quad": ["", f"sqrt({kind.d})"], "quat": ["", "qi", "qj", "qk"]}[kind.core]
    pieces = []
    for coeff, unit in zip(parts, units):
        if coeff == 0:
            continue
        if unit == "":
            term = exact_str(coeff)
        elif coeff == 1:
            term = unit
        elif coeff == -1:
            term = f"-{unit}"
        else:
            term = f"{exact_str(coeff)}*{unit}"
        pieces.append(term)
    if not pieces:
        return "0"
    out = pieces[0]
    for term in pieces[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def left_regular(rows: Sequence[Sequence[Scalar]]) -> list[list[int]]:
    """Integer matrix of x -> m * x on A^n, A the scalar algebra, over
    the rational basis: block (i, j) is left multiplication by m[i][j],
    and block-row i is scaled by the lcm of the denominators in row i of
    m.  Row scaling keeps singularity, so m is a unit of M_n(A) iff this
    matrix is nonsingular, zero divisors in A included."""
    kind = rows[0][0].kind
    dim = kind.dim
    table = kind.basis_products
    out = [[0] * (len(rows) * dim) for _ in range(len(rows) * dim)]
    for i, row in enumerate(rows):
        scale = lcm(*(s.den for s in row))
        for j, s in enumerate(row):
            f = scale // s.den
            for a, x in enumerate(s.num):
                if x:
                    x *= f
                    for c, r, k in table[a]:
                        out[i * dim + r][j * dim + c] += x * k
    return out


def smat_invertible(rows: Sequence[Sequence[Scalar]]) -> bool:
    """Exact invertibility over the scalars, zero divisors included: a
    unit iff its left-regular representation over Q is nonsingular."""
    reg = left_regular(rows)
    return _bareiss(reg, len(reg)) != 0


def _bareiss(a: list[list[int]], n: int) -> int:
    """Fraction-free elimination (Bareiss 1968) of the first n columns of
    the integer rows a, in place, with row swaps for zero pivots.

    Afterwards the leading n x n block of a is upper triangular, the
    extra columns carry the same row operations, and the result is the
    last pivot, which is +-det of the leading block: 0 iff it is
    singular (then a is left part-way).  Each update
    (pivot * a[i][j] - a[i][k] * a[k][j]) // previous pivot is exact.
    """
    prev = 1
    for k in range(n):
        p = k
        while p < n and not a[p][k]:
            p += 1
        if p == n:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
        top = a[k]
        piv = top[k]
        tail = top[k + 1:]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            row[k + 1:] = [(piv * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = piv
    return prev


def _back_substitute(a: list[list[int]], n: int, det: int, col: int) -> list[int]:
    """y = det * x for the solution x of the first n columns of a, left
    upper triangular by :func:`_bareiss` with last pivot ``det`` != 0,
    against column ``col``.  Cramer makes every y[i] an integer, so each
    division is exact."""
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = row[col] * det - sum(row[j] * y[j] for j in range(i + 1, n))
        y[i] = acc // row[i]
    return y


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
            if c.kind is not kind and c.kind != kind:
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
        _same_kind(self.kind, other.kind)

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
        _same_kind(s.kind, self.kind)
        return LaurentJet(self.kind, self.lowest_exp, tuple(s * c for c in self.coeffs), self.precision)

    def rscale(self, s: Scalar) -> "LaurentJet":
        _same_kind(s.kind, self.kind)
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
        default working precision above their valuation).  An explicit
        ``precision`` is capped at ``P - 2v``, beyond which a truncated
        input does not determine its inverse.
        """
        if not self.coeffs:
            raise IndeterminateValuation("cannot invert a jet that is zero to precision")
        v = self.lowest_exp
        lead = self.coeffs[0]
        lead_inv = lead.inverse()  # NotInvertible propagates
        if len(self.coeffs) == 1 and self.precision is None and precision is None:
            return LaurentJet(self.kind, -v, (lead_inv,), None)
        if self.precision is not None:
            target = _min_prec(precision, self.precision - 2 * v)
        else:
            target = DEFAULT_PRECISION - v if precision is None else precision
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
        """``k``-th power by repeated squaring; ``k < 0`` inverts first."""
        base = self.inverse() if k < 0 else self
        k, out = abs(k), None
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return LaurentJet.one(self.kind) if out is None else out

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
