"""Exact scalar tower and exact Laurent polynomials.

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
representation of integer coordinates, whose denominators the caller
clears (``smat_invertible`` scales each component by the lcm of its
denominators, which does not change singularity), and one fraction-free
elimination (Bareiss 1968) per connected component of the nonzero
pattern: every intermediate entry is a minor of the input, so the
integers stay small and every division is exact.  Every exact solve
eliminates through ``_eliminate``; ``_solutions`` back-substitutes.

A :class:`LaurentJet` is an exact Laurent polynomial over a single
scalar kind: a dense coefficient window starting at ``lowest_exp``.  It
is a unit of the Laurent polynomials exactly when it is a monomial with
an invertible coefficient, and only those invert.  The one truncated
value is the :class:`TruncatedJet` that ``inverse(precision)`` returns,
the reciprocal series of any jet with an invertible lowest coefficient
known modulo ``t^precision``; it has no arithmetic, and no matrix or
witness takes it.

Laurent polynomials are computed as integer values ``(rows, scale,
monomial)``: ``rows`` maps an exponent to numerators per basis index,
all over ``scale``.  A monomial keeps its one row even when zero, any
other value only its nonzero rows.  The literal reader builds values,
``_rows_of`` takes a jet to one, ``_times`` convolves two, ``_sum`` adds
them over the lcm of their scales, and ``_jet_of`` reduces each
coefficient once: jet sums and products, ``@`` and the entries a
witness check rebuilds build no partial result as a scalar.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from decimal import Decimal
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import add, index, mul

from .errors import (
    IndeterminateValuation,
    InsufficientPrecision,
    NotInvertible,
    ScalarKindMismatch,
    SizeMismatch,
    record,
)

Q = Fraction


def default_precision() -> int:
    """16, the precision ``perfbench`` prints; no operation reads it."""
    return 16


def _is_squarefree(n: int) -> bool:
    """Trial division up to sqrt|n|, about 46,000 steps: a discriminant
    of 2^31 or more in absolute value raises ValueError first."""
    n = abs(n)
    if n >> 31:
        raise ValueError("a discriminant must be less than 2^31 in absolute value")
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


_CORE_DIM = {"base": 1, "quad": 2, "quat": 4}


@record
class ScalarKind:
    """Which coefficient algebra scalars live in.

    ``core`` is ``"base"``, ``"quad"`` or ``"quat"``; quadratic kinds
    carry the negative square-free discriminant ``d``.  ``ext`` adjoins
    a central conjugation-fixed square root of ``ext`` to the core.  Both
    are integers (``operator.index``): a float raises TypeError.
    ``core_dim`` and ``dim`` are the rational dimensions of the core and
    of the whole algebra, plain attributes set when the kind is made and
    not fields, so equality, hashing and repr ignore them.
    """

    core: str
    d: int | None = None
    ext: int | None = None

    def __post_init__(self):
        if self.core not in _CORE_DIM:
            raise ValueError(f"unknown scalar core {self.core!r}")
        if self.core == "quad":
            if self.d is None or index(self.d) >= 0 or not _is_squarefree(self.d):
                raise ValueError("quadratic kind needs a negative square-free d")
        elif self.d is not None:
            raise ValueError("only quadratic kinds carry d")
        if self.ext is not None:
            if index(self.ext) in (0, 1) or not _is_squarefree(self.ext):
                raise ValueError("extension discriminant must be square-free and not a square")
        core_dim = _CORE_DIM[self.core]
        object.__setattr__(self, "core_dim", core_dim)
        object.__setattr__(self, "dim", core_dim * (2 if self.ext is not None else 1))

    @cached_property
    def basis_products(self) -> tuple:
        """``basis_products[a]`` lists ``(c, r, k)`` for each nonzero
        coordinate ``k``, at index ``r``, of the basis product ``e_a * e_c``.

        Built on first use and kept for the life of the kind.  An extended
        kind multiplies only its core basis: with m = ``core_dim``,
        e_a = f_(a mod m) * w^(a div m), w central and w^2 = ``ext``, so
        each (c, r, k) of f_a * f_c gives (c + m*hc, r + m*((ha + hc) mod 2),
        k * ext^(ha*hc)) in e_(a + m*ha) * e_(c + m*hc).
        """
        m = self.core_dim
        unit = [tuple(int(i == a) for i in range(m)) for a in range(m)]
        core = tuple(tuple((c, r, k) for c in range(m) for r, k in
                           enumerate(_core_mul(self.core, self.d, unit[a], unit[c])) if k)
                     for a in range(m))
        if self.ext is None:
            return core
        return tuple(
            tuple((c + m * hc, r + m * ((ha + hc) % 2), k * self.ext ** (ha * hc))
                  for hc in (0, 1) for c, r, k in core[a])
            for ha in (0, 1) for a in range(m))

    @cached_property
    def _extensions(self) -> dict:
        # the kinds ``extended`` has made, by the type and value of the
        # discriminant, so a value the constructor refuses (-1.0) is never
        # found under an equal one it accepted (-1)
        return {}

    def extended(self, d: int) -> "ScalarKind":
        """This kind with a square root of ``d`` adjoined.  The kind made
        for each ``d`` is kept for the life of this one, as
        ``basis_products`` is, so it builds its table once."""
        if self.ext is not None:
            raise ValueError("kind is already extended")
        key = (type(d), d)
        kind = self._extensions.get(key)
        if kind is None:
            kind = self._extensions.setdefault(key, ScalarKind(self.core, self.d, d))
        return kind

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


def _conj_parts(k: ScalarKind, a: tuple) -> tuple:
    # the conjugate of integer coordinates over k: it negates each
    # coordinate but the first of every core block (a base core has one)
    if k.core == "base":
        return a
    m = k.core_dim
    return tuple(-x if i % m else x for i, x in enumerate(a))


def _same_kind(a: ScalarKind, b: ScalarKind) -> None:
    if a is not b and a != b:
        raise ScalarKindMismatch(f"{a} vs {b}")


@record
class Scalar:
    """An exact element of a scalar kind: ``num[i] / den`` is its rational
    coordinate on the i-th basis element.

    The form is canonical: ``den > 0`` and ``gcd(den, *num) == 1``, so
    zero is ``(0, ..., 0), 1`` and field equality and hashing are value
    equality.  ``Scalar(kind, parts)`` accepts exactly ``kind.dim`` exact
    numbers (a float raises TypeError), ``Scalar.of`` pads a shorter tuple
    with zeros, and ``parts`` reads the coordinates back as fractions.
    """

    __slots__ = ("kind", "num", "den")
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
            qs = [_exact(p) for p in parts]
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
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return _raw(self.kind, tuple(-a for a in self.num), self.den)

    def __mul__(self, other: "Scalar") -> "Scalar":
        k = self.kind
        _same_kind(k, other.kind)
        return _reduced(k, _mul_parts(k, self.num, other.num), self.den * other.den)

    def times(self, q) -> "Scalar":
        """Multiply by a central rational."""
        q = _exact(q)
        p = q.numerator
        return _reduced(self.kind, tuple(p * a for a in self.num), self.den * q.denominator)

    def conj(self) -> "Scalar":
        return _raw(self.kind, _conj_parts(self.kind, self.num), self.den)

    def inverse(self) -> "Scalar":
        """The inverse through the left-regular representation of num =
        den * self over Q; an extended kind can have zero divisors."""
        k = self.kind
        det, rows = _eliminate(k, [[self.num]])
        if det == 0:
            raise NotInvertible("zero scalar" if k.ext is None else
                                f"scalar {self} is a zero divisor or zero")
        (y,) = _solutions(rows, det)
        den = self.den if det > 0 else -self.den
        return _reduced(k, tuple(den * v for v in y), abs(det))

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Q:
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not rational")
        return Q(self.num[0], self.den)

    def onto(self, kind: ScalarKind) -> "Scalar":
        """This scalar in ``kind``, an extension of its kind by a root."""
        return _raw(kind, self.num + (0,) * self.kind.core_dim, self.den)

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


def _exact(x) -> Q:
    # a float has already been rounded to binary, so it is refused
    if isinstance(x, float):
        raise TypeError(f"scalars take exact numbers, not the float {x!r}")
    return Q(x)


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


def left_regular(kind: ScalarKind, rows: Sequence[Sequence[tuple | None]]) -> list[list[int]]:
    """Integer matrix of x -> m * x on A^n, A the scalar algebra, over
    the rational basis, for m given by the integer coordinates of its
    entries (None for a zero entry): block (i, j) is left multiplication
    by m[i][j].  m is a unit of M_n(A) iff this matrix is nonsingular,
    zero divisors in A included."""
    dim, table = kind.dim, kind.basis_products
    out = [[0] * (len(rows) * dim) for _ in range(len(rows) * dim)]
    for i, row in enumerate(rows):
        for j, num in enumerate(row):
            if num is not None:
                for a, x in enumerate(num):
                    if x:
                        for c, r, k in table[a]:
                            out[i * dim + r][j * dim + c] += x * k
    return out


def smat_invertible(rows: Sequence[Sequence[Scalar]]) -> bool:
    """Exact invertibility over the scalars, zero divisors included: a
    unit iff its left-regular representation over Q is nonsingular.

    A matrix that is block-diagonal after a simultaneous permutation of
    rows and columns is a unit iff each block is, so each connected
    component of the nonzero pattern is scaled by the lcm of its
    denominators, which keeps singularity, and eliminated on its own.
    Rows of another length than their count raise SizeMismatch."""
    if any(len(row) != len(rows) for row in rows):
        raise SizeMismatch("matrix must be square")
    for comp in _components(len(rows), lambda i, j: any(rows[i][j].num) or any(rows[j][i].num)):
        block = [[rows[i][j] for j in comp] for i in comp]
        scale = lcm(*(x.den for row in block for x in row))
        reg = left_regular(block[0][0].kind, [[tuple(scale // x.den * c for c in x.num)
                                               if any(x.num) else None for x in row]
                                              for row in block])
        if not _bareiss(reg, len(reg)):
            return False
    return True


def _components(n: int, linked: Callable[[int, int], object]) -> list[list[int]]:
    """Index sets of the connected components of the graph on range(n)
    with an edge j - i wherever ``linked(i, j)``, j < i, is true; for the
    nonzero pattern of a matrix, entry (i, j) or (j, i) is nonzero.  Only
    pairs not yet known to be connected are asked, and none once all are."""
    label, count = list(range(n)), n
    for i in range(n):
        for j in range(i):
            if label[i] != label[j] and linked(i, j):
                count -= 1
                if count == 1:
                    return [list(range(n))]
                old = label[i]
                if old == i:  # i is joined for the first time: it is alone
                    label[i] = label[j]
                else:
                    label = [label[j] if x == old else x for x in label]
    return [[i for i, y in enumerate(label) if y == x] for x in dict.fromkeys(label)]


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


def _eliminate(kind: ScalarKind, rows: list) -> tuple[int, list[list[int]]]:
    """The last pivot, +-det(M), and the rows of :func:`_bareiss` on the
    left-regular image M of integer rows with the coordinate of 1 in each
    block j appended (see :func:`left_regular`); 0 iff M is singular."""
    reg, n, dim = left_regular(kind, rows), len(rows), kind.dim
    for r, row in enumerate(reg):
        row.extend(int(r == j * dim) for j in range(n))
    return _bareiss(reg, n * dim), reg


def _solutions(rows: list[list[int]], det: int) -> list[list[int]]:
    """Per appended column j of rows that :func:`_eliminate` left with
    pivot ``det`` != 0, y_j = det * x_j for the solution x_j against it;
    Cramer makes every y_j[i] an integer, so each division is exact."""
    n, out = len(rows), []
    for col in range(n, len(rows[0])):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = rows[i]
            y[i] = (row[col] * det - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
        out.append(y)
    return out


def _power(x, k: int, product: Callable):
    """x ** k for k >= 1 by repeated squaring: (k.bit_length() - 1) +
    (k.bit_count() - 1) calls of ``product``, which must associate."""
    out = None
    while k:
        if k & 1:
            out = x if out is None else product(out, x)
        k >>= 1
        if k:
            x = product(x, x)
    return out


# ---------------------------------------------------------------------------
# Laurent jets


@record
class LaurentJet:
    """Exact Laurent polynomial over one scalar kind.

    The coefficient window is canonical: leading and trailing zero
    coefficients are stripped, and zero is the empty window at exponent
    0.  ``lowest_exp`` is an integer (``operator.index``): a float raises
    TypeError.
    """

    kind: ScalarKind
    lowest_exp: int
    coeffs: tuple[Scalar, ...]

    is_exact = True

    def __init__(self, kind: ScalarKind, lowest_exp: int, coeffs: Sequence[Scalar]):
        coeffs, lowest_exp = list(coeffs), index(lowest_exp)
        for c in coeffs:
            if c.kind is not kind and c.kind != kind:
                raise ScalarKindMismatch(f"coefficient kind {c.kind} in a {kind} jet")
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo].is_zero():
            lo += 1
        while lo < hi and coeffs[hi - 1].is_zero():
            hi -= 1
        window = tuple(coeffs[lo:hi])
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "lowest_exp", lowest_exp + lo if window else 0)
        object.__setattr__(self, "coeffs", window)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(kind: ScalarKind) -> "LaurentJet":
        return LaurentJet(kind, 0, ())

    @staticmethod
    def constant(kind: ScalarKind, value) -> "LaurentJet":
        s = value if isinstance(value, Scalar) else Scalar.of(kind, value)
        return LaurentJet(kind, 0, (s,))

    @staticmethod
    def one(kind: ScalarKind) -> "LaurentJet":
        return LaurentJet.constant(kind, 1)

    @staticmethod
    def t_power(kind: ScalarKind, exp: int, coeff=1) -> "LaurentJet":
        s = coeff if isinstance(coeff, Scalar) else Scalar.of(kind, coeff)
        return LaurentJet(kind, exp, (s,))

    @staticmethod
    def from_coeffs(kind: ScalarKind, lowest_exp: int, values) -> "LaurentJet":
        coeffs = [v if isinstance(v, Scalar) else Scalar.of(kind, v) for v in values]
        return LaurentJet(kind, lowest_exp, coeffs)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> int:
        if not self.coeffs:
            raise IndeterminateValuation("zero jet has no valuation")
        return self.lowest_exp

    def valuation_floor(self) -> int | None:
        """The valuation, or None for zero, whose valuation is +infinity."""
        return self.lowest_exp if self.coeffs else None

    def degree(self) -> int:
        if not self.coeffs:
            raise IndeterminateValuation("zero jet has no degree")
        return self.lowest_exp + len(self.coeffs) - 1

    def coeff(self, exp: int) -> Scalar:
        if self.coeffs and self.lowest_exp <= exp <= self.degree():
            return self.coeffs[exp - self.lowest_exp]
        return Scalar.zero(self.kind)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "LaurentJet") -> "LaurentJet":
        _same_kind(self.kind, other.kind)
        return _jet_of(self.kind, _sum((_rows_of(self), _rows_of(other))))

    def __neg__(self) -> "LaurentJet":
        return _jet(self.kind, self.lowest_exp, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "LaurentJet") -> "LaurentJet":
        return self + (-other)

    def __mul__(self, other: "LaurentJet") -> "LaurentJet":
        _same_kind(self.kind, other.kind)
        return _jet_of(self.kind, _times(self.kind, _rows_of(self), _rows_of(other)))

    def conj(self) -> "LaurentJet":
        if self.kind.core == "base":  # the conjugation fixes every coefficient
            return self
        return _jet(self.kind, self.lowest_exp, tuple(c.conj() for c in self.coeffs))

    def inverse(self, precision: int | None = None) -> "LaurentJet | TruncatedJet":
        """The inverse of a unit of the Laurent polynomials: a monomial
        c * t^v with c invertible inverts to c^-1 * t^-v, and any other
        jet raises NotInvertible.

        With an integer ``precision`` P, a jet whose lowest coefficient is
        invertible inverts as a series instead, by the reciprocal
        recurrence (Knuth, TAOCP vol. 2, 4.7), to the :class:`TruncatedJet`
        of its coefficients below t^P.  With ``a_i`` the coefficient of
        ``t^(v+i)``, v the valuation, the inverse has ``b_0 = a_0^-1`` and
        ``b_k = -a_0^-1 * sum_{i=1..k} a_i * b_(k-i)`` at ``t^(k-v)``: this
        solves ``a * b = 1``, the two-sided inverse of a unit even over
        quaternions and zero divisors, at a cost of ``(P + v) *
        len(coeffs)`` scalar products.
        """
        if not self.coeffs:
            raise IndeterminateValuation("cannot invert zero")
        kind, v, a = self.kind, self.lowest_exp, self.coeffs
        lead_inv = a[0].inverse()  # NotInvertible propagates
        if precision is None:
            if len(a) > 1:
                raise NotInvertible(f"jet {self} is not a unit over the Laurent polynomials: "
                                    "it is not a monomial")
            return _jet(kind, -v, (lead_inv,))
        precision = index(precision)
        if precision + v <= 0:
            raise InsufficientPrecision(
                f"inverse of a valuation-{v} jet modulo t^{precision} would carry no coefficients")
        b, zero = [lead_inv], Scalar.zero(kind)
        for k in range(1, precision + v):
            acc = sum((a[i] * b[k - i] for i in range(1, min(k, len(a) - 1) + 1)), zero)
            b.append(-(lead_inv * acc))
        return TruncatedJet(LaurentJet(kind, -v, b), precision)

    def __pow__(self, k: int) -> "LaurentJet":
        """``k``-th power by repeated squaring, for an integer ``k``
        (``operator.index``: a float raises TypeError); ``k < 0`` inverts
        first, so only a monomial has a negative power."""
        k = index(k)
        if k == 0:
            return LaurentJet.one(self.kind)
        return _power(self.inverse() if k < 0 else self, abs(k), mul)

    def onto(self, kind: ScalarKind) -> "LaurentJet":
        """This jet over ``kind``, an extension of its kind by a root."""
        return _jet(kind, self.lowest_exp, tuple(c.onto(kind) for c in self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
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
        return body


@record
class TruncatedJet:
    """A Laurent series known modulo ``t^precision``, whose coefficients
    below ``t^precision`` are those of ``jet``: what ``LaurentJet.inverse``
    returns when given a precision.  It has no arithmetic, and a matrix or
    a witness refuses it, as it is not exact."""

    jet: LaurentJet
    precision: int

    is_exact = False
    kind = property(lambda self: self.jet.kind)

    def __str__(self) -> str:
        return f"{self.jet} mod t^{self.precision}"


def _jet(kind: ScalarKind, lowest_exp: int, window: tuple) -> LaurentJet:
    # a LaurentJet whose window is already canonical
    x = object.__new__(LaurentJet)
    object.__setattr__(x, "kind", kind)
    object.__setattr__(x, "lowest_exp", lowest_exp)
    object.__setattr__(x, "coeffs", window)
    return x


def _rows_of(x: LaurentJet) -> tuple:
    """The jet x as a value: the numerators of its nonzero coefficients
    over the lcm of their denominators, each rescaled only when its
    denominator differs."""
    scale = lcm(*[c.den for c in x.coeffs])
    return {e: c.num if c.den == scale else tuple(scale // c.den * y for y in c.num)
            for e, c in enumerate(x.coeffs, x.lowest_exp) if any(c.num)}, scale, False


def _times(kind: ScalarKind, x: tuple, y: tuple) -> tuple:
    """The product x * y of two values: their rows convolved, one
    ``_mul_parts`` per pair of rows, over the product of their scales."""
    (xr, xs, xm), (yr, ys, ym) = x, y
    mono, out = xm and ym, {}
    for e, a in xr.items():
        for f, b in yr.items():
            ab, row = _mul_parts(kind, a, b), out.get(e + f)
            out[e + f] = ab if row is None else tuple(map(add, row, ab))
    if not mono:
        out = {e: row for e, row in out.items() if any(row)}
    return out, xs * ys, mono


def _sum(values) -> tuple:
    """The sum of the values, in one pass: the rows read so far are
    rescaled whenever a scale does not divide their lcm."""
    out, scale = {}, 1
    for rows, s, _ in values:
        if scale % s:
            m = s // gcd(scale, s)
            scale *= m
            out = {e: tuple(y * m for y in row) for e, row in out.items()}
        f = scale // s
        for e, row in rows.items():
            if f != 1:
                row = tuple(f * y for y in row)
            cur = out.get(e)
            out[e] = row if cur is None else tuple(map(add, cur, row))
    return {e: row for e, row in out.items() if any(row)}, scale, False


def _jet_of(kind: ScalarKind, value: tuple) -> LaurentJet:
    """The jet of a value: each nonzero row reduced once, and zero
    between them, a canonical window."""
    rows, scale, _ = value
    kept = [e for e, row in rows.items() if any(row)]
    if not kept:
        return _jet(kind, 0, ())
    lo = min(kept)
    coeffs = [Scalar.zero(kind)] * (max(kept) - lo + 1)
    for e in kept:
        coeffs[e - lo] = _reduced(kind, tuple(rows[e]), scale)
    return _jet(kind, lo, tuple(coeffs))
