"""Square matrices of exact Laurent polynomials over a single scalar kind.

A matrix refuses a ``TruncatedJet`` entry when it is built, so every
question below is asked of exact entries, on one integer image (Kronecker
substitution; von zur Gathen and Gerhard, *Modern Computer Algebra*,
8.4).  ``_bounds`` scales jet rows by s * t^-low, s the lcm of their
denominators and low their lowest exponent, into integer polynomials of
degree at most their span, and lists each entry's nonzero terms once.
``_image`` evaluates those at any integer x from the powers x^0, ...,
x^span, one product per term, so 1 + t^200 costs two at each point of
``field_invertible``.  ``first_difference`` scales each factor F as a
whole, as a scalar passes through a product and a row scaling does not.
Questions about a over the Laurent field are asked per connected
component of its nonzero pattern (a and a^-1 are block-diagonal along
the components), with each row i scaled on its own, by s_i * t^-low_i;
then a^-1[k][j] is a'^-1[k][j] * s_j * t^-low_j for the scaled a', and
the left-regular representation M(t) of a' over Q is an integer
polynomial matrix.  One scale for all rows would multiply each row by
the others' denominators and shift it by the spread of their lows,
raising the row norms behind B and the spans behind D below.
``_readings`` reads each component once, off its leading coefficients:
a unit (with its row lows) is invertible and adds their sum to delta, a
singular one (an exactly zero row or column) makes a itself singular,
and only an open one (neither) is evaluated at t = 1, ..., D + 1 by
``field_invertible``, gives ``_leading_delta`` no delta and is solved,
before any unit, by ``inverse_valuations``.  A solve is one elimination
at X = 2^B, ``_solve``, which ``inverse`` makes for every component.

The leading matrix decides the units with no elimination (units lift
modulo the radical; Reiner, *Maximal Orders*, ch. 9).  Let low_i be the
least exponent of a nonzero entry in row i of a component; then the
scaled a' has polynomial entries, and a'(0) = diag(s_i) * A0, for A0 the
matrix of the coefficients at t^low_i of each row i, a unit exactly when
A0 is.  If A0 is a unit of M_r(K), K the scalar algebra, which
``smat_invertible`` decides exactly from its left-regular image, zero
divisors of an extended kind included, then a' is a unit of M_r(K[[t]]),
as its constant term is.  So a is invertible over the Laurent field, and
a = diag(t^low_i / s_i) * a' maps K[[t]]^r onto the lattice of the x
with v(x_i) >= low_i: the component adds sum(low_i) to delta = v(det a),
the volume change of the ``involutions`` module docstring.  A nonzero
1 x 1 [x] over an unextended kind is a unit with no ``smat_invertible``:
that kind is a division algebra (Q; Q(sqrt(d)) with d square-free and
negative; Hamilton's quaternions over Q, whose norm is positive
definite).  An extended kind can have zero divisors (quaternion+sqrt(-1)
is M_2(Q(i))), so its 1 x 1 components are read like any other.  The
inverse of a unit [x] has the inverse of x's lowest term as its lowest
term, so v(x^-1) = -v(x) with no solve.  A leading matrix can be
singular while a is not: [[1, 1], [1, 1 + t]] has leading matrix [[1,
1], [1, 1]] and det t, so it is open.

The elimination at X = 2^B is exact.  Every minor of M has coefficients of
absolute value at most P, the product over the rows of M of their
1-norms (the sum of the absolute values of all coefficients in a row),
so det(M) and the entries of adj(M) = det(M) * M^-1 have them too.
B is the bit length of P plus one, so X > 2P.  Bareiss elimination of
[M(X) | e_j] (e_j the coordinate of 1 in block j) gives +-det(M)(X), zero
exactly when a is singular over the Laurent field, and back-substitution
gives the coordinates y_kj(X) of det * a'^-1[k][j].  As every
coefficient lies in (-X/2, X/2), the balanced base-X digits of these
integers are exactly the coefficients of det(t) and y_kj(t).
``inverse_valuations`` reads only the lowest digit: the lowest set bit
of p(X) = X^v * (p_v + X * q), 0 < |p_v| < 2^B, lies in
[v * B, v * B + B).  So v(a^-1[k][j]) is the least valuation among the coordinates of
y_kj minus v(det) minus low_j, and all-zero coordinates are an exactly
zero entry (+infinity).  ``inverse`` reads every digit.  a is a unit
over the Laurent polynomials iff every det is a monomial c * t^v, that
is iff det(X) = c * X^v with |c| < X/2; then a^-1[k][j] = y_kj(t) * s_j
* t^-(low_j + v) / c exactly.  Any other det raises NotInvertible.

``first_difference`` evaluates each distinct factor once at X = 2^B, so
each side is s * t^low times a product of integer polynomial matrices.
A factor tau(m) is read from the image of m: its transpose, each
coordinate conjugated.  The conjugation fixes t and acts on coefficients
only, so it commutes with the scaling and with evaluation at X, and the
scaled tau(m) is tau of the scaled m.  A factor over the core of an
extended kind gets zero coordinates on the adjoined root, which is its
image over the extended kind.

B bounds the coefficients.  For an element p of the kind with integer
polynomial coordinates, let |p| be the sum of the absolute values of all
their coefficients.  Every basis product is e_a * e_c = k * e_r for one
r, so |pq| <= kappa * |p| * |q|, kappa the largest |k| of the kind.  For
a matrix let |F| be the sum of |F[i][j]| over its entries; then |FG| <=
kappa * |F| * |G|, and |cG| <= kappa * |c| * |G| for a scalar factor c,
with |c| as above.  Transposing and conjugating keep |F|, so |tau(F)| =
|F|.  Each coordinate coefficient of the scaled F is a numerator times
s_F / den, so |F| is at most s_F times the sum of the absolute values of
F's numerators.  Every coefficient of every entry of a product of k
factors is at most the |.| of the product, so at most kappa^(k-1) times
the product of their |F|.  Scaling the left product by s_right *
X^(low_left - low) and the right one by s_left * X^(low_right - low),
for low the smaller of the two, leaves a difference whose coefficients
have absolute value at most s_right * kappa^(k_l-1) * prod |L_i| +
s_left * kappa^(k_r-1) * prod |R_i|.  B is the bit length of that bound,
so X exceeds it.  A polynomial p != 0 whose coefficients lie in (-X, X)
has p(X) != 0: with c * t^v its lowest term, p(X) / X^v is c mod X and
0 < |c| < X.  So two entries agree exactly when their values at X do.

The products are pushed as one packed column.  With Y = 2^W, the column
v = sum_j e_j * Y^j (e_j the j-th unit vector) is multiplied by each
side's factors from the right, so entry i of the result is sum_j
P[i][j](X) * Y^j for the side's product P, one coordinate tuple of
integers.  A matrix factor costs one product per nonzero entry, and the
rightmost one only shifts its rows.  Every difference entry d(t) of the
scaled sides has degree at most D, the larger over the two sides of
(low_side - low) plus the sum of the factors' degree spans, and its
coefficients lie in (-X, X), so |d(X)| <= (X - 1) * (1 + X + ... + X^D)
< X^(D+1).  W = B * (D + 1), so every base-Y digit of a difference row
is in (-Y, Y), and by the argument above a row differs exactly when its
difference is nonzero, first at column j for j the lowest nonzero base-Y
digit of its coordinates.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate, chain, repeat
from math import lcm, prod
from operator import add, mul

from .errors import InsufficientPrecision, NotInvertible, ScalarKindMismatch, SizeMismatch, record
from .scalars import (LaurentJet, Q, Scalar, ScalarKind, _bareiss, _components, _conj_parts,
                      _eliminate, _jet_of, _mul_parts, _rows_of, _solutions, _sum, _times,
                      left_regular, smat_invertible)


@record
class JetMatrix:
    """Immutable square matrix with exact :class:`LaurentJet` entries."""

    kind: ScalarKind
    rows: tuple[tuple[LaurentJet, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise SizeMismatch("matrix must be square")
            for entry in row:
                if entry.kind is not self.kind and entry.kind != self.kind:
                    raise ScalarKindMismatch(f"entry kind {entry.kind} in a {self.kind} matrix")
                if not entry.is_exact:
                    raise InsufficientPrecision(
                        f"matrix entries are exact Laurent polynomials, got {entry}")

    @staticmethod
    def of(rows: Sequence[Sequence[LaurentJet]]) -> "JetMatrix":
        if not rows or not rows[0]:
            raise SizeMismatch("matrix must be nonempty")
        kind = rows[0][0].kind
        return JetMatrix(kind, tuple(tuple(row) for row in rows))

    @staticmethod
    def diagonal(entries: Sequence[LaurentJet]) -> "JetMatrix":
        if not entries:
            raise SizeMismatch("matrix must be nonempty")
        kind = entries[0].kind
        z = LaurentJet.zero(kind)
        n = len(entries)
        return JetMatrix(kind, tuple(
            tuple(entries[i] if i == j else z for j in range(n)) for i in range(n)))

    @staticmethod
    def dsum(*blocks: "JetMatrix") -> "JetMatrix":
        kind, n = blocks[0].kind if blocks else None, sum(b.n for b in blocks)
        if any(b.kind != kind for b in blocks):
            raise ScalarKindMismatch("direct summands must share a scalar kind")
        if not n:
            raise SizeMismatch("matrix must be nonempty")
        z, rows = LaurentJet.zero(kind), []
        for b in blocks:  # each row of b, padded with zeros on both sides
            off = len(rows)
            rows += [(z,) * off + tuple(row) + (z,) * (n - off - b.n) for row in b.rows]
        return JetMatrix(kind, tuple(rows))

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> LaurentJet:
        return self.rows[i][j]

    def _check(self, other: "JetMatrix") -> None:
        if self.kind is not other.kind and self.kind != other.kind:
            raise ScalarKindMismatch(f"{self.kind} vs {other.kind}")
        if self.n != other.n:
            raise SizeMismatch(f"{self.n}x{self.n} vs {other.n}x{other.n}")

    def __neg__(self) -> "JetMatrix":
        return JetMatrix(self.kind, tuple(tuple(-a for a in row) for row in self.rows))

    def __matmul__(self, other: "JetMatrix") -> "JetMatrix":
        """Each entry is the ``_sum`` of the ``_times`` a[i][k] * b[k][j]
        over the k with neither factor zero, every entry taken as a value
        once, and built as a jet once."""
        self._check(other)
        kind = self.kind
        cols = [[_rows_of(b) for b in col] for col in zip(*other.rows)]
        out = []
        for row in self.rows:
            kept = [(k, _rows_of(a)) for k, a in enumerate(row) if a.coeffs]
            out.append(tuple(_jet_of(kind, _sum(_times(kind, a, col[k]) for k, a in kept if col[k][0]))
                             for col in cols))
        return JetMatrix(kind, tuple(out))

    def conj_transpose(self) -> "JetMatrix":
        n = self.n
        return JetMatrix(self.kind, tuple(
            tuple(self.rows[j][i].conj() for j in range(n)) for i in range(n)))

    def agrees(self, other: "JetMatrix") -> bool:
        self._check(other)
        return self.rows == other.rows

    def field_invertible(self) -> bool:
        """Exact invertibility over the Laurent field, per component as
        ``_readings`` gives it: a unit is invertible, a singular one is not,
        and an open one is iff its image M(t) is: det M has degree at most
        D = dim * the sum of the row spans, so it is nonzero iff it is
        nonzero at one of t = 1, ..., D + 1."""
        for comp, lows in self._readings():
            if lows == []:
                return False
            if lows is None:
                bounds = self._row_bounds(comp)
                points = self.kind.dim * sum(b[3] for b in bounds) + 1  # b[3]: span
                if not any(_bareiss(m := left_regular(self.kind, [r[0] for r in _image(bounds, x)]),
                                    len(m)) for x in range(1, points + 1)):
                    return False
        return True

    def inverse_valuations(self) -> list[list[int | None]]:
        """v(a^-1[k][j]), None for an exactly zero entry; raises NotInvertible
        for a singular a.  A singular component raises before any solve, and
        an open one is solved before the units; a 1 x 1 unit [x] needs none,
        as v(x^-1) = -v(x).  See the module docstring."""
        dim = self.kind.dim
        out: list[list[int | None]] = [[None] * self.n for _ in range(self.n)]
        for comp, lows in self._readings():
            if lows == []:
                raise NotInvertible(_SINGULAR)
            if lows and len(comp) == 1:
                (k,) = comp
                out[k][k] = -lows[0]
                continue
            bounds, bits, det, rows = self._solve(comp)
            vdet = _lowest_digit(det, bits)
            for j, (_, _, low, *_), y in zip(comp, bounds, _solutions(rows, det)):
                for kk, k in enumerate(comp):
                    digits = [_lowest_digit(x, bits) for x in y[kk * dim:(kk + 1) * dim] if x]
                    if digits:
                        out[k][j] = min(digits) - vdet - low
        return out

    def inverse(self) -> "JetMatrix":
        """a^-1, exact; NotInvertible unless a is a unit over the Laurent
        polynomials (see the module docstring)."""
        kind, dim = self.kind, self.kind.dim
        out = [[LaurentJet.zero(kind)] * self.n for _ in range(self.n)]
        for comp in self._components():
            bounds, bits, det, rows = self._solve(comp)
            v = _lowest_digit(det, bits)
            c = det >> v * bits
            if abs(c) >= 1 << (bits - 1):
                raise NotInvertible("matrix is not a unit over the Laurent polynomials: "
                                    "its determinant is not a monomial")
            for j, (_, scale, low, *_), y in zip(comp, bounds, _solutions(rows, det)):
                for kk, k in enumerate(comp):
                    out[k][j] = _decode(kind, y[kk * dim:(kk + 1) * dim], bits,
                                        Q(scale, c), -low - v)
        return JetMatrix(kind, tuple(map(tuple, out)))

    def _solve(self, comp: list[int]) -> tuple[list[tuple], int, int, list[list[int]]]:
        """The row bounds of one component, B, and ``_eliminate`` of its
        scaled rows at X = 2^B: the Bareiss pivot +-det(M)(X) and the
        eliminated rows, whose ``_solutions`` are, per column j, the
        coordinates y_j of det * a'^-1[.][j]; raises NotInvertible if the
        component is singular."""
        bounds = self._row_bounds(comp)
        bits = prod(_row_norms(self.kind, bounds)).bit_length() + 1
        det, rows = _eliminate(self.kind, [r[0] for r in _image(bounds, 1 << bits)])
        if det == 0:
            raise NotInvertible(_SINGULAR)
        return bounds, bits, det, rows

    def _leading_delta(self) -> int | None:
        """delta = v(det a), the sum of the row lows of every component, if
        each is a unit as ``_readings`` gives it; None otherwise (see the
        module docstring)."""
        total = 0
        for _, lows in self._readings():
            if not lows:
                return None
            total += sum(lows)
        return total

    def _readings(self) -> Iterator[tuple[list[int], list[int] | None]]:
        """Each component with its reading (module docstring): its row lows
        if it is a unit, [] if singular and None if open.  Singular ones
        come before open ones, and open ones before the units a solve would
        take.  A zero column makes the leading matrix singular, so it is
        looked for only where that matrix is not a unit."""
        division, opened, units = self.kind.ext is None, [], []
        for comp in self._components():
            x = self.rows[comp[0]][comp[0]]
            if division and len(comp) == 1 and x.coeffs:  # a division algebra: x is a unit
                yield comp, [x.lowest_exp]
                continue
            rows = [[self.rows[i][j] for j in comp] for i in comp]
            lows = [min([x.lowest_exp for x in row if x.coeffs], default=None) for row in rows]
            if None not in lows:
                zero = Scalar.zero(self.kind)
                lead = [[x.coeffs[0] if x.coeffs and x.lowest_exp == low else zero for x in row]
                        for row, low in zip(rows, lows)]
                if smat_invertible(lead):
                    units.append((comp, lows))
                    continue
                if all(any(x.coeffs for x in col) for col in zip(*rows)):
                    opened.append((comp, None))
                    continue
            yield comp, []
        yield from opened
        yield from units

    def _components(self) -> list[list[int]]:
        """Index sets of the connected components of the nonzero pattern."""
        rows = self.rows
        return _components(self.n, lambda i, j: rows[i][j].coeffs or rows[j][i].coeffs)

    def _row_bounds(self, comp: list[int]) -> list[tuple]:
        # the _bounds of each row of a component, unpadded
        return [_bounds(([self.rows[i][j] for j in comp],)) + ((),) for i in comp]

    def __str__(self) -> str:
        n = self.n
        off_diag_zero = all(self.rows[i][j].is_zero() for i in range(n) for j in range(n) if i != j)
        if off_diag_zero and n > 0:
            return "diag(" + ", ".join(str(self.rows[i][i]) for i in range(n)) + ")"
        return "mat[" + ",".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows) + "]"


_SINGULAR = "gauge is not invertible over the Laurent field"


def _lowest_digit(y: int, bits: int) -> int:
    # index of the lowest nonzero base-2^bits digit of y != 0
    return ((y & -y).bit_length() - 1) // bits


def _decode(kind: ScalarKind, coords: Sequence[int], bits: int, scale: Q, shift: int) -> LaurentJet:
    """scale * t^shift * p(t), p the polynomial whose coordinates at
    t = 2^bits are coords, from their balanced base-2^bits digits."""
    half, mask, coeffs = 1 << (bits - 1), (1 << bits) - 1, []
    while any(coords):
        digits = [((y + half) & mask) - half for y in coords]
        coeffs.append(Scalar(kind, tuple(d * scale for d in digits)))
        coords = [(y - d) >> bits for y, d in zip(coords, digits)]
    return LaurentJet(kind, shift, coeffs)


def _row_norms(kind: ScalarKind, bounds: list) -> list[int]:
    """Bounds on the row 1-norms of the left-regular image of scaled rows,
    one ``_bounds`` each: row r of block-row i sums |x| * |k| over the
    scaled coordinates x, at index a, of the terms of row i and the
    (c, r, k) in ``basis_products[a]``."""
    dim = kind.dim
    norms = [0] * (len(bounds) * dim)
    for ii, ((row,), scale, *_) in enumerate(bounds):
        sums = map(sum, zip(*[[abs(y) * (scale // c.den) for y in c.num]
                              for entry in row if entry for _, c in entry]))
        for x, products in zip(sums, kind.basis_products):
            for _, r, k in products:
                norms[ii * dim + r] += x * abs(k)
    return norms


@record
class Tau:
    """tau(m), the conjugate transpose of ``m``, as a factor of
    :func:`first_difference`, which reads it from the image of ``m``
    instead of building it."""

    m: JetMatrix


def first_difference(left: Sequence[JetMatrix | LaurentJet | Tau],
                     right: Sequence[JetMatrix | LaurentJet | Tau]) -> tuple[int, int] | None:
    """The first entry, in row-major order, at which the products of the
    factors ``left`` and ``right`` differ, or None if they are equal.  A
    jet factor is that scalar times the identity.  The factors live over
    one kind, or over an extended kind and its core.  Decided on the
    integers of the module docstring, at X = 2^B and Y = 2^W."""
    if not left or not right:
        raise SizeMismatch("products are compared as matrices; a side has no factor")
    sides = [[(f.m, True) if type(f) is Tau else (f, False) for f in side]
             for side in (left, right)]
    mats = [f for side in sides for f, _ in side]
    n = next((f.n for f in mats if isinstance(f, JetMatrix)), None)
    if n is None:
        raise SizeMismatch("products are compared as matrices; no factor is a JetMatrix")
    kind = next((f.kind for f in mats if f.kind.ext is not None), mats[0].kind)
    kappa = max(abs(k) for products in kind.basis_products for _, _, k in products)
    bounds = {}  # id of a distinct matrix or jet -> its terms, s, low, span, size and padding
    for f in mats:
        if id(f) not in bounds:
            if isinstance(f, JetMatrix) and f.n != n:
                raise SizeMismatch(f"{n}x{n} vs {f.n}x{f.n}")
            pad = _pad(kind, f.kind)
            bounds[id(f)] = _bounds(f.rows if isinstance(f, JetMatrix) else ((f,),)) + (pad,)
    sums = []  # per side: its lcm, lowest exponent, degree span and coefficient bound
    for side in sides:
        scale, low, span, norm = 1, 0, 0, kappa ** (len(side) - 1)
        for f, _ in side:
            _, s, lo, sp, size, _ = bounds[id(f)]
            scale, low, span, norm = scale * s, low + lo, span + sp, norm * size
        sums.append((scale, low, span, norm))
    (s_l, low_l, span_l, norm_l), (s_r, low_r, span_r, norm_r) = sums
    bits = (s_r * norm_l + s_l * norm_r).bit_length()
    low = min(low_l, low_r)
    width = bits * (max(low_l - low + span_l, low_r - low + span_r) + 1)
    images = dict(zip(bounds, _image(list(bounds.values()), 1 << bits)))
    col_l, col_r = (_column(kind, n, [(images[id(f)], tau) for f, tau in side], width)
                    for side in sides)
    scale_l, scale_r = s_r << (low_l - low) * bits, s_l << (low_r - low) * bits
    zero = (0,) * kind.dim
    for i, (x, y) in enumerate(zip(col_l, col_r)):
        diff = [d for a, b in zip(x or zero, y or zero) if (d := a * scale_l - b * scale_r)]
        if diff:
            return i, min(_lowest_digit(d, width) for d in diff)
    return None


def _pad(kind: ScalarKind, of: ScalarKind) -> tuple[int, ...]:
    """The zero coordinates that carry a scalar of kind ``of`` into
    ``kind``: none for ``kind`` itself, one per core coordinate for the
    core of an extended ``kind``; ScalarKindMismatch for any other."""
    if of is kind or of == kind:
        return ()
    if kind.ext is not None and of.ext is None and (of.core, of.d) == (kind.core, kind.d):
        return (0,) * kind.core_dim
    raise ScalarKindMismatch(f"{kind} vs {of}")


def _bounds(rows) -> tuple:
    """For jet rows: their terms, the lcm s of their denominators, their
    lowest exponent low and degree span, and s times the sum of the
    absolute values of their numerators.  The terms of an entry are None
    if it is zero, else a list of (k, c) for each nonzero coefficient c of
    t^(low + k), 0 <= k <= span."""
    entries = [e for row in rows for e in row if e.coeffs]
    if not entries:
        return [[None] * len(row) for row in rows], 1, 0, 0, 0
    coeffs = [c for e in entries for c in e.coeffs]
    scale = lcm(*{c.den for c in coeffs})
    low = min(e.lowest_exp for e in entries)
    span = max(e.lowest_exp + len(e.coeffs) for e in entries) - 1 - low
    size = sum(map(abs, chain.from_iterable([c.num for c in coeffs])))
    terms = [[[(k, c) for k, c in enumerate(e.coeffs, e.lowest_exp - low) if any(c.num)]
              if e.coeffs else None for e in row] for row in rows]
    return terms, scale, low, span, scale * size


def _image(bounds: list, x: int) -> list[list[list[tuple[int, ...] | None]]]:
    """The terms of each ``_bounds`` in ``bounds`` times its s at t = x,
    from one list of the powers x^0, ..., x^m, m their largest span, as
    integer coordinates followed by the padding of :func:`_pad`; None for
    a zero entry.  A term (k, c) weighs s / den(c) * x^k."""
    powers = list(accumulate(repeat(x, max(b[3] for b in bounds)), mul, initial=1))  # b[3]: span
    out = []
    for terms, scale, *_, pad in bounds:
        rows = []
        for row in terms:
            values = []
            for entry in row:
                if entry is None:
                    values.append(None)
                elif len(entry) == 1:
                    (k, c), = entry
                    m = scale // c.den * powers[k]
                    values.append(tuple([y * m for y in c.num]) + pad)
                else:
                    weights = [scale // c.den * powers[k] for k, c in entry]
                    values.append(tuple([sum(map(mul, ys, weights))
                                         for ys in zip(*[c.num for _, c in entry])]) + pad)
            rows.append(values)
        out.append(rows)
    return out


def _column(kind: ScalarKind, n: int, factors: list, width: int) -> list[tuple[int, ...] | None]:
    """Entry i of sum_j P[i][j] * 2^(width * j), P the product of the
    evaluated ``factors`` (rows, and whether the factor is tau of them;
    1 x 1 rows are a scalar), multiplied onto the packed column from the
    right; None for a zero entry."""
    col: list = [(1 << width * i,) + (0,) * (kind.dim - 1) for i in range(n)]
    for k, (rows, tau) in enumerate(reversed(factors)):
        if tau:
            rows = [[x and _conj_parts(kind, x) for x in c] for c in zip(*rows)]
        if len(rows) == 1:  # a scalar: it multiplies every entry
            s = rows[0][0]
            col = [None if s is None or x is None else _mul_parts(kind, s, x) for x in col]
            continue
        if k == 0:  # the column is the unit: each row is shifted into place
            col = [_packed_row(row, width) for row in rows]
            continue
        kept = [(j, x) for j, x in enumerate(col) if x is not None]
        out = []
        for row in rows:
            acc = None
            for j, x in kept:
                y = row[j]
                if y is not None:
                    xy = _mul_parts(kind, y, x)
                    acc = xy if acc is None else tuple(map(add, acc, xy))
            out.append(acc)
        col = out
    return col


def _packed_row(row: list, width: int) -> tuple[int, ...] | None:
    # sum_j row[j] * 2^(width * j), coordinate by coordinate
    acc, shift = None, 0
    for y in row:
        if y is not None:
            acc = [v << shift for v in y] if acc is None else [
                a + (v << shift) for a, v in zip(acc, y)]
        shift += width
    return acc and tuple(acc)
