"""Square matrices of Laurent jets over a single scalar kind."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InsufficientPrecision, NotInvertible, ScalarKindMismatch, SizeMismatch
from .scalars import LaurentJet, Q, Scalar, ScalarKind, smat_invertible


@dataclass(frozen=True)
class JetMatrix:
    """Immutable square matrix with :class:`LaurentJet` entries."""

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

    @staticmethod
    def of(rows: Sequence[Sequence[LaurentJet]]) -> "JetMatrix":
        if not rows:
            raise SizeMismatch("matrix must be nonempty")
        kind = rows[0][0].kind
        return JetMatrix(kind, tuple(tuple(row) for row in rows))

    @staticmethod
    def zeros(kind: ScalarKind, n: int) -> "JetMatrix":
        z = LaurentJet.zero(kind)
        return JetMatrix(kind, tuple(tuple(z for _ in range(n)) for _ in range(n)))

    @staticmethod
    def identity(kind: ScalarKind, n: int) -> "JetMatrix":
        z, o = LaurentJet.zero(kind), LaurentJet.one(kind)
        return JetMatrix(kind, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @staticmethod
    def diagonal(entries: Sequence[LaurentJet]) -> "JetMatrix":
        kind = entries[0].kind
        z = LaurentJet.zero(kind)
        n = len(entries)
        return JetMatrix(kind, tuple(
            tuple(entries[i] if i == j else z for j in range(n)) for i in range(n)))

    @staticmethod
    def dsum(*blocks: "JetMatrix") -> "JetMatrix":
        kind = blocks[0].kind
        n = sum(b.n for b in blocks)
        z = LaurentJet.zero(kind)
        rows = [[z] * n for _ in range(n)]
        off = 0
        for b in blocks:
            if b.kind != kind:
                raise ScalarKindMismatch("direct summands must share a scalar kind")
            for i in range(b.n):
                for j in range(b.n):
                    rows[off + i][off + j] = b.rows[i][j]
            off += b.n
        return JetMatrix.of(rows)

    @staticmethod
    def unit(kind: ScalarKind, n: int, i: int, j: int, jet: LaurentJet | None = None) -> "JetMatrix":
        """Matrix with a single entry at (i, j), zero elsewhere."""
        z = LaurentJet.zero(kind)
        e = jet if jet is not None else LaurentJet.one(kind)
        return JetMatrix(kind, tuple(
            tuple(e if (r, c) == (i, j) else z for c in range(n)) for r in range(n)))

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

    def __add__(self, other: "JetMatrix") -> "JetMatrix":
        self._check(other)
        return JetMatrix(self.kind, tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "JetMatrix") -> "JetMatrix":
        self._check(other)
        return JetMatrix(self.kind, tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self) -> "JetMatrix":
        return JetMatrix(self.kind, tuple(tuple(-a for a in row) for row in self.rows))

    def __matmul__(self, other: "JetMatrix") -> "JetMatrix":
        self._check(other)
        n = self.n
        cols = list(zip(*other.rows))
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = LaurentJet.zero(self.kind)
                for a, b in zip(self.rows[i], cols[j]):
                    if a.is_zero() and a.is_exact:
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(tuple(row))
        return JetMatrix(self.kind, tuple(out))

    def lscale(self, jet: LaurentJet) -> "JetMatrix":
        return self.map(lambda e: jet * e)

    def rscale(self, jet: LaurentJet) -> "JetMatrix":
        return self.map(lambda e: e * jet)

    def map(self, fn: Callable[[LaurentJet], LaurentJet]) -> "JetMatrix":
        return JetMatrix.of([[fn(e) for e in row] for row in self.rows])

    def conj_transpose(self) -> "JetMatrix":
        n = self.n
        return JetMatrix(self.kind, tuple(
            tuple(self.rows[j][i].conj() for j in range(n)) for i in range(n)))

    def shift(self, k: int) -> "JetMatrix":
        return self.map(lambda e: e.shift(k))

    def extended(self, d: int) -> "JetMatrix":
        kind = self.kind.extended(d)
        return JetMatrix(kind, tuple(tuple(e.extended(d) for e in row) for row in self.rows))

    @property
    def is_exact(self) -> bool:
        return all(e.is_exact for row in self.rows for e in row)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def agrees(self, other: "JetMatrix") -> bool:
        self._check(other)
        return all(a.agrees(b) for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    def field_invertible(self) -> bool:
        """Exact invertibility over the Laurent field; all entries exact.

        With row i scaled by t^-(its lowest exponent), the determinant of
        the left-regular representation over Q is a polynomial of degree
        at most D = dim * sum over rows of (highest - lowest exponent), so
        it is nonzero iff it is nonzero at one of t = 1, ..., D + 1.
        """
        rows = [[e for e in row if e.coeffs] for row in self.rows]
        if not all(rows):
            return False
        span = sum(max(e.degree() for e in r) - min(e.lowest_exp for e in r) for r in rows)
        return any(smat_invertible(self._evaluate(Q(x)))
                   for x in range(1, self.kind.dim * span + 2))

    def _evaluate(self, x: Q) -> list[list[Scalar]]:
        zero = Scalar.zero(self.kind)
        return [[sum((c.times(x ** (e.lowest_exp + k)) for k, c in enumerate(e.coeffs)), zero)
                 for e in row] for row in self.rows]

    def inverse(self) -> "JetMatrix":
        """Gauss-Jordan over the Laurent field; left row operations only.

        Pivots need a determinate valuation and an invertible leading
        coefficient (extended kinds can contain zero divisors).  Entries
        that are zero to their precision are never pivots; a column left
        without a pivot raises InsufficientPrecision if it holds such an
        entry, unless the matrix is exact and singular over the Laurent
        field, and NotInvertible otherwise.
        """
        n = self.n
        work = [list(row) + [LaurentJet.one(self.kind) if i == j else LaurentJet.zero(self.kind)
                             for j in range(n)] for i, row in enumerate(self.rows)]
        for col in range(n):
            best, best_inv, vague = None, None, False
            for r in range(col, n):
                e = work[r][col]
                if not e.coeffs:
                    vague = vague or not e.is_exact
                    continue
                if best is not None and e.valuation() >= work[best][col].valuation():
                    continue
                try:
                    inv = e.inverse()
                except NotInvertible:
                    continue
                best, best_inv = r, inv
            if best is None and vague and (not self.is_exact or self.field_invertible()):
                raise InsufficientPrecision(
                    f"no usable pivot in column {col}: an entry is zero only to its precision")
            if best is None:
                raise NotInvertible(f"no usable pivot in column {col}")
            work[col], work[best] = work[best], work[col]
            work[col] = [best_inv * e for e in work[col]]
            for r in range(n):
                if r == col:
                    continue
                f = work[r][col]
                if f.is_zero():
                    continue
                work[r] = [e - f * p for e, p in zip(work[r], work[col])]
        return JetMatrix.of([row[n:] for row in work])

    def __str__(self) -> str:
        n = self.n
        off_diag_zero = all(self.rows[i][j].is_zero() and self.rows[i][j].is_exact
                            for i in range(n) for j in range(n) if i != j)
        if off_diag_zero and n > 0:
            return "diag(" + ", ".join(str(self.rows[i][i]) for i in range(n)) + ")"
        return "mat[" + ",".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows) + "]"
