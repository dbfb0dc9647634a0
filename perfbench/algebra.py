"""Exact polynomial matrices used to build benchmark inputs.

The benchmark derives every expected verdict from how its inputs are
built, so it constructs gauges and witnesses with this small, separate
implementation of the scalar models instead of with horders itself.

A scalar is a tuple of Fractions over the basis of its kind: ``1`` for
base; ``1, sqrt(d)`` for quadratic(d); ``1, qi, qj, qk`` for the
quaternions; an extended kind appends the same basis times the central
root ``sqrt(e)``.  A polynomial in t is a tuple of scalars (index =
exponent); a matrix is a tuple of rows of polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Q = Fraction


@dataclass(frozen=True)
class Kind:
    core: str  # "base" | "quad" | "quat"
    d: int | None = None  # quadratic discriminant
    ext: int | None = None  # adjoined central square root

    @property
    def core_dim(self) -> int:
        return {"base": 1, "quad": 2, "quat": 4}[self.core]

    @property
    def dim(self) -> int:
        return self.core_dim * (1 if self.ext is None else 2)

    def extended(self, e: int) -> "Kind":
        return Kind(self.core, self.d, e)

    @property
    def division_text(self) -> str:
        return {"base": "base", "quad": f"quadratic({self.d})", "quat": "quaternion"}[self.core]

    @property
    def conj_word(self) -> str:
        return {"base": "none", "quad": "quadratic", "quat": "quaternion"}[self.core]

    def units(self) -> list[str]:
        """Session-syntax names of the basis elements, in storage order."""
        core = {"base": [""], "quad": ["", f"sqrt({self.d})"],
                "quat": ["", "qi", "qj", "qk"]}[self.core]
        if self.ext is None:
            return core
        root = f"sqrt({self.ext})"
        return core + [root if u == "" else f"{u}*{root}" for u in core]


def _core_mul(kind: Kind, a, b):
    if kind.core == "base":
        return (a[0] * b[0],)
    if kind.core == "quad":
        return (a[0] * b[0] + kind.d * a[1] * b[1], a[0] * b[1] + a[1] * b[0])
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 + a2 * b0 + a3 * b1 - a1 * b3,
            a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1)


def s_mul(kind: Kind, a, b):
    if kind.ext is None:
        return _core_mul(kind, a, b)
    m = kind.core_dim
    lo = [x + kind.ext * y for x, y in zip(_core_mul(kind, a[:m], b[:m]),
                                           _core_mul(kind, a[m:], b[m:]))]
    hi = [x + y for x, y in zip(_core_mul(kind, a[:m], b[m:]), _core_mul(kind, a[m:], b[:m]))]
    return tuple(lo + hi)


def s_conj(kind: Kind, a):
    m = kind.core_dim
    out = list(a)
    for base in range(0, kind.dim, m):
        for i in range(base + 1, base + m):
            out[i] = -out[i]
    return tuple(out)


def s_const(kind: Kind, q) -> tuple:
    return (Q(q),) + (Q(0),) * (kind.dim - 1)


def s_zero(kind: Kind) -> tuple:
    return (Q(0),) * kind.dim


def s_root(kind: Kind) -> tuple:
    """The adjoined central root sqrt(ext)."""
    out = [Q(0)] * kind.dim
    out[kind.core_dim] = Q(1)
    return tuple(out)


def s_extend(kind: Kind, a) -> tuple:
    return tuple(a) + (Q(0),) * kind.core_dim


# -- polynomials in t -----------------------------------------------------------


def p_trim(p) -> tuple:
    p = list(p)
    while p and all(c == 0 for c in p[-1]):
        p.pop()
    return tuple(p)


def p_add(kind: Kind, a, b) -> tuple:
    n = max(len(a), len(b))
    z = s_zero(kind)
    return p_trim(tuple(x + y for x, y in zip(a[i] if i < len(a) else z,
                                               b[i] if i < len(b) else z))
                  for i in range(n))


def p_mul(kind: Kind, a, b) -> tuple:
    if not a or not b:
        return ()
    out = [s_zero(kind)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if all(c == 0 for c in x):
            continue
        for j, y in enumerate(b):
            prod = s_mul(kind, x, y)
            out[i + j] = tuple(u + v for u, v in zip(out[i + j], prod))
    return p_trim(out)


def p_neg(a) -> tuple:
    return tuple(tuple(-c for c in x) for x in a)


def p_const(kind: Kind, q) -> tuple:
    return p_trim((s_const(kind, q),))


def p_scalar(kind: Kind, s) -> tuple:
    return p_trim((tuple(s),))


def p_monomial(kind: Kind, e: int, q=1) -> tuple:
    return p_trim((s_zero(kind),) * e + (s_const(kind, q),))


# -- matrices ---------------------------------------------------------------------


def m_identity(kind: Kind, n: int) -> tuple:
    return tuple(tuple(p_const(kind, 1) if i == j else () for j in range(n)) for i in range(n))


def m_add(kind: Kind, a, b) -> tuple:
    return tuple(tuple(p_add(kind, x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def m_mul(kind: Kind, a, b) -> tuple:
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ()
            for k in range(n):
                if a[i][k] and b[k][j]:
                    acc = p_add(kind, acc, p_mul(kind, a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def m_ctrans(kind: Kind, a) -> tuple:
    n = len(a)
    return tuple(tuple(tuple(s_conj(kind, c) for c in a[j][i]) for j in range(n))
                 for i in range(n))


def m_scale(kind: Kind, p, a) -> tuple:
    """Central polynomial p times a."""
    return tuple(tuple(p_mul(kind, p, x) for x in row) for row in a)


def m_diag(kind: Kind, entries) -> tuple:
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else () for j in range(n)) for i in range(n))


def m_dsum(a, b) -> tuple:
    n, m = len(a), len(b)
    rows = [tuple(a[i]) + ((),) * m for i in range(n)]
    rows += [((),) * n + tuple(b[i]) for i in range(m)]
    return tuple(rows)


def m_extend(kind: Kind, a) -> tuple:
    return tuple(tuple(tuple(s_extend(kind, c) for c in x) for x in row) for row in a)


def m_unipotent_inverse(kind: Kind, a) -> tuple:
    """Inverse of a unit triangular matrix I + N: sum of (-N)^k, k < n."""
    n = len(a)
    ident = m_identity(kind, n)
    nil = m_add(kind, a, tuple(tuple(p_neg(x) for x in row) for row in ident))
    neg_nil = tuple(tuple(p_neg(x) for x in row) for row in nil)
    out, term = ident, ident
    for _ in range(n - 1):
        term = m_mul(kind, term, neg_nil)
        out = m_add(kind, out, term)
    return out


# -- session text -------------------------------------------------------------------


def _q_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def scalar_terms(kind: Kind, s) -> list[tuple[Fraction, str]]:
    return [(c, u) for c, u in zip(s, kind.units()) if c != 0]


def poly_text(kind: Kind, p) -> str:
    pieces: list[str] = []
    for e, s in enumerate(p):
        tpow = "" if e == 0 else ("t" if e == 1 else f"t^{e}")
        for c, unit in scalar_terms(kind, s):
            factors = [f for f in (unit, tpow) if f]
            mag = abs(c)
            if factors and mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_q_text(mag)] + factors)
            pieces.append(("-" if c < 0 else "+") + body)
    if not pieces:
        return "0"
    text = pieces[0].lstrip("+")
    for piece in pieces[1:]:
        text += f" {piece[0]} {piece[1:]}"
    return text


def matrix_text(kind: Kind, a) -> str:
    return "mat[" + ",".join(
        "[" + ",".join(poly_text(kind, x) for x in row) + "]" for row in a) + "]"


def block_text(kind: Kind, a, sizes) -> str:
    """A block-diagonal matrix as dsum(...) of its diagonal blocks."""
    blocks, start = [], 0
    for size in sizes:
        sub = tuple(tuple(a[i][start:start + size]) for i in range(start, start + size))
        blocks.append(matrix_text(kind, sub))
        start += size
    return "dsum(" + ", ".join(blocks) + ")"
