"""Twisted involutions on block orders and their residue isotropy.

An involution here is x -> a^-1 * tau(x) * a where tau is the
conjugate-transpose over the coefficient scalars and the gauge a
satisfies tau(a) = epsilon * a.  For gauges that are block-diagonal with
each block a power of t times a unit block, the involution descends to
the semisimple quotient blockwise; isotropy of each residue block is
decided by congruence-diagonalising the residue gauge.  Because every
scalar model has a positive definite norm form, the verdict is read off
the signs of the diagonal entries; isotropic vectors are constructed
exactly whenever the norm equation has a rational solution, otherwise
the verdict stands and the witness is omitted.

Well-formedness is decided from entry valuations, without matrix
products.  The involution sends the order generator t^P[i][j] * e_ij to
the matrix with entries a^-1[k][j] * t^P[i][j] * a[i][l].  Gauges live
over unextended kinds, which have no zero divisors, so the valuation of
that product is the sum of the factors' valuations plus P[i][j] (a zero
factor gives +infinity).  Stability is therefore the integer inequality
v(a^-1[k][j]) + P[i][j] + v(a[i][l]) >= P[k][l] for all i, j, k, l,
the min-plus statement V(a^-1) * P^T * V(a) >= P, decided in O(n^2) per
row i: with w[k] the least v(a[i][l]) - P[k][l] over the nonzero a[i][l]
(a zero row has raised NotInvertible in ``inverse_valuations``), (i, j)
fails exactly when v(a^-1[k][j]) + P[i][j] + w[k] < 0 for some k.
That sigma squares to the identity needs no check:
tau(a) = epsilon * a gives tau(a^-1) = epsilon * a^-1, hence
sigma(sigma(x)) = a^-1 * tau(a) * x * tau(a^-1) * a = x.

The valuations of a^-1 are exact: ``JetMatrix.inverse_valuations``
reads them from one fraction-free elimination per connected component
of the nonzero pattern of a (see the ``matrices`` module docstring),
and a 1 x 1 component needs none.

tau(a) = epsilon * a is compared in place, entry by entry for i <= j:
tau(a)[i][j] = conj(a[j][i]), and conjugation keeps a coefficient's
denominator and window, so a[i][j] and a[j][i] must share their lowest
exponent and length, and each coefficient of a[i][j] must have its
partner's denominator and the conjugated (for epsilon = -1 also
negated) numerators.  The pair (j, i) is the conjugate of that
condition, so no tau(a) and no -a is built.  ``residue_isotropy`` then
trusts the check: tau(a) = epsilon * a holds entrywise and t is central
and conjugation-fixed, so the coefficient at t^m of each diagonal block
is epsilon-hermitian, and its entries are of the gauge's kind, which is
unextended (a ``DivisionSpec`` refuses any other).  Only the epsilon =
-1 refusal of ``anisotropy`` is kept on that path.

Each ``InvolutionSpec`` checks well-formedness and computes its residue
data and residue isotropy at most once; a failed check is raised again
on every call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import isqrt

from .errors import (
    Diagnostics,
    NotEpsilonHermitian,
    NotInvertible,
    NotStable,
    OK,
    ScalarKindMismatch,
    SingularForm,
    SizeMismatch,
    UnsupportedFormKind,
    UnsupportedGaugeShape,
    failure,
    record,
)
from .matrices import JetMatrix
from .orders import BlockOrder, iso_decide, pattern_of
from .scalars import Q, Scalar, ScalarKind, _conj_parts

ANISOTROPIC = "anisotropic"
ISOTROPIC = "isotropic"
DISTINGUISHED = "distinguished"
INCONCLUSIVE = "inconclusive"

SMat = tuple[tuple[Scalar, ...], ...]


@record
class InvolutionSpec:
    """A gauge and sign defining x -> a^-1 * tau(x) * a on a block order."""

    order: BlockOrder
    gauge: JetMatrix
    epsilon: int = 1

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if self.gauge.kind != self.order.division.kind:
            raise ScalarKindMismatch(
                f"gauge over {self.gauge.kind}, order over {self.order.division.kind}")
        if self.gauge.n != self.order.sig.n:
            raise SizeMismatch(
                f"gauge is {self.gauge.n}x{self.gauge.n}, order has size {self.order.sig.n}")

    # Memos outside eq, hash and repr; a call that raises stores nothing.
    _checked = cached_property(lambda self: _require_wellformed(self) or True)
    _residue = cached_property(lambda self: self._checked and _residue_of(self))
    _isotropy = cached_property(lambda self: _isotropy_of(self._residue))


@record
class ResidueBlock:
    size: int
    t_power: int
    gauge: SMat


@record
class ResidueInvolution:
    """Blockwise data of the induced involution on the semisimple quotient."""

    kind: ScalarKind
    epsilon: int
    blocks: tuple[ResidueBlock, ...]


@record
class IsotropyResult:
    verdict: str
    signature: tuple[int, int]
    witness: tuple[Scalar, ...] | None = None

    @property
    def is_anisotropic(self) -> bool:
        return self.verdict == ANISOTROPIC


@record
class DistinguishResult:
    verdict: str
    reason: str | None = None

    @property
    def distinguished(self) -> bool:
        return self.verdict == DISTINGUISHED


# ---------------------------------------------------------------------------
# The involution itself


def apply_sigma(spec: InvolutionSpec, x: JetMatrix) -> JetMatrix:
    """sigma(x) = a^-1 * tau(x) * a, for a gauge a that is a unit (else NotInvertible)."""
    if x.kind != spec.gauge.kind:
        raise ScalarKindMismatch(f"element over {x.kind}, gauge over {spec.gauge.kind}")
    if x.n != spec.gauge.n:
        raise SizeMismatch(f"element is {x.n}x{x.n}, gauge {spec.gauge.n}x{spec.gauge.n}")
    return spec.gauge.inverse() @ x.conj_transpose() @ spec.gauge


def _is_eps_hermitian(a: JetMatrix, epsilon: int) -> bool:
    """tau(a) = epsilon * a, compared in place (see the module docstring)."""
    kind, rows = a.kind, a.rows
    for i, row in enumerate(rows):
        for j in range(i, len(rows)):
            x, y = row[j], rows[j][i]
            if x.lowest_exp != y.lowest_exp or len(x.coeffs) != len(y.coeffs):
                return False
            for c, d in zip(x.coeffs, y.coeffs):
                want = _conj_parts(kind, d.num)
                if epsilon == -1:
                    want = tuple(-v for v in want)
                if c.den != d.den or c.num != want:
                    return False
    return True


def _require_wellformed(spec: InvolutionSpec) -> None:
    a = spec.gauge
    if not _is_eps_hermitian(a, spec.epsilon):
        raise NotEpsilonHermitian(f"tau(a) != {spec.epsilon:+d}*a")
    p = pattern_of(spec.order.sig).entries
    vinv = a.inverse_valuations()
    # the finite v(a^-1[k][j]) of each column j; None is an exactly zero entry
    cols = [[(k, r[j]) for k, r in enumerate(vinv) if r[j] is not None] for j in range(a.n)]
    for i, row in enumerate(a.rows):
        va = [(l, e.lowest_exp) for l, e in enumerate(row) if e.coeffs]
        w = [min([v - pk[l] for l, v in va]) for pk in p]
        for j, pij in enumerate(p[i]):
            for k, vk in cols[j]:
                if vk + pij + w[k] < 0:
                    l = next(l for l, v in va if vk + pij + v < p[k][l])
                    raise NotStable(f"generator t^{pij}*e[{i + 1},{j + 1}] leaves the order "
                                    f"at entry {k + 1},{l + 1}")


def wellformed(spec: InvolutionSpec) -> Diagnostics:
    """Check the gauge is epsilon-hermitian and invertible and that the
    twisted involution stabilises the order.  First failure wins.

    Stability is read off the valuations of a and the exact valuations
    of a^-1 (see the module docstring); sigma^2 = id follows from the
    hermitian check.
    """
    try:
        spec._checked
    except (NotEpsilonHermitian, NotInvertible, NotStable) as exc:
        return failure(type(exc).__name__, str(exc))
    return OK


# ---------------------------------------------------------------------------
# Residue involutions


def residue_involution(spec: InvolutionSpec) -> ResidueInvolution:
    """Blockwise residue data of a supported gauge.

    The gauge must be block-diagonal; gauges that mix blocks (and would
    permute the simple factors of the quotient) are rejected.  A block B
    of a well-formed gauge is then t^m times a unit, unchecked: with m and
    m' the least entry valuations of B and of B^-1 (a block of a^-1), the
    stable diagonal block M(D[[t]]) gives m + m' >= 0, and B * B^-1 = 1
    gives m + m' <= 0.  So t^-m * B and its inverse lie in M(D[[t]]), as
    in the normaliser t^Z * GL(D[[t]]) of that maximal order (Reiner,
    *Maximal Orders*): B is not zero and its t^m coefficients are a unit.
    """
    return spec._residue


def _residue_of(spec: InvolutionSpec) -> ResidueInvolution:
    sig = spec.order.sig
    a = spec.gauge
    blk = sig.block_index()
    for i in range(a.n):
        for j in range(a.n):
            if blk[i] != blk[j] and not a.entry(i, j).is_zero():
                raise UnsupportedGaugeShape(
                    f"gauge mixes blocks at entry {i + 1},{j + 1}")
    blocks = []
    for start, size in zip(sig.block_starts(), sig.parts):
        span = range(start, start + size)
        m = min(a.entry(i, j).lowest_exp for i in span for j in span if a.entry(i, j).coeffs)
        res = tuple(tuple(a.entry(i, j).coeff(m) for j in span) for i in span)
        blocks.append(ResidueBlock(size, m, res))
    return ResidueInvolution(a.kind, spec.epsilon, tuple(blocks))


# ---------------------------------------------------------------------------
# Hermitian diagonalisation and isotropy


def diagonalize_form(b: SMat) -> tuple[list[Fraction], SMat]:
    """Congruence-diagonalise a hermitian scalar matrix.

    Returns (diagonal entries, C) with conj-transpose(C) * b * C equal
    to the diagonal matrix.  The diagonal entries of a hermitian form
    over these scalar models are conjugation-fixed, hence rational.
    Every returned entry is nonzero: each pivot is nonzero when it is
    chosen (a zero diagonal with a nonzero entry w at (i, j) first
    becomes 2 * w * conj(w) > 0 at i), and no later step touches its row
    or column.  A form with no such pivot raises SingularForm.
    """
    n = len(b)
    if not n:
        return [], ()
    work = [list(row) for row in b]
    zero, one = Scalar.zero(b[0][0].kind), Scalar.one(b[0][0].kind)
    trans = [[one if i == j else zero for j in range(n)] for i in range(n)]

    def col_add(j: int, k: int, c: Scalar) -> None:
        # basis change e_j <- e_j + e_k * c, applied two-sidedly
        for i in range(n):
            work[i][j] = work[i][j] + work[i][k] * c
        cc = c.conj()
        for m in range(n):
            work[j][m] = work[j][m] + cc * work[k][m]
        for i in range(n):
            trans[i][j] = trans[i][j] + trans[i][k] * c

    def col_swap(j: int, k: int) -> None:
        for i in range(n):
            work[i][j], work[i][k] = work[i][k], work[i][j]
        work[j], work[k] = work[k], work[j]
        for i in range(n):
            trans[i][j], trans[i][k] = trans[i][k], trans[i][j]

    for k in range(n):
        if work[k][k].is_zero():
            swap = next((l for l in range(k + 1, n) if not work[l][l].is_zero()), None)
            if swap is not None:
                col_swap(k, swap)
            else:
                found = None
                for i in range(k, n):
                    for j in range(i + 1, n):
                        if not work[i][j].is_zero():
                            found = (i, j)
                            break
                    if found:
                        break
                if found is None:
                    raise SingularForm("form vanishes on a nonzero subspace")
                i, j = found
                col_add(i, j, work[i][j].conj())
                if i != k:
                    col_swap(k, i)
        pivot = work[k][k].rational_value()
        for j in range(k + 1, n):
            if work[k][j].is_zero():
                continue
            col_add(j, k, work[k][j].times(Q(-1) / pivot))
    diag = [work[k][k].rational_value() for k in range(n)]
    return diag, tuple(tuple(row) for row in trans)


def _represent_int(weights: tuple[int, ...], target: int) -> tuple[int, ...] | None:
    """One integer solution of sum(w_i * a_i^2) = target, if any.

    target >= 0: ``represent_norm`` passes num * den > 0, and each
    recursive call subtracts w * a^2 <= w * (target // w) <= target."""
    if not weights:
        return () if target == 0 else None
    w = weights[0]
    a = isqrt(target // w)
    while a >= 0:
        rest = _represent_int(weights[1:], target - w * a * a)
        if rest is not None:
            return (a,) + rest
        a -= 1
    return None


# Largest num * den of a norm that ``represent_norm`` searches for.
_NORM_SEARCH_CAP = 500000


def represent_norm(kind: ScalarKind, rho: Fraction) -> Scalar | None:
    """A scalar of the given kind with norm rho, or None if the bounded
    search finds no rational representation."""
    if rho <= 0:
        return None
    num, den = rho.numerator, rho.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Scalar.of(kind, Q(rn, rd))
    if kind.core == "base":
        return None
    weights = (1, abs(kind.d)) if kind.core == "quad" else (1, 1, 1, 1)
    target = num * den
    if target > _NORM_SEARCH_CAP:
        return None
    parts = _represent_int(weights, target)
    if parts is None:
        return None
    return Scalar.of(kind, *(Q(a, den) for a in parts))


def _refuse_alternating(epsilon: int) -> None:
    if epsilon != 1:
        raise UnsupportedFormKind("epsilon = -1 residue forms are not decided")


def anisotropy(b: SMat, kind: ScalarKind, epsilon: int = 1) -> IsotropyResult:
    """Isotropy decision for the residue block gauge b.

    The verdict is anisotropic exactly when the diagonalised form is
    sign-definite.  For an indefinite form, with C^* * b * C = diag(d)
    from ``diagonalize_form``, take d_i > 0 > d_j whose ratio rho =
    -d_j / d_i is a norm: ``represent_norm`` returns y with N(y) = rho
    exactly.  Then v = C * (y * e_i + e_j) is isotropic with no check:
    v^* * b * v = conj(y) * d_i * y + d_j = rho * d_i + d_j = 0, since d_i
    is rational and so central.  And v != 0, since C is invertible and
    the e_j coordinate of y * e_i + e_j is 1.  The witness is v, a tuple
    of n scalars; it is omitted when no ratio is found to be a norm.
    """
    _refuse_alternating(epsilon)
    if kind.ext is not None:
        raise UnsupportedFormKind("residue forms live over unextended scalar kinds")
    for row in b:
        for e in row:
            if e.kind != kind:
                raise ScalarKindMismatch(f"form entry over {e.kind}, expected {kind}")
    n = len(b)
    if any(len(row) != n for row in b) or any(
            b[j][i].conj() != b[i][j] for i in range(n) for j in range(i, n)):
        raise NotEpsilonHermitian("form matrix is not hermitian")
    return _decide_isotropy(b, kind)


def _decide_isotropy(b: SMat, kind: ScalarKind) -> IsotropyResult:
    """The verdict of ``anisotropy`` for a hermitian b over the unextended
    ``kind``, unchecked: diagonalise, then look for a witness."""
    n = len(b)
    diag, trans = diagonalize_form(b)
    pos = sum(1 for d in diag if d > 0)
    neg = n - pos
    signature = tuple(sorted((pos, neg), reverse=True))
    if pos == 0 or neg == 0:
        return IsotropyResult(ANISOTROPIC, signature)
    for i in range(n):
        if diag[i] <= 0:
            continue
        for j in range(n):
            if diag[j] >= 0:
                continue
            y = represent_norm(kind, -Q(diag[j]) / Q(diag[i]))
            if y is not None:
                return IsotropyResult(ISOTROPIC, signature,
                                      tuple(row[i] * y + row[j] for row in trans))
    return IsotropyResult(ISOTROPIC, signature)


def residually_anisotropic(spec: InvolutionSpec) -> bool:
    """True when every residue block of the induced involution is
    anisotropic; a sound obstruction hypothesis, not a classification."""
    return all(r.is_anisotropic for r in residue_isotropy(spec))


def residue_isotropy(spec: InvolutionSpec) -> list[IsotropyResult]:
    """The ``anisotropy`` result of each residue block, in block order."""
    return list(spec._isotropy)


def _isotropy_of(res: ResidueInvolution) -> tuple[IsotropyResult, ...]:
    # the blocks of a well-formed gauge are hermitian over an unextended
    # kind (see the module docstring); only epsilon is left to refuse
    _refuse_alternating(res.epsilon)
    return tuple(_decide_isotropy(blk.gauge, res.kind) for blk in res.blocks)


def distinguish(spec1: InvolutionSpec, spec2: InvolutionSpec) -> DistinguishResult:
    """Sound one-sided non-isomorphism test through residue profiles.

    Compares, as unordered multisets over residue blocks, the triples
    (block size, isotropy verdict, unordered signature pair).  Any
    mismatch certifies non-isomorphism; matching profiles are
    inconclusive.
    """
    if not iso_decide(spec1.order, spec2.order):
        return DistinguishResult(DISTINGUISHED, "underlying orders are non-isomorphic")

    def profile(spec: InvolutionSpec):
        # residue block i has the size of the order's block i
        return sorted((size, iso.verdict, iso.signature)
                      for size, iso in zip(spec.order.sig.parts, residue_isotropy(spec)))

    p1, p2 = profile(spec1), profile(spec2)
    if p1 != p2:
        return DistinguishResult(
            DISTINGUISHED, f"residue profiles differ: {p1} vs {p2}")
    return DistinguishResult(INCONCLUSIVE)
