"""Twisted involutions on block orders and their residue isotropy.

An involution here is x -> a^-1 * tau(x) * a where tau is the
conjugate-transpose over the coefficient scalars and the gauge a
satisfies tau(a) = epsilon * a.  For gauges that are block-diagonal with
each block a power of t times a unit block, the involution descends to
the semisimple quotient blockwise; isotropy of each residue block is
decided by congruence-diagonalising the residue gauge.  Because every
scalar model has a positive definite norm form, the verdict is read off
the signs of the diagonal entries.  An isotropic vector is built when a
bounded search (``represent_norm``) finds a ratio of diagonal entries to
be a norm; otherwise the verdict stands and the witness is omitted.

Well-formedness is decided from entry valuations, without matrix
products, first by lattice-chain duality (Reiner, *Maximal Orders*,
section 39; Bruhat and Tits, *Bull. Soc. Math. France* 112, 1984).  The
order has n positions and blocks 0, ..., r - 1; blk(j) is the block of
position j and S_c the start of block c.  For integers f let L(f) be the
lattice of columns x with v(x_j) >= f_j, and L(f)^v = L(-f) its dual;
End L(f) is the x with v(x_ij) >= f_i - f_j, and vol L(f) = sum f
measures it: for lattices M in N, N / M has length vol M - vol N over
D[[t]], so an inclusion of lattices of equal volume is an equality.
L_c = L(f) with f_j = [blk(j) < c], and the largest f_i - f_j over c
is [blk(i) < blk(j)] = P[i][j], the order pattern, so the order is the
intersection of the End L_c.  sigma is the adjoint of the form h(v, w)
= tau(v) * a * w, as h(x * v, w) = h(v, sigma(x) * w); so sigma(End L)
fixes the dual of L under h, {w : h(L, w) is integral} = a^-1 * L^v,
that is sigma(End L) is in End(a^-1 * L^v).  With delta = v(det a), the
valuation of the Dieudonne determinant, vol(a * M) = vol M + delta;
``JetMatrix._leading_delta`` reads delta off the leading coefficients of
a when every component is a unit (see the ``matrices`` module
docstring).  For each block b take the one c with S_c
= -S_b - delta mod n and k = (-S_b - delta - S_c) / n; the test asks
v(a[i][j]) + k + [blk(j) < c] >= -[blk(i) < b] for every nonzero
a[i][j], that is a * t^k * L_c in L_b^v.  Both sides have volume -S_b
(vol L_c = S_c), so a^-1 * L_b^v = t^k * L_c, and sigma(End L_b) is in
End(t^k * L_c) = End L_c.  Distinct b have distinct S_b, hence distinct
c: b -> c permutes the blocks, and sigma maps the order into the
intersection of the End L_c, the order.  The test reads least[b][c], the
least valuation of a nonzero entry of block (b, c), in O(r^3) steps,
with no a^-1.

Every stable gauge passes it: sigma(Lambda) = Lambda makes the dual
a^-1 * L_b^v of each L_b a Lambda-lattice (h(L, x * w) = h(sigma(x) * L,
w)), and the Lambda-lattices are the t^k * L_c, whose volumes give c and
k as above.  Its delta is read off too: at b = 0 the equality reads
a * t^k * L_c = L_0^v = D[[t]]^n, so w = a * t^k * diag(t^[blk(j) < c])
is in GL_n(D[[t]]), and column j of a has least exponent -k - [blk(j) < c],
with coefficients there column j of w(0), a unit.  As a = epsilon *
tau(a), the leading matrix of a's rows is epsilon * tau(w(0)), a unit
whose nonzero pattern lies in a's, so that of each component is a unit
block of it.  A gauge whose delta is not read off is thus unstable or
singular.  Both facts decide only speed: such a gauge, or one the test
refuses, takes the row-by-row pass below, which alone raises
NotInvertible or NotStable and names the failing generator; if it finds
none, the gauge is stable.

The row-by-row pass reads the involution on generators.  It sends the
order generator t^P[i][j] * e_ij to the matrix with entries a^-1[k][j]
* t^P[i][j] * a[i][l].  Gauges live over unextended kinds, which have no
zero divisors, so the valuation of that product is the sum of the
factors' valuations plus P[i][j] (a zero factor gives +infinity).
Stability is therefore the integer inequality v(a^-1[k][j]) + P[i][j] +
v(a[i][l]) >= P[k][l] for all i, j, k, l, the min-plus statement
V(a^-1) * P^T * V(a) >= P, decided in O(n^2) per row i: with w[k] the
least v(a[i][l]) - P[k][l] over the nonzero a[i][l] (a zero row has
raised NotInvertible in ``inverse_valuations``), (i, j) fails exactly when
v(a^-1[k][j]) + P[i][j] + w[k] < 0 for some k.  That sigma squares to
the identity needs no check: tau(a) = epsilon * a gives tau(a^-1) =
epsilon * a^-1, hence sigma(sigma(x)) = a^-1 * tau(a) * x * tau(a^-1) *
a = x.

The valuations of a^-1 are exact: ``JetMatrix.inverse_valuations``
reads them from one fraction-free elimination per connected component
of the nonzero pattern of a (see the ``matrices`` module docstring);
a 1 x 1 unit needs none, and a singular component raises before any.

tau(a) = epsilon * a is compared in place, entry by entry for i <= j:
tau(a)[i][j] = conj(a[j][i]), and conjugation keeps a coefficient's
denominator and window, so a[i][j] and a[j][i] must share their lowest
exponent and length, and each coefficient of a[i][j] must have its
partner's denominator and the conjugated (for epsilon = -1 also
negated) numerators.  The pair (j, i) is the conjugate of that
condition, so no tau(a) and no -a is built.  The same pass records the
block table least[b][c] from both entries of a pair, and the chain test
and the residue data read it instead of the gauge.  The coefficient at
t^m of each diagonal block is then epsilon-hermitian (t is central and
conjugation-fixed) over the gauge's kind, which is unextended (a
``DivisionSpec`` refuses any other); ``diagonalize_form`` checks it
again on the integer pairs it builds anyway.

Each ``InvolutionSpec`` checks well-formedness, keeping the block table,
and computes its residue data and the diagonalisation of each residue
block at most once; a failed check is raised again on every call.  A
block's verdict and signature are read off the signs of its diagonal, so
``residually_anisotropic`` and ``distinguish`` never search for a
witness; ``residue_isotropy`` searches on the same diagonalisations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt
from operator import index

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
from .orders import BlockOrder, Signature, iso_decide, pattern_of
from .scalars import Q, Scalar, ScalarKind, _conj_parts, _mul_parts, _raw

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
        if index(self.epsilon) not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if self.gauge.kind != self.order.division.kind:
            raise ScalarKindMismatch(
                f"gauge over {self.gauge.kind}, order over {self.order.division.kind}")
        if self.gauge.n != self.order.sig.n:
            raise SizeMismatch(
                f"gauge is {self.gauge.n}x{self.gauge.n}, order has size {self.order.sig.n}")

    # Memos outside eq, hash and repr; a call that raises stores nothing.
    _checked = cached_property(lambda self: _require_wellformed(self))
    _residue = cached_property(lambda self: _residue_of(self, self._checked))
    _forms = cached_property(lambda self: _forms_of(self._residue))
    _isotropy = cached_property(lambda self: tuple(
        _with_witness(form, self._residue.kind) for form in self._forms))


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


def _hermitian_blocks(a: JetMatrix, epsilon: int, sig: Signature) -> tuple | None:
    """The block table least[b][c] of the module docstring (None for a zero
    block) if tau(a) = epsilon * a, compared in place, else None.  The
    pass reads i <= j: a hermitian a has v(a[j][i]) = v(a[i][j])."""
    kind, rows = a.kind, a.rows
    blk = [b for b, size in enumerate(sig.parts) for _ in range(size)]
    least = [[None] * len(sig.parts) for _ in sig.parts]
    for i, row in enumerate(rows):
        bi = blk[i]
        for j in range(i, len(rows)):
            x, y = row[j], rows[j][i]
            if x.lowest_exp != y.lowest_exp or len(x.coeffs) != len(y.coeffs):
                return None
            for c, d in zip(x.coeffs, y.coeffs):
                want = _conj_parts(kind, d.num)
                if epsilon == -1:
                    want = tuple(-v for v in want)
                if c.den != d.den or c.num != want:
                    return None
            bj, v = blk[j], x.lowest_exp
            if x.coeffs and (least[bi][bj] is None or v < least[bi][bj]):
                least[bi][bj] = least[bj][bi] = v
    return tuple(map(tuple, least))


def _require_wellformed(spec: InvolutionSpec) -> tuple:
    """The block table of a well-formed gauge; the first failure raises."""
    a, sig = spec.gauge, spec.order.sig
    least = _hermitian_blocks(a, spec.epsilon, sig)
    if least is None:
        raise NotEpsilonHermitian(f"tau(a) != {spec.epsilon:+d}*a")
    if (delta := a._leading_delta()) is None or not _maps_chain_to_dual(sig, least, delta):
        _require_stable(spec)
    return least


def _maps_chain_to_dual(sig: Signature, least: tuple, delta: int) -> bool:
    """a * t^k * L_c = L_b^v for every block b, with c and k read off the
    volumes, from v(det a) = delta and the block table (module docstring)."""
    n, starts = sig.n, sig.block_starts()
    block_at = {start: c for c, start in enumerate(starts)}
    for b, start in enumerate(starts):
        c = block_at.get((-start - delta) % n)
        if c is None:
            return False
        k = (-start - delta - starts[c]) // n
        for bb, row in enumerate(least):
            for cc, v in enumerate(row):
                if v is not None and v + k + (cc < c) + (bb < b) < 0:
                    return False
    return True


def _require_stable(spec: InvolutionSpec) -> None:
    """The row-by-row pass of the module docstring: NotStable naming the
    first generator whose image leaves the order, if any."""
    a = spec.gauge
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

    Stability is read off the valuations of a and of delta = v(det a),
    and on a gauge whose leading coefficients do not give delta, or that
    test refuses, off the exact valuations of a^-1 (see the module
    docstring); sigma^2 = id follows from the hermitian check.
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


def _residue_of(spec: InvolutionSpec, least: tuple) -> ResidueInvolution:
    sig, rows = spec.order.sig, spec.gauge.rows
    blocks = []  # the diagonal blocks cover the rows in order
    for b, (start, size) in enumerate(zip(sig.block_starts(), sig.parts)):
        end = start + size
        if any(v is not None for c, v in enumerate(least[b]) if c != b):
            i, j = next((i, j) for i in range(start, end) for j, x in enumerate(rows[i])
                        if x.coeffs and not start <= j < end)
            raise UnsupportedGaugeShape(f"gauge mixes blocks at entry {i + 1},{j + 1}")
        m = least[b][b]
        blocks.append(ResidueBlock(size, m, tuple(tuple(x.coeff(m) for x in row[start:end])
                                                  for row in rows[start:end])))
    return ResidueInvolution(spec.gauge.kind, spec.epsilon, tuple(blocks))


# ---------------------------------------------------------------------------
# Hermitian diagonalisation and isotropy


def diagonalize_form(b: SMat) -> tuple[list[Fraction], SMat]:
    """Congruence-diagonalise a hermitian scalar matrix.

    Returns (diagonal entries, C) with conj-transpose(C) * b * C equal
    to the diagonal matrix.  The diagonal entries of a hermitian form
    over these unextended scalar models are conjugation-fixed, hence
    rational; an extended kind raises UnsupportedFormKind, and an entry
    of another kind than the first raises ScalarKindMismatch.  Every
    returned entry is nonzero: each pivot is nonzero when it is chosen (a
    zero diagonal with a nonzero entry w at (i, j) first becomes
    2 * w * conj(w) > 0 at i), and no later step touches its row or
    column.  A form with no such pivot raises SingularForm, and a matrix
    that is not square or not hermitian raises NotEpsilonHermitian.

    The work runs on integer pairs (numerators, denominator) in lowest
    terms, as a :class:`Scalar` stores them, with one gcd per update, so
    each step builds no Scalar; only the pivots and C become scalars.
    """
    n = len(b)
    if not n:
        return [], ()
    if any(len(row) != n for row in b):
        raise NotEpsilonHermitian("form matrix is not hermitian")
    kind = b[0][0].kind
    if kind.ext is not None:
        raise UnsupportedFormKind("residue forms live over unextended scalar kinds")
    for row in b:
        for e in row:
            if e.kind is not kind and e.kind != kind:
                raise ScalarKindMismatch(f"form entry over {e.kind}, expected {kind}")
    zero, one = ((0,) * kind.dim, 1), ((1,) + (0,) * (kind.dim - 1), 1)
    work = [[(e.num, e.den) for e in row] for row in b]
    # conjugation keeps a pair in lowest terms, so pairs compare exactly
    if any(work[i][j] != (_conj_parts(kind, work[j][i][0]), work[j][i][1])
           for i in range(n) for j in range(i, n)):
        raise NotEpsilonHermitian("form matrix is not hermitian")
    trans = [[one if i == j else zero for j in range(n)] for i in range(n)]

    def col_add(j: int, k: int, cn: tuple, cd: int) -> None:
        # basis change e_j <- e_j + e_k * c, applied two-sidedly, c = cn / cd
        for rows in (work, trans):
            for row in rows:
                xn, xd = row[k]
                if any(xn):
                    row[j] = _plus(row[j], _mul_parts(kind, xn, cn), xd * cd)
        ccn, top = _conj_parts(kind, cn), work[k]
        work[j] = [_plus(x, _mul_parts(kind, ccn, yn), cd * yd) if any(yn) else x
                   for x, (yn, yd) in zip(work[j], top)]

    def col_swap(j: int, k: int) -> None:
        for rows in (work, trans):
            for row in rows:
                row[j], row[k] = row[k], row[j]
        work[j], work[k] = work[k], work[j]

    diag = []
    for k in range(n):
        if not any(work[k][k][0]):
            swap = next((l for l in range(k + 1, n) if any(work[l][l][0])), None)
            if swap is not None:
                col_swap(k, swap)
            else:
                found = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                              if any(work[i][j][0])), None)
                if found is None:
                    raise SingularForm("form vanishes on a nonzero subspace")
                i, j = found
                wn, wd = work[i][j]
                col_add(i, j, _conj_parts(kind, wn), wd)
                if i != k:
                    col_swap(k, i)
        pivot = _raw(kind, *work[k][k]).rational_value()
        diag.append(pivot)
        f = Q(-1) / pivot
        for j in range(k + 1, n):
            xn, xd = work[k][j]
            if any(xn):
                col_add(j, k, tuple([f.numerator * v for v in xn]), xd * f.denominator)
    return diag, tuple(tuple([_raw(kind, *x) for x in row]) for row in trans)


def _plus(x: tuple, num: tuple, den: int) -> tuple:
    """The pair of x + num / den in lowest terms, den > 0: one gcd."""
    xn, xd = x
    if xd == den:
        out = tuple([a + b for a, b in zip(xn, num)])
    else:
        out = tuple([a * den + b * xd for a, b in zip(xn, num)])
        den *= xd
    g = gcd(den, *out)
    return (tuple([v // g for v in out]), den // g) if g != 1 else (out, den)


def _represent_int(weights: tuple[int, ...], target: int) -> tuple[int, ...] | None:
    """One integer solution of sum(w_i * a_i^2) = target, if any.

    target >= 0: ``represent_norm`` passes num * den > 0, and each
    recursive call subtracts w * a^2 <= w * (target // w) <= target.  For
    the last weight only the largest a, isqrt(target // w), can leave no
    remainder: any smaller a has w * a^2 < w * isqrt(target // w)^2 <=
    target."""
    w, others = weights[0], weights[1:]
    a = isqrt(target // w)
    if not others:
        return (a,) if w * a * a == target else None
    while a >= 0:
        rest = _represent_int(others, target - w * a * a)
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
    return _with_witness(diagonalize_form(b), kind)


def _verdict_of(diag: list[Fraction]) -> IsotropyResult:
    """Verdict and unordered signature pair of a diagonalised form."""
    pos = sum(1 for d in diag if d > 0)
    neg = len(diag) - pos
    return IsotropyResult(ANISOTROPIC if pos == 0 or neg == 0 else ISOTROPIC,
                          tuple(sorted((pos, neg), reverse=True)))


def _with_witness(form: tuple[list[Fraction], SMat], kind: ScalarKind) -> IsotropyResult:
    """The verdict of a diagonalised form (diag, C), with an isotropic
    vector if the search of ``anisotropy`` finds one."""
    diag, trans = form
    result = _verdict_of(diag)
    if result.is_anisotropic:
        return result
    n = len(diag)
    for i in range(n):
        if diag[i] <= 0:
            continue
        for j in range(n):
            if diag[j] >= 0:
                continue
            y = represent_norm(kind, -Q(diag[j]) / Q(diag[i]))
            if y is not None:
                return IsotropyResult(ISOTROPIC, result.signature,
                                      tuple(row[i] * y + row[j] for row in trans))
    return result


def residually_anisotropic(spec: InvolutionSpec) -> bool:
    """True when every residue block of the induced involution is
    anisotropic; a sound obstruction hypothesis, not a classification."""
    return all(r.is_anisotropic for r in _residue_verdicts(spec))


def residue_isotropy(spec: InvolutionSpec) -> list[IsotropyResult]:
    """The ``anisotropy`` result of each residue block, in block order."""
    return list(spec._isotropy)


def _residue_verdicts(spec: InvolutionSpec) -> list[IsotropyResult]:
    """The verdict and signature of each residue block, in block order,
    read off its diagonal: ``residue_isotropy`` without the witnesses."""
    return [_verdict_of(diag) for diag, _ in spec._forms]


def _forms_of(res: ResidueInvolution) -> tuple[tuple[list[Fraction], SMat], ...]:
    # the blocks of a well-formed gauge are hermitian over an unextended
    # kind (see the module docstring); epsilon is left to refuse
    _refuse_alternating(res.epsilon)
    return tuple(diagonalize_form(blk.gauge) for blk in res.blocks)


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
                      for size, iso in zip(spec.order.sig.parts, _residue_verdicts(spec)))

    p1, p2 = profile(spec1), profile(spec2)
    if p1 != p2:
        return DistinguishResult(
            DISTINGUISHED, f"residue profiles differ: {p1} vs {p2}")
    return DistinguishResult(INCONCLUSIVE)
