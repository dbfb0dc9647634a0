"""Seeded session texts whose check verdicts are known by construction.

Each session declares one two-block order (p, q) over a scalar model and
up to four involutions and four witnesses on it (those its checks read).
Every gauge is block-diagonal:
``B1*·D1·B1 ⊕ t·B2*·D2·B2``: B unit upper triangular with ``c0 + c1·t``
entries and D a rational diagonal with drawn signs.

* ``s1`` is the reference gauge.
* ``s2`` is ``s1`` transported through a block unit ``V = L·U`` built
  from unipotent polynomial factors, so ``wB`` (mode base, u = V) and
  ``wF`` (mode F, u = c·V with c = (t+1)/2, alpha = c²) are valid.
* ``s3`` rescales the entries of D in a drawn index set S by 1/e, so
  ``wE`` (mode etale(e), u = B⁻¹·R·B with R = diag(sqrt(e) on S, 1
  elsewhere)) is valid.  For quadratic cores e is sometimes the core's
  own d; the extended scalars then split.
* ``s4`` has fresh B and D, so its residue signatures are drawn anew.
* ``wP`` is ``wB`` with t^N added to one diagonal entry of u, N above
  every degree in play; the identity then fails at that entry's top
  coefficient, so ``verify(wP)`` is false with ``IdentityMismatch``.
* ``wZ`` (quaternion cores only, mode etale(z) with z in -1, -2, -3, where
  the quaternions split) has u = (M ⊕ I)·B with M = e1·I + e2·C on the
  first two indices: e1, e2 = (1 ± x)/2 are orthogonal idempotents
  (x = v·sqrt(z)/(-z), v the sum of the first -z imaginary units, so
  x² = 1 and conj(x) = -x) and C = [[0, 1], [a/b, 0]] for the first two
  entries a, b of D1.  M⁻¹ = e1·I + e2·C⁻¹, so u is invertible, but every
  nonzero entry of its first column is a zero divisor.  ``sZ`` is the
  target M⁻*·Δ·M⁻¹ of Δ = D1 ⊕ t·D2, which is rational:
  [[0, b], [b, 0]] on those two indices, Δ elsewhere; so ``verify(wZ)``
  is true.

Residue block k of an involution is congruent to D_k, so ``aniso`` is
anisotropic exactly when D_k has one sign, and ``distinguish`` compares
the multisets of (block size, verdict, sorted sign counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from algebra import (
    Kind,
    Q,
    block_text,
    m_add,
    m_ctrans,
    m_diag,
    m_dsum,
    m_extend,
    m_identity,
    m_mul,
    m_scale,
    m_unipotent_inverse,
    p_const,
    p_monomial,
    p_scalar,
    p_trim,
    poly_text,
    s_const,
    s_root,
)

QUAD_DS = (-1, -2, -3, -5, -7)
EXT_DS = (-1, -2, -3, 2, 3, 5)
SPLIT_DS = (-1, -2, -3)  # Q(sqrt(z)) splits the quaternions
MAGNITUDES = (Q(1), Q(2), Q(3), Q(1, 2), Q(2, 3), Q(5))


@dataclass(frozen=True)
class Shape:
    """One slot of the corpus schedule: scalar model, block sizes and
    the checks the session runs."""

    core: str
    p: int
    q: int
    checks: tuple[str, ...]

    @property
    def key(self) -> str:
        return f"{self.core}({self.p},{self.q}) {'+'.join(self.checks)}"


@dataclass(frozen=True)
class ExpectedCheck:
    name: str
    func: str
    expected: str
    code: str | None = None  # diagnostics code the detail must start with


@dataclass(frozen=True)
class CorpusSession:
    index: int
    shape: Shape
    kind: str
    ext: int
    text: str
    checks: tuple[ExpectedCheck, ...]


# Checks named in a Shape, each rendered against the fixed declarations.
CHECK_LINES = {
    "wf1": ("wellformed", "wellformed(s1)"),
    "wf2": ("wellformed", "wellformed(s2)"),
    "an1": ("aniso", "aniso(s1, block=1)"),
    "an2": ("aniso", "aniso(s4, block=2)"),
    "ra": ("residually_anisotropic", "residually_anisotropic(s1)"),
    "d12": ("distinguish", "distinguish(s1, s2)"),
    "d13": ("distinguish", "distinguish(s1, s3)"),
    "d14": ("distinguish", "distinguish(s1, s4)"),
    "vB": ("verify", "verify(wB)"),
    "vF": ("verify", "verify(wF)"),
    "vE": ("verify", "verify(wE)"),
    "vP": ("verify", "verify(wP)"),
    "tB": ("transport", "transport(wB, samples=2)"),
    "vZ": ("verify", "verify(wZ)"),
}


def _rand_core(kind: Kind, rng: Random, rational: bool = False) -> tuple:
    """A core scalar whose parts are drawn from +-1, +-2 (only the first
    part when ``rational``), so the cost of arithmetic varies little."""
    parts = [Q(rng.choice((-2, -1, 1, 2))) for _ in range(kind.core_dim)]
    if rational:
        parts[1:] = [Q(0)] * (kind.core_dim - 1)
    return tuple(parts)


def _rand_entry(kind: Kind, rng: Random, rational: bool = False) -> tuple:
    """c0 + c1*t with both coefficients nonzero."""
    return (_rand_core(kind, rng, rational), _rand_core(kind, rng, rational))


def _unit_upper(kind: Kind, rng: Random, size: int, rational: bool = False) -> tuple:
    rows = [[p_const(kind, 1) if i == j else () for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rows[i][j] = _rand_entry(kind, rng, rational)
    return tuple(tuple(r) for r in rows)


def _block_unit(kind: Kind, rng: Random, size: int) -> tuple:
    """L·U: L unit lower with constant entries, U unit upper bidiagonal
    with c0 + c1*t entries."""
    lower = [[p_const(kind, 1) if i == j else () for j in range(size)] for i in range(size)]
    upper = [[p_const(kind, 1) if i == j else () for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(i):
            lower[i][j] = p_scalar(kind, _rand_core(kind, rng))
        if i + 1 < size:
            upper[i][i + 1] = _rand_entry(kind, rng)
    return tuple(map(tuple, lower)), tuple(map(tuple, upper))


def split_idempotents(zk: Kind) -> tuple[tuple, tuple]:
    """e1, e2 = (1 ± x)/2 over the quaternions extended by sqrt(z), z in
    SPLIT_DS: x = v·sqrt(z)/(-z) with v the sum of the first -z imaginary
    units, so x² = 1, e1·e2 = 0 and e1 + e2 = 1."""
    x = [Q(0)] * zk.dim
    for i in range(1, 1 - zk.ext):
        x[zk.core_dim + i] = Q(1, -zk.ext)
    one = s_const(zk, 1)
    return (tuple((c + y) / 2 for c, y in zip(one, x)),
            tuple((c - y) / 2 for c, y in zip(one, x)))


def zero_divisor_block(zk: Kind, a: Fraction, b: Fraction) -> tuple[tuple, tuple]:
    """(M, M⁻¹) for M = e1·I + e2·C, C = [[0, 1], [a/b, 0]], as 2x2 rows of
    constant polynomials.  Both entries of M's first column are zero
    divisors, and tau(M)·[[0, b], [b, 0]]·M = diag(a, b)."""
    e1, e2 = split_idempotents(zk)

    def block(c01, c10):
        return ((p_scalar(zk, e1), p_scalar(zk, tuple(c01 * c for c in e2))),
                (p_scalar(zk, tuple(c10 * c for c in e2)), p_scalar(zk, e1)))

    return block(Q(1), a / b), block(b / a, Q(1))


def _signs(rng: Random, size: int) -> list[int]:
    return [rng.choice((1, -1)) for _ in range(size)]


def _diag_values(rng: Random, signs: list[int]) -> list[Fraction]:
    return [s * rng.choice(MAGNITUDES) for s in signs]


def _gauge(kind: Kind, b, d1, d2) -> tuple:
    """B*·(D1 ⊕ t·D2)·B for block-diagonal B."""
    delta = m_diag(kind, [p_const(kind, x) for x in d1] + [p_monomial(kind, 1, x) for x in d2])
    return m_mul(kind, m_mul(kind, m_ctrans(kind, b), delta), b)


def _profile(d1, d2) -> list:
    out = []
    for block in (d1, d2):
        pos = sum(1 for x in block if x > 0)
        neg = len(block) - pos
        verdict = "anisotropic" if pos == 0 or neg == 0 else "isotropic"
        out.append((len(block), verdict, tuple(sorted((pos, neg), reverse=True))))
    return sorted(out)


def _verdict(block) -> str:
    return "anisotropic" if all(x > 0 for x in block) or all(x < 0 for x in block) else "isotropic"


def _degree(m) -> int:
    return max((len(x) - 1 for row in m for x in row if x), default=0)


# What each check reads, and what each declaration reads.
_CHECK_USES = {
    "wf1": ("s1",), "wf2": ("s2",), "an1": ("s1",), "an2": ("s4",), "ra": ("s1",),
    "d12": ("s1", "s2"), "d13": ("s1", "s3"), "d14": ("s1", "s4"),
    "vB": ("wB",), "vF": ("wF",), "vE": ("wE",), "vP": ("wP",), "tB": ("wB",), "vZ": ("wZ",),
}
_DECL_USES = {"wB": ("s1", "s2"), "wF": ("s1", "s2"), "wE": ("s1", "s3"), "wP": ("s1", "s2"),
              "wZ": ("s1", "sZ")}
_DECL_ORDER = ("s1", "s2", "s3", "s4", "sZ", "wB", "wF", "wE", "wP", "wZ")


def make_session(seed: int, index: int, shape: Shape) -> CorpusSession:
    """Session ``index`` of the corpus for ``seed``.  All random draws are
    made in a fixed order whatever the checks; only the declarations the
    checks read are computed and written."""
    rng = Random(f"corpus:{seed}:{index}")
    core = shape.core
    kind = Kind(core, rng.choice(QUAD_DS) if core == "quad" else None)
    if core == "quad" and rng.random() < 0.5:
        ext = kind.d  # split case: the extension root equals the core's sqrt(d)
    else:
        ext = rng.choice([e for e in EXT_DS if e != kind.d])
    p, q = shape.p, shape.q
    n = p + q
    # In the split case B is rational, because session syntax reads
    # sqrt(d) inside an etale(d) witness as the adjoined root and has no
    # name left for the core's sqrt(d).
    split = core == "quad" and ext == kind.d
    b = m_dsum(_unit_upper(kind, rng, p, split), _unit_upper(kind, rng, q, split))
    d1, d2 = _diag_values(rng, _signs(rng, p)), _diag_values(rng, _signs(rng, q))
    (l1, u1), (l2, u2) = _block_unit(kind, rng, p), _block_unit(kind, rng, q)
    chosen = [rng.random() < 0.5 for _ in range(n)]
    if not any(chosen):
        chosen[rng.randrange(n)] = True
    b4 = m_dsum(_unit_upper(kind, rng, p), _unit_upper(kind, rng, q))
    d41, d42 = _diag_values(rng, _signs(rng, p)), _diag_values(rng, _signs(rng, q))
    d3 = [x / ext if c else x for x, c in zip(d1 + d2, chosen)]
    split_ext = rng.choice(SPLIT_DS)
    if "vZ" in shape.checks and (core != "quat" or p < 2):
        raise ValueError("verify(wZ) needs a quaternion core and p >= 2")

    needed = {name for key in shape.checks for name in _CHECK_USES[key]}
    needed |= {name for w in list(needed) for name in _DECL_USES.get(w, ())}
    sizes = (p, q)
    ek = kind.extended(ext)
    cache: dict = {}

    def get(name):
        if name not in cache:
            cache[name] = build[name]()
        return cache[name]

    def transported():
        # V^-* · a1 · V^-1 with V^-1 = U^-1 · L^-1 blockwise
        w = m_dsum(m_mul(kind, m_unipotent_inverse(kind, u1), m_unipotent_inverse(kind, l1)),
                   m_mul(kind, m_unipotent_inverse(kind, u2), m_unipotent_inverse(kind, l2)))
        return m_mul(kind, m_mul(kind, m_ctrans(kind, w), get("s1")), w)

    def u_etale():
        b_inv = m_dsum(m_unipotent_inverse(kind, tuple(tuple(r[:p]) for r in b[:p])),
                       m_unipotent_inverse(kind, tuple(tuple(r[p:]) for r in b[p:])))
        root = m_diag(ek, [p_scalar(ek, s_root(ek)) if c else p_const(ek, 1) for c in chosen])
        return m_mul(ek, m_mul(ek, m_extend(kind, b_inv), root), m_extend(kind, b))

    def u_perturbed():
        # V plus t^N on a diagonal entry j with a2[j][j] != 0.
        a2, v = get("s2"), get("V")
        j = next(i for i in range(n) if a2[i][i])
        big = _degree(a2) + _degree(v) + 1
        return m_add(kind, v, tuple(tuple(p_monomial(kind, big) if (r, c) == (j, j) else ()
                                          for c in range(n)) for r in range(n)))

    zk = kind.extended(split_ext)

    def u_zero_divisor():
        m = [list(r) for r in m_identity(zk, n)]
        block, _ = zero_divisor_block(zk, d1[0], d1[1])
        m[0][:2], m[1][:2] = block
        return m_mul(zk, tuple(map(tuple, m)), m_extend(kind, b))

    def zero_divisor_target():
        entries = [p_const(kind, x) for x in d1] + [p_monomial(kind, 1, x) for x in d2]
        rows = [list(r) for r in m_diag(kind, entries)]
        rows[0][0] = rows[1][1] = ()
        rows[0][1] = rows[1][0] = p_const(kind, d1[1])
        return tuple(map(tuple, rows))

    half = p_trim((s_const(kind, Q(1, 2)), s_const(kind, Q(1, 2))))  # c = (t + 1)/2
    build = {
        "s1": lambda: _gauge(kind, b, d1, d2),
        "V": lambda: m_dsum(m_mul(kind, l1, u1), m_mul(kind, l2, u2)),
        "s2": transported,
        "s3": lambda: _gauge(kind, b, d3[:p], d3[p:]),
        "s4": lambda: _gauge(kind, b4, d41, d42),
        "sZ": zero_divisor_target,
        "wB": lambda: get("V"),
        "wF": lambda: m_scale(kind, half, get("V")),
        "wE": u_etale,
        "wP": u_perturbed,
        "wZ": u_zero_divisor,
    }
    alpha_f = poly_text(kind, p_trim(tuple(s_const(kind, x) for x in (Q(1, 4), Q(1, 2), Q(1, 4)))))
    witness_head = {"wB": ("s2", "base", kind, "1"), "wF": ("s2", "F", kind, alpha_f),
                    "wE": ("s3", f"etale({ext})", ek, "1"), "wP": ("s2", "base", kind, "1"),
                    "wZ": ("sZ", f"etale({split_ext})", zk, "1")}

    lines = [
        f"# corpus session {index}: {shape.key} over {kind.division_text}, etale({ext})",
        f"division D = {kind.division_text} s=1 t=1",
        f"order A = block(D; {p},{q})",
    ]
    for name in _DECL_ORDER:
        if name not in needed:
            continue
        if name.startswith("s"):
            lines.append(f"involution {name} on A : gauge {block_text(kind, get(name), sizes)} "
                         f"eps +1 conj {kind.conj_word}")
        else:
            target, mode, wkind, alpha = witness_head[name]
            lines.append(f"witness {name} : from s1 to {target} mode {mode} "
                         f"u {block_text(wkind, get(name), sizes)} alpha {alpha}")

    prof1, prof3, prof4 = _profile(d1, d2), _profile(d3[:p], d3[p:]), _profile(d41, d42)
    expected = {
        "wf1": ("true", None), "wf2": ("true", None),
        "an1": (_verdict(d1), None), "an2": (_verdict(d42), None),
        "ra": ("true" if _verdict(d1) == _verdict(d2) == "anisotropic" else "false", None),
        "d12": ("inconclusive", None),
        "d13": ("inconclusive" if prof1 == prof3 else "distinguished", None),
        "d14": ("inconclusive" if prof1 == prof4 else "distinguished", None),
        "vB": ("true", None), "vF": ("true", None), "vE": ("true", None),
        "vP": ("false", "IdentityMismatch"),
        "tB": ("true", None),
        "vZ": ("true", None),
    }
    checks = []
    for key in shape.checks:
        func, call = CHECK_LINES[key]
        verdict, code = expected[key]
        lines.append(f"check {key} = {call} expect {verdict}")
        checks.append(ExpectedCheck(key, func, verdict, code))
    return CorpusSession(index, shape, kind.division_text, ext,
                         "\n".join(lines) + "\n", tuple(checks))
