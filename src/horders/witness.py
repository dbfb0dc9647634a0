"""Exact verification of involution-transport witnesses and replays.

A witness is a matrix u together with a scaling factor alpha such that
tau(u) * a2 * u = alpha * a1 over a declared coefficient ring: the
generic fibre (Laurent field), the base coefficient ring itself, or a
quadratic etale extension of it.  When the identity holds and u is a
unit of the declared ring, conjugation by u transports the first
twisted involution to the second over that ring.  All identity checks
demand exact Laurent polynomials on both sides; a precision-limited
tail is an error, never a pass.

Nothing is inverted and nothing is sampled: every question is an exact
identity or asks whether a rational matrix is singular.

* Units lift modulo the Jacobson radical (Reiner, *Maximal Orders*,
  ch. 9), and a block order modulo its radical is the product of its
  residue diagonal blocks: u in the order is a unit iff the t^0
  coefficients of every diagonal block form an invertible matrix.
* The commutant of a full lattice in M_n(D((t))) is the centre: u
  transports sigma1 to sigma2 (tau(x) * W = W * sigma1(x) on the order,
  W = tau(u) * a2 * u) iff W = c * a1 with c central.

Invertibility over the Laurent field is decided exactly by
``JetMatrix.field_invertible``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .basechange import becomes_iso_after_sh, verify_sh_pattern
from .errors import (
    Diagnostics,
    InsufficientPrecision,
    OK,
    ScalarKindMismatch,
    SizeMismatch,
    UnknownScenario,
    failure,
)
from .involutions import (
    ISOTROPIC,
    InvolutionSpec,
    anisotropy,
    apply_tau,
    distinguish,
    residue_involution,
    smat_conj_transpose,
    smat_invertible,
    smat_is_zero,
    smat_mul,
    wellformed,
)
from .matrices import JetMatrix
from .orders import (
    BlockOrder,
    DivisionSpec,
    SemisimpleOrder,
    Signature,
    meets_pattern,
    pattern_of,
    ss_iso_decide,
)
from .scalars import BASE, QUATERNION, LaurentJet, Q, Scalar, ScalarKind, quadratic

GENERIC_FIBER = "generic-fiber"
BASE_RING = "base"
ETALE = "etale"


@dataclass(frozen=True)
class RingMode:
    """Coefficient ring over which a witness is asserted."""

    ring: str
    d: int | None = None

    def __post_init__(self):
        if self.ring not in (GENERIC_FIBER, BASE_RING, ETALE):
            raise ValueError(f"unknown ring mode {self.ring!r}")
        if (self.ring == ETALE) != (self.d is not None):
            raise ValueError("exactly the etale mode carries a discriminant")

    def __str__(self) -> str:
        return f"etale({self.d})" if self.ring == ETALE else self.ring


MODE_F = RingMode(GENERIC_FIBER)
MODE_BASE = RingMode(BASE_RING)


def mode_etale(d: int) -> RingMode:
    return RingMode(ETALE, d)


@dataclass(frozen=True)
class WitnessCheck:
    """tau(u) * a2 * u = alpha * a1 between two involutions on one order."""

    u: JetMatrix
    alpha: LaurentJet
    mode: RingMode
    spec1: InvolutionSpec
    spec2: InvolutionSpec

    def __post_init__(self):
        if self.spec1.order != self.spec2.order:
            raise SizeMismatch("witness endpoints must share one order")
        if self.u.n != self.spec1.order.sig.n:
            raise SizeMismatch(
                f"witness is {self.u.n}x{self.u.n}, order has size {self.spec1.order.sig.n}")
        allowed = {self._work_kind(), self.spec1.order.division.kind}
        if self.u.kind not in allowed or self.alpha.kind not in allowed:
            raise ScalarKindMismatch(
                f"witness entries must live over {self._work_kind()}")

    def _work_kind(self) -> ScalarKind:
        kind = self.spec1.order.division.kind
        return kind.extended(self.mode.d) if self.mode.ring == ETALE else kind


def _promote(x, kind: ScalarKind):
    return x if x.kind == kind else x.extended(kind.ext)


def _exact_operands(w: WitnessCheck):
    """u, a1, a2 and alpha over the working kind; all must be exact."""
    if not all(x.is_exact for x in (w.u, w.spec1.gauge, w.spec2.gauge, w.alpha)):
        raise InsufficientPrecision(
            "witness identities are exact polynomial checks; all inputs must be exact")
    kind = w._work_kind()
    return tuple(_promote(x, kind) for x in (w.u, w.spec1.gauge, w.spec2.gauge, w.alpha))


def _is_mode_coefficient(s: Scalar) -> bool:
    # coefficients of elements of the declared ring: rational, plus a
    # rational multiple of the adjoined square root in the etale case
    m = s.kind.core_dim
    if any(p != 0 for p in s.parts[1:m]):
        return False
    if s.kind.ext is not None and any(p != 0 for p in s.parts[m + 1:]):
        return False
    return True


def _alpha_unit(w: WitnessCheck, alpha: LaurentJet) -> Diagnostics:
    if any(not _is_mode_coefficient(c) for c in alpha.coeffs):
        return failure("NotUnit", f"alpha = {alpha} does not lie in the {w.mode} ring")
    if alpha.is_zero():
        return failure("NotUnit", "alpha is zero")
    v = alpha.valuation()
    if w.mode.ring == GENERIC_FIBER:
        return OK
    if v != 0:
        return failure("NotUnit", f"alpha = {alpha} has valuation {v}, not a unit")
    return OK


def _is_central(s: Scalar) -> bool:
    # only the quaternion units fail to commute with every scalar
    return s.kind.core != "quat" or all(p == 0 for p in s.parts[1:4] + s.parts[5:])


def verify_witness(w: WitnessCheck) -> Diagnostics:
    """Check the transport identity exactly, then invertibility of u over
    the Laurent field, then (base and etale modes) that u is a unit of
    the order, then that alpha is a unit of the declared ring."""
    u, a1, a2, alpha = _exact_operands(w)

    lhs = apply_tau(u) @ a2 @ u
    rhs = a1.lscale(alpha)
    if lhs != rhs:
        bad = next((i, j) for i in range(u.n) for j in range(u.n)
                   if lhs.entry(i, j) != rhs.entry(i, j))
        return failure(
            "IdentityMismatch",
            f"tau(u)*a2*u != alpha*a1 at entry {bad[0] + 1},{bad[1] + 1}: "
            f"{lhs.entry(*bad)} vs {rhs.entry(*bad)}")

    if not u.field_invertible():
        return failure("NotInvertible", "u is not invertible over the Laurent field")
    if w.mode.ring in (BASE_RING, ETALE):
        sig = w.spec1.order.sig
        ok, bad = meets_pattern(u, pattern_of(sig))
        if not ok:
            return failure(
                "NotContained",
                f"u entry {bad[0] + 1},{bad[1] + 1} = {u.entry(*bad)} violates the order pattern")
        for k, (start, size) in enumerate(zip(sig.block_starts(), sig.parts)):
            block = tuple(tuple(u.entry(i, j).coeff(0) for j in range(start, start + size))
                          for i in range(start, start + size))
            if not smat_invertible(block):
                return failure(
                    "NotInvertible",
                    f"u is not a unit of the order: residue block {k + 1} is singular")

    return _alpha_unit(w, alpha)


def transport_check(w: WitnessCheck, samples: int | None = None) -> Diagnostics:
    """Decide exactly that a1 and u are invertible and W = tau(u) * a2 * u
    is c * a1 with c central: with a = a1[p][q] the first nonzero entry,
    N = a * conj(a) is a nonzero rational, c = m / N for m = W[p][q] *
    conj(a), so m must be central and N * W = m * a1 entrywise.

    ``samples`` has no effect, since the check is exact; it is still
    accepted because ``perfbench/baselines.py`` passes it.
    """
    u, a1, a2, _ = _exact_operands(w)
    if not a1.field_invertible():
        return failure("NotInvertible", "first gauge is not invertible over the Laurent field")
    if not u.field_invertible():
        return failure("NotInvertible", "u is not invertible over the Laurent field")
    big = apply_tau(u) @ a2 @ u
    cells = [(i, j) for i in range(u.n) for j in range(u.n)]
    p, q = next((i, j) for i, j in cells if not a1.entry(i, j).is_zero())
    abar = a1.entry(p, q).conj()
    norm = a1.entry(p, q) * abar
    m = big.entry(p, q) * abar
    if not all(_is_central(c) for c in m.coeffs):
        bad = (p, q)
    else:
        bad = next(((i, j) for i, j in cells
                    if norm * big.entry(i, j) != m * a1.entry(i, j)), None)
    if bad is not None:
        return failure(
            "TransportFailed",
            f"tau(u)*a2*u is not a central multiple of a1 at entry {bad[0] + 1},{bad[1] + 1}")
    return OK


# ---------------------------------------------------------------------------
# Bundled replay scenarios


@dataclass(frozen=True)
class StepResult:
    name: str
    expected: str
    actual: str
    ok: bool


@dataclass(frozen=True)
class ReplayReport:
    scenario: str
    steps: tuple[StepResult, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.steps)


SCENARIOS = (
    "main-orthogonal",
    "main-unitary",
    "main-symplectic",
    "semisimple-sh",
    "sh-permutation",
)

_MAIN_KINDS = {
    "main-orthogonal": (BASE, 1, 1),
    "main-unitary": (quadratic(-1), 1, 2),
    "main-symplectic": (QUATERNION, 2, 1),
}


def counterexample_pair(kind: ScalarKind = BASE, s: int = 1, t: int = 1):
    """The bundled (4, 2) block order with its two twisted involutions
    and both transport witnesses; returns (spec1, spec2, wF, wE)."""
    div = DivisionSpec("D", kind, s, t)
    order = BlockOrder(div, Signature((4, 2)))

    def diag_gauge(*entries):
        jets = []
        for e in entries:
            if e == "t":
                jets.append(LaurentJet.t_power(kind, 1))
            elif e == "-t":
                jets.append(LaurentJet.t_power(kind, 1, -1))
            else:
                jets.append(LaurentJet.constant(kind, e))
        return JetMatrix.diagonal(jets)

    spec1 = InvolutionSpec(order, diag_gauge(1, -1, 1, -1, "t", "t"))
    spec2 = InvolutionSpec(order, diag_gauge(1, -1, 1, 1, "t", "-t"))

    half, mhalf = Q(1, 2), Q(-1, 2)
    plus = LaurentJet.from_coeffs(kind, 0, [half, half])     # (t + 1)/2
    minus = LaurentJet.from_coeffs(kind, 0, [mhalf, half])   # (t - 1)/2
    u2 = JetMatrix.of([[plus, minus], [minus, plus]])
    z, o, tt = LaurentJet.zero(kind), LaurentJet.one(kind), LaurentJet.t_power(kind, 1)
    u4 = JetMatrix.of([
        [z, z, tt, z],
        [z, z, z, tt],
        [o, z, z, z],
        [z, o, z, z],
    ])
    w_fiber = WitnessCheck(JetMatrix.dsum(u2, u4), tt, MODE_F, spec1, spec2)

    ext = kind.extended(-1)
    root = LaurentJet.constant(ext, Scalar.ext_gen(ext))
    one_e = LaurentJet.one(ext)
    u_etale = JetMatrix.diagonal([one_e, one_e, one_e, root, one_e, root])
    w_etale = WitnessCheck(u_etale, one_e, mode_etale(-1), spec1, spec2)
    return spec1, spec2, w_fiber, w_etale


def _fmt_iso(result) -> str:
    text = f"{result.verdict} {{{result.signature[0]},{result.signature[1]}}}"
    if result.verdict == ISOTROPIC and result.witness is not None:
        text += " with exact witness"
    return text


def _replay_main(name: str) -> list[StepResult]:
    kind, s, t = _MAIN_KINDS[name]
    spec1, spec2, w_fiber, w_etale = counterexample_pair(kind, s, t)
    steps: list[StepResult] = []

    def expect(label: str, expected: str, actual: str):
        steps.append(StepResult(label, expected, actual, expected == actual))

    expect("wellformed(sigma1)", "ok", wellformed(spec1).describe())
    expect("wellformed(sigma2)", "ok", wellformed(spec2).describe())
    expect("verify generic-fiber witness, alpha = t", "ok", verify_witness(w_fiber).describe())
    expect("verify etale witness, alpha = 1", "ok", verify_witness(w_etale).describe())

    base_mode = WitnessCheck(w_fiber.u, w_fiber.alpha, MODE_BASE, spec1, spec2)
    base_diag = verify_witness(base_mode)
    expect("generic-fiber witness is rejected over the base ring",
           "rejected", "rejected" if (not base_diag.ok and base_diag.code in ("NotInvertible", "NotContained")) else base_diag.describe())

    res1 = residue_involution(spec1)
    res2 = residue_involution(spec2)
    expect("residue blocks of sigma1", "sizes (4, 2), t-powers (0, 1)",
           f"sizes ({res1.blocks[0].size}, {res1.blocks[1].size}), "
           f"t-powers ({res1.blocks[0].t_power}, {res1.blocks[1].t_power})")
    expect("residue blocks of sigma2", "sizes (4, 2), t-powers (0, 1)",
           f"sizes ({res2.blocks[0].size}, {res2.blocks[1].size}), "
           f"t-powers ({res2.blocks[0].t_power}, {res2.blocks[1].t_power})")

    iso1 = anisotropy(res1.blocks[1].gauge, res1.kind, res1.epsilon)
    iso2 = anisotropy(res2.blocks[1].gauge, res2.kind, res2.epsilon)
    expect("block 2 of sigma1", "anisotropic {2,0}", _fmt_iso(iso1))
    expect("block 2 of sigma2", "isotropic {1,1} with exact witness", _fmt_iso(iso2))
    if iso2.witness is not None:
        prod = smat_mul(smat_conj_transpose(iso2.witness),
                        smat_mul(res2.blocks[1].gauge, iso2.witness))
        expect("witness annihilates the form exactly", "ok",
               "ok" if smat_is_zero(prod) and not smat_is_zero(iso2.witness) else "failed")
    expect("distinguish(sigma1, sigma2)", "distinguished", distinguish(spec1, spec2).verdict)
    return steps


def semisimple_pair():
    """Two products that differ over the base ring but not after
    unramified base change; declared residue parameters (s, t) = (1, 2)."""
    d = DivisionSpec("D", QUATERNION, 1, 2)
    f0 = DivisionSpec("F0", BASE, 1, 1)
    a1 = SemisimpleOrder((BlockOrder(d, Signature((1, 1))), BlockOrder(f0, Signature((2, 2)))))
    a2 = SemisimpleOrder((BlockOrder(d, Signature((2,))), BlockOrder(f0, Signature((1, 1, 1, 1)))))
    return a1, a2


def _replay_semisimple() -> list[StepResult]:
    a1, a2 = semisimple_pair()
    direct = ss_iso_decide(a1, a2)
    after = becomes_iso_after_sh(a1, a2)
    return [
        StepResult("ss_iso_decide(A1, A2)", "false", str(direct).lower(), direct is False),
        StepResult("becomes_iso_after_sh(A1, A2)", "true", str(after).lower(), after is True),
    ]


def sh_grid(max_st: int = 3, max_part: int = 3, max_len: int = 3, max_size: int = 36):
    """All (s, t, sig) combinations in the desk-scale verification grid."""
    sigs = []
    parts = range(1, max_part + 1)
    from itertools import product
    for length in range(1, max_len + 1):
        sigs.extend(Signature(p) for p in product(parts, repeat=length))
    for s in range(1, max_st + 1):
        for t in range(1, max_st + 1):
            for sig in sigs:
                if s * t * sig.n <= max_size:
                    yield s, t, sig


def _replay_sh_permutation() -> list[StepResult]:
    total, failed = 0, 0
    for s, t, sig in sh_grid():
        total += 1
        if not verify_sh_pattern(s, t, sig):
            failed += 1
    actual = f"{total} combinations verified" if not failed else \
        f"{failed} of {total} combinations failed"
    return [StepResult("pattern conjugation grid", f"{total} combinations verified",
                       actual, failed == 0)]


def replay(scenario: str, seed: int = 0) -> ReplayReport:
    """Run one bundled scenario and report each expectation.

    ``seed`` has no effect, since every step is exact; it is still
    accepted because ``perfbench/workloads.py`` passes it.
    """
    start = time.perf_counter()
    if scenario in _MAIN_KINDS:
        steps = _replay_main(scenario)
    elif scenario == "semisimple-sh":
        steps = _replay_semisimple()
    elif scenario == "sh-permutation":
        steps = _replay_sh_permutation()
    else:
        raise UnknownScenario(f"unknown scenario {scenario!r}; known: {', '.join(SCENARIOS)}")
    return ReplayReport(scenario, tuple(steps), time.perf_counter() - start)
