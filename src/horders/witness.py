"""Exact verification of involution-transport witnesses and replays.

A witness is a matrix u together with a scaling factor alpha such that
tau(u) * a2 * u = alpha * a1 over a declared coefficient ring: the
generic fibre (Laurent field), the base coefficient ring itself, or a
quadratic etale extension of it.  When the identity holds and u is a
unit of the declared ring, conjugation by u transports the first
twisted involution to the second over that ring.  u, the gauges and
alpha are exact; a ``TruncatedJet`` alpha is refused when the witness is
built.

Nothing is inverted and nothing is sampled: every question is an exact
identity or asks whether a rational matrix is singular, and each is
decided on the integer image of the scaling paragraph of the
``matrices`` module docstring, the image that the gauge's solve and
``JetMatrix.field_invertible`` use too.  The identities go through
``matrices.first_difference``: each distinct operand is evaluated once
at X = 2^B, one packed column sum_j e_j * Y^j, Y = 2^W, is multiplied
by each side's factors from the right (quaternions do not commute), and
the first differing column of a row is its lowest nonzero base-Y digit.
tau(u) is read from u's image, as its transpose with each coordinate
conjugated, and an operand over the division kind gets zero coordinates
on the etale root while it is evaluated, so a verified witness builds no
copy of u, tau(u) or the gauges.  Only an entry that a result needs as a
polynomial is rebuilt as a jet, from entries promoted one by one: the
first mismatching entry of tau(u) * a2 * u, printed in the
IdentityMismatch detail (by its bits alone above ``DETAIL_BITS``), and
W[p][q], whose product with conj(a) must be central in
``transport_check``.

* Units lift modulo the Jacobson radical (Reiner, *Maximal Orders*,
  ch. 9), and a block order modulo its radical is the product of its
  residue diagonal blocks: u in the order is a unit iff the t^0
  coefficients of every diagonal block form an invertible matrix.
* The commutant of a full lattice in M_n(D((t))) is the centre: u
  transports sigma1 to sigma2 (tau(x) * W = W * sigma1(x) on the order,
  W = tau(u) * a2 * u) iff W = c * a1 with c central.
* A left inverse is two-sided in M_n(D((t))), which is finite-dimensional
  over the Laurent field: b * u = 1 makes x -> u * x injective, so onto.
  In the generic fibre, tau(u) * a2 * u = alpha * a1 with alpha a nonzero
  rational Laurent polynomial and a1 invertible gives u the left inverse
  (alpha * a1)^-1 * tau(u) * a2, so ``verify_witness`` asks a1 over the
  field there, and u only when a1 is singular.  Every replay gauge is
  diagonal, and a 1 x 1 component over a division kind is invertible
  iff its entry is not zero, so a replay solves nothing for it.
"""

from __future__ import annotations

import time
from itertools import product
from operator import index

from . import basechange
from .basechange import becomes_iso_after_sh
from .errors import (
    Diagnostics,
    InsufficientPrecision,
    OK,
    ScalarKindMismatch,
    SizeMismatch,
    UnknownScenario,
    failure,
    record,
)
from .involutions import (
    ISOTROPIC,
    InvolutionSpec,
    distinguish,
    residue_involution,
    residue_isotropy,
    wellformed,
)
from .matrices import JetMatrix, Tau, first_difference
from .orders import (
    BlockOrder,
    DivisionSpec,
    SemisimpleOrder,
    Signature,
    meets_pattern,
    pattern_of,
    ss_iso_decide,
)
from .scalars import (BASE, QUATERNION, LaurentJet, Q, Scalar, ScalarKind, _jet_of, _rows_of,
                      _sum, _times, quadratic, smat_invertible)

GENERIC_FIBER = "generic-fiber"
BASE_RING = "base"
ETALE = "etale"


@record
class RingMode:
    """Coefficient ring over which a witness is asserted; the etale
    discriminant ``d`` is an integer, and a float raises TypeError."""

    ring: str
    d: int | None = None

    def __post_init__(self):
        if self.ring not in (GENERIC_FIBER, BASE_RING, ETALE):
            raise ValueError(f"unknown ring mode {self.ring!r}")
        if (self.ring == ETALE) != (self.d is not None):
            raise ValueError("exactly the etale mode carries a discriminant")
        if self.d is not None:
            index(self.d)

    def __str__(self) -> str:
        return f"etale({self.d})" if self.ring == ETALE else self.ring


MODE_F = RingMode(GENERIC_FIBER)
MODE_BASE = RingMode(BASE_RING)


def mode_etale(d: int) -> RingMode:
    return RingMode(ETALE, d)


@record
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
        if not self.alpha.is_exact:
            raise InsufficientPrecision(f"alpha is an exact Laurent polynomial, got {self.alpha}")

    def _work_kind(self) -> ScalarKind:
        """The division kind, or its etale extension, the one kind that
        ``extended`` makes for each discriminant, so its ``basis_products``
        table is built once."""
        kind = self.spec1.order.division.kind
        return kind.extended(self.mode.d) if self.mode.ring == ETALE else kind


# A diagnostic prints a Laurent polynomial in full only while the bit
# lengths of its numerators and denominators sum to at most DETAIL_BITS:
# about 310 digits, over at most DETAIL_BITS / 2 terms, as a nonzero
# coefficient has at least one bit above and one below.  A larger one
# prints its t-range and that sum, read off the bit lengths with no
# decimal digit built.
DETAIL_BITS = 1 << 10


def _shown(x: LaurentJet) -> str:
    bits = sum(c.den.bit_length() + sum(map(int.bit_length, c.num)) for c in x.coeffs)
    if bits <= DETAIL_BITS:
        return str(x)
    return (f"a Laurent polynomial in t^{x.lowest_exp}..t^{x.lowest_exp + len(x.coeffs) - 1} "
            f"with integers of {bits} bits in all")


def _promote(x, kind: ScalarKind):
    return x if x.kind is kind or x.kind == kind else x.onto(kind)


def _is_mode_coefficient(s: Scalar) -> bool:
    # coefficients of elements of the declared ring: rational, plus a
    # rational multiple of the adjoined square root in the etale case
    m = s.kind.core_dim
    return not any(s.num[1:m]) and not any(s.num[m + 1:])


def _alpha_unit(w: WitnessCheck, alpha: LaurentJet) -> Diagnostics:
    if any(not _is_mode_coefficient(c) for c in alpha.coeffs):
        return failure("NotUnit", f"alpha = {_shown(alpha)} does not lie in the {w.mode} ring")
    if alpha.is_zero():
        return failure("NotUnit", "alpha is zero")
    v = alpha.valuation()
    if w.mode.ring == GENERIC_FIBER:
        return OK
    if v != 0:
        return failure("NotUnit", f"alpha = {_shown(alpha)} has valuation {v}, not a unit")
    return OK


def _is_central(s: Scalar) -> bool:
    # only the quaternion units fail to commute with every scalar
    return s.kind.core != "quat" or not any(s.num[1:4] + s.num[5:])


def _tau_row(u: JetMatrix, i: int, kind: ScalarKind) -> list[LaurentJet]:
    """Row i of tau(u) over ``kind``: column i of u, conjugated."""
    return [_promote(u.entry(k, i), kind).conj() for k in range(u.n)]


def _triple_entry(row, b: JetMatrix, c: JetMatrix, j: int) -> LaurentJet:
    """(row * b * c)[j] over the kind of ``row``, whose entries the entries
    of b and c are promoted onto: entry l of row * b is the ``_sum`` of the
    ``_times`` row[k] * b[k][l] over the k with row[k] not zero, kept as a
    value, and the result the ``_sum`` of those values times c[l][j] over
    the l with c[l][j] not zero, built as a jet once."""
    kind = row[0].kind
    xs = [(k, _rows_of(x)) for k, x in enumerate(row) if x.coeffs]
    terms = []
    for l in range(c.n):
        y = c.entry(l, j)
        if y.coeffs:
            xb = _sum(_times(kind, x, _rows_of(_promote(b.entry(k, l), kind))) for k, x in xs)
            terms.append(_times(kind, xb, _rows_of(_promote(y, kind))))
    return _jet_of(kind, _sum(terms))


def verify_witness(w: WitnessCheck) -> Diagnostics:
    """Check the transport identity exactly, then (base and etale modes)
    that u is a unit of the order, then that alpha is a unit of the
    declared ring.  A u singular over the Laurent field is reported so,
    as if the field had been asked first, but u is asked only when the
    passing checks leave its invertibility open.  In the base and etale
    modes they do not: a unit of the order is invertible over the field
    (units lift modulo the Jacobson radical).  In the generic fibre they
    do not when a1 is invertible: the identity with alpha a nonzero
    rational then gives u a left inverse, which is two-sided (see the
    module docstring).  So a1 is asked there, and u only when a1 is
    singular or a check failed.
    A u or alpha over the division kind is not promoted after the
    identity: it has the same valuations and text over the etale kind,
    and a matrix of it is a unit there exactly when it is one over the
    division kind, since the left-regular image of b + 0 * sqrt(d) is two
    copies of that of b."""
    u, a1, a2, alpha = w.u, w.spec1.gauge, w.spec2.gauge, w.alpha
    bad = first_difference((Tau(u), a2, u), (alpha, a1))
    if bad is not None:
        kind = w._work_kind()
        i, j = bad
        return failure(
            "IdentityMismatch",
            f"tau(u)*a2*u != alpha*a1 at entry {i + 1},{j + 1}: "
            f"{_shown(_triple_entry(_tau_row(u, i, kind), a2, u, j))} vs "
            f"{_shown(_promote(alpha, kind) * _promote(a1.entry(i, j), kind))}")

    diag = _ring_checks(w, u, alpha)
    if diag.ok and (w.mode.ring != GENERIC_FIBER or a1.field_invertible()):
        return diag
    if not u.field_invertible():
        return failure("NotInvertible", "u is not invertible over the Laurent field")
    return diag


def _ring_checks(w: WitnessCheck, u: JetMatrix, alpha: LaurentJet) -> Diagnostics:
    """The mode-dependent checks of ``verify_witness`` on its operands u
    and alpha: (base and etale modes) u is a unit of the order, then alpha
    is a unit of the declared ring."""
    if w.mode.ring in (BASE_RING, ETALE):
        sig = w.spec1.order.sig
        ok, bad = meets_pattern(u, pattern_of(sig))
        if not ok:
            return failure(
                "NotContained",
                f"u entry {bad[0] + 1},{bad[1] + 1} = {_shown(u.entry(*bad))} violates the "
                "order pattern")
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
    conj(a), so m must be central and N * W = m * a1 entrywise.  That with
    m != 0 proves u invertible, so only otherwise is u asked over the field:
    u * x = 0 gives W * x = 0, and m is a unit unless the centre splits, as
    over quadratic(d)+sqrt(d), where conjugation swaps its two factors, so a
    singular u makes W singular in both and m = 0.

    ``samples`` has no effect, since the check is exact; it is still
    accepted because ``perfbench/baselines.py`` passes it.
    """
    u, a1, a2 = w.u, w.spec1.gauge, w.spec2.gauge
    if not a1.field_invertible():
        return failure("NotInvertible", "first gauge is not invertible over the Laurent field")
    kind = w._work_kind()
    p, q = next((i, j) for i in range(u.n) for j in range(u.n) if not a1.entry(i, j).is_zero())
    abar = a1.entry(p, q).conj()
    norm = a1.entry(p, q) * abar
    m = _triple_entry(_tau_row(u, p, kind), a2, u, q) * _promote(abar, kind)
    central = all(_is_central(c) for c in m.coeffs)
    bad = first_difference((norm, Tau(u), a2, u), (m, a1)) if central else (p, q)
    if (bad is not None or m.is_zero()) and not u.field_invertible():
        return failure("NotInvertible", "u is not invertible over the Laurent field")
    if bad is not None:
        return failure(
            "TransportFailed",
            f"tau(u)*a2*u is not a central multiple of a1 at entry {bad[0] + 1},{bad[1] + 1}")
    return OK


# ---------------------------------------------------------------------------
# Bundled replay scenarios


@record
class StepResult:
    name: str
    expected: str
    actual: str
    ok: bool


@record
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
    fiber_diag = verify_witness(w_fiber)
    expect("verify generic-fiber witness, alpha = t", "ok", fiber_diag.describe())
    expect("verify etale witness, alpha = 1", "ok", verify_witness(w_etale).describe())

    # Both modes work over the division kind, so once the generic fibre
    # passes, the identity and field invertibility of these operands are
    # decided and only the base ring's own checks remain.
    base_mode = WitnessCheck(w_fiber.u, w_fiber.alpha, MODE_BASE, spec1, spec2)
    base_diag = (_ring_checks(base_mode, base_mode.u, base_mode.alpha) if fiber_diag.ok
                 else verify_witness(base_mode))
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

    iso1 = residue_isotropy(spec1)[1]
    iso2 = residue_isotropy(spec2)[1]
    expect("block 2 of sigma1", "anisotropic {2,0}", _fmt_iso(iso1))
    expect("block 2 of sigma2", "isotropic {1,1} with exact witness", _fmt_iso(iso2))
    if (v := iso2.witness) is not None:
        b = res2.blocks[1].gauge
        value = sum((v[i].conj() * b[i][j] * v[j] for i in range(len(v)) for j in range(len(v))),
                    Scalar.zero(res2.kind))
        expect("witness annihilates the form exactly", "ok",
               "ok" if value.is_zero() and not all(x.is_zero() for x in v) else "failed")
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


GRID_MAX_ST, GRID_MAX_PART, GRID_MAX_LEN, GRID_MAX_SIZE = 3, 3, 3, 36


def sh_grid():
    """All (s, t, sig) combinations in the desk-scale verification grid:
    s and t up to GRID_MAX_ST, up to GRID_MAX_LEN parts in
    1..GRID_MAX_PART, and s * t * n at most GRID_MAX_SIZE."""
    sigs = []
    parts = range(1, GRID_MAX_PART + 1)
    for length in range(1, GRID_MAX_LEN + 1):
        sigs.extend(Signature(p) for p in product(parts, repeat=length))
    for s in range(1, GRID_MAX_ST + 1):
        for t in range(1, GRID_MAX_ST + 1):
            for sig in sigs:
                if s * t * sig.n <= GRID_MAX_SIZE:
                    yield s, t, sig


def _replay_sh_permutation() -> list[StepResult]:
    """Run ``verify_sh_pattern``'s check on every grid case, with each
    permutation built once per shape (s, t, n): it depends on nothing
    else.  Both steps are looked up in ``basechange`` when they run."""
    shapes: dict[tuple[int, int, int], list[Signature]] = {}
    for s, t, sig in sh_grid():
        shapes.setdefault((s, t, sig.n), []).append(sig)
    total, failed = 0, 0
    for (s, t, _), sigs in shapes.items():
        perm = basechange.sh_permutation(s, t, sigs[0])
        total += len(sigs)
        failed += sum(not basechange._sh_pattern_holds(perm, s, t, sig) for sig in sigs)
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
