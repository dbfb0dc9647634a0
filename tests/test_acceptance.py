"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from operator import add
from random import Random

from horders.basechange import (
    becomes_iso_after_sh,
    descend_signature,
    sh_signature,
    verify_sh_pattern,
)
from horders.errors import NotDivisible
from horders.involutions import (
    ANISOTROPIC,
    INCONCLUSIVE,
    ISOTROPIC,
    InvolutionSpec,
    anisotropy,
    apply_sigma,
    distinguish,
    residue_involution,
    wellformed,
)
from horders.matrices import JetMatrix
from horders.orders import (
    BlockOrder,
    DivisionSpec,
    Signature,
    contains,
    cyclic_equal,
    cyclic_normal_form,
    in_radical,
    iso_decide,
    pattern_of,
    radical_pattern,
    ss_iso_decide,
)
from horders.scalars import BASE, QUATERNION, LaurentJet, Scalar, quadratic
from horders.witness import (
    MODE_BASE,
    WitnessCheck,
    counterexample_pair,
    replay,
    semisimple_pair,
    sh_grid,
    verify_witness,
)

from helpers import (entrywise, form_value, onto, random_scalar, sample_block_unit, sample_element,
                     smat_conj_transpose, smat_mul)

KINDS = [BASE, quadratic(-1), QUATERNION]


def _report(num: int, ok: bool, message: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {message}")
    assert ok, f"criterion {num}: {message}"


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def test_criterion_1_main_replay_with_exact_witnesses():
    start = time.perf_counter()
    report = replay("main-orthogonal")
    elapsed = time.perf_counter() - start

    spec1, spec2, w_fiber, w_etale = counterexample_pair()
    t = LaurentJet.t_power(BASE, 1)
    lhs = w_fiber.u.conj_transpose() @ spec2.gauge @ w_fiber.u
    fiber_exact = lhs == entrywise(lambda e: t * e, spec1.gauge)

    ext = BASE.extended(-1)
    lhs_e = w_etale.u.conj_transpose() @ onto(spec2.gauge, ext) @ w_etale.u
    etale_exact = lhs_e == onto(spec1.gauge, ext)
    expected_u = JetMatrix.diagonal([
        LaurentJet.one(ext), LaurentJet.one(ext), LaurentJet.one(ext),
        LaurentJet.constant(ext, Scalar.ext_gen(ext)),
        LaurentJet.one(ext),
        LaurentJet.constant(ext, Scalar.ext_gen(ext))])
    etale_exact = etale_exact and w_etale.u == expected_u and \
        w_etale.alpha == LaurentJet.one(ext)

    ok = report.ok and fiber_exact and etale_exact and elapsed < 1.0
    _report(1, ok,
            f"main-orthogonal replay ok={report.ok}, tau(u)a2u = t*a1 exactly: {fiber_exact}, "
            f"etale witness with alpha=1: {etale_exact}, runtime {elapsed * 1000:.0f} ms < 1000 ms")


def test_criterion_2_residue_isotropy_in_all_three_scenarios():
    details = []
    ok = True
    for kind, s, t in [(BASE, 1, 1), (quadratic(-1), 1, 2), (QUATERNION, 2, 1)]:
        spec1, spec2, _, _ = counterexample_pair(kind, s, t)
        r1 = residue_involution(spec1)
        r2 = residue_involution(spec2)
        iso1 = anisotropy(r1.blocks[1].gauge, r1.kind, r1.epsilon)
        iso2 = anisotropy(r2.blocks[1].gauge, r2.kind, r2.epsilon)
        here = (iso1.verdict == ANISOTROPIC and iso1.signature == (2, 0)
                and iso2.verdict == ISOTROPIC and iso2.witness is not None)
        if here:
            v = iso2.witness
            here = (form_value(r2.blocks[1].gauge, v).is_zero()
                    and not all(x.is_zero() for x in v))
        here = here and distinguish(spec1, spec2).distinguished
        details.append(f"{kind}: block2 {iso1.verdict}/{iso2.verdict}")
        ok = ok and here
    _report(2, ok, "; ".join(details) + "; distinguish = distinguished in all three")


def test_criterion_3_semisimple_base_change():
    report = replay("semisimple-sh")
    a1, a2 = semisimple_pair()
    direct = ss_iso_decide(a1, a2)
    after = becomes_iso_after_sh(a1, a2)
    ok = report.ok and direct is False and after is True
    _report(3, ok, f"ss_iso_decide={direct}, becomes_iso_after_sh={after} with (s,t)=(1,2)")


def test_criterion_4_pattern_conjugation_grid():
    start = time.perf_counter()
    total, bad = 0, []
    for s, t, sig in sh_grid():
        total += 1
        if not verify_sh_pattern(s, t, sig):
            bad.append((s, t, sig.parts))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 10.0
    _report(4, ok, f"{total} grid combinations verified in {elapsed:.2f} s < 10 s"
            + (f"; failures: {bad[:3]}" if bad else ""))


def test_criterion_5_signature_round_trip_exhaustive():
    checked, ok = 0, True
    for n in range(1, 7):
        for parts in _compositions(n):
            sig = Signature(parts)
            for s in (1, 2, 3):
                for t in (1, 2, 3):
                    back = descend_signature(sh_signature(sig, s, t).parts, s, t)
                    if not cyclic_equal(back.parts, parts):
                        ok = False
                    checked += 1
    _report(5, ok, f"descend(sh(sig)) cyclically equals sig for all {checked} "
                   "combinations with n <= 6, s,t <= 3")


def test_criterion_6_radical_power_law():
    def minplus(a, b):
        n = len(a)
        return tuple(tuple(min(a[i][j] + b[j][k] for j in range(n))
                           for k in range(n)) for i in range(n))

    checked, ok = 0, True
    for n in range(1, 9):
        for parts in _compositions(n):
            sig = Signature(parts)
            power = radical_pattern(sig).entries
            for _ in range(sig.r - 1):
                power = minplus(power, radical_pattern(sig).entries)
            target = pattern_of(sig).shift(1).entries
            if power != target:
                ok = False
            checked += 1
    _report(6, ok, f"min-plus r-th power of the radical pattern equals the "
                   f"order pattern plus one for all {checked} signatures with n <= 8")


def test_criterion_7a_cyclic_normal_form_properties():
    rng = Random(101)
    ok = True
    for _ in range(1000):
        parts = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 8)))
        k = rng.randrange(len(parts))
        rotated = parts[k:] + parts[:k]
        nf = cyclic_normal_form(parts)
        ok = ok and cyclic_normal_form(rotated) == nf and cyclic_normal_form(nf) == nf
    _report(7, ok, "7a: cyclic normal form rotation-invariant and idempotent (1000 cases)")


def test_criterion_7b_pattern_ring_closure():
    rng = Random(103)
    ok = True
    for case in range(1000):
        kind = BASE if case % 4 else quadratic(-1)
        parts = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3)))
        order = BlockOrder(DivisionSpec("D", kind), Signature(parts))
        x = sample_element(order, rng)
        y = sample_element(order, rng)
        j = sample_element(order, rng, radical=True)
        ok = ok and contains(order, entrywise(add, x, y)) and contains(order, x @ y)
        ok = ok and in_radical(order, j @ y) and in_radical(order, y @ j)
    _report(7, ok, "7b: sums and products close in the order, radical absorbs (1000 cases)")


def _wellformed_diag_gauge(kind, parts, rng):
    # stability forces the t-power to step by one from block to block,
    # so a diagonal monomial gauge with powers (0, 1, ...) is well formed
    jets = []
    for power, size in enumerate(parts):
        for _ in range(size):
            jets.append(LaurentJet.t_power(kind, power, rng.choice([-2, -1, 1, 2])))
    return JetMatrix.diagonal(jets)


def test_criterion_7c_sigma_antiautomorphism_and_involution():
    rng = Random(107)
    shapes = [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2)]
    ok = True
    for case in range(1000):
        kind = KINDS[case % 3] if case % 5 else QUATERNION
        order = BlockOrder(DivisionSpec("D", kind), Signature(shapes[case % len(shapes)]))
        spec = InvolutionSpec(order, _wellformed_diag_gauge(kind, order.sig.parts, rng))
        ok = ok and wellformed(spec).ok
        x = sample_element(order, rng)
        y = sample_element(order, rng)
        ok = ok and apply_sigma(spec, x @ y) == apply_sigma(spec, y) @ apply_sigma(spec, x)
        ok = ok and apply_sigma(spec, apply_sigma(spec, x)) == x
    _report(7, ok, "7c: sigma is an anti-automorphism with sigma^2 = id (1000 cases)")


def test_criterion_7d_congruence_invariance():
    rng = Random(109)
    ok = True
    for case in range(1000):
        kind = KINDS[case % 3]
        n = rng.randint(1, 3)
        diag = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
        b = tuple(tuple(Scalar.of(kind, diag[i] if i == j else 0)
                        for j in range(n)) for i in range(n))
        c = _random_invertible(kind, n, rng)
        b2 = smat_mul(smat_conj_transpose(c), smat_mul(b, c))
        r1 = anisotropy(b, kind)
        r2 = anisotropy(b2, kind)
        ok = ok and r1.verdict == r2.verdict and r1.signature == r2.signature
    _report(7, ok, "7d: anisotropy verdict and signature are congruence invariants (1000 cases)")


def _random_invertible(kind, n, rng):
    lower = [[Scalar.of(kind, 1 if i == j else 0) for j in range(n)] for i in range(n)]
    upper = [[Scalar.of(kind, 1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i > j:
                lower[i][j] = random_scalar(kind, rng, 2)
            elif i < j:
                upper[i][j] = random_scalar(kind, rng, 2)
    d = [[random_scalar(kind, rng, 2, nonzero=True) if i == j else Scalar.zero(kind)
          for j in range(n)] for i in range(n)]
    return smat_mul(tuple(map(tuple, lower)),
                    smat_mul(tuple(map(tuple, d)), tuple(map(tuple, upper))))


def test_criterion_7e_distinguish_inconclusive_on_transported_gauges():
    rng = Random(113)
    ok = True
    for case in range(1000):
        kind = BASE if case % 3 else KINDS[case % 2 + 1]
        parts = (1, 1) if case % 2 else (2,)
        order = BlockOrder(DivisionSpec("D", kind), Signature(parts))
        spec = InvolutionSpec(order, _wellformed_diag_gauge(kind, parts, rng))
        ok = ok and wellformed(spec).ok
        u = sample_block_unit(order, rng)
        transported = InvolutionSpec(order, u.conj_transpose() @ spec.gauge @ u)
        result = distinguish(spec, transported)
        ok = ok and result.verdict == INCONCLUSIVE
    _report(7, ok, "7e: distinguish is inconclusive on gauge-transported copies (1000 cases)")


def test_criterion_8_negative_controls():
    spec1, spec2, w_fiber, _ = counterexample_pair()
    base_mode = WitnessCheck(w_fiber.u, w_fiber.alpha, MODE_BASE, spec1, spec2)
    diag = verify_witness(base_mode)
    control_a = (not diag.ok) and diag.code in ("NotInvertible", "NotContained")

    d = DivisionSpec("D")
    control_b = not iso_decide(BlockOrder(d, Signature((1, 1))),
                               BlockOrder(d, Signature((2,))))

    try:
        descend_signature((3, 2), 2, 1)
        control_c = False
    except NotDivisible:
        control_c = True

    ok = control_a and control_b and control_c
    _report(8, ok,
            f"base-mode rejection code={diag.code}, iso((1,1),(2))=False is {control_b}, "
            f"descend((3,2),2,1) raises NotDivisible is {control_c}")
