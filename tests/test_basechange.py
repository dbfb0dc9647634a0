"""Base change of invariants, its inverse, and the permutation witness."""

from collections import Counter
from random import Random

import pytest

from horders import basechange
from horders.basechange import (
    becomes_iso_after_sh,
    descend_signature,
    sh_order,
    sh_permutation,
    sh_signature,
    verify_sh_pattern,
)
from horders.errors import NotDivisible, NotPeriodic, SizeLimit
from horders.orders import (
    BlockOrder,
    DivisionSpec,
    SemisimpleOrder,
    Signature,
    cyclic_equal,
    iso_decide,
    ss_iso_decide,
)
from horders.scalars import BASE, QUATERNION
from horders.witness import replay, semisimple_pair, sh_grid

from helpers import (ref_becomes_iso_after_sh, ref_descend_signature, ref_sh_permutation,
                     ref_verify_sh_pattern)


def sig(*parts):
    return Signature(parts)


def grid_step() -> tuple[str, str, bool]:
    """(expected, actual, ok) of the replay's one pattern-grid step."""
    [step] = replay("sh-permutation").steps
    return step.expected, step.actual, step.ok


def test_sh_signature_scales_then_repeats():
    assert sh_signature(sig(1), 2, 1).parts == (2,)
    assert sh_signature(sig(1), 2, 3).parts == (2, 2, 2)
    assert sh_signature(sig(4, 2), 1, 1).parts == (4, 2)
    assert sh_signature(sig(1, 1), 1, 2).parts == (1, 1, 1, 1)
    assert sh_signature(sig(3, 1), 2, 2).parts == (6, 2, 6, 2)


def test_descend_signature_examples():
    assert descend_signature((2,), 2, 1).parts == (1,)
    assert descend_signature((2, 2), 1, 2).parts == (2,)
    with pytest.raises(NotDivisible):
        descend_signature((3, 2), 2, 1)
    with pytest.raises(NotPeriodic):
        descend_signature((2, 3), 1, 2)
    with pytest.raises(NotPeriodic):
        descend_signature((2, 2, 2), 1, 2)


def test_descend_accepts_rotated_periodic_tuples():
    # (6, 2, 6, 2) rotated by one is (2, 6, 2, 6); both descend for t = 2
    assert descend_signature((2, 6, 2, 6), 2, 2).parts == (1, 3)


def _outcome(descend, parts, s, t):
    try:
        return descend(parts, s, t)
    except Exception as exc:  # the error's type and text are the outcome
        return type(exc).__name__, str(exc)


def test_descend_signature_matches_the_part_by_part_reference():
    # t copies of an s-scaled block (zero and negative parts included),
    # rotated, then left whole, bumped off a multiple of s, lengthened
    # by one part or bumped by s
    rng = Random(33)
    seen = Counter()
    for _ in range(4000):
        s, t = rng.randint(1, 5), rng.randint(1, 5)
        block = [s * rng.randint(-2, 5) for _ in range(rng.randint(0, 6))]
        parts = block * t
        k = rng.randrange(len(parts)) if parts else 0
        parts = parts[k:] + parts[:k]
        change = rng.randrange(4)
        if change == 1 and parts:
            parts[rng.randrange(len(parts))] += rng.randint(1, s)
        elif change == 2:
            parts.append(s * rng.randint(1, 5))
        elif change == 3 and parts:
            parts[rng.randrange(len(parts))] += s
        parts = tuple(parts)
        want = _outcome(ref_descend_signature, parts, s, t)
        assert _outcome(descend_signature, parts, s, t) == want, (parts, s, t)
        seen[want[0] if isinstance(want, tuple) else "descended"] += 1
    assert set(seen) == {"descended", "NotDivisible", "NotPeriodic", "ValueError"}
    assert min(seen.values()) >= 150, seen


def test_sh_permutation_identity_cases():
    assert sh_permutation(1, 1, sig(2, 1)) == (0, 1, 2)
    assert sh_permutation(2, 1, sig(1, 1, 1)) == tuple(range(6))


def test_sh_permutation_formula():
    # evaluated from the index map (i, j, k) -> (i, k, j)
    assert sh_permutation(1, 2, sig(1, 1)) == (0, 2, 1, 3)
    s, t, n = 2, 3, 2
    perm = sh_permutation(s, t, sig(1, 1))
    for k in range(n):
        for j in range(t):
            for i in range(s):
                assert perm[i + s * j + s * t * k] == i + s * k + s * n * j


def test_sh_permutation_matches_the_index_map_on_the_grid():
    for s, t, g in sh_grid():
        assert sh_permutation(s, t, g) == ref_sh_permutation(s, t, g), (s, t, g)


def test_sh_permutation_is_a_bijection():
    for s, t, parts in [(2, 2, (1, 2)), (3, 1, (2, 1)), (2, 3, (1, 1, 1))]:
        perm = sh_permutation(s, t, sig(*parts))
        assert sorted(perm) == list(range(len(perm)))


def test_verify_sh_pattern_examples():
    assert verify_sh_pattern(1, 1, sig(4, 2))
    assert verify_sh_pattern(2, 2, sig(1, 2))
    assert verify_sh_pattern(3, 1, sig(2, 1))
    assert verify_sh_pattern(1, 2, sig(1, 1))


def test_verify_sh_pattern_size_limit():
    assert verify_sh_pattern(3, 3, sig(3, 3, 3))  # s*t*n = 81
    with pytest.raises(SizeLimit, match="base change to size 65540 exceeds the bound 65536"):
        verify_sh_pattern(1, 5, sig(*[1] * 13108))


def test_verify_sh_pattern_matches_the_brute_force():
    cases = list(sh_grid())
    assert all(verify_sh_pattern(*c) and ref_verify_sh_pattern(*c) for c in cases)


def test_verify_sh_pattern_rejects_what_the_brute_force_rejects(monkeypatch):
    # the reversed permutation breaks the identity unless the target
    # pattern is symmetric under it
    original = basechange.sh_permutation
    monkeypatch.setattr(basechange, "sh_permutation",
                        lambda s, t, sig: tuple(reversed(original(s, t, sig))))
    verdicts = [(verify_sh_pattern(*c), ref_verify_sh_pattern(*c)) for c in sh_grid()]
    assert all(got == want for got, want in verdicts)
    assert sum(not got for got, _ in verdicts) == 296
    # the replay builds each permutation once per shape through the same lookup
    assert grid_step() == ("305 combinations verified", "296 of 305 combinations failed", False)


@pytest.mark.parametrize("parts", [
    lambda size: (size,),  # one block: every pair of indices compares equal
    lambda size: (1,) * size,  # one block per index: every pair compares strictly
])
def test_verify_sh_pattern_matches_the_brute_force_on_other_targets(monkeypatch, parts):
    # sh_signature builds its Signature from sh_parts, so the brute force
    # sees the same patched target as verify_sh_pattern
    monkeypatch.setattr(basechange, "sh_parts",
                        lambda sig_parts, s, t: parts(s * t * sum(sig_parts)))
    verdicts = [(verify_sh_pattern(*c), ref_verify_sh_pattern(*c)) for c in sh_grid()]
    assert all(got == want for got, want in verdicts)
    assert any(got for got, _ in verdicts) and not all(got for got, _ in verdicts)
    # the replay's per-shape run reads the same patched target
    rejected = sum(not want for _, want in verdicts)
    assert grid_step()[1] == f"{rejected} of {len(verdicts)} combinations failed"


def test_verify_sh_pattern_matches_the_brute_force_on_perturbed_permutations(monkeypatch):
    # a transposition inside one key's positions that lands in one target
    # block keeps the identity; most others, and most shuffles, break it
    rng = Random(23)
    grid = list(sh_grid())
    verdicts = []
    for trial in range(400):
        s, t, g = rng.choice(grid)
        perm = list(ref_sh_permutation(s, t, g))
        if trial % 4 == 0:
            rng.shuffle(perm)
        elif trial % 4 == 1:
            x = rng.randrange(len(perm))
            y = x - x % s + rng.randrange(s)  # same key: same inner copy and block
            perm[x], perm[y] = perm[y], perm[x]
        else:
            x, y = rng.randrange(len(perm)), rng.randrange(len(perm))
            perm[x], perm[y] = perm[y], perm[x]
        monkeypatch.setattr(basechange, "sh_permutation", lambda *_: tuple(perm))
        got = verify_sh_pattern(s, t, g)
        assert got == ref_verify_sh_pattern(s, t, g), (s, t, g, perm)
        verdicts.append(got)
    assert 100 <= sum(verdicts) <= 300


def test_round_trip_subset():
    for s in (1, 2, 3):
        for t in (1, 2, 3):
            for parts in [(1,), (2,), (1, 2), (2, 2), (1, 2, 3)]:
                back = descend_signature(sh_signature(sig(*parts), s, t).parts, s, t)
                assert cyclic_equal(back.parts, parts)


def test_sh_order_result_shape():
    d = DivisionSpec("D", QUATERNION, 2, 1)
    a = BlockOrder(d, sig(1, 1))
    res = sh_order(a)
    assert res.order.division.label == "D_sh"
    assert res.order.division.kind == BASE
    assert (res.order.division.s, res.order.division.t) == (1, 1)
    assert res.order.sig == sh_signature(a.sig, 2, 1)
    assert sorted(res.perm) == list(range(4))


def test_sh_order_refuses_a_result_longer_than_its_bound_before_building_it(monkeypatch):
    limit = basechange.SH_LIMIT
    assert limit == 1 << 16
    assert len(sh_order(BlockOrder(DivisionSpec("D", BASE, 2, 2), sig(limit // 4))).perm) == limit

    def unbuilt(*args):
        raise AssertionError("built a result over the bound")

    monkeypatch.setattr(basechange, "sh_parts", unbuilt)
    monkeypatch.setattr(basechange, "sh_permutation", unbuilt)
    for s, t, parts in [(1, 100000, (4, 2)), (1, 1, (limit + 1,)), (2, 2, (limit // 4, 1)),
                        (1, 1, (10 ** 22,))]:
        size = s * t * sum(parts)
        with pytest.raises(SizeLimit, match=f"base change to size {size} exceeds the bound {limit}"):
            sh_order(BlockOrder(DivisionSpec("D", BASE, s, t), sig(*parts)))


def test_sh_order_checks_its_size_once_and_sh_sig_builds_no_permutation(monkeypatch):
    from horders.session import parse_session, run_session

    checked, check_size = [], basechange._check_size
    monkeypatch.setattr(basechange, "_check_size",
                        lambda *args: checked.append(args) or check_size(*args))
    res = sh_order(BlockOrder(DivisionSpec("D", QUATERNION, 2, 3), sig(2, 1)))
    assert checked == [(2, 3, 3)]
    assert res.perm == sh_permutation(2, 3, sig(2, 1))

    def unbuilt(*args):
        raise AssertionError("built a permutation")

    monkeypatch.setattr(basechange, "sh_permutation", unbuilt)
    monkeypatch.setattr(basechange, "_sh_permutation", unbuilt)
    text = ("division D = quaternion s=2 t=3\n"
            "order A = block(D; 2,1)\n"
            "check c = sh_sig(A) expect (4,2,4,2,4,2)\n")
    report = run_session(parse_session(text))
    assert [(c.actual, c.ok) for c in report.checks] == [("(4,2,4,2,4,2)", True)]


def test_sh_permutation_refuses_a_result_longer_than_its_bound():
    limit = basechange.SH_LIMIT
    assert len(sh_permutation(2, 2, sig(limit // 4))) == limit
    for s, t, parts in [(1, 1, (limit + 1,)), (2, 2, (limit // 4, 1)), (1, 5, (1,) * 13108)]:
        size = s * t * sum(parts)
        with pytest.raises(SizeLimit, match=f"base change to size {size} exceeds the bound {limit}"):
            sh_permutation(s, t, sig(*parts))


OVER_THE_BOUND = [(1, 100000, (4, 2)), (1, 1, ((1 << 16) + 1,)), (2, 2, ((1 << 14), 1)),
                  (1, 1, (10 ** 22,))]


def _refuse_over_the_bound(monkeypatch):
    """Make basechange.sh_parts fail the test when asked for a result
    longer than SH_LIMIT."""
    real, limit = basechange.sh_parts, basechange.SH_LIMIT

    def sh_parts(parts, s, t):
        assert s * t * sum(parts) <= limit, "built a result over the bound"
        return real(parts, s, t)

    monkeypatch.setattr(basechange, "sh_parts", sh_parts)


def test_sh_signature_refuses_a_result_longer_than_its_bound_before_building_it(monkeypatch):
    limit = basechange.SH_LIMIT
    assert sh_signature(sig(limit // 4), 2, 2).n == limit
    _refuse_over_the_bound(monkeypatch)
    for s, t, parts in OVER_THE_BOUND:
        size = s * t * sum(parts)
        with pytest.raises(SizeLimit, match=f"base change to size {size} exceeds the bound {limit}"):
            sh_signature(sig(*parts), s, t)


def test_becomes_iso_after_sh_refuses_a_component_longer_than_its_bound(monkeypatch):
    limit = basechange.SH_LIMIT
    at_limit = SemisimpleOrder((BlockOrder(DivisionSpec("D", BASE, 2, 2), sig(limit // 4)),))
    assert becomes_iso_after_sh(at_limit, at_limit)
    small = SemisimpleOrder((BlockOrder(DivisionSpec("E", BASE, 1, 1), sig(2)),))
    _refuse_over_the_bound(monkeypatch)
    for s, t, parts in OVER_THE_BOUND:
        size = s * t * sum(parts)
        big = BlockOrder(DivisionSpec("D", BASE, s, t), sig(*parts))
        for a, b in [(SemisimpleOrder((big,)), small),
                     (small, SemisimpleOrder((small.components[0], big)))]:
            with pytest.raises(SizeLimit,
                               match=f"base change to size {size} exceeds the bound {limit}"):
                becomes_iso_after_sh(a, b)


def test_sh_preserves_isomorphism():
    d = DivisionSpec("D", QUATERNION, 2, 3)
    for parts in [(1, 2), (2, 2, 1), (3,)]:
        for k in range(len(parts)):
            a = BlockOrder(d, sig(*parts))
            b = BlockOrder(d, sig(*(parts[k:] + parts[:k])))
            assert iso_decide(a, b)
            assert becomes_iso_after_sh(SemisimpleOrder((a,)), SemisimpleOrder((b,)))


def test_becoming_isomorphic_is_weaker_than_isomorphism():
    # regression: the semisimple pair is told apart over the base ring only
    a1, a2 = semisimple_pair()
    assert not ss_iso_decide(a1, a2)
    assert becomes_iso_after_sh(a1, a2)


def test_becomes_iso_trivial_cases():
    d = DivisionSpec("D", BASE, 1, 1)
    one = SemisimpleOrder((BlockOrder(d, sig(1)),))
    two = SemisimpleOrder((BlockOrder(d, sig(2)),))
    assert becomes_iso_after_sh(one, one)
    assert not becomes_iso_after_sh(one, two)


def _random_product(rng):
    """A product of one to four components over divisions with s, t in 1..4."""
    return SemisimpleOrder(tuple(
        BlockOrder(DivisionSpec(rng.choice("DE"), rng.choice((BASE, QUATERNION)),
                                rng.randint(1, 4), rng.randint(1, 4)),
                   sig(*(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))))
        for _ in range(rng.randint(1, 4))))


def _pushed_partner(rng, ss):
    """A product that becomes isomorphic to ss: each component is replaced
    by one whose base change is a rotation of the original's, written
    with other residue parameters, and the components are shuffled; one
    part is perturbed half of the time."""
    comps = []
    for c in ss.components:
        s, t = c.division.s, c.division.t
        s2, t2 = rng.choice([(s, t), (1, 1), (s, 1), (1, t)])
        parts = tuple(s // s2 * p for p in c.sig.parts) * (t // t2)
        k = rng.randrange(len(c.sig.parts))  # a rotation by whole blocks of c's signature
        parts = parts[k:] + parts[:k]
        comps.append(BlockOrder(DivisionSpec(rng.choice("FG"), BASE, s2, t2), sig(*parts)))
    rng.shuffle(comps)
    if rng.random() < 0.5:
        c = comps[0]
        comps[0] = BlockOrder(c.division, sig(*c.sig.parts[:-1], c.sig.parts[-1] + 1))
    return SemisimpleOrder(tuple(comps))


def test_becomes_iso_after_sh_matches_the_record_based_definition():
    a1, a2 = semisimple_pair()
    assert becomes_iso_after_sh(a1, a2) is ref_becomes_iso_after_sh(a1, a2) is True
    rng = Random(53)
    verdicts = []
    for _ in range(240):
        a = _random_product(rng)
        b = _pushed_partner(rng, a) if rng.random() < 0.75 else _random_product(rng)
        got = becomes_iso_after_sh(a, b)
        assert got == ref_becomes_iso_after_sh(a, b) == ref_becomes_iso_after_sh(b, a), (a, b)
        assert got == becomes_iso_after_sh(b, a)
        verdicts.append(got)
    assert 60 <= sum(verdicts) <= 180


RESIDUE = "^residue parameters s, t must be positive$"
BAD_RESIDUES = [(0, 1), (1, 0), (-1, 2), (0, 0)]


@pytest.mark.parametrize("s, t", BAD_RESIDUES)
def test_sh_signature_rejects_residue_parameters_below_one(s, t):
    with pytest.raises(ValueError, match=RESIDUE):
        sh_signature(sig(2, 2), s, t)


@pytest.mark.parametrize("s, t", BAD_RESIDUES)
def test_descend_signature_rejects_residue_parameters_below_one(s, t):
    with pytest.raises(ValueError, match=RESIDUE):
        descend_signature((2, 2), s, t)


@pytest.mark.parametrize("s, t", BAD_RESIDUES)
def test_sh_permutation_rejects_residue_parameters_below_one(s, t):
    with pytest.raises(ValueError, match=RESIDUE):
        sh_permutation(s, t, sig(2, 2))


@pytest.mark.parametrize("s, t", BAD_RESIDUES + [(-9, -9)])
def test_verify_sh_pattern_rejects_residue_parameters_below_one(s, t):
    with pytest.raises(ValueError, match=RESIDUE):
        verify_sh_pattern(s, t, sig(2, 2))


RESIDUE_CALLS = {
    "sh_signature": lambda s, t: sh_signature(sig(2, 1), s, t),
    "descend_signature": lambda s, t: descend_signature((2, 2), s, t),
    "sh_permutation": lambda s, t: sh_permutation(s, t, sig(2, 2)),
    "verify_sh_pattern": lambda s, t: verify_sh_pattern(s, t, sig(2, 2)),
    "DivisionSpec": lambda s, t: DivisionSpec("D", BASE, s, t),
}


@pytest.mark.parametrize("call", RESIDUE_CALLS)
@pytest.mark.parametrize("s, t", [(1.5, 2), (2, 1.0), (0, 1.5)])
def test_non_integral_residue_parameters_are_refused_not_truncated(call, s, t):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        RESIDUE_CALLS[call](s, t)


def test_grid_has_the_documented_size():
    combos = list(sh_grid())
    assert all(s * t * g.n <= 36 for s, t, g in combos)
    assert len(combos) == 305
