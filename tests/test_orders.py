"""Patterns, membership, cyclic invariants and isomorphism decisions."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from horders.errors import ScalarKindMismatch
from horders.matrices import JetMatrix
from horders.orders import (
    BlockOrder,
    DivisionSpec,
    PatternMatrix,
    SemisimpleOrder,
    Signature,
    contains,
    cyclic_equal,
    cyclic_normal_form,
    in_radical,
    inv_of,
    iso_decide,
    pattern_mul,
    pattern_of,
    pattern_pow,
    radical_pattern,
    ss_iso_decide,
    ss_iso_decide_fixed,
)
from horders.scalars import BASE, QUATERNION, LaurentJet

from helpers import sample_block_unit, sample_element

D = DivisionSpec("D")


def order(*parts, division=D):
    return BlockOrder(division, Signature(parts))


def minplus_oracle(a, b):
    # independent min-plus product
    n = len(a)
    return tuple(
        tuple(min(a[i][j] + b[j][k] for j in range(n)) for k in range(n))
        for i in range(n))


# ---------------------------------------------------------------------------
# Patterns


def test_pattern_of_two_singleton_blocks():
    assert pattern_of(Signature((1, 1))).entries == ((0, 1), (0, 0))


def test_pattern_of_single_block_is_zero():
    assert pattern_of(Signature((2,))).entries == ((0, 0), (0, 0))


def test_pattern_of_4_2_by_block_expansion():
    # oracle: entry is 1 exactly when the row block precedes the column block
    sig = Signature((4, 2))
    blocks = [0] * 4 + [1] * 2
    expected = tuple(
        tuple(1 if blocks[i] < blocks[j] else 0 for j in range(6)) for i in range(6))
    assert pattern_of(sig).entries == expected
    for i in range(6):
        for j in range(6):
            assert pattern_of(sig).entries[i][j] == (1 if i < 4 and j >= 4 else 0)


def test_radical_patterns():
    assert radical_pattern(Signature((1, 1))).entries == ((1, 1), (0, 1))
    assert radical_pattern(Signature((2,))).entries == ((1, 1), (1, 1))
    assert radical_pattern(Signature((1, 2))).entries == ((1, 1, 1), (0, 1, 1), (0, 1, 1))


def test_pattern_mul_matches_oracle():
    rng = Random(3)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(n))
        b = tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(n))
        got = pattern_mul(PatternMatrix(a), PatternMatrix(b)).entries
        assert got == minplus_oracle(a, b)


def test_radical_square_frozen_value():
    sq = pattern_pow(radical_pattern(Signature((1, 1))), 2)
    assert sq.entries == ((1, 2), (1, 1))


def test_order_pattern_is_min_plus_closed():
    for parts in [(1, 1), (2,), (4, 2), (1, 2, 1)]:
        p = pattern_of(Signature(parts))
        sq = pattern_mul(p, p)
        assert all(sq.entries[i][j] >= p.entries[i][j]
                   for i in range(p.n) for j in range(p.n))


def test_pattern_times_zero_broadcasts_row_minima():
    p = PatternMatrix(((2, 0, 1), (3, 5, 4), (1, 1, 0)))
    z = PatternMatrix(tuple(tuple(0 for _ in range(3)) for _ in range(3)))
    got = pattern_mul(p, z)
    for i in range(3):
        m = min(p.entries[i])
        assert all(got.entries[i][k] == m for k in range(3))


def test_radical_power_law_small():
    # min-plus r-th power of the radical pattern is the order pattern plus one
    for n in range(1, 6):
        for parts in _compositions(n):
            sig = Signature(parts)
            got = pattern_pow(radical_pattern(sig), sig.r)
            assert got.entries == pattern_of(sig).shift(1).entries, parts


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Membership


def _mat(kind, rows):
    return JetMatrix.of([
        [LaurentJet.constant(kind, v) if not isinstance(v, LaurentJet) else v for v in row]
        for row in rows])


def test_contains_examples():
    t = LaurentJet.t_power(BASE, 1)
    a = order(1, 1)
    assert contains(a, _mat(BASE, [[1, t], [1, 1]]))
    assert not contains(a, _mat(BASE, [[1, 1], [1, 1]]))
    tinv = LaurentJet.t_power(BASE, -1)
    assert not contains(a, _mat(BASE, [[1, t], [tinv, 1]]))


def test_contains_checks_scalar_kind():
    a = order(1, 1)
    with pytest.raises(ScalarKindMismatch):
        contains(a, JetMatrix.identity(QUATERNION, 2))


def test_in_radical():
    t = LaurentJet.t_power(BASE, 1)
    a = order(1, 1)
    assert in_radical(a, _mat(BASE, [[t, t], [1, t]]))
    assert not in_radical(a, _mat(BASE, [[1, t], [1, t]]))


def test_zero_to_precision_entries_are_accepted():
    a = order(1, 1)
    z = LaurentJet.zero(BASE, precision=16)
    one = LaurentJet.one(BASE)
    assert contains(a, JetMatrix.of([[one, z], [one, one]]))


def test_contains_closure_sampled():
    rng = Random(17)
    for _ in range(60):
        parts = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3)))
        a = order(*parts)
        x = sample_element(a, rng)
        y = sample_element(a, rng)
        assert contains(a, x) and contains(a, y)
        assert contains(a, x + y)
        assert contains(a, x @ y)
        j = sample_element(a, rng, radical=True)
        assert in_radical(a, j)
        assert in_radical(a, j @ y)
        assert in_radical(a, y @ j)


def test_sample_block_unit_is_a_unit_of_the_order():
    rng = Random(19)
    a = order(2, 1)
    for _ in range(10):
        u = sample_block_unit(a, rng)
        assert contains(a, u)
        assert contains(a, u.inverse())


# ---------------------------------------------------------------------------
# Cyclic invariants and isomorphism


def test_cyclic_normal_form_examples():
    assert cyclic_normal_form((4, 2)) == (2, 4)
    assert cyclic_normal_form((3, 3, 3)) == (3, 3, 3)
    assert cyclic_normal_form((2, 1, 2, 1)) == (1, 2, 1, 2)


@settings(deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=8), st.integers(0, 7))
def test_cyclic_normal_form_rotation_invariant(parts, k):
    parts = tuple(parts)
    k = k % len(parts)
    rotated = parts[k:] + parts[:k]
    assert cyclic_normal_form(rotated) == cyclic_normal_form(parts)
    assert cyclic_equal(parts, rotated)
    nf = cyclic_normal_form(parts)
    assert cyclic_normal_form(nf) == nf


def test_cyclic_equal_is_an_equivalence_relation():
    rng = Random(31)
    for _ in range(300):
        a = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
        b = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
        c = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
        assert cyclic_equal(a, a)
        assert cyclic_equal(a, b) == cyclic_equal(b, a)
        if cyclic_equal(a, b) and cyclic_equal(b, c):
            assert cyclic_equal(a, c)


def test_inv_of():
    assert inv_of(order(4, 2)) == (2, 4)
    assert inv_of(order(3, 3, 3)) == (3, 3, 3)


def test_iso_decide_examples():
    assert iso_decide(order(4, 2), order(2, 4))
    assert not iso_decide(order(1, 1), order(2))
    a = order(3, 1, 2)
    assert iso_decide(a, a)


def test_iso_decide_distinguishes_divisions_by_label():
    e = DivisionSpec("E")
    assert not iso_decide(order(2, division=D), order(2, division=e))


def test_iso_decide_is_an_equivalence_on_rotations():
    rng = Random(37)
    for _ in range(200):
        parts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 5)))
        k1, k2 = rng.randrange(len(parts)), rng.randrange(len(parts))
        a = order(*(parts[k1:] + parts[:k1]))
        b = order(*(parts[k2:] + parts[:k2]))
        c = order(*parts)
        assert iso_decide(a, b) and iso_decide(b, c) and iso_decide(a, c)


def test_ss_iso_decide():
    f = DivisionSpec("F0")
    a1 = SemisimpleOrder((order(1, 1), order(2, 2, division=f)))
    a2 = SemisimpleOrder((order(2), order(1, 1, 1, 1, division=f)))
    assert not ss_iso_decide(a1, a2)
    perm = SemisimpleOrder((order(2, 2, division=f), order(1, 1)))
    assert ss_iso_decide(a1, perm)
    assert ss_iso_decide(SemisimpleOrder((order(1, 2),)), SemisimpleOrder((order(2, 1),)))


def test_ss_iso_decide_fixed_respects_component_order():
    f = DivisionSpec("F0")
    a = SemisimpleOrder((order(1, 1), order(2, division=f)))
    b = SemisimpleOrder((order(2, division=f), order(1, 1)))
    assert ss_iso_decide(a, b)
    assert not ss_iso_decide_fixed(a, b)
    assert ss_iso_decide_fixed(a, SemisimpleOrder((order(1, 1), order(2, division=f))))
