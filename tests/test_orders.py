"""Patterns, membership, cyclic invariants and isomorphism decisions."""

from itertools import product
from operator import add
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from horders import orders
from horders.errors import ScalarKindMismatch, SizeMismatch
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

from helpers import entrywise, sample_block_unit, sample_element

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


@pytest.mark.parametrize("parts", [(), (0,), (2, -1), (3, 0, 1), [1, -4]])
def test_signature_rejects_parts_below_one(parts):
    with pytest.raises(ValueError, match="^signature parts must be positive integers$"):
        Signature(parts)


def test_signature_converts_its_parts_to_an_int_tuple():
    # a part that is not an integer is refused, not truncated
    for parts in [("3",), (2, "3"), (2.5, 1), (4.0, 2)]:
        with pytest.raises(TypeError):
            Signature(parts)
    for parts in [(4, 1), [4, 1], (4, True)]:
        sig = Signature(parts)
        assert sig.parts == (4, 1) and all(type(p) is int for p in sig.parts)


def test_signature_reads_an_iterator_once():
    # the parts are read once: a generator is not consumed by the check
    assert Signature(x for x in (2, 1)) == Signature((2, 1))
    assert Signature(iter([3])).n == 3
    assert Signature(map(int, "412")).parts == (4, 1, 2)
    assert Signature(parts=[2, 2]).parts == (2, 2)
    for parts in [(), (2, 0), (3, -1)]:
        with pytest.raises(ValueError, match="^signature parts must be positive integers$"):
            Signature(x for x in parts)
    with pytest.raises(TypeError):
        Signature(x for x in (2, "3"))


def test_block_index_is_block_of_every_position():
    # the block of position i is the last block that starts at or before i
    for parts in [(1,), (4, 2), (1, 3, 2), (2, 2, 2, 1), (3,) * 5]:
        sig = Signature(parts)
        starts = sig.block_starts()
        assert sig.block_index() == tuple(max(b for b, start in enumerate(starts) if start <= i)
                                          for i in range(sig.n))


def test_radical_patterns():
    assert radical_pattern(Signature((1, 1))).entries == ((1, 1), (0, 1))
    assert radical_pattern(Signature((2,))).entries == ((1, 1), (1, 1))
    assert radical_pattern(Signature((1, 2))).entries == ((1, 1, 1), (0, 1, 1), (0, 1, 1))


def _random_parts(rng, n):
    parts = []
    while sum(parts) < n:
        parts.append(rng.randint(1, n - sum(parts)))
    return tuple(parts)


def _random_pattern(rng, n):
    """A shifted block pattern of n positions, or arbitrary small integers."""
    if rng.random() < 0.5:
        sig = Signature(_random_parts(rng, n))
        base = rng.choice((pattern_of, radical_pattern))(sig)
        return base.shift(rng.randint(-2, 2))
    return PatternMatrix(tuple(
        tuple(rng.randint(-3, 5) for _ in range(n)) for _ in range(n)))


def test_pattern_mul_matches_oracle():
    rng = Random(3)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(n))
        b = tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(n))
        got = pattern_mul(PatternMatrix(a), PatternMatrix(b)).entries
        assert got == minplus_oracle(a, b)
    rng = Random(29)
    for _ in range(120):
        n = rng.randint(1, 18)
        a, b = _random_pattern(rng, n), _random_pattern(rng, n)
        got = pattern_mul(a, b).entries
        assert got == minplus_oracle(a.entries, b.entries), (a, b)


def test_patterns_match_the_block_index_oracle():
    for n in range(1, 8):
        for parts in _compositions(n):
            sig = Signature(parts)
            blk = sig.block_index()
            assert pattern_of(sig).entries == tuple(
                tuple(1 if bi < bj else 0 for bj in blk) for bi in blk), parts
            assert radical_pattern(sig).entries == tuple(
                tuple(1 if bi <= bj else 0 for bj in blk) for bi in blk), parts


def test_pattern_matrix_rejects_non_square_entries():
    with pytest.raises(SizeMismatch):
        PatternMatrix(((0, 1, 2), (1, 0, 3)))
    with pytest.raises(SizeMismatch):
        PatternMatrix(((0, 1), (1,)))
    with pytest.raises(SizeMismatch):
        PatternMatrix(((0,), (1,)))
    assert PatternMatrix(()).n == 0


def test_pattern_pow_equals_repeated_products():
    rng = Random(41)
    for _ in range(40):
        p = _random_pattern(rng, rng.randint(1, 12))
        assert pattern_pow(p, 1) == p
        power = p.entries
        for r in range(2, 10):
            power = minplus_oracle(power, p.entries)
            assert pattern_pow(p, r).entries == power, (p, r)
    with pytest.raises(ValueError):
        pattern_pow(p, 0)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        pattern_pow(p, 2.5)


def _pattern_with_repeats(rng, n):
    """An n x n pattern with planted equal rows and/or equal columns:
    either every entry is read off a smaller matrix through a class map
    (rows and columns repeat together), or rows or columns of an
    arbitrary pattern are copied onto others (only one side repeats)."""
    how = rng.choice(("classes", "rows", "columns", "both"))
    if how == "classes":
        c = rng.randint(1, n)
        small = [[rng.randint(-3, 5) for _ in range(c)] for _ in range(c)]
        cls = [rng.randrange(c) for _ in range(n)]
        return PatternMatrix(tuple(tuple(small[cls[i]][cls[j]] for j in range(n))
                                   for i in range(n)))
    rows = [[rng.randint(-3, 5) for _ in range(n)] for _ in range(n)]
    for _ in range(rng.randint(1, n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if how in ("rows", "both"):
            rows[j] = list(rows[i])
        if how in ("columns", "both"):
            for row in rows:
                row[j] = row[i]
    return PatternMatrix(tuple(map(tuple, rows)))


def test_pattern_pow_matches_oracle_on_repeated_rows_and_columns():
    rng = Random(43)
    for _ in range(160):
        p = _pattern_with_repeats(rng, rng.randint(1, 10))
        assert pattern_pow(p, 1) == p
        power = p.entries
        for r in range(2, 8):
            power = minplus_oracle(power, p.entries)
            assert pattern_pow(p, r).entries == power, (p, r)


def test_shift_shares_equal_rows_and_adds_to_every_entry():
    rng = Random(47)
    for _ in range(60):
        p = rng.choice((_pattern_with_repeats, _random_pattern))(rng, rng.randint(1, 9))
        k = rng.randint(-3, 3)
        got = p.shift(k).entries
        assert got == tuple(tuple(e + k for e in row) for row in p.entries)
        for i in range(p.n):
            for j in range(p.n):
                if p.entries[i] == p.entries[j]:
                    assert got[i] is got[j]
    assert PatternMatrix(()).shift(1) == PatternMatrix(())


def test_pattern_pow_squares_through_the_module_level_product(monkeypatch):
    calls = []
    product = orders.pattern_mul

    def counting(p, q):
        calls.append(1)
        return product(p, q)

    monkeypatch.setattr(orders, "pattern_mul", counting)
    p = radical_pattern(Signature((2, 1, 3)))
    for r in range(1, 20):
        calls.clear()
        orders.pattern_pow(p, r)
        assert len(calls) == (r.bit_length() - 1) + (r.bit_count() - 1), r


def test_unchecked_patterns_are_square_and_match_the_references():
    """Patterns built without the row-length check equal the checked
    construction of their entries, their references, and multiply as the
    independent min-plus product does."""
    rng = Random(53)
    for _ in range(150):
        n = rng.randint(1, 18)
        sig = Signature(_random_parts(rng, n))
        blk = sig.block_index()
        a, b = _random_pattern(rng, n), _random_pattern(rng, n)
        k, r = rng.randint(-3, 3), rng.randint(2, 7)
        power = a.entries
        for _ in range(r - 1):
            power = minplus_oracle(power, a.entries)
        for got, want in [
            (pattern_of(sig), tuple(tuple(int(bi < bj) for bj in blk) for bi in blk)),
            (radical_pattern(sig), tuple(tuple(int(bi <= bj) for bj in blk) for bi in blk)),
            (a.shift(k), tuple(tuple(e + k for e in row) for row in a.entries)),
            (pattern_mul(a, b), minplus_oracle(a.entries, b.entries)),
            (pattern_pow(a, r), power),
        ]:
            assert PatternMatrix(got.entries) == got and got.entries == want, (sig, a, b, k, r)
            assert pattern_mul(got, got).entries == minplus_oracle(want, want)


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
        contains(a, JetMatrix.diagonal([LaurentJet.one(QUATERNION)] * 2))


@pytest.mark.parametrize("call, error, message", [
    (lambda: DivisionSpec("D", BASE.extended(-1)),
     ValueError, "division scalars must be an unextended kind"),
    (lambda: SemisimpleOrder(()), ValueError, "a semisimple order needs at least one component"),
    (lambda: pattern_mul(pattern_of(Signature((1,))), pattern_of(Signature((1, 1)))),
     SizeMismatch, "1 vs 2"),
    (lambda: orders.meets_pattern(JetMatrix.diagonal([LaurentJet.one(BASE)]),
                                  pattern_of(Signature((2,)))),
     SizeMismatch, "matrix is 1x1, pattern is 2x2"),
    (lambda: in_radical(order(1), JetMatrix.diagonal([LaurentJet.one(QUATERNION)])),
     ScalarKindMismatch, "matrix over quaternion, order over base"),
])
def test_order_guards(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_in_radical():
    t = LaurentJet.t_power(BASE, 1)
    a = order(1, 1)
    assert in_radical(a, _mat(BASE, [[t, t], [1, t]]))
    assert not in_radical(a, _mat(BASE, [[1, t], [1, t]]))


def test_exactly_zero_entries_are_accepted():
    # a zero entry has no valuation to compare; a matrix holds no entry
    # that is zero only to a precision
    a = order(1, 1)
    z = LaurentJet.zero(BASE)
    one = LaurentJet.one(BASE)
    assert contains(a, JetMatrix.of([[one, z], [one, one]]))
    assert not contains(a, JetMatrix.of([[one, one], [z, LaurentJet.t_power(BASE, -1)]]))


def test_contains_closure_sampled():
    rng = Random(17)
    for _ in range(60):
        parts = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3)))
        a = order(*parts)
        x = sample_element(a, rng)
        y = sample_element(a, rng)
        assert contains(a, x) and contains(a, y)
        assert contains(a, entrywise(add, x, y))
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


def test_cyclic_normal_form_is_the_least_of_all_rotations():
    # every tuple over {1, 2, 3} of length at most 7, repeated minima included
    for length in range(1, 8):
        for parts in product((1, 2, 3), repeat=length):
            assert cyclic_normal_form(parts) == min(parts[k:] + parts[:k]
                                                    for k in range(length)), parts
    with pytest.raises(ValueError, match="empty tuple has no rotations"):
        cyclic_normal_form(())


def test_cyclic_normal_form_is_the_least_rotation_with_many_ties_and_periods():
    # up to 40 parts: a short block over few values repeated, sometimes
    # with one part changed, then rotated; zero and negative parts too
    rng = Random(33)
    tied = periodic = 0
    for _ in range(3000):
        values = rng.choice([(1, 1, 1, 2), (1, 2, 3), (0, -1, 0, 2), (5,)])
        block = [rng.choice(values) for _ in range(rng.randint(1, 8))]
        parts = block * rng.randint(1, 40 // len(block))
        if rng.random() < 0.3:
            parts[rng.randrange(len(parts))] = rng.choice(values)
        k = rng.randrange(len(parts))
        parts = tuple(parts[k:] + parts[:k])
        least = min(parts[j:] + parts[:j] for j in range(len(parts)))
        assert cyclic_normal_form(parts) == least, parts
        assert cyclic_normal_form(iter(parts)) == least
        tied += parts.count(min(parts)) > 1
        periodic += any(parts[d:] + parts[:d] == parts for d in range(1, len(parts)))
    assert tied >= 2000 and periodic >= 1000, (tied, periodic)


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
