"""Block hereditary orders, their valuation patterns and cyclic invariants.

A block order over a complete discretely valued coefficient ring is
described by a division datum and a tuple of block sizes.  Membership is
a family of entrywise valuation bounds, encoded as an integer pattern
matrix; pattern matrices multiply in the min-plus semiring, which is how
ideal products compose at the level of valuation constraints.  The
product is the plain n*n*n kernel; only a power uses block structure: a
block pattern repeats its rows and columns, so it is squared on the
quotient that keeps one position per block.  The block sizes matter
only up to cyclic rotation, and with the division datum decide isomorphism.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import add, index

from .errors import ScalarKindMismatch, SizeMismatch, _set, record
from .matrices import JetMatrix
from .scalars import BASE, ScalarKind, _power


def check_residue(s: int, t: int) -> None:
    if min(index(s), index(t)) < 1:
        raise ValueError("residue parameters s, t must be positive")


@record
class DivisionSpec:
    """A coefficient division algebra with declared residue parameters.

    ``s`` is the degree of the residue division ring over its centre and
    ``t`` the separable degree of that centre over the base residue
    field.  Both are declared inputs; nothing is computed from the
    arithmetic of the algebra itself.
    """

    label: str
    kind: ScalarKind = BASE
    s: int = 1
    t: int = 1

    def __post_init__(self):
        check_residue(self.s, self.t)
        if self.kind.ext is not None:
            raise ValueError("division scalars must be an unextended kind")


@record
class Signature:
    """Nonempty tuple of positive block sizes, read once from any iterable
    of positive ints; a part that is not an integer raises TypeError."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]) -> None:
        parts = tuple(map(index, parts))
        if not parts or min(parts) < 1:
            raise ValueError("signature parts must be positive integers")
        _set(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def r(self) -> int:
        return len(self.parts)

    def block_starts(self) -> tuple[int, ...]:
        starts, acc = [], 0
        for p in self.parts:
            starts.append(acc)
            acc += p
        return tuple(starts)

    def block_index(self) -> tuple[int, ...]:
        return block_index(self.parts)


def block_index(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The block of every position, in one pass over the parts."""
    return tuple([b for b, p in enumerate(parts) for _ in range(p)])


@record
class BlockOrder:
    division: DivisionSpec
    sig: Signature


@record
class SemisimpleOrder:
    """A finite product of block orders."""

    components: tuple[BlockOrder, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("a semisimple order needs at least one component")


@record
class PatternMatrix:
    """Square integer matrix of minimum required valuations."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if list(map(len, self.entries)).count(n) != n:
            raise SizeMismatch(f"pattern has {n} rows, each must have {n} entries")

    @property
    def n(self) -> int:
        return len(self.entries)

    def shift(self, k: int) -> "PatternMatrix":
        """Add k to every entry; equal rows share one shifted row.  The
        rows keep their number and length, so the result is square."""
        done = {row: tuple([e + k for e in row]) for row in dict.fromkeys(self.entries)}
        return _pattern(tuple([done[row] for row in self.entries]))


def _pattern(entries: tuple[tuple[int, ...], ...]) -> PatternMatrix:
    """A PatternMatrix, unchecked: each caller proves its entries square."""
    p = object.__new__(PatternMatrix)
    _set(p, "entries", entries)
    return p


def _block_pattern(sig: Signature, diagonal: int) -> PatternMatrix:
    """0 below the block diagonal, 1 above it and ``diagonal`` on it: a
    block of p positions repeats one row of ones + (n - ones) = n entries
    (ones <= n) p times, and the parts sum to n, so there are n rows."""
    n, rows, start = sig.n, [], 0
    for p in sig.parts:
        ones = start if diagonal else start + p
        rows += [(0,) * ones + (1,) * (n - ones)] * p
        start += p
    return _pattern(tuple(rows))


def pattern_of(sig: Signature) -> PatternMatrix:
    """Order pattern: 1 above the block diagonal, 0 on and below it."""
    return _block_pattern(sig, 0)


def radical_pattern(sig: Signature) -> PatternMatrix:
    """Radical pattern: 1 on and above the block diagonal, 0 below it."""
    return _block_pattern(sig, 1)


def pattern_mul(p: PatternMatrix, q: PatternMatrix) -> PatternMatrix:
    """Min-plus product; composes entrywise valuation constraints.

    The plain kernel, blind to blocks (:func:`pattern_pow` uses them):
    each of p's n rows against each of q's n columns, an n x n result."""
    if p.n != q.n:
        raise SizeMismatch(f"{p.n} vs {q.n}")
    cols = tuple(zip(*q.entries))
    return _pattern(tuple([tuple([min(map(add, row, col)) for col in cols])
                           for row in p.entries]))


def pattern_pow(p: PatternMatrix, r: int) -> PatternMatrix:
    """p^r by repeated squaring on the quotient of p.

    Positions i, j share a class, pi(i) = pi(j), when rows i, j and
    columns i, j are equal; Q is p on one representative per class, so
    p[i][j] = Q[pi(i)][pi(j)].  By induction (p^k)[i][j] =
    (Q^k)[pi(i)][pi(j)], since the minimum over positions m of
    (Q^k)[pi(i)][pi(m)] + Q[pi(m)][pi(j)] is the minimum over the
    classes, none of which is empty.  So the c x c Q (a row per class,
    read at the c representatives) takes the (r.bit_length() - 1) +
    (r.bit_count() - 1) products (exact: min-plus products associate),
    and is expanded once, to the n rows pi picks, each read at pi."""
    if index(r) < 1:
        raise ValueError("power must be positive")
    if r == 1:
        return p
    classes: dict[tuple, int] = {}
    pi = [classes.setdefault(key, len(classes)) for key in zip(p.entries, zip(*p.entries))]
    reps = list(map(pi.index, range(len(classes))))
    q = _pattern(tuple([tuple(map(row.__getitem__, reps)) for row, _ in classes]))
    out = _power(q, r, pattern_mul)
    rows = [tuple(map(row.__getitem__, pi)) for row in out.entries]
    return _pattern(tuple(map(rows.__getitem__, pi)))


def meets_pattern(x: JetMatrix, p: PatternMatrix) -> tuple[bool, tuple[int, int] | None]:
    """Entrywise valuation check; exactly zero entries pass."""
    if x.n != p.n:
        raise SizeMismatch(f"matrix is {x.n}x{x.n}, pattern is {p.n}x{p.n}")
    for i in range(x.n):
        for j in range(x.n):
            floor = x.entry(i, j).valuation_floor()
            if floor is None:
                continue  # exactly zero
            if floor < p.entries[i][j]:
                return False, (i, j)
    return True, None


def contains(order: BlockOrder, x: JetMatrix) -> bool:
    """Membership of a concrete matrix in the block order."""
    if x.kind != order.division.kind:
        raise ScalarKindMismatch(f"matrix over {x.kind}, order over {order.division.kind}")
    ok, _ = meets_pattern(x, pattern_of(order.sig))
    return ok


def in_radical(order: BlockOrder, x: JetMatrix) -> bool:
    if x.kind != order.division.kind:
        raise ScalarKindMismatch(f"matrix over {x.kind}, order over {order.division.kind}")
    ok, _ = meets_pattern(x, radical_pattern(order.sig))
    return ok


def cyclic_normal_form(parts: Iterable[int]) -> tuple[int, ...]:
    """Lexicographically least rotation; canonical cyclic representative.

    Above 64 parts the start k of the least rotation is found in O(n)
    comparisons by Booth's failure function over parts + parts (K. S.
    Booth, "Lexicographically least circular substrings", Inf. Process.
    Lett. 10, 1980): ``fail[i]`` is the failure function of the candidate
    twice[k:], and a mismatch that is less than the candidate's next part
    moves k to the start of the matched suffix.  Up to 64 parts, where
    every ``patterns`` query of ``perfbench/`` lies, a scan with no
    per-part Python loop is used instead: with Booth's loop alone,
    ``tools/op_mix.py patterns --cycles 200`` ran 1.12 to 1.13 times slower
    per cycle than with the scan (two runs, 2-CPU x86-64, Python 3.11).  A
    rotation that starts above the least part m is greater than one that
    starts with m, so only the rotations at the ``parts.count(m)``
    positions that ``parts.index`` finds are compared, in order, each a
    slice of parts + parts.  When the rotation at k equals the best one so
    far, at j < k, parts is (k - j)-periodic: every later rotation at k'
    equals the one at k' - (k - j), a start of m between j and k', already
    compared.  The scan takes O(n) per tie, so O(n^2) on n ones and a 2."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("empty tuple has no rotations")
    least = min(parts)
    n, k, twice = len(parts), parts.index(least), parts + parts
    if n > 64:
        fail, k = [-1] * (2 * n), 0
        for j in range(1, 2 * n):
            x, i = twice[j], fail[j - k - 1]
            while i != -1 and x != twice[k + i + 1]:
                if x < twice[k + i + 1]:
                    k = j - i - 1
                i = fail[i]
            if x == twice[k + i + 1]:
                fail[j - k] = i + 1
            else:  # i == -1: x starts no match of the candidate
                if x < twice[k]:
                    k = j
                fail[j - k] = -1
        return twice[k:k + n]
    best = twice[k:k + n]
    for _ in range(parts.count(least) - 1):
        k = parts.index(least, k + 1)
        rotation = twice[k:k + n]
        if rotation <= best:  # one comparison when it is greater, as most are
            if rotation == best:
                break
            best = rotation
    return best


def cyclic_equal(p: Iterable[int], q: Iterable[int]) -> bool:
    p, q = tuple(p), tuple(q)
    return len(p) == len(q) and cyclic_normal_form(p) == cyclic_normal_form(q)


def inv_of(order: BlockOrder) -> tuple[int, ...]:
    """The cyclic invariant of a block order."""
    return cyclic_normal_form(order.sig.parts)


def iso_decide(a: BlockOrder, b: BlockOrder) -> bool:
    """Isomorphism of block orders: same division label, same cyclic class."""
    return a.division.label == b.division.label and cyclic_equal(a.sig.parts, b.sig.parts)


def _component_key(c: BlockOrder) -> tuple[str, tuple[int, ...]]:
    return (c.division.label, cyclic_normal_form(c.sig.parts))


def ss_iso_decide(a: SemisimpleOrder, b: SemisimpleOrder) -> bool:
    """Isomorphism of products, matching components as an unordered multiset."""
    return sorted(map(_component_key, a.components)) == sorted(map(_component_key, b.components))


def ss_iso_decide_fixed(a: SemisimpleOrder, b: SemisimpleOrder) -> bool:
    """Componentwise variant: factor k must match factor k."""
    return len(a.components) == len(b.components) and all(
        iso_decide(x, y) for x, y in zip(a.components, b.components))
