"""Block hereditary orders, their valuation patterns and cyclic invariants.

A block order over a complete discretely valued coefficient ring is
described by a division datum and a tuple of block sizes.  Membership is
a family of entrywise valuation bounds, encoded as an integer pattern
matrix; pattern matrices multiply in the min-plus semiring, which is how
ideal products compose at the level of valuation constraints.  The tuple
of block sizes matters only up to cyclic rotation, and together with the
division datum it decides isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ScalarKindMismatch, SizeMismatch
from .matrices import JetMatrix
from .scalars import BASE, ScalarKind


@dataclass(frozen=True)
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
        if self.s < 1 or self.t < 1:
            raise ValueError("residue parameters s, t must be positive")
        if self.kind.ext is not None:
            raise ValueError("division scalars must be an unextended kind")


@dataclass(frozen=True)
class Signature:
    """Nonempty tuple of positive block sizes."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError("signature parts must be positive integers")
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))

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

    def block_of(self, index: int) -> int:
        acc = 0
        for b, p in enumerate(self.parts):
            acc += p
            if index < acc:
                return b
        raise IndexError(index)


@dataclass(frozen=True)
class BlockOrder:
    division: DivisionSpec
    sig: Signature


@dataclass(frozen=True)
class SemisimpleOrder:
    """A finite product of block orders."""

    components: tuple[BlockOrder, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("a semisimple order needs at least one component")


@dataclass(frozen=True)
class PatternMatrix:
    """Integer matrix of minimum required valuations."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def shift(self, k: int) -> "PatternMatrix":
        return PatternMatrix(tuple(tuple(e + k for e in row) for row in self.entries))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]


def pattern_of(sig: Signature) -> PatternMatrix:
    """Order pattern: 1 above the block diagonal, 0 on and below it."""
    n = sig.n
    blk = [sig.block_of(i) for i in range(n)]
    return PatternMatrix(tuple(
        tuple(1 if blk[i] < blk[j] else 0 for j in range(n)) for i in range(n)))


def radical_pattern(sig: Signature) -> PatternMatrix:
    """Radical pattern: 1 on and above the block diagonal, 0 below it."""
    n = sig.n
    blk = [sig.block_of(i) for i in range(n)]
    return PatternMatrix(tuple(
        tuple(1 if blk[i] <= blk[j] else 0 for j in range(n)) for i in range(n)))


def pattern_mul(p: PatternMatrix, q: PatternMatrix) -> PatternMatrix:
    """Min-plus product; composes entrywise valuation constraints."""
    if p.n != q.n:
        raise SizeMismatch(f"{p.n} vs {q.n}")
    n = p.n
    out = []
    for i in range(n):
        row = []
        for k in range(n):
            row.append(min(p.entries[i][j] + q.entries[j][k] for j in range(n)))
        out.append(tuple(row))
    return PatternMatrix(tuple(out))


def pattern_pow(p: PatternMatrix, r: int) -> PatternMatrix:
    if r < 1:
        raise ValueError("power must be positive")
    out = p
    for _ in range(r - 1):
        out = pattern_mul(out, p)
    return out


def meets_pattern(x: JetMatrix, p: PatternMatrix) -> tuple[bool, tuple[int, int] | None]:
    """Entrywise valuation check; entries zero to precision are accepted
    at their precision bound."""
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
    """Lexicographically least rotation; canonical cyclic representative."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("empty tuple has no rotations")
    return min(parts[k:] + parts[:k] for k in range(len(parts)))


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
