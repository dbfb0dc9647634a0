"""Unramified base change of block-order invariants and its inverse.

Over the maximal unramified local extension the coefficient division
algebra splits; each block size is multiplied by the residue degree s
and the whole tuple is repeated t times, where (s, t) are the declared
residue parameters.  The explicit index permutation that conjugates the
tensored valuation pattern onto the target block pattern is available as
a witness and is checked, at desk scale, by comparing the target block
of every permuted index with the rank of its key in the tensored order.
The permutation depends only on (s, t, n), so the check takes it as an
argument: ``verify_sh_pattern`` builds it and checks one signature, and
the replay's grid builds it once per shape and checks every signature
of that shape with the same comparison.
"""

from __future__ import annotations

from math import gcd

from .errors import NotDivisible, NotPeriodic, SizeLimit, record
from .orders import (
    BlockOrder,
    DivisionSpec,
    SemisimpleOrder,
    Signature,
    block_index,
    check_residue,
    cyclic_normal_form,
)
from .scalars import BASE

SH_LIMIT = 1 << 16  # the length s*t*n of a base-changed signature


@record
class ShResult:
    """A block order over the split coefficient ring, plus the index
    permutation witnessing the pattern identification."""

    order: BlockOrder
    perm: tuple[int, ...] | None = None


def sh_parts(parts: tuple[int, ...], s: int, t: int) -> tuple[int, ...]:
    """t copies of the s-scaled parts, unchecked."""
    return tuple([s * p for p in parts]) * t


def _check_size(s: int, t: int, n: int) -> None:
    """Raise :class:`SizeLimit` when a base change to length s*t*n would
    be longer than ``SH_LIMIT``."""
    size = s * t * n
    if size > SH_LIMIT:
        raise SizeLimit(f"base change to size {size} exceeds the bound {SH_LIMIT}")


def sh_signature(sig: Signature, s: int, t: int) -> Signature:
    """Concatenate t copies of the s-scaled signature; a result longer
    than ``SH_LIMIT`` raises :class:`SizeLimit` before it is built."""
    check_residue(s, t)
    _check_size(s, t, sig.n)
    return Signature(sh_parts(sig.parts, s, t))


def descend_signature(parts: tuple[int, ...], s: int, t: int) -> Signature:
    """Invert :func:`sh_signature` on a cyclic class.

    The input must be, up to rotation, t repetitions of a block of
    length len(parts)/t, with every part divisible by s.  The result is
    returned in canonical (least-rotation) form.  Note the de-facto
    length of the descended tuple is len(parts)/t, not len(parts); the
    inverse is read as de-concatenation followed by division by s.

    s divides every part exactly when it divides their gcd, since every
    common divisor of the parts divides the gcd and the gcd divides
    every part (an empty or all-zero tuple has gcd 0).  With r = u/t,
    parts[i] = parts[(i + r) % u] for every i exactly when parts equals
    its rotation parts[r:] + parts[:r], whose entry i is parts[(i + r) % u].
    Then the tuple is t copies of its r-prefix, so only that is divided.
    """
    check_residue(s, t)
    if gcd(*parts) % s:
        raise NotDivisible(f"parts {parts} are not all divisible by s={s}")
    u = len(parts)
    if u % t:
        raise NotPeriodic(f"length {u} is not divisible by t={t}")
    r = u // t
    if parts[r:] + parts[:r] != parts:
        raise NotPeriodic(f"{parts} is not {t}-periodic up to rotation")
    return Signature(cyclic_normal_form(map(s.__rfloordiv__, parts[:r])))


def sh_permutation(s: int, t: int, sig: Signature) -> tuple[int, ...]:
    """Index permutation of {0, ..., s*t*n - 1} mapping the tensor layout
    (inner position i, unramified copy j, matrix position k) to the
    block layout (i, k, j); returned as image[index].  A permutation
    longer than ``SH_LIMIT`` raises :class:`SizeLimit` before it is built."""
    check_residue(s, t)
    _check_size(s, t, sig.n)
    return _sh_permutation(s, t, sig.n)


def _sh_permutation(s: int, t: int, n: int) -> tuple[int, ...]:
    """The permutation of :func:`sh_permutation` for size n, unchecked."""
    row = [i + s * n * j for j in range(t) for i in range(s)]
    return tuple([s * k + x for k in range(n) for x in row])


def verify_sh_pattern(s: int, t: int, sig: Signature) -> bool:
    """Decide that conjugating the tensored pattern by the index
    permutation yields the pattern of the base-changed signature.

    The permutation is built first, by :func:`sh_permutation`, which
    checks s, t and the size; :func:`_sh_pattern_holds` then compares it
    with the target.
    """
    return _sh_pattern_holds(sh_permutation(s, t, sig), s, t, sig)


def _sh_pattern_holds(perm: tuple[int, ...], s: int, t: int, sig: Signature) -> bool:
    """Does ``perm`` conjugate the tensored pattern of ``sig`` onto the
    pattern of its base change?  s and t are not checked.

    Entry (x, y) of the tensored pattern, x = k * s*t + a, is 1 iff
    key(x) < key(y) lexicographically, key(x) = (a // s, block of k);
    entry (i, j) of the target is 1 iff B(i) < B(j), B the block index
    of the base-changed parts.  So the identity holds iff B(perm(x)) is
    a strictly increasing function of key(x).  All t * r keys (j, b)
    occur and there are t * r target blocks, so that function must send
    key (j, b) to its rank j * r + b.  B is read from the parts, through
    ``sh_parts``, not from that closed form, so the comparison tests perm
    however it was built.
    """
    target = block_index(sh_parts(sig.parts, s, t))
    ranks = [a // s * sig.r for a in range(s * t)]
    return list(map(target.__getitem__, perm)) == [
        j + b for b in sig.block_index() for j in ranks]


def sh_order(order: BlockOrder) -> ShResult:
    """Base-change a block order; the result lives over a split division
    datum (base scalars, s = t = 1) labelled after the input.  A result
    longer than ``SH_LIMIT`` raises :class:`SizeLimit` before any of it
    is built."""
    d, n = order.division, order.sig.n
    _check_size(d.s, d.t, n)  # its DivisionSpec has checked s and t
    split = DivisionSpec(d.label + "_sh", BASE, 1, 1)
    return ShResult(
        order=BlockOrder(split, Signature(sh_parts(order.sig.parts, d.s, d.t))),
        perm=_sh_permutation(d.s, d.t, n),
    )


def becomes_iso_after_sh(a: SemisimpleOrder, b: SemisimpleOrder) -> bool:
    """Do the two products become isomorphic after unramified base change?

    Every in-scope division datum splits after the base change, so the
    base-changed components all live over one and the same coefficient
    ring and are matched by signature alone.  A component whose base
    change is longer than ``SH_LIMIT`` raises :class:`SizeLimit` before
    it is built.
    """
    def pushed(ss: SemisimpleOrder) -> list[tuple[int, ...]]:
        out = []
        for c in ss.components:
            d, parts = c.division, c.sig.parts
            _check_size(d.s, d.t, sum(parts))
            out.append(cyclic_normal_form(sh_parts(parts, d.s, d.t)))
        return sorted(out)

    return pushed(a) == pushed(b)
