"""Seeded queries on the integer layers (orders, basechange).

Every expected value follows from how the query is built: rotations of a
tuple are cyclically equal, a tuple whose sum changed is not, base change
followed by descent returns the least rotation, and the pattern identities
are theorems checked here on concrete inputs.  No Scalar is ever built.
"""

from __future__ import annotations

from random import Random

# One round of query kinds.
MIX = (
    "inv", "iso_rot", "iso_pert", "roundtrip", "roundtrip", "not_divisible",
    "not_periodic", "ss_perm", "ss_pert", "sh_iso", "sh_pert", "sh_verify", "radical",
)

# (signature length r, s, t) of each round.  Sizes come from the round,
# not from the seed, so that every seed costs about the same; the seed
# draws the parts (which sum to 3r), rotations and permutations.
ROUNDS = (
    (1, 1, 1), (2, 2, 1), (3, 1, 2), (4, 2, 2), (5, 3, 1), (6, 1, 3), (2, 4, 1), (3, 1, 4),
    (4, 3, 2), (5, 2, 3), (6, 4, 4), (1, 3, 3), (3, 4, 2), (5, 2, 4), (6, 3, 4),
)
CYCLE = len(MIX) * len(ROUNDS)


def least_rotation(parts) -> tuple:
    parts = tuple(parts)
    return min(parts[k:] + parts[:k] for k in range(len(parts)))


def rotate(parts, k: int) -> tuple:
    parts = tuple(parts)
    k %= len(parts)
    return parts[k:] + parts[:k]


def _sig(rng: Random, r: int) -> tuple:
    """r parts in 1..5 summing to 3r."""
    parts = [3] * r
    for _ in range(2 * r):
        i, j = rng.randrange(r), rng.randrange(r)
        if i != j and parts[i] < 5 and parts[j] > 1:
            parts[i] += 1
            parts[j] -= 1
    return tuple(parts)


def make_query(seed: int, index: int) -> dict:
    """One query as plain data: kind, arguments and the expected result
    (``("value", v)`` or ``("raises", error class name)``)."""
    rng = Random(f"patterns:{seed}:{index}")
    kind = MIX[index % len(MIX)]
    r, s, t = ROUNDS[(index // len(MIX)) % len(ROUNDS)]
    q: dict = {"kind": kind}
    if kind == "inv":
        sig = _sig(rng, r)
        q.update(sig=rotate(sig, rng.randrange(len(sig))), expect=("value", least_rotation(sig)))
    elif kind == "iso_rot":
        sig = _sig(rng, r)
        q.update(a=sig, b=rotate(sig, rng.randrange(len(sig))), expect=("value", True))
    elif kind == "iso_pert":
        sig = _sig(rng, r)
        bumped = list(rotate(sig, rng.randrange(len(sig))))
        bumped[rng.randrange(len(bumped))] += 1
        q.update(a=sig, b=tuple(bumped), expect=("value", False))
    elif kind == "roundtrip":
        sig = _sig(rng, r)
        big = tuple(s * p for p in sig) * t
        q.update(parts=rotate(big, rng.randrange(len(big))), s=s, t=t,
                 expect=("value", least_rotation(sig)))
    elif kind == "not_divisible":
        sig, s = _sig(rng, r), max(s, 2)
        big = list(tuple(s * p for p in sig) * t)
        big[rng.randrange(len(big))] += 1
        q.update(parts=tuple(big), s=s, t=t, expect=("raises", "NotDivisible"))
    elif kind == "not_periodic":
        sig, t = _sig(rng, r), max(t, 2)
        big = list(tuple(s * p for p in sig) * t)
        big[rng.randrange(len(big))] += s
        q.update(parts=tuple(big), s=s, t=t, expect=("raises", "NotPeriodic"))
    elif kind in ("ss_perm", "ss_pert"):
        comps = [(rng.choice("DEF"), _sig(rng, 1 + (r + k) % 4)) for k in range(2 + r % 3)]
        other = [(label, rotate(sig, rng.randrange(len(sig)))) for label, sig in comps]
        rng.shuffle(other)
        if kind == "ss_pert":
            label, sig = other[0]
            other[0] = (label, sig + (rng.randint(1, 5),))
        q.update(a=comps, b=other, expect=("value", kind == "ss_perm"))
    elif kind in ("sh_iso", "sh_pert"):
        comps = [(_sig(rng, 1 + (r + k) % 3), ((s + k) % 4 + 1, (t + k) % 4 + 1))
                 for k in range(1 + r % 3)]
        split = []
        for sig, (cs, ct) in comps:
            big = tuple(cs * p for p in sig) * ct
            split.append(rotate(big, rng.randrange(len(big))))
        rng.shuffle(split)
        if kind == "sh_pert":
            split[0] = split[0] + (1,)
        q.update(a=comps, b=split, expect=("value", kind == "sh_iso"))
    elif kind == "sh_verify":
        while s * t * 3 * r > 64:  # keep s*t*n within the brute-force bound
            r -= 1
        sig = _sig(rng, r)
        q.update(sig=sig, s=s, t=t, expect=("value", True))
    elif kind == "radical":
        q.update(sig=_sig(rng, r), expect=("value", True))
    return q


def bind(q: dict, h):
    """A zero-argument call of the public API for query q; ``h`` is the
    imported horders package."""
    kind = q["kind"]

    def order(sig, label="D", s=1, t=1):
        return h.BlockOrder(h.DivisionSpec(label, h.BASE, s, t), h.Signature(sig))

    if kind == "inv":
        o = order(q["sig"])
        return lambda: h.inv_of(o)
    if kind in ("iso_rot", "iso_pert"):
        a, b = order(q["a"]), order(q["b"])
        return lambda: h.iso_decide(a, b)
    if kind in ("roundtrip", "not_divisible", "not_periodic"):
        parts, s, t = q["parts"], q["s"], q["t"]
        return lambda: h.descend_signature(parts, s, t).parts
    if kind in ("ss_perm", "ss_pert"):
        a = h.SemisimpleOrder(tuple(order(sig, label) for label, sig in q["a"]))
        b = h.SemisimpleOrder(tuple(order(sig, label) for label, sig in q["b"]))
        return lambda: h.ss_iso_decide(a, b)
    if kind in ("sh_iso", "sh_pert"):
        a = h.SemisimpleOrder(tuple(order(sig, "D", s, t) for sig, (s, t) in q["a"]))
        b = h.SemisimpleOrder(tuple(order(sig, "F0") for sig in q["b"]))
        return lambda: h.becomes_iso_after_sh(a, b)
    if kind == "sh_verify":
        sig, s, t = h.Signature(q["sig"]), q["s"], q["t"]
        return lambda: h.verify_sh_pattern(s, t, sig)
    if kind == "radical":
        sig = h.Signature(q["sig"])
        return lambda: (h.pattern_pow(h.radical_pattern(sig), sig.r)
                        == h.pattern_of(sig).shift(1))
    raise ValueError(kind)
