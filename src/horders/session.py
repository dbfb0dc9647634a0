"""Line-oriented session files describing orders, involutions and checks.

Grammar (one declaration per line, ended by LF, CR LF or CR; ``#`` starts a comment):

    division NAME = base|quaternion|quadratic(d) s=INT t=INT
    order NAME = block(DIVISION; n1,n2,...)
    order NAME = product(ORDER, ORDER, ...)
    involution NAME on ORDER : gauge MATRIX eps +1|-1 conj none|quadratic|quaternion
    witness NAME : from INV to INV mode F|base|etale(d) u MATRIX alpha EXPR
    check NAME = FUNC(ARGS) expect EXPECTED

Matrix literals are ``diag(...)``, ``mat[[...],[...]]`` and
``dsum(M1, M2, ...)``; entries are exact Laurent polynomials: sums and
products of ``INT[/INT]``, ``t``, ``sqrt(d)``, the quaternion units
``qi``, ``qj``, ``qk`` and integer powers ``x^k`` of these or of a
parenthesised entry, read by one reader on integer rows.  Inside a
witness declared over ``etale(d)``, ``sqrt(d)`` denotes the adjoined
central square root.  A negative power of a value that is not a monomial
with an invertible coefficient is a type error at its ``^``, and so is a
power past ``SPAN_LIMIT``, ``BITS_LIMIT`` or ``WORK_LIMIT``.
Numbers are ASCII digits and names ASCII letters, digits and
underscores; any other character is a syntax error at its column.
Errors carry the first offending source position; there is no recovery.
"""

from __future__ import annotations

import re
import time
from collections.abc import Callable
from itertools import islice
from math import gcd, inf

from .basechange import becomes_iso_after_sh, descend_signature, sh_signature, verify_sh_pattern
from .errors import (
    DuplicateIdentifier,
    HordersError,
    NotInvertible,
    SessionSyntaxError,
    SessionTypeError,
    UnknownIdentifier,
    record,
)
from .involutions import (
    ANISOTROPIC,
    ISOTROPIC,
    InvolutionSpec,
    _residue_verdicts,
    distinguish,
    residually_anisotropic,
    wellformed,
)
from .matrices import JetMatrix
from .orders import (
    BlockOrder,
    DivisionSpec,
    SemisimpleOrder,
    Signature,
    inv_of,
    iso_decide,
    ss_iso_decide,
    ss_iso_decide_fixed,
)
from .scalars import BASE, QUATERNION, LaurentJet, ScalarKind, quadratic
from .scalars import _jet_of, _power, _reduced, _times, exact_int, exact_str
from .witness import MODE_BASE, MODE_F, WitnessCheck, mode_etale, transport_check, verify_witness


# A token is its text, and its first character gives its kind: an ASCII
# digit starts a number, a letter or ``_`` a name, anything else is a symbol.
# Columns are found by rescanning the line (_Cursor.col), and only for an
# error, so a parse that succeeds stores no positions.
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[()\[\]=,;:^*/+-]")
_BAD = re.compile(r"[^ \t0-9A-Za-z_()\[\]=,;:^*/+-]")
# Lines end at \n, \r\n or \r only (str.splitlines also breaks at \f, \x85, ...).
_LINE_END = re.compile(r"\r\n|\r|\n")


class _Cursor:
    """The tokens of one line, ended by the sentinel ``""``."""

    def __init__(self, text: str, lineno: int):
        code = text.partition("#")[0]
        bad = _BAD.search(code)
        if bad:
            raise SessionSyntaxError(f"unexpected character {bad.group()!r}", lineno, bad.start() + 1)
        self.text = text
        self.line = lineno
        self.tokens = _TOKEN.findall(code) + [""]
        self.pos = 0

    def col(self, i: int) -> int | None:
        """The column of token ``i``, or None for the end of the line."""
        if i >= len(self.tokens) - 1:
            return None
        return next(islice(_TOKEN.finditer(self.text), i, None)).start() + 1

    def peek(self) -> str:
        return self.tokens[self.pos]

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        self._take(self.tokens[self.pos] == text, text)

    def expect_ident(self) -> str:
        return self._take(self.tokens[self.pos].isidentifier(), "IDENT")

    def expect_int(self) -> int:
        return exact_int(self._take(self.tokens[self.pos].isdigit(), "INT"))

    def _take(self, ok: bool, want: str) -> str:
        """The next token if ``ok``, else the error that ``want`` was expected."""
        tok = self.tokens[self.pos]
        if not ok:
            got = f"{tok!r}" if tok else "end of line"
            raise SessionSyntaxError(f"expected {want!r}, got {got}", self.line, self.col(self.pos))
        self.pos += 1
        return tok

    def at(self, i: int) -> "_Cursor":
        """This cursor, moved to token ``i``."""
        self.pos = i
        return self

    def name_index(self) -> int:
        """Reads a name and returns its token index, for a later lookup."""
        self.expect_ident()
        return self.pos - 1

    def done(self) -> None:
        tok = self.tokens[self.pos]
        if tok:
            raise SessionSyntaxError(f"trailing input {tok!r}", self.line, self.col(self.pos))

    def signed_int(self) -> int:
        value, self.pos = _signed_at(self, self.pos)
        return value

    def build(self, at: int, make: Callable, *args):
        """``make(*args)``; its ValueError or HordersError is a type error
        at token ``at``."""
        try:
            return make(*args)
        except (HordersError, ValueError) as exc:
            raise SessionTypeError(str(exc), self.line, self.col(at)) from None

    def comma_list(self, item) -> list:
        """``item()`` once, then again after each ``,``."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def int_tuple(self) -> tuple[int, ...] | None:
        """A parenthesised list of signed integers, or None when no ``(`` follows."""
        if not self.accept("("):
            return None
        items = self.comma_list(self.signed_int)
        self.expect(")")
        return tuple(items)


# ---------------------------------------------------------------------------
# Expressions


# One reader, _parse_sum, reads a literal as a value (rows, scale,
# monomial) of ``scalars``: exponent -> numerators per basis index, over
# one denominator, the scale.  The flat atoms ``INT``, ``INT/INT``, ``t``,
# ``t^k``, ``qi``/``qj``/``qk`` and ``sqrt(d)`` are read in place: c/den *
# e_u * t^k, with e_u * e_v = m * e_r from ``kind.basis_products[u]``.
# Each ``-`` before a factor flips the sign of c.  Other factors are
# values, multiplied by ``scalars._times``: a parenthesised sum, or an
# atom or such a sum raised by _raised.  ``scalars._jet_of`` builds each
# entry's jet once.


def _parse_expr(cur: _Cursor, kind: ScalarKind) -> LaurentJet:
    return _jet_of(kind, _parse_sum(cur, kind))


_QUAT_UNITS = {"qi": 1, "qj": 2, "qk": 3}

# A literal builds one coefficient per exponent of its window, so the
# exponents of a sum's terms, or of a product's factors, may span at most
# SPAN_LIMIT.  A power x^k builds n = (span(x) * |k| + 1) * dim numerators
# of about size = (bits(x) + m) * |k| bits, bits(x) the longest numerator
# or the scale of x and m = ceil(log2 |mu|) for mu the kind's largest basis
# multiplier (0 over base and quaternion; sqrt(d)^2 = d over quadratic(d)).
# SPAN_LIMIT, BITS_LIMIT and WORK_LIMIT bound its span, its bits and its
# work: n^2 products to square and 32 per numerator to reduce over a
# scale, of max(size, 256) * max(1, size / 4096) steps each.  A product
# x * y of values takes one such product per pair of nonzero numerators,
# of size = bits(x) + bits(y) + m, and reduces at most
# (span(x) + span(y) + 1) * dim numerators; WORK_LIMIT bounds it too.
# Each limit is checked before its result is built.
SPAN_LIMIT = 1 << 10
BITS_LIMIT = 1 << 20
WORK_LIMIT = 1 << 28


def _signed_at(cur: _Cursor, j: int) -> tuple[int, int]:
    """The signed integer at token ``j`` and the index after it."""
    toks = cur.tokens
    i = j + (toks[j] in ("-", "+"))
    if not toks[i].isdigit():
        cur.at(i).expect_int()  # raises
    return (-1 if toks[j] == "-" else 1) * exact_int(toks[i]), i + 1


def _parse_sum(cur: _Cursor, kind: ScalarKind) -> tuple:
    """The sum at the cursor as a value (rows, scale, monomial).  ``star`` is
    the ``*`` before the first flat factor of a term's c * e_u * t^k / den
    after prod, where a product of prod with them is refused."""
    toks, table, dim = cur.tokens, kind.basis_products, kind.dim
    units = _QUAT_UNITS if kind.core == "quat" else {}
    rows: dict[int, list[int]] = {}  # exponent -> numerators per basis index, over scale
    scale, sign, first, p = 1, 1, True, cur.pos
    lo, hi = inf, -inf  # the least and greatest exponent of the terms read
    while True:
        c, den, u, k, prod, star = sign, 1, 0, 0, None, None
        start = p
        while True:  # the factors of the term prod * c/den * e_u * t^k
            tok, end = toks[p], p + 1
            while tok == "-":
                c, tok, p, end = -c, toks[end], end, end + 1
            if tok == "t":
                e, end = _signed_at(cur, end + 1) if toks[end] == "^" else (1, end)
                k += e
            elif tok.isdigit():
                n, d = exact_int(tok), 1
                if toks[end] == "/":
                    if not toks[end + 1].isdigit():
                        cur.at(end + 1).expect_int()  # raises
                    d = exact_int(toks[end + 1])
                    if not d:
                        raise SessionTypeError(f"zero denominator in {exact_str(n)}/0",
                                               cur.line, cur.col(end + 1))
                    end += 2
                if toks[end] != "^":
                    c, den = c * n, den * d
                else:
                    x, end = _raised(cur, kind, ({0: _unit(kind, 0, n)}, d, True), end), None
            else:
                v = units.get(tok)
                if tok == "sqrt":
                    if toks[end] != "(":
                        cur.at(end).expect("(")  # raises
                    w, end = _signed_at(cur, end + 1)
                    if toks[end] != ")":
                        cur.at(end).expect(")")  # raises
                    v, end = kind.core_dim if w == kind.ext else 1 if w == kind.d else None, end + 1
                    if v is None:
                        raise SessionTypeError(f"sqrt({exact_str(w)}) is not a scalar of kind {kind}",
                                               cur.line, cur.col(p))
                if v is not None:
                    if toks[end] != "^":
                        _, u, m = table[u][v]
                        c *= m
                    else:
                        x, end = _raised(cur, kind, ({0: _unit(kind, v)}, 1, True), end), None
                elif tok == "(":
                    x, end = _parse_sum(cur.at(end), kind), None
                    cur.expect(")")
                    if not x[2]:
                        x = {e: row for e, row in x[0].items() if any(row)}, x[1], False
                    if toks[cur.pos] == "^":
                        x = _raised(cur, kind, x, cur.pos)
                elif not tok:
                    raise SessionSyntaxError("unexpected end of line", cur.line)
                elif tok in _QUAT_UNITS:
                    raise SessionTypeError(f"{tok} is not a scalar of kind {kind}",
                                           cur.line, cur.col(p))
                else:
                    raise SessionSyntaxError(f"unexpected token {tok!r} in expression",
                                             cur.line, cur.col(p))
            if end is None:  # x, read up to cur.pos, is not a flat atom
                left = ({k: _unit(kind, u, c)}, den, True)
                if prod is not None:
                    left = _product(cur, kind, prod, left, star)
                width = _width(left[0]) + _width(x[0])
                while toks[p - 1] == "-":  # the factor's first -, if it has any
                    p -= 1
                if width > SPAN_LIMIT:
                    raise SessionTypeError(
                        f"a product of degree span {width} is above the literal limit "
                        f"{SPAN_LIMIT}", cur.line, cur.col(p))
                at = p - 1 if toks[p - 1] == "*" else None  # else left is the sign
                prod, c, den, u, k, star = _product(cur, kind, left, x, at), 1, 1, 0, 0, None
                end = cur.pos
            p = end
            if toks[p] != "*":
                break
            if star is None:
                star = p
            p += 1
        if prod is not None:
            prod = _product(cur, kind, prod, ({k: _unit(kind, u, c)}, den, True), star)
        op = toks[p]
        if first and op != "+" and op != "-":
            cur.pos = p
            return ({k: _unit(kind, u, c)}, den, True) if prod is None else prod
        first = False
        # a flat term counts even when its coefficient is zero, a value only its nonzero rows
        terms, d = (((k, u, c),), den) if prod is None else (
            [(e, v, x) for e, row in prod[0].items() for v, x in enumerate(row) if x], prod[1])
        if scale % d:
            m = d // gcd(scale, d)
            scale *= m
            for row in rows.values():
                row[:] = [y * m for y in row]
        f = scale // d
        for e, v, x in terms:
            row = rows.get(e)
            if row is None:
                row = rows[e] = [0] * dim
                lo, hi = e if e < lo else lo, e if e > hi else hi
            row[v] += x * f
        if hi - lo > SPAN_LIMIT:
            raise SessionTypeError(
                f"a sum of degree span {exact_str(hi - lo)} is above the literal limit "
                f"{SPAN_LIMIT}", cur.line, cur.col(start))
        if op != "+" and op != "-":
            cur.pos = p
            return rows, scale, False
        sign, p = 1 if op == "+" else -1, p + 1


def _width(rows: dict) -> int:
    # the degree span of a value's rows: 0 for a monomial or a zero
    return max(rows) - min(rows) if rows else 0


def _size(x: tuple) -> tuple[int, int]:
    """The nonzero numerators of a value and its bits, the length of its
    longest numerator or of its scale (0 for a value with no rows)."""
    rows, scale, _ = x
    nums = [y for row in rows.values() for y in row if y]
    bits = max(map(int.bit_length, nums), default=0)
    return len(nums), max(bits, scale.bit_length()) if rows else 0


def _work(products: int, numerators: int, size: int, scaled: bool) -> int:
    """Steps to multiply ``products`` pairs of numerators of about
    ``size`` bits and to reduce ``numerators`` of them over a scale."""
    return max(size, 256) * max(1, size >> 12) * (products + 32 * numerators * scaled)


def _multiplier_bits(kind: ScalarKind) -> int:
    # m above: ceil(log2 |mu|), mu the largest multiplier in e_u * e_v = mu * e_r
    return (max(abs(mu) for row in kind.basis_products for _, _, mu in row) - 1).bit_length()


def _product(cur: _Cursor, kind: ScalarKind, x: tuple, y: tuple, star: int | None) -> tuple:
    """``_times(kind, x, y)``, refused at the ``*`` at token ``star``
    before it is built when its work is above ``WORK_LIMIT``.  With no
    ``*`` (``star`` None) one side is the sign of a term, 1 or -1."""
    if star is not None:
        (nx, bx), (ny, by) = _size(x), _size(y)
        n = (_width(x[0]) + _width(y[0]) + 1) * kind.dim  # numerators the product may have
        size = bx + by + _multiplier_bits(kind)
        work = _work(nx * ny, min(nx * ny, n), size, x[1] > 1 or y[1] > 1)
        if work > WORK_LIMIT:
            raise SessionTypeError(
                f"a product of about {exact_str(size)} bits in about {exact_str(work)} steps is "
                f"above the literal limit {WORK_LIMIT}", cur.line, cur.col(star))
    return _times(kind, x, y)


def _raised(cur: _Cursor, kind: ScalarKind, x: tuple, caret: int) -> tuple:
    """``x ** k``, k the exponent after the ``^`` at token ``caret``, by
    repeated squaring; ``k < 0`` inverts the coefficient of a monomial."""
    k = cur.at(caret + 1).signed_int()
    rows, scale, mono = x
    if k < 0 and len(rows) > 1:
        raise SessionTypeError(
            f"power {exact_str(k)} of a value that is not a monomial: entries are exact "
            "Laurent polynomials; multiply u by the denominator and alpha by its norm",
            cur.line, cur.col(caret))
    span, size = _width(rows) * abs(k), (_size(x)[1] + _multiplier_bits(kind)) * abs(k)
    n = (span + 1) * kind.dim  # numerators built
    bits, work = (span + 1) * size, _work(n * n, n, size, scale > 1)
    if span > SPAN_LIMIT or bits > BITS_LIMIT or work > WORK_LIMIT:
        raise SessionTypeError(
            f"power {exact_str(k)} would build {exact_str(span + 1)} coefficients and about "
            f"{exact_str(bits)} bits in about {exact_str(work)} steps, above the literal limits "
            f"of {SPAN_LIMIT} exponents, {BITS_LIMIT} bits and {WORK_LIMIT} steps",
            cur.line, cur.col(caret))
    if k < 0:
        if not rows:
            raise SessionTypeError(f"power {exact_str(k)} of a value with no inverse: "
                                   "cannot invert zero", cur.line, cur.col(caret))
        (e, row), = rows.items()
        try:
            inv = _reduced(kind, tuple(row), scale).inverse()
        except NotInvertible as exc:
            raise SessionTypeError(f"power {exact_str(k)} of a value with no inverse: {exc}",
                                   cur.line, cur.col(caret)) from None
        rows, scale, k = {-e: inv.num}, inv.den, -k
    if k == 0:
        return {0: _unit(kind, 0)}, 1, mono
    return _power((rows, scale, mono), k, lambda a, b: _times(kind, a, b))


def _unit(kind: ScalarKind, index: int, coeff: int = 1) -> tuple:
    return (0,) * index + (coeff,) + (0,) * (kind.dim - index - 1)


def _parse_matrix(cur: _Cursor, kind: ScalarKind) -> JetMatrix:
    at = cur.pos
    word = cur.expect_ident()
    if word == "diag":
        return JetMatrix.diagonal(_parse_entries(cur, kind, "()"))
    if word == "mat":
        cur.expect("[")
        rows = cur.comma_list(lambda: _parse_entries(cur, kind, "[]"))
        cur.expect("]")
        if any(len(r) != len(rows) for r in rows):
            raise SessionTypeError(
                f"mat literal must be square, got rows of sizes {[len(r) for r in rows]}",
                cur.line, cur.col(at))
        return JetMatrix.of(rows)
    if word == "dsum":
        cur.expect("(")
        blocks = cur.comma_list(lambda: _parse_matrix(cur, kind))
        cur.expect(")")
        return JetMatrix.dsum(*blocks)
    raise SessionSyntaxError(f"expected diag, mat or dsum, got {word!r}", cur.line, cur.col(at))


def _parse_entries(cur: _Cursor, kind: ScalarKind, brackets: str) -> list[LaurentJet]:
    """Entries between ``brackets[0]`` and ``brackets[1]``, split by ``,``."""
    cur.expect(brackets[0])
    entries = cur.comma_list(lambda: _parse_expr(cur, kind))
    cur.expect(brackets[1])
    return entries


# ---------------------------------------------------------------------------
# Declarations


@record
class CheckDecl:
    name: str
    func: str
    args: tuple
    kwargs: tuple
    expected: str


@record
class Declaration:
    kind: str
    name: str
    payload: object
    refs: tuple[str, ...] = ()


@record
class Session:
    declarations: tuple[Declaration, ...]

    def _table(self, kind: str) -> dict:
        return {d.name: d.payload for d in self.declarations if d.kind == kind}

    @property
    def divisions(self) -> dict:
        return self._table("division")

    @property
    def orders(self) -> dict:
        return self._table("order")

    @property
    def involutions(self) -> dict:
        return self._table("involution")

    @property
    def witnesses(self) -> dict:
        return self._table("witness")

    @property
    def checks(self) -> tuple[CheckDecl, ...]:
        return tuple(d.payload for d in self.declarations if d.kind == "check")


_VERDICT_WORDS = {"true", "false", "distinguished", "inconclusive", "anisotropic", "isotropic"}

# The ``conj`` word of an involution, by the core of its order's scalar kind.
_CONJ_WORDS = {"base": "none", "quad": "quadratic", "quat": "quaternion"}


class _Parser:
    def __init__(self):
        self.symbols: dict[str, Declaration] = {}
        self.declarations: list[Declaration] = []

    def define(self, decl: Declaration, cur: _Cursor) -> None:
        """Every declaration's name is token 1 of its line."""
        if decl.name in self.symbols:
            raise DuplicateIdentifier(f"{decl.name!r} is already defined", cur.line, cur.col(1))
        self.symbols[decl.name] = decl
        self.declarations.append(decl)

    def lookup(self, cur: _Cursor, i: int, kinds: tuple[str, ...]):
        """The payload of the declaration that token ``i`` names."""
        name = cur.tokens[i]
        decl = self.symbols.get(name)
        if decl is None:
            raise UnknownIdentifier(f"unknown identifier {name!r}", cur.line, cur.col(i))
        if decl.kind not in kinds:
            raise SessionTypeError(
                f"{name!r} is a {decl.kind}, expected {' or '.join(kinds)}", cur.line, cur.col(i))
        return decl.payload

    # -- declaration parsers ------------------------------------------------

    def parse_division(self, cur: _Cursor) -> None:
        name = cur.expect_ident()
        cur.expect("=")
        at = cur.pos
        word = cur.expect_ident()
        if word == "base":
            kind = BASE
        elif word == "quaternion":
            kind = QUATERNION
        elif word == "quadratic":
            cur.expect("(")
            at = cur.pos
            d = cur.signed_int()
            cur.expect(")")
            kind = cur.build(at, quadratic, d)
        else:
            raise SessionSyntaxError(
                f"expected base, quadratic or quaternion, got {word!r}", cur.line, cur.col(at))
        cur.expect("s")
        cur.expect("=")
        at = cur.pos
        s = cur.expect_int()
        cur.expect("t")
        cur.expect("=")
        t = cur.expect_int()
        cur.done()
        # only a zero s or t is refused; the value of t is 3 tokens after s's
        payload = cur.build(at if s < 1 else at + 3, DivisionSpec, name, kind, s, t)
        self.define(Declaration("division", name, payload), cur)

    def parse_order(self, cur: _Cursor) -> None:
        name = cur.expect_ident()
        cur.expect("=")
        at = cur.pos
        word = cur.expect_ident()
        if word == "block":
            cur.expect("(")
            ref = cur.name_index()
            division = self.lookup(cur, ref, ("division",))
            cur.expect(";")
            first = cur.pos
            parts = cur.comma_list(cur.expect_int)
            cur.expect(")")
            cur.done()
            # only a zero part is refused, so the first smallest; parts are 2 tokens apart
            payload = BlockOrder(division, cur.build(first + 2 * parts.index(min(parts)),
                                                     Signature, tuple(parts)))
            self.define(Declaration("order", name, payload, (cur.tokens[ref],)), cur)
            return
        if word == "product":
            cur.expect("(")
            refs = cur.comma_list(cur.name_index)
            cur.expect(")")
            cur.done()
            components = []
            for ref in refs:
                comp = self.lookup(cur, ref, ("order",))
                if isinstance(comp, SemisimpleOrder):
                    components.extend(comp.components)
                else:
                    components.append(comp)
            payload = SemisimpleOrder(tuple(components))
            self.define(Declaration("order", name, payload,
                                    tuple(cur.tokens[ref] for ref in refs)), cur)
            return
        raise SessionSyntaxError(f"expected block or product, got {word!r}", cur.line, cur.col(at))

    def parse_involution(self, cur: _Cursor) -> None:
        name = cur.expect_ident()
        cur.expect("on")
        ref = cur.name_index()
        order = self.lookup(cur, ref, ("order",))
        if not isinstance(order, BlockOrder):
            raise SessionTypeError(
                f"involutions are declared on block orders, {cur.tokens[ref]!r} is a product",
                cur.line, cur.col(ref))
        cur.expect(":")
        cur.expect("gauge")
        at_gauge = cur.pos
        gauge = _parse_matrix(cur, order.division.kind)
        cur.expect("eps")
        at_eps = cur.pos
        epsilon = cur.signed_int()
        cur.expect("conj")
        at = cur.pos
        word = cur.expect_ident()
        expected_word = _CONJ_WORDS[order.division.kind.core]
        if word != expected_word:
            raise SessionTypeError(
                f"conj {word} does not match the order's scalar kind "
                f"({order.division.kind}, expected conj {expected_word})", cur.line, cur.col(at))
        cur.done()
        # the gauge is built over the order's kind: only its size or epsilon fail
        payload = cur.build(at_gauge if epsilon in (1, -1) else at_eps,
                            InvolutionSpec, order, gauge, epsilon)
        self.define(Declaration("involution", name, payload, (cur.tokens[ref],)), cur)

    def parse_witness(self, cur: _Cursor) -> None:
        name = cur.expect_ident()
        cur.expect(":")
        cur.expect("from")
        ref1 = cur.name_index()
        spec1 = self.lookup(cur, ref1, ("involution",))
        cur.expect("to")
        ref2 = cur.name_index()
        spec2 = self.lookup(cur, ref2, ("involution",))
        cur.expect("mode")
        at = cur.pos
        word = cur.expect_ident()
        kind = spec1.order.division.kind
        if word == "F":
            mode = MODE_F
        elif word == "base":
            mode = MODE_BASE
        elif word == "etale":
            cur.expect("(")
            at = cur.pos
            d = cur.signed_int()
            cur.expect(")")
            mode = mode_etale(d)
            # the division kind keeps the kinds it extends to, so every
            # witness of the session shares one and its basis_products
            kind = cur.build(at, kind.extended, d)
        else:
            raise SessionSyntaxError(
                f"expected F, base or etale(d), got {word!r}", cur.line, cur.col(at))
        cur.expect("u")
        at = cur.pos
        u = _parse_matrix(cur, kind)
        cur.expect("alpha")
        alpha = _parse_expr(cur, kind)
        cur.done()
        # u and alpha are built over the working kind: only the endpoints or u's size fail
        payload = cur.build(ref2 if spec1.order != spec2.order else at,
                            WitnessCheck, u, alpha, mode, spec1, spec2)
        self.define(Declaration("witness", name, payload,
                                (cur.tokens[ref1], cur.tokens[ref2])), cur)

    def parse_check(self, cur: _Cursor) -> None:
        name = cur.expect_ident()
        cur.expect("=")
        at = cur.pos
        func = cur.expect_ident()
        if func not in _CHECKS:
            raise SessionSyntaxError(
                f"unknown check {func!r}; known: {', '.join(sorted(_CHECKS))}",
                cur.line, cur.col(at))
        cur.expect("(")
        args: list = []
        positions: list = []
        kwargs: list = []
        if not cur.accept(")"):
            cur.comma_list(lambda: self._parse_check_arg(cur, args, positions, kwargs))
            cur.expect(")")
        cur.expect("expect")
        expected = self._parse_expected(cur)
        cur.done()
        self._validate_check(cur, at, args, positions, kwargs)
        decl = CheckDecl(name, func, tuple(args), tuple(kwargs), expected)
        self.define(Declaration("check", name, decl,
                                tuple(a[1] for a in args if a[0] == "ref")), cur)

    def _parse_check_arg(self, cur: _Cursor, args: list, positions: list, kwargs: list) -> None:
        """Appends one argument, and to ``positions`` its token index if it is a name."""
        at = cur.pos
        if cur.peek().isidentifier():
            word = cur.expect_ident()
            if cur.accept("="):
                kwargs.append((word, self._parse_check_value(cur)))
            else:
                args.append(("ref", word))
                positions.append(at)
            return
        args.append(self._parse_check_value(cur))
        positions.append(None)

    def _parse_check_value(self, cur: _Cursor):
        items = cur.int_tuple()
        if items is not None:
            return ("tuple", items)
        return ("int", cur.signed_int())

    def _parse_expected(self, cur: _Cursor) -> str:
        if cur.accept("error"):
            return f"error {cur.expect_ident()}"
        if cur.peek() in _VERDICT_WORDS:
            return cur.expect_ident()
        items = cur.int_tuple()
        if items is not None:
            return _format_tuple(items)
        raise SessionSyntaxError("expected a verdict, a tuple or `error CODE`",
                                 cur.line, cur.col(cur.pos))

    def _validate_check(self, cur: _Cursor, at: int, args: list, positions: list,
                        kwargs: list) -> None:
        """Checks the arguments of the check named by token ``at``."""
        func = cur.tokens[at]
        check = _CHECKS[func]

        def error(message: str) -> SessionTypeError:
            return SessionTypeError(f"{func} {message}", cur.line, cur.col(at))

        if len(args) != len(check.params):
            raise error(f"takes {len(check.params)} arguments, got {len(args)}")
        for arg, pos, want in zip(args, positions, check.params):
            if want not in ("int", "tuple"):
                if arg[0] != "ref":
                    raise error(f"expects a declared {want} name")
                kinds = ("order",) if want in ("order", "sorder") else (want,)
                payload = self.lookup(cur, pos, kinds)
                if want == "order" and not isinstance(payload, BlockOrder):
                    raise SessionTypeError(
                        f"{func} expects a block order, {arg[1]!r} is a product",
                        cur.line, cur.col(pos))
            elif arg[0] != want:
                raise error(f"expects a {want} argument, got {arg[0]}")
            elif min(arg[1] if want == "tuple" else (arg[1],)) < 1:
                raise error(f"expects positive integers, got {_format_arg(arg)}")
        keys = [key for key, _ in kwargs]
        for key, value in kwargs:
            if key not in check.keywords:
                raise error(f"does not take keyword {key!r}")
            if keys.count(key) > 1:
                raise error(f"repeats keyword {key!r}")
            if key == "block":
                r = self.symbols[args[0][1]].payload.order.sig.r
                if value[0] != "int" or not 1 <= value[1] <= r:
                    raise error(f"block must be an integer in 1..{r}")


def parse_session(text: str) -> Session:
    """Parse a session file; raises on the first error with its position."""
    parser = _Parser()
    dispatch = {
        "division": parser.parse_division,
        "order": parser.parse_order,
        "involution": parser.parse_involution,
        "witness": parser.parse_witness,
        "check": parser.parse_check,
    }
    for lineno, raw in enumerate(_LINE_END.split(text), start=1):
        cur = _Cursor(raw, lineno)
        if not cur.peek():
            continue
        handler = dispatch.get(cur.expect_ident())
        if handler is None:
            raise SessionSyntaxError(
                f"unknown declaration {cur.tokens[0]!r}", lineno, cur.col(0))
        try:
            handler(cur)
        except RecursionError:
            # at the token the parser had reached
            raise SessionSyntaxError("nested too deeply", lineno, cur.col(cur.pos)) from None
    return Session(tuple(parser.declarations))


# ---------------------------------------------------------------------------
# Printing (canonical form; parse of the output yields an equal session)


def _format_tuple(tp: tuple[int, ...]) -> str:
    return "(" + ",".join(exact_str(x) for x in tp) + ")"


def _format_arg(arg: tuple) -> str:
    """The source text of a check argument ``("ref" | "int" | "tuple", value)``."""
    kind, value = arg
    if kind == "ref":
        return value
    return _format_tuple(value) if kind == "tuple" else exact_str(value)


def print_session(session: Session) -> str:
    lines = []
    for decl in session.declarations:
        if decl.kind == "division":
            d: DivisionSpec = decl.payload
            lines.append(
                f"division {decl.name} = {d.kind} s={exact_str(d.s)} t={exact_str(d.t)}")
        elif decl.kind == "order":
            if isinstance(decl.payload, BlockOrder):
                parts = ",".join(exact_str(p) for p in decl.payload.sig.parts)
                lines.append(f"order {decl.name} = block({decl.refs[0]}; {parts})")
            else:
                lines.append(f"order {decl.name} = product({', '.join(decl.refs)})")
        elif decl.kind == "involution":
            spec: InvolutionSpec = decl.payload
            lines.append(
                f"involution {decl.name} on {decl.refs[0]} : gauge {spec.gauge} "
                f"eps {spec.epsilon:+d} conj {_CONJ_WORDS[spec.order.division.kind.core]}")
        elif decl.kind == "witness":
            w: WitnessCheck = decl.payload
            word = {"generic-fiber": "F", "base": "base",
                    "etale": f"etale({w.mode.d})"}[w.mode.ring]
            lines.append(
                f"witness {decl.name} : from {decl.refs[0]} to {decl.refs[1]} "
                f"mode {word} u {w.u} alpha {w.alpha}")
        elif decl.kind == "check":
            c: CheckDecl = decl.payload
            rendered = [_format_arg(a) for a in c.args]
            rendered += [f"{key}={_format_arg(value)}" for key, value in c.kwargs]
            lines.append(
                f"check {decl.name} = {c.func}({', '.join(rendered)}) expect {c.expected}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Running


@record
class CheckResult:
    name: str
    func: str
    expected: str
    actual: str
    ok: bool
    elapsed: float
    detail: str = ""


@record
class Report:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _as_semisimple(obj) -> SemisimpleOrder:
    return obj if isinstance(obj, SemisimpleOrder) else SemisimpleOrder((obj,))


def _verdict(value: bool, detail: str = "") -> tuple[str, str]:
    return ("true" if value else "false"), detail


def _described(diag) -> tuple[str, str]:
    return _verdict(diag.ok, diag.describe())


def _run_aniso(spec: InvolutionSpec, block: int | None = None) -> tuple[str, str]:
    results = _residue_verdicts(spec)
    if block is not None:
        chosen = results[block - 1]
        return chosen.verdict, f"signature {chosen.signature}"
    verdict = ANISOTROPIC if all(r.is_anisotropic for r in results) else ISOTROPIC
    return verdict, "; ".join(
        f"block {i + 1}: {r.verdict} {r.signature}" for i, r in enumerate(results))


def _run_distinguish(spec1: InvolutionSpec, spec2: InvolutionSpec) -> tuple[str, str]:
    result = distinguish(spec1, spec2)
    return result.verdict, result.reason or ""


@record
class _Check:
    params: tuple[str, ...]  # a declared order|sorder|involution|witness name, or int|tuple
    run: Callable[..., tuple[str, str]]  # resolved arguments -> (actual, detail)
    keywords: tuple[str, ...] = ()


# One row per check.  An ``sorder`` argument names any order and reaches the
# runner as a SemisimpleOrder; ``transport`` accepts ``samples=n`` and ignores
# it.  Runners look the deciding functions up when called, so a wrapper
# installed on the module later (``perfbench/tracing.py``) sees every call.
_CHECKS = {
    "iso": _Check(("order", "order"), lambda a, b: _verdict(iso_decide(a, b))),
    "ss_iso": _Check(("sorder", "sorder"), lambda a, b: _verdict(ss_iso_decide(a, b))),
    "ss_iso_fixed": _Check(("sorder", "sorder"),
                           lambda a, b: _verdict(ss_iso_decide_fixed(a, b))),
    "inv": _Check(("order",), lambda a: (_format_tuple(inv_of(a)), "")),
    "sh_sig": _Check(("order",), lambda a: (
        _format_tuple(sh_signature(a.sig, a.division.s, a.division.t).parts), "")),
    "descend_sig": _Check(("tuple", "int", "int"), lambda parts, s, t: (
        _format_tuple(descend_signature(parts, s, t).parts), "")),
    "sh_verify": _Check(("int", "int", "tuple"), lambda s, t, parts: _verdict(
        verify_sh_pattern(s, t, Signature(parts)))),
    "becomes_iso_after_sh": _Check(("sorder", "sorder"),
                                   lambda a, b: _verdict(becomes_iso_after_sh(a, b))),
    "wellformed": _Check(("involution",), lambda spec: _described(wellformed(spec))),
    "residually_anisotropic": _Check(("involution",),
                                     lambda spec: _verdict(residually_anisotropic(spec))),
    "aniso": _Check(("involution",), _run_aniso, ("block",)),
    "distinguish": _Check(("involution", "involution"), _run_distinguish),
    "verify": _Check(("witness",), lambda w: _described(verify_witness(w))),
    "transport": _Check(("witness",), lambda w, samples=None: _described(transport_check(w)),
                        ("samples",)),
}


def _dispatch(table: dict, decl: CheckDecl) -> tuple[str, str]:
    """Returns (actual, detail); ``table`` maps every declared name that
    a check can refer to onto its payload."""
    check = _CHECKS[decl.func]
    args = []
    for (kind, value), want in zip(decl.args, check.params):
        if kind == "ref":
            value = table[value]
        args.append(_as_semisimple(value) if want == "sorder" else value)
    return check.run(*args, **{key: value[1] for key, value in decl.kwargs})


def run_session(session: Session, seed: int = 0) -> Report:
    """Run every check declaration in order, comparing against its
    expectation.  Any exception a check raises becomes its row
    `error TypeName`, which `expect error TypeName` matches, and the later
    checks still run.

    ``seed`` has no effect, since every check is exact; it is still
    accepted because ``perfbench/workloads.py`` passes it.
    """
    table = {**session.orders, **session.involutions, **session.witnesses,
             **session.divisions}
    results = []
    for decl in session.checks:
        start = time.perf_counter()
        try:
            actual, detail = _dispatch(table, decl)
        except Exception as exc:
            actual, detail = f"error {type(exc).__name__}", str(exc)
        elapsed = time.perf_counter() - start
        results.append(CheckResult(
            decl.name, decl.func, decl.expected, actual,
            actual == decl.expected, elapsed, detail))
    return Report(tuple(results))
