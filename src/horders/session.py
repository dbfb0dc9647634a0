"""Line-oriented session files describing orders, involutions and checks.

Grammar (one declaration per line, ``#`` starts a comment):

    division NAME = base|quaternion|quadratic(d) s=INT t=INT
    order NAME = block(DIVISION; n1,n2,...)
    order NAME = product(ORDER, ORDER, ...)
    involution NAME on ORDER : gauge MATRIX eps +1|-1 conj none|quadratic|quaternion
    witness NAME : from INV to INV mode F|base|etale(d) u MATRIX alpha EXPR
    check NAME = FUNC(ARGS) expect EXPECTED

Matrix literals are ``diag(...)``, ``mat[[...],[...]]`` and
``dsum(M1, M2, ...)``; entries are sums and products of ``INT[/INT]``,
``t`` (with integer powers), ``sqrt(d)`` and the quaternion units
``qi``, ``qj``, ``qk``.  Inside a witness declared over ``etale(d)``,
``sqrt(d)`` denotes the adjoined central square root.  Numbers are
ASCII digits and names ASCII letters, digits and underscores; any other
character is a syntax error at its column.  Errors carry the first
offending source position; there is no recovery.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import NamedTuple

from .basechange import becomes_iso_after_sh, descend_signature, sh_order, verify_sh_pattern
from .errors import (
    DuplicateIdentifier,
    HordersError,
    SessionSyntaxError,
    SessionTypeError,
    UnknownIdentifier,
)
from .involutions import (
    InvolutionSpec,
    anisotropy,
    distinguish,
    residue_involution,
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
from .scalars import BASE, QUATERNION, LaurentJet, Q, Scalar, ScalarKind, quadratic
from .scalars import exact_int, exact_str
from .witness import MODE_BASE, MODE_F, WitnessCheck, mode_etale, transport_check, verify_witness


class Token(NamedTuple):
    kind: str  # IDENT | INT | SYM
    value: str
    line: int
    col: int


# One alternative per token kind; whitespace matches no group, and any
# other single character (non-ASCII digits and letters included) is BAD.
_TOKEN = re.compile(r"[ \t\r]+|(?P<COMMENT>#)|(?P<INT>[0-9]+)"
                    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)|(?P<SYM>[()\[\]=,;:^*/+-])|(?P<BAD>.)",
                    re.DOTALL)


def _tokenize_line(text: str, lineno: int) -> list[Token]:
    out: list[Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "COMMENT":
            break
        if kind == "BAD":
            raise SessionSyntaxError(f"unexpected character {m.group()!r}", lineno, m.start() + 1)
        out.append(Token(kind, m.group(), lineno, m.start() + 1))
    return out


class _Cursor:
    def __init__(self, tokens: list[Token], lineno: int):
        self.tokens = tokens
        self.pos = 0
        self.line = lineno

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise SessionSyntaxError("unexpected end of line", self.line)
        self.pos += 1
        return tok

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        tok = self.peek()
        if tok is not None and tok.kind == kind and (value is None or tok.value == value):
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            got = f"{tok.value!r}" if tok is not None else "end of line"
            col = tok.col if tok is not None else None
            raise SessionSyntaxError(f"expected {want!r}, got {got}", self.line, col)
        self.pos += 1
        return tok

    def expect_ident(self, value: str | None = None) -> str:
        return self.expect("IDENT", value).value

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise SessionSyntaxError(f"trailing input {tok.value!r}", self.line, tok.col)

    def signed_int(self) -> int:
        sign = 1
        if self.accept("SYM", "-"):
            sign = -1
        elif self.accept("SYM", "+"):
            pass
        return sign * exact_int(self.expect("INT").value)


# ---------------------------------------------------------------------------
# Expressions


def _parse_expr(cur: _Cursor, kind: ScalarKind) -> LaurentJet:
    value = _parse_term(cur, kind)
    while True:
        if cur.accept("SYM", "+"):
            value = value + _parse_term(cur, kind)
        elif cur.accept("SYM", "-"):
            value = value - _parse_term(cur, kind)
        else:
            return value


def _parse_term(cur: _Cursor, kind: ScalarKind) -> LaurentJet:
    value = _parse_factor(cur, kind)
    while cur.accept("SYM", "*"):
        value = value * _parse_factor(cur, kind)
    return value


def _parse_factor(cur: _Cursor, kind: ScalarKind) -> LaurentJet:
    if cur.accept("SYM", "-"):
        return -_parse_factor(cur, kind)
    value = _parse_atom(cur, kind)
    if cur.accept("SYM", "^"):
        return value ** cur.signed_int()
    return value


def _parse_atom(cur: _Cursor, kind: ScalarKind) -> LaurentJet:
    tok = cur.next()
    if tok.kind == "INT":
        num = exact_int(tok.value)
        if cur.accept("SYM", "/"):
            den_tok = cur.expect("INT")
            den = exact_int(den_tok.value)
            if den == 0:
                raise SessionTypeError(
                    f"zero denominator in {exact_str(num)}/0", den_tok.line, den_tok.col)
            return LaurentJet.constant(kind, Q(num, den))
        return LaurentJet.constant(kind, num)
    if tok.kind == "SYM" and tok.value == "(":
        value = _parse_expr(cur, kind)
        cur.expect("SYM", ")")
        return value
    if tok.kind == "IDENT":
        if tok.value == "t":
            return LaurentJet.t_power(kind, 1)
        if tok.value in ("qi", "qj", "qk"):
            if kind.core != "quat":
                raise SessionTypeError(
                    f"{tok.value} is not a scalar of kind {kind}", tok.line, tok.col)
            index = {"qi": 1, "qj": 2, "qk": 3}[tok.value]
            return LaurentJet.constant(kind, Scalar.basis(kind, index))
        if tok.value == "sqrt":
            cur.expect("SYM", "(")
            d = cur.signed_int()
            cur.expect("SYM", ")")
            if kind.ext == d:
                return LaurentJet.constant(kind, Scalar.ext_gen(kind))
            if kind.core == "quad" and kind.d == d:
                return LaurentJet.constant(kind, Scalar.sqrt_gen(kind))
            raise SessionTypeError(
                f"sqrt({exact_str(d)}) is not a scalar of kind {kind}", tok.line, tok.col)
    raise SessionSyntaxError(f"unexpected token {tok.value!r} in expression", tok.line, tok.col)


def _parse_matrix(cur: _Cursor, kind: ScalarKind) -> JetMatrix:
    tok = cur.expect("IDENT")
    if tok.value == "diag":
        cur.expect("SYM", "(")
        entries = [_parse_expr(cur, kind)]
        while cur.accept("SYM", ","):
            entries.append(_parse_expr(cur, kind))
        cur.expect("SYM", ")")
        return JetMatrix.diagonal(entries)
    if tok.value == "mat":
        cur.expect("SYM", "[")
        rows = [_parse_matrix_row(cur, kind)]
        while cur.accept("SYM", ","):
            rows.append(_parse_matrix_row(cur, kind))
        cur.expect("SYM", "]")
        if any(len(r) != len(rows) for r in rows):
            raise SessionTypeError(
                f"mat literal must be square, got rows of sizes {[len(r) for r in rows]}",
                tok.line, tok.col)
        return JetMatrix.of(rows)
    if tok.value == "dsum":
        cur.expect("SYM", "(")
        blocks = [_parse_matrix(cur, kind)]
        while cur.accept("SYM", ","):
            blocks.append(_parse_matrix(cur, kind))
        cur.expect("SYM", ")")
        return JetMatrix.dsum(*blocks)
    raise SessionSyntaxError(
        f"expected diag, mat or dsum, got {tok.value!r}", tok.line, tok.col)


def _parse_matrix_row(cur: _Cursor, kind: ScalarKind) -> list[LaurentJet]:
    cur.expect("SYM", "[")
    row = [_parse_expr(cur, kind)]
    while cur.accept("SYM", ","):
        row.append(_parse_expr(cur, kind))
    cur.expect("SYM", "]")
    return row


# ---------------------------------------------------------------------------
# Declarations


@dataclass(frozen=True)
class CheckDecl:
    name: str
    func: str
    args: tuple
    kwargs: tuple
    expected: str


@dataclass(frozen=True)
class Declaration:
    kind: str
    name: str
    payload: object
    refs: tuple[str, ...] = ()


@dataclass(frozen=True)
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


_CHECK_SIGNATURES: dict[str, tuple[str, ...]] = {
    "iso": ("order", "order"),
    "ss_iso": ("sorder", "sorder"),
    "ss_iso_fixed": ("sorder", "sorder"),
    "inv": ("order",),
    "sh_sig": ("order",),
    "descend_sig": ("tuple", "int", "int"),
    "sh_verify": ("int", "int", "tuple"),
    "becomes_iso_after_sh": ("sorder", "sorder"),
    "wellformed": ("involution",),
    "residually_anisotropic": ("involution",),
    "aniso": ("involution",),
    "distinguish": ("involution", "involution"),
    "verify": ("witness",),
    "transport": ("witness",),
}

_CHECK_KWARGS = {"aniso": {"block"}, "transport": {"samples"}}

_VERDICT_WORDS = {"true", "false", "distinguished", "inconclusive", "anisotropic", "isotropic"}


class _Parser:
    def __init__(self):
        self.symbols: dict[str, Declaration] = {}
        self.declarations: list[Declaration] = []

    def define(self, decl: Declaration, line: int) -> None:
        if decl.name in self.symbols:
            raise DuplicateIdentifier(f"{decl.name!r} is already defined", line)
        self.symbols[decl.name] = decl
        self.declarations.append(decl)

    def lookup(self, name: str, kinds: tuple[str, ...], line: int, col: int | None = None):
        decl = self.symbols.get(name)
        if decl is None:
            raise UnknownIdentifier(f"unknown identifier {name!r}", line, col)
        if decl.kind not in kinds:
            raise SessionTypeError(
                f"{name!r} is a {decl.kind}, expected {' or '.join(kinds)}", line, col)
        return decl.payload

    # -- declaration parsers ------------------------------------------------

    def parse_division(self, cur: _Cursor) -> None:
        name = cur.expect_ident()
        cur.expect("SYM", "=")
        word = cur.expect_ident()
        if word == "base":
            kind = BASE
        elif word == "quaternion":
            kind = QUATERNION
        elif word == "quadratic":
            cur.expect("SYM", "(")
            d = cur.signed_int()
            cur.expect("SYM", ")")
            try:
                kind = quadratic(d)
            except ValueError as exc:
                raise SessionTypeError(str(exc), cur.line)
        else:
            raise SessionSyntaxError(
                f"expected base, quadratic or quaternion, got {word!r}", cur.line)
        cur.expect_ident("s")
        cur.expect("SYM", "=")
        s = exact_int(cur.expect("INT").value)
        cur.expect_ident("t")
        cur.expect("SYM", "=")
        t = exact_int(cur.expect("INT").value)
        cur.done()
        try:
            payload = DivisionSpec(name, kind, s, t)
        except ValueError as exc:
            raise SessionTypeError(str(exc), cur.line)
        self.define(Declaration("division", name, payload), cur.line)

    def parse_order(self, cur: _Cursor) -> None:
        name = cur.expect_ident()
        cur.expect("SYM", "=")
        word = cur.expect_ident()
        if word == "block":
            cur.expect("SYM", "(")
            tok = cur.expect("IDENT")
            division = self.lookup(tok.value, ("division",), tok.line, tok.col)
            cur.expect("SYM", ";")
            parts = [exact_int(cur.expect("INT").value)]
            while cur.accept("SYM", ","):
                parts.append(exact_int(cur.expect("INT").value))
            cur.expect("SYM", ")")
            cur.done()
            try:
                payload = BlockOrder(division, Signature(tuple(parts)))
            except ValueError as exc:
                raise SessionTypeError(str(exc), cur.line)
            self.define(Declaration("order", name, payload, (tok.value,)), cur.line)
            return
        if word == "product":
            cur.expect("SYM", "(")
            refs = [cur.expect("IDENT")]
            while cur.accept("SYM", ","):
                refs.append(cur.expect("IDENT"))
            cur.expect("SYM", ")")
            cur.done()
            components = []
            for tok in refs:
                comp = self.lookup(tok.value, ("order",), tok.line, tok.col)
                if isinstance(comp, SemisimpleOrder):
                    components.extend(comp.components)
                else:
                    components.append(comp)
            payload = SemisimpleOrder(tuple(components))
            self.define(Declaration("order", name, payload,
                                    tuple(t.value for t in refs)), cur.line)
            return
        raise SessionSyntaxError(f"expected block or product, got {word!r}", cur.line)

    def parse_involution(self, cur: _Cursor) -> None:
        name = cur.expect_ident()
        cur.expect_ident("on")
        tok = cur.expect("IDENT")
        order = self.lookup(tok.value, ("order",), tok.line, tok.col)
        if not isinstance(order, BlockOrder):
            raise SessionTypeError(
                f"involutions are declared on block orders, {tok.value!r} is a product",
                tok.line, tok.col)
        cur.expect("SYM", ":")
        cur.expect_ident("gauge")
        gauge = _parse_matrix(cur, order.division.kind)
        cur.expect_ident("eps")
        epsilon = cur.signed_int()
        cur.expect_ident("conj")
        word = cur.expect_ident()
        expected_word = {"base": "none", "quad": "quadratic", "quat": "quaternion"}[
            order.division.kind.core]
        if word != expected_word:
            raise SessionTypeError(
                f"conj {word} does not match the order's scalar kind "
                f"({order.division.kind}, expected conj {expected_word})", cur.line)
        cur.done()
        try:
            payload = InvolutionSpec(order, gauge, epsilon)
        except (HordersError, ValueError) as exc:
            raise SessionTypeError(str(exc), cur.line)
        self.define(Declaration("involution", name, payload, (tok.value,)), cur.line)

    def parse_witness(self, cur: _Cursor) -> None:
        name = cur.expect_ident()
        cur.expect("SYM", ":")
        cur.expect_ident("from")
        tok1 = cur.expect("IDENT")
        spec1 = self.lookup(tok1.value, ("involution",), tok1.line, tok1.col)
        cur.expect_ident("to")
        tok2 = cur.expect("IDENT")
        spec2 = self.lookup(tok2.value, ("involution",), tok2.line, tok2.col)
        cur.expect_ident("mode")
        word = cur.expect("IDENT")
        if word.value == "F":
            mode = MODE_F
        elif word.value == "base":
            mode = MODE_BASE
        elif word.value == "etale":
            cur.expect("SYM", "(")
            d = cur.signed_int()
            cur.expect("SYM", ")")
            try:
                mode = mode_etale(d)
            except ValueError as exc:
                raise SessionTypeError(str(exc), cur.line)
        else:
            raise SessionSyntaxError(
                f"expected F, base or etale(d), got {word.value!r}", word.line, word.col)
        kind = spec1.order.division.kind
        if mode.ring == "etale":
            kind = kind.extended(mode.d)
        cur.expect_ident("u")
        u = _parse_matrix(cur, kind)
        cur.expect_ident("alpha")
        alpha = _parse_expr(cur, kind)
        cur.done()
        try:
            payload = WitnessCheck(u, alpha, mode, spec1, spec2)
        except HordersError as exc:
            raise SessionTypeError(str(exc), cur.line)
        self.define(Declaration("witness", name, payload, (tok1.value, tok2.value)), cur.line)

    def parse_check(self, cur: _Cursor) -> None:
        name = cur.expect_ident()
        cur.expect("SYM", "=")
        func_tok = cur.expect("IDENT")
        func = func_tok.value
        if func not in _CHECK_SIGNATURES:
            raise SessionSyntaxError(
                f"unknown check {func!r}; known: {', '.join(sorted(_CHECK_SIGNATURES))}",
                func_tok.line, func_tok.col)
        cur.expect("SYM", "(")
        args: list = []
        positions: list = []
        kwargs: list = []
        if not cur.accept("SYM", ")"):
            self._parse_check_arg(cur, args, positions, kwargs)
            while cur.accept("SYM", ","):
                self._parse_check_arg(cur, args, positions, kwargs)
            cur.expect("SYM", ")")
        cur.expect_ident("expect")
        expected = self._parse_expected(cur)
        cur.done()
        self._validate_check(func, args, positions, kwargs, func_tok)
        decl = CheckDecl(name, func, tuple(args), tuple(kwargs), expected)
        self.define(Declaration("check", name, decl,
                                tuple(a[1] for a in args if a[0] == "ref")), cur.line)

    def _parse_check_arg(self, cur: _Cursor, args: list, positions: list, kwargs: list) -> None:
        tok = cur.peek()
        if tok is not None and tok.kind == "IDENT":
            cur.next()
            if cur.accept("SYM", "="):
                value = self._parse_check_value(cur)
                kwargs.append((tok.value, value))
            else:
                args.append(("ref", tok.value))
                positions.append((tok.line, tok.col))
            return
        args.append(self._parse_check_value(cur))
        positions.append((cur.line, None))

    def _parse_check_value(self, cur: _Cursor):
        if cur.accept("SYM", "("):
            items = [cur.signed_int()]
            while cur.accept("SYM", ","):
                items.append(cur.signed_int())
            cur.expect("SYM", ")")
            return ("tuple", tuple(items))
        return ("int", cur.signed_int())

    def _parse_expected(self, cur: _Cursor) -> str:
        tok = cur.peek()
        if tok is not None and tok.kind == "IDENT" and tok.value == "error":
            cur.next()
            code = cur.expect_ident()
            return f"error {code}"
        if tok is not None and tok.kind == "IDENT" and tok.value in _VERDICT_WORDS:
            cur.next()
            return tok.value
        if cur.accept("SYM", "("):
            items = [cur.signed_int()]
            while cur.accept("SYM", ","):
                items.append(cur.signed_int())
            cur.expect("SYM", ")")
            return _format_tuple(tuple(items))
        raise SessionSyntaxError("expected a verdict, a tuple or `error CODE`", cur.line)

    def _validate_check(self, func: str, args: list, positions: list,
                        kwargs: list, tok: Token) -> None:
        sig = _CHECK_SIGNATURES[func]
        if len(args) != len(sig):
            raise SessionTypeError(
                f"{func} takes {len(sig)} arguments, got {len(args)}", tok.line, tok.col)
        for arg, pos, want in zip(args, positions, sig):
            if want in ("order", "sorder", "involution", "witness", "division"):
                if arg[0] != "ref":
                    raise SessionTypeError(
                        f"{func} expects a declared {want} name", tok.line, tok.col)
                kinds = ("order",) if want in ("order", "sorder") else (want,)
                payload = self.lookup(arg[1], kinds, pos[0], pos[1])
                if want == "order" and not isinstance(payload, BlockOrder):
                    raise SessionTypeError(
                        f"{func} expects a block order, {arg[1]!r} is a product",
                        pos[0], pos[1])
            elif arg[0] != want:
                raise SessionTypeError(
                    f"{func} expects a {want} argument, got {arg[0]}", tok.line, tok.col)
            elif min(arg[1] if want == "tuple" else (arg[1],)) < 1:
                text = _format_tuple(arg[1]) if want == "tuple" else exact_str(arg[1])
                raise SessionTypeError(
                    f"{func} expects positive integers, got {text}", tok.line, tok.col)
        allowed = _CHECK_KWARGS.get(func, set())
        for key, value in kwargs:
            if key not in allowed:
                raise SessionTypeError(
                    f"{func} does not take keyword {key!r}", tok.line, tok.col)
            if key == "block":
                r = self.symbols[args[0][1]].payload.order.sig.r
                if value[0] != "int" or not 1 <= value[1] <= r:
                    raise SessionTypeError(
                        f"{func} block must be an integer in 1..{r}", tok.line, tok.col)


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        if not tokens:
            continue
        cur = _Cursor(tokens, lineno)
        head = cur.expect("IDENT")
        handler = dispatch.get(head.value)
        if handler is None:
            raise SessionSyntaxError(
                f"unknown declaration {head.value!r}", head.line, head.col)
        handler(cur)
    return Session(tuple(parser.declarations))


# ---------------------------------------------------------------------------
# Printing (canonical form; parse of the output yields an equal session)


def _format_tuple(tp: tuple[int, ...]) -> str:
    return "(" + ",".join(exact_str(x) for x in tp) + ")"


def print_session(session: Session) -> str:
    lines = []
    for decl in session.declarations:
        if decl.kind == "division":
            d: DivisionSpec = decl.payload
            word = {"base": "base", "quad": f"quadratic({d.kind.d})",
                    "quat": "quaternion"}[d.kind.core]
            lines.append(f"division {decl.name} = {word} s={exact_str(d.s)} t={exact_str(d.t)}")
        elif decl.kind == "order":
            if isinstance(decl.payload, BlockOrder):
                parts = ",".join(exact_str(p) for p in decl.payload.sig.parts)
                lines.append(f"order {decl.name} = block({decl.refs[0]}; {parts})")
            else:
                lines.append(f"order {decl.name} = product({', '.join(decl.refs)})")
        elif decl.kind == "involution":
            spec: InvolutionSpec = decl.payload
            word = {"base": "none", "quad": "quadratic", "quat": "quaternion"}[
                spec.order.division.kind.core]
            lines.append(
                f"involution {decl.name} on {decl.refs[0]} : gauge {spec.gauge} "
                f"eps {spec.epsilon:+d} conj {word}")
        elif decl.kind == "witness":
            w: WitnessCheck = decl.payload
            word = {"generic-fiber": "F", "base": "base",
                    "etale": f"etale({w.mode.d})"}[w.mode.ring]
            lines.append(
                f"witness {decl.name} : from {decl.refs[0]} to {decl.refs[1]} "
                f"mode {word} u {w.u} alpha {w.alpha}")
        elif decl.kind == "check":
            c: CheckDecl = decl.payload
            rendered = []
            for arg in c.args:
                if arg[0] == "ref":
                    rendered.append(arg[1])
                elif arg[0] == "tuple":
                    rendered.append(_format_tuple(arg[1]))
                else:
                    rendered.append(exact_str(arg[1]))
            for key, value in c.kwargs:
                text = _format_tuple(value[1]) if value[0] == "tuple" else exact_str(value[1])
                rendered.append(f"{key}={text}")
            lines.append(
                f"check {decl.name} = {c.func}({', '.join(rendered)}) expect {c.expected}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Running


@dataclass(frozen=True)
class CheckResult:
    name: str
    func: str
    expected: str
    actual: str
    ok: bool
    elapsed: float
    detail: str = ""


@dataclass(frozen=True)
class Report:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _as_semisimple(obj) -> SemisimpleOrder:
    return obj if isinstance(obj, SemisimpleOrder) else SemisimpleOrder((obj,))


def _dispatch(table: dict, decl: CheckDecl) -> tuple[str, str]:
    """Returns (actual, detail); ``table`` maps every declared name that
    a check can refer to onto its payload."""

    def arg(i):
        a = decl.args[i]
        if a[0] == "ref":
            return table[a[1]]
        return a[1]

    kwargs = {k: (v[1] if v[0] in ("int", "tuple") else v) for k, v in decl.kwargs}
    func = decl.func
    if func == "iso":
        return _fmt_bool(iso_decide(arg(0), arg(1))), ""
    if func == "ss_iso":
        return _fmt_bool(ss_iso_decide(_as_semisimple(arg(0)), _as_semisimple(arg(1)))), ""
    if func == "ss_iso_fixed":
        return _fmt_bool(ss_iso_decide_fixed(_as_semisimple(arg(0)), _as_semisimple(arg(1)))), ""
    if func == "inv":
        return _format_tuple(inv_of(arg(0))), ""
    if func == "sh_sig":
        return _format_tuple(sh_order(arg(0)).order.sig.parts), ""
    if func == "descend_sig":
        return _format_tuple(descend_signature(arg(0), arg(1), arg(2)).parts), ""
    if func == "sh_verify":
        return _fmt_bool(verify_sh_pattern(arg(0), arg(1), Signature(arg(2)))), ""
    if func == "becomes_iso_after_sh":
        return _fmt_bool(becomes_iso_after_sh(_as_semisimple(arg(0)), _as_semisimple(arg(1)))), ""
    if func == "wellformed":
        diag = wellformed(arg(0))
        return _fmt_bool(diag.ok), diag.describe()
    if func == "residually_anisotropic":
        return _fmt_bool(residually_anisotropic(arg(0))), ""
    if func == "aniso":
        res = residue_involution(arg(0))
        results = [anisotropy(b.gauge, res.kind, res.epsilon) for b in res.blocks]
        if "block" in kwargs:
            chosen = results[kwargs["block"] - 1]
            return chosen.verdict, f"signature {chosen.signature}"
        verdict = "anisotropic" if all(r.is_anisotropic for r in results) else "isotropic"
        return verdict, "; ".join(
            f"block {i + 1}: {r.verdict} {r.signature}" for i, r in enumerate(results))
    if func == "distinguish":
        result = distinguish(arg(0), arg(1))
        return result.verdict, result.reason or ""
    if func == "verify":
        diag = verify_witness(arg(0))
        return _fmt_bool(diag.ok), diag.describe()
    if func == "transport":
        diag = transport_check(arg(0))  # samples=n is accepted and has no effect
        return _fmt_bool(diag.ok), diag.describe()
    raise AssertionError(f"unhandled check {func}")


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


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
