"""Command line interface.

Exit codes: 0 when every expectation holds, 1 when an expectation or
verdict fails, 2 on session-file errors, 3 on mathematical precondition
errors.  JSON output is deterministic: keys are sorted, no timings
are included, and the schema is versioned.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .basechange import sh_order, verify_sh_pattern
from .errors import HordersError, SessionError
from .involutions import distinguish, residue_involution, residue_isotropy
from .orders import BlockOrder, DivisionSpec, Signature, cyclic_normal_form, iso_decide
from .session import Report, Session, parse_session, run_session
from .witness import SCENARIOS, replay, transport_check, verify_witness

SCHEMA = 1


def _render(payload: dict, text: str, as_json: bool) -> bytes:
    """The versioned, key-sorted JSON of ``payload``, or ``text`` and a newline."""
    if as_json:
        payload = {"schema": SCHEMA, **payload}
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    return (text + "\n").encode()


def _report_output(report: Report) -> tuple[dict, str]:
    payload = {"ok": report.ok, "checks": [
        {"name": c.name, "check": c.func, "expected": c.expected, "actual": c.actual,
         "ok": c.ok, "detail": c.detail} for c in report.checks]}
    lines = []
    for c in report.checks:
        mark = "PASS" if c.ok else "FAIL"
        extra = f" ({c.detail})" if c.detail and not c.ok else ""
        lines.append(f"{mark} {c.name}: {c.actual}, expected {c.expected}"
                     f"{extra} [{c.elapsed * 1000:.1f} ms]")
    lines.append(f"{'ok' if report.ok else 'FAILED'}: "
                 f"{sum(c.ok for c in report.checks)}/{len(report.checks)} checks passed")
    return payload, "\n".join(lines)


def _is_digits(text: str) -> bool:
    """A run of the ASCII digits 0-9; ``int()`` also takes ``٤``, ``4_0`` and ``+4``."""
    return text.isascii() and text.isdigit()


def _parse_sig(text: str) -> Signature:
    """Comma separated block sizes, each a run of ASCII decimal digits."""
    parts = text.split(",")
    for k, part in enumerate(parts, 1):
        if not _is_digits(part):
            raise HordersError(f"bad signature {text!r}: part {k} is {part!r}, "
                               "not a run of the digits 0-9")
    try:
        return Signature(tuple(int(p) for p in parts))
    except ValueError as exc:
        raise HordersError(f"bad signature {text!r}: {exc}")


def _load_session(path: str) -> Session:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SessionError(f"cannot read session file {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise SessionError(f"session file {path} is not UTF-8: byte {exc.start} ({exc.reason})")
    return parse_session(text)


_NOUNS = {"orders": "order", "involutions": "involution", "witnesses": "witness"}


def _session_object(session: Session, table: str, name: str):
    objects = getattr(session, table)
    if name not in objects:
        raise HordersError(f"no {_NOUNS[table]} named {name!r} in the session")
    return objects[name]


_INV_COUNTS = {1: "one --inv name", 2: "two --inv names"}


def _involutions(args, count: int) -> list:
    """The involutions that exactly ``count`` --inv flags name.  distinguish
    counts the names before it reads the session file, resinv and aniso after."""
    wrong = len(args.inv) != count
    if wrong and count == 2:
        raise HordersError(f"{args.command} needs exactly {_INV_COUNTS[count]}")
    session = _load_session(args.session)
    if wrong:
        raise HordersError(f"{args.command} needs exactly {_INV_COUNTS[count]}")
    return [_session_object(session, "involutions", name) for name in args.inv]


# ---------------------------------------------------------------------------
# Commands: each returns its Output, and main prints the payload or the text.

Output = tuple[int, dict, str]  # exit code, JSON payload, text


def _cmd_check(args) -> Output:
    report = run_session(_load_session(args.file))
    return (0 if report.ok else 1, *_report_output(report))


def _cmd_replay(args) -> Output:
    report = replay(args.scenario)
    payload = {"scenario": report.scenario, "ok": report.ok, "steps": [
        {"name": s.name, "expected": s.expected, "actual": s.actual, "ok": s.ok}
        for s in report.steps]}
    lines = [f"scenario {report.scenario}"]
    for s in report.steps:
        mark = "PASS" if s.ok else "FAIL"
        lines.append(f"  {mark} {s.name}: {s.actual} (expected {s.expected})")
    lines.append(f"{'ok' if report.ok else 'FAILED'} in {report.elapsed * 1000:.0f} ms")
    return 0 if report.ok else 1, payload, "\n".join(lines)


def _cmd_inv(args) -> Output:
    sig = _parse_sig(args.sig)
    normal = cyclic_normal_form(sig.parts)
    return 0, {"sig": list(sig.parts), "inv": list(normal)}, f"inv{tuple(sig.parts)} = {normal}"


def _cmd_iso(args) -> Output:
    a = BlockOrder(DivisionSpec(args.division), _parse_sig(args.sig))
    b = BlockOrder(DivisionSpec(args.division2 or args.division), _parse_sig(args.sig2))
    result = iso_decide(a, b)
    return 0, {"iso": result}, "isomorphic" if result else "not isomorphic"


def _cmd_sh(args) -> Output:
    if (args.session, args.order) != (None, None) and (args.sig, args.s, args.t) != (None,) * 3:
        raise HordersError("give either --session with --order, or --sig with --s/--t, not both")
    if args.session and args.order:
        order = _session_object(_load_session(args.session), "orders", args.order)
        if not isinstance(order, BlockOrder):
            raise HordersError(f"{args.order!r} is a product; sh applies to block orders")
    elif args.sig:
        order = BlockOrder(DivisionSpec("D", s=args.s or 1, t=args.t or 1), _parse_sig(args.sig))
    else:
        raise HordersError("need either --session with --order, or --sig with --s/--t")
    result = sh_order(order)
    return (0, {"sh_sig": list(result.order.sig.parts), "perm": list(result.perm)},
            f"sh signature: {result.order.sig.parts}\npermutation: {result.perm}")


def _cmd_sh_verify(args) -> Output:
    sig = _parse_sig(args.sig)
    ok = verify_sh_pattern(args.s, args.t, sig)
    return (0 if ok else 1, {"verified": ok, "s": args.s, "t": args.t, "sig": list(sig.parts)},
            "verified" if ok else "MISMATCH")


def _cmd_resinv(args) -> Output:
    [spec] = _involutions(args, 1)
    res = residue_involution(spec)
    blocks = [
        {"size": b.size, "t_power": b.t_power,
         "gauge": [[str(e) for e in row] for row in b.gauge]}
        for b in res.blocks
    ]
    lines = [f"residue involution over {res.kind}, eps {res.epsilon:+d}"]
    for i, b in enumerate(blocks, 1):
        rows = "; ".join(", ".join(r) for r in b["gauge"])
        lines.append(f"  block {i}: size {b['size']}, t^{b['t_power']} * [{rows}]")
    return 0, {"epsilon": res.epsilon, "kind": str(res.kind), "blocks": blocks}, "\n".join(lines)


def _cmd_aniso(args) -> Output:
    [spec] = _involutions(args, 1)
    r = spec.order.sig.r
    if args.block is not None and not 1 <= args.block <= r:
        raise HordersError(f"--block must be in 1..{r}, got {_shown(str(args.block), str)}")
    results = list(enumerate(residue_isotropy(spec), 1))
    if args.block is not None:
        results = [results[args.block - 1]]
    blocks = [{"verdict": iso.verdict, "signature": list(iso.signature),
               "has_witness": iso.witness is not None} for _, iso in results]
    text = "\n".join(f"block {i}: {iso.verdict} {iso.signature}"
                     f"{' (witness found)' if iso.witness is not None else ''}"
                     for i, iso in results)
    return 0, {"blocks": blocks}, text


def _cmd_distinguish(args) -> Output:
    result = distinguish(*_involutions(args, 2))
    reason = f": {result.reason}" if result.reason else ""
    return 0, {"verdict": result.verdict, "reason": result.reason or ""}, result.verdict + reason


def _cmd_verify(args) -> Output:
    w = _session_object(_load_session(args.session), "witnesses", args.witness)
    diag = verify_witness(w)
    if diag.ok and args.transport:
        diag = transport_check(w)
    return 0 if diag.ok else 1, {"ok": diag.ok, "diagnostics": diag.describe()}, diag.describe()


def _ascii_int(text: str) -> int | None:
    """The integer that ASCII digits after an optional ``-`` spell, or None."""
    try:
        return int(text) if _is_digits(text.removeprefix("-")) else None
    except ValueError:  # more digits than int() converts
        return None


def _shown(text: str, show=repr) -> str:
    """``show(text)``, cut to its first 20 characters and its length past that."""
    return show(text) if len(text) <= 20 else f"{show(text[:20])}... ({len(text)} characters)"


def _label(text: str) -> str:
    """An argparse type: a nonempty division label.  An empty one would
    read as "not given" where --division2 falls back to --division."""
    if not text:
        raise argparse.ArgumentTypeError("expected a nonempty division label")
    return text


def _int_at_least(low: int | None):
    """An argparse type: an ASCII integer, at least ``low`` unless that is None.
    A rejected value is echoed by :func:`_shown`."""
    def parse(text: str) -> int:
        value = _ascii_int(text)
        if value is None or low is not None and value < low:
            bound = "" if low is None else f" of at least {low}"
            raise argparse.ArgumentTypeError(f"expected an integer{bound}, got {_shown(text)}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horders",
        description="Exact computations with block hereditary orders, their "
                    "cyclic invariants, base change, involutions and witnesses.")
    parser.add_argument("--version", action="version", version=f"horders {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *flags):
        """A sub-command with its own (flag, options) pairs, then the common flags."""
        p = sub.add_parser(name, help=help)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--precision", type=_int_at_least(2), default=16,
                       help="accepted for compatibility and has no effect: every "
                            "check is exact (at least 2)")
        p.set_defaults(fn=fn)

    positive = {"type": _int_at_least(1)}
    session = ("--session", {"required": True})
    inv = ("--inv", {"action": "append", "required": True})
    command("check", _cmd_check, "run every check in a session file", ("file", {}))
    command("replay", _cmd_replay, "run a bundled scenario",
            ("--scenario", {"required": True, "choices": SCENARIOS}))
    command("inv", _cmd_inv, "cyclic normal form of a signature",
            ("--sig", {"required": True, "help": "comma separated block sizes, e.g. 4,2"}))
    command("iso", _cmd_iso, "isomorphism of two block orders",
            ("--sig", {"required": True}), ("--sig2", {"required": True}),
            ("--division", {"type": _label, "default": "D",
                            "help": "division label of the first order"}),
            ("--division2", {"type": _label, "default": None,
                             "help": "division label of the second order (default: same)"}))
    command("sh", _cmd_sh, "base-changed signature and permutation witness",
            ("--sig", {"default": None}), ("--s", {**positive, "default": None}),
            ("--t", {**positive, "default": None}), ("--session", {"default": None}),
            ("--order", {"default": None}))
    command("sh-verify", _cmd_sh_verify, "pattern conjugation check (size at most 65536)",
            ("--s", {**positive, "required": True}), ("--t", {**positive, "required": True}),
            ("--sig", {"required": True}))
    command("resinv", _cmd_resinv, "residue involution blocks", session, inv)
    command("aniso", _cmd_aniso, "isotropy of residue blocks", session, inv,
            ("--block", {"type": _int_at_least(None), "default": None}))
    command("distinguish", _cmd_distinguish, "sound non-isomorphism test", session, inv)
    command("verify", _cmd_verify, "verify a transport witness", session,
            ("--witness", {"required": True}),
            ("--transport", {"action": "store_true",
                             "help": "also run the conjugation transport check"}))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, text = args.fn(args)
    except SessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HordersError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.buffer.write(_render(payload, text, args.json))
    sys.stdout.buffer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
