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
from pathlib import Path

from . import __version__
from .basechange import sh_order, verify_sh_pattern
from .errors import HordersError, SessionError
from .involutions import distinguish, residue_involution, residue_isotropy
from .orders import BlockOrder, DivisionSpec, Signature, cyclic_normal_form, iso_decide
from .session import Report, Session, parse_session, run_session
from .witness import SCENARIOS, ReplayReport, replay, transport_check, verify_witness

SCHEMA = 1


def emit(report: Report, fmt: str = "text") -> bytes:
    """Render a session report; JSON is byte-stable for identical runs."""
    if fmt == "json":
        return _emit_json({
            "ok": report.ok,
            "checks": [
                {
                    "name": c.name,
                    "check": c.func,
                    "expected": c.expected,
                    "actual": c.actual,
                    "ok": c.ok,
                    "detail": c.detail,
                }
                for c in report.checks
            ],
        })
    lines = []
    for c in report.checks:
        mark = "PASS" if c.ok else "FAIL"
        extra = f" ({c.detail})" if c.detail and not c.ok else ""
        lines.append(f"{mark} {c.name}: {c.actual}, expected {c.expected}"
                     f"{extra} [{c.elapsed * 1000:.1f} ms]")
    lines.append(f"{'ok' if report.ok else 'FAILED'}: "
                 f"{sum(c.ok for c in report.checks)}/{len(report.checks)} checks passed")
    return ("\n".join(lines) + "\n").encode()


def _emit_replay(report: ReplayReport, as_json: bool) -> bytes:
    if as_json:
        return _emit_json({
            "scenario": report.scenario,
            "ok": report.ok,
            "steps": [
                {"name": s.name, "expected": s.expected, "actual": s.actual, "ok": s.ok}
                for s in report.steps
            ],
        })
    lines = [f"scenario {report.scenario}"]
    for s in report.steps:
        mark = "PASS" if s.ok else "FAIL"
        lines.append(f"  {mark} {s.name}: {s.actual} (expected {s.expected})")
    lines.append(f"{'ok' if report.ok else 'FAILED'} in {report.elapsed * 1000:.0f} ms")
    return ("\n".join(lines) + "\n").encode()


def _emit_json(payload: dict) -> bytes:
    payload = {"schema": SCHEMA, **payload}
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def _parse_sig(text: str) -> Signature:
    try:
        return Signature(tuple(int(p) for p in text.split(",")))
    except ValueError as exc:
        raise HordersError(f"bad signature {text!r}: {exc}")


def _load_session(path: str) -> Session:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SessionError(f"cannot read session file {path}: {exc.strerror or exc}")
    return parse_session(text)


def _session_object(session: Session, table: str, name: str):
    objects = getattr(session, table)
    if name not in objects:
        raise HordersError(f"no {table[:-1]} named {name!r} in the session")
    return objects[name]


def _write(data: bytes) -> None:
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()


# ---------------------------------------------------------------------------
# Commands


def _cmd_check(args) -> int:
    session = _load_session(args.file)
    report = run_session(session)
    _write(emit(report, "json" if args.json else "text"))
    return 0 if report.ok else 1


def _cmd_replay(args) -> int:
    report = replay(args.scenario)
    _write(_emit_replay(report, args.json))
    return 0 if report.ok else 1


def _cmd_inv(args) -> int:
    sig = _parse_sig(args.sig)
    normal = cyclic_normal_form(sig.parts)
    if args.json:
        _write(_emit_json({"sig": list(sig.parts), "inv": list(normal)}))
    else:
        _write(f"inv{tuple(sig.parts)} = {normal}\n".encode())
    return 0


def _cmd_iso(args) -> int:
    a = BlockOrder(DivisionSpec(args.division), _parse_sig(args.sig))
    b = BlockOrder(DivisionSpec(args.division2 or args.division), _parse_sig(args.sig2))
    result = iso_decide(a, b)
    if args.json:
        _write(_emit_json({"iso": result}))
    else:
        _write(f"{'isomorphic' if result else 'not isomorphic'}\n".encode())
    return 0


def _cmd_sh(args) -> int:
    if args.session and args.order:
        order = _session_object(_load_session(args.session), "orders", args.order)
        if not isinstance(order, BlockOrder):
            raise HordersError(f"{args.order!r} is a product; sh applies to block orders")
    elif args.sig:
        order = BlockOrder(DivisionSpec("D", s=args.s, t=args.t), _parse_sig(args.sig))
    else:
        raise HordersError("need either --session with --order, or --sig with --s/--t")
    result = sh_order(order)
    if args.json:
        _write(_emit_json({
            "sh_sig": list(result.order.sig.parts),
            "perm": list(result.perm),
        }))
    else:
        _write((f"sh signature: {result.order.sig.parts}\n"
                f"permutation: {result.perm}\n").encode())
    return 0


def _cmd_sh_verify(args) -> int:
    ok = verify_sh_pattern(args.s, args.t, _parse_sig(args.sig))
    if args.json:
        _write(_emit_json({"verified": ok, "s": args.s, "t": args.t,
                           "sig": [int(p) for p in args.sig.split(",")]}))
    else:
        _write((f"{'verified' if ok else 'MISMATCH'}\n").encode())
    return 0 if ok else 1


def _cmd_resinv(args) -> int:
    spec = _session_object(_load_session(args.session), "involutions", args.inv[0])
    res = residue_involution(spec)
    blocks = [
        {"size": b.size, "t_power": b.t_power,
         "gauge": [[str(e) for e in row] for row in b.gauge]}
        for b in res.blocks
    ]
    if args.json:
        _write(_emit_json({"epsilon": res.epsilon, "kind": str(res.kind), "blocks": blocks}))
    else:
        lines = [f"residue involution over {res.kind}, eps {res.epsilon:+d}"]
        for i, b in enumerate(res.blocks, 1):
            rows = "; ".join(", ".join(r) for r in blocks[i - 1]["gauge"])
            lines.append(f"  block {i}: size {b.size}, t^{b.t_power} * [{rows}]")
        _write(("\n".join(lines) + "\n").encode())
    return 0


def _cmd_aniso(args) -> int:
    spec = _session_object(_load_session(args.session), "involutions", args.inv[0])
    r = spec.order.sig.r
    if args.block is not None and not 1 <= args.block <= r:
        raise HordersError(f"--block must be in 1..{r}, got {args.block}")
    results = list(enumerate(residue_isotropy(spec), 1))
    if args.block is not None:
        results = [results[args.block - 1]]
    if args.json:
        _write(_emit_json({"blocks": [
            {"verdict": r.verdict, "signature": list(r.signature),
             "has_witness": r.witness is not None} for _, r in results]}))
    else:
        for i, r in results:
            wit = " (witness found)" if r.witness is not None else ""
            _write(f"block {i}: {r.verdict} {r.signature}{wit}\n".encode())
    return 0


def _cmd_distinguish(args) -> int:
    if len(args.inv) != 2:
        raise HordersError("distinguish needs exactly two --inv names")
    session = _load_session(args.session)
    s1 = _session_object(session, "involutions", args.inv[0])
    s2 = _session_object(session, "involutions", args.inv[1])
    result = distinguish(s1, s2)
    if args.json:
        _write(_emit_json({"verdict": result.verdict, "reason": result.reason or ""}))
    else:
        reason = f": {result.reason}" if result.reason else ""
        _write(f"{result.verdict}{reason}\n".encode())
    return 0


def _cmd_verify(args) -> int:
    w = _session_object(_load_session(args.session), "witnesses", args.witness)
    diag = verify_witness(w)
    ok = diag.ok
    if ok and args.transport:
        diag = transport_check(w)
        ok = diag.ok
    if args.json:
        _write(_emit_json({"ok": ok, "diagnostics": diag.describe()}))
    else:
        _write(f"{diag.describe()}\n".encode())
    return 0 if ok else 1


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {low}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horders",
        description="Exact computations with block hereditary orders, their "
                    "cyclic invariants, base change, involutions and witnesses.")
    parser.add_argument("--version", action="version", version=f"horders {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--precision", type=_int_at_least(2), default=16,
                       help="accepted for compatibility and has no effect: every "
                            "check is exact (at least 2)")

    p = sub.add_parser("check", help="run every check in a session file")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("replay", help="run a bundled scenario")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    common(p)
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("inv", help="cyclic normal form of a signature")
    p.add_argument("--sig", required=True, help="comma separated block sizes, e.g. 4,2")
    common(p)
    p.set_defaults(fn=_cmd_inv)

    p = sub.add_parser("iso", help="isomorphism of two block orders")
    p.add_argument("--sig", required=True)
    p.add_argument("--sig2", required=True)
    p.add_argument("--division", default="D", help="division label of the first order")
    p.add_argument("--division2", default=None,
                   help="division label of the second order (default: same)")
    common(p)
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("sh", help="base-changed signature and permutation witness")
    p.add_argument("--sig", default=None)
    p.add_argument("--s", type=_int_at_least(1), default=1)
    p.add_argument("--t", type=_int_at_least(1), default=1)
    p.add_argument("--session", default=None)
    p.add_argument("--order", default=None)
    common(p)
    p.set_defaults(fn=_cmd_sh)

    p = sub.add_parser("sh-verify", help="pattern conjugation check (size at most 64)")
    p.add_argument("--s", type=_int_at_least(1), required=True)
    p.add_argument("--t", type=_int_at_least(1), required=True)
    p.add_argument("--sig", required=True)
    common(p)
    p.set_defaults(fn=_cmd_sh_verify)

    p = sub.add_parser("resinv", help="residue involution blocks")
    p.add_argument("--session", required=True)
    p.add_argument("--inv", action="append", required=True)
    common(p)
    p.set_defaults(fn=_cmd_resinv)

    p = sub.add_parser("aniso", help="isotropy of residue blocks")
    p.add_argument("--session", required=True)
    p.add_argument("--inv", action="append", required=True)
    p.add_argument("--block", type=int, default=None)
    common(p)
    p.set_defaults(fn=_cmd_aniso)

    p = sub.add_parser("distinguish", help="sound non-isomorphism test")
    p.add_argument("--session", required=True)
    p.add_argument("--inv", action="append", required=True)
    common(p)
    p.set_defaults(fn=_cmd_distinguish)

    p = sub.add_parser("verify", help="verify a transport witness")
    p.add_argument("--session", required=True)
    p.add_argument("--witness", required=True)
    p.add_argument("--transport", action="store_true",
                   help="also run the conjugation transport check")
    common(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HordersError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
