"""The four workloads as cycles of ops with expected outcomes.

An op is one call into the public surface of horders (or one ``horders``
child process for ``cli``).  ``run()`` performs the call and returns its
raw result, or the exception it raised; ``check(result)`` returns None
when the result matches what the construction of the input predicts and
otherwise a short failure code.  Only ``run()`` is timed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Callable

import corpus
import patterns

WORKLOADS = ("replay", "corpus", "patterns", "cli")

SCENARIOS = ("main-orthogonal", "main-unitary", "main-symplectic", "semisimple-sh",
             "sh-permutation")

_MAIN_STEPS = (
    ("wellformed(sigma1)", "ok"),
    ("wellformed(sigma2)", "ok"),
    ("verify generic-fiber witness, alpha = t", "ok"),
    ("verify etale witness, alpha = 1", "ok"),
    ("generic-fiber witness is rejected over the base ring", "rejected"),
    ("residue blocks of sigma1", "sizes (4, 2), t-powers (0, 1)"),
    ("residue blocks of sigma2", "sizes (4, 2), t-powers (0, 1)"),
    ("block 2 of sigma1", "anisotropic {2,0}"),
    ("block 2 of sigma2", "isotropic {1,1} with exact witness"),
    ("witness annihilates the form exactly", "ok"),
    ("distinguish(sigma1, sigma2)", "distinguished"),
)


def _grid_size() -> int:
    """Size of the desk-scale sh-permutation grid: s, t, parts in 1..3,
    lengths 1..3, s*t*n <= 36."""
    sigs = [p for length in range(1, 4) for p in product(range(1, 4), repeat=length)]
    return sum(1 for s in range(1, 4) for t in range(1, 4) for p in sigs if s * t * sum(p) <= 36)


def replay_steps(name: str) -> tuple[tuple[str, str], ...]:
    """(step name, actual text) that each bundled scenario must report."""
    if name.startswith("main-"):
        return _MAIN_STEPS
    if name == "semisimple-sh":
        return (("ss_iso_decide(A1, A2)", "false"), ("becomes_iso_after_sh(A1, A2)", "true"))
    n = _grid_size()
    return (("pattern conjugation grid", f"{n} combinations verified"),)


# Corpus schedule: n = p + q from 4 to 8.  Each slot runs one to four
# checks so that sessions cost about the same (around 0.1 s at the seed
# commit) and no single op dominates a run; wellformed and the checks
# that re-run it (aniso, residually_anisotropic, distinguish, transport)
# are confined to n <= 5, the verify checks cover n up to 8.
CORPUS_SCHEDULE = (
    corpus.Shape("base", 2, 2, ("wf1", "an1", "vP")),
    corpus.Shape("quad", 2, 2, ("wf1",)),
    corpus.Shape("base", 3, 2, ("wf1",)),
    corpus.Shape("quat", 2, 2, ("wf1",)),
    corpus.Shape("base", 2, 2, ("d12",)),
    corpus.Shape("quad", 2, 2, ("an2",)),
    corpus.Shape("base", 4, 4, ("vB", "vE", "vP")),
    corpus.Shape("quat", 2, 2, ("ra",)),
    corpus.Shape("base", 2, 2, ("wf2", "vF", "vE")),
    corpus.Shape("quad", 3, 1, ("an1",)),
    corpus.Shape("base", 3, 3, ("vB", "vF", "vE", "vP")),
    corpus.Shape("quat", 3, 1, ("vB", "vE", "vZ")),
    corpus.Shape("base", 2, 2, ("tB",)),
    corpus.Shape("quad", 2, 2, ("d14",)),
    corpus.Shape("base", 4, 2, ("vB", "vF", "vE", "vP")),
    corpus.Shape("quat", 2, 2, ("vF", "vE", "vZ")),
    corpus.Shape("base", 2, 2, ("d13",)),
    corpus.Shape("quad", 2, 3, ("vB", "vF", "vE", "vP")),
    corpus.Shape("base", 3, 1, ("ra",)),
)

# Corpus slots written to disk for the cli workload (small, so that the
# --precision 64 runs stay a few seconds).
CLI_CORPUS_SLOTS = (0, 3)


@dataclass
class Op:
    key: str  # op-mix label, identical across seeds
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    output: Callable[[Any], str]  # canonical text of the result for digests


class OpSource:
    """Ops by absolute index i; the op mix repeats every ``cycle`` ops.

    ``make(i)`` builds op i.  Repeating workloads map i onto one cycle;
    ``corpus`` builds a fresh session for every i, so no input repeats.
    Index -1 is the warm-up op.
    """

    def __init__(self, keys: list[str], make: Callable[[int], Op]):
        self.keys = keys  # op-mix labels of one cycle
        self.cycle = len(keys)
        self._make = make

    def __getitem__(self, i: int) -> Op:
        return self._make(i)

    @staticmethod
    def repeating(ops: list[Op]) -> "OpSource":
        return OpSource([op.key for op in ops], lambda i: ops[i % len(ops)])


def _error_name(result) -> str:
    return type(result).__name__


# -- replay -----------------------------------------------------------------------


def replay_ops(h, seed: int) -> OpSource:
    ops = []
    for name in SCENARIOS:
        want = replay_steps(name)

        def check(rep, want=want):
            if isinstance(rep, BaseException):
                return f"raised {_error_name(rep)}"
            got = tuple((s.name, s.actual) for s in rep.steps)
            if not rep.ok or got != want:
                return "StepMismatch"
            return None

        ops.append(Op(name, lambda name=name: h.replay(name, seed=seed), check,
                      lambda rep: repr(rep) if isinstance(rep, BaseException) else
                      json.dumps([(s.name, s.actual, s.ok) for s in rep.steps])))
    return OpSource.repeating(ops)


# -- corpus ----------------------------------------------------------------------


# Wrong verdicts caused by a defect that ROADMAP.md records, by (check,
# diagnostics code).  Such an op counts in failed_ratio under the code
# KNOWN + its code, but does not make the run incorrect: verify(wZ) is
# true by construction, and horders reports NotInvertible until its
# elimination stops skipping zero-divisor pivots (ROADMAP item 3).
KNOWN = "known "
KNOWN_DEFECTS = {("vZ", "NotInvertible")}


def check_report(session: corpus.CorpusSession, checks) -> str | None:
    """Compare (name, actual, detail) rows against the construction; a
    known defect is reported only when no other check fails."""
    if len(checks) != len(session.checks):
        return "CheckCountMismatch"
    known = None
    for (name, actual, detail), want in zip(checks, session.checks):
        code = detail.split(":", 1)[0] if detail else actual
        if name != want.name or actual != want.expected:
            if (name, code) in KNOWN_DEFECTS and name == want.name:
                known = known or f"{KNOWN}{want.func}:{code}"
                continue
            return f"{want.func}:{code}"
        if want.code is not None and not detail.startswith(want.code):
            return f"{want.func}:{code}"
    return known


def corpus_op(h, seed: int, index: int) -> Op:
    session = corpus.make_session(seed, index, CORPUS_SCHEDULE[index % len(CORPUS_SCHEDULE)])

    def run():
        return h.run_session(h.parse_session(session.text), seed=seed)

    def check(rep):
        if isinstance(rep, BaseException):
            return f"raised {_error_name(rep)}"
        return check_report(session, [(c.name, c.actual, c.detail) for c in rep.checks])

    return Op(session.shape.key, run, check,
              lambda rep: repr(rep) if isinstance(rep, BaseException) else
              json.dumps([(c.name, c.actual, c.ok, c.detail) for c in rep.checks]))


def corpus_ops(h, seed: int) -> OpSource:
    return OpSource([shape.key for shape in CORPUS_SCHEDULE], lambda i: corpus_op(h, seed, i))


# -- patterns ------------------------------------------------------------------


def patterns_ops(h, seed: int) -> OpSource:
    from horders import errors

    ops = []
    for i in range(patterns.CYCLE):
        q = patterns.make_query(seed, i)
        kind_, want = q["expect"]

        def check(res, kind_=kind_, want=want):
            if kind_ == "raises":
                if isinstance(res, getattr(errors, want)):
                    return None
                return f"expected {want}, got {_error_name(res)}"
            if isinstance(res, BaseException):
                return f"raised {_error_name(res)}"
            return None if res == want else "WrongValue"

        ops.append(Op(q["kind"], patterns.bind(q, h), check,
                      lambda res: _error_name(res) if isinstance(res, BaseException) else repr(res)))
    return OpSource.repeating(ops)


# -- cli -----------------------------------------------------------------------


@dataclass(frozen=True)
class CliCase:
    key: str
    argv: tuple[str, ...]
    exit_code: int
    ok: bool
    actual: tuple[tuple[str, str], ...]  # (check or step name, actual)


def _bundled_cases(root: Path) -> list[tuple[str, Path, tuple]]:
    sessions = root / "src" / "horders" / "sessions"
    return [
        ("main-counterexample", sessions / "main-counterexample.ho",
         (("transport_over_F", "true"), ("residue_profiles", "distinguished"))),
        ("semisimple-basechange", sessions / "semisimple-basechange.ho",
         (("direct", "false"), ("component", "false"), ("after_base_change", "true"),
          ("sh_component", "(1,1,1,1)"), ("roundtrip_error", "error NotDivisible"))),
    ]


def cli_cases(root: Path, workdir: Path, seed: int) -> list[CliCase]:
    """Write the corpus slice into workdir and list the cli cases."""
    files = _bundled_cases(root)
    for slot in CLI_CORPUS_SLOTS:
        session = corpus.make_session(seed, slot, CORPUS_SCHEDULE[slot])
        path = workdir / f"corpus-{slot}.ho"
        path.write_text(session.text, encoding="utf-8")
        files.append((f"corpus-{slot}", path,
                      tuple((c.name, c.expected) for c in session.checks)))
    # One session whose last expectation is inverted: exit code 1, ok false,
    # and the actual verdicts unchanged.
    session = corpus.make_session(seed, CLI_CORPUS_SLOTS[0], CORPUS_SCHEDULE[CLI_CORPUS_SLOTS[0]])
    lines = session.text.rstrip("\n").split("\n")
    if not lines[-1].endswith("expect false"):
        raise ValueError("the flipped cli case needs a session ending in an `expect false` check")
    lines[-1] = lines[-1][: -len("false")] + "true"
    flipped = workdir / "corpus-flipped.ho"
    flipped.write_text("\n".join(lines) + "\n", encoding="utf-8")

    cases = []
    for name, path, actual in files:
        for prec in ("16", "64"):
            cases.append(CliCase(f"check {name} P{prec}",
                                 ("check", str(path), "--json", "--precision", prec),
                                 0, True, actual))
    for prec in ("16", "64"):
        cases.append(CliCase(f"check corpus-flipped P{prec}",
                             ("check", str(flipped), "--json", "--precision", prec), 1, False,
                             tuple((c.name, c.expected) for c in session.checks)))
    for scenario in ("main-orthogonal", "semisimple-sh", "sh-permutation"):
        cases.append(CliCase(f"replay {scenario}",
                             ("replay", "--scenario", scenario, "--json"), 0, True,
                             replay_steps(scenario)))
    return cases


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("HORDERS_SEED", None)
    return env


def run_child(argv, root: Path, env: dict, boot: list[str] | None = None):
    cmd = [sys.executable] + (boot or ["-m", "horders.cli"]) + list(argv)
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def check_cli(case: CliCase, result, seen: dict) -> str | None:
    if isinstance(result, BaseException):
        return f"raised {_error_name(result)}"
    code, out, err = result
    if b"Traceback" in err:
        return "Traceback"
    if code != case.exit_code:
        return f"exit {code}"
    try:
        payload = json.loads(out)
    except ValueError:
        return "NotJSON"
    if payload.get("schema") != 1 or payload.get("ok") is not case.ok:
        return "SchemaOrOk"
    rows = payload.get("checks", payload.get("steps", []))
    if tuple((r["name"], r["actual"]) for r in rows) != case.actual:
        return "ActualMismatch"
    first = seen.setdefault(case.key, out)
    if first != out:
        return "BytesDiffer"
    return None


def cli_ops(root: Path, workdir: Path, seed: int, seen: dict,
            boot: list[str] | None = None) -> OpSource:
    """One op per cli case; ``seen`` keeps the first stdout of each case so
    that repeats (traced or not) must reproduce it byte for byte."""
    env = child_env(root)
    return OpSource.repeating([Op(case.key,
               lambda case=case: run_child(case.argv, root, env, boot),
               lambda res, case=case: check_cli(case, res, seen),
               lambda res: repr(res) if isinstance(res, BaseException) else
               f"{res[0]} {res[1].decode()}")
            for case in cli_cases(root, workdir, seed)])
