#!/usr/bin/env python3
"""Functions of ``src/horders`` that the measured traffic never enters.

Run from the root of a checkout (stdlib only; the package is imported
from ``src``, and ``perfbench/`` is loaded without writing to it)::

    python3 tools/reach.py

A ``sys.setprofile`` hook, installed before ``horders`` is imported,
records every code object that is entered while this traffic runs in
one process:

* each call of ``tests/golden/cli-subcommands.jsonl``, through
  ``horders.cli.main``;
* every bundled replay scenario;
* the first 57 ops of the corpus workload at seed 61 (three cycles of
  its schedule);
* one cycle of the patterns workload at seed 61.

Each function and method defined in ``src/horders`` that was never
entered is printed as ``file:line name (lines)``, its lines counted
from its first decorator to its end; a function nested in one that is
listed is not listed again, and lambdas are not listed.  A total
follows.  Every op is checked as the benchmark checks it, and every CLI
call must exit as its golden line records; a failure is printed and
makes the exit status 1, since a failing op hides what it would have
entered.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
from importlib import resources
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "horders"
SEED, CORPUS_CYCLES = 61, 3
SESSIONS = {"main": "main-counterexample.ho", "semisimple": "semisimple-basechange.ho"}


def run_traffic(h, workloads) -> list[str]:
    """Run the traffic above; the failures, as text."""
    from horders.cli import main

    failures = []
    golden = (ROOT / "tests" / "golden" / "cli-subcommands.jsonl").read_text(encoding="utf-8")
    with contextlib.ExitStack() as stack:
        paths = {key: str(stack.enter_context(resources.as_file(
                     resources.files("horders.sessions").joinpath(name))))
                 for key, name in SESSIONS.items()}
        paths["failures"] = str(ROOT / "tests" / "golden" / "failures.ho")
        for line in golden.splitlines():
            case = json.loads(line)
            out = io.TextIOWrapper(io.BytesIO())
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main([arg.format(**paths) for arg in case["argv"]])
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            if code != case["exit"]:
                failures.append(f"cli {' '.join(case['argv'])}: exit {code}")
    sources = [("replay", workloads.replay_ops(h, SEED), 1),
               ("corpus", workloads.corpus_ops(h, SEED), CORPUS_CYCLES),
               ("patterns", workloads.patterns_ops(h, SEED), 1)]
    for name, source, cycles in sources:
        for i in range(cycles * source.cycle):
            op = source[i]
            try:
                result = op.run()
            except Exception as exc:  # an op's expected outcome may be an error
                result = exc
            failure = op.check(result)
            if failure:
                failures.append(f"{name} {op.key}: {failure}")
    return failures


def unentered(path: Path, entered: set) -> list[tuple[int, str, int]]:
    """(first line, qualified name, lines) of each outermost function in
    the module at path whose code was never entered."""
    out = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if (first, child.name) in entered:
                    visit(child, f"{prefix}{child.name}.")
                else:
                    out.append((first, prefix + child.name, child.end_lineno - first + 1))
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        import horders as h
        import workloads

        failures = run_traffic(h, workloads)
    finally:
        sys.setprofile(None)

    entered: dict[str, set] = {}
    for code in codes:
        entered.setdefault(os.path.realpath(code.co_filename), set()).add(
            (code.co_firstlineno, code.co_name))
    total = lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for first, name, size in unentered(path, entered.get(os.path.realpath(path), set())):
            print(f"{path.relative_to(ROOT)}:{first} {name} ({size})")
            total += 1
            lines += size
    print(f"{total} functions, {lines} lines never entered")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
