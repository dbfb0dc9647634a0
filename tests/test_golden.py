"""Byte-identity guard: CLI JSON and benchmark corpus outputs must stay
exactly the bytes recorded under ``tests/golden/``.

The expected files were written from the code before the integer jet
kernel, and ``cli-subcommands.jsonl`` from the CLI before its handlers
returned their output to ``main``; any change to them is a change of
behaviour and must be stated.
"""

import contextlib
import hashlib
import importlib.util
import json
import re
import sys
from collections import Counter
from functools import cached_property
from importlib import resources
from pathlib import Path

import pytest

import horders
from horders import involutions
from horders.cli import main
from horders.scalars import ScalarKind
from horders.witness import SCENARIOS

GOLDEN = Path(__file__).resolve().parent / "golden"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SESSIONS = ("main-counterexample.ho", "semisimple-basechange.ho")
# one gauge of each well-formedness failure, a test session outside the package
FAILURES = GOLDEN / "failures.ho"
CORPUS_SEED, CORPUS_OPS = 7, 57


def cli_bytes(argv, capsysbinary) -> bytes:
    main(argv)
    return capsysbinary.readouterr().out


@pytest.mark.parametrize("name", SESSIONS)
def test_check_json_is_unchanged(name, capsysbinary):
    path = resources.files("horders.sessions").joinpath(name)
    with resources.as_file(path) as file:
        got = cli_bytes(["check", str(file), "--json"], capsysbinary)
    assert got == (GOLDEN / f"check-{name}.json").read_bytes()


def test_check_json_of_the_failure_rows_is_unchanged(capsysbinary):
    got = cli_bytes(["check", str(FAILURES), "--json"], capsysbinary)
    assert got == (GOLDEN / f"check-{FAILURES.name}.json").read_bytes()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_replay_json_is_unchanged(scenario, capsysbinary):
    got = cli_bytes(["replay", "--scenario", scenario, "--json"], capsysbinary)
    assert got == (GOLDEN / f"replay-{scenario}.json").read_bytes()


def load_workloads(monkeypatch):
    """perfbench/workloads.py, loaded read-only with the sibling modules
    it imports by bare name; nothing is left in sys.modules afterwards."""
    def load(name):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    for name in ("algebra", "corpus", "patterns"):
        load(name)
    return load("workloads")


def assert_corpus_outputs_are_unchanged(monkeypatch):
    workloads = load_workloads(monkeypatch)
    digest = hashlib.sha256()
    for i in range(CORPUS_OPS):
        op = workloads.corpus_op(horders, CORPUS_SEED, i)
        digest.update(op.output(op.run()).encode())
    want = (GOLDEN / f"corpus-seed{CORPUS_SEED}-{CORPUS_OPS}.sha256").read_text().strip()
    assert digest.hexdigest() == want


def test_corpus_outputs_are_unchanged(monkeypatch):
    assert_corpus_outputs_are_unchanged(monkeypatch)


def test_no_session_verdict_searches_for_a_witness(capsysbinary, monkeypatch):
    # residue verdicts and signatures are read off the diagonals alone
    def refuse(*args):
        raise AssertionError("represent_norm called")

    monkeypatch.setattr(involutions, "represent_norm", refuse)
    for name in SESSIONS:
        test_check_json_is_unchanged(name, capsysbinary)
    assert_corpus_outputs_are_unchanged(monkeypatch)


def test_corpus_ops_build_basis_products_once_per_kind(monkeypatch):
    # one session per op: its witnesses and checks share each kind instance
    workloads = load_workloads(monkeypatch)
    built = Counter()
    table = ScalarKind.__dict__["basis_products"].func
    counted = cached_property(lambda kind: built.update([kind]) or table(kind))
    counted.__set_name__(ScalarKind, "basis_products")
    monkeypatch.setattr(ScalarKind, "basis_products", counted)
    for i in range(CORPUS_OPS):
        built.clear()
        workloads.corpus_op(horders, CORPUS_SEED, i).run()
        assert max(built.values(), default=1) == 1, (i, built)


# One line per call: argv (with {main} and {semisimple} standing for the
# bundled session paths and {failures} for FAILURES), exit code, stdout and
# stderr.  Text-mode timings are masked; COLUMNS is fixed so argparse wraps
# usage lines the same way.
SUBCOMMANDS = [json.loads(line) for line in
               (GOLDEN / "cli-subcommands.jsonl").read_text(encoding="utf-8").splitlines()]
TIMINGS = re.compile(rb"(?<=\[)\d+\.\d(?= ms\]$)|(?<= in )\d+(?= ms$)", re.MULTILINE)


def cli_call(argv, capsysbinary, monkeypatch) -> dict:
    monkeypatch.setenv("COLUMNS", "80")
    paths = {"failures": str(FAILURES)}
    with contextlib.ExitStack() as stack:
        for key, name in zip(("main", "semisimple"), SESSIONS):
            file = resources.files("horders.sessions").joinpath(name)
            paths[key] = str(stack.enter_context(resources.as_file(file)))
        try:
            code = main([arg.format(**paths) for arg in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    out, err = capsysbinary.readouterr()
    if "--json" not in argv:
        out = TIMINGS.sub(b"#", out)
    return {"argv": argv, "exit": code, "stdout": out.decode(), "stderr": err.decode()}


# CPython 3.13's argparse wraps a usage line differently: the stderr that
# call gives there, in full, keyed by its argv.
STDERR_313 = {("replay",): (
    "usage: horders replay [-h]\n"
    "                      --scenario {main-orthogonal,main-unitary,main-symplectic,"
    "semisimple-sh,sh-permutation}\n"
    "                      [--json] [--precision PRECISION]\n"
    "horders replay: error: the following arguments are required: --scenario\n")}


@pytest.mark.parametrize("case", SUBCOMMANDS, ids=lambda case: " ".join(case["argv"]))
def test_subcommand_output_is_unchanged(case, capsysbinary, monkeypatch):
    want = dict(case)
    if sys.version_info >= (3, 13):
        want["stderr"] = STDERR_313.get(tuple(case["argv"]), case["stderr"])
    assert cli_call(case["argv"], capsysbinary, monkeypatch) == want
