"""tools/op_mix.py: one timed cycle lists every query kind or scenario,
then the per-op median and the kind of the op that holds it; with
--against, a revision timed against this checkout in one process."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from horders.witness import SCENARIOS

ROOT = Path(__file__).resolve().parents[1]
MEDIAN = re.compile(r"per-op median (\d+\.\d{4}) ms, a (.+) op")
KINDS = ("inv", "iso_rot", "iso_pert", "roundtrip", "not_divisible", "not_periodic",
         "ss_perm", "ss_pert", "sh_iso", "sh_pert", "sh_verify", "radical")


def test_one_patterns_cycle_reports_every_query_kind():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "op_mix.py"), "patterns",
                           "--seed", "61", "--cycles", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "patterns, seed 61, median of 1 cycles (ms per cycle)"
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:-1]}
    assert set(rows) == set(KINDS) | {"cycle"}
    median, kind = MEDIAN.fullmatch(lines[-1]).groups()
    # 195 ops: the median op is the 98th fastest, no slower than a cycle / 98
    assert kind in KINDS and 0 < float(median) <= float(rows["cycle"][-1]) / 98
    assert rows["roundtrip"][0] == "30" and rows["radical"][0] == "15"
    assert rows["cycle"][0] == "195"
    assert all(float(row[-1]) >= 0 for row in rows.values())
    assert "FAILED" not in proc.stdout


def test_one_replay_cycle_reports_every_scenario():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "op_mix.py"), "replay",
                           "--cycles", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "replay, seed 61, median of 1 cycles (ms per cycle)"
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:-1]}
    assert set(rows) == set(SCENARIOS) | {"cycle"}
    median, kind = MEDIAN.fullmatch(lines[-1]).groups()
    # one cycle: the median op's time is its scenario's row (3 decimals there)
    assert kind in SCENARIOS and abs(float(median) - float(rows[kind][-1])) <= 6e-4
    assert all(rows[name][0] == "1" for name in SCENARIOS) and rows["cycle"][0] == "5"
    assert all(float(row[-1]) >= 0 for row in rows.values())
    assert "FAILED" not in proc.stdout


def test_one_corpus_cycle_parses_and_runs_every_slot():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "op_mix.py"), "corpus",
                           "--cycles", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "corpus, seed 61, median of 1 cycles (ms per cycle)"
    rows = [line.split() for line in lines[1:-1]]
    # "slot shape checks parse|run calls ms", then the cycle row
    steps = {(int(row[0]), row[3]) for row in rows[:-1]}
    assert steps == {(slot, step) for slot in range(19) for step in ("parse", "run")}
    assert len(rows) == 39 and rows[-1][:2] == ["cycle", "38"]
    assert all(float(row[-1]) >= 0 for row in rows)
    # a corpus op parses and runs one slot's session
    median, kind = MEDIAN.fullmatch(lines[-1]).groups()
    slot = [row for row in rows[:-1] if " ".join(row[:3]) == kind]
    assert [row[3] for row in slot] == ["parse", "run"]
    assert abs(float(median) - sum(float(row[-1]) for row in slot)) <= 1.1e-3
    assert "FAILED" not in proc.stdout


AB = re.compile(r"ratio change/parent (\d+\.\d{3}), change won (\d+) of (\d+) cycles, "
                r"(faster|slower|unresolved)")
PER_OP = re.compile(r"per-op median: parent (\d+\.\d{4}) ms, change (\d+\.\d{4}) ms, "
                    r"ratio change/parent (\d+\.\d{3})")


@pytest.fixture(scope="module")
def committed(tmp_path_factory):
    """A git repository holding this checkout's src, perfbench and tools as
    its HEAD, so --against HEAD runs wherever the tests do."""
    root = tmp_path_factory.mktemp("op-mix")
    for name in ("src", "perfbench", "tools"):
        shutil.copytree(ROOT / name, root / name,
                        ignore=shutil.ignore_patterns("__pycache__", "_work"))
    for argv in (["init", "-q"], ["add", "-A"],
                 ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "t"]):
        subprocess.run(["git", *argv], cwd=root, check=True, capture_output=True)
    return root


@pytest.mark.parametrize("workload", ["patterns", "replay", "corpus"])
def test_a_revision_against_itself_gives_the_same_reports(committed, workload):
    proc = subprocess.run([sys.executable, str(committed / "tools" / "op_mix.py"), workload,
                           "--cycles", "2", "--against", "HEAD"],
                          cwd=committed, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == (f"{workload}, seed 61, 2 alternating cycles against HEAD "
                        "(ms per cycle: median, lower and upper quartile)")
    sides = [line.split() for line in lines[1:3]]
    assert [side[0] for side in sides] == ["parent", "change"]
    for _, median, q1, q3 in sides:
        assert float(median) > 0 and float(q1) <= float(median) <= float(q3)
    ratio, won, cycles, verdict = AB.fullmatch(lines[3]).groups()
    assert float(ratio) > 0 and 0 <= int(won) <= int(cycles) == 2
    # medians closer than the parent's quartile spread read unresolved
    (p, p1, p3), (c, _, _) = [[float(x) for x in side[1:]] for side in sides]
    if abs(p - c) < p3 - p1 - 2e-3:  # printed to 3 decimals
        assert verdict == "unresolved"
    # each side's median op is one op, no slower than its slowest cycle
    op_p, op_c, op_ratio = map(float, PER_OP.fullmatch(lines[4]).groups())
    assert 0 < op_p <= p3 + 1e-3 and 0 < op_c <= float(sides[1][3]) + 1e-3
    assert op_ratio == pytest.approx(op_c / op_p, rel=0.05)  # of the printed, rounded times
    # then each op kind's median per cycle on both sides, and their ratio
    assert lines[5] == "per kind (ms per cycle: parent median, change median, ratio change/parent)"
    rows = [line.rsplit(maxsplit=3) for line in lines[6:]]
    kinds = {"patterns": set(KINDS), "replay": set(SCENARIOS),
             "corpus": {str(slot) for slot in range(19)}}[workload]  # a slot, then its shape
    # one row per kind, and no REPORTS DIFFER or FAILED line after them
    assert {kind.split()[0] for kind, *_ in rows} == kinds and len(rows) == len(kinds)
    for _, kind_p, kind_c, kind_ratio in rows:
        assert float(kind_p) > 0 and float(kind_c) > 0
        assert float(kind_ratio) == pytest.approx(float(kind_c) / float(kind_p), rel=0.05, abs=2e-3)
    # the median of two cycles is their mean, so the kinds sum to the cycle
    for column, (_, median, *_) in zip((1, 2), sides):
        assert sum(float(row[column]) for row in rows) == pytest.approx(float(median), abs=0.02)

