#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written to BENCH_<pr>.json.

Run from the root of a checkout (stdlib only)::

    python3 tools/bench_pairs.py <parent-revision> <pr-number> [--seed N] [--workload W]

The parent revision is exported with ``git archive`` into a temporary
directory, and the change (the checkout's tracked and untracked,
not ignored, files as they are on disk) is copied into another, so both
sides start from fresh directories with no compiled bytecode.  For each
workload in BENCHMARK.json (or only ``--workload W``) the benchmark
command runs with ``--workload W --seed N --seconds <run_seconds>
--trace 0`` as PAIRS pairs; even pairs run the parent first, odd pairs
the change.  N is 61 unless ``--seed`` sets it; at another seed the
file is ``BENCH_<pr>-seed<N>.json``, so a hold-out seed never overwrites
the seed-61 file.  A run whose last line does not read ``"correct":
true`` stops the script with an error naming the workload, side and
pair.  The file records every run's metrics and failure counts, the
median and quartiles of each end-to-end metric per side, how many pairs
the change won, the seed, both revisions and the Python version.  The
temporary directories are removed afterwards.  Last, one line per
workload and end-to-end metric reads parent median -> change median,
the relative change, the pairs the change won and a verdict: "gain"
when the change won at least nine tenths of the pairs (a tie counts for
neither side) and its median is better than the parent's by more than
the parent's quartile spread, "regression" when its median is worse
than the parent's by more than the metric's ``bound`` in BENCHMARK.json
(a share of the parent's median), else "unresolved".
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SEED = 61
PAIRS = 10
RUN_TIMEOUT_S = 900


def git(*args: str, root: Path) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout


def export_revision(root: Path, rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev, root=root))) as tar:
        tar.extractall(dest, filter="data")


def copy_checkout(root: Path, dest: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", root=root)
    for name in filter(None, listed.decode().split("\0")):
        src = root / name
        if src.is_file():  # a tracked file deleted on disk is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def src_sha256(checkout: Path) -> str:
    """The digest perfbench/run.py records as ``src_sha256``."""
    digest = hashlib.sha256()
    src = checkout / "src" / "horders"
    for path in sorted(p for p in src.rglob("*") if p.suffix in (".py", ".ho")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_once(checkout: Path, command: list[str], workload: str, seconds: int,
             side: str, pair: int, seed: int = SEED) -> dict:
    """One benchmark run; a run whose outputs are wrong stops the comparison."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        raise RuntimeError(f"workload {workload}, {side} side, pair {pair}: "
                           f"the outputs are not correct ({checkout})")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {}
        for side in ("parent", "change"):
            values = [p[side]["metrics"][name] for p in pairs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            sides[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        wins = sum((c < p) if lower else (c > p) for p, c in
                   ((p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs))
        change = sides["change"]["median"] / sides["parent"]["median"] - 1
        out[name] = {**sides, "unit": metric["unit"], "better": metric["better"],
                     "bound": metric["bound"], "relative_change": change, "change_won": wins,
                     "verdict": verdict(sides, lower, metric["bound"], wins, len(pairs))}
    for side in ("parent", "change"):
        attempted = sum(p[side]["attempted"] for p in pairs)
        failed = sum(p[side]["failed"] for p in pairs)
        out[f"failed_share_{side}"] = failed / attempted if attempted else 0.0
    return out


def verdict(sides: dict, lower: bool, bound: float, wins: int, pairs: int) -> str:
    """"gain", "regression" or "unresolved"; see the module docstring."""
    parent, change = sides["parent"]["median"], sides["change"]["median"]
    better = parent - change if lower else change - parent
    if wins >= 0.9 * pairs and better > sides["parent"]["q3"] - sides["parent"]["q1"]:
        return "gain"
    if -better > bound * abs(parent):
        return "regression"
    return "unresolved"


def report(record: dict) -> list[str]:
    """One line per workload and end-to-end metric: parent median ->
    change median, relative change, pairs the change won, verdict."""
    lines = []
    for workload, result in record["workloads"].items():
        for name, m in result["summary"].items():
            if isinstance(m, dict):  # not a failed_share_* number
                lines.append(f"{workload} {name}: {m['parent']['median']:.4g} -> "
                             f"{m['change']['median']:.4g} {m['unit']} "
                             f"({m['relative_change']:+.1%}), change won {m['change_won']} "
                             f"of {len(result['runs'])} pairs: {m['verdict']}")
    return lines


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench_pairs.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent revision")
    parser.add_argument("pr", type=int, help="the number in the output file's name")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--workload", help="run only this workload of BENCHMARK.json")
    return parser.parse_args(argv)


def output_name(pr: int, seed: int) -> str:
    return f"BENCH_{pr}.json" if seed == SEED else f"BENCH_{pr}-seed{seed}.json"


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload is not None:
        if args.workload not in workloads:
            print(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}",
                  file=sys.stderr)
            return 2
        workloads = [args.workload]
    record = {
        "pr": args.pr, "seed": args.seed, "pairs": PAIRS, "seconds": bench["run_seconds"],
        "python": platform.python_version(), "command": bench["command"],
        "parent": {"revision": git("rev-parse", args.parent, root=root).decode().strip()},
        "change": {"revision": git("describe", "--always", "--dirty", "--abbrev=40",
                                   root=root).decode().strip()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for path in checkouts.values():
            path.mkdir()
        export_revision(root, record["parent"]["revision"], checkouts["parent"])
        copy_checkout(root, checkouts["change"])
        for side, path in checkouts.items():
            record[side]["src_sha256"] = src_sha256(path)
        for workload in workloads:
            pairs = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], bench["command"], workload,
                                          bench["run_seconds"], side, i + 1, args.seed)
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{PAIRS}: " + ", ".join(
                    f"{side} ops_per_s {pair[side]['metrics']['ops_per_s']:.4g}"
                    for side in order), flush=True)
            record["workloads"][workload] = {
                "runs": pairs, "summary": summarize(pairs, bench["end_to_end"])}
    out = root / output_name(args.pr, args.seed)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    print("\n".join(report(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
