#!/usr/bin/env python3
"""Median in-process time per op kind in one cycle of a benchmark workload.

Run from the root of a checkout (stdlib only; the package is imported
from ``src``)::

    python3 tools/op_mix.py patterns --seed 61 --cycles 60

The ops are the ones ``perfbench/run.py`` times, built by
``perfbench/workloads.py``: ``patterns`` is split by query kind,
``replay`` by scenario, and ``corpus`` by schedule slot, with
``parse_session`` and ``run_session`` timed apart.  After one warm-up
cycle, each cycle's time per kind is the sum over that kind's calls.
The table prints, per kind, the calls in a cycle and the median of
those sums over the cycles, in ms, and then the same for the whole
cycle.  The last line is the (lower) median time of one op over every
timed op (a corpus op parses and runs one session), the in-process
analogue of the benchmark's ``op_ms_p50`` without its host scaling,
and the kind of the op at that rank.  Every op is checked against what
its construction predicts, and a failed check makes the exit status 1.  Nothing under
``perfbench/`` is changed.

With ``--against REV`` the script is a same-process A/B instead::

    python3 tools/op_mix.py corpus --cycles 40 --against HEAD~1

REV's ``src/horders`` is exported with ``bench_pairs.export_revision``
into a temporary directory and imported as the package
``horders_against``.  After one untimed warm-up cycle per side, the
parent (REV) and the change (this checkout) run the same cycles in turn,
the parent first in even cycles; each side's median cycle time and its
quartiles, the ratio change/parent, the cycles the change won and a
verdict are printed, then each side's per-op median (the lower
median of every timed op's own time, as above) and their ratio
change/parent, and then a table of each op kind (query kind, scenario,
or corpus slot) with each side's median time per cycle and their ratio
change/parent, so a change shows where its saving lies.  The verdict
applies the gain rule of ``tools/bench_pairs.py`` both ways: "faster"
(or "slower") when the change won (or lost) at least nine tenths of the
cycles and the medians differ by more than the parent's quartile
spread, else "unresolved".
``--against`` needs two cycles, so that the quartiles exist.  The two
sides' canonical op outputs must agree (an error by its class name), and
the exit status is 1 if they differ or a change op fails its check.  Only
the change side's ops are checked: the ``patterns`` checks import
``horders.errors`` by name, so they cannot judge REV's errors.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def _timed(fn):
    start = perf_counter()
    try:
        result = fn()
    except Exception as exc:  # an op's expected outcome may be an error
        result = exc
    return result, perf_counter() - start


def corpus_cycle(h, workloads, seed: int, cycle: int):
    """(op, kind, seconds, failure or None) of each parse and run in one
    cycle; a slot's parse and run are one op, (slot, slot and shape)."""
    slots = workloads.CORPUS_SCHEDULE
    for slot, shape in enumerate(slots):
        session = workloads.corpus.make_session(seed, cycle * len(slots) + slot, shape)
        kind = f"{slot:2d} {shape.key}"
        parsed, parse_s = _timed(lambda: h.parse_session(session.text))
        if isinstance(parsed, BaseException):
            yield (slot, kind), kind + " parse", parse_s, f"raised {type(parsed).__name__}"
            continue
        yield (slot, kind), kind + " parse", parse_s, None
        rep, run_s = _timed(lambda: h.run_session(parsed, seed=seed))
        failure = (f"raised {type(rep).__name__}" if isinstance(rep, BaseException) else
                   workloads.check_report(session, [(c.name, c.actual, c.detail)
                                                    for c in rep.checks]))
        yield (slot, kind), kind + " run", run_s, failure


def op_cycle(source, cycle: int):
    for i in range(cycle * source.cycle, (cycle + 1) * source.cycle):
        op = source[i]
        result, seconds = _timed(op.run)
        yield (i, op.key), op.key, seconds, op.check(result)


def import_revision(rev: str, dest: Path):
    """REV's ``src/horders``, exported into ``dest`` and imported as the
    package ``horders_against``."""
    sys.path.insert(0, str(ROOT / "tools"))
    from bench_pairs import export_revision

    export_revision(ROOT, rev, dest)
    (dest / "src" / "horders").rename(dest / "horders_against")
    sys.path.insert(0, str(dest))
    return importlib.import_module("horders_against")


def ab_cycle(source, cycle: int, slots: bool):
    """(op, kind, result, seconds) of each op of one cycle of ``source``;
    the kind is the op's key, after its slot in the cycle if ``slots``."""
    out = []
    for slot in range(source.cycle):
        op = source[cycle * source.cycle + slot]
        out.append((op, f"{slot:2d} {op.key}" if slots else op.key, *_timed(op.run)))
    return out


def against(workload: str, parent, change, workloads, seed: int, cycles: int, rev: str) -> int:
    make = getattr(workloads, f"{workload}_ops")
    sources = {"parent": make(parent, seed), "change": make(change, seed)}
    times: dict[str, list[float]] = {"parent": [], "change": []}
    per_op: dict[str, list[float]] = {"parent": [], "change": []}  # every timed op's own time
    # per side and kind, the time of that kind's ops in each cycle
    per_kind: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    problems = []
    for k in range(cycles + 1):  # cycle 0 warms both sides up, untimed
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        runs = {side: ab_cycle(sources[side], k, workload == "corpus") for side in order}
        for (op, _, a, _), (_, _, b, _) in zip(runs["parent"], runs["change"]):
            if op.output(a) != op.output(b):
                problems.append(f"REPORTS DIFFER: cycle {k}, {op.key}")
            if failure := op.check(b):
                problems.append(f"FAILED {op.key}: {failure}")
        if k:
            for side in order:
                spent = [seconds for *_, seconds in runs[side]]
                times[side].append(sum(spent))
                per_op[side] += spent
                sums: dict[str, float] = defaultdict(float)
                for _, kind, _, seconds in runs[side]:
                    sums[kind] += seconds
                for kind, seconds in sums.items():
                    per_kind[side].setdefault(kind, []).append(seconds)
    medians = {side: statistics.median(t) for side, t in times.items()}
    quartiles = {side: statistics.quantiles(t, n=4) for side, t in times.items()}
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    losses = sum(c > p for p, c in zip(times["parent"], times["change"]))
    faster = medians["parent"] - medians["change"]
    spread = quartiles["parent"][2] - quartiles["parent"][0]
    verdict = ("faster" if wins >= 0.9 * cycles and faster > spread else
               "slower" if losses >= 0.9 * cycles and -faster > spread else "unresolved")
    print(f"{workload}, seed {seed}, {cycles} alternating cycles against {rev} "
          f"(ms per cycle: median, lower and upper quartile)")
    for side, median in medians.items():
        q1, _, q3 = quartiles[side]
        print(f"  {side}  {median * 1e3:9.3f}  {q1 * 1e3:9.3f}  {q3 * 1e3:9.3f}")
    print(f"ratio change/parent {medians['change'] / medians['parent']:.3f}, "
          f"change won {wins} of {cycles} cycles, {verdict}")
    op_p, op_c = (statistics.median_low(per_op[side]) for side in ("parent", "change"))
    print(f"per-op median: parent {op_p * 1e3:.4f} ms, change {op_c * 1e3:.4f} ms, "
          f"ratio change/parent {op_c / op_p:.3f}")
    print("per kind (ms per cycle: parent median, change median, ratio change/parent)")
    width = max(map(len, per_kind["parent"]))
    for kind, samples in per_kind["parent"].items():
        kind_p, kind_c = statistics.median(samples), statistics.median(per_kind["change"][kind])
        print(f"  {kind:<{width}}  {kind_p * 1e3:9.3f}  {kind_c * 1e3:9.3f}  {kind_c / kind_p:.3f}")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=("patterns", "replay", "corpus"))
    parser.add_argument("--seed", type=int, default=61)
    parser.add_argument("--cycles", type=int, default=20)
    parser.add_argument("--against", metavar="REV",
                        help="time against revision REV in the same process")
    args = parser.parse_args(argv)
    if args.cycles < (1 if args.against is None else 2):
        parser.error("--cycles must be positive, and at least 2 with --against")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import horders as h
    import workloads

    if args.against is not None:
        with tempfile.TemporaryDirectory(prefix="op-mix-") as tmp:
            parent = import_revision(args.against, Path(tmp))
            return against(args.workload, parent, h, workloads, args.seed, args.cycles,
                           args.against)

    if args.workload == "corpus":
        def cycle(k):
            return corpus_cycle(h, workloads, args.seed, k)
    else:
        make = workloads.patterns_ops if args.workload == "patterns" else workloads.replay_ops
        source = make(h, args.seed)

        def cycle(k):
            return op_cycle(source, k)

    failures = [f"{kind}: {f}" for _, kind, _, f in cycle(0) if f]  # warm-up, untimed
    per_kind: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, int] = {}
    totals = []
    per_op: list[tuple[float, str]] = []  # (seconds, kind) of every timed op
    for k in range(1, args.cycles + 1):
        sums: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        ops: dict = defaultdict(float)
        for op, kind, seconds, failure in cycle(k):
            sums[kind] += seconds
            calls[kind] += 1
            ops[op] += seconds
            if failure:
                failures.append(f"{kind}: {failure}")
        for kind, seconds in sums.items():
            per_kind[kind].append(seconds)
        counts = dict(calls)
        totals.append(sum(sums.values()))
        per_op += [(seconds, name) for (_, name), seconds in ops.items()]

    width = max(map(len, per_kind))
    print(f"{args.workload}, seed {args.seed}, median of {args.cycles} cycles "
          f"(ms per cycle)")
    for kind, samples in per_kind.items():
        print(f"  {kind:<{width}}  {counts[kind]:4d} calls  {statistics.median(samples) * 1e3:9.3f}")
    print(f"  {'cycle':<{width}}  {sum(counts.values()):4d} calls  "
          f"{statistics.median(totals) * 1e3:9.3f}")
    seconds, kind = statistics.median_low(per_op)  # an op's own time and kind
    print(f"per-op median {seconds * 1e3:.4f} ms, a {kind.strip()} op")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
