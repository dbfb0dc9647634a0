#!/usr/bin/env python3
"""Seeded benchmark of horders with checked outputs and a traced run.

Run from the root of a checkout (stdlib only; the package is imported
from ``src``)::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

``--trace 0`` runs about ``--seconds`` worth of whole cycles of the
workload's ops in a closed loop with one caller and prints the
end-to-end metrics, scaled by a host-speed probe (unscaled values are
printed and recorded too).  ``--trace 1`` runs one fixed cycle untraced and
then again with per-layer wrappers installed, and prints the per-layer
metrics; its call counts depend only on the seed.  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A JSON record of
the run (and, when traced, the spans as JSON lines) is written to
``perfbench/_work``.  See BENCHMARK.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
WORKDIR = BENCH / "_work"
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 3

END_TO_END = (
    ("op_ms_p50", "ms"), ("op_ms_tail", "ms"), ("ops_per_s", "1/s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)

# Fields reported per wrapped entry point; the default is calls and self_s.
_FIELDS = {
    "scalars.Scalar.inverse": ("calls", "failed"),
    "scalars.LaurentJet.inverse": ("calls", "self_s", "failed"),
    "matrices.JetMatrix.inverse": ("calls", "self_s", "failed"),
    "basechange.descend_signature": ("calls", "failed"),
    "session.run_session": ("self_s",),
    "cli.main": ("self_s",),
}
_UNITS = {"calls": "count", "self_s": "s", "failed": "count"}
_EXTRA = {
    "scalars.max_bits": "bits",
    "involutions.gauge_inverse.hit_ratio": "ratio",
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in order."""
    out = []
    for name in tracing.NAMES:
        for field in _FIELDS.get(name, ("calls", "self_s")):
            out.append((f"{name}.{field}", _UNITS[field]))
    return out + list(_EXTRA.items())


# -- set-up ------------------------------------------------------------------------


def build(workload: str, seed: int, seen: dict, boot: list[str] | None = None):
    """Import horders (in-process workloads) and build the op source."""
    if workload == "cli":
        return None, workloads.cli_ops(Path.cwd(), WORKDIR, seed, seen, boot)
    import horders as h

    make = {"replay": workloads.replay_ops, "corpus": workloads.corpus_ops,
            "patterns": workloads.patterns_ops}[workload]
    return h, make(h, seed)


def setup(workload: str, seed: int):
    """Import, input generation and one warm-up op; returns
    (seconds, horders module or None, ops, warm-up failure code, seen)."""
    start = perf_counter()
    seen: dict = {}
    h, ops = build(workload, seed, seen)
    warm = ops[-1]
    code = warm.check(_call(warm))
    return perf_counter() - start, h, ops, code, seen


def _call(op):
    try:
        return op.run()
    except Exception as exc:  # an op that raises is checked like any result
        return exc


# -- timed phase -------------------------------------------------------------------


# Host-speed probes.  On a shared host the speed of one CPU-bound
# process drifts by up to ~1.8x over seconds to minutes, which swamps any
# change a later commit could make.  Every PROBE_EVERY_S the timed loop
# runs a fixed pure-Python rational computation (no horders code) and
# each op time is scaled by (nominal probe time) / (probe time around
# that op).  A change to horders moves the scaled time exactly as it moves
# the wall time; a host slowdown moves op and probe alike and cancels.
# For cli the probe is a fresh interpreter running the same computation,
# because a child's cost is mostly start-up and import, which a probe
# inside the benchmark process does not track.
PROBE_EVERY_S = 0.5
_REF = [[Fraction(i + 2 * j + 1, j + 3) for j in range(6)] for i in range(6)]
_PROBE_CODE = (
    "from fractions import Fraction as F\n"
    "R = [[F(i + 2 * j + 1, j + 3) for j in range(6)] for i in range(6)]\n"
    "for _ in range(12):\n"
    "    [[sum(x * y for x, y in zip(r, c)) for c in zip(*R)] for r in R]\n")


def in_process_probe() -> float:
    """Seconds for twelve fixed 6x6 rational matrix products."""
    t0 = perf_counter()
    for _ in range(12):
        [[sum(x * y for x, y in zip(row, col)) for col in zip(*_REF)] for row in _REF]
    return perf_counter() - t0


def child_probe() -> float:
    """Seconds for a fresh interpreter to do the same products."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", _PROBE_CODE], check=True, timeout=60)
    return perf_counter() - t0


# (probe, nominal probe seconds, probes taken around one set-up sample)
# per workload.
PROBES = {"replay": (in_process_probe, 0.010, 5), "corpus": (in_process_probe, 0.010, 5),
          "patterns": (in_process_probe, 0.010, 5), "cli": (child_probe, 0.080, 1)}


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(seconds, host factor) of one set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--probe-setup"], capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    seconds, factor = proc.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(factor)


def probed_setup(workload: str, seed: int):
    """Set-up with the workload's probe run just before and just after
    it (the median of several, for the short in-process probe); the host
    factor is the nominal probe time over the mean of the two."""
    probe, nominal, repeat = PROBES[workload]
    before = statistics.median(probe() for _ in range(repeat))
    seconds, _, _, code, _ = setup(workload, seed)
    after = statistics.median(probe() for _ in range(repeat))
    return seconds, 2 * nominal / (before + after), code


# Scaled seconds per cycle of each workload at the commit that introduced
# the benchmark.  A run executes round(--seconds / cycle) whole cycles, so
# it measured about --seconds there and runs the same ops at every later
# commit (a fixed op count keeps the tail percentile's rank fixed too).
# WALL_CAP bounds the wall time of the timed phase on a slow host.
CYCLE_S = {"replay": 1.61, "corpus": 2.19, "patterns": 0.0302, "cli": 4.59}
WALL_CAP = 2.0


def run_ops(ops, h, start: int = 0, *, cycles: int = 1, wall_limit: float | None = None,
            probe=None, tracer=None):
    """Closed loop, one caller: ``cycles`` whole cycles from op index
    ``start``, stopping early at a cycle boundary past ``wall_limit``
    seconds.  ``probe``, if given, is called every PROBE_EVERY_S.
    Building an op (generating a corpus session) and probing are left out
    of the op times and the wall time."""
    times, failures, digest = array("d"), Counter(), hashlib.sha256()
    probes, probe_of = array("d"), array("l")  # probe times; last probe before op i
    began = perf_counter()
    paused = 0.0
    next_probe = began
    i = start
    while True:
        t0 = perf_counter()
        if probe is not None and t0 >= next_probe:
            probes.append(probe())
            next_probe = perf_counter() + PROBE_EVERY_S
        op = ops[i]
        paused += perf_counter() - t0
        # The benchmark never changes the process-wide precision; a change
        # made by the package itself fails the op.
        drift = "PrecisionChanged" if h is not None and h.default_precision() != 16 else None
        if tracer is not None:
            tracer.op_id = i
            t0 = perf_counter()
            result = tracer.call("op", _call, (op,), {})
        else:
            t0 = perf_counter()
            result = _call(op)
        times.append(perf_counter() - t0)
        probe_of.append(len(probes) - 1)
        code = op.check(result) or drift
        if code is not None:
            failures[code] += 1
        digest.update(op.output(result).encode())
        i += 1
        done = i - start
        if done % ops.cycle == 0 and (
                done >= cycles * ops.cycle
                or (wall_limit is not None and perf_counter() - began >= wall_limit)):
            break
    wall = perf_counter() - began - paused
    if probe is not None:
        probes.append(probe())
    return {"times": times, "failures": failures, "wall": wall, "digest": digest.hexdigest(),
            "probes": probes, "probe_of": probe_of}


def host_factors(result, nominal: float) -> list[float]:
    """The nominal probe time over the mean of the probes just before and
    just after each op."""
    probes = result["probes"]
    return [2 * nominal / (probes[k] + probes[k + 1]) for k in result["probe_of"]]


def per_key_ms(keys: list[str], times) -> dict:
    """Median op time in ms for each op-mix label (op i has label
    keys[i % len(keys)])."""
    by_key: dict = {}
    for i, t in enumerate(times):
        by_key.setdefault(keys[i % len(keys)], []).append(t)
    return {key: statistics.median(ts) * 1000 for key, ts in by_key.items()}


def tail(times: list[float]) -> tuple[float, int, int]:
    """(value, percentile, ops beyond it) for the highest whole percentile
    with at least 10 ops beyond it (nearest rank)."""
    n = len(times)
    ordered = sorted(times)
    if n <= 10:
        return ordered[-1], 100, 0
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct, n - rank


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- traced run ---------------------------------------------------------------------


def import_seconds() -> float:
    """Median time for a fresh interpreter to import horders.cli."""
    code = ("import time; t = time.perf_counter(); import horders.cli; "
            "print(time.perf_counter() - t)")
    env = workloads.child_env(Path.cwd())
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        samples.append(float(proc.stdout.strip()))
    return statistics.median(samples)


def traced(workload: str, seed: int, h, ops, seen: dict):
    """An untraced pass over the first cycle, then a traced pass over the
    second (the same ops again, except for corpus, which never repeats)."""
    plain = run_ops(ops, h)
    tracer = tracing.Tracer()
    cache = None
    if workload == "cli":
        trace_file = WORKDIR / f"cli-trace-{seed}.jsonl"
        trace_file.write_text("")
        _, traced_ops = build(workload, seed, seen,
                              [str(BENCH / "cli_boot.py"), str(trace_file)])
        result = run_ops(traced_ops, None, ops.cycle, tracer=tracer)
        hits = misses = 0
        for op_id, line in enumerate(trace_file.read_text().splitlines()):
            child = json.loads(line)
            for name, (calls, self_s, failed) in child["stats"].items():
                stat = tracer.stats.setdefault(name, [0, 0.0, 0])
                stat[0] += calls
                stat[1] += self_s
                stat[2] += failed
            tracer.max_bits = max(tracer.max_bits, child["max_bits"])
            if child["cache"] is not None:
                hits, misses = hits + child["cache"][0], misses + child["cache"][1]
            tracer.spans += [tuple(s[:5]) + (f"child-{op_id}",) for s in child["spans"]]
        cache = (hits, misses)
    else:
        before = tracing.gauge_cache_info()
        restore = tracing.install(tracer)
        try:
            result = run_ops(ops, h, ops.cycle, tracer=tracer)
        finally:
            restore()
        after = tracing.gauge_cache_info()
        if before is not None and after is not None:
            cache = (after[0] - before[0], after[1] - before[1])
    return plain, result, tracer, cache


def layer_metrics(tracer, cache, overhead: float, import_s: float) -> dict:
    values = {}
    for name in tracing.NAMES:
        calls, self_s, failed = tracer.stats.get(name, (0, 0.0, 0))
        for field, value in (("calls", calls), ("self_s", self_s), ("failed", failed)):
            values[f"{name}.{field}"] = value
    values["scalars.max_bits"] = tracer.max_bits
    hits, misses = cache if cache is not None else (0, 0)
    values["involutions.gauge_inverse.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["cli.import_s"] = import_s
    values["trace.overhead_ratio"] = overhead
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_metrics()}


# -- record ---------------------------------------------------------------------------


def revision(root: Path) -> dict:
    git = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        git = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = root / "src" / "horders"
    for path in sorted(p for p in src.rglob("*") if p.suffix in (".py", ".ho")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return {"git": git, "src_sha256": digest.hexdigest()}


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "horders" / "__init__.py").is_file():
        print("error: run from the root of a horders checkout (no src/horders here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    WORKDIR.mkdir(exist_ok=True)

    if args.probe_setup:
        seconds, factor, code = probed_setup(args.workload, args.seed)
        if code is not None:
            print(f"error: warm-up op failed: {code}", file=sys.stderr)
            return 1
        print(seconds, factor)
        return 0

    setup_s, h, ops, warm_code, seen = setup(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **environment(), "revision": revision(root),
              "op_mix": dict(Counter(ops.keys)), "cycle_ops": ops.cycle, "main_setup_s": setup_s,
              "warmup_failure": warm_code}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {record['python']}  nproc {record['nproc']}")
    print(f"  op mix per cycle ({ops.cycle} ops): "
          + ", ".join(f"{k} x{v}" for k, v in record["op_mix"].items()))

    if args.trace:
        plain, result, tracer, cache = traced(args.workload, args.seed, h, ops, seen)
        overhead = statistics.median(result["times"]) / statistics.median(plain["times"])
        metrics = layer_metrics(tracer, cache, overhead, import_seconds())
        failures = plain["failures"] + result["failures"]
        attempted = len(plain["times"]) + len(result["times"])
        spans_path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        record.update(
            untraced_op_ms_p50=statistics.median(plain["times"]) * 1000,
            traced_op_ms_p50=statistics.median(result["times"]) * 1000,
            outputs_sha256=result["digest"], untraced_outputs_sha256=plain["digest"],
            gauge_cache=cache,
            operation_counts={
                "scalar_mults": tracer.stats["scalars.Scalar.mul"][0],
                "jet_mults": tracer.stats["scalars.LaurentJet.mul"][0],
                "jet_inversions": tracer.stats["scalars.LaurentJet.inverse"][0],
                "matrix_inversions": tracer.stats["matrices.JetMatrix.inverse"][0],
                "max_bits": tracer.max_bits,
            })
        print(f"  tracing overhead: traced / untraced op_ms_p50 = "
              f"{record['traced_op_ms_p50']:.4g} / {record['untraced_op_ms_p50']:.4g} ms "
              f"= {overhead:.3f}")
        if cache is None:
            print("  involutions.gauge_inverse.hit_ratio: absent (no cache_info); reported as 0")
        print(f"  spans: {spans_path.relative_to(root)} ({len(tracer.spans)} spans)")
    else:
        cycles = max(1, round(args.seconds / CYCLE_S[args.workload]))
        probe, nominal, _ = PROBES[args.workload]
        result = run_ops(ops, h, cycles=cycles, wall_limit=WALL_CAP * args.seconds, probe=probe)
        setup_samples = [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
        rss = peak_rss_mb(args.workload)  # before the analysis below allocates
        raw = result["times"]
        factors = host_factors(result, nominal)
        scaled = [t * f for t, f in zip(raw, factors)]
        failures, attempted = result["failures"], len(raw)
        # The wall time scales by the time-weighted mean factor; each
        # set-up sample by the factor of its own probes.
        wall_factor = sum(scaled) / sum(raw)
        values, raw_values = {}, {}
        for out, ts, wf, sf in ((values, scaled, wall_factor, True),
                                (raw_values, raw, 1.0, False)):
            tail_value, pct, beyond = tail(ts)
            out.update({
                "op_ms_p50": statistics.median(ts) * 1000,
                "op_ms_tail": tail_value * 1000,
                "ops_per_s": attempted / (result["wall"] * wf),
                "setup_s": statistics.median(t * f if sf else t for t, f in setup_samples),
                "peak_rss_mb": rss,
            })
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        probes_ms = [p * 1000 for p in result["probes"]]
        record.update(cycles=len(raw) // ops.cycle, planned_cycles=cycles,
                      setup_samples=[t for t, _ in setup_samples],
                      setup_factors=[f for _, f in setup_samples], tail_percentile=pct, tail_beyond=beyond,
                      wall_s=result["wall"], outputs_sha256=result["digest"],
                      per_key_ms=per_key_ms(ops.keys, raw), raw_metrics=raw_values,
                      probe_ms={"median": statistics.median(probes_ms), "min": min(probes_ms),
                                "max": max(probes_ms), "count": len(probes_ms)})
        print(f"  op_ms_tail is p{pct} of {attempted} ops ({beyond} beyond it)")
        print(f"  host probe {statistics.median(probes_ms):.3f} ms median "
              f"({min(probes_ms):.3f}-{max(probes_ms):.3f}, {len(probes_ms)} probes); "
              f"metrics are scaled to a {nominal * 1000:g} ms probe")
        print("  unscaled: " + ", ".join(f"{k} {_fmt(v)}" for k, v in raw_values.items()))

    failed = sum(failures.values())
    # Ops that fail only through a defect ROADMAP.md records count in
    # failed_ratio but not in the result's ``failed``.
    known = sum(v for k, v in failures.items() if k.startswith(workloads.KNOWN))
    if warm_code is not None:
        failures[f"warm-up {warm_code}"] += 1
    record.update(metrics=metrics, attempted=attempted, failed_ratio=failed / attempted,
                  failed=failed - known, known_defect_failed=known, failure_codes=dict(failures))
    codes = ", ".join(f"{k} x{v}" for k, v in failures.items()) or "none"
    print(f"  failed_ratio {failed}/{attempted} = {failed / attempted:.4g}  (codes: {codes})")
    if known:
        print(f"  {known} of the {failed} are known defects (ROADMAP item 3, zero-divisor "
              f"pivots) and are left out of the result's failed count")
    failed -= known
    for name, m in metrics.items():
        print(f"  {name:<40} {_fmt(m['value']):>14} {m['unit']}")
    out = WORKDIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    correct = failed == 0 and warm_code is None
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
