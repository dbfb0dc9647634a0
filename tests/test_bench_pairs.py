"""tools/bench_pairs.py: a run with wrong outputs never reaches the medians."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def printing(result: dict) -> list[str]:
    """A benchmark command whose last line is ``result``."""
    return [sys.executable, "-c", f"print('warming up'); print({json.dumps(result)!r})"]


RESULT = {"attempted": 3, "failed": 0, "metrics": {"ops_per_s": {"value": 9.5}}}


def test_a_correct_run_is_recorded(tmp_path):
    run = load_tool().run_once(tmp_path, printing({**RESULT, "correct": True}),
                               "cli", 1, "change", 4)
    assert run == {"correct": True, "attempted": 3, "failed": 0,
                   "metrics": {"ops_per_s": 9.5}}


def test_a_run_with_wrong_outputs_stops_the_comparison(tmp_path):
    with pytest.raises(RuntimeError, match="workload cli, parent side, pair 3: "
                                           "the outputs are not correct"):
        load_tool().run_once(tmp_path, printing({**RESULT, "correct": False}),
                             "cli", 1, "parent", 3)


def test_the_seed_defaults_to_61_and_names_the_output():
    tool = load_tool()
    args = tool.parse_args(["cfacd12", "27"])
    assert (args.parent, args.pr, args.seed, args.workload) == ("cfacd12", 27, 61, None)
    assert tool.output_name(args.pr, args.seed) == "BENCH_27.json"
    args = tool.parse_args(["cfacd12", "27", "--seed", "7", "--workload", "corpus"])
    assert (args.seed, args.workload) == (7, "corpus")
    assert tool.output_name(args.pr, args.seed) == "BENCH_27-seed7.json"


def test_a_run_passes_its_seed_to_the_benchmark(tmp_path):
    # the command reports the --seed it was given as a metric
    command = [sys.executable, "-c",
               "import json, sys; seed = int(sys.argv[sys.argv.index('--seed') + 1]); "
               "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, "
               "'metrics': {'seed': {'value': seed}}}))"]
    tool = load_tool()
    assert tool.run_once(tmp_path, command, "corpus", 1, "change", 1)["metrics"] == {"seed": 61}
    assert tool.run_once(tmp_path, command, "corpus", 1, "change", 1, 7)["metrics"] == {"seed": 7}


def test_an_unknown_workload_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.chdir(TOOL.parents[1])
    assert tool.main(["HEAD", "27", "--workload", "nope"]) == 2
    assert "unknown workload 'nope'; known: replay, corpus, patterns, cli" in capsys.readouterr().err


def test_a_pr_number_must_be_an_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        load_tool().parse_args(["cfacd12", "x"])
    assert exc.value.code == 2


def test_the_report_reads_medians_change_and_pairs_won_per_workload_and_metric():
    tool = load_tool()
    end_to_end = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                  {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]

    def run(setup_s, ops_per_s):
        return {"attempted": 4, "failed": 0,
                "metrics": {"setup_s": setup_s, "ops_per_s": ops_per_s}}

    pairs = [{"parent": run(0.05, 100.0 + i), "change": run(0.03 if i else 0.06, 100.0 + 2 * i)}
             for i in range(4)]
    record = {"workloads": {"patterns": {"runs": pairs,
                                         "summary": tool.summarize(pairs, end_to_end)}}}
    assert tool.report(record) == [
        "patterns setup_s: 0.05 -> 0.03 s (-40.0%), change won 3 of 4 pairs: unresolved",
        "patterns ops_per_s: 101.5 -> 103 1/s (+1.5%), change won 3 of 4 pairs: unresolved",
    ]


END_TO_END = [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
              {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def verdicts(parent_ms, change_ms) -> dict:
    """The verdict per metric of ten pairs with these op_ms_p50 values and
    ops_per_s = 1000 / op_ms_p50."""
    def run(ms):
        return {"attempted": 1, "failed": 0, "metrics": {"op_ms_p50": ms, "ops_per_s": 1000 / ms}}

    pairs = [{"parent": run(p), "change": run(c)} for p, c in zip(parent_ms, change_ms)]
    return {name: m["verdict"] for name, m in load_tool().summarize(pairs, END_TO_END).items()
            if isinstance(m, dict)}


PARENT = [3.40, 3.45, 3.50, 3.55, 3.60, 3.40, 3.45, 3.50, 3.55, 3.60]  # quartiles 3.45, 3.56


def test_a_change_that_wins_nine_of_ten_pairs_by_more_than_the_spread_is_a_gain():
    faster = [2.8] * 9 + [3.7]
    assert verdicts(PARENT, faster) == {"op_ms_p50": "gain", "ops_per_s": "gain"}


def test_a_change_worse_by_more_than_its_bound_is_a_regression():
    slower = [4.5] * 10  # +28.6% op time, -22.2% ops_per_s: only op time passes its bound
    assert verdicts(PARENT, slower) == {"op_ms_p50": "regression", "ops_per_s": "unresolved"}


@pytest.mark.parametrize("change, why", [
    ([2.8] * 8 + [3.7] * 2, "won only 8 of 10 pairs"),
    ([p - 0.05 for p in PARENT], "won 10 of 10 pairs, but by less than the parent's spread"),
    ([3.4] * 5 + [3.6] * 5, "won some, lost some"),
])
def test_anything_else_is_unresolved(change, why):
    assert verdicts(PARENT, change) == {"op_ms_p50": "unresolved", "ops_per_s": "unresolved"}, why
