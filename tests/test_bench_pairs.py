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
