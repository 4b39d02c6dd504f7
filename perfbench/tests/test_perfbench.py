"""Tests of the benchmark harness itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)


def _metric_lines(lines):
    return {line.split()[0]: line.split()[2] for line in lines if len(line.split()) >= 3 and not line.startswith(" ")}


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_printed_with_units(name):
    result, lines = run.run(name, seed=3, seconds=0, trace=0, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {n: u for n, u, _ in run.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = _metric_lines(lines)
    for n, u, _ in run.END_TO_END:
        assert printed[n] == u
    assert printed["failed_ratio"] == "failed/attempted"
    assert any(line.startswith("failed_ratio") and " 0 " in line for line in lines)
    assert any(line.startswith("provenance ") for line in lines)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric(name):
    result, lines = run.run(name, seed=3, seconds=0, trace=1, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {n: u for n, u, _ in run.PER_LAYER}
    again, _ = run.run(name, seed=3, seconds=0, trace=1, tiny=True)
    counts = {k for k, v in result["metrics"].items() if v["unit"] in ("count", "bytes", "blocks/tree")}
    assert {k: result["metrics"][k] for k in counts} == {k: again["metrics"][k] for k in counts}
    assert any("prediction" in line for line in lines)


def _flip_third_verify(dy):
    """Flip the first accept decision in the third verify result."""
    orig = dy["verify"].verify_tree
    calls = []

    def tampered(*args, **kwargs):
        result = orig(*args, **kwargs)
        calls.append(1)
        if len(calls) == 3:
            first = result.trace[0]
            result.trace[0] = dataclasses.replace(first, accepted=not first.accepted)
        return result

    for mod in list(dy.values()) + [sys.modules["dyspec"]]:
        if getattr(mod, "verify_tree", None) is orig:
            mod.verify_tree = tampered


@pytest.mark.parametrize("name", ["mc-verify", "paper-b64"])
def test_tampered_verify_result_counts_as_failed_op(name):
    result, lines = run.run(name, seed=3, seconds=0, trace=0, tiny=True, after_setup=_flip_third_verify)
    assert result["failed"] == 1
    assert not result["correct"]
    assert any("replay_trace failed" in line for line in lines)


@pytest.mark.parametrize("name", ["mask-2048", "paper-b64"])
def test_every_op_raising_still_reports(name, monkeypatch):
    def broken(self, inp):
        raise RuntimeError("injected")

    monkeypatch.setattr(WORKLOADS[name], "op", broken)
    result, lines = run.run(name, seed=3, seconds=0, trace=0, tiny=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert set(result["metrics"]) == {n for n, _, _ in run.END_TO_END}
    json.dumps(result, allow_nan=False)
    assert any(line.startswith("failed_ratio") and " 1 " in line for line in lines)


def test_builder_times_come_from_builders_only_pass():
    result, lines = run.run("bench-cold", seed=3, seconds=0, trace=1, tiny=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["construct.fixed_s"] > 0 and m["construct.threshold_s"] > 0 and m["construct.baseline_s"] > 0
    assert m["construct.us_per_node"] > 0
    assert any("only the three builders wrapped" in line for line in lines)


def test_missing_wrapped_name_fails_loudly():
    def drop(dy):
        del dy["token_tree"].TokenTree.parent_array

    with pytest.raises(tracer.TraceError, match="parent_array"):
        run.run("paper-b64", seed=3, seconds=0, trace=1, tiny=True, after_setup=drop)


def test_layer_without_calls_fails_loudly(monkeypatch):
    monkeypatch.setitem(run.RUNS_ON, "mc-verify", ("verify", "lm"))
    with pytest.raises(tracer.TraceError, match="lm"):
        run.run("mc-verify", seed=3, seconds=0, trace=1, tiny=True)


def test_benchmark_json_matches_harness():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-b64", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
