"""Tests of the benchmark itself, on shortened workloads.

Run with ``python3 -m pytest bench``; the repository's own test suite
does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 7          # not the default seed: golden digests are not consulted


def small(name: str):
    workload = run.WORKLOADS[name]
    fixture = 30 if workload.uses_rules else None
    return replace(workload, trials=30, fixture_trials=fixture)


@pytest.fixture(scope="module", autouse=True)
def package_on_path():
    sys.path.insert(0, str(run.SRC))
    yield
    sys.path.remove(str(run.SRC))


@pytest.fixture(scope="module")
def traced():
    return {name: run.run(small(name), SEED, seconds=0, trace=True)[0] for name in run.WORKLOADS}


def values(result) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_workloads_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_is_correct_and_reports_every_layer_metric(traced, name):
    result = traced[name]
    assert result["correct"], result
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for metric in BENCHMARK["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_layer_records_calls_where_the_workload_uses_it(traced, name):
    metrics = values(traced[name])
    for layer in ("hmrl.select_target.calls", "env.step.calls", "q_learning.q_update.calls",
                  "hmrl.reinforce_upper.calls", "profit_sharing.WeightTable.add.calls",
                  "tableio.save_table.rows", "hmrl.upper_entries", "q_learning.q_entries"):
        assert metrics[layer] > 0, layer
    uses_rules = run.WORKLOADS[name].uses_rules
    assert (metrics["knowledge.rule_policy_act.calls"] > 0) == uses_rules
    assert (metrics["knowledge.rules"] > 0) == uses_rules
    assert (metrics["knowledge.instances"] > 0) == uses_rules


def test_span_self_times_fit_in_the_commands():
    workload = small("train-ungated")
    bench = run.Bench(workload, run.WORK_ROOT / "test-self-times", golden=None)
    try:
        command = bench.op(SEED, traced=True, instances=None)[0]
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    tracer = bench.tracer
    assert not command.problems
    assert 0 < tracer.total_self_time() <= command.wall
    for stat in tracer.stats.values():
        assert 0 <= stat[2] <= stat[1] + 1e-9


def counts(result) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if metric["unit"] in ("count", "B")}


def test_counts_repeat_exactly(traced):
    again = run.run(small("distill-eval"), SEED, seconds=0, trace=True)[0]
    assert counts(again) == counts(traced["distill-eval"])
    assert counts(again)["knowledge.rules"] > 0


def test_timed_run_reports_every_end_to_end_metric():
    result = run.run(small("train-gated"), SEED, seconds=0, trace=False)[0]
    assert result["correct"], result
    assert result["attempted"] == run.INPUTS_PER_RUN
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(value > 0 for value in values(result).values())


def test_golden_mismatch_fails_the_command():
    workload = small("train-gated")
    bench = run.Bench(workload, run.WORK_ROOT / "test-golden",
                      golden={"digests": {}, "counts": {}})
    try:
        command = bench.op(SEED, traced=False, instances=None)[0]
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    assert command.problems == ["outputs differ from golden.json"]


def test_golden_covers_every_workload_on_the_default_seed():
    golden = json.loads(run.GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(run.WORKLOADS)
    for name, workload in run.WORKLOADS.items():
        seeds = run.program_seeds(run.DEFAULT_SEED, run.INPUTS_PER_RUN)
        command = "eval-rules" if workload.uses_rules else "train"
        for seed in seeds:
            assert f"s{seed}/{command}" in golden[name]["digests"]


def test_exits_nonzero_without_the_program():
    bare = run.WORK_ROOT / "test-no-sources"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(run.__file__).parent, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run([sys.executable, "bench/run.py", "--workload", "train-gated",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout == ""
