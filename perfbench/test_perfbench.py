"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import spans
from fuzzchain import chains, recursion
from workloads import WORKLOADS, Context, build_ops, build_untimed_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def ops_for(name: str, seed: int, workdir: Path, in_process: bool = False):
    workdir.mkdir(exist_ok=True)
    return build_ops(WORKLOADS[name], seed, Context(workdir, SRC, in_process), blocks=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_block_of_each_workload_is_answered_correctly(name, tmp_path):
    ops = ops_for(name, 11, tmp_path)
    result = harness.run_loop(ops, count=len(ops))
    assert (result.wrong, result.failed) == (0, 0)


def test_untimed_deep_ops_fail_only_by_recursion_depth(tmp_path):
    ops = build_untimed_ops(WORKLOADS["eval-mix"], 11, Context(tmp_path, SRC, True))
    assert {op.cls for op in ops} == {"deep-hot", "deep-fresh"}
    result = harness.run_loop(ops, count=len(ops))
    assert result.wrong == 0
    # A deep op that fails runs past the recursion limit; none is skipped.
    assert all(key.startswith("RecursionError in deep-") for key in result.errors)
    assert sum(result.errors.values()) == result.failed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    def inputs(seed: int) -> list:
        return [(op.cls, op.spec, op.expected) for op in ops_for(name, seed, tmp_path)]

    first = inputs(5)
    assert inputs(5) == first
    assert inputs(6) != first


def test_planted_wrong_reference_counts_as_failure(tmp_path):
    ops = ops_for("eval-mix", 3, tmp_path)
    ops[0].expected = 2.0  # no grade is above 1
    result = harness.run_loop(ops, count=len(ops))
    assert (result.wrong, result.failed) == (1, 1)
    assert harness.result_line(result, {})["correct"] is False


def test_self_times_are_non_negative_and_add_up_to_each_op(tmp_path):
    # The deep ops unwind mid-span.
    deep = build_untimed_ops(WORKLOADS["eval-mix"], 4, Context(tmp_path, SRC))
    ops = ops_for("eval-mix", 4, tmp_path) + deep
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    with tracer.installed():
        harness.run_loop(ops, count=len(ops), rec=rec)
    own = rec.self_ns()
    assert all(e >= s > 0 for s, e in zip(rec.start, rec.end))
    assert min(own) >= 0
    roots = [i for i, fid in enumerate(rec.fn) if fid == 0]
    assert len(roots) == len(ops)
    total: dict[int, int] = {}
    for op_id, ns in zip(rec.op, own):
        total[op_id] = total.get(op_id, 0) + ns
    for i in roots:
        assert total[rec.op[i]] == rec.end[i] - rec.start[i]
    metrics = spans.layer_metrics(rec)
    assert metrics["chains.calls"] > 0 and metrics["chains.chains_out"] > 0


def test_tracer_puts_the_original_functions_back():
    original = chains.enumerate_chains
    tracer = spans.Tracer(spans.Recorder())
    with tracer.installed():
        assert recursion.enumerate_chains is not original
    assert recursion.enumerate_chains is original
    assert chains.enumerate_chains is original


def test_each_op_is_scaled_by_the_probes_around_it():
    ref = harness.PROBE_REFERENCE_S
    loop = harness.LoopResult()
    for block_probes in ([ref] * 10, [2 * ref] * 10):  # a fast stretch, then a slow one
        part = harness.LoopResult()
        part.latencies.extend([0.01] * 10)
        part.probes.extend(block_probes)
        part.probe_at.extend(range(10))
        loop.extend(part)
    scaled = loop.scaled_latencies()
    assert scaled[:8] == pytest.approx([0.01] * 8)
    assert scaled[-8:] == pytest.approx([0.005] * 8)


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    argv = ["--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
