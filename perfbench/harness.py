"""Set-up, the timed closed loop, and the metrics of one benchmark run.

One client runs one operation at a time (a closed loop).  The clock of the
loop counts only the time spent inside operations: answer checks and speed
probes run between operations with the clock stopped.  Times are scaled by
the speed probe to a reference machine speed (see PROBE_REFERENCE_S).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` replays a fixed
number of blocks untraced and then traced, and reports the per-layer
metrics of the traced replay.  A workload's untimed ops (the deep-count
queries of eval-mix) run once each after that, outside ``attempted`` and
``failed``; their failures go to stderr and to ``recursion.deep_failures``.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import spans
from workloads import WORKLOADS, Context, Op, build_ops, build_untimed_ops, child_env

# Set-up runs at least SETUP_REPEATS times, and more while the set-ups so
# far took under SETUP_MIN_S, up to SETUP_MAX_REPEATS; setup_s is the median.
SETUP_REPEATS = 6
SETUP_MIN_S = 3.0
SETUP_MAX_REPEATS = 30

# The host is shared, and its speed drifts by up to a third over minutes
# and switches between modes within seconds.  Timing metrics are therefore
# scaled to a reference speed: a fixed pure-Python probe, independent of
# fuzzchain, runs between ops after every PROBE_EVERY_S of op time (and
# PROBES_PER_SETUP times before and after each set-up).  Each op time is
# multiplied by PROBE_REFERENCE_S / (mean of the probes within
# PROBE_WINDOW probes of the one before it); each set-up time by
# PROBE_REFERENCE_S / (median of the probes around it).
PROBE_REFERENCE_S = 0.006
PROBE_EVERY_S = 0.1
PROBE_WINDOW = 2
PROBES_PER_SETUP = 10

# Enough ops that at least ten lie beyond the 90th percentile.
MIN_OPS = 100

# Fresh interpreters timed, each way, for cli.startup_s.
STARTUP_PROBES = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    **{f"{layer}.calls": "count" for layer in spans.LAYERS},
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    "chains.chains_out": "count",
    "recursion.expand_terms": "count",
    "recursion.trace_events": "count",
    "closure.cells": "count",
    "systems.parse_bytes": "B",
    "algebra.canon_kept_ratio": "ratio",
    "checks.generate_s": "s",
    "cli.startup_s": "s",
    "trace_overhead": "ratio",
    "recursion.deep_failures": "count",
}


@dataclass
class LoopResult:
    # Times go into arrays, not lists of float objects: objects kept between
    # ops would pin the allocator's arenas and inflate the RSS of the run.
    latencies: array = field(default_factory=lambda: array("d"))  # seconds, every op attempted
    classes: list[str] = field(default_factory=list)
    verified: list[bool] = field(default_factory=list)
    wrong: int = 0  # answers that differ from the reference
    errors: Counter[str] = field(default_factory=Counter)  # exceptions, by type and op class
    busy: float = 0.0  # seconds inside operations
    probes: array = field(default_factory=lambda: array("d"))  # speed_probe() times
    probe_at: array = field(default_factory=lambda: array("l"))  # per op: last probe before it

    def extend(self, other: "LoopResult") -> None:
        self.latencies += other.latencies
        self.classes += other.classes
        self.verified += other.verified
        self.wrong += other.wrong
        self.errors += other.errors
        self.busy += other.busy
        self.probe_at += array("l", (i + len(self.probes) for i in other.probe_at))
        self.probes += other.probes

    def scaled_latencies(self) -> list[float]:
        """Each op's time at the reference speed, by the probes around it."""
        scaled = []
        for elapsed, at in zip(self.latencies, self.probe_at):
            near = self.probes[max(0, at - PROBE_WINDOW) : at + PROBE_WINDOW + 1]
            scaled.append(elapsed * PROBE_REFERENCE_S * len(near) / sum(near))
        return scaled

    def block_rates(self, size: int, latencies) -> list[float]:
        """Verified ops per second of op time, for each complete block."""
        rates = []
        for start in range(0, self.attempted - size + 1, size):
            block = range(start, start + size)
            ok = sum(self.verified[i] for i in block)
            rates.append(ok / sum(latencies[i] for i in block))
        return rates

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ok(self) -> int:
        return sum(self.verified)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


def _max(a: float, b: float) -> float:
    return a if a >= b else b


def _min(a: float, b: float) -> float:
    return a if a <= b else b


_PROBE_GRAPH = {v: [w for w in range(9) if w != v and (v * w) % 3 != 1] for v in range(9)}


def speed_probe() -> float:
    """Seconds taken by a fixed unit of interpreter work shaped like
    fuzzchain's: a 20-vertex max-min Warshall sweep and a simple-path DFS."""
    start = time.perf_counter()
    n = 20
    grid = [[((i * 7 + j * 13) % 101) / 100 for j in range(n)] for i in range(n)]
    for k in range(n):
        row_k = grid[k]
        for i in range(n):
            through, row_i = grid[i][k], grid[i]
            for j in range(n):
                row_i[j] = _max(row_i[j], _min(through, row_k[j]))
    paths, path, on_path = [], [0], {0}

    def walk(v: int) -> None:
        for w in _PROBE_GRAPH[v]:
            if w == 8:
                paths.append(tuple(path) + (8,))
            elif w not in on_path:
                path.append(w)
                on_path.add(w)
                walk(w)
                on_path.remove(w)
                path.pop()

    walk(0)
    return time.perf_counter() - start


def run_loop(
    ops: list[Op],
    seconds: float | None = None,
    count: int | None = None,
    rec: spans.Recorder | None = None,
    probe: bool = False,
    block: int = 0,
) -> LoopResult:
    """Run ops in order, cycling: exactly ``count`` ops, or else until
    ``seconds`` of op time have passed and at least MIN_OPS ops ran.
    With ``probe``, speed probes run between ops, one per PROBE_EVERY_S.
    With ``block``, a full garbage collection runs before every ``block``
    ops, so that garbage left in reference cycles piles up over one block
    and not over as many ops as the machine's speed let the run reach."""
    result = LoopResult()
    clock = time.perf_counter
    i = 0
    while i < count if count is not None else result.busy < seconds or i < MIN_OPS:
        if block and i % block == 0:
            gc.collect()
        if probe and result.busy >= len(result.probes) * PROBE_EVERY_S:
            result.probes.append(speed_probe())
        result.probe_at.append(len(result.probes) - 1)
        op = ops[i % len(ops)]
        output = error = None
        if rec is not None:
            rec.op_id += 1
            root = rec.open(0)
        start = clock()
        try:
            output = op.run()
        except Exception as exc:  # a failed op is counted, never retried
            error = exc
        elapsed = clock() - start
        if rec is not None:
            rec.close(root)
        result.busy += elapsed
        result.latencies.append(elapsed)
        result.classes.append(op.cls)
        verified = error is None and op.matches(output, op.expected)
        result.verified.append(verified)
        if error is not None:
            result.errors[f"{type(error).__name__} in {op.cls}"] += 1
        elif not verified:
            result.wrong += 1
        i += 1
    return result


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, by the inclusive method of ``statistics.quantiles``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@contextmanager
def workspace(root: Path, name: str) -> Iterator[Path]:
    """A scratch directory under ``<checkout>/.perfbench``, removed afterwards."""
    base = root / ".perfbench"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def fresh_ops(
    name: str, seed: int, workdir: Path, src: Path, blocks: int, in_process: bool = False
) -> list[Op]:
    workdir.mkdir(parents=True)
    return build_ops(WORKLOADS[name], seed, Context(workdir, src, in_process), blocks)


def set_up(
    name: str, seed: int, work: Path, src: Path, blocks: int
) -> tuple[list[Op], list[float], list[float]]:
    """Build the op list SETUP_REPEATS times, or more while the set-ups took
    under SETUP_MIN_S in all.  Returns the last list, the set-up times and,
    for each set-up, its slowdown: the median of the speed probes taken
    just before and just after it, over PROBE_REFERENCE_S."""
    probes = [speed_probe() for _ in range(PROBES_PER_SETUP)]
    times: list[float] = []
    slowdowns: list[float] = []
    ops: list[Op] = []
    while len(times) < SETUP_REPEATS or (
        sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS
    ):
        ops = []  # let the previous list go before timing the next
        start = time.perf_counter()
        ops = fresh_ops(name, seed, work / f"setup{len(times)}", src, blocks)
        times.append(time.perf_counter() - start)
        after = [speed_probe() for _ in range(PROBES_PER_SETUP)]
        slowdowns.append(statistics.median(probes + after) / PROBE_REFERENCE_S)
        probes = after
    return ops, times, slowdowns


def run_untimed(name: str, seed: int, work: Path, src: Path) -> LoopResult:
    """The workload's untimed ops, once each, in-process."""
    workdir = work / "untimed"
    workdir.mkdir()
    ops = build_untimed_ops(WORKLOADS[name], seed, Context(workdir, src, in_process=True))
    return run_loop(ops, count=len(ops))


def untimed_report(untimed: LoopResult) -> dict[str, object]:
    return {
        "untimed deep-count ops failed / run (not in attempted)": (
            f"{untimed.failed} / {untimed.attempted}"
        ),
        "untimed errors": dict(untimed.errors) or "none",
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report(lines: dict[str, object]) -> None:
    """Human-readable detail on stderr; stdout's last line stays the JSON."""
    for key, value in lines.items():
        print(f"perfbench: {key}: {value}", file=sys.stderr)


def measure(name: str, seed: int, seconds: float, root: Path, src: Path) -> dict:
    """The untraced run: end-to-end metrics."""
    workload = WORKLOADS[name]
    with workspace(root, name) as work:
        ops, setup_times, setup_slowdowns = set_up(name, seed, work, src, workload.pool_blocks)
        # The op list is the benchmark's data, not the program's: keep the
        # collector from scanning it during the ops.
        gc.freeze()
        loop = run_loop(ops, seconds=seconds, probe=True, block=workload.block_size)
        untimed = run_untimed(name, seed, work, src)
    slowdown = statistics.median(loop.probes) / PROBE_REFERENCE_S
    setup_slowdown = statistics.median(setup_slowdowns)
    scaled = loop.scaled_latencies()
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    measured = {
        # The median over blocks: a burst of machine noise moves a few
        # blocks, not the median.
        "ops_per_s": statistics.median(loop.block_rates(workload.block_size, loop.latencies)),
        "latency_p50_ms": percentile(loop.latencies, 50) * 1e3,
        "latency_p90_ms": percentile(loop.latencies, 90) * 1e3,
        "setup_s": statistics.median(setup_times),
    }
    metrics = {
        "ops_per_s": statistics.median(loop.block_rates(workload.block_size, scaled)),
        "latency_p50_ms": percentile(scaled, 50) * 1e3,
        "latency_p90_ms": percentile(scaled, 90) * 1e3,
        # Each set-up is scaled by the probes around it.
        "setup_s": statistics.median(t / d for t, d in zip(setup_times, setup_slowdowns)),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    extra = {
        "slowdown (median probe / reference), loop and set-up": (slowdown, setup_slowdown),
        "unscaled": measured,
        "error_rate (ratio, timed and untimed ops)": (loop.failed + untimed.failed)
        / (loop.attempted + untimed.attempted),
        "ops attempted / wrong": f"{loop.attempted} / {loop.wrong}",
        "errors": dict(loop.errors) or "none",
        "median latency by class (ms, unscaled)": class_medians(loop),
        **untimed_report(untimed),
    }
    if name == "cli":
        checks = [t for t, c in zip(scaled, loop.classes) if c == "check"]
        if checks:
            extra["check_s (s, scaled)"] = statistics.median(checks)
    report(extra)
    result = result_line(loop, {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()})
    result["correct"] = result["correct"] and untimed.wrong == 0
    return result


def class_medians(loop: LoopResult) -> dict[str, float]:
    by_class: dict[str, list[float]] = {}
    for t, c in zip(loop.latencies, loop.classes):
        by_class.setdefault(c, []).append(t)
    return {c: round(statistics.median(ts) * 1e3, 3) for c, ts in sorted(by_class.items())}


def measure_traced(name: str, seed: int, root: Path, src: Path) -> dict:
    """The traced run: a fixed number of blocks, each run untraced and then
    traced, so that warm-up favours neither side of trace_overhead."""
    workload = WORKLOADS[name]
    size = workload.block_size
    blocks = workload.trace_blocks
    with workspace(root, name) as work:
        # Two copies of the same inputs, so neither side finds caches the
        # other one warmed.
        plain_ops = fresh_ops(name, seed, work / "plain", src, blocks, in_process=True)
        traced_ops = fresh_ops(name, seed, work / "traced", src, blocks, in_process=True)
        gc.freeze()
        rec = spans.Recorder()
        tracer = spans.Tracer(rec)
        plain, traced = LoopResult(), LoopResult()
        for b in range(blocks):
            block = slice(b * size, (b + 1) * size)
            plain.extend(run_loop(plain_ops[block], count=size, block=size))
            with tracer.installed():
                traced.extend(
                    run_loop(traced_ops[block], count=size, rec=rec, probe=True, block=size)
                )
        untimed = run_untimed(name, seed, work, src)
    metrics = spans.layer_metrics(rec)
    metrics["cli.startup_s"] = startup_s(src) if name == "cli" else 0.0
    slowdown = statistics.median(traced.probes) / PROBE_REFERENCE_S
    metrics = {k: v / slowdown if k.endswith("_s") else v for k, v in metrics.items()}
    metrics["trace_overhead"] = traced.busy / plain.busy
    metrics["recursion.deep_failures"] = untimed.failed
    prefix = root / ".perfbench" / f"spans-{name}"
    rec.dump(prefix)
    report(
        {
            "spans": f"{len(rec)} written to {prefix}.bin and .json",
            "errors (traced)": dict(traced.errors) or "none",
            **untimed_report(untimed),
        }
    )
    result = result_line(traced, {k: _metric(metrics[k], u) for k, u in PER_LAYER_UNITS.items()})
    result["correct"] = result["correct"] and plain.wrong == 0 and untimed.wrong == 0
    return result


def startup_s(src: Path) -> float:
    """Median of (interpreter importing fuzzchain.cli) - (bare interpreter)."""
    env = child_env(src)
    deltas = []
    for _ in range(STARTUP_PROBES):
        times = []
        for code in ("pass", "import fuzzchain.cli"):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            times.append(time.perf_counter() - start)
        deltas.append(times[1] - times[0])
    return statistics.median(deltas)


def result_line(loop: LoopResult, metrics: dict) -> dict:
    """The JSON object printed as the last line of stdout."""
    return {
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
