"""The four benchmark workloads: seeded operation lists with their answers.

A workload is a mix of operation classes.  Set-up draws the operations in
blocks: every block holds each class a fixed number of times, in a seeded
random order.  A run that stops part-way through the list therefore still
ran each class in its planned share, and the latency percentiles land on
the same class from seed to seed.  The shares are chosen so that p50 and
p90 each fall well inside one class (see README.md).

A workload may also name classes that run only untimed, once each after
the timed loop, outside ``attempted`` and ``failed``: the deep-count
queries of ``eval-mix``, which die with ``RecursionError`` today.  The
harness reports how many of them fail, and a wrong answer among them makes
the run incorrect.

Operations call the program through module attributes (``recursion.eval_system``
and so on), so the traced run's wrappers see them.  Expected answers are
computed during set-up, by a route other than the one the operation takes.
"""

from __future__ import annotations

import io
import itertools
import math
import operator
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from fuzzchain import algebra, chains, cli, closure, recursion, systems
from fuzzchain.checks import random_callfree_system, random_registry
from fuzzchain.rng import SplitMix64

from inputs import (
    FIXTURE_VARS,
    GRID_CHAINS,
    VAR_POOL,
    assignment_for,
    budget0_value,
    grid_edge_count,
    grid_system,
    one_level_grades,
    psi1_rec_terms,
    psi1_rec_trace_events,
    random_expr,
    registry_of,
    self_only_system,
    shuffled,
    sparse_system,
    var_grades,
    widest_path,
)

# A subprocess that takes longer than this has hung.
CLI_TIMEOUT_S = 120

# Mixed into the seed for the untimed ops, so they do not repeat the draws
# of the timed ones.
UNTIMED_STREAM = 0x5EED_DEE9


@dataclass
class Op:
    """One operation: ``run`` is timed, then ``matches(output, expected)``."""

    spec: str  # the generated input, as text; equal seeds give equal specs
    run: Callable[[], Any]
    expected: Any
    matches: Callable[[Any, Any], bool] = operator.eq
    cls: str = ""  # the op class, set by build_ops


def child_env(src: Path) -> dict[str, str]:
    """Environment for a child interpreter that imports fuzzchain from ``src``."""
    return dict(os.environ, PYTHONPATH=str(src))


@dataclass
class Context:
    """Where the cli workload writes its input files, and how it runs the CLI."""

    workdir: Path
    src: Path
    in_process: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    mix: tuple[tuple[str, int], ...]  # (op class, ops per block)
    build: Callable[[SplitMix64, Context], dict[str, Callable[[], Op]]]
    pool_blocks: int  # blocks drawn in set-up; the timed loop cycles through them
    trace_blocks: int  # blocks replayed, untraced and then traced, with --trace 1
    untimed: tuple[tuple[str, int], ...] = ()  # (op class, ops) run once after the loop

    @property
    def block_size(self) -> int:
        return sum(n for _, n in self.mix)


def build_ops(workload: Workload, seed: int, ctx: Context, blocks: int) -> list[Op]:
    rng = SplitMix64(seed)
    makers = workload.build(rng, ctx)
    slots = [cls for cls, n in workload.mix for _ in range(n)]
    ops = []
    for _ in range(blocks):
        for cls in shuffled(rng, slots):
            op = makers[cls]()
            op.cls = cls
            ops.append(op)
    return ops


def build_untimed_ops(workload: Workload, seed: int, ctx: Context) -> list[Op]:
    """The workload's untimed ops, drawn from their own stream of the seed."""
    rng = SplitMix64(seed ^ UNTIMED_STREAM)
    makers = workload.build(rng, ctx)
    ops = []
    for cls, n in workload.untimed:
        for _ in range(n):
            op = makers[cls]()
            op.cls = cls
            ops.append(op)
    return ops


def _value_spec(registry, name: str, query: str, assignment: dict[str, float]) -> str:
    bindings = " ".join(f"{k}={v!r}" for k, v in sorted(assignment.items()))
    return f"{query} {name}\n{systems.format_registry(registry)}{bindings}"


# --- eval-mix ---------------------------------------------------------------


def _eval_mix(rng: SplitMix64, ctx: Context) -> dict[str, Callable[[], Op]]:
    hot_grid4 = registry_of(grid_system(4, "g", lambda i: f"g{i}"))
    hot_grid5 = registry_of(grid_system(5, "g", lambda i: f"g{i}"))
    hot_rec = {c: systems.builtin_fixtures(rec_count=c) for c in (2, 5, 10, 20)}
    hot_deep = {c: systems.builtin_fixtures(rec_count=c) for c in (2000, 10**4, 10**6)}

    def query(registry, name: str, assignment, budget: int | None, expected: float) -> Op:
        if budget is None:
            run = lambda: recursion.eval_system(registry, name, assignment)  # noqa: E731
        else:
            run = lambda: recursion.resolve_call(registry, name, budget, assignment)  # noqa: E731
        text = "eval_system" if budget is None else f"resolve_call budget={budget}"
        return Op(_value_spec(registry, name, text, assignment), run, expected)

    def budget_at_least(floor: int) -> int | None:
        """Top level or a budget past stabilization: both give the top value."""
        return None if rng.chance(1, 2) else floor + rng.below(3)

    def via_closure(registry, name: str, floor: int) -> Op:
        assignment = assignment_for(rng, sorted(_var_names(registry)))
        expected = closure.transmission(registry, name, assignment)
        return query(registry, name, assignment, budget_at_least(floor), expected)

    def grid(registry) -> Op:
        return via_closure(registry, "g", 0)

    def fresh_grid4() -> Op:
        return grid(registry_of(grid_system(4, "g", lambda i: rng.choice(VAR_POOL))))

    def fresh_registry() -> Op:
        registry = random_registry(rng, n_systems=3, max_vertices=6, max_edges=10)
        floor = 1 + registry.max_declared_count()
        return via_closure(registry, registry.names()[-1], floor)

    def self_only(registry, name: str, count: int) -> Op:
        names = FIXTURE_VARS if name == "psi1_rec" else VAR_POOL
        assignment = assignment_for(rng, names)
        expected = budget0_value(registry[name], assignment)
        budget = None if rng.chance(1, 2) else count + rng.below(2)
        return query(registry, name, assignment, budget, expected)

    def fresh_self(counts: tuple[int, ...]) -> Op:
        count = rng.choice(counts)
        return self_only(registry_of(self_only_system(rng, "s", count)), "s", count)

    def hot_psi1_rec(table: dict) -> Op:
        count = rng.choice(tuple(table))
        return self_only(table[count], "psi1_rec", count)

    return {
        "fresh-registry": fresh_registry,
        "fresh-self": lambda: fresh_self((2, 3, 5, 8, 13, 20)),
        "hot-psi1-rec": lambda: hot_psi1_rec(hot_rec),
        "fresh-grid4": fresh_grid4,
        "hot-grid4": lambda: grid(hot_grid4),
        "deep-hot": lambda: hot_psi1_rec(hot_deep),
        "deep-fresh": lambda: fresh_self((2000, 10**4, 10**5, 10**6)),
        "hot-grid5": lambda: grid(hot_grid5),
    }


def _var_names(registry) -> set[str]:
    return {
        edge.atom.name
        for system in registry
        for edge in system.edges
        if isinstance(edge.atom, algebra.Var)
    }


# --- closure-large ----------------------------------------------------------


def _closure_large(rng: SplitMix64, ctx: Context) -> dict[str, Callable[[], Op]]:
    def net(n: int) -> Op:
        callees = [
            random_callfree_system(rng, f"s{i}", max_vertices=6, max_edges=10) for i in range(3)
        ]
        big, names = sparse_system(rng, n, "net", [c.name for c in callees], calls=3)
        registry = registry_of(*callees, big)
        assignment = assignment_for(rng, sorted(set(names) | set(VAR_POOL)))
        expected = widest_path(big, one_level_grades(registry, assignment))
        run = lambda: closure.transmission(registry, "net", assignment)  # noqa: E731
        return Op(_value_spec(registry, "net", "transmission", assignment), run, expected)

    return {f"n{n}": (lambda n=n: net(n)) for n in (40, 50, 60, 80, 100, 120)}


# --- symbolic ---------------------------------------------------------------


def _symbolic(rng: SplitMix64, ctx: Context) -> dict[str, Callable[[], Op]]:
    rec = {c: systems.builtin_fixtures(rec_count=c) for c in range(4, 10)}

    def ftf(k: int) -> Op:
        system = grid_system(k, "g", lambda i: f"g{i}")
        assignment = assignment_for(rng, [f"g{i}" for i in range(grid_edge_count(k))])
        valuation = algebra.assignment_valuation(assignment)
        run = lambda: chains.derive_ftf(system)  # noqa: E731
        expected = (GRID_CHAINS[k], widest_path(system, var_grades(assignment)))
        return Op(
            f"derive_ftf grid {k} " + repr(sorted(assignment.items())),
            run,
            expected,
            lambda out, want: (len(out.terms), algebra.eval_expr(out, valuation)) == want,
        )

    def expand(counts: tuple[int, ...]) -> Op:
        count = rng.choice(counts)
        registry = rec[count]
        assignment = assignment_for(rng, FIXTURE_VARS)
        valuation = algebra.assignment_valuation(assignment)

        def run():
            flat = recursion.symbolic_expand(registry, "psi1_rec")
            return flat, algebra.canonicalize(flat, simplify=True)

        def matches(out, want) -> bool:
            flat, simple = out
            values = (algebra.eval_expr(flat, valuation), algebra.eval_expr(simple, valuation))
            return (len(flat.terms), values) == want

        value = budget0_value(registry["psi1_rec"], assignment)
        expected = (psi1_rec_terms(count), (value, value))
        spec = f"expand psi1_rec count={count} " + repr(sorted(assignment.items()))
        return Op(spec, run, expected, matches)

    def trace(counts: tuple[int, ...]) -> Op:
        count = rng.choice(counts)
        registry = rec[count]
        assignment = assignment_for(rng, FIXTURE_VARS)
        run = lambda: recursion.trace_eval(registry, "psi1_rec", assignment)  # noqa: E731
        expected = (budget0_value(registry["psi1_rec"], assignment), psi1_rec_trace_events(count))
        spec = f"trace psi1_rec count={count} " + repr(sorted(assignment.items()))
        return Op(spec, run, expected, lambda out, want: (out.value, len(out.events)) == want)

    def registry_round_trip() -> Op:
        if rng.chance(1, 3):
            registry = registry_of(grid_system(rng.randint(3, 5), "g", lambda i: f"g{i}"))
        else:
            registry = random_registry(
                rng, n_systems=rng.randint(3, 6), max_vertices=7, max_edges=12
            )
        text = systems.format_registry(registry)
        run = lambda: systems.parse_registry(systems.format_registry(registry))  # noqa: E731
        return Op("registry round trip\n" + text, run, registry)

    def expr_round_trip() -> Op:
        expr = random_expr(rng, rng.randint(40, 80), 6, calls=True)
        text = algebra.format_expr(expr, "raw")
        run = lambda: algebra.parse_expr(algebra.format_expr(expr, "raw"))  # noqa: E731
        return Op("expr round trip " + text, run, expr)

    def power() -> Op:
        expr = random_expr(rng, rng.randint(2, 4), 3, calls=False)
        k = rng.randint(2, 4)
        assignment = assignment_for(rng, VAR_POOL)
        valuation = algebra.assignment_valuation(assignment)
        terms = len(expr.terms)

        def run():
            return algebra.expr_power(expr, k), algebra.multinomial_expand(expr, k)

        def matches(out, want) -> bool:
            powered, entries = out
            got = (
                algebra.eval_expr(powered, valuation),
                len(entries),
                sum(e.coefficient for e in entries),
            )
            return got == want

        expected = (
            widest_of_expr(expr, assignment),
            math.comb(k + terms - 1, terms - 1),
            terms**k,
        )
        spec = f"power k={k} {algebra.format_expr(expr, 'raw')} {sorted(assignment.items())!r}"
        return Op(spec, run, expected, matches)

    return {
        "power": power,
        "registry-round-trip": registry_round_trip,
        "expr-round-trip": expr_round_trip,
        "ftf-grid4": lambda: ftf(4),
        "expand": lambda: expand((4, 5, 6, 7, 8, 9)),
        "trace-small": lambda: trace((4, 5, 6, 7)),
        "trace-8": lambda: trace((8,)),
        "ftf-grid5": lambda: ftf(5),
    }


def widest_of_expr(expr, assignment: dict[str, float]) -> float:
    """Value of a sum of products, written out without the algebra module;
    a power of an expression has the same value (max-min is idempotent)."""
    terms = (min((assignment[a.name] for a in t.atoms), default=1.0) for t in expr.terms)
    return max(terms, default=0.0)


# --- cli --------------------------------------------------------------------


def _cli_run(argv: list[str], ctx: Context) -> Callable[[], tuple[int, str]]:
    if ctx.in_process:

        def run() -> tuple[int, str]:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()

    else:

        def run() -> tuple[int, str]:
            proc = subprocess.run(
                [sys.executable, "-m", "fuzzchain.cli", *argv],
                capture_output=True,
                text=True,
                env=child_env(ctx.src),
                cwd=ctx.workdir,
                timeout=CLI_TIMEOUT_S,
            )
            return proc.returncode, proc.stdout

    return run


def _cli(rng: SplitMix64, ctx: Context) -> dict[str, Callable[[], Op]]:
    fixtures = systems.builtin_fixtures()
    files = itertools.count()

    def write(text: str) -> str:
        path = ctx.workdir / f"in{next(files)}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def command(argv: list[str], expected: Any, matches=operator.eq) -> Op:
        return Op(" ".join(argv), _cli_run(argv, ctx), expected, matches)

    def printed(text: str) -> tuple[int, str]:
        return 0, text + "\n"

    def sets(assignment: dict[str, float]) -> list[str]:
        return [arg for k, v in assignment.items() for arg in ("--set", f"{k}={v!r}")]

    def fixture_assignment() -> dict[str, float]:
        return assignment_for(rng, FIXTURE_VARS)

    def eval_fixture() -> Op:
        name = rng.choice(("phi", "psi1", "psi2", "psi3", "psi4", "psi5"))
        assignment = fixture_assignment()
        value = closure.transmission(fixtures, name, assignment)
        return command(["eval", "--system", name, *sets(assignment)], printed(repr(value)))

    def eval_rec() -> Op:
        count = rng.randint(2, 20)
        assignment = fixture_assignment()
        registry = systems.builtin_fixtures(rec_count=count)
        value = budget0_value(registry["psi1_rec"], assignment)
        argv = ["eval", "--system", "psi1_rec", "--rec-count", str(count), *sets(assignment)]
        return command(argv, printed(repr(value)))

    def eval_file() -> Op:
        system = grid_system(4, "g", lambda i: f"g{i}")
        assignment = assignment_for(rng, [f"g{i}" for i in range(grid_edge_count(4))])
        registry = registry_of(system)
        fixtures_file = write(systems.format_registry(registry))
        assign_file = write(systems.format_assignment(assignment))
        value = widest_path(system, var_grades(assignment))
        argv = ["eval", "--fixtures", fixtures_file, "--assign", assign_file, "--system", "g"]
        return command(argv, printed(repr(value)))

    def closure_fixture() -> Op:
        name = rng.choice(("psi1", "psi2", "psi3", "psi4", "psi5"))
        assignment = fixture_assignment()
        system = fixtures[name]
        vertices, grid = closure.resolve_matrix(fixtures, name, assignment)
        closed = closure.warshall_closure(grid)
        value = widest_path(system, var_grades(assignment))
        text = closure.render_numeric_matrix(vertices, closed) + (
            f"\ntransmission {system.input_terminal}->{system.output_terminal} = {value!r}"
        )
        return command(["closure", "--system", name, *sets(assignment)], printed(text))

    def closure_file() -> Op:
        registry = random_registry(rng, n_systems=2, allow_self=False, max_vertices=7, max_edges=12)
        name = registry.names()[-1]
        assignment = assignment_for(rng, VAR_POOL)
        system = registry[name]
        vertices, grid = closure.resolve_matrix(registry, name, assignment)
        value = widest_path(system, one_level_grades(registry, assignment))
        text = closure.render_numeric_matrix(vertices, closure.warshall_closure(grid)) + (
            f"\ntransmission {system.input_terminal}->{system.output_terminal} = {value!r}"
        )
        argv = [
            "closure",
            "--fixtures",
            write(systems.format_registry(registry)),
            "--assign",
            write(systems.format_assignment(assignment)),
            "--system",
            name,
        ]
        return command(argv, printed(text))

    def matrix() -> Op:
        name = rng.choice(("phi", "psi1", "psi2", "psi3", "psi4", "psi5", "psi1_rec"))
        if rng.chance(1, 2):
            text = closure.render_symbolic_matrix(systems.connection_matrix(fixtures[name]))
            return command(["matrix", "--system", name], printed(text))
        assignment = fixture_assignment()
        text = closure.render_numeric_matrix(*closure.resolve_matrix(fixtures, name, assignment))
        return command(["matrix", "--system", name, "--resolve", *sets(assignment)], printed(text))

    def ftf() -> Op:
        name = rng.choice(("phi", "psi1", "psi2", "psi3", "psi4", "psi5", "psi1_rec"))
        mode = rng.choice(("raw", "canonical", "paper"))
        text = algebra.format_expr(chains.derive_ftf(fixtures[name]), mode)
        return command(["ftf", "--system", name, "--mode", mode], printed(text))

    def expand() -> Op:
        count = rng.randint(2, 5)
        registry = systems.builtin_fixtures(rec_count=count)
        text = recursion.render_expansion(recursion.expansion_tree(registry, "psi1_rec"))
        return command(["expand", "--rec-count", str(count)], printed(text))

    def trace() -> Op:
        count = rng.randint(2, 4)
        assignment = fixture_assignment()
        registry = systems.builtin_fixtures(rec_count=count)
        result = recursion.trace_eval(registry, "psi1_rec", assignment)
        if result.value != budget0_value(registry["psi1_rec"], assignment):
            raise AssertionError("trace reference disagrees with the call-free value")
        argv = ["trace", "--rec-count", str(count), *sets(assignment)]
        return command(argv, printed("\n".join(result.lines())))

    def power() -> Op:
        expr = random_expr(rng, rng.randint(2, 3), 3, calls=False)
        k = rng.randint(2, 3)
        text = algebra.format_expr(expr, "raw")
        first = algebra.format_expr(algebra.expr_power(expr, k), "canonical")
        rows = len(algebra.multinomial_expand(expr, k))

        def matches(out, want) -> bool:
            code, stdout = out
            lines = stdout.splitlines()
            return (code, lines[:1], len(lines) - 1) == want

        return command(["power", text, str(k)], (0, [first], rows), matches)

    def validate() -> Op:
        if rng.chance(1, 2):
            return command(["validate"], printed(f"ok: {len(fixtures)} systems"))
        registry = random_registry(rng, n_systems=rng.randint(2, 5))
        argv = ["validate", "--fixtures", write(systems.format_registry(registry))]
        return command(argv, printed(f"ok: {len(registry)} systems"))

    def fixtures_cmd() -> Op:
        if rng.chance(1, 2):
            text = systems.format_assignment(systems.FIXTURE_ASSIGNMENT)
            return command(["fixtures", "--values"], printed(text))
        count = rng.randint(0, 9)
        text = systems.format_registry(systems.builtin_fixtures(rec_count=count))
        return command(["fixtures", "--rec-count", str(count)], printed(text))

    def check() -> Op:
        def matches(out, want) -> bool:
            code, stdout = out
            lines = stdout.splitlines()
            return code == 0 and len(lines) == want and all(x.startswith("ok ") for x in lines)

        argv = ["check", "--seed", str(rng.below(10**6)), "--trials", "50"]
        return command(argv, 6, matches)

    return {
        "eval-fixture": eval_fixture,
        "eval-rec": eval_rec,
        "eval-file": eval_file,
        "closure-fixture": closure_fixture,
        "closure-file": closure_file,
        "matrix": matrix,
        "ftf": ftf,
        "expand": expand,
        "trace": trace,
        "power": power,
        "validate": validate,
        "fixtures": fixtures_cmd,
        "check": check,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eval-mix",
            (
                ("fresh-registry", 3),
                ("fresh-self", 2),
                ("hot-psi1-rec", 1),
                ("fresh-grid4", 5),
                ("hot-grid4", 5),
                ("hot-grid5", 4),
            ),
            _eval_mix,
            pool_blocks=30,
            trace_blocks=8,
            untimed=(("deep-hot", 4), ("deep-fresh", 4)),
        ),
        Workload(
            "closure-large",
            (("n40", 4), ("n50", 2), ("n60", 8), ("n80", 3), ("n100", 2), ("n120", 1)),
            _closure_large,
            pool_blocks=14,
            trace_blocks=4,
        ),
        Workload(
            "symbolic",
            (
                ("power", 3),
                ("registry-round-trip", 2),
                ("expr-round-trip", 2),
                ("ftf-grid4", 6),
                ("expand", 2),
                ("trace-small", 1),
                ("ftf-grid5", 1),
                ("trace-8", 3),
            ),
            _symbolic,
            pool_blocks=36,
            trace_blocks=10,
        ),
        Workload(
            "cli",
            (
                ("eval-fixture", 1),
                ("eval-rec", 1),
                ("eval-file", 2),
                ("closure-fixture", 1),
                ("closure-file", 1),
                ("matrix", 1),
                ("ftf", 2),
                ("expand", 2),
                ("trace", 1),
                ("power", 2),
                ("validate", 1),
                ("fixtures", 1),
                ("check", 4),
            ),
            _cli,
            pool_blocks=24,
            trace_blocks=8,
        ),
    )
}
