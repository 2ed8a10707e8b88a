"""Seeded differential check suites.

Each suite generates random instances from a :class:`SplitMix64` stream
and cross-examines a production engine against a brute-force reference
from :mod:`fuzzchain.oracles` (or against an algebraic law that must
hold exactly).  Max-min never invents values, so nothing is rounded,
and route answers are compared by ``repr``, sign of zero included.

The same functions back the ``fuzzchain check`` command and the heavier
regression tests; both just pick a seed and a trial count.
"""

from __future__ import annotations

import string
from typing import Callable, Sequence

from .algebra import (
    Call,
    FtfExpr,
    Term,
    Var,
    _Record,
    _set,
    eval_expr,
    expr_power,
    format_expr,
    multinomial_expand,
)
from .chains import derive_ftf
from .closure import Matrix, resolve_matrix, terminal_cell, transmission, warshall_closure
from .errors import FuzzchainError
from .oracles import (
    matrix_power,
    oracle_cut_eval,
    oracle_path_enum,
    oracle_power_eval,
    oracle_unroll_eval,
    warshall_steps,
)
from .recursion import (
    eval_system,
    paper_expansion,
    resolve_call,
    stabilization_budget,
    symbolic_expand,
    trace_eval,
)
from .rng import SplitMix64
from .systems import FuzzySystem, SystemRegistry

__all__ = [
    "CheckResult",
    "run_all",
    "SUITES",
    "random_matrix",
    "random_callfree_system",
    "random_registry",
    "random_assignment",
]

_VAR_POOL = tuple(string.ascii_lowercase[:12])


class CheckResult(_Record):
    __slots__ = _fields = ("name", "trials", "failures", "detail")

    def __init__(self, name: str, trials: int, failures: int, detail: str = "") -> None:
        _set(self, "name", name)
        _set(self, "trials", trials)
        _set(self, "failures", failures)
        _set(self, "detail", detail)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def summary(self) -> str:
        if self.passed:
            return f"ok   {self.name} ({self.trials} trials)"
        return f"FAIL {self.name} ({self.failures}/{self.trials} failed): {self.detail}"


# --------------------------------------------------------------------------
# Random instance generators


def _shuffled(rng: SplitMix64, items: Sequence) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def random_matrix(
    rng: SplitMix64, n: int, reflexive: bool = False, symmetric: bool = False
) -> Matrix:
    grid = [[rng.grade() for _ in range(n)] for _ in range(n)]
    if symmetric:
        for i in range(n):
            for j in range(i):
                grid[i][j] = grid[j][i]
    if reflexive:
        for i in range(n):
            grid[i][i] = 1.0
    return grid


def random_callfree_system(
    rng: SplitMix64, name: str = "s", max_vertices: int = 7, max_edges: int = 12
) -> FuzzySystem:
    """Random simple graph with variable-labelled edges and a spine path
    guaranteeing the terminals can reach each other."""
    n = rng.randint(2, max_vertices)
    vertices = list(string.ascii_uppercase[:n])
    inp, out = vertices[0], vertices[1]
    middles = _shuffled(rng, vertices[2:])[: rng.below(n - 1)]
    spine = [inp, *middles, out]

    edges: list[tuple[str, str, object]] = []
    used: set[frozenset] = set()

    def add(u: str, v: str) -> None:
        pair = frozenset((u, v))
        if u == v or pair in used:
            return
        used.add(pair)
        edges.append((u, v, Var(rng.choice(_VAR_POOL))))

    for a, b in zip(spine, spine[1:]):
        add(a, b)
    budget = rng.randint(0, max_edges - len(edges))
    for _ in range(budget):
        add(rng.choice(vertices), rng.choice(vertices))
    return FuzzySystem.build(name, inp, out, edges)


def random_registry(
    rng: SplitMix64,
    n_systems: int = 2,
    self_only: bool = False,
    allow_self: bool = True,
    max_vertices: int = 5,
    max_edges: int = 9,
    max_count: int = 3,
    call_chance: tuple[int, int] = (1, 3),
) -> SystemRegistry:
    """Registry whose later systems may call earlier ones (or themselves).

    ``self_only=True`` builds a single system whose call edges all
    target itself — the shape whose value provably ignores the budget.
    ``allow_self=False`` keeps the call graph strictly layered, which
    keeps the naive unroll oracle cheap on larger instances.
    """
    registry = SystemRegistry()
    names = [f"sys{i}" for i in range(1 if self_only else n_systems)]
    for i, name in enumerate(names):
        base = random_callfree_system(
            rng, name, max_vertices=max_vertices, max_edges=max_edges
        )
        if self_only:
            targets = [name]
        else:
            targets = names[: i + 1] if allow_self else names[:i]
        edges = []
        for e in base.edges:
            if targets and rng.chance(*call_chance):
                target = rng.choice(targets)
                edges.append((e.u, e.v, Call(target, rng.randint(0, max_count))))
            else:
                edges.append((e.u, e.v, e.atom))
        registry.add(
            FuzzySystem.build(name, base.input_terminal, base.output_terminal, edges)
        )
    return registry


def random_assignment(rng: SplitMix64, names: Sequence[str] = _VAR_POOL) -> dict[str, float]:
    return {name: rng.grade() for name in names}


# --------------------------------------------------------------------------
# Suites


def _run(
    name: str, trials: int, one_trial: Callable[[SplitMix64, int], str | None], seed: int
) -> CheckResult:
    rng = SplitMix64(seed)
    failures = 0
    detail = ""
    for i in range(trials):
        problem = one_trial(rng, i)
        if problem is not None:
            failures += 1
            if not detail:
                detail = f"trial {i}: {problem}"
    return CheckResult(name, trials, failures, detail)


def _outcome(route: Callable[..., float], *args) -> float | tuple[str, str]:
    """A route's value, or the class and message of the domain error it raised."""
    try:
        return route(*args)
    except FuzzchainError as exc:
        return type(exc).__name__, str(exc)


def _closed_cell(registry: SystemRegistry, name: str, assignment: dict[str, float]) -> float:
    """The ``closure`` command's answer: the terminal cell of the closed
    resolved matrix."""
    _vertices, grid = resolve_matrix(registry, name, assignment)
    return terminal_cell(registry[name], warshall_closure(grid))


def check_eval_closure(seed: int, trials: int) -> CheckResult:
    """Chain DFS, the connection-matrix routes, the call-unrolling oracle
    (:func:`oracle_unroll_eval`) and the α-cut oracle
    (:func:`oracle_cut_eval`) must agree, with and without call edges in
    the graph.  The matrix routes are :func:`transmission` (the
    grade of the Kruskal merge that joins the two terminals, over the
    resolved edges, with no n×n grid) and the ``closure`` command's
    terminal cell of the closed matrix (:func:`_closed_cell`).  A third of
    the trials leave one variable unbound: then chains and matrices must
    either all raise the same error or all give the value."""

    def one(rng: SplitMix64, _: int) -> str | None:
        registry = random_registry(
            rng,
            n_systems=2,
            allow_self=False,
            max_vertices=7,
            max_edges=12,
            call_chance=(1, 3),
        )
        assignment = random_assignment(rng)
        if rng.chance(1, 3):
            del assignment[rng.choice(_VAR_POOL)]
        for name in registry.names():
            system = registry[name]
            via_chains = _outcome(eval_system, registry, name, assignment)
            via_closure = _outcome(transmission, registry, name, assignment)
            via_cell = _outcome(_closed_cell, registry, name, assignment)
            if any(isinstance(got, tuple) for got in (via_chains, via_closure, via_cell)):
                if not repr(via_chains) == repr(via_closure) == repr(via_cell):
                    return (
                        f"{name}: chains={via_chains!r} closure={via_closure!r} "
                        f"cell={via_cell!r}"
                    )
                continue
            via_oracle = oracle_unroll_eval(registry, name, assignment)
            via_cut = oracle_cut_eval(registry, name, assignment)
            routes = (via_chains, via_closure, via_cell, via_oracle, via_cut)
            if len({repr(got) for got in routes}) > 1:
                return (
                    f"{name}: chains={via_chains!r} closure={via_closure!r} "
                    f"cell={via_cell!r} oracle={via_oracle!r} cut={via_cut!r}"
                )
            if not system.call_atoms():
                via_ftf = eval_expr(derive_ftf(system), lambda v: assignment[v.name])
                if repr(via_ftf) != repr(via_chains):
                    return f"{name}: ftf={via_ftf!r} chains={via_chains!r}"
        return None

    return _run("eval-closure-agree", trials, one, seed)


def _path_graph(m: Matrix) -> tuple[list[str], dict[tuple[str, str], float]]:
    """The vertices ``"0" .. "n-1"`` of a grade matrix and each
    off-diagonal cell keyed by its pair, as the path oracle reads them."""
    n = len(m)
    vertices = [str(i) for i in range(n)]
    edge_value = {
        (vertices[i], vertices[j]): m[i][j] for i in range(n) for j in range(n) if i != j
    }
    return vertices, edge_value


def check_closure_power(seed: int, trials: int) -> CheckResult:
    """Closure of a symmetric reflexive matrix equals its (n-1)-th
    max-min power, and every entry matches brute-force path search.

    Such a matrix is closed from one Kruskal pass, as every connection
    matrix is, so this is the check on the ``closure``
    command's route; the power is the reference max-min product of
    :mod:`fuzzchain.oracles` and the oracle enumerates paths, so all
    three are independent."""

    def one(rng: SplitMix64, _: int) -> str | None:
        n = rng.randint(2, 8)
        m = random_matrix(rng, n, reflexive=True, symmetric=True)
        closed = warshall_closure(m)
        powered = matrix_power(m, n - 1)
        if closed != powered:
            return f"n={n}: closure != power(n-1)"
        vertices, edge_value = _path_graph(m)
        for i in range(n):
            for j in range(n):
                want = 1.0 if i == j else oracle_path_enum(
                    vertices, edge_value, vertices[i], vertices[j]
                )
                if closed[i][j] != want:
                    return f"n={n} cell ({i},{j}): closure={closed[i][j]!r} oracle={want!r}"
        return None

    return _run("closure-power-agree", trials, one, seed)


def check_power_collapse(seed: int, trials: int) -> CheckResult:
    """Powers of an expression never change its value, and the
    multinomial bookkeeping adds up."""

    def one(rng: SplitMix64, _: int) -> str | None:
        n_terms = rng.randint(1, 4)
        terms = []
        for _ in range(n_terms):
            atoms = tuple(Var(rng.choice(_VAR_POOL)) for _ in range(rng.randint(1, 3)))
            terms.append(Term(atoms))
        expr = FtfExpr(tuple(terms))
        powers = {k: expr_power(expr, k) for k in (2, 3)}
        for _ in range(10):
            assignment = random_assignment(rng)
            base = eval_expr(expr, lambda v: assignment[v.name])
            for k in (2, 3):
                powered = eval_expr(powers[k], lambda v: assignment[v.name])
                if powered != base:
                    return f"k={k}: power={powered!r} base={base!r}"
                via_oracle = oracle_power_eval(expr, k, assignment)
                if via_oracle != base:
                    return f"k={k}: oracle={via_oracle!r} base={base!r}"
        for k in range(1, 5):
            entries = multinomial_expand(expr, k)
            total = sum(entry.coefficient for entry in entries)
            if total != n_terms**k:
                return f"k={k}: coefficient sum {total} != {n_terms}^{k}"
        return None

    return _run("power-collapse", trials, one, seed)


def check_budget_laws(seed: int, trials: int, self_only: bool | None = None) -> CheckResult:
    """Budgeted values match the naive unroll interpreter at every budget
    and at the top level, grow with the budget, stop growing at the
    stabilization point and match the top level there.  Self-only
    systems collapse to their budget-zero value outright.

    ``self_only`` pins the registry shape; the default alternates
    between a self-recursive system and three strictly layered ones,
    whose callees' own calls need a budget of 2 or more.
    """

    def one(rng: SplitMix64, i: int) -> str | None:
        recursive = self_only if self_only is not None else i % 2 == 0
        layered = {} if recursive else dict(n_systems=3, allow_self=False, call_chance=(1, 2))
        registry = random_registry(rng, self_only=recursive, **layered)
        name = registry.names()[-1]
        assignment = random_assignment(rng)
        ceiling = stabilization_budget(registry)
        top_k = max(6, ceiling + 1)
        values = [resolve_call(registry, name, k, assignment) for k in range(top_k + 1)]
        for k, value in enumerate(values):
            naive = oracle_unroll_eval(registry, name, assignment, budget=k)
            if repr(naive) != repr(value):
                return f"{name}: budget {k}: naive={naive!r} layered={value!r}"
        for lo, hi in zip(values, values[1:]):
            if lo > hi:
                return f"{name}: budget sequence not monotone: {values!r}"
        if any(repr(v) != repr(values[ceiling]) for v in values[ceiling:]):
            return f"{name}: still moving past stabilization: {values!r}"
        top = eval_system(registry, name, assignment)
        if repr(top) != repr(values[ceiling]):
            return f"{name}: top={top!r} stabilized={values[ceiling]!r}"
        if recursive and any(repr(v) != repr(values[0]) for v in values):
            return f"{name}: self-only system budget-sensitive: {values!r}"
        naive = oracle_unroll_eval(registry, name, assignment)
        if repr(naive) != repr(top):
            return f"{name}: naive={naive!r} top={top!r}"
        return None

    return _run("budget-laws", trials, one, seed)


def check_expansion(seed: int, trials: int) -> CheckResult:
    """Flattened symbolic expansion and the narrated trace both agree
    with plain evaluation, which in turn agrees with the naive unroll,
    and the ``paper`` text composed with no term built
    (:func:`paper_expansion`) is the flat expansion's."""

    def one(rng: SplitMix64, _: int) -> str | None:
        registry = random_registry(
            rng, n_systems=2, max_vertices=5, max_count=2, call_chance=(1, 4)
        )
        name = registry.names()[-1]
        assignment = random_assignment(rng)
        top = eval_system(registry, name, assignment)
        naive = oracle_unroll_eval(registry, name, assignment)
        if repr(naive) != repr(top):
            return f"{name}: naive={naive!r} top={top!r}"
        flat = symbolic_expand(registry, name)
        via_expand = eval_expr(flat, lambda v: assignment[v.name])
        if repr(via_expand) != repr(top):
            return f"{name}: expand={via_expand!r} top={top!r}"
        composed, formatted = paper_expansion(registry, name), format_expr(flat, "paper")
        if composed != formatted:
            return f"{name}: paper text {composed!r} != formatted {formatted!r}"
        traced = trace_eval(registry, name, assignment)
        if repr(traced.value) != repr(top):
            return f"{name}: trace={traced.value!r} top={top!r}"
        return None

    return _run("expansion-agree", trials, one, seed)


def check_pivot_invariant(seed: int, trials: int) -> CheckResult:
    """After pivot k the working matrix must equal best paths restricted
    to intermediates among the first k+1 vertices."""

    def one(rng: SplitMix64, _: int) -> str | None:
        n = rng.randint(2, 6)
        m = random_matrix(rng, n)
        vertices, edge_value = _path_graph(m)
        for pivot, snapshot in warshall_steps(m):
            allowed = set(vertices[: pivot + 1])
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    want = oracle_path_enum(
                        vertices, edge_value, vertices[i], vertices[j], allowed
                    )
                    if snapshot[i][j] != want:
                        return (
                            f"n={n} pivot={pivot} cell ({i},{j}): "
                            f"have={snapshot[i][j]!r} want={want!r}"
                        )
        return None

    return _run("pivot-invariant", trials, one, seed)


SUITES: dict[str, Callable[[int, int], CheckResult]] = {
    "eval-closure-agree": check_eval_closure,
    "closure-power-agree": check_closure_power,
    "power-collapse": check_power_collapse,
    "budget-laws": check_budget_laws,
    "expansion-agree": check_expansion,
    "pivot-invariant": check_pivot_invariant,
}


def run_all(seed: int, trials: int) -> list[CheckResult]:
    """Run every suite from one seed; heavyweight suites scale down."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    results = []
    for i, (name, suite) in enumerate(SUITES.items()):
        budget = trials
        if name == "pivot-invariant":
            budget = max(1, trials // 10)
        elif name in ("budget-laws", "expansion-agree"):
            budget = max(1, trials // 5)
        results.append(suite(seed + i, budget))
    return results
