from __future__ import annotations

import pytest

from collections import Counter

from fuzzchain import oracles
from fuzzchain.algebra import Call, Var, assignment_valuation, canonicalize, eval_expr, parse_expr
from fuzzchain.chains import derive_ftf, enumerate_chains
from fuzzchain.checks import random_assignment, random_registry
from fuzzchain.errors import BindingError
from fuzzchain.oracles import (
    MAX_POWER_K,
    MAX_VERTICES,
    oracle_cut_eval,
    oracle_path_enum,
    oracle_power_eval,
    oracle_symbolic_closure,
    oracle_unroll_eval,
)
from fuzzchain.recursion import eval_system, resolve_call
from fuzzchain.rng import SplitMix64
from fuzzchain.systems import FuzzySystem, SystemRegistry, builtin_fixtures, parse_registry


def test_path_enum_hand_cases():
    vertices = ("A", "B", "C")
    edges = {("A", "C"): 0.9, ("C", "A"): 0.9, ("C", "B"): 0.5, ("B", "C"): 0.5,
             ("A", "B"): 0.2, ("B", "A"): 0.2}
    assert oracle_path_enum(vertices, edges, "A", "B") == 0.5
    assert oracle_path_enum(vertices, edges, "A", "A") == 1.0
    assert oracle_path_enum(vertices, {("A", "B"): 0.42, ("B", "A"): 0.42}, "A", "B") == 0.42
    assert oracle_path_enum(vertices, {}, "A", "B") == 0.0


def test_path_enum_respects_allowed_intermediates():
    vertices = ("A", "B", "C")
    edges = {("A", "C"): 0.9, ("C", "B"): 0.5, ("A", "B"): 0.2}
    assert oracle_path_enum(vertices, edges, "A", "B", allowed_intermediates=set()) == 0.2
    assert oracle_path_enum(vertices, edges, "A", "B", allowed_intermediates={"C"}) == 0.5


def test_path_enum_vertex_cap():
    vertices = tuple(f"v{i}" for i in range(MAX_VERTICES + 1))
    with pytest.raises(ValueError, match="capped"):
        oracle_path_enum(vertices, {}, "v0", "v1")


def test_unroll_eval_fixture_values(registry, fixture_assignment, deep_assignment):
    assert oracle_unroll_eval(registry, "psi1", fixture_assignment) == 0.6
    assert oracle_unroll_eval(registry, "phi", fixture_assignment) == 0.5
    assert oracle_unroll_eval(registry, "psi1_rec", fixture_assignment) == 0.6
    assert oracle_unroll_eval(registry, "psi1_rec", deep_assignment) == 0.2
    # budget 0 kills every call edge outright
    assert oracle_unroll_eval(registry, "psi1_rec", deep_assignment, budget=0) == 0.2
    assert oracle_unroll_eval(registry, "phi", fixture_assignment, budget=0) == 0.0


def test_unroll_eval_dead_calls_drop_chains(fixture_assignment):
    registry = parse_registry(
        """
        system base {
          terminals A -> B
          edge A B x
        }
        system outer {
          terminals A -> B
          edge A B call base 0
        }
        """
    )
    assert oracle_unroll_eval(registry, "outer", fixture_assignment) == 0.0


def test_unroll_eval_missing_binding(registry):
    with pytest.raises(BindingError, match="missing binding"):
        oracle_unroll_eval(registry, "psi1", {"x": 0.5})


def test_unroll_eval_vertex_cap():
    n = MAX_VERTICES + 1
    vertices = [f"v{i}" for i in range(n)]
    edges = [(vertices[i], vertices[i + 1], Var("x")) for i in range(n - 1)]
    registry = SystemRegistry()
    registry.add(FuzzySystem.build("big", vertices[0], vertices[-1], edges))
    with pytest.raises(ValueError, match="capped"):
        oracle_unroll_eval(registry, "big", {"x": 0.5})


def test_oracle_adjacency_follows_edge_declaration_order(registry):
    adjacency = oracles._adjacency(registry["psi1"])
    assert adjacency["A"] == [("D", Var("x")), ("C", Var("y"))]
    assert adjacency["C"] == [("B", Var("w")), ("A", Var("y")), ("D", Var("xbar"))]
    lonely = FuzzySystem("s", "A", "B", ("A", "B", "C"), ())
    assert oracles._adjacency(lonely) == {"A": [], "B": [], "C": []}


def test_unroll_eval_lists_each_system_once_per_call(monkeypatch, registry, fixture_assignment):
    built = Counter()
    adjacency = oracles._adjacency

    def counting(system):
        built[system.name] += 1
        return adjacency(system)

    monkeypatch.setattr(oracles, "_adjacency", counting)
    for name, budget in (("phi", None), ("psi1_rec", None), ("psi1_rec", 3), ("psi1", 0)):
        built.clear()
        oracle_unroll_eval(registry, name, fixture_assignment, budget)
        assert built and set(built.values()) == {1}, (name, budget)
    built.clear()
    oracle_unroll_eval(registry, "phi", fixture_assignment)
    assert sorted(built) == ["phi", "psi1", "psi2", "psi3", "psi4", "psi5"]


def test_walk_and_unroll_oracle_read_separate_adjacency(monkeypatch, registry, fixture_assignment):
    want = (
        enumerate_chains(registry["psi1"]),
        derive_ftf(registry["phi"]),
        eval_system(registry, "phi", fixture_assignment),
        oracle_unroll_eval(registry, "phi", fixture_assignment),
    )

    def unavailable(*args):
        raise AssertionError("adjacency read by the wrong route")

    with monkeypatch.context() as patch:
        patch.setattr(oracles, "_adjacency", unavailable)
        fresh = builtin_fixtures()
        assert enumerate_chains(fresh["psi1"]) == want[0]
        assert derive_ftf(fresh["phi"]) == want[1]
        assert eval_system(fresh, "phi", fixture_assignment) == want[2]
    with monkeypatch.context() as patch:
        # the oracle reads the record fields alone, not the cached plan
        patch.setattr(FuzzySystem, "_plan", property(unavailable))
        fresh = builtin_fixtures()
        assert oracle_unroll_eval(fresh, "phi", fixture_assignment) == want[3]


def test_cut_eval_fixture_values(registry, fixture_assignment, deep_assignment):
    for name in registry.names():
        for assignment in (fixture_assignment, dict(deep_assignment, xbar=0.5)):
            for budget in (None, 0, 1, 2, 3):
                want = oracle_unroll_eval(registry, name, assignment, budget)
                assert repr(oracle_cut_eval(registry, name, assignment, budget)) == repr(want)
    assert oracle_cut_eval(registry, "psi1_rec", deep_assignment) == 0.2
    assert oracle_cut_eval(registry, "phi", fixture_assignment, budget=0) == 0.0


def test_cut_eval_drops_dead_calls_and_answers_an_unsigned_zero():
    registry = parse_registry(
        """
        system base {
          terminals A -> B
          edge A B x
        }
        system outer {
          terminals A -> B
          edge A C call base 0
          edge C B call base 1
          edge A B y
        }
        """
    )
    assert oracle_cut_eval(registry, "outer", {"x": 0.9, "y": 0.4}) == 0.4
    assert oracle_cut_eval(registry, "outer", {"x": 0.9, "y": 0.4}, budget=1) == 0.4
    assert repr(oracle_cut_eval(registry, "outer", {"x": 0.9, "y": -0.0})) == "0.0"
    assert repr(oracle_cut_eval(registry, "base", {"x": 1})) == "1.0"
    with pytest.raises(BindingError, match="missing binding for variable 'x'"):
        oracle_cut_eval(registry, "outer", {"y": 0.4})


def test_cut_eval_agrees_with_the_evaluator_at_every_budget():
    rng = SplitMix64(314)
    values = set()
    for _ in range(200):
        registry = random_registry(
            rng, n_systems=rng.randint(1, 3), max_vertices=6, max_count=4, call_chance=(1, 2)
        )
        assignment = random_assignment(rng)
        for var in assignment:
            if rng.chance(1, 5):
                assignment[var] = 0.0 if rng.chance(1, 2) else -0.0
        for name in registry.names():
            for budget in (None, 0, 1, 2, 3, 5):
                want = resolve_call(registry, name, budget, assignment)
                got = oracle_cut_eval(registry, name, assignment, budget)
                assert repr(got) == repr(want), (name, budget)
                values.add(repr(got))
    assert "0.0" in values and len(values) > 10


def _minimal_chain_sets(system: FuzzySystem) -> set[frozenset]:
    return {frozenset(t.atoms) for t in canonicalize(derive_ftf(system), simplify=True).terms}


def test_symbolic_closure_hand_cases_and_fixtures():
    x, y = Var("x"), Var("y")
    triangle = FuzzySystem.build("t", "A", "B", [("A", "C", x), ("C", "B", y), ("A", "B", x)])
    assert oracle_symbolic_closure(triangle) == {frozenset({x})}  # {x, y} holds {x}
    apart = FuzzySystem.build("t", "A", "B", [("A", "C", x), ("D", "B", Call("t", 2))])
    assert oracle_symbolic_closure(apart) == set()
    for count in (0, 3):
        for system in builtin_fixtures(rec_count=count):
            assert oracle_symbolic_closure(system) == _minimal_chain_sets(system), system.name


def test_symbolic_closure_vertex_cap():
    vertices = [f"v{i}" for i in range(MAX_VERTICES + 1)]
    edges = [(u, v, Var("x")) for u, v in zip(vertices, vertices[1:])]
    with pytest.raises(ValueError, match="capped"):
        oracle_symbolic_closure(FuzzySystem.build("big", vertices[0], vertices[-1], edges))


@pytest.mark.parametrize("seed", [42, 1, 7])
def test_symbolic_closure_equals_the_simplified_ftf(seed):
    """The antichain closure walks no chain, so it checks ``derive_ftf``'s
    minimal chains on 340 random systems per seed, calls as opaque atoms."""
    rng = SplitMix64(seed)
    systems = calls = absorbed = 0
    for _ in range(170):
        registry = random_registry(rng, n_systems=2, max_vertices=8, max_edges=14)
        for system in registry:
            want = _minimal_chain_sets(system)
            assert oracle_symbolic_closure(system) == want, (seed, system)
            systems += 1
            calls += any(isinstance(a, Call) for atoms in want for a in atoms)
            absorbed += len(want) < len(derive_ftf(system).terms)
    assert systems == 340 and calls > 100 and absorbed > 40


def test_power_eval_equals_plain_evaluation():
    expr = parse_expr("a*b + c")
    assignment = {"a": 0.5, "b": 0.9, "c": 0.3}
    base = eval_expr(expr, assignment_valuation(assignment))
    assert base == 0.5
    for k in (1, 2, 3):
        assert oracle_power_eval(expr, k, assignment) == base


def test_power_eval_caps_and_requirements():
    expr = parse_expr("a + b")
    with pytest.raises(ValueError, match="capped at k"):
        oracle_power_eval(expr, MAX_POWER_K + 1, {"a": 0.1, "b": 0.2})
    wide = parse_expr("a + b + c + d + e")
    with pytest.raises(ValueError, match="terms"):
        oracle_power_eval(wide, 2, {})
    with pytest.raises(ValueError, match="call-free"):
        oracle_power_eval(parse_expr("t^1"), 2, {})
    with pytest.raises(BindingError, match="missing binding"):
        oracle_power_eval(parse_expr("a"), 2, {})
