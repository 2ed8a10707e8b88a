from __future__ import annotations

import pytest

from conftest import grid_system, invoke_cli

from fuzzchain import algebra, chains
from fuzzchain.algebra import Term, Var, canonicalize, format_expr, parse_expr
from fuzzchain.chains import derive_ftf, enumerate_chains
from fuzzchain.checks import random_registry
from fuzzchain.recursion import eval_system
from fuzzchain.rng import SplitMix64
from fuzzchain.systems import (
    EdgeDef,
    FuzzySystem,
    SystemRegistry,
    builtin_fixtures,
    format_registry,
)

# Simple corner-to-corner paths in a k x k grid graph (OEIS A007764).
GRID_CHAIN_COUNTS = {2: 2, 3: 12, 4: 184, 5: 8512}

# Sum-of-products transmission functions worked out by hand for the five
# built-in diamonds (terminals A/B, inner vertices C/D), as a (display,
# parseable) pair per system.  The display form juxtaposes single-letter
# factors; the order pins enumeration: 2-edge chain through D, 3-edge
# chain through D then C, 2-edge chain through C, 3-edge through C then D.
HAND_DERIVED = {
    "psi1": ("xz + x*xbar*w + yw + y*xbar*z", "x*z + x*xbar*w + y*w + y*xbar*z"),
    "psi2": ("xbar*z + xbar*x*w + yw + yxz", "xbar*z + xbar*x*w + y*w + y*x*z"),
    "psi3": ("xbar*z + xbar*w*x + yx + ywz", "xbar*z + xbar*w*x + y*x + y*w*z"),
    "psi4": ("xbar*w + xbar*y*z + xz + xyw", "xbar*w + xbar*y*z + x*z + x*y*w"),
    "psi5": ("xbar*y + xbar*w*z + xz + xwy", "xbar*y + xbar*w*z + x*z + x*w*y"),
}

PHI_DERIVED = "psi2^1*psi4^1 + psi2^1*psi1^1*psi5^1 + psi3^1*psi1^1*psi4^1 + psi3^1*psi5^1"


def test_enumerate_chains_orders(registry):
    def ids(name):
        return ["-".join(chain) for chain, _atoms in enumerate_chains(registry[name])]

    assert ids("psi1") == ["A-D-B", "A-D-C-B", "A-C-B", "A-C-D-B"]
    assert ids("phi") == ["A-C-B", "A-C-D-B", "A-D-C-B", "A-D-B"]
    assert ids("psi1_rec") == ids("psi1")


def test_chain_atoms_in_path_order(registry):
    chains = dict(enumerate_chains(registry["psi1"]))
    assert [str(a) for a in chains[("A", "D", "C", "B")]] == ["x", "xbar", "w"]


def _line(n):
    edges = [(f"V{i}", f"V{i + 1}", Var("x")) for i in range(n)]
    return FuzzySystem.build("line", "V0", f"V{n}", edges)


def test_long_path_walks_without_recursion():
    # 3 000 edges is far past the interpreter's default recursion limit.
    n = 3000
    line = _line(n)
    ((chain, atoms),) = enumerate_chains(line)
    assert len(chain) == n + 1 and atoms == (Var("x"),) * n
    assert derive_ftf(line).terms == (Term(atoms),)
    registry = SystemRegistry()
    registry.add(line)
    assert eval_system(registry, "line", {"x": 0.5}) == 0.5


@pytest.mark.parametrize("name, expected", sorted(HAND_DERIVED.items()))
def test_derive_ftf_diamonds(registry, name, expected):
    display, raw = expected
    derived = derive_ftf(registry[name])
    assert format_expr(derived, "paper") == display
    assert format_expr(derived, "raw") == raw
    # same term set after canonicalization, whatever the authored order
    assert canonicalize(derived) == canonicalize(parse_expr(raw))


def test_derive_ftf_composite(registry):
    derived = derive_ftf(registry["phi"])
    assert format_expr(derived, "raw") == PHI_DERIVED
    assert canonicalize(derived) == canonicalize(parse_expr(PHI_DERIVED))


@pytest.mark.parametrize("k, count", sorted(GRID_CHAIN_COUNTS.items()))
def test_grid_chains_are_the_simple_corner_paths(k, count):
    system = grid_system(k)
    chains = enumerate_chains(system)
    assert len(chains) == count
    edge_atoms = {edge.pair(): edge.atom for edge in system.edges}
    for chain, atoms in chains:
        assert chain[0] == system.input_terminal
        assert chain[-1] == system.output_terminal
        assert len(set(chain)) == len(chain)
        assert atoms == tuple(
            edge_atoms[frozenset(step)] for step in zip(chain, chain[1:])
        )
    assert len({chain for chain, _atoms in chains}) == count


@pytest.mark.parametrize("name", ["grid4", "psi1", "phi"])
def test_isolated_vertices_and_edge_orientation_leave_the_chains(registry, name):
    system = grid_system(4) if name == "grid4" else registry[name]
    vertices = system.vertices
    # an edgeless vertex shifts every later vertex id, and reversing the
    # vertex order and one edge's orientation changes no neighbor list
    edges = list(system.edges)
    edges[1] = EdgeDef(edges[1].v, edges[1].u, edges[1].atom)
    variants = [
        FuzzySystem(system.name, system.input_terminal, system.output_terminal,
                    (vertices[0], "Lonely", *vertices[1:]), system.edges),
        FuzzySystem(system.name, system.input_terminal, system.output_terminal,
                    vertices[::-1], tuple(edges)),
    ]
    want = enumerate_chains(system)
    for variant in variants:
        assert enumerate_chains(variant) == want


def _walk_cases():
    yield from builtin_fixtures()
    for k in sorted(GRID_CHAIN_COUNTS):
        yield grid_system(k)
    yield _line(3000)
    for seed in range(12):
        rng = SplitMix64(seed)
        yield from random_registry(rng, n_systems=3, max_vertices=6 + seed % 3, max_edges=12)


def test_derive_ftf_reads_the_walk_enumerate_chains_reads():
    for system in _walk_cases():
        want = tuple(Term(atoms) for _chain, atoms in enumerate_chains(system))
        assert derive_ftf(system).terms == want, system.name


def test_derive_ftf_lists_no_chains(monkeypatch):
    systems = [grid_system(5), *builtin_fixtures()]
    want = [derive_ftf(system) for system in systems]

    def unavailable(system):
        raise AssertionError("derive_ftf listed the chains")

    monkeypatch.setattr("fuzzchain.chains.enumerate_chains", unavailable)
    monkeypatch.setattr("fuzzchain.recursion.enumerate_chains", unavailable)
    assert [derive_ftf(system) for system in systems] == want


def test_derive_ftf_refuses_past_the_cap_one_chain_after_it(monkeypatch, tmp_path):
    # the 6x6 grid's 1 262 816 chains pass the real cap; a cap below the
    # 4x4 grid's 184 shows the same refusal in a few milliseconds
    grid = grid_system(4)
    walked = []
    real = chains._walk

    def counting(system):
        for found in real(system):
            walked.append(1)
            yield found

    monkeypatch.setattr(chains, "_walk", counting)
    monkeypatch.setattr(algebra, "MAX_EXPANSION", 184)
    assert len(derive_ftf(grid).terms) == 184  # at the cap is allowed
    monkeypatch.setattr(algebra, "MAX_EXPANSION", 183)
    walked.clear()
    with pytest.raises(ValueError, match="^expansion too large: over the cap of 183 chains$"):
        derive_ftf(grid)
    assert len(walked) == 184  # one chain past the cap, and one walk
    registry = SystemRegistry()
    registry.add(grid)
    path = tmp_path / "grid.fz"
    path.write_text(format_registry(registry), encoding="utf-8")
    refusal = "error: expansion too large: over the cap of 183 chains\n"
    assert invoke_cli("ftf", "--fixtures", str(path), "--system", "grid") == (3, "", refusal)
