"""A fingerprint of every route's output on a fixed set of seeded cases.

The digest is a SHA-256 over the ``repr`` of what each numeric and
symbolic route returns, or of the class and message of the error it
raises, on random registries with signed-zero and missing bindings and
on the built-in fixtures, then on random registries in which about a
third of the variables have multi-character names, so starred terms
reach the paper texts of ``trace`` and ``ftf``.  The whole closed
connection matrix is one of those outputs, so every cell of
``warshall_closure`` is pinned, the diagonal included, not only the
terminal cell.  A ``-0.0`` binding answers ``0.0`` on every route, so no
output holds a ``-0.0``.  The chain walk itself (``enumerate_chains``
and ``derive_ftf``, and its text in every format mode) is hashed on
every system of those cases and on k x k grids for k = 2..5, so the
order of chains is pinned directly.  ``canonicalize`` is hashed on
each system's expansion, with and without absorption.
A change to any evaluator kernel that keeps every output
``repr``-identical keeps the digest; one that moves a single value,
sign of zero or error message changes it.
"""

from __future__ import annotations

import hashlib

from conftest import grid_system, lengthen_some_names

from fuzzchain.algebra import canonicalize, format_expr
from fuzzchain.chains import derive_ftf, enumerate_chains
from fuzzchain.checks import random_assignment, random_registry
from fuzzchain.closure import resolve_matrix, transmission, warshall_closure
from fuzzchain.recursion import (
    eval_system,
    expansion_tree,
    render_expansion,
    resolve_call,
    symbolic_expand,
    trace_eval,
)
from fuzzchain.rng import SplitMix64
from fuzzchain.systems import FIXTURE_ASSIGNMENT, builtin_fixtures

SEED = 20240611
RANDOM_CASES = 300
RENAMED_SEED = 20240612
RENAMED_CASES = 50
GRID_SIZES = range(2, 6)
DIGEST = "6a3926da577862bba244113b53da40d3d17d8e42558f0b301dcd69567f16da36"


def _cases():
    rng = SplitMix64(SEED)
    for _ in range(RANDOM_CASES):
        registry = random_registry(
            rng, n_systems=rng.randint(1, 3), max_vertices=6, max_count=4
        )
        assignment = random_assignment(rng)
        for var in assignment:
            if rng.chance(1, 4):
                assignment[var] = rng.choice((0.0, -0.0))
        if rng.chance(1, 8):
            del assignment[rng.choice(sorted(assignment))]
        yield registry, assignment
    for rec_count in range(9):
        yield builtin_fixtures(rec_count=rec_count), dict(FIXTURE_ASSIGNMENT)
    rng = SplitMix64(RENAMED_SEED)
    for _ in range(RENAMED_CASES):
        registry = random_registry(
            rng, n_systems=rng.randint(1, 3), max_vertices=6, max_count=4
        )
        yield lengthen_some_names(rng, registry, random_assignment(rng))


def _walk_routes(system):
    yield enumerate_chains, system
    yield derive_ftf, system
    for mode in ("raw", "canonical", "paper"):
        yield _ftf_text, system, mode


def _ftf_text(system, mode):
    return format_expr(derive_ftf(system), mode)


def _canonical_expansion(registry, name, simplify):
    return canonicalize(symbolic_expand(registry, name, 2), simplify)


def _routes(registry, name, assignment):
    yield from _walk_routes(registry[name])
    yield eval_system, registry, name, assignment
    for budget in range(8):
        yield resolve_call, registry, name, budget, assignment
    yield transmission, registry, name, assignment
    yield lambda *args: warshall_closure(resolve_matrix(*args)[1]), registry, name, assignment
    yield lambda *args: trace_eval(*args).lines(), registry, name, assignment
    yield lambda *args: render_expansion(expansion_tree(*args)), registry, name
    yield symbolic_expand, registry, name, 2
    for simplify in (False, True):
        yield _canonical_expansion, registry, name, simplify


def _all_routes():
    for registry, assignment in _cases():
        for name in registry.names():
            yield from _routes(registry, name, assignment)
    for k in GRID_SIZES:
        yield from _walk_routes(grid_system(k))


def route_digest() -> str:
    digest = hashlib.sha256()
    for route, *args in _all_routes():
        try:
            out = route(*args)
        except Exception as exc:  # noqa: BLE001 - errors are part of the output
            out = (type(exc).__name__, str(exc))
        digest.update(repr(out).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_every_route_gives_the_pinned_outputs():
    assert route_digest() == DIGEST
