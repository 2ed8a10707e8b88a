"""Chain enumeration and derived transmission functions.

A chain is a simple input-to-output path through a system.  Both public
functions read one private walk, :func:`_walk`, an iterative depth-first
walk that explores neighbors in edge-declaration order, which makes the
derived transmission function list its terms in the same order the
system's author wrote the edges — handy for stable output and for
matching hand-written sum-of-products forms.

The walk is the one reader of the walk table in the system's cached
plan (vertex ids in ``vertices`` order, neighbors in edge-declaration
order), and it reads the terminals' ids from the same plan.  It keeps
the on-path vertex names and the edge atoms crossed so far in two lists
that grow and shrink with its stack, and hands out each chain as those
live lists plus the atom of the edge into the output, so no caller
looks an edge up again.  :func:`enumerate_chains` copies both into a
(chain, atoms) pair; :func:`derive_ftf` reads the atoms alone and
builds no vertex tuple.  This is backtracking path listing as in Read
& Tarjan 1975, "Bounds on backtrack algorithms for listing cycles,
paths, and spanning trees".

Only simple paths matter: repeating a vertex can only extend the min
over a walk's edges, never raise it, so every walk is dominated by the
simple path it shortcuts to.
"""

from __future__ import annotations

from typing import Iterator

from .algebra import Atom, FtfExpr, Term
from .systems import FuzzySystem

__all__ = [
    "Chain",
    "enumerate_chains",
    "derive_ftf",
]

Chain = tuple[str, ...]


def _walk(system: FuzzySystem) -> Iterator[tuple[list[str], list[Atom], Atom]]:
    """Every simple input->output path, as ``(path, atoms, atom)``.

    ``path`` holds the chain's vertex names up to, not including, the
    output, ``atoms`` the atoms of the edges between them, and ``atom``
    is the atom of the edge into the output.  ``path`` and ``atoms`` are
    the walk's own lists: they change as soon as the walk resumes, so a
    caller copies what it keeps.  Neighbors are tried in edge-declaration
    order; on-path vertices are marked in a list indexed by vertex id.
    The output is never on the path, so an on-path neighbor is skipped
    before the goal test.  The walk keeps its own stack, so a path may
    be as long as the system allows, whatever the recursion limit.
    """
    plan = system._plan
    table, start, goal = plan.table, plan.start, plan.goal
    names = system.vertices
    path = [names[start]]
    atoms: list[Atom] = []
    ids: list[int] = []  # with atoms, one entry per frame above the input's
    on_path = [False] * len(names)
    on_path[start] = True
    pending = [iter(table[start])]
    push_name, pop_name = path.append, path.pop
    push_atom, pop_atom = atoms.append, atoms.pop
    push_id, pop_id = ids.append, ids.pop
    push_pending, pop_pending = pending.append, pending.pop
    while True:
        for neighbor, atom in pending[-1]:
            if on_path[neighbor]:
                continue
            if neighbor == goal:
                yield path, atoms, atom
                continue
            on_path[neighbor] = True
            push_name(names[neighbor])
            push_atom(atom)
            push_id(neighbor)
            push_pending(iter(table[neighbor]))
            break
        else:
            pop_pending()
            if not pending:
                return
            on_path[pop_id()] = False
            pop_name()
            pop_atom()


def enumerate_chains(system: FuzzySystem) -> list[tuple[Chain, tuple[Atom, ...]]]:
    """All simple input->output paths, in deterministic traversal order.

    Each entry is a chain's vertices and its edge atoms in path order.
    Neighbors are tried in edge-declaration order, so the chains and
    their order do not depend on the vertex order.
    """
    goal = system.output_terminal
    return [((*path, goal), (*atoms, atom)) for path, atoms, atom in _walk(system)]


def derive_ftf(system: FuzzySystem) -> FtfExpr:
    """The transmission function: one raw term per chain, in chain order.

    The result is kept raw (chain order, path-ordered atoms) so that
    displays can reproduce the authored form; canonicalize it for
    comparisons.
    """
    return FtfExpr(tuple([Term((*atoms, atom)) for _path, atoms, atom in _walk(system)]))
