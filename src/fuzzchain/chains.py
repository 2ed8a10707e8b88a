"""Chain enumeration and derived transmission functions.

A chain is a simple input-to-output path through a system.  Enumeration
is one iterative depth-first walk that explores neighbors in
edge-declaration order, which makes the derived transmission function
list its terms in the same order the system's author wrote the edges —
handy for stable output and for matching hand-written sum-of-products
forms.  The walk hands out each chain together with the edge atoms it
crossed, in path order, so no caller looks an edge up again.

The walk reads the system's cached integer table (vertex ids in
``vertices`` order, neighbors in edge-declaration order), not
:meth:`FuzzySystem.neighbors`, which stays the call-unrolling oracle's
own view of the edges.  This is backtracking path listing as in Read &
Tarjan 1975, "Bounds on backtrack algorithms for listing cycles, paths,
and spanning trees".

Only simple paths matter: repeating a vertex can only extend the min
over a walk's edges, never raise it, so every walk is dominated by the
simple path it shortcuts to.
"""

from __future__ import annotations

from .algebra import Atom, FtfExpr, Term
from .systems import FuzzySystem

__all__ = [
    "Chain",
    "enumerate_chains",
    "derive_ftf",
]

Chain = tuple[str, ...]


def enumerate_chains(system: FuzzySystem) -> list[tuple[Chain, tuple[Atom, ...]]]:
    """All simple input->output paths, in deterministic traversal order.

    Each entry is a chain's vertices and its edge atoms in path order.
    Neighbors are tried in edge-declaration order, so the chains and
    their order do not depend on the vertex order.  The walk runs on the
    system's cached integer table, marking on-path vertices in a list
    indexed by vertex id, and keeps its own stack, so a path may be as
    long as the system allows, whatever the interpreter's recursion
    limit.
    """
    table, start, goal_id = system._walk_table
    names = system.vertices
    goal = names[goal_id]
    chains: list[tuple[Chain, tuple[Atom, ...]]] = []
    path = [names[start]]
    atoms: list[Atom] = []
    ids: list[int] = []  # with atoms, one entry per frame above the input's
    on_path = [False] * len(names)
    on_path[start] = True
    pending = [iter(table[start])]
    add_chain = chains.append
    push_name, pop_name = path.append, path.pop
    push_atom, pop_atom = atoms.append, atoms.pop
    push_id, pop_id = ids.append, ids.pop
    push_pending, pop_pending = pending.append, pending.pop
    while True:
        for neighbor, atom in pending[-1]:
            if neighbor == goal_id:
                add_chain(((*path, goal), (*atoms, atom)))
            elif not on_path[neighbor]:
                on_path[neighbor] = True
                push_name(names[neighbor])
                push_atom(atom)
                push_id(neighbor)
                push_pending(iter(table[neighbor]))
                break
        else:
            pop_pending()
            if not pending:
                break
            on_path[pop_id()] = False
            pop_name()
            pop_atom()
    return chains


def derive_ftf(system: FuzzySystem) -> FtfExpr:
    """The transmission function: one raw term per chain, in chain order.

    The result is kept raw (chain order, path-ordered atoms) so that
    displays can reproduce the authored form; canonicalize it for
    comparisons.
    """
    return FtfExpr(tuple(Term(atoms) for _chain, atoms in enumerate_chains(system)))
