"""Chain enumeration and derived transmission functions.

A chain is a simple input-to-output path through a system.  Enumeration
is one iterative depth-first walk that explores neighbors in
edge-declaration order, which makes the derived transmission function
list its terms in the same order the system's author wrote the edges —
handy for stable output and for matching hand-written sum-of-products
forms.  The walk hands out each chain together with the edge atoms it
crossed, in path order, so no caller looks an edge up again.

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
    The walk keeps its own stack, so a path may be as long as the
    system allows, whatever the interpreter's recursion limit.
    """
    chains: list[tuple[Chain, tuple[Atom, ...]]] = []
    goal = system.output_terminal
    path = [system.input_terminal]
    atoms: list[Atom] = []
    on_path = {system.input_terminal}
    pending = [iter(system.neighbors(system.input_terminal))]
    while pending:
        for neighbor, atom in pending[-1]:
            if neighbor == goal:
                chains.append((tuple(path) + (goal,), tuple(atoms) + (atom,)))
            elif neighbor not in on_path:
                path.append(neighbor)
                atoms.append(atom)
                on_path.add(neighbor)
                pending.append(iter(system.neighbors(neighbor)))
                break
        else:
            pending.pop()
            on_path.remove(path.pop())
            del atoms[-1:]
    return chains


def derive_ftf(system: FuzzySystem) -> FtfExpr:
    """The transmission function: one raw term per chain, in chain order.

    The result is kept raw (chain order, path-ordered atoms) so that
    displays can reproduce the authored form; canonicalize it for
    comparisons.
    """
    return FtfExpr(tuple(Term(atoms) for _chain, atoms in enumerate_chains(system)))
