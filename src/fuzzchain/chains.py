"""Chain enumeration and derived transmission functions.

A chain is a simple input-to-output path through a system.  Enumeration
is a depth-first walk that explores neighbors in edge-declaration order,
which makes the derived transmission function list its terms in the
same order the system's author wrote the edges — handy for stable
output and for matching hand-written sum-of-products forms.

Only simple paths matter: repeating a vertex can only extend the min
over a walk's edges, never raise it, so every walk is dominated by the
simple path it shortcuts to.
"""

from __future__ import annotations

from .algebra import FtfExpr, Term
from .errors import FuzzchainError
from .systems import FuzzySystem

__all__ = [
    "Chain",
    "enumerate_chains",
    "chain_atoms",
    "derive_ftf",
]

Chain = tuple[str, ...]


def enumerate_chains(system: FuzzySystem) -> list[Chain]:
    """All simple input->output paths, in deterministic traversal order."""
    chains: list[Chain] = []
    goal = system.output_terminal
    path = [system.input_terminal]
    on_path = {system.input_terminal}

    def walk(vertex: str) -> None:
        for neighbor, _atom in system.neighbors(vertex):
            if neighbor == goal:
                chains.append(tuple(path) + (goal,))
            elif neighbor not in on_path:
                path.append(neighbor)
                on_path.add(neighbor)
                walk(neighbor)
                on_path.remove(neighbor)
                path.pop()

    walk(system.input_terminal)
    return chains


def chain_atoms(system: FuzzySystem, chain: Chain) -> tuple:
    """The edge atoms along ``chain``, in path order."""
    atoms = []
    for u, v in zip(chain, chain[1:]):
        atom = system.edge_atom(u, v)
        if atom is None:
            raise FuzzchainError(f"no edge {u!r}-{v!r} in system {system.name!r}")
        atoms.append(atom)
    return tuple(atoms)


def derive_ftf(system: FuzzySystem) -> FtfExpr:
    """The transmission function: one raw term per chain, in chain order.

    The result is kept raw (chain order, path-ordered atoms) so that
    displays can reproduce the authored form; canonicalize it for
    comparisons.
    """
    return FtfExpr(tuple(Term(chain_atoms(system, c)) for c in enumerate_chains(system)))

