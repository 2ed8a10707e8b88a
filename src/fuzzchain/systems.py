"""Fuzzy systems, registries, definition files, and connection matrices.

A fuzzy system is an undirected graph with two distinguished terminals.
Each edge carries one atom: a variable (its transmission grade comes
from an assignment) or a counted call to another system in the same
registry.  Vertex order is first-seen order in the definition (the
terminals first), and edges remember their declaration order; matrices,
printed chains, and chain enumeration all derive their determinism from
those two orders.

Definition file format::

    # comment
    system psi1 {
      terminals A -> B
      edge B C w
      edge C D call psi1 2
    }

Clauses are separated by newlines or ';'.  An edge label is either an
identifier (a variable) or ``call <system> <count>``.  Call targets are
resolved lazily: parsing succeeds with dangling targets and
``validate_registry`` reports them.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .algebra import Atom, Call, Var, _Record, _set, check_grade, is_identifier, parse_count
from .errors import BindingError, ParseError, UnknownSystemError

__all__ = [
    "EdgeDef",
    "FuzzySystem",
    "SystemRegistry",
    "Diagnostic",
    "ConnectionMatrix",
    "ONE",
    "ZERO",
    "connection_matrix",
    "parse_registry",
    "format_registry",
    "validate_registry",
    "require_bindings",
    "parse_assignment",
    "format_assignment",
    "builtin_fixtures",
    "FIXTURE_ASSIGNMENT",
]


class EdgeDef(_Record):
    """One declared edge: endpoints in declaration orientation plus its atom."""

    __slots__ = _fields = ("u", "v", "atom")

    def __init__(self, u: str, v: str, atom: Atom) -> None:
        if u == v:
            raise ValueError(f"self-loop at {u!r}")
        _set(self, "u", u)
        _set(self, "v", v)
        _set(self, "atom", atom)

    def pair(self) -> frozenset[str]:
        return frozenset((self.u, self.v))


class FuzzySystem(_Record):
    """An undirected labeled graph with input and output terminals."""

    _fields = ("name", "input_terminal", "output_terminal", "vertices", "edges")
    __slots__ = (*_fields, "__dict__")  # the __dict__ holds the cached plan

    def __init__(
        self,
        name: str,
        input_terminal: str,
        output_terminal: str,
        vertices: tuple[str, ...],
        edges: tuple[EdgeDef, ...],
    ) -> None:
        for ident in (name, input_terminal, output_terminal, *vertices):
            if not is_identifier(ident):
                raise ValueError(f"invalid identifier: {ident!r}")
        if input_terminal == output_terminal:
            raise ValueError(f"system {name!r}: input and output terminals must differ")
        seen_vertices = set(vertices)
        if len(seen_vertices) != len(vertices):
            raise ValueError(f"system {name!r}: duplicate vertex in order")
        for terminal in (input_terminal, output_terminal):
            if terminal not in seen_vertices:
                raise ValueError(f"system {name!r}: terminal {terminal!r} not among vertices")
        pairs = set()
        for edge in edges:
            if edge.u not in seen_vertices or edge.v not in seen_vertices:
                raise ValueError(f"system {name!r}: edge endpoint not among vertices")
            pair = edge.pair()
            if pair in pairs:
                raise ValueError(f"system {name!r}: duplicate edge {edge.u!r}-{edge.v!r}")
            pairs.add(pair)
        for f, v in zip(self._fields, (name, input_terminal, output_terminal, vertices, edges)):
            _set(self, f, v)

    @staticmethod
    def build(
        name: str,
        input_terminal: str,
        output_terminal: str,
        edges: list[tuple[str, str, Atom]] | tuple[tuple[str, str, Atom], ...],
    ) -> "FuzzySystem":
        """Construct with first-seen vertex order (terminals first)."""
        ends = (vertex for u, v, _ in edges for vertex in (u, v))
        order = dict.fromkeys(itertools.chain((input_terminal, output_terminal), ends))
        return FuzzySystem(
            name,
            input_terminal,
            output_terminal,
            tuple(order),
            tuple(EdgeDef(u, v, atom) for u, v, atom in edges),
        )

    @cached_property
    def _plan(self) -> _Plan:
        return _Plan(self)

    def call_atoms(self) -> tuple[Call, ...]:
        return self._plan.calls


class _Plan:
    """A system's structure, derived once from its edges and read by every
    route: each edge's endpoint indices in ``vertices`` order (``us``,
    ``vs``) and its *slot*, its variable's name or its :class:`Call`
    (``slots``); the distinct variable names in first-met order
    (``names``) and the call atoms (``calls``); the input and output
    terminals' indices (``start``, ``goal``); and the chain walk's
    :attr:`table`.  It holds no grade.
    """

    __slots__ = ("us", "vs", "slots", "names", "calls", "start", "goal", "_edges", "_n")
    __slots__ += ("__dict__",)  # the __dict__ holds the walk table

    def __init__(self, system: FuzzySystem) -> None:
        index = {v: i for i, v in enumerate(system.vertices)}
        self.us = tuple(index[e.u] for e in system.edges)
        self.vs = tuple(index[e.v] for e in system.edges)
        atoms = [e.atom for e in system.edges]
        self.slots = tuple(a if isinstance(a, Call) else a.name for a in atoms)
        self.names = tuple(dict.fromkeys(s for s in self.slots if isinstance(s, str)))
        self.calls = tuple(s for s in self.slots if isinstance(s, Call))
        self.start = index[system.input_terminal]
        self.goal = index[system.output_terminal]
        self._edges = system.edges
        self._n = len(index)

    @cached_property
    def table(self) -> tuple[tuple[tuple[int, Atom], ...], ...]:
        """Entry i lists vertex ``vertices[i]``'s (neighbor index, atom) pairs
        in edge-declaration order.  It holds a tuple per edge end, so it is
        built on first read, and only a chain walk reads it: the matrix
        routes and ``validate`` walk no chain of the system."""
        table: list[list[tuple[int, Atom]]] = [[] for _ in range(self._n)]
        for u, v, edge in zip(self.us, self.vs, self._edges):
            table[u].append((v, edge.atom))
            table[v].append((u, edge.atom))
        return tuple(map(tuple, table))


class SystemRegistry(_Record):
    """An ordered collection of named systems; call targets resolve here."""

    __slots__ = _fields = ("systems",)  # unhashable: its field is a dict

    def __init__(self, systems: dict[str, FuzzySystem] | None = None) -> None:
        _set(self, "systems", {} if systems is None else systems)

    def add(self, system: FuzzySystem) -> None:
        if system.name in self.systems:
            raise ValueError(f"duplicate system name: {system.name!r}")
        self.systems[system.name] = system

    def __getitem__(self, name: str) -> FuzzySystem:
        try:
            return self.systems[name]
        except KeyError:
            raise UnknownSystemError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self.systems

    def __iter__(self) -> Iterator[FuzzySystem]:
        return iter(self.systems.values())

    def __len__(self) -> int:
        return len(self.systems)

    def names(self) -> tuple[str, ...]:
        return tuple(self.systems)

    def max_declared_count(self) -> int:
        """Largest call count declared anywhere in the registry (0 if none)."""
        return max((c.count for s in self for c in s.call_atoms()), default=0)


class Diagnostic(_Record):
    __slots__ = _fields = ("system", "severity", "message")  # severity: "error" | "warning"

    def __init__(self, system: str, severity: str, message: str) -> None:
        _set(self, "system", system)
        _set(self, "severity", severity)
        _set(self, "message", message)

    def __str__(self) -> str:
        return f"{self.severity}: {self.system}: {self.message}"


def validate_registry(registry: SystemRegistry) -> list[Diagnostic]:
    """Semantic checks that parsing defers: call targets and terminal reach."""
    diagnostics = []
    for system in registry:
        for call in system.call_atoms():
            if call.target not in registry:
                diagnostics.append(
                    Diagnostic(system.name, "error", f"unknown call target {call.target!r}")
                )
        plan = system._plan
        for terminal in (plan.start, plan.goal):
            if terminal not in plan.us and terminal not in plan.vs:
                message = f"disconnected terminal {system.vertices[terminal]!r}"
                diagnostics.append(Diagnostic(system.name, "warning", message))
    return diagnostics


def require_bindings(
    registry: SystemRegistry, name: str, assignment: Mapping[str, float] | None
) -> tuple[list[str], dict[str, float]]:
    """The binding contract every evaluation route checks on entry.

    Every variable of ``name``, and of every system reachable from it
    through call edges (whatever their count), must be bound to a grade
    in [0, 1]: a missing, non-numeric or out-of-range one raises
    :class:`BindingError`, an unknown system :class:`UnknownSystemError`.
    Systems are visited breadth-first from ``name`` through the calls of
    their :class:`_Plan`, and each system's distinct variable names are
    checked in first-met order.  Queueing a call target never raises, so
    every route reports the same first problem as a walk of the edges in
    declaration order would.  Returns the names visited, ``name`` first,
    in that order, and each variable's grade as :func:`check_grade`
    returns it, which the routes read in place of ``assignment``.  With
    ``assignment=None``, for the symbolic routes that bind nothing, only
    the systems are checked.  Each variable is checked once, where it is
    first met.
    """
    order = [name]
    grades: dict[str, float] = {}
    for system_name in order:
        plan = registry[system_name]._plan
        for call in plan.calls:
            if call.target not in order:
                order.append(call.target)
        if assignment is None:
            continue
        for var in plan.names:
            if var in grades:
                continue
            if var not in assignment:
                raise BindingError(f"missing binding for variable {var!r}")
            try:
                grades[var] = check_grade(assignment[var])
            except ValueError:
                # refused: check again to word the message for this
                # variable, so a good binding formats nothing
                try:
                    check_grade(assignment[var], f"binding for {var!r}")
                except ValueError as exc:
                    raise BindingError(str(exc)) from None
    return order, grades


# --- connection matrices --------------------------------------------------


ONE = 1  # the diagonal cell of a connection matrix
ZERO = 0  # the cell between two vertices with no edge

Cell = object  # ONE | ZERO | Atom


class ConnectionMatrix(_Record):
    """Square symbolic matrix over a system's vertices.

    The diagonal is ONE, absent edges are ZERO, and the matrix is
    symmetric because edges are undirected.
    """

    __slots__ = _fields = ("vertices", "cells")

    def __init__(self, vertices: tuple[str, ...], cells: tuple[tuple[Cell, ...], ...]) -> None:
        _set(self, "vertices", vertices)
        _set(self, "cells", cells)


def _fill(n: int, edges: Iterable[tuple[int, int, object]], zero: object, one: object) -> list:
    """An n×n grid of ``zero`` with ``one`` on the diagonal, then each
    ``(u index, v index, cell)`` edge written to its two symmetric
    cells, later edges over earlier ones.  The n² allocation runs at C
    speed and the edges cost O(E), with no per-cell dispatch."""
    grid = [[zero] * n for _ in range(n)]
    for i, row in enumerate(grid):
        row[i] = one
    for u, v, cell in edges:
        grid[u][v] = grid[v][u] = cell
    return grid


def connection_matrix(system: FuzzySystem) -> ConnectionMatrix:
    """The symbolic vertex-by-vertex matrix of a system, filled from its edges."""
    plan = system._plan
    atoms = (edge.atom for edge in system.edges)
    grid = _fill(len(system.vertices), zip(plan.us, plan.vs, atoms), ZERO, ONE)
    return ConnectionMatrix(tuple(system.vertices), tuple(tuple(row) for row in grid))


# --- definition files -----------------------------------------------------

_WS_RE = re.compile(r"\s+")


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _clauses(text: str) -> Iterator[tuple[int, int, str]]:
    """Yield (line, col, clause) with comments stripped.

    Clauses are separated by newlines and ';'.  A trailing '{' is kept
    with its clause; a '}' is its own clause.
    """
    for line_no, raw in enumerate(text.split("\n"), start=1):
        col = 1
        for piece in _strip_comment(raw).split(";"):
            stripped = piece.strip()
            if stripped:
                yield line_no, col + piece.index(stripped[0]), stripped
            col += len(piece) + 1


def parse_registry(text: str) -> SystemRegistry:
    """Parse definition text into a registry; empty input is an empty registry."""
    registry = SystemRegistry()
    current: str | None = None
    opened_at = (0, 0)  # line and column of the current 'system' clause
    terminals: tuple[str, str] | None = None
    edges: list[EdgeDef] = []

    def finish(line: int, col: int) -> None:
        nonlocal current, terminals
        assert current is not None
        if terminals is None:
            raise ParseError(f"system {current!r} has no terminals clause", line, col)
        try:
            system = FuzzySystem.build(current, *terminals, [(e.u, e.v, e.atom) for e in edges])
            registry.add(system)
        except ValueError as exc:
            raise ParseError(str(exc), line, col) from None
        current = None
        terminals = None

    for line_no, col, clause in _clauses(text):
        words = _WS_RE.split(clause)
        if current is None:
            if words[0] != "system":
                raise ParseError(f"expected 'system', got {words[0]!r}", line_no, col)
            if len(words) != 3 or words[2] != "{":
                raise ParseError("expected 'system <name> {'", line_no, col)
            if not is_identifier(words[1]):
                raise ParseError(f"invalid system name: {words[1]!r}", line_no, col)
            current = words[1]
            opened_at = (line_no, col)
            edges = []
            continue
        if clause == "}":
            finish(line_no, col)
            continue
        if words[0] == "terminals":
            if len(words) != 4 or words[2] != "->":
                raise ParseError("expected 'terminals <in> -> <out>'", line_no, col)
            if terminals is not None:
                raise ParseError(f"system {current!r}: duplicate terminals clause", line_no, col)
            if not (is_identifier(words[1]) and is_identifier(words[3])):
                raise ParseError("terminal names must be identifiers", line_no, col)
            terminals = (words[1], words[3])
            continue
        if words[0] == "edge":
            if len(words) not in (4, 6):
                raise ParseError(
                    "expected 'edge <u> <v> <label>' or 'edge <u> <v> call <name> <count>'",
                    line_no,
                    col,
                )
            u, v = words[1], words[2]
            if not (is_identifier(u) and is_identifier(v)):
                raise ParseError("edge endpoints must be identifiers", line_no, col)
            if len(words) == 4 and words[3] == "call":
                raise ParseError("expected 'call <name> <count>' after endpoints", line_no, col)
            if len(words) == 6 and words[3] != "call":
                raise ParseError(f"invalid edge label: {' '.join(words[3:])!r}", line_no, col)
            try:
                if len(words) == 4:
                    atom: Atom = Var(words[3])
                else:
                    atom = Call(words[4], parse_count(words[5], line_no, col))
                edges.append(EdgeDef(u, v, atom))
            except ValueError as exc:
                raise ParseError(str(exc), line_no, col) from None
            continue
        raise ParseError(f"unknown clause: {words[0]!r}", line_no, col)

    if current is not None:
        raise ParseError(f"unterminated system {current!r} (missing '}}')", *opened_at)
    return registry


def _atom_clause(atom: Atom) -> str:
    if isinstance(atom, Call):
        return f"call {atom.target} {atom.count}"
    return atom.name


def format_registry(registry: SystemRegistry) -> str:
    """Definition text that reparses to an identical registry."""
    blocks = []
    for system in registry:
        lines = [f"system {system.name} {{"]
        lines.append(f"  terminals {system.input_terminal} -> {system.output_terminal}")
        for edge in system.edges:
            lines.append(f"  edge {edge.u} {edge.v} {_atom_clause(edge.atom)}")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


# --- assignments ----------------------------------------------------------


def parse_assignment(text: str) -> dict[str, float]:
    """Parse ``var = 0.3`` lines ('#' comments allowed) into a binding map."""
    assignment: dict[str, float] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        left, sep, right = line.partition("=")
        name = left.strip()
        value_text = right.strip()
        if not sep or not value_text:
            raise ParseError("expected '<var> = <decimal>'", line_no, 1)
        if not is_identifier(name):
            raise ParseError(f"invalid variable name: {name!r}", line_no, 1)
        try:
            value = float(value_text)
        except ValueError:
            raise ParseError(f"invalid decimal: {value_text!r}", line_no, 1) from None
        try:
            assignment[name] = check_grade(value, f"binding for {name!r}")
        except ValueError as exc:
            raise ParseError(str(exc), line_no, 1) from None
    return assignment


def format_assignment(assignment: dict[str, float]) -> str:
    return "".join(f"{name} = {value!r}\n" for name, value in assignment.items())


# --- built-in fixtures ----------------------------------------------------

#: A convenient total assignment for the fixture variables.
FIXTURE_ASSIGNMENT = {"x": 0.3, "y": 0.7, "w": 0.6, "z": 0.8, "xbar": 0.5}

# Every four-vertex fixture shares one diamond topology: terminals A and B,
# interior vertices C and D, with edges A-C, B-C, A-D, B-D, C-D.  A system's
# transmission function then has exactly four A->B chains:
#
#   A-D-B      (2 edges)    A-D-C-B    (3 edges)
#   A-C-B      (2 edges)    A-C-D-B    (3 edges)
#
# Each labeling below is reconstructed from the system's documented
# sum-of-products transmission: the C-D label is the atom the two 3-edge
# terms share, and the remaining labels fall out of pairwise term
# intersections (the match is unique for every system).  Edges are declared
# in the order that makes the enumerated chains spell the documented terms
# left to right, while keeping first-seen vertex order A, B, C, D.
_DIAMOND_EDGE_ORDER = ("BC", "AD", "BD", "AC", "CD")

_DIAMOND_LABELS: dict[str, dict[str, str]] = {
    # transmission: xz + x*xbar*w + yw + y*xbar*z
    "psi1": {"AC": "y", "AD": "x", "BC": "w", "BD": "z", "CD": "xbar"},
    # transmission: xbar*z + xbar*x*w + yw + y*x*z
    "psi2": {"AC": "y", "AD": "xbar", "BC": "w", "BD": "z", "CD": "x"},
    # transmission: xbar*z + xbar*w*x + yx + y*w*z
    "psi3": {"AC": "y", "AD": "xbar", "BC": "x", "BD": "z", "CD": "w"},
    # transmission: xbar*w + xbar*y*z + xz + x*y*w
    "psi4": {"AC": "x", "AD": "xbar", "BC": "z", "BD": "w", "CD": "y"},
    # transmission: xbar*y + xbar*w*z + xz + x*w*y
    "psi5": {"AC": "x", "AD": "xbar", "BC": "z", "BD": "y", "CD": "w"},
}


def _diamond(name: str, labels: dict[str, Atom | str]) -> FuzzySystem:
    edges = []
    for key in _DIAMOND_EDGE_ORDER:
        atom = labels[key]
        if isinstance(atom, str):
            atom = Var(atom)
        edges.append((key[0], key[1], atom))
    return FuzzySystem.build(name, "A", "B", edges)


def builtin_fixtures(rec_count: int = 2) -> SystemRegistry:
    """The built-in example registry.

    Five diamond systems (psi1..psi5) with variable labels, a composite
    system ``phi`` whose five edges call them with count 1, and
    ``psi1_rec``: psi1 with its C-D edge replaced by a self-call of count
    ``rec_count``.
    """
    if rec_count < 0:
        raise ValueError("rec_count must be non-negative")

    registry = SystemRegistry()
    for name, labels in _DIAMOND_LABELS.items():
        registry.add(_diamond(name, dict(labels)))

    # phi's chains read psi2*psi4, psi2*psi1*psi5, psi3*psi1*psi4, psi3*psi5
    # in enumeration order, so its edge declarations start on the C side.
    registry.add(
        FuzzySystem.build(
            "phi",
            "A",
            "B",
            [
                ("A", "C", Call("psi2", 1)),
                ("B", "C", Call("psi4", 1)),
                ("C", "D", Call("psi1", 1)),
                ("A", "D", Call("psi3", 1)),
                ("B", "D", Call("psi5", 1)),
            ],
        )
    )
    rec_labels: dict[str, Atom | str] = dict(_DIAMOND_LABELS["psi1"])
    rec_labels["CD"] = Call("psi1_rec", rec_count)
    registry.add(_diamond("psi1_rec", rec_labels))
    return registry
