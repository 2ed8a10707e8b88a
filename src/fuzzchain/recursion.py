"""Budgeted evaluation of systems whose edges call other systems.

An edge labelled ``call tau m`` stands for the transmission grade of
system ``tau``, computed under a *call budget*.  At the top level a call
runs with its full declared count.  One level down, a callee evaluated
with remaining budget ``b`` grants each of its own calls an effective
budget of ``min(declared, b - 1)``: entering the call consumes one unit,
and the declaration caps what may be spent below it.  A call whose
effective budget falls to zero is *dead*: it transmits ``0.0``, the
max-min zero, so no chain through it adds to the max.  Budgets strictly
decrease with depth, so evaluation always terminates, self-referential
systems included.

One walker, :func:`_layers`, fills a table of budget layers bottom-up,
without Python recursion, grading every callee at every budget in one
loop.  :func:`_call_grades` is the table's one numeric reader, the value of
each call of a system at a budget: :func:`_grade` values a system from it
for :func:`resolve_call` (whose top level is :func:`eval_system`), and
:func:`edge_grades` reads its top level for the closure routes.
:func:`_grade` takes the max over chains of each chain's min, and a
chain's scan stops at the first grade that cannot raise the max.  In what
:func:`_size` counts and the expansion DAG holds, a dead call's chains
vanish (:func:`_live_chains`).  Each call enumerates a system's chains
once (:class:`_Chains`), and every layer, and the DAG, reads them there.

The symbolic outputs unroll the call structure into one expansion DAG
with a node per (system, budget): ``expand`` renders it nested
(:func:`render_expansion` of :func:`expansion_tree`) or flattened
(:func:`symbolic_expand`, and its ``paper`` text
:func:`paper_expansion`), and :func:`trace_eval` narrates it as a
stream of enter/push/branch/pop/exit events.  Those outputs grow
exponentially with the call depth, so each comes through one entry,
:func:`_unroll`: it sizes the output on a layer table of :func:`_size`,
refuses it with ``ValueError`` past ``algebra.MAX_EXPANSION`` (through
the bound's one check, ``algebra._check_size``), and only then builds the
nodes.  The DAG's records hold structure only, and each
equals only itself, so each route keys its tables by the node or branch
and computes what it prints once per node, callees first, looping over
the node memo or, from a bare node, over :func:`_callees_first`.
:func:`render_expansion` nests its children's texts.  The flat forms
distribute only the nodes whose terms reach the root, read off the size
table (:func:`_distributed`), so a node behind an empty factor never
is: :func:`symbolic_expand` into atom tuples, :func:`paper_expansion`
into ``paper`` texts composed from segments' texts with no
:class:`~fuzzchain.algebra.Term` built (:func:`_paper_texts`).  A trace
composes the same texts for every node below the root and splices each
callee's events into its caller's.  Each flat route drops a callee's
terms or events after its last caller (:func:`_release`).  Only the builder,
:func:`_expansion_node`, recurses, so a narrow call chain deep enough
can still exhaust the recursion limit while it builds.

Every entry point that takes an assignment checks it first with
:func:`~fuzzchain.systems.require_bindings` and then reads only the
grades it returns, floats with no ``-0.0``, so every route gives the
same ``repr``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Callable, Iterable, Iterator, Mapping, TypeVar, Union

from . import algebra
from .algebra import (
    Atom,
    Call,
    FtfExpr,
    Term,
    Var,
    _Record,
    _check_size,
    _set,
    format_term,
    snorm_max,
    tnorm_min,
)
from .chains import Chain, enumerate_chains
from .systems import SystemRegistry, _Plan, require_bindings

__all__ = [
    "eval_system",
    "resolve_call",
    "call_layers",
    "edge_grades",
    "stabilization_budget",
    "ExpansionNode",
    "ExpansionBranch",
    "expansion_tree",
    "symbolic_expand",
    "paper_expansion",
    "render_expansion",
    "TraceEvent",
    "Enter",
    "Exit",
    "PushReturn",
    "PopReturn",
    "BranchResult",
    "TraceResult",
    "trace_eval",
]

Budget = Union[int, None]  # None marks the top level
ChainList = list[tuple[Chain, tuple[Atom, ...]]]
Size = tuple[int, int, int, int]  # flat terms, nested node occurrences, trace events, live chains
T = TypeVar("T")


def _effective(declared: int, budget: Budget) -> int:
    """Budget actually granted to a call edge; < 1 means the call is dead."""
    if budget is None:
        return declared
    return min(declared, budget - 1)


def _check_budget(budget: Budget) -> None:
    if budget is None:
        return
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise ValueError(f"call budget must be an integer or None, got {budget!r}")
    if budget < 0:
        raise ValueError(f"call budget must be >= 0, got {budget}")


def stabilization_budget(registry: SystemRegistry) -> int:
    """Smallest budget at which every resolve_call equals the top level.

    One more than the largest declared count anywhere in the registry:
    past that, the ``budget - 1`` haircut no longer bites.
    """
    return 1 + registry.max_declared_count()


class _Chains(dict[str, ChainList]):
    """Each system's chains, as :func:`enumerate_chains` gives them,
    enumerated the first time one call reads them."""

    def __init__(self, registry: SystemRegistry):
        super().__init__()
        self.registry = registry

    def __missing__(self, name: str) -> ChainList:
        chains = self[name] = enumerate_chains(self.registry[name])
        return chains


def _live_chains(chains: ChainList, budget: Budget) -> Iterator[tuple[Chain, tuple[Atom, ...]]]:
    """The (chain, atoms) pairs among a system's ``chains`` that survive ``budget``.

    The one place that drops a chain with a dead call, for the structural
    routes: such a chain has no terms, nodes or events.
    """
    for chain, atoms in chains:
        for atom in atoms:
            if isinstance(atom, Call) and _effective(atom.count, budget) < 1:
                break  # a dead call drops the chain
        else:
            yield chain, atoms


def resolve_call(
    registry: SystemRegistry,
    name: str,
    budget: Budget,
    assignment: Mapping[str, float],
) -> float:
    """Transmission grade of ``name`` evaluated with remaining budget.

    ``budget=0`` admits only call-free chains; raising the budget admits
    deeper call nesting until :func:`stabilization_budget`, beyond which
    the value stops changing.  ``budget=None`` is the top level, as in
    :func:`eval_system`.
    """
    chains = _Chains(registry)
    grades, layers = call_layers(registry, name, assignment, budget, chains)
    return _grade(chains[name], grades, _call_grades(registry[name]._plan, budget, layers))


def eval_system(
    registry: SystemRegistry,
    name: str,
    assignment: Mapping[str, float],
) -> float:
    """Top-level transmission grade: every call runs at its declared count."""
    return resolve_call(registry, name, None, assignment)


def call_layers(
    registry: SystemRegistry,
    name: str,
    assignment: Mapping[str, float],
    budget: Budget = None,
    chains: Mapping[str, ChainList] | None = None,
) -> tuple[dict[str, float], list[dict[str, float]]]:
    """The grades :func:`require_bindings` checked for ``name`` and the
    value of every system ``name`` calls, at each budget it can read.

    ``layers[b][s]`` is ``resolve_call(registry, s, b, assignment)`` for
    each system ``s`` reached through a call edge (see :func:`_layers`);
    a call granted budget b reads ``layers[min(b, len(layers) - 1)]``.
    A caller that grades more systems itself passes the ``chains`` the
    table was graded from, so no system's chains are enumerated twice.
    """
    _check_budget(budget)
    walked, grades = require_bindings(registry, name, assignment)
    chains = _Chains(registry) if chains is None else chains

    def grade(s: str, b: int, layers: list[dict[str, float]]) -> float:
        return _grade(chains[s], grades, _call_grades(registry[s]._plan, b, layers))

    return grades, _layers(registry, walked, budget, grade)


def _layers(
    registry: SystemRegistry,
    walked: list[str],
    budget: Budget,
    grade: Callable[[str, int, list[dict[str, T]]], T],
) -> list[dict[str, T]]:
    """``grade`` of every system that the root ``walked[0]`` reaches
    through a call edge, at each budget the root can grant.

    ``walked`` is as :func:`require_bindings` returns it, and each
    system's calls are read from its plan.  Layer b is ``grade(system,
    b, layers)`` of every callee over the layers below it.  Every call
    is dead below budget 2, so layer 1 is a copy of layer 0 and
    ``grade`` is never called at budget 1.  Filling stops at the last
    budget the root grants a call (its largest declared count at the top
    level, ``budget - 1`` below it), or at the first b >= 2 whose layer
    equals layer b - 1: every later layer is that one.
    """
    calls = {s: registry[s]._plan.calls for s in walked}
    called = {call.target for atoms in calls.values() for call in atoms}
    root_counts = [call.count for call in calls[walked[0]]]
    last = max(root_counts, default=0) if budget is None else budget - 1
    callees = [s for s in walked if s in called]
    layers: list[dict[str, T]] = []
    while len(layers) <= last:
        if len(layers) == 1:
            layer = dict(layers[0])  # every call is dead below budget 2
        else:
            layer = {s: grade(s, len(layers), layers) for s in callees}
            if len(layers) >= 2 and layer == layers[-1]:
                break
        layers.append(layer)
    return layers


def _call_grades(plan: _Plan, budget: Budget, layers: list[dict[str, float]]) -> dict[Call, float]:
    """The value each call of ``plan`` reads at ``budget``: its callee's
    value in ``layers[min(effective budget, top)]``, or ``0.0`` when the
    call is dead (a call that may never run transmits nothing)."""
    top = len(layers) - 1
    called = {}
    for call in plan.calls:
        b = _effective(call.count, budget)
        called[call] = layers[min(b, top)][call.target] if b >= 1 else 0.0
    return called


def _grade(chains: ChainList, grades: dict[str, float], called: dict[Call, float]) -> float:
    """Max over a system's ``chains`` of the min over each chain's atoms.

    A variable reads its checked grade from ``grades`` and a call its
    value from ``called``; a dead call's ``0.0`` adds nothing to the max.
    A chain's scan stops at the first grade that cannot raise the max,
    one no greater than the best chain so far: its min can only fall
    (branch and bound, Land & Doig 1960).  Only a chain scanned to its
    end sets a new best, so ties keep the earlier value, as
    :func:`~fuzzchain.algebra.snorm_max` does, and every value it may
    skip was already checked or computed.  A chain that ends at 1.0, the
    lattice top, answers at once: no later chain can raise it.
    """
    best = 0.0
    for _chain, atoms in chains:
        got = 1.0
        for atom in atoms:
            value = grades[atom.name] if isinstance(atom, Var) else called[atom]
            if value <= best:
                break
            if value < got:
                got = value
        else:
            if got == 1.0:
                return got
            best = got
    return best


def edge_grades(
    registry: SystemRegistry, name: str, assignment: Mapping[str, float]
) -> list[tuple[int, int, float]]:
    """Each edge of ``name`` as ``(u index, v index, grade)``, in
    declaration order: the endpoint indices of its plan, and the grade
    read through its slot, a variable's checked grade or a call's value
    at the top level (:func:`_call_grades`), as :func:`resolve_call`
    gives it."""
    grades, layers = call_layers(registry, name, assignment)
    plan = registry[name]._plan
    called = _call_grades(plan, None, layers)
    return list(zip(plan.us, plan.vs, map({**grades, **called}.__getitem__, plan.slots)))


def _size(chains: ChainList, budget: Budget, layers: list[dict[str, Size]]) -> Size:
    """What the system with these ``chains`` unrolls to at ``budget``: (flat
    terms, nested node occurrences, trace events, live chains), each
    saturating past the cap.

    A live chain has the product of its callees' terms.  It adds their
    occurrences and events, a PUSH and a POP per call, a summary event
    and, with exactly one call, one ``sub=`` event per callee chain.  The
    system adds one occurrence, ENTER and EXIT.
    """
    over = algebra.MAX_EXPANSION + 1
    top = len(layers) - 1
    terms, nodes, events, live = 0, 1, 2, 0
    for _chain, atoms in _live_chains(chains, budget):
        product, calls, subs = 1, 0, 0
        for atom in atoms:
            if isinstance(atom, Call):
                child = layers[min(_effective(atom.count, budget), top)][atom.target]
                product = min(product * child[0], over)
                nodes += child[1]
                events += 2 + child[2]
                calls, subs = calls + 1, child[3]
        terms += product
        events += 1 + (subs if calls == 1 else 0)
        live += 1
    return min(terms, over), min(nodes, over), min(events, over), min(live, over)


def _sized(
    registry: SystemRegistry, name: str, budget: Budget, assignment: Mapping[str, float] | None
) -> tuple[Size, list[dict[str, Size]], dict[str, float], _Chains]:
    """Check the budget and bindings, then size: (size, layers, grades, chains)."""
    _check_budget(budget)
    walked, grades = require_bindings(registry, name, assignment)
    chains = _Chains(registry)
    layers = _layers(registry, walked, budget, lambda s, b, layers: _size(chains[s], b, layers))
    return _size(chains[name], budget, layers), layers, grades, chains


# --------------------------------------------------------------------------
# Symbolic expansion


class _Dag(_Record):
    """Base of the expansion records.  The builder makes one node per
    (system, budget) and shares it between every call that reaches it, so
    a record is hash-consed: it equals only itself and hashes by identity
    (Filliâtre & Conchon 2006), and no comparison or hash walks the DAG.
    Two separately built trees are not equal; compare their renderings."""

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class ExpansionBranch(_Dag):
    """One surviving chain, calls replaced by expanded child nodes.

    ``atoms`` are the chain's edge atoms in path order; ``segments`` are
    the same atoms with every call replaced by its child node.
    """

    __slots__ = _fields = ("chain", "segments", "atoms")

    def __init__(
        self,
        chain: Chain,
        segments: tuple[Union[Var, "ExpansionNode"], ...],
        atoms: tuple[Atom, ...],
    ) -> None:
        _set(self, "chain", chain)
        _set(self, "segments", segments)
        _set(self, "atoms", atoms)

    def has_calls(self) -> bool:
        return any(isinstance(seg, ExpansionNode) for seg in self.segments)


class ExpansionNode(_Dag):
    """A system unrolled at one budget; branches hold the live chains.

    Branches are in chain order.  One tree shares a node between every
    call that reaches the same (system, budget), so it is a DAG.
    """

    __slots__ = _fields = ("system", "budget", "branches")

    def __init__(self, system: str, budget: Budget, branches: tuple[ExpansionBranch, ...]) -> None:
        _set(self, "system", system)
        _set(self, "budget", budget)
        _set(self, "branches", branches)

    def presentation_order(self) -> tuple[ExpansionBranch, ...]:
        """Call-free branches first, then call-bearing ones, each in
        chain order: how the rendered expansion reads."""
        plain = tuple(b for b in self.branches if not b.has_calls())
        return plain + tuple(b for b in self.branches if b.has_calls())


def _called(node: ExpansionNode) -> Iterator[ExpansionNode]:
    return (seg for b in node.branches for seg in b.segments if isinstance(seg, ExpansionNode))


def _callers(nodes: list[ExpansionNode]) -> Counter[ExpansionNode]:
    """How many branch segments of ``nodes`` call each node."""
    return Counter(child for node in nodes for child in _called(node))


def _release(
    memo: dict[ExpansionNode, T], callers: Counter[ExpansionNode], branch: ExpansionBranch
) -> None:
    """Count off the calls ``branch`` makes, and drop each callee's ``memo``
    entry after its last: a callee's terms or events outlive no caller."""
    for seg in branch.segments:
        if isinstance(seg, ExpansionNode):
            callers[seg] -= 1
            if not callers[seg]:
                memo.pop(seg, None)


def _callees_first(root: ExpansionNode) -> list[ExpansionNode]:
    """Every node ``root`` reaches, ``root`` last, each once and after
    every node it calls: a post-order walk on an explicit stack."""
    order: list[ExpansionNode] = []
    seen = {root}
    stack = [(root, _called(root))]
    while stack:
        child = next((c for c in stack[-1][1] if c not in seen), None)
        if child is None:
            order.append(stack.pop()[0])
        else:
            seen.add(child)
            stack.append((child, _called(child)))
    return order


def expansion_tree(registry: SystemRegistry, name: str, budget: Budget = None) -> ExpansionNode:
    """Unroll ``name`` into nested call-free structure at the given budget.

    Each live chain (see :func:`_live_chains`) becomes a branch, and each
    of its calls becomes the node of its target at the effective budget.
    Nodes are built once per (system, budget), and not at all when the
    nested rendering would pass the cap.
    """
    return _unroll(registry, name, budget, None, 1, "nested nodes")[0][-1]


def _unroll(
    registry: SystemRegistry, name: str, budget: Budget,
    assignment: Mapping[str, float] | None, output: int, what: str,
) -> tuple[list[ExpansionNode], dict[str, float], list[dict[str, Size]]]:
    """The one way into the expansion DAG: size ``name`` at ``budget``, refuse
    it when ``size[output]`` passes the cap, and only then build it.  Gives
    the node memo (callees first, root last), the grades and the size layers."""
    size, layers, grades, chains = _sized(registry, name, budget, assignment)
    _check_size(size[output], what)
    nodes: dict[tuple[str, Budget], ExpansionNode] = {}
    _expansion_node(chains, nodes, name, budget)
    return list(nodes.values()), grades, layers


def _expansion_node(
    chains: _Chains,
    nodes: dict[tuple[str, Budget], ExpansionNode],
    name: str,
    budget: Budget,
) -> ExpansionNode:
    """The node of ``name`` at ``budget``, built once per (system, budget)
    into the memo ``nodes``.  A node enters the memo after every node it
    calls, so the memo lists callees first and the root last."""
    key = (name, budget)
    node = nodes.get(key)
    if node is None:
        branches = []
        for chain, atoms in _live_chains(chains[name], budget):
            segments: list[Union[Var, ExpansionNode]] = []
            for a in atoms:  # a loop, not a generator: one frame per call level
                if isinstance(a, Call):
                    b = _effective(a.count, budget)
                    segments.append(_expansion_node(chains, nodes, a.target, b))
                else:
                    segments.append(a)
            branches.append(ExpansionBranch(chain, tuple(segments), atoms))
        node = nodes[key] = ExpansionNode(name, budget, tuple(branches))
    return node


def symbolic_expand(registry: SystemRegistry, name: str, budget: Budget = None) -> FtfExpr:
    """Fully distributed call-free expression for ``name`` at a budget.

    Raw form: term order follows the expansion tree and duplicates are
    kept, so evaluating it reproduces :func:`eval_system` exactly.
    Each node :func:`_distributed` gives becomes atom tuples, callees first.
    """
    nodes, _grades, layers = _unroll(registry, name, budget, None, 0, "flat terms")
    distributed = _distributed(nodes, layers)
    callers = _callers(distributed)
    flat: dict[ExpansionNode, list[tuple[Atom, ...]]] = {}  # each node's flat terms' atoms
    for node in distributed:
        out = flat[node] = []
        for branch in node.presentation_order():
            factors = [  # a node left out of flat has no terms here
                ((seg,),) if isinstance(seg, Var) else flat.get(seg, ())
                for seg in branch.segments
            ]
            for pick in itertools.product(*factors):
                atoms: tuple[Atom, ...] = ()
                for part in pick:
                    atoms += part
                out.append(atoms)
            _release(flat, callers, branch)
    return FtfExpr(tuple(map(Term, flat[nodes[-1]])))


def paper_expansion(registry: SystemRegistry, name: str, budget: Budget = None) -> str:
    """``format_expr(symbolic_expand(registry, name, budget), "paper")``,
    composed by :func:`_paper_texts` over the nodes :func:`symbolic_expand`
    distributes, under the same cap, with no :class:`~fuzzchain.algebra.Term`
    built."""
    nodes, _grades, layers = _unroll(registry, name, budget, None, 0, "flat terms")
    return _paper_texts(_distributed(nodes, layers))[nodes[-1]]


def _distributed(nodes: list[ExpansionNode], layers: list[dict[str, Size]]) -> list[ExpansionNode]:
    """The nodes a flat output distributes, callees first: the root, and each
    node a distributed node's branch calls when all it calls have flat terms
    (in the size layers).  A node behind an empty factor is never distributed."""
    top = len(layers) - 1
    needed = {nodes[-1]}
    for node in reversed(nodes):  # callers first
        if node in needed:
            for branch in node.branches:
                called = [seg for seg in branch.segments if isinstance(seg, ExpansionNode)]
                if all(layers[min(seg.budget, top)][seg.system][0] > 0 for seg in called):
                    needed.update(called)
    return [node for node in nodes if node in needed]


def _compose(pieces: Iterable[tuple[bool, str]]) -> str:
    """Join rendered pieces; (is_plain_var, text) pairs.

    Single-letter variables butt up against each other and against
    parenthesized groups; anything longer forces ``*`` separators, the
    same convention :func:`format_term` uses.
    """
    pieces = list(pieces)
    tight = all(len(text) == 1 for plain, text in pieces if plain)
    sep = "" if tight else "*"
    return sep.join(text for _, text in pieces)


def _branch_pieces(branch: ExpansionBranch, texts: dict[_Dag, str]) -> list[tuple[bool, str]]:
    out: list[tuple[bool, str]] = []
    for seg in branch.segments:
        if isinstance(seg, Var):
            out.append((True, seg.name))
        else:
            out.append((False, "(" + texts[seg] + ")"))
    return out


def render_expansion(node: ExpansionNode) -> str:
    """Nested rendering: one alternative per branch, children in parens.
    Each node is rendered once, callees first, and reused at every call."""
    texts: dict[_Dag, str] = {}  # each node's nested text
    for each in _callees_first(node):
        rendered = (_compose(_branch_pieces(b, texts)) for b in each.presentation_order())
        texts[each] = " + ".join(rendered) or "0"
    return texts[node]


# --------------------------------------------------------------------------
# Tracing


class TraceEvent(_Record):
    __slots__ = ()

    def line(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


class Enter(TraceEvent):
    __slots__ = _fields = ("system", "budget")

    def __init__(self, system: str, budget: Budget) -> None:
        _set(self, "system", system)
        _set(self, "budget", budget)

    def line(self) -> str:
        shown = "top" if self.budget is None else str(self.budget)
        return f"ENTER system={self.system} budget={shown}"


class Exit(TraceEvent):
    __slots__ = _fields = ("system", "value")

    def __init__(self, system: str, value: float) -> None:
        _set(self, "system", system)
        _set(self, "value", value)

    def line(self) -> str:
        return f"EXIT system={self.system} value={self.value!r}"


class PushReturn(TraceEvent):
    __slots__ = _fields = ("label",)

    def __init__(self, label: str) -> None:
        _set(self, "label", label)

    def line(self) -> str:
        return f"PUSH return={self.label}"


class PopReturn(TraceEvent):
    __slots__ = _fields = ("label",)

    def __init__(self, label: str) -> None:
        _set(self, "label", label)

    def line(self) -> str:
        return f"POP return={self.label}"


class BranchResult(TraceEvent):
    __slots__ = _fields = ("chain", "expr", "value", "sub")

    def __init__(self, chain: str, expr: str, value: float, sub: str | None = None) -> None:
        _set(self, "chain", chain)
        _set(self, "expr", expr)
        _set(self, "value", value)
        _set(self, "sub", sub)

    def line(self) -> str:
        middle = f" sub={self.sub}" if self.sub is not None else ""
        return f"BRANCH chain={self.chain}{middle} expr={self.expr} value={self.value!r}"


class TraceResult(_Record):
    __slots__ = _fields = ("value", "events")

    def __init__(self, value: float, events: tuple[TraceEvent, ...]) -> None:
        _set(self, "value", value)
        _set(self, "events", events)

    def lines(self) -> list[str]:
        return [event.line() for event in self.events]


def _chain_id(chain: Chain) -> str:
    return "-".join(chain)


def _return_label(atoms: tuple[Atom, ...]) -> str:
    return format_term(Term(atoms)) if atoms else "-"


def trace_eval(
    registry: SystemRegistry,
    name: str,
    assignment: Mapping[str, float],
) -> TraceResult:
    """Evaluate like :func:`eval_system` while narrating every step.

    Narrates the :func:`expansion_tree` of ``name``.  The story repeats
    per call: a node shared by several calls is told in full at each of
    them, because each descent is part of the story.  The work runs once
    per node, in one loop over the builder's memo, callees first: each
    node gets its value and its whole event list, and each PUSH/POP pair
    of a caller holds its callee's list, spliced in whole.
    Dead chains are silent.  A chain with exactly one live call also
    reports each callee alternative on its own ``sub=`` line before the
    chain's summary; chains with several calls get the summary only.
    """
    nodes, grades, layers = _unroll(registry, name, None, assignment, 2, "trace events")
    # every other node is flattened into the trace's expr= text
    top = len(layers) - 1
    widest = max((layers[min(n.budget, top)][n.system][0] for n in nodes[:-1]), default=0)
    _check_size(widest, "flat terms in one call")
    texts = _paper_texts(nodes[:-1], every=True)
    told: dict[ExpansionNode, tuple[list[TraceEvent], float]] = {}  # each node's events, value
    values: dict[ExpansionBranch, float] = {}
    callers = _callers(nodes)
    for node in nodes:
        events: list[TraceEvent] = [Enter(node.system, node.budget)]
        best = 0.0
        for branch in node.branches:
            atoms, segments = branch.atoms, branch.segments
            calls = [(i, seg) for i, seg in enumerate(segments) if isinstance(seg, ExpansionNode)]
            value = 1.0
            for i, child in calls:
                label = _return_label(atoms[i + 1 :])
                child_events, child_value = told[child]
                events.append(PushReturn(label))
                events.extend(child_events)
                events.append(PopReturn(label))
                value = tnorm_min(value, child_value)
            _release(told, callers, branch)
            around = 1.0
            for atom in atoms:
                if isinstance(atom, Var):
                    around = tnorm_min(around, grades[atom.name])
            value = values[branch] = tnorm_min(value, around)
            cid, pieces = _chain_id(branch.chain), _branch_pieces(branch, texts)
            summary = _compose(pieces)
            if len(calls) == 1:
                ((slot, child),) = calls
                for sub in child.presentation_order():
                    pieces[slot] = (False, "(" + texts[sub] + ")")
                    sub_value, sub_id = tnorm_min(around, values[sub]), _chain_id(sub.chain)
                    events.append(BranchResult(cid, _compose(pieces), sub_value, sub=sub_id))
            events.append(BranchResult(cid, summary, value))
            best = snorm_max(best, value)
        events.append(Exit(node.system, best))
        told[node] = events, best
    events, value = told[nodes[-1]]
    return TraceResult(value, tuple(events))


def _paper_texts(nodes: list[ExpansionNode], every: bool = False) -> dict[_Dag, str]:
    """The ``paper`` text of the flat terms of the last of ``nodes``, given
    callees first, keyed by the record; with ``every``, as the trace's
    ``expr=`` and ``sub=`` lines read them, that of each node and of each
    of their branches too.

    No term is built and nothing is formatted.  A term is *tight* when
    every atom is a one-character variable.  A variable segment is one
    term; a child node brings its own, and one not given brings none (see
    :func:`_distributed`).  Tight factors juxtapose; a pick
    with a loose factor joins every atom with ``*``, as
    :func:`~fuzzchain.algebra.format_term` does.  A node's terms are its
    branches', in presentation order, kept only until the last branch
    of ``nodes`` that calls the node has composed them.
    """
    terms: dict[ExpansionNode, list[tuple[str, bool]]] = {}  # each term's text, and if tight
    texts: dict[_Dag, str] = {}
    callers = _callers(nodes)
    for node in nodes:
        node_terms: list[tuple[str, bool]] | None = [] if callers[node] else None
        shown = every or node is nodes[-1]  # whether the node's text is kept
        summed: list[str] = []  # the texts of the branches that have terms
        for branch in node.presentation_order():
            factors = [
                ((seg.name, len(seg.name) == 1),)
                if isinstance(seg, Var)
                else terms.get(seg, ())
                for seg in branch.segments
            ]
            if all(tight for factor in factors for _, tight in factor):
                picks = itertools.product(*([text for text, _ in factor] for factor in factors))
                out = list(zip(map("".join, picks), itertools.repeat(True)))
            else:
                out = []
                for pick in itertools.product(*factors):
                    if all(tight for _, tight in pick):
                        out.append(("".join(t for t, _ in pick), True))
                    else:
                        text = "*".join("*".join(t) if tight else t for t, tight in pick)
                        out.append((text, False))
            if shown:
                # every term has an atom, so only an empty sum joins to ""
                text = " + ".join(t for t, _ in out) or "0"
                if every:
                    texts[branch] = text
                if out:
                    summed.append(text)
            if node_terms is not None:
                node_terms.extend(out)
            _release(terms, callers, branch)
        if shown:
            texts[node] = " + ".join(summed) or "0"
        if node_terms is not None:
            terms[node] = node_terms
    return texts
