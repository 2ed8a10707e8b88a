"""Budgeted evaluation of systems whose edges call other systems.

An edge labelled ``call tau m`` stands for the transmission grade of
system ``tau``, computed under a *call budget*.  At the top level a call
runs with its full declared count.  One level down, a callee evaluated
with remaining budget ``b`` grants each of its own calls an effective
budget of ``min(declared, b - 1)``: entering the call consumes one unit,
and the declaration caps what may be spent below it.  A call whose
effective budget falls to zero is *dead* — every chain through it is
dropped, contributing nothing to the max.  Budgets strictly decrease
with depth, so evaluation always terminates, self-referential systems
included.

Three views of the same recursion live here:

* :func:`eval_system` / :func:`resolve_call` — numeric, memoized;
* :func:`expansion_tree` / :func:`symbolic_expand` — the call structure
  unrolled into a nested (or flattened) call-free expression;
* :func:`trace_eval` — numeric again, but unmemoized and narrated as a
  stream of enter/push/branch/pop/exit events.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Union

from .algebra import (
    Atom,
    Call,
    FtfExpr,
    Term,
    Var,
    assignment_valuation,
    check_grade,
    eval_expr,
    format_expr,
    format_term,
    snorm_max,
    tnorm_min,
)
from .chains import Chain, chain_atoms, enumerate_chains
from .systems import SystemRegistry

__all__ = [
    "eval_system",
    "resolve_call",
    "stabilization_budget",
    "ExpansionNode",
    "ExpansionBranch",
    "expansion_tree",
    "symbolic_expand",
    "render_expansion",
    "TraceEvent",
    "Enter",
    "Exit",
    "PushReturn",
    "PopReturn",
    "BranchResult",
    "TraceResult",
    "trace_eval",
    "render_trace",
]

Budget = Union[int, None]  # None marks the top level


def _effective(declared: int, budget: Budget) -> int:
    """Budget actually granted to a call edge; < 1 means the call is dead."""
    if budget is None:
        return declared
    return min(declared, budget - 1)


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ValueError(f"call budget must be >= 0, got {budget}")


def stabilization_budget(registry: SystemRegistry) -> int:
    """Smallest budget at which every resolve_call equals the top level.

    One more than the largest declared count anywhere in the registry:
    past that, the ``budget - 1`` haircut no longer bites.
    """
    return 1 + registry.max_declared_count()


def _chain_value(
    atoms: tuple[Atom, ...],
    budget: Budget,
    valuation: Callable[[Var], float],
    call_value: Callable[[str, int], float],
) -> float | None:
    """Min over one chain's atoms, or None when a dead call kills it."""
    value = 1.0
    for atom in atoms:
        if isinstance(atom, Var):
            value = tnorm_min(value, valuation(atom))
        else:
            eff = _effective(atom.count, budget)
            if eff < 1:
                return None
            value = tnorm_min(value, call_value(atom.target, eff))
    return value


def resolve_call(
    registry: SystemRegistry,
    name: str,
    budget: int,
    assignment: Mapping[str, float],
) -> float:
    """Transmission grade of ``name`` evaluated with remaining budget.

    ``budget=0`` admits only call-free chains; raising the budget admits
    deeper call nesting until :func:`stabilization_budget`, beyond which
    the value stops changing.
    """
    _check_budget(budget)
    registry[name]  # surface unknown names eagerly
    return _Evaluator(registry, assignment).value(name, budget)


def eval_system(
    registry: SystemRegistry,
    name: str,
    assignment: Mapping[str, float],
) -> float:
    """Top-level transmission grade: every call runs at its declared count."""
    registry[name]
    return _Evaluator(registry, assignment).value(name, None)


class _Evaluator:
    """Memoizes (system, budget) pairs for one evaluation run."""

    def __init__(self, registry: SystemRegistry, assignment: Mapping[str, float]):
        self._registry = registry
        self._valuation = assignment_valuation(assignment)
        self._memo: dict[tuple[str, int], float] = {}

    def value(self, name: str, budget: Budget) -> float:
        if budget is not None:
            cached = self._memo.get((name, budget))
            if cached is not None:
                return cached
        system = self._registry[name]
        best = 0.0
        for chain in enumerate_chains(system):
            got = _chain_value(chain_atoms(system, chain), budget, self._valuation, self.value)
            if got is not None:
                best = snorm_max(best, got)
        if budget is not None:
            self._memo[(name, budget)] = best
        return best


# --------------------------------------------------------------------------
# Symbolic expansion


@dataclass(frozen=True)
class ExpansionBranch:
    """One surviving chain, calls replaced by expanded child nodes."""

    chain: Chain
    segments: tuple[Union[Var, "ExpansionNode"], ...]

    def has_calls(self) -> bool:
        return any(isinstance(seg, ExpansionNode) for seg in self.segments)

    def flat_terms(self) -> tuple[Term, ...]:
        """Distribute child alternatives over this chain, in order."""
        factor_lists: list[tuple[tuple[Atom, ...], ...]] = []
        for seg in self.segments:
            if isinstance(seg, Var):
                factor_lists.append(((seg,),))
            else:
                factor_lists.append(tuple(t.atoms for t in seg.flat_terms()))
        out = []
        for pick in itertools.product(*factor_lists):
            atoms: tuple[Atom, ...] = ()
            for part in pick:
                atoms = atoms + part
            out.append(Term(atoms))
        return tuple(out)


@dataclass(frozen=True)
class ExpansionNode:
    """A system unrolled at one budget; branches hold the live chains.

    Call-free branches come first (in chain order), then call-bearing
    ones, matching how the rendered expansion reads.
    """

    system: str
    budget: Budget
    branches: tuple[ExpansionBranch, ...]

    def flat_terms(self) -> tuple[Term, ...]:
        out: list[Term] = []
        for branch in self.branches:
            out.extend(branch.flat_terms())
        return tuple(out)


def expansion_tree(registry: SystemRegistry, name: str, budget: Budget = None) -> ExpansionNode:
    """Unroll ``name`` into nested call-free structure at the given budget."""
    if budget is not None:
        _check_budget(budget)
    system = registry[name]
    plain: list[ExpansionBranch] = []
    calling: list[ExpansionBranch] = []
    for chain in enumerate_chains(system):
        segments: list[Union[Var, ExpansionNode]] = []
        dead = False
        for atom in chain_atoms(system, chain):
            if isinstance(atom, Var):
                segments.append(atom)
                continue
            eff = _effective(atom.count, budget)
            if eff < 1:
                dead = True
                break
            segments.append(expansion_tree(registry, atom.target, eff))
        if dead:
            continue
        branch = ExpansionBranch(chain, tuple(segments))
        (calling if branch.has_calls() else plain).append(branch)
    return ExpansionNode(name, budget, tuple(plain) + tuple(calling))


def symbolic_expand(registry: SystemRegistry, name: str, budget: Budget = None) -> FtfExpr:
    """Fully distributed call-free expression for ``name`` at a budget.

    Raw form: term order follows the expansion tree and duplicates are
    kept, so evaluating it reproduces :func:`eval_system` exactly.
    """
    return FtfExpr(expansion_tree(registry, name, budget).flat_terms())


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


def _branch_pieces(
    branch: ExpansionBranch, child_text: Callable[[ExpansionNode], str]
) -> list[tuple[bool, str]]:
    out: list[tuple[bool, str]] = []
    for seg in branch.segments:
        if isinstance(seg, Var):
            out.append((True, seg.name))
        else:
            out.append((False, "(" + child_text(seg) + ")"))
    return out


def render_expansion(node: ExpansionNode) -> str:
    """Nested rendering: one alternative per branch, children in parens."""
    if not node.branches:
        return "0"
    rendered = [
        _compose(_branch_pieces(branch, render_expansion)) for branch in node.branches
    ]
    return " + ".join(rendered)


def _flat_text(node: ExpansionNode) -> str:
    return format_expr(FtfExpr(node.flat_terms()), "paper")


# --------------------------------------------------------------------------
# Tracing


@dataclass(frozen=True)
class TraceEvent:
    def line(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class Enter(TraceEvent):
    system: str
    budget: Budget

    def line(self) -> str:
        shown = "top" if self.budget is None else str(self.budget)
        return f"ENTER system={self.system} budget={shown}"


@dataclass(frozen=True)
class Exit(TraceEvent):
    system: str
    value: float

    def line(self) -> str:
        return f"EXIT system={self.system} value={self.value!r}"


@dataclass(frozen=True)
class PushReturn(TraceEvent):
    label: str

    def line(self) -> str:
        return f"PUSH return={self.label}"


@dataclass(frozen=True)
class PopReturn(TraceEvent):
    label: str

    def line(self) -> str:
        return f"POP return={self.label}"


@dataclass(frozen=True)
class BranchResult(TraceEvent):
    chain: str
    expr: str
    value: float
    sub: str | None = None

    def line(self) -> str:
        middle = f" sub={self.sub}" if self.sub is not None else ""
        return f"BRANCH chain={self.chain}{middle} expr={self.expr} value={self.value!r}"


@dataclass(frozen=True)
class TraceResult:
    value: float
    events: tuple[TraceEvent, ...]

    def lines(self) -> list[str]:
        return [event.line() for event in self.events]


def render_trace(events: Iterable[TraceEvent]) -> str:
    return "\n".join(event.line() for event in events)


def _chain_id(chain: Chain) -> str:
    return "-".join(chain)


def _return_label(atoms: tuple[Atom, ...]) -> str:
    if not atoms:
        return "-"
    return "*".join(str(a) if isinstance(a, Call) else a.name for a in atoms)


def trace_eval(
    registry: SystemRegistry,
    name: str,
    assignment: Mapping[str, float],
) -> TraceResult:
    """Evaluate like :func:`eval_system` while narrating every step.

    Deliberately unmemoized: repeated descents into the same callee are
    part of the story the trace tells, so each one is shown in full.
    Dead chains are silent.  A chain with exactly one live call also
    reports each callee alternative on its own ``sub=`` line before the
    chain's summary; chains with several calls get the summary only.
    """
    registry[name]
    valuation = assignment_valuation(assignment)
    events: list[TraceEvent] = []

    def eval_vars(atoms: Iterable[Var]) -> float:
        value = 1.0
        for atom in atoms:
            value = tnorm_min(value, valuation(atom))
        return value

    def walk(system_name: str, budget: Budget) -> tuple[float, ExpansionNode]:
        system = registry[system_name]
        events.append(Enter(system_name, budget))
        best = 0.0
        plain: list[ExpansionBranch] = []
        calling: list[ExpansionBranch] = []
        for chain in enumerate_chains(system):
            atoms = chain_atoms(system, chain)
            cid = _chain_id(chain)
            call_slots = [i for i, a in enumerate(atoms) if isinstance(a, Call)]
            if not call_slots:
                value = eval_vars(atoms)  # type: ignore[arg-type]
                events.append(BranchResult(cid, format_term(Term(atoms), "paper"), value))
                best = snorm_max(best, value)
                plain.append(ExpansionBranch(chain, atoms))
                continue
            effs = {}
            dead = False
            for i in call_slots:
                eff = _effective(atoms[i].count, budget)  # type: ignore[union-attr]
                if eff < 1:
                    dead = True
                    break
                effs[i] = eff
            if dead:
                continue
            segments: list[Union[Var, ExpansionNode]] = list(atoms)
            chain_val = 1.0
            for i in call_slots:
                label = _return_label(atoms[i + 1 :])
                events.append(PushReturn(label))
                got, node = walk(atoms[i].target, effs[i])  # type: ignore[union-attr]
                events.append(PopReturn(label))
                segments[i] = node
                chain_val = tnorm_min(chain_val, got)
            chain_val = tnorm_min(
                chain_val, eval_vars(a for a in atoms if isinstance(a, Var))
            )
            branch = ExpansionBranch(chain, tuple(segments))
            calling.append(branch)
            if len(call_slots) == 1:
                slot = call_slots[0]
                child = segments[slot]
                assert isinstance(child, ExpansionNode)
                prefix = atoms[:slot]
                suffix = atoms[slot + 1 :]
                around = eval_vars(a for a in atoms if isinstance(a, Var))
                for sub_branch in child.branches:
                    sub_expr = FtfExpr(sub_branch.flat_terms())
                    text = _compose(
                        [(True, a.name) for a in prefix]  # type: ignore[union-attr]
                        + [(False, "(" + format_expr(sub_expr, "paper") + ")")]
                        + [(True, a.name) for a in suffix]  # type: ignore[union-attr]
                    )
                    sub_val = tnorm_min(around, eval_expr(sub_expr, valuation))
                    events.append(
                        BranchResult(cid, text, sub_val, sub=_chain_id(sub_branch.chain))
                    )
            summary = _compose(_branch_pieces(branch, _flat_text))
            events.append(BranchResult(cid, summary, chain_val))
            best = snorm_max(best, chain_val)
        events.append(Exit(system_name, best))
        check_grade(best, "trace value")
        return best, ExpansionNode(system_name, budget, tuple(plain) + tuple(calling))

    value, _ = walk(name, None)
    return TraceResult(value, tuple(events))
