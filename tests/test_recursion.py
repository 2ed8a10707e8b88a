from __future__ import annotations

import functools
import gc
import itertools
import re
import sys
import tracemalloc

import pytest

from conftest import (
    budget_registries,
    grid_system,
    lattice_relations,
    lengthen_some_names,
    reference_canonicalize,
)

from fuzzchain import algebra, recursion
from fuzzchain.algebra import (
    Call,
    FtfExpr,
    Term,
    Var,
    assignment_valuation,
    canonicalize,
    eval_expr,
    format_expr,
    tnorm_min,
)
from fuzzchain.chains import derive_ftf, enumerate_chains
from fuzzchain.checks import random_assignment, random_registry
from fuzzchain.cli import main
from fuzzchain.closure import resolve_matrix, transmission, warshall_closure
from fuzzchain.errors import BindingError, UnknownSystemError
from fuzzchain.oracles import oracle_unroll_eval
from fuzzchain.recursion import (
    BranchResult,
    Enter,
    ExpansionNode,
    Exit,
    PopReturn,
    PushReturn,
    edge_grades,
    eval_system,
    expansion_tree,
    paper_expansion,
    render_expansion,
    resolve_call,
    stabilization_budget,
    symbolic_expand,
    trace_eval,
)
from fuzzchain.rng import SplitMix64
from fuzzchain.systems import (
    FIXTURE_ASSIGNMENT,
    FuzzySystem,
    SystemRegistry,
    builtin_fixtures,
    format_registry,
    parse_registry,
    require_bindings,
)

# One full unroll of psi1_rec at its declared self-call budget of 2: the
# call-free chains first, then each call chain with its callee expanded
# in parentheses.  At the innermost level the budget is spent and only
# the call-free chains survive.
REC2_NESTED = (
    "xz + yw"
    " + x(xz + yw + x(xz + yw)w + y(xz + yw)z)w"
    " + y(xz + yw + x(xz + yw)w + y(xz + yw)z)z"
)
REC2_FLAT = (
    "xz + yw + xxzw + xyww + xxxzww + xxywww + xyxzzw + xyywzw"
    " + yxzz + yywz + yxxzwz + yxywwz + yyxzzz + yyywzz"
)


def test_eval_system_fixture_values(registry, fixture_assignment):
    values = {name: eval_system(registry, name, fixture_assignment) for name in registry.names()}
    assert values == {
        "psi1": 0.6,
        "psi2": 0.6,
        "psi3": 0.6,
        "psi4": 0.5,
        "psi5": 0.5,
        "phi": 0.5,
        "psi1_rec": 0.6,
    }


def _reference_layers(registry, walked, budget, grade):
    """``recursion._layers`` as written before layer 1 was a copy of layer 0:
    every layer is graded."""
    calls = {s: [e.atom for e in registry[s].edges if isinstance(e.atom, Call)] for s in walked}
    called = {call.target for atoms in calls.values() for call in atoms}
    last = max((c.count for c in calls[walked[0]]), default=0) if budget is None else budget - 1
    layers = []
    while len(layers) <= last:
        layer = {s: grade(s, len(layers), layers) for s in walked if s in called}
        if len(layers) >= 2 and layer == layers[-1]:
            break
        layers.append(layer)
    return layers


@pytest.mark.parametrize("seed", range(6))
def test_layers_never_grade_budget_one_and_match_a_table_that_does(seed):
    rng = SplitMix64(seed)
    registries = [
        builtin_fixtures(rec_count=seed),
        random_registry(rng, n_systems=3, max_count=4),
        random_registry(rng, n_systems=1, self_only=True),
    ]
    assignment = {**random_assignment(rng), **FIXTURE_ASSIGNMENT}
    for registry in registries:
        chains = recursion._Chains(registry)
        for name in registry.names():
            walked, grades = require_bindings(registry, name, assignment)
            graders = {
                "grade": lambda s, b, layers: recursion._grade(
                    chains[s], grades, recursion._call_grades(registry[s]._plan, b, layers)
                ),
                "size": lambda s, b, layers: recursion._size(chains[s], b, layers),
            }
            for budget in (None, 0, 1, 2, 3, 5):
                for grader in graders.values():
                    asked = []

                    def grade(s, b, layers):
                        asked.append(b)
                        return grader(s, b, layers)

                    got = recursion._layers(registry, walked, budget, grade)
                    assert 1 not in asked
                    want = _reference_layers(registry, walked, budget, grader)
                    assert got == want, (name, budget)


def test_unknown_system_and_bad_budget(registry, fixture_assignment):
    with pytest.raises(UnknownSystemError):
        eval_system(registry, "psi9", fixture_assignment)
    with pytest.raises(UnknownSystemError):
        resolve_call(registry, "psi9", 1, fixture_assignment)
    with pytest.raises(ValueError, match="budget must be >= 0"):
        resolve_call(registry, "psi1", -1, fixture_assignment)
    for expand in (expansion_tree, symbolic_expand):
        with pytest.raises(ValueError, match=r"^call budget must be >= 0, got -5$"):
            expand(registry, "psi1_rec", -5)


BUDGETED = {
    "resolve_call": lambda r, b: resolve_call(r, "psi1_rec", b, FIXTURE_ASSIGNMENT),
    "call_layers": lambda r, b: recursion.call_layers(r, "psi1_rec", FIXTURE_ASSIGNMENT, b),
    "expansion_tree": lambda r, b: expansion_tree(r, "psi1_rec", b),
    "symbolic_expand": lambda r, b: symbolic_expand(r, "psi1_rec", b),
}


@pytest.mark.parametrize("budget", [2.5, 2.0, True, "3", -5])
@pytest.mark.parametrize("route", sorted(BUDGETED))
def test_every_budgeted_entry_point_refuses_what_is_not_a_budget(registry, route, budget):
    if budget == -5:
        want = "call budget must be >= 0, got -5"
    else:  # a float, a bool or a string is not a count of calls
        want = f"call budget must be an integer or None, got {budget!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        BUDGETED[route](registry, budget)


# Every route that takes an assignment, called the same way.
ROUTES = {
    "eval_system": eval_system,
    "resolve_call": lambda registry, name, assignment: resolve_call(
        registry, name, 2, assignment
    ),
    "trace_eval": trace_eval,
    "resolve_matrix": resolve_matrix,
    "transmission": transmission,
}

BINDING_CASES = {
    # an edge no chain uses still needs its variable
    "disconnected": ("system s {\n terminals A -> B\n edge A B x\n edge C D q\n}\n", "s"),
    # so does a callee's, even behind a count-0 call that never runs
    "callee": (
        "system t {\n terminals A -> B\n edge A B q\n}\n"
        "system s {\n terminals A -> B\n edge A B x\n edge A C call t 0\n}\n",
        "s",
    ),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("case", sorted(BINDING_CASES))
def test_every_route_requires_every_reachable_binding(route, case):
    text, name = BINDING_CASES[case]
    registry = parse_registry(text)
    with pytest.raises(BindingError, match=r"^missing binding for variable 'q'$"):
        ROUTES[route](registry, name, {"x": 0.4})
    # bound, the unused variable changes nothing
    got = ROUTES[route](registry, name, {"x": 0.4, "q": 0.9})
    if route != "resolve_matrix":
        assert getattr(got, "value", got) == 0.4


# ROUTES, and the symbolic routes, which take no assignment.
TARGET_ROUTES = {
    **ROUTES,
    "symbolic_expand": lambda registry, name, assignment: symbolic_expand(registry, name),
    "expansion_tree": lambda registry, name, assignment: expansion_tree(registry, name),
}


CLOSED_ROUTES = {
    **ROUTES,
    "closure": lambda registry, name, assignment: warshall_closure(
        resolve_matrix(registry, name, assignment)[1]
    ),
}

INT_BINDINGS_TEXT = """
system s {
 terminals A -> B
 edge A B x
 edge A C y
 edge C B z
}
system u {
 terminals A -> B
 edge A C call s 1
 edge C B y
}
"""


@pytest.mark.parametrize(
    "assignment",
    [
        {"x": -0.0, "y": 1.0, "z": -0.0},
        {"x": 0, "y": 1, "z": 0},
        {"x": -0.0, "y": 1, "z": 1},
        {"x": 1, "y": 0, "z": 0},
    ],
)
@pytest.mark.parametrize("route", sorted(CLOSED_ROUTES))
def test_signed_zero_and_int_bindings_answer_plain_floats_on_every_route(route, assignment):
    # -0.0 reads as 0.0 and an int as its float, so no answer holds a -0.0:
    # not a grade, a grid cell, nor a trace's value or any event's
    registry = parse_registry(INT_BINDINGS_TEXT)
    plain = {name: abs(float(grade)) for name, grade in assignment.items()}
    for name in ("s", "u"):
        got = repr(CLOSED_ROUTES[route](registry, name, assignment))
        assert got == repr(CLOSED_ROUTES[route](registry, name, plain)), name
        assert "-0.0" not in got, name


@pytest.mark.parametrize("route", sorted(TARGET_ROUTES))
def test_every_route_rejects_an_unknown_call_target(route):
    # the unknown target sits only behind a dead call
    registry = parse_registry(
        "system s {\n terminals A -> B\n edge A B x\n edge A C call ghost 0\n}\n"
    )
    with pytest.raises(UnknownSystemError, match="'ghost'"):
        TARGET_ROUTES[route](registry, "s", {"x": 0.4})
    # an unbound variable of the root is still reported first
    if route in ROUTES:
        with pytest.raises(BindingError, match=r"^missing binding for variable 'x'$"):
            ROUTES[route](registry, "s", {})


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("grade", [1.5, -0.1, float("nan")])
def test_every_route_rejects_an_out_of_range_grade(route, grade):
    registry = parse_registry("system s {\n terminals A -> B\n edge A B x\n}\n")
    message = re.escape(f"binding for 'x' out of range [0, 1]: {grade!r}")
    with pytest.raises(BindingError, match=f"^{message}$"):
        ROUTES[route](registry, "s", {"x": grade})
    # an unused variable, or one behind a count-0 call, is held to the range too
    for text, name in BINDING_CASES.values():
        with pytest.raises(BindingError, match=r"^binding for 'q' out of range"):
            ROUTES[route](parse_registry(text), name, {"x": 0.4, "q": grade})


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("grade", [None, "0.3", "abc", [0.3], True, False], ids=repr)
def test_every_route_rejects_a_binding_that_is_not_a_number(route, grade):
    registry = parse_registry("system s {\n terminals A -> B\n edge A B x\n}\n")
    message = re.escape(f"binding for 'x' is not a number: {grade!r}")
    with pytest.raises(BindingError, match=f"^{message}$"):
        ROUTES[route](registry, "s", {"x": grade})


# Each case is a registry, the assignment and the first problem every route
# reports: systems breadth-first from "s", edges in declaration order.
FIRST_BINDING_PROBLEM = {
    # x sits on two edges; it is checked where it is first met
    "repeated-bad": (
        "system s {\n terminals A -> B\n edge A C x\n edge C B y\n edge A B x\n}\n",
        {"x": 1.5, "y": -0.1},
        "binding for 'x' out of range [0, 1]: 1.5",
    ),
    "repeated-good": (
        "system s {\n terminals A -> B\n edge A C x\n edge C B y\n edge A B x\n}\n",
        {"x": 0.4, "y": -0.1},
        "binding for 'y' out of range [0, 1]: -0.1",
    ),
    "missing-after-valid": (
        "system s {\n terminals A -> B\n edge A C x\n edge C B q\n}\n",
        {"x": 0.4},
        "missing binding for variable 'q'",
    ),
    "bad-before-missing": (
        "system s {\n terminals A -> B\n edge A C x\n edge C B q\n}\n",
        {"x": 1.5},
        "binding for 'x' out of range [0, 1]: 1.5",
    ),
    "in-callee": (
        "system t {\n terminals A -> B\n edge A C x\n edge C B q\n}\n"
        "system s {\n terminals A -> B\n edge A C call t 1\n edge C B y\n}\n",
        {"x": 0.4, "y": 0.5, "q": float("nan")},
        "binding for 'q' out of range [0, 1]: nan",
    ),
    # the root's edges come before its callee's, whatever the edge order
    "root-before-callee": (
        "system t {\n terminals A -> B\n edge A C x\n edge C B q\n}\n"
        "system s {\n terminals A -> B\n edge A C call t 1\n edge C B y\n}\n",
        {"x": 0.4, "y": 1.5},
        "binding for 'y' out of range [0, 1]: 1.5",
    ),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("case", sorted(FIRST_BINDING_PROBLEM))
def test_every_route_reports_the_same_first_binding_problem(route, case):
    text, assignment, message = FIRST_BINDING_PROBLEM[case]
    with pytest.raises(BindingError) as raised:
        ROUTES[route](parse_registry(text), "s", assignment)
    assert type(raised.value) is BindingError and str(raised.value) == message


def test_stabilization_budget(registry, variant_registry):
    assert stabilization_budget(registry) == 3  # psi1_rec declares count 2
    assert stabilization_budget(variant_registry) == 3


def test_budget_staircase_on_variant(variant_registry, deep_assignment):
    assignment = dict(deep_assignment, xbar=0.95)
    values = [resolve_call(variant_registry, "psi1v", k, assignment) for k in range(7)]
    # dead call below budget 2, full strength from there on
    assert values == [0.2, 0.2, 0.8, 0.8, 0.8, 0.8, 0.8]
    assert eval_system(variant_registry, "psi1v", assignment) == 0.8
    assert eval_system(variant_registry, "psi1", assignment) == 0.8


def test_a_callee_whose_own_call_needs_budget_two():
    # t's call is dead at budgets 0 and 1, so its layers 0 and 1 agree; a
    # table that stopped there would give r the weak value 0.2 at the top
    registry = parse_registry(
        "system u {; terminals A -> B; edge A B x; }\n"
        "system t {; terminals A -> B; edge A B y; edge A C call u 1; edge C B x; }\n"
        "system r {; terminals A -> B; edge A B call t 3; }\n"
    )
    assignment = {"x": 0.9, "y": 0.2}
    values = [resolve_call(registry, "r", k, assignment) for k in range(7)]
    assert values == [0.0, 0.0, 0.2, 0.9, 0.9, 0.9, 0.9]
    assert values == [oracle_unroll_eval(registry, "r", assignment, budget=k) for k in range(7)]
    assert eval_system(registry, "r", assignment) == 0.9
    assert resolve_matrix(registry, "r", assignment)[1] == [[1.0, 0.9], [0.9, 1.0]]


EDGE_GRADES_TEXT = """
system t {
 terminals A -> B
 edge A B x
 edge A C y
 edge C B z
}
system s {
 terminals P -> Q
 edge R Q x
 edge P R call t 2
 edge P Q call t 0
 edge R S call s 3
 edge S Q y
 edge P S z
}
"""


def test_edge_grades_resolve_each_edge_at_the_plan_indices():
    registry = parse_registry(EDGE_GRADES_TEXT)
    assignment = {"x": -0.0, "y": 1, "z": 0.4}
    system = registry["s"]
    got = edge_grades(registry, "s", assignment)
    # one (u index, v index, grade) per edge, in declaration order
    assert system.vertices == ("P", "Q", "R", "S")
    assert [(u, v) for u, v, _grade in got] == [(2, 1), (0, 2), (0, 1), (2, 3), (3, 1), (0, 3)]
    assert [(u, v) for u, v, _grade in got] == list(zip(system._plan.us, system._plan.vs))
    # a variable reads its checked grade, a count-0 call 0.0 (though t
    # itself answers 0.4 at budget 0), any other call its callee's value
    # at the declared count
    grades = [grade for _u, _v, grade in got]
    assert grades == [0.0, 0.4, 0.0, 0.4, 1.0, 0.4]
    assert resolve_call(registry, "t", 0, assignment) == 0.4
    for (_u, _v, grade), edge in zip(got, system.edges):
        if isinstance(edge.atom, Call) and edge.atom.count:
            call = edge.atom
            assert grade == resolve_call(registry, call.target, call.count, assignment)
    # -0.0 and int bindings come back as plain floats
    assert all(type(grade) is float for grade in grades)
    assert "-0.0" not in repr(got)


def test_self_call_budget_is_irrelevant(registry, fixture_assignment, deep_assignment):
    # a system whose only call targets itself evaluates as if the call
    # edge were deleted, at every budget
    for assignment in (fixture_assignment, deep_assignment):
        floor = resolve_call(registry, "psi1_rec", 0, assignment)
        for k in range(1, 7):
            assert resolve_call(registry, "psi1_rec", k, assignment) == floor
        assert eval_system(registry, "psi1_rec", assignment) == floor


def test_values_stabilize_at_registry_ceiling(registry, fixture_assignment):
    ceiling = stabilization_budget(registry)
    for name in registry.names():
        stabilized = resolve_call(registry, name, ceiling, fixture_assignment)
        assert eval_system(registry, name, fixture_assignment) == stabilized
        assert resolve_call(registry, name, ceiling + 3, fixture_assignment) == stabilized


def test_expansion_tree_structure(registry):
    tree = expansion_tree(registry, "psi1_rec")
    assert tree.system == "psi1_rec"
    assert tree.budget is None

    def ids(branches):
        return ["-".join(b.chain) for b in branches]

    # branches keep chain order; presentation puts the call-free ones first
    assert ids(tree.branches) == ["A-D-B", "A-D-C-B", "A-C-B", "A-C-D-B"]
    assert ids(tree.presentation_order()) == ["A-D-B", "A-C-B", "A-D-C-B", "A-C-D-B"]
    assert [b.has_calls() for b in tree.branches] == [False, True, False, True]
    assert tree.branches[1].atoms == (Var("x"), Call("psi1_rec", 2), Var("w"))
    child = tree.branches[1].segments[1]
    assert child.system == "psi1_rec"
    assert child.budget == 2
    assert tree.branches[3].segments[1] is child  # one node per (system, budget)
    grandchild = child.branches[1].segments[1]
    assert grandchild.budget == 1
    assert child.branches[3].segments[1] is grandchild
    assert len(grandchild.branches) == 2  # deeper calls are dead


def _dag_nodes(root: ExpansionNode) -> dict[int, ExpansionNode]:
    """Every distinct node reachable from ``root``, by ``id``."""
    nodes = {}
    pending = [root]
    while pending:
        node = pending.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            pending.extend(
                seg
                for branch in node.branches
                for seg in branch.segments
                if isinstance(seg, ExpansionNode)
            )
    return nodes


def test_expansion_dag_has_one_node_per_budget():
    registry = builtin_fixtures(rec_count=8)
    nodes = _dag_nodes(expansion_tree(registry, "psi1_rec"))
    assert len(nodes) == 9
    assert {node.budget for node in nodes.values()} == {None, *range(1, 9)}
    # flattening stays exponential: T(b) = 2 + 2 T(b - 1), T(1) = 2
    assert len(symbolic_expand(registry, "psi1_rec").terms) == 2 ** (8 + 2) - 2


def _ladder(depth: int, bottom: str) -> SystemRegistry:
    """``s0`` is one ``bottom`` edge; each ``s{k}`` calls ``s{k-1}`` twice
    in a row, with budget to spare, so the DAG has ``depth + 1`` nodes
    and 2**depth paths."""
    lines = [f"system s0 {{\n  terminals A -> B\n  edge A B {bottom}\n}}"]
    for k in range(1, depth + 1):
        lines.append(
            f"system s{k} {{\n  terminals A -> B\n  edge A C call s{k - 1} {depth + 1}\n"
            f"  edge C B call s{k - 1} {depth + 1}\n  edge A B w\n}}"
        )
    return parse_registry("\n".join(lines))


def test_expansion_dags_compare_and_hash_by_identity(monkeypatch):
    # the tree has 2**40 paths, and no == or hash may walk it; each
    # answer is kept as a bool, so a failing assert prints no tree
    monkeypatch.setattr(algebra, "MAX_EXPANSION", 2**64)

    def unavailable(root):
        raise AssertionError("walked the DAG")

    first = expansion_tree(builtin_fixtures(rec_count=40), "psi1_rec")
    second = expansion_tree(builtin_fixtures(rec_count=40), "psi1_rec")
    with monkeypatch.context() as patch:
        patch.setattr(recursion, "_callees_first", unavailable)
        itself = first == first and hash(first) == hash(first)
        twins = first == second or len({first, second}) != 2
    assert itself and not twins

    # separately built trees compare through their renderings, which
    # hold every path, so at counts whose texts fit
    def rendered(registry: SystemRegistry, name: str) -> str:
        return render_expansion(expansion_tree(registry, name))

    assert rendered(builtin_fixtures(rec_count=8), "psi1_rec") == rendered(
        builtin_fixtures(rec_count=8), "psi1_rec"
    )
    assert rendered(builtin_fixtures(rec_count=8), "psi1_rec") != rendered(
        builtin_fixtures(rec_count=7), "psi1_rec"
    )
    assert rendered(_ladder(12, "x"), "s12") == rendered(_ladder(12, "x"), "s12")
    assert rendered(_ladder(12, "x"), "s12") != rendered(_ladder(12, "y"), "s12")


def test_trace_composes_its_texts_without_building_or_formatting_terms(
    monkeypatch, fixture_assignment
):
    formatted = []
    format_term = recursion.format_term

    def counting(*args):
        formatted.append(args)
        return format_term(*args)

    entered = []
    enter_init = Enter.__init__

    def counting_enters(self, *args):
        entered.append(args)
        enter_init(self, *args)

    narrated = []
    branch_pieces = recursion._branch_pieces

    def recording(branch, texts):
        narrated.append(branch)
        return branch_pieces(branch, texts)

    built = []
    term_init = Term.__init__

    def counting_terms(self, *args):
        built.append(args)
        term_init(self, *args)

    monkeypatch.setattr(recursion, "format_term", counting)
    monkeypatch.setattr(Term, "__init__", counting_terms)
    monkeypatch.setattr(Enter, "__init__", counting_enters)
    monkeypatch.setattr(recursion, "_branch_pieces", recording)
    result = trace_eval(builtin_fixtures(rec_count=8), "psi1_rec", fixture_assignment)
    assert len(result.events) == 5102
    # each of the 9 nodes and 34 branches is narrated once
    assert len(entered) == len(set(entered)) == 9
    assert len(narrated) == len({id(b) for b in narrated}) == 34
    # the only terms built and formatted are the return labels, the atoms
    # after each call of a narrated branch
    labels = [
        branch.atoms[i + 1 :]
        for branch in narrated
        for i, seg in enumerate(branch.segments)
        if isinstance(seg, ExpansionNode) and branch.atoms[i + 1 :]
    ]
    assert labels and built == [(atoms,) for atoms in labels]
    assert formatted == [(Term(atoms),) for atoms in labels]


def _branch_terms(registry, branch) -> list[Term]:
    """A branch's flat terms, distributed here from each child node's
    :func:`symbolic_expand`."""
    factors = [
        symbolic_expand(registry, seg.system, seg.budget).terms
        if isinstance(seg, ExpansionNode)
        else (Term((seg,)),)
        for seg in branch.segments
    ]
    return [Term(tuple(a for t in pick for a in t.atoms)) for pick in itertools.product(*factors)]


def test_paper_texts_equal_the_formatted_flat_terms():
    rng = SplitMix64(4242)
    tight = loose = 0
    for _ in range(200):
        registry = random_registry(rng, n_systems=3, max_vertices=5, max_count=3, call_chance=(1, 2))
        registry, _ = lengthen_some_names(rng, registry, random_assignment(rng))
        name = registry.names()[-1]
        nodes = recursion._unroll(registry, name, None, None, 0, "flat terms")[0]
        texts = recursion._paper_texts(nodes, every=True)  # the memo: callees first
        # the paper route keeps the root's text alone
        assert recursion._paper_texts(nodes) == {nodes[-1]: texts[nodes[-1]]}
        for node in nodes:
            flat = symbolic_expand(registry, node.system, node.budget)
            for record, terms in [
                (node, flat.terms),
                *((branch, _branch_terms(registry, branch)) for branch in node.branches),
            ]:
                assert texts[record] == format_expr(FtfExpr(tuple(terms)), "paper")
                flags = [all(len(a.name) == 1 for a in t.atoms) for t in terms]
                tight += sum(flags)
                loose += len(flags) - sum(flags)
    assert tight >= 300 and loose >= 300


def test_the_paper_expansion_is_the_formatted_flat_expansion():
    rng = SplitMix64(5)
    cases = skipping = 0
    for _ in range(150):
        registry = random_registry(rng, n_systems=3, max_vertices=5, max_count=3, call_chance=(1, 2))
        registry, _ = lengthen_some_names(rng, registry, random_assignment(rng))
        for name in registry.names():
            for budget in (None, 0, 2, 3):
                flat = symbolic_expand(registry, name, budget)
                assert paper_expansion(registry, name, budget) == format_expr(flat, "paper")
                nodes, _grades, layers = recursion._unroll(registry, name, budget, None, 0, "")
                skipping += len(recursion._distributed(nodes, layers)) < len(nodes)
                cases += 1
    assert cases >= 1000 and skipping >= 50  # many leave a node undistributed
    for count in (2, 8, 12):
        registry = builtin_fixtures(rec_count=count)
        flat = symbolic_expand(registry, "psi1_rec")
        assert paper_expansion(registry, "psi1_rec") == format_expr(flat, "paper")


def test_expand_in_paper_mode_builds_no_term(monkeypatch, capsys):
    want = format_expr(symbolic_expand(builtin_fixtures(rec_count=8), "psi1_rec"), "paper")

    def no_terms(self, *args):
        raise AssertionError("a term was built")

    monkeypatch.setattr(Term, "__init__", no_terms)
    assert main(["expand", "--rec-count", "8", "--mode", "paper"]) == 0
    assert capsys.readouterr().out == want + "\n"


def test_expand_in_paper_mode_distributes_no_node_behind_an_empty_factor(
    monkeypatch, tmp_path, capsys
):
    # psi1_rec@20 has about 2^22 flat terms, but dead has none, so the
    # chain through both has none and psi1_rec's must never be composed
    registry = builtin_fixtures(rec_count=20)
    registry.add(FuzzySystem.build("dead", "A", "B", [("A", "C", Var("x"))]))
    registry.add(
        FuzzySystem.build(
            "top", "A", "B", [("A", "C", Call("psi1_rec", 20)), ("C", "B", Call("dead", 1))]
        )
    )
    path = tmp_path / "registry.fz"
    path.write_text(format_registry(registry), encoding="utf-8")
    given = []
    paper_texts = recursion._paper_texts

    def only_the_root(nodes):
        given.append([(node.system, node.budget) for node in nodes])
        assert given == [[("top", None)]]  # checked before any text is composed
        return paper_texts(nodes)

    monkeypatch.setattr(recursion, "_paper_texts", only_the_root)
    argv = ["expand", "--fixtures", str(path), "--system", "top", "--mode", "paper"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "0\n"
    assert given == [[("top", None)]]


def test_canonicalize_sorts_one_term_per_atom_identity_set(monkeypatch):
    flat = symbolic_expand(builtin_fixtures(rec_count=12), "psi1_rec")
    assert len(flat.terms) == 16382
    want = [reference_canonicalize(flat, simplify) for simplify in (False, True)]
    sorted_terms = []
    canonical = Term.canonical

    def counting(term):
        sorted_terms.append(term)
        return canonical(term)

    monkeypatch.setattr(Term, "canonical", counting)
    for simplify, expected in zip((False, True), want):
        sorted_terms.clear()
        assert canonicalize(flat, simplify) == expected
        # the expansion reuses the fixture's atom objects: 7 identity sets
        assert 0 < len(sorted_terms) <= 7


def _outputs(registry, name, budget, assignment):
    """What the layered size predicts, counted on the outputs themselves."""
    terms = len(symbolic_expand(registry, name, budget).terms)
    # each child occurrence is one parenthesized group
    nested = 1 + render_expansion(expansion_tree(registry, name, budget)).count("(")
    if budget is not None:
        return terms, nested
    return terms, nested, len(trace_eval(registry, name, assignment).events)


def test_sizes_predict_every_output_of_the_expansion(fixture_assignment):
    seen = {}
    for count in range(9):
        registry = builtin_fixtures(rec_count=count)
        size = recursion._sized(registry, "psi1_rec", None, None)[0]
        assert size[:3] == _outputs(registry, "psi1_rec", None, fixture_assignment)
        seen[count] = (size[0], size[2])
    assert (seen[3], seen[5], seen[8]) == ((30, 142), (126, 622), (1022, 5102))


def test_layered_size_matches_the_outputs_of_random_registries():
    rng = SplitMix64(5772)
    cases = nested = 0
    while cases < 1000:
        registry = random_registry(rng, n_systems=rng.randint(1, 3), max_vertices=5, max_count=4)
        assignment = random_assignment(rng)
        for name in registry.names():
            budget = rng.choice([None, None, 0, 1, 2, 3, 4])
            size = recursion._sized(registry, name, budget, None)[0]
            if size[0] > 5000:
                continue  # keep the flattening cheap
            assert size[: 3 if budget is None else 2] == _outputs(
                registry, name, budget, assignment
            ), (name, budget)
            cases += 1
            nested += size[0] > 0 and size[1] > 1
    assert nested >= 100  # many cases expand a live call


def test_deep_self_call_is_refused_before_any_node_is_built(monkeypatch, fixture_assignment):
    registry = builtin_fixtures(rec_count=10**6)

    def no_nodes(*args):
        raise AssertionError("an expansion node was built")

    monkeypatch.setattr(recursion, "_expansion_node", no_nodes)
    cap = "expansion too large: over the cap of 1048576"
    routes = [
        ("flat terms", lambda: symbolic_expand(registry, "psi1_rec")),
        ("nested nodes", lambda: expansion_tree(registry, "psi1_rec")),
        ("trace events", lambda: trace_eval(registry, "psi1_rec", fixture_assignment)),
        ("flat terms", lambda: paper_expansion(registry, "psi1_rec")),
    ]
    for what, route in routes:
        with pytest.raises(ValueError, match=f"^{cap} {what}$"):
            route()


def test_expansion_past_the_cap_is_refused(monkeypatch, fixture_assignment):
    registry = builtin_fixtures(rec_count=3)  # 30 terms, 15 nested nodes, 142 events
    routes = [
        (30, "flat terms", lambda: symbolic_expand(registry, "psi1_rec")),
        (15, "nested nodes", lambda: render_expansion(expansion_tree(registry, "psi1_rec"))),
        (142, "trace events", lambda: trace_eval(registry, "psi1_rec", fixture_assignment)),
    ]
    for size, what, route in routes:
        monkeypatch.setattr(algebra, "MAX_EXPANSION", size)
        route()  # at the cap is allowed
        monkeypatch.setattr(algebra, "MAX_EXPANSION", size - 1)
        refusal = f"expansion too large: over the cap of {size - 1} {what}"
        with pytest.raises(ValueError, match=refusal):
            route()


def test_doubly_exponential_expansion_is_sized_without_blowing_up(fixture_assignment):
    def squaring(count):
        # two self-calls on one chain square the flat-term count at each level
        return parse_registry(
            f"""
            system s {{
              terminals A -> B
              edge A B x
              edge A C call s {count}
              edge C B call s {count}
            }}
            """
        )

    assert recursion._sized(squaring(60), "s", None, None)[0][0] == algebra.MAX_EXPANSION + 1
    # at count 7 the trace tells a short story, but each call's expr= text
    # would list the callee's 2 * 10^11 flat terms
    registry = squaring(7)
    assert recursion._sized(registry, "s", None, None)[0][2] == 1400
    with pytest.raises(ValueError, match="over the cap of 1048576 flat terms in one call"):
        trace_eval(registry, "s", fixture_assignment)
    with pytest.raises(ValueError, match="over the cap of 1048576 flat terms$"):
        symbolic_expand(registry, "s")


def test_render_expansion_nested_and_flat(registry):
    assert render_expansion(expansion_tree(registry, "psi1_rec")) == REC2_NESTED
    assert format_expr(symbolic_expand(registry, "psi1_rec"), "paper") == REC2_FLAT


def _narrow_chain(depth: int) -> SystemRegistry:
    """``s`` is ``y``, or ``x`` followed by a call of itself at ``depth``:
    a chain of ``depth + 1`` nodes, one branch wide."""
    return parse_registry(
        "system s {\n  terminals A -> B\n  edge A B y\n  edge A C x\n"
        f"  edge C B call s {depth}\n}}\n"
    )


def _reference_nested(node: ExpansionNode) -> str:
    """The nested rendering, written the way it reads: one recursive
    call per child, shared nodes rendered again at every call."""
    alternatives = []
    for branch in node.presentation_order():
        pieces = [
            (True, seg.name) if isinstance(seg, Var) else (False, f"({_reference_nested(seg)})")
            for seg in branch.segments
        ]
        tight = all(len(text) == 1 for plain, text in pieces if plain)
        alternatives.append(("" if tight else "*").join(text for _, text in pieces))
    return " + ".join(alternatives) or "0"


def _deep_tree(depth: int) -> ExpansionNode:
    """The narrow chain's tree.  The builder recurses, and from a fresh
    process it reaches depth 992 under the default limit; the test
    runner's frames sit below this one, so it builds under a raised
    limit, and the limit is back to its value before the tree is read."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 500)
    try:
        return expansion_tree(_narrow_chain(depth), "s")
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("depth", [1, 2, 330, 331, 400, 495])
def test_nested_rendering_of_a_narrow_chain_does_not_recurse(depth):
    tree = _deep_tree(depth)
    assert render_expansion(tree) == "y + x(" * depth + "y" + ")" * depth


def test_nested_rendering_matches_a_recursive_reference():
    for count in range(10):
        tree = expansion_tree(builtin_fixtures(rec_count=count), "psi1_rec")
        assert render_expansion(tree) == _reference_nested(tree), count
    rng = SplitMix64(5150)
    loose = 0
    for _ in range(150):
        registry = random_registry(rng, n_systems=3, max_vertices=5, max_count=3, call_chance=(1, 2))
        registry, _ = lengthen_some_names(rng, registry, random_assignment(rng))
        for name in registry.names():
            for budget in (None, 0, 1, 2, 3):
                tree = expansion_tree(registry, name, budget)
                text = render_expansion(tree)
                assert text == _reference_nested(tree), (name, budget)
                loose += "*" in text
    assert loose >= 100


def test_expansion_with_spent_budget_shows_the_base_case(registry):
    node = expansion_tree(registry, "psi1_rec", budget=0)
    assert render_expansion(node) == "xz + yw"
    assert render_expansion(expansion_tree(registry, "psi1_rec", budget=1)) == "xz + yw"


def test_expansion_of_a_system_with_no_live_chains():
    registry = parse_registry(
        """
        system s {
          terminals A -> B
          edge A B call s 1
        }
        """
    )
    assert render_expansion(expansion_tree(registry, "s", budget=0)) == "0"
    assert resolve_call(registry, "s", 0, {}) == 0.0
    assert eval_system(registry, "s", {}) == 0.0  # the self-call can never bottom out


def test_a_branch_with_an_empty_factor_builds_no_callee_terms():
    # psi1_rec@20 has about 2^22 flat terms, but dead has none, so their
    # product is empty and psi1_rec's terms must never be built
    registry = builtin_fixtures(rec_count=20)
    registry.add(FuzzySystem.build("dead", "A", "B", [("A", "C", Var("x"))]))
    registry.add(
        FuzzySystem.build(
            "top", "A", "B", [("A", "C", Call("psi1_rec", 20)), ("C", "B", Call("dead", 1))]
        )
    )
    assert recursion._sized(registry, "psi1_rec", 20, None)[0][0] > algebra.MAX_EXPANSION
    tracemalloc.start()
    try:
        assert symbolic_expand(registry, "top") == FtfExpr(())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    # the DAG symbolic_expand flattens; its nested rendering is over the cap
    root = recursion._unroll(registry, "top", None, None, 0, "flat terms")[0][-1]
    rec_nodes = [node for node in _dag_nodes(root).values() if node.system == "psi1_rec"]
    assert len(rec_nodes) == 20


def test_symbolic_expand_evaluates_like_the_engine(registry, fixture_assignment, deep_assignment):
    for name in registry.names():
        for assignment in (fixture_assignment, dict(deep_assignment, xbar=0.5)):
            flat = symbolic_expand(registry, name, None)
            value = eval_expr(flat, assignment_valuation(assignment))
            assert value == eval_system(registry, name, assignment)


def test_flat_routes_drop_each_callee_after_its_last_caller(monkeypatch):
    """On a narrow call chain every node has one caller, so the trace's
    event lists and the flat routes' term lists hold at most two nodes at
    a time, not one per call level."""
    registry = parse_registry(
        "system s {\n  terminals A -> B\n  edge A B y\n  edge A C x\n  edge C B call s 60\n}\n"
    )
    held = []
    release = recursion._release

    def watching(memo, callers, branch):
        release(memo, callers, branch)
        held.append(len(memo))

    monkeypatch.setattr(recursion, "_release", watching)
    trace_eval(registry, "s", {"x": 0.5, "y": 0.25})
    symbolic_expand(registry, "s")
    paper_expansion(registry, "s")
    assert len(held) > 3 * 60 and max(held) <= 2


def test_trace_on_a_call_free_system(registry, fixture_assignment):
    result = trace_eval(registry, "psi1", fixture_assignment)
    assert result.value == 0.6
    lines = result.lines()
    assert lines[0] == "ENTER system=psi1 budget=top"
    assert lines[1] == "BRANCH chain=A-D-B expr=xz value=0.3"
    assert lines[2] == "BRANCH chain=A-D-C-B expr=x*xbar*w value=0.3"
    assert lines[3] == "BRANCH chain=A-C-B expr=yw value=0.6"
    assert lines[4] == "BRANCH chain=A-C-D-B expr=y*xbar*z value=0.5"
    assert lines[5] == "EXIT system=psi1 value=0.6"
    assert len(lines) == 6
    assert not [e for e in result.events if isinstance(e, (PushReturn, PopReturn))]


def test_trace_recursive_descent(registry, deep_assignment):
    result = trace_eval(registry, "psi1_rec", deep_assignment)
    assert result.value == 0.2
    lines = result.lines()
    assert lines[0] == "ENTER system=psi1_rec budget=top"
    assert lines[-1] == "EXIT system=psi1_rec value=0.2"
    # each chain with one live call reports every callee alternative
    assert "BRANCH chain=A-D-C-B sub=A-C-B expr=x(yw)w value=0.2" in lines
    assert "BRANCH chain=A-C-D-B sub=A-D-C-B expr=y(xxzw + xyww)z value=0.1" in lines
    assert (
        "BRANCH chain=A-C-D-B expr=y(xz + yw + xxzw + xyww + yxzz + yywz)z value=0.1"
        in lines
    )


def test_trace_stack_is_balanced_and_nested(registry, deep_assignment):
    events = trace_eval(registry, "psi1_rec", deep_assignment).events
    stack = []
    for event in events:
        if isinstance(event, PushReturn):
            stack.append(event.label)
        elif isinstance(event, PopReturn):
            assert stack.pop() == event.label  # strictly LIFO
    assert stack == []
    # the outer descent through A-C-D-B (return z) contains an inner one
    # through A-D-C-B (return w)
    labels = [
        ("push" if isinstance(e, PushReturn) else "pop", e.label)
        for e in events
        if isinstance(e, (PushReturn, PopReturn))
    ]
    want = [("push", "z"), ("push", "w"), ("pop", "w"), ("pop", "z")]
    position = 0
    for item in labels:
        if position < len(want) and item == want[position]:
            position += 1
    assert position == len(want)


def test_trace_is_not_memoized(registry, deep_assignment):
    events = trace_eval(registry, "psi1_rec", deep_assignment).events
    enters = [e for e in events if isinstance(e, Enter)]
    exits = [e for e in events if isinstance(e, Exit)]
    # 1 top entry, 2 full budget-2 descents, each holding 2 budget-1 descents
    assert len(enters) == len(exits) == 7
    assert [e.budget for e in enters] == [None, 2, 1, 1, 2, 1, 1]


def test_trace_narrates_each_branch_once(monkeypatch, fixture_assignment):
    registry = builtin_fixtures(rec_count=8)
    narrated = []
    branch_pieces = recursion._branch_pieces

    def counting(branch, texts):
        narrated.append(branch)
        return branch_pieces(branch, texts)

    monkeypatch.setattr(recursion, "_branch_pieces", counting)
    result = trace_eval(registry, "psi1_rec", fixture_assignment)
    nodes = _dag_nodes(expansion_tree(registry, "psi1_rec")).values()
    # the parent walked 1 532 branches; the DAG holds 34
    assert len(narrated) == sum(len(node.branches) for node in nodes) == 34
    assert len({id(b) for b in narrated}) == 34
    assert len(result.events) == 5102  # every call is still told in full


def test_trace_sub_values_follow_the_flat_terms_under_signed_zeros():
    # a sub= line's value is min(around, value of the callee alternative's
    # flat terms), with a -0.0 binding read as 0.0: no line answers -0.0
    rng = SplitMix64(2029)
    checked = signed = negative = 0
    while checked < 300:
        registry = random_registry(rng, n_systems=2, max_vertices=5, max_count=3, call_chance=(1, 2))
        name = registry.names()[-1]
        assignment = random_assignment(rng)
        for var in assignment:
            if rng.chance(1, 3):
                assignment[var] = rng.choice([0.0, -0.0])
        negative += "-0.0" in map(repr, assignment.values())
        valuation = assignment_valuation({var: abs(grade) for var, grade in assignment.items()})
        want = {}
        for node in _dag_nodes(expansion_tree(registry, name)).values():
            for branch in node.branches:
                if _calls(branch) != 1:
                    continue
                around = 1.0
                for atom in branch.atoms:
                    if isinstance(atom, Var):
                        around = tnorm_min(around, valuation(atom))
                (child,) = [seg for seg in branch.segments if isinstance(seg, ExpansionNode)]
                for sub in child.presentation_order():
                    terms = FtfExpr(tuple(_branch_terms(registry, sub)))
                    value = tnorm_min(around, eval_expr(terms, valuation))
                    want[node.system, node.budget, branch.chain, sub.chain] = value
        stack, told = [], set()
        result = trace_eval(registry, name, assignment)
        assert "value=-0.0" not in "\n".join(result.lines())
        for event in result.events:
            if isinstance(event, Enter):
                stack.append((event.system, event.budget))
            elif isinstance(event, Exit):
                stack.pop()
            elif isinstance(event, BranchResult) and event.sub is not None:
                key = (*stack[-1], tuple(event.chain.split("-")), tuple(event.sub.split("-")))
                assert repr(event.value) == repr(want[key]), key
                told.add(key)
                signed += event.value == 0.0
        assert told == set(want)  # every sub= line was told
        checked += 1
    assert signed >= 50 and negative >= 100


def _calls(branch) -> int:
    return sum(isinstance(seg, ExpansionNode) for seg in branch.segments)


def test_replayed_trace_matches_its_size_and_the_evaluator(fixture_assignment):
    def agrees(registry, name, assignment):
        result = trace_eval(registry, name, assignment)
        assert len(result.events) == recursion._sized(registry, name, None, None)[0][2]
        assert result.value == eval_system(registry, name, assignment)

    for count in range(9):
        agrees(builtin_fixtures(rec_count=count), "psi1_rec", fixture_assignment)
    rng = SplitMix64(1618)
    checked = shared = 0
    while checked < 200:
        registry = random_registry(rng, n_systems=3, max_count=3, call_chance=(1, 2))
        name = registry.names()[-1]
        nodes = _dag_nodes(expansion_tree(registry, name)).values()
        if not any(_calls(b) > 1 for node in nodes for b in node.branches):
            continue  # want chains that call more than once
        parents: dict[int, set[int]] = {}
        for node in nodes:
            for b in node.branches:
                for seg in b.segments:
                    if isinstance(seg, ExpansionNode):
                        parents.setdefault(id(seg), set()).add(id(node))
        shared += any(len(p) > 1 for p in parents.values())
        agrees(registry, name, random_assignment(rng))
        checked += 1
    assert shared >= 50  # many instances reach one node from different parents


def test_trace_value_always_matches_eval():
    rng = SplitMix64(314)
    for _ in range(60):
        registry = random_registry(rng, n_systems=2, max_vertices=5, max_count=2)
        name = registry.names()[-1]
        assignment = random_assignment(rng)
        top = eval_system(registry, name, assignment)
        assert trace_eval(registry, name, assignment).value == top
        flat = symbolic_expand(registry, name)
        assert eval_expr(flat, assignment_valuation(assignment)) == top
        assert oracle_unroll_eval(registry, name, assignment) == top


def test_budget_variation_sweeps_random_systems():
    rng = SplitMix64(2718)
    for trial in range(40):
        registry = random_registry(rng, n_systems=2, self_only=trial % 2 == 0)
        name = registry.names()[-1]
        assignment = random_assignment(rng)
        ceiling = stabilization_budget(registry)
        values = [
            resolve_call(registry, name, k, assignment) for k in range(ceiling + 3)
        ]
        for k, value in enumerate(values):
            assert value == oracle_unroll_eval(registry, name, assignment, budget=k)
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi
        assert values[-1] == values[ceiling]
        assert eval_system(registry, name, assignment) == values[ceiling]


def test_resolve_call_keeps_the_lattice_relations_at_every_budget():
    """The exact relations of a max-min answer, which need no oracle, at
    budgets top and 0 to 3; a fifth of the bindings are ``0.0`` or
    ``-0.0``, and two variables the registry reads are probed."""
    moved = 0
    for registry, name, assignment, probes in budget_registries():
        for budget in (None, 0, 1, 2, 3):
            route = functools.partial(resolve_call, registry, name, budget)
            moved += lattice_relations(route, assignment, probes)
    assert moved > 200


@pytest.mark.parametrize("rec_count", [2, 20, 10**6])
def test_eval_enumerates_chains_a_fixed_number_of_times(monkeypatch, fixture_assignment, rec_count):
    registry = builtin_fixtures(rec_count=rec_count)
    enumerated = []

    def counting(system):
        enumerated.append(system.name)
        return enumerate_chains(system)

    monkeypatch.setattr(recursion, "enumerate_chains", counting)
    value = eval_system(registry, "psi1_rec", fixture_assignment)
    # every layer and the top level read one enumeration, whatever the count
    assert enumerated == ["psi1_rec"]
    assert value == eval_system(builtin_fixtures(rec_count=2), "psi1_rec", fixture_assignment)


SYMBOLIC_ROUTES = {
    "expansion_tree": lambda registry, name, assignment: expansion_tree(registry, name),
    "symbolic_expand": lambda registry, name, assignment: symbolic_expand(registry, name),
    "trace_eval": trace_eval,
}


@pytest.mark.parametrize("route", sorted(SYMBOLIC_ROUTES))
@pytest.mark.parametrize("rec_count", [2, 8, 10**6])
def test_symbolic_routes_enumerate_each_system_once(monkeypatch, fixture_assignment, rec_count, route):
    enumerated = []

    def counting(system):
        enumerated.append(system.name)
        return enumerate_chains(system)

    monkeypatch.setattr(recursion, "enumerate_chains", counting)
    call = SYMBOLIC_ROUTES[route]
    registry = builtin_fixtures(rec_count=rec_count)
    if rec_count > 8:
        with pytest.raises(ValueError, match="expansion too large"):
            call(registry, "psi1_rec", fixture_assignment)
    else:
        call(registry, "psi1_rec", fixture_assignment)
    # the size layers, the refusal check and the DAG share one enumeration
    assert enumerated == ["psi1_rec"]
    enumerated.clear()
    call(registry, "phi", fixture_assignment)
    assert sorted(enumerated) == ["phi", "psi1", "psi2", "psi3", "psi4", "psi5"]


def _grid_case(k: int) -> tuple[SystemRegistry, str, dict[str, float]]:
    """A k x k grid (see :func:`grid_system`) with one grade per edge."""
    system = grid_system(k)
    registry = SystemRegistry()
    registry.add(system)
    return registry, "grid", {f"e{i}": (i * 7 % 11) / 10 for i in range(len(system.edges))}


class _CountingGrades(dict):
    """Grades that count how many times they are read."""

    reads = 0

    def __getitem__(self, name):
        self.reads += 1
        return super().__getitem__(name)


def test_the_chain_bound_reads_a_pinned_share_of_the_5x5_grid():
    """``_grade`` stops each chain at its first grade no greater than the
    best chain so far.  A plain max-min reads all 148 432 atom slots of the
    5x5 grid's 8 512 chains; at one seeded 1000-point assignment the bound
    reads 19 319 of them and gives the plain answer."""
    system = grid_system(5)
    chains = enumerate_chains(system)
    assert (len(chains), sum(len(atoms) for _chain, atoms in chains)) == (8512, 148_432)
    rng = SplitMix64(5)
    values = {f"e{i}": rng.grade(1000) for i in range(len(system.edges))}
    plain = max(min(values[a.name] for a in atoms) for _chain, atoms in chains)
    grades = _CountingGrades(values)
    got = recursion._grade(chains, grades, {})
    assert (repr(got), grades.reads) == (repr(plain), 19_319)
    # a chain that ends at 1.0, the lattice top, answers at once: with
    # every grade 1.0 only the first chain is read
    ones = _CountingGrades(dict.fromkeys(values, 1.0))
    assert recursion._grade(chains, ones, {}) == 1.0
    assert ones.reads == len(chains[0][1]) == 24


ACYCLIC_CASES = {
    "grid4": lambda: _grid_case(4),
    "psi1_rec": lambda: (builtin_fixtures(rec_count=5), "psi1_rec", dict(FIXTURE_ASSIGNMENT)),
}

ACYCLIC_ROUTES = {
    "enumerate_chains": lambda registry, name, assignment: enumerate_chains(registry[name]),
    "derive_ftf": lambda registry, name, assignment: derive_ftf(registry[name]),
    "eval_system": eval_system,
    "resolve_call": ROUTES["resolve_call"],
    "transmission": transmission,
    "symbolic_expand": lambda registry, name, assignment: symbolic_expand(registry, name),
    "trace_eval": trace_eval,
}


@pytest.mark.parametrize("route", sorted(ACYCLIC_ROUTES))
@pytest.mark.parametrize("case", sorted(ACYCLIC_CASES))
def test_routes_leave_no_reference_cycles(case, route):
    # Everything a call allocates must be freed by reference counting
    # alone; cyclic garbage would wait for the collector.
    registry, name, assignment = ACYCLIC_CASES[case]()
    call = ACYCLIC_ROUTES[route]
    call(registry, name, assignment)  # fill the per-system caches first
    gc.collect()
    gc.disable()
    try:
        call(registry, name, assignment)
        assert gc.collect() == 0
    finally:
        gc.enable()
