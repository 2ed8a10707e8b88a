"""Value semantics of every record class: construction, repr, equality,
hashing and immutability.

Every record prints as ``Class(field=value, ...)`` and refuses
assignment and deletion.  A value record compares equal only to an
instance of its exact class with equal fields and hashes as the tuple of
its fields; a registry's field is a dict, so it is unhashable.  The
expansion records are shared nodes of a DAG: each equals only itself and
hashes by identity.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from fuzzchain.algebra import Call, FtfExpr, MultinomialEntry, Term, Var
from fuzzchain.checks import CheckResult
from fuzzchain.closure import render_symbolic_matrix
from fuzzchain.recursion import (
    BranchResult,
    Enter,
    Exit,
    ExpansionBranch,
    ExpansionNode,
    PopReturn,
    PushReturn,
    TraceEvent,
    TraceResult,
)
from fuzzchain.systems import (
    ONE,
    ConnectionMatrix,
    Diagnostic,
    EdgeDef,
    FuzzySystem,
    SystemRegistry,
    builtin_fixtures,
    connection_matrix,
)

X = Var("x")
S1 = Call("s", 1)
TERM = Term((X, S1))
EDGE = EdgeDef("A", "B", X)
SYSTEM = FuzzySystem("s", "A", "B", ("A", "B"), (EDGE,))
BRANCH = ExpansionBranch(("A", "B"), (X,), (X,))
ENTER = Enter("s", None)

_SYSTEM_REPR = (
    "FuzzySystem(name='s', input_terminal='A', output_terminal='B', vertices=('A', 'B'), "
    "edges=(EdgeDef(u='A', v='B', atom=Var(name='x')),))"
)
_BRANCH_REPR = (
    "ExpansionBranch(chain=('A', 'B'), segments=(Var(name='x'),), atoms=(Var(name='x'),))"
)

# (class, field values in declaration order, repr of the instance they build)
FROZEN = [
    (Var, {"name": "x"}, "Var(name='x')"),
    (Call, {"target": "s", "count": 1}, "Call(target='s', count=1)"),
    (Term, {"atoms": (X, S1)}, "Term(atoms=(Var(name='x'), Call(target='s', count=1)))"),
    (
        FtfExpr,
        {"terms": (TERM,)},
        "FtfExpr(terms=(Term(atoms=(Var(name='x'), Call(target='s', count=1))),))",
    ),
    (
        MultinomialEntry,
        {"composition": (2, 0), "coefficient": 1, "term": Term((X, X))},
        "MultinomialEntry(composition=(2, 0), coefficient=1, "
        "term=Term(atoms=(Var(name='x'), Var(name='x'))))",
    ),
    (EdgeDef, {"u": "A", "v": "B", "atom": X}, "EdgeDef(u='A', v='B', atom=Var(name='x'))"),
    (
        FuzzySystem,
        {
            "name": "s",
            "input_terminal": "A",
            "output_terminal": "B",
            "vertices": ("A", "B"),
            "edges": (EDGE,),
        },
        _SYSTEM_REPR,
    ),
    (
        Diagnostic,
        {"system": "s", "severity": "error", "message": "m"},
        "Diagnostic(system='s', severity='error', message='m')",
    ),
    (
        ConnectionMatrix,
        {"vertices": ("A", "B"), "cells": ((ONE, X), (X, ONE))},
        "ConnectionMatrix(vertices=('A', 'B'), cells=((1, Var(name='x')), (Var(name='x'), 1)))",
    ),
    (TraceEvent, {}, "TraceEvent()"),
    (Enter, {"system": "s", "budget": None}, "Enter(system='s', budget=None)"),
    (Exit, {"system": "s", "value": 0.5}, "Exit(system='s', value=0.5)"),
    (PushReturn, {"label": "x"}, "PushReturn(label='x')"),
    (PopReturn, {"label": "x"}, "PopReturn(label='x')"),
    (
        BranchResult,
        {"chain": "A-B", "expr": "x", "value": 0.5, "sub": "A-C-B"},
        "BranchResult(chain='A-B', expr='x', value=0.5, sub='A-C-B')",
    ),
    (
        TraceResult,
        {"value": 0.5, "events": (ENTER,)},
        "TraceResult(value=0.5, events=(Enter(system='s', budget=None),))",
    ),
    (
        CheckResult,
        {"name": "n", "trials": 3, "failures": 1, "detail": "d"},
        "CheckResult(name='n', trials=3, failures=1, detail='d')",
    ),
]

# read-only, but its field is a dict, so it is unhashable
UNHASHABLE = [
    (
        SystemRegistry,
        {"systems": {"s": SYSTEM}},
        f"SystemRegistry(systems={{'s': {_SYSTEM_REPR}}})",
    ),
]

# shared DAG records: each equals only itself
IDENTITY = [
    (ExpansionBranch, {"chain": ("A", "B"), "segments": (X,), "atoms": (X,)}, _BRANCH_REPR),
    (
        ExpansionNode,
        {"system": "s", "budget": None, "branches": (BRANCH,)},
        f"ExpansionNode(system='s', budget=None, branches=({_BRANCH_REPR},))",
    ),
]

VALUES = FROZEN + UNHASHABLE
ALL = VALUES + IDENTITY


def _id(case) -> str:
    return case[0].__name__


@pytest.mark.parametrize("case", ALL, ids=_id)
def test_construction_by_position_and_keyword_and_repr(case):
    cls, fields, text = case
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert repr(by_position) == repr(by_keyword) == text
    for name, value in fields.items():
        assert getattr(by_keyword, name) is value


@pytest.mark.parametrize("case", VALUES, ids=_id)
def test_equal_only_to_the_exact_class(case):
    cls, fields, _ = case
    value = cls(**fields)
    assert value == cls(**fields) and not value != cls(**fields)
    assert cls(*fields.values()) == value
    as_tuple = tuple(fields.values())
    assert value != as_tuple and as_tuple != value
    assert value.__eq__(as_tuple) is NotImplemented
    lookalike = type("Lookalike", (cls,), {})(**fields)
    assert value != lookalike and lookalike != value
    assert value.__eq__(lookalike) is NotImplemented


@pytest.mark.parametrize("case", VALUES, ids=_id)
def test_copies_and_pickles_rebuild_the_record(case):
    cls, fields, text = case
    value = cls(**fields)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and repr(twin) == text


def test_copied_and_pickled_connection_matrices_print_the_same():
    matrix = connection_matrix(builtin_fixtures()["phi"])
    text = render_symbolic_matrix(matrix)
    for twin in (copy.copy(matrix), copy.deepcopy(matrix), pickle.loads(pickle.dumps(matrix))):
        assert twin == matrix and render_symbolic_matrix(twin) == text


def test_equal_fields_in_sibling_classes_are_not_equal():
    assert Enter("s", 1) != Exit("s", 1)
    assert PushReturn("x") != PopReturn("x")
    assert Var("x") != "x" and "x" != Var("x")
    assert Var("s") != Call("s", 0)
    assert Term() != FtfExpr()


@pytest.mark.parametrize("case", FROZEN, ids=_id)
def test_frozen_records_hash_as_their_field_tuple(case):
    cls, fields, _ = case
    assert hash(cls(**fields)) == hash(tuple(fields.values()))
    assert len({cls(**fields), cls(**fields)}) == 1


@pytest.mark.parametrize("case", ALL, ids=_id)
def test_frozen_records_refuse_assignment_and_deletion(case):
    cls, fields, text = case
    value = cls(**fields)
    for name in (*fields, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


def test_a_registry_is_unhashable_and_add_fills_its_dict():
    systems = {"s": SYSTEM}
    registry = SystemRegistry(systems)
    with pytest.raises(TypeError):  # the record's hash meets the dict
        hash(registry)
    assert not {"__setattr__", "__delattr__", "__hash__"} & vars(SystemRegistry).keys()
    registry.add(FuzzySystem("t", "A", "B", ("A", "B"), (EDGE,)))
    assert registry.systems is systems and registry.names() == ("s", "t")
    assert registry != SystemRegistry({"s": SYSTEM})


@pytest.mark.parametrize("case", IDENTITY, ids=_id)
def test_expansion_records_equal_only_themselves(case):
    cls, fields, text = case
    value, twin = cls(**fields), cls(**fields)
    assert value == value and not value != value
    assert value != twin and not value == twin and len({value, twin}) == 2
    assert hash(value) == object.__hash__(value)
    assert value.__eq__(twin) is NotImplemented
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls and copied != value and repr(copied) == text


def test_defaults():
    assert Term() == Term(()) and Term().atoms == ()
    assert FtfExpr() == FtfExpr(()) and FtfExpr().terms == ()
    assert BranchResult("A-B", "x", 0.5).sub is None
    assert BranchResult("A-B", "x", 0.5, sub=None) == BranchResult("A-B", "x", 0.5)
    assert CheckResult("n", 3, 0).detail == ""
    first, second = SystemRegistry(), SystemRegistry()
    assert first.systems == {} and first == second
    first.add(SYSTEM)
    assert second.systems == {}  # each registry gets its own dict


def test_validation_runs_on_construction():
    with pytest.raises(ValueError, match="invalid variable name"):
        Var("1x")
    with pytest.raises(ValueError, match="invalid call target"):
        Call("1s", 1)
    with pytest.raises(ValueError, match="call count"):
        Call("s", -1)
    with pytest.raises(ValueError, match="self-loop"):
        EdgeDef("A", "A", X)
    with pytest.raises(ValueError, match="terminals must differ"):
        FuzzySystem("s", "A", "A", ("A",), ())


def test_cached_tables_leave_the_system_value_alone():
    system = FuzzySystem("s", "A", "B", ("A", "B"), (EDGE,))
    plan = system._plan
    assert plan.slots == ("x",) and (plan.start, plan.goal) == (0, 1)
    assert plan.table == (((1, X),), ((0, X),))
    assert system == SYSTEM and hash(system) == hash(SYSTEM)
    assert repr(system) == _SYSTEM_REPR
    for twin in (pickle.loads(pickle.dumps(system)), copy.copy(system), copy.deepcopy(system)):
        assert twin == system and vars(twin) == {}
