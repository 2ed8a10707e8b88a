"""Module boundaries, read from the source.

``oracles.py`` holds the brute-force oracles and the matrix references
(product, powers, ascending-pivot sweep).  The checks compare production
against it, so it must share no production code, and production must
neither import it nor keep its own copy of the references.

Bindings have one reader: ``require_bindings`` checks each one and
returns its grade, the routes read those grades, and ``closure.py``
builds its merges and grids from numbers only.

Structure has one owner: ``systems.py`` derives each system's plan, and
no other module maps vertices to indices or tells atoms apart to find
a system's variables and calls.  One function, the chain walk, reads
the plan's walk table, and the oracles read a
system through its record fields alone.  Both connection matrices, the
symbolic and the numeric, are laid out by one fill in ``systems.py`` and
printed by one renderer.

The output bound has one owner: ``algebra.MAX_EXPANSION`` and the one
function that refuses past it, which every exponential producer calls
before it builds its output.
"""

from __future__ import annotations

import ast
from pathlib import Path

import fuzzchain

PACKAGE = Path(fuzzchain.__file__).parent
MOVED = {"maxmin_matmul", "matrix_power", "warshall_steps"}


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _imported_modules(tree):
    """Every fuzzchain module an ``import`` statement anywhere in ``tree``
    names, by its name inside the package (``""`` for the package)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module or ""
            elif (node.module or "").split(".")[0] == "fuzzchain":
                base = node.module.partition(".")[2]
            else:
                continue
            if base:
                out.add(base)
            else:  # from . import x
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fuzzchain":
                    out.add(alias.name.partition(".")[2])
    return out


def test_oracles_import_only_the_data_model():
    assert _imported_modules(_tree("oracles")) <= {"algebra", "errors", "systems"}


def test_only_the_checks_import_the_oracles():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert {"checks", "closure", "oracles"} <= set(modules)
    importers = [m for m in modules if "oracles" in _imported_modules(_tree(m))]
    assert importers == ["checks"]
    assert "oracles" not in fuzzchain._EXPORTS.values()  # the package re-exports none of it


def test_closure_defines_none_of_the_references():
    defined = set()
    for node in _tree("closure").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    assert "warshall_closure" in defined
    assert not MOVED & defined
    assert MOVED <= {node.name for node in _tree("oracles").body if hasattr(node, "name")}


def _nodes(tree, kind):
    return [node for node in ast.walk(tree) if isinstance(node, kind)]


def test_bindings_have_one_reader():
    closure, recursion = _tree("closure"), _tree("recursion")
    imported = {alias.name for node in _nodes(closure, ast.ImportFrom) for alias in node.names}
    assert "Call" not in imported  # closure.py tells no atom from another
    for module, tree in (("closure", closure), ("recursion", recursion)):
        subscripts = [
            node
            for node in _nodes(tree, ast.Subscript)
            if isinstance(node.value, ast.Name) and node.value.id == "assignment"
        ]
        assert subscripts == [], module  # no binding is read past require_bindings
        floats = [
            node
            for node in _nodes(tree, ast.Call)
            if isinstance(node.func, ast.Name) and node.func.id == "float"
        ]
        assert floats == [], module  # every grade is already a float


def _index_maps(tree):
    """Every ``{item: i for i, item in enumerate(...)}`` in ``tree``."""
    return [
        node
        for node in _nodes(tree, ast.DictComp)
        if isinstance(node.generators[0].iter, ast.Call)
        and getattr(node.generators[0].iter.func, "id", None) == "enumerate"
        and isinstance(node.key, ast.Name)
        and isinstance(node.generators[0].target, ast.Tuple)
        and getattr(node.generators[0].target.elts[1], "id", None) == node.key.id
    ]


def _system_class():
    (system_class,) = [
        node
        for node in _tree("systems").body
        if isinstance(node, ast.ClassDef) and node.name == "FuzzySystem"
    ]
    return system_class


def test_structure_has_one_owner():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    owners = [m for m in modules for _ in _index_maps(_tree(m))]
    assert owners == ["systems"]  # the plan's vertex index, built once per system
    scans = [m for m in modules if "vertices.index(" in (PACKAGE / f"{m}.py").read_text("utf-8")]
    assert scans == []  # every route reads its indices, terminals included, from the plan
    cached = [
        node.name
        for node in _system_class().body
        if isinstance(node, ast.FunctionDef)
        and any(getattr(d, "id", None) == "cached_property" for d in node.decorator_list)
    ]
    assert cached == ["_plan"]  # one derived table per system
    (require,) = [
        node
        for node in _nodes(_tree("systems"), ast.FunctionDef)
        if node.name == "require_bindings"
    ]
    dispatch = [
        node
        for node in _nodes(require, ast.Call)
        if isinstance(node.func, ast.Name) and node.func.id == "isinstance"
    ]
    assert dispatch == []  # it reads the plan's names and calls


def _calls_to(tree, name):
    return [
        node
        for node in _nodes(tree, ast.Call)
        if isinstance(node.func, ast.Name) and node.func.id == name
    ]


def test_both_closure_routes_read_one_kruskal_pass():
    tree = _tree("closure")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    # the edges are sorted once, best grade first, and nowhere else
    assert _calls_to(tree, "sorted") == _calls_to(functions["_merges"], "sorted") != []
    for route in ("warshall_closure", "transmission"):
        assert _calls_to(functions[route], "_merges"), route


def test_both_connection_matrices_come_from_one_fill_and_one_printer():
    systems, closure = (
        {node.name: node for node in _tree(module).body if isinstance(node, ast.FunctionDef)}
        for module in ("systems", "closure")
    )
    # the layout is written once, in systems.py, and both builders call it
    assert "_fill" in systems and "_fill" not in closure
    assert _calls_to(systems["connection_matrix"], "_fill")
    assert _calls_to(closure["resolve_matrix"], "_fill")
    # one printer: the symbolic renderer is the numeric one
    assert [name for name in closure if "render" in name] == [
        "render_numeric_matrix",
        "render_symbolic_matrix",
    ]
    assert _calls_to(closure["render_symbolic_matrix"], "render_numeric_matrix")


def test_one_function_reads_the_walk_table():
    # systems.py too: the table builds itself, and validate reads no edge of it
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for function in _nodes(_tree(path.stem), (ast.FunctionDef, ast.AsyncFunctionDef)):
            reads = [node for node in _nodes(function, ast.Attribute) if node.attr == "table"]
            if reads:
                readers.append(f"{path.stem}.{function.name}")
    assert readers == ["chains._walk"]


def test_the_oracles_read_systems_through_their_fields():
    members = {
        node.name
        for node in _system_class().body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
    }
    assert {"build", "call_atoms", "_plan"} <= members
    used = {node.attr for node in _nodes(_tree("oracles"), ast.Attribute)}
    assert not members & used


def test_only_the_expansion_builder_recurses():
    """In ``recursion.py`` every walk of the expansion DAG but its
    builder runs on loops or an explicit stack.  A function recurses when
    it can reach itself through the names of the module's functions and
    methods that its body mentions (a method through ``self.name``), so
    passing itself as a callback, or a method pair that calls each other,
    counts too."""
    functions = _nodes(_tree("recursion"), (ast.FunctionDef, ast.AsyncFunctionDef))
    mentions = {}
    for function in functions:
        named = {node.id for node in _nodes(function, ast.Name)}
        named |= {
            node.attr
            for node in _nodes(function, ast.Attribute)
            if isinstance(node.value, ast.Name) and node.value.id == "self"
        }
        mentions.setdefault(function.name, set()).update(named)
    recursive = []
    for name in mentions:
        reached, pending = set(), [name]
        while pending:
            for callee in mentions.get(pending.pop(), ()):
                if callee not in reached:
                    reached.add(callee)
                    pending.append(callee)
        if name in reached:
            recursive.append(name)
    assert recursive == ["_expansion_node"]


def test_the_expansion_is_built_through_one_sized_entry():
    """Only ``_unroll`` names the builder ``_expansion_node`` (which calls
    itself), so every symbolic output is sized and refused past the cap
    before any node is built: ``_unroll`` checks the size first."""
    tree = _tree("recursion")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def mentions(node):
        return [name for name in _nodes(node, ast.Name) if name.id == "_expansion_node"]

    inside = mentions(functions["_unroll"]) + mentions(functions["_expansion_node"])
    assert {id(name) for name in mentions(tree)} == {id(name) for name in inside}
    (build,) = _calls_to(functions["_unroll"], "_expansion_node")
    (check,) = _calls_to(functions["_unroll"], "_check_size")
    assert check.lineno < build.lineno


def test_each_call_is_read_by_one_rule_and_dead_chains_drop_in_one_place():
    """Numerically every call is read through ``_call_grades``, which
    gives a dead call ``0.0``: the numeric grader ``_value`` grades every
    chain with ``_grade`` over it, and ``edge_grades`` is the top-level
    case.  Only the structural routes, the sizer and the expansion
    builder, drop a dead call's chains."""
    tree = _tree("recursion")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    grade_names = {node.id for node in _nodes(functions["_grade"], ast.Name)}
    assert not {"_live_chains", "_effective", "layers", "top"} & grade_names
    for reader in ("_value", "edge_grades"):
        assert _calls_to(functions[reader], "_call_grades"), reader
    edges = functions["edge_grades"]
    assert [node for node in _nodes(edges, ast.Attribute) if node.attr == "count"] == []
    assert _nodes(edges, ast.Compare) == []  # no count test of its own
    for caller in ("_size", "_expansion_node"):
        assert len(_calls_to(functions[caller], "_live_chains")) == 1, caller
    assert len(_calls_to(tree, "_live_chains")) == 2  # and nothing else calls it


def test_the_layer_table_has_one_entry_and_one_reader():
    """Only ``_table`` checks the budget and the bindings and enumerates
    chains, so every layered route fills its table there; only ``_at``
    clamps a budget to the table, ``layers[min(...)]``; and ``call_layers``
    takes no memo of chains."""
    tree = _tree("recursion")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_check_budget", "require_bindings", "enumerate_chains"):
        assert _calls_to(tree, name) == _calls_to(functions["_table"], name) != [], name
    clamped = [
        node
        for node in _nodes(tree, ast.Subscript)
        if ast.unparse(node.value) == "layers" and _calls_to(node.slice, "min")
    ]
    assert len(clamped) == 1 and clamped[0] in _nodes(functions["_at"], ast.Subscript)
    assert [arg.arg for arg in functions["call_layers"].args.args] == [
        "registry",
        "name",
        "assignment",
        "budget",
    ]


def test_shared_expansion_records_compare_by_identity():
    """The builder shares one node per (system, budget), so an expansion
    record equals only itself and hashes by identity: ``_Dag`` defines no
    function and takes ``object``'s ``__eq__`` and ``__hash__``, and
    ``recursion.py`` keys its tables by the records, with no ``id()``."""
    tree = _tree("recursion")
    (dag,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Dag"]
    assert _nodes(dag, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) == []
    assigned = {
        node.targets[0].id: ast.unparse(node.value)
        for node in dag.body
        if isinstance(node, ast.Assign)
    }
    assert assigned == {
        "__slots__": "()",
        "__eq__": "object.__eq__",
        "__hash__": "object.__hash__",
    }
    assert _calls_to(tree, "id") == []


def test_the_output_bound_has_one_owner():
    """Exactly one function in the package raises ``expansion too large``:
    ``algebra._check_size``.  Each producer of an exponential output calls
    it, no module imports the cap's binding, and ``power`` sizes its table,
    which sizes itself before any row, before it builds the power."""
    trees = {path.stem: ast.parse(path.read_text("utf-8")) for path in PACKAGE.glob("*.py")}
    functions = {
        module: {node.name: node for node in _nodes(tree, ast.FunctionDef)}
        for module, tree in trees.items()
    }
    ((module, refusal),) = [
        (module, node)
        for module, tree in trees.items()
        for node in _nodes(tree, ast.Raise)
        if "expansion too large" in ast.unparse(node)
    ]
    assert module == "algebra" and refusal in _nodes(functions[module]["_check_size"], ast.Raise)
    for module, producers in (
        ("algebra", ("expr_power", "multinomial_expand")),
        ("recursion", ("_unroll", "trace_eval")),
        ("chains", ("derive_ftf",)),
    ):
        for producer in producers:
            assert _calls_to(functions[module][producer], "_check_size"), producer
    imported = {
        alias.name
        for tree in trees.values()
        for node in _nodes(tree, ast.ImportFrom)
        for alias in node.names
    }
    assert "MAX_EXPANSION" not in imported
    (table,) = _calls_to(functions["cli"]["_cmd_power"], "multinomial_expand")
    (power,) = _calls_to(functions["cli"]["_cmd_power"], "expr_power")
    assert table.lineno < power.lineno
