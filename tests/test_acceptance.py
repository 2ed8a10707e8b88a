"""End-to-end acceptance gate.

Eight numbered criteria, each asserting exact (==) float or byte
equality and printing a single PASS/FAIL verdict line.  Differential
criteria run the seeded check suites at full trial counts; the rest pin
hand-derived values and golden CLI output.
"""

from __future__ import annotations

from conftest import (
    DEEP_ASSIGNMENT,
    GOLDEN_COMMANDS,
    VARIANT_TEXT,
    invoke_cli,
    read_golden,
)

from fuzzchain.algebra import (
    Call,
    assignment_valuation,
    canonicalize,
    eval_expr,
    format_expr,
    parse_expr,
)
from fuzzchain.chains import derive_ftf
from fuzzchain.checks import (
    check_budget_laws,
    check_closure_power,
    check_eval_closure,
    check_pivot_invariant,
    check_power_collapse,
)
from fuzzchain.recursion import (
    eval_system,
    expansion_tree,
    render_expansion,
    resolve_call,
    stabilization_budget,
    symbolic_expand,
    trace_eval,
)
from fuzzchain.systems import (
    FIXTURE_ASSIGNMENT,
    builtin_fixtures,
    connection_matrix,
    format_registry,
    parse_registry,
)

SEED = 42

# Hand-derived sum-of-products transmission functions of the built-in
# diamonds, in enumeration order (D-side chains first, then C-side):
# (display form with single-letter factors juxtaposed, parseable raw form).
DERIVED = {
    "psi1": ("xz + x*xbar*w + yw + y*xbar*z", "x*z + x*xbar*w + y*w + y*xbar*z"),
    "psi2": ("xbar*z + xbar*x*w + yw + yxz", "xbar*z + xbar*x*w + y*w + y*x*z"),
    "psi3": ("xbar*z + xbar*w*x + yx + ywz", "xbar*z + xbar*w*x + y*x + y*w*z"),
    "psi4": ("xbar*w + xbar*y*z + xz + xyw", "xbar*w + xbar*y*z + x*z + x*y*w"),
    "psi5": ("xbar*y + xbar*w*z + xz + xwy", "xbar*y + xbar*w*z + x*z + x*w*y"),
}
PHI_DERIVED = "psi2^1*psi4^1 + psi2^1*psi1^1*psi5^1 + psi3^1*psi1^1*psi4^1 + psi3^1*psi5^1"

PSI1_MATRIX = [
    ["1", "0", "y", "x"],
    ["0", "1", "w", "z"],
    ["y", "w", "1", "xbar"],
    ["x", "z", "xbar", "1"],
]
PHI_MATRIX = [
    ["1", "0", "psi2^1", "psi3^1"],
    ["0", "1", "psi4^1", "psi5^1"],
    ["psi2^1", "psi4^1", "1", "psi1^1"],
    ["psi3^1", "psi5^1", "psi1^1", "1"],
]

REC2_NESTED = (
    "xz + yw"
    " + x(xz + yw + x(xz + yw)w + y(xz + yw)z)w"
    " + y(xz + yw + x(xz + yw)w + y(xz + yw)z)z"
)


def _verdict(number: int, title: str, problems: list[str]) -> None:
    status = "FAIL" if problems else "PASS"
    print(f"[criterion {number}] {status} {title}")
    assert not problems, f"criterion {number}: " + "; ".join(problems)


def _suite_verdict(number: int, title: str, result) -> None:
    problems = [] if result.passed else [result.summary()]
    _verdict(number, f"{title} ({result.trials} trials)", problems)


def test_criterion_1_derived_transmission_and_matrices():
    registry = builtin_fixtures()
    problems = []
    for name, (display, raw) in DERIVED.items():
        derived = derive_ftf(registry[name])
        if format_expr(derived, "paper") != display:
            problems.append(f"{name} authored form")
        if canonicalize(derived) != canonicalize(parse_expr(raw)):
            problems.append(f"{name} term set")
    phi = derive_ftf(registry["phi"])
    if format_expr(phi, "raw") != PHI_DERIVED:
        problems.append("phi authored form")
    if canonicalize(phi) != canonicalize(parse_expr(PHI_DERIVED)):
        problems.append("phi term set")

    for name, expected_cells in (("psi1", PSI1_MATRIX), ("phi", PHI_MATRIX)):
        matrix = connection_matrix(registry[name])
        if matrix.vertices != ("A", "B", "C", "D"):
            problems.append(f"{name} vertex order")
        cells = [[str(c) for c in row] for row in matrix.cells]
        if cells != expected_cells:
            problems.append(f"{name} matrix cells")
    if connection_matrix(registry["phi"]).cells[2][3] != Call("psi1", 1):
        problems.append("phi C-D cell is not a call atom")
    _verdict(1, "derived transmission functions and connection matrices", problems)


def test_criterion_2_expansion_and_trace_goldens():
    registry = builtin_fixtures()
    problems = []
    if render_expansion(expansion_tree(registry, "psi1_rec")) != REC2_NESTED:
        problems.append("nested expansion at declared budget 2")
    if render_expansion(expansion_tree(builtin_fixtures(rec_count=0), "psi1_rec")) != "xz + yw":
        problems.append("count-0 expansion")

    traced = trace_eval(registry, "psi1_rec", DEEP_ASSIGNMENT)
    rendering = "\n".join(traced.lines())
    if "BRANCH chain=A-C-D-B sub=A-D-C-B expr=y(xxzw + xyww)z value=0.1" not in rendering:
        problems.append("missing nested-descent branch line")
    if traced.value != eval_system(registry, "psi1_rec", DEEP_ASSIGNMENT):
        problems.append("trace value disagrees with evaluation")

    for name in ("expand_psi1_rec.txt", "expand_rec0.txt", "trace_psi1_rec.txt"):
        code, out, _ = invoke_cli(*GOLDEN_COMMANDS[name])
        if code != 0 or out != read_golden(name):
            problems.append(f"golden mismatch: {name}")
    _verdict(2, "symbolic expansion and trace renderings", problems)


def test_criterion_3_evaluation_agreement():
    # 250 registries of two systems each: 500 systems, each checked three
    # ways (chain evaluation, matrix closure, brute-force path oracle)
    _suite_verdict(3, "evaluation == closure == path oracle", check_eval_closure(SEED + 3, 250))


def test_criterion_4_closure_equals_power():
    _suite_verdict(4, "closure == (n-1)-th power == oracle", check_closure_power(SEED + 4, 500))


def test_criterion_5_power_collapse():
    _suite_verdict(
        5, "expression powers collapse; multinomial counts", check_power_collapse(SEED + 5, 100)
    )


def test_criterion_6_budget_laws():
    problems = []
    registry = builtin_fixtures()
    for assignment in (FIXTURE_ASSIGNMENT, DEEP_ASSIGNMENT):
        floor = resolve_call(registry, "psi1_rec", 0, assignment)
        values = [resolve_call(registry, "psi1_rec", k, assignment) for k in range(7)]
        if any(v != floor for v in values):
            problems.append(f"psi1_rec budget-sensitive: {values!r}")
        if eval_system(registry, "psi1_rec", assignment) != floor:
            problems.append("psi1_rec top level differs")

    variant = parse_registry(format_registry(registry) + VARIANT_TEXT)
    assignment = dict(DEEP_ASSIGNMENT, xbar=0.95)
    staircase = [resolve_call(variant, "psi1v", k, assignment) for k in range(7)]
    if staircase != [0.2, 0.2, 0.8, 0.8, 0.8, 0.8, 0.8]:
        problems.append(f"psi1v staircase {staircase!r}")
    ceiling = stabilization_budget(variant)
    if eval_system(variant, "psi1v", assignment) != staircase[ceiling]:
        problems.append("psi1v top level differs from stabilized value")

    result = check_budget_laws(SEED + 6, 100, self_only=True)
    if not result.passed:
        problems.append(result.summary())
    _verdict(6, "budget monotonicity, stabilization, self-call collapse", problems)


def test_criterion_7_pivot_invariant():
    _suite_verdict(
        7, "post-pivot snapshots == restricted path oracle", check_pivot_invariant(SEED + 7, 50)
    )


def test_criterion_8_cli_determinism():
    problems = []
    for name, argv in sorted(GOLDEN_COMMANDS.items()):
        first = invoke_cli(*argv)
        second = invoke_cli(*argv)
        if first[0] != 0:
            problems.append(f"{name}: exit {first[0]}")
        elif first != second:
            problems.append(f"{name}: consecutive runs differ")
        elif first[1] != read_golden(name):
            problems.append(f"{name}: drifted from golden file")
    _verdict(8, "byte-identical golden output for every subcommand", problems)


def test_symbolic_expansion_matches_evaluation_everywhere():
    # cross-criterion seam: the flattened expansion of every built-in
    # system evaluates to exactly the engine's value
    registry = builtin_fixtures()
    for name in registry.names():
        flat = symbolic_expand(registry, name)
        value = eval_expr(flat, assignment_valuation(FIXTURE_ASSIGNMENT))
        assert value == eval_system(registry, name, FIXTURE_ASSIGNMENT)
