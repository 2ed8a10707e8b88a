from __future__ import annotations

import itertools
import math
import sys

import pytest

from conftest import expr_concat, multinomial_coefficient, reference_canonicalize

from fuzzchain import algebra
from fuzzchain.algebra import (
    Call,
    FtfExpr,
    Term,
    Var,
    assignment_valuation,
    canonicalize,
    check_grade,
    eval_expr,
    expr_power,
    format_expr,
    format_term,
    is_identifier,
    multinomial_expand,
    parse_expr,
    snorm_max,
    tnorm_min,
)
from fuzzchain.errors import BindingError, ParseError
from fuzzchain.rng import SplitMix64


def test_scalar_ops_select_an_input():
    assert snorm_max(0.3, 0.8) == 0.8
    assert tnorm_min(0.3, 0.8) == 0.3
    assert snorm_max(0.5, 0.5) == 0.5
    assert tnorm_min(1.0, 0.0) == 0.0


def test_check_grade_bounds():
    assert check_grade(0.0) == 0.0
    assert check_grade(1.0) == 1.0
    with pytest.raises(ValueError, match="out of range"):
        check_grade(1.2)
    with pytest.raises(ValueError, match="weight out of range"):
        check_grade(-0.1, "weight")
    assert check_grade(1) == 1.0 and type(check_grade(0)) is float
    for value in (None, "0.3", [0.3], True, False):
        with pytest.raises(ValueError, match="weight is not a number"):
            check_grade(value, "weight")


def _reference_check_grade(value, what="membership"):
    """``check_grade`` as written before exact floats skipped the type tests."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} is not a number: {value!r}")
    value = value + 0.0
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{what} out of range [0, 1]: {value!r}")
    return value


class _Grade(float):
    pass


@pytest.mark.parametrize(
    "value",
    [
        0.0, -0.0, 0.5, 1.0, 5e-324, 1.0000000000000002, -0.1, 1.5, float("nan"),
        float("inf"), -float("inf"), 0, 1, 2, -1, True, False, _Grade(0.25), _Grade(-0.0),
        _Grade(1.5), _Grade("nan"), None, "0.3", [0.3],
    ],
    ids=repr,
)
def test_check_grade_matches_its_reference(value):
    def outcome(check):
        try:
            got = check(value, "grade")
        except ValueError as exc:
            return "refused", str(exc)
        return type(got), repr(got)

    assert outcome(check_grade) == outcome(_reference_check_grade)


def test_is_identifier():
    assert is_identifier("x")
    assert is_identifier("psi1_rec")
    assert is_identifier("_tmp")
    assert not is_identifier("1x")
    assert not is_identifier("a-b")
    assert not is_identifier("")


def test_atom_validation():
    assert str(Var("xbar")) == "xbar"
    assert str(Call("psi1", 2)) == "psi1^2"
    with pytest.raises(ValueError, match="invalid variable name"):
        Var("2x")
    with pytest.raises(ValueError, match="invalid call target"):
        Call("no way", 1)
    with pytest.raises(ValueError, match="non-negative integer"):
        Call("psi1", -1)
    with pytest.raises(ValueError, match="non-negative integer"):
        Call("psi1", 1.5)


def test_call_refuses_a_bool_count():
    # ``call s True`` would not reparse, as ``check_grade`` refuses a bool grade
    for count in (True, False):
        with pytest.raises(ValueError, match=rf"^call count must be a non-negative integer: {count}$"):
            Call("psi1", count)


def test_term_canonical_sorts_and_dedups():
    term = Term((Var("z"), Var("x"), Var("x"), Call("t", 1)))
    assert term.canonical().atoms == (Var("x"), Var("z"), Call("t", 1))
    assert str(Term(())) == "1"
    assert str(term) == "z*x*x*t^1"  # raw keeps order and duplicates


def test_empty_forms_evaluate_to_units():
    val = assignment_valuation({})
    assert eval_expr(FtfExpr.zero(), val) == 0.0
    assert eval_expr(FtfExpr.one(), val) == 1.0


def test_valuation_rejects_calls_and_missing_names():
    val = assignment_valuation({"x": 0.5})
    assert val(Var("x")) == 0.5
    with pytest.raises(BindingError, match="unresolved call atom"):
        val(Call("t", 1))
    with pytest.raises(BindingError, match="missing binding for variable 'y'"):
        val(Var("y"))


@pytest.mark.parametrize(
    "text",
    ["x", "x*z + y*w", "0", "1", "psi1^2*w + x", "a*a*b + a", "t^0"],
)
def test_parse_format_round_trip(text):
    expr = parse_expr(text)
    assert parse_expr(format_expr(expr, "raw")) == expr


def test_parse_expr_shapes():
    assert parse_expr("") == FtfExpr.zero()
    assert parse_expr("0") == FtfExpr.zero()
    assert parse_expr("1") == FtfExpr.one()
    expr = parse_expr("x*z + psi1^2*w")
    assert expr.terms == (
        Term((Var("x"), Var("z"))),
        Term((Call("psi1", 2), Var("w"))),
    )
    # whitespace and newlines between tokens are insignificant
    assert parse_expr("x *z\n+ psi1^2 * w") == expr


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("x +", "unexpected end of expression"),
        ("+ x", "expected an atom, got '+'"),
        ("x y", "expected '+' between terms, got 'y'"),
        ("x^y", "count not a non-negative integer: 'y'"),
        ("x^\u00b2", "line 1, col 3: count not a non-negative integer: '\u00b2'"),
        pytest.param(
            "x + y^" + "9" * 5000,
            "line 1, col 7: count too large: 5000 digits",
            id="count-of-5000-digits",
        ),
        ("x * * y", "expected an atom, got '*'"),
        ("1 + x", "expected an atom, got '1'"),
        ("x ^", "unexpected end of expression"),
    ],
)
def test_parse_expr_rejects(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert fragment in str(err.value)


def test_parse_expr_reports_position():
    with pytest.raises(ParseError) as err:
        parse_expr("x +\n*y")
    assert str(err.value).startswith("line 2, col 1:")
    assert err.value.line == 2
    assert err.value.col == 1


def test_format_modes():
    expr = parse_expr("x*z + x*xbar*w")
    assert format_expr(expr, "raw") == "x*z + x*xbar*w"
    assert format_expr(expr, "paper") == "xz + x*xbar*w"
    assert format_expr(FtfExpr.zero(), "paper") == "0"
    assert format_term(Term((Var("y"), Var("x"), Var("x"))), "canonical") == "x*y"
    with pytest.raises(ValueError, match="unknown format mode"):
        format_expr(expr, "fancy")


def test_canonicalize_sorts_dedups_and_absorbs():
    expr = parse_expr("x*y + x + x")
    assert format_expr(canonicalize(expr), "raw") == "x + x*y"
    # x*y can never beat x under max-min, so simplify drops it
    assert format_expr(canonicalize(expr, simplify=True), "raw") == "x"
    # equal atom sets are not strict supersets of each other: both stay... as one
    assert format_expr(canonicalize(parse_expr("a*b + b*a"), simplify=True), "raw") == "a*b"


def test_canonicalize_matches_its_definition_on_parsed_expressions():
    # parsing makes a new object for every atom, so no two terms share
    # an atom identity set and every term is canonicalized
    rng = SplitMix64(1729)
    names = ("a", "b", "c", "d", "xx", "f1", "s^0", "s^2")
    absorbed = 0
    for _ in range(1000):
        text = " + ".join(
            "*".join(rng.choice(names) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(1, 14))
        )
        expr = parse_expr(text)
        for simplify in (False, True):
            assert canonicalize(expr, simplify) == reference_canonicalize(expr, simplify), text
        absorbed += len(canonicalize(expr, True).terms) < len(canonicalize(expr).terms)
    assert absorbed >= 300


def test_union_concat_evaluate_to_max_min():
    rng = SplitMix64(7)
    names = ("a", "b", "c", "d")

    def rand_expr():
        return FtfExpr(
            tuple(
                Term(tuple(Var(rng.choice(names)) for _ in range(rng.randint(1, 3))))
                for _ in range(rng.randint(0, 3))
            )
        )

    for _ in range(200):
        e1, e2 = rand_expr(), rand_expr()
        val = assignment_valuation({n: rng.grade() for n in names})
        union = FtfExpr(e1.terms + e2.terms)  # the term-multiset union
        assert eval_expr(union, val) == max(eval_expr(e1, val), eval_expr(e2, val))
        assert eval_expr(expr_concat(e1, e2), val) == min(eval_expr(e1, val), eval_expr(e2, val))
        assert eval_expr(canonicalize(e1), val) == eval_expr(e1, val)
        assert eval_expr(canonicalize(e1, simplify=True), val) == eval_expr(e1, val)


def test_concat_term_order_is_cross_product():
    left = parse_expr("a + b")
    right = parse_expr("c + d")
    assert format_expr(expr_concat(left, right), "raw") == "a*c + a*d + b*c + b*d"


def test_expr_power_requires_positive_integer():
    expr = parse_expr("x + y")
    for bad in (0, -3, 1.5):
        with pytest.raises(ValueError, match="undefined power"):
            expr_power(expr, bad)


def test_expr_power_square():
    assert format_expr(expr_power(parse_expr("x + y"), 2), "raw") == "x + x*y + y"
    simplified = canonicalize(expr_power(parse_expr("x + y"), 2), simplify=True)
    assert format_expr(simplified, "raw") == "x + y"
    assert expr_power(FtfExpr.zero(), 2) == FtfExpr.zero()
    assert expr_power(FtfExpr.one(), 3) == FtfExpr.one()


def _k_fold_concat(expr, k):
    out = expr
    for _ in range(k - 1):
        out = expr_concat(out, expr)
    return canonicalize(out)


def test_expr_power_equals_the_canonical_k_fold_concatenation():
    rng = SplitMix64(17)
    atoms = (Var("p"), Var("q"), Var("r"), Var("s"), Call("f", 2), Call("f", 0))
    for _ in range(300):
        expr = FtfExpr(
            tuple(
                Term(tuple(rng.choice(atoms) for _ in range(rng.randint(0, 3))))
                for _ in range(rng.randint(0, 5))
            )
        )
        for k in range(1, 5):
            assert repr(expr_power(expr, k)) == repr(_k_fold_concat(expr, k)), (expr, k)


def test_expr_power_of_a_long_sum_stops_at_the_unions():
    # concatenating first would build 8⁹ raw terms
    powered = expr_power(parse_expr("a + b + c + d + e + f + g + h"), 9)
    assert len(powered.terms) == 255  # one per non-empty subset of the 8 atoms
    assert format_expr(powered, "raw").startswith("a + a*b + a*b*c + ")


def test_multinomial_coefficient():
    assert multinomial_coefficient(2, (2, 0)) == 1
    assert multinomial_coefficient(2, (1, 1)) == 2
    assert multinomial_coefficient(4, (2, 2)) == 6
    assert multinomial_coefficient(3, (1, 1, 1)) == 6
    with pytest.raises(ValueError, match="do not sum"):
        multinomial_coefficient(3, (2, 2))
    with pytest.raises(ValueError, match="invalid composition"):
        multinomial_coefficient(2, (3, -1))


def test_multinomial_expand_square():
    entries = multinomial_expand(parse_expr("x1 + x2"), 2)
    assert [e.composition for e in entries] == [(2, 0), (1, 1), (0, 2)]
    assert [e.coefficient for e in entries] == [1, 2, 1]
    assert [format_term(e.term, "canonical") for e in entries] == ["x1", "x1*x2", "x2"]
    assert [format_term(e.term, "raw") for e in entries] == ["x1*x1", "x1*x2", "x2*x2"]


def test_multinomial_expand_cube_ordering():
    entries = multinomial_expand(parse_expr("a + b + c"), 3)
    assert len(entries) == 10  # C(3+3-1, 3-1)
    assert entries[0].composition == (3, 0, 0)
    assert entries[-1].composition == (0, 0, 3)
    assert sum(e.coefficient for e in entries) == 3**3
    with pytest.raises(ValueError, match="undefined power"):
        multinomial_expand(parse_expr("a + b"), 0)


@pytest.mark.parametrize("k", [1, 2, 7, 40, 300])
def test_binomial_rows_match_the_closed_form(k):
    x, y = Var("x"), Var("y")
    entries = multinomial_expand(parse_expr("x + y"), k)
    assert len(entries) == k + 1
    for i, entry in enumerate(entries):
        assert entry.composition == (k - i, i)
        assert entry.coefficient == math.comb(k, i)
        assert entry.term == Term((x,) * (k - i) + (y,) * i)


def test_multinomial_rows_repeat_each_base_term_in_place():
    rng = SplitMix64(5)
    names = ("p", "q", "r", "s")
    for _ in range(40):
        expr = FtfExpr(
            tuple(
                Term(tuple(Var(rng.choice(names)) for _ in range(rng.randint(0, 3))))
                for _ in range(rng.randint(1, 4))
            )
        )
        k = rng.randint(1, 5)
        for entry in multinomial_expand(expr, k):
            atoms: tuple = ()
            for term, n in zip(expr.terms, entry.composition):
                for _ in range(n):
                    atoms += term.atoms
            assert entry.term == Term(atoms)
            assert entry.coefficient == multinomial_coefficient(k, entry.composition)


def _recursive_compositions(total, parts):
    """The reference order: leading part descending, then the rest likewise."""
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)]
    return [
        (first,) + rest
        for first in range(total, -1, -1)
        for rest in _recursive_compositions(total - first, parts - 1)
    ]


def _one_variable_terms(parts: int) -> FtfExpr:
    return FtfExpr(tuple(Term((Var(f"v{i}"),)) for i in range(parts)))


def test_compositions_keep_the_recursive_order():
    for parts in range(6):
        expr = _one_variable_terms(parts)
        for total in range(1, 6):
            compositions = [e.composition for e in multinomial_expand(expr, total)]
            assert compositions == _recursive_compositions(total, parts)


def test_multinomial_rows_compute_no_factorial(monkeypatch):
    # factorial(k) alone outlasts any timeout for a large k, so each row's
    # coefficient is a product of binomials over its parts
    tables = {}
    for parts in range(1, 5):
        for k in range(1, 7):
            compositions = _recursive_compositions(k, parts)
            tables[parts, k] = [(c, multinomial_coefficient(k, c)) for c in compositions]

    def refuse(_n):
        raise AssertionError("multinomial_expand computed a factorial")

    monkeypatch.setattr(math, "factorial", refuse)
    for (parts, k), table in tables.items():
        entries = multinomial_expand(_one_variable_terms(parts), k)
        assert [(e.composition, e.coefficient) for e in entries] == table


def test_compositions_of_many_parts_need_no_recursion():
    parts = 2 * sys.getrecursionlimit()
    entries = multinomial_expand(_one_variable_terms(parts), 1)
    assert len(entries) == parts
    for i, entry in enumerate(entries):
        assert entry.composition[i] == 1 and sum(entry.composition) == 1


CAP = 2**20  # algebra.MAX_EXPANSION


@pytest.mark.parametrize(
    "text, k, what",
    [
        ("x", 4_000_000, "atoms in one row"),
        ("x", 2**63, "atoms in one row"),
        ("1", 2**63, "atoms in one row"),  # an empty term still holds its k-tuple
        ("x*y + z", CAP // 2 + 1, "atoms in one row"),
        ("x + y", 2**10, "atoms in the table"),  # 1025 rows of 1024 atoms
        ("x + y + z + w + v", 60, "atoms in the table"),
        (" + ".join(f"v{i}" for i in range(11)), 20, "atoms in the table"),
    ],
)
def test_power_tables_past_the_cap_are_refused_before_any_row(monkeypatch, text, k, what):
    def refuse(*_args):
        raise AssertionError("multinomial_expand built a k-tuple")

    monkeypatch.setattr(itertools, "combinations_with_replacement", refuse)
    with pytest.raises(ValueError, match=f"^expansion too large: over the cap of {CAP} {what}$"):
        multinomial_expand(parse_expr(text), k)


def test_power_tables_at_the_cap_are_built():
    assert algebra.MAX_EXPANSION == CAP
    (entry,) = multinomial_expand(parse_expr("x"), CAP)
    assert entry.composition == (CAP,) and len(entry.term.atoms) == CAP
    entries = multinomial_expand(parse_expr("x + y"), 2**10 - 1)  # 1024 rows of 1023 atoms
    assert len(entries) == 2**10
    assert multinomial_expand(parse_expr("0"), 2**63) == []  # no terms, no rows


def test_powers_past_the_cap_are_refused_before_any_union():
    # 17 one-letter terms may have 2^17 - 1 unions of up to 17 atoms each,
    # over the cap; 16 would be 2^20 - 16 atoms, under it
    terms = " + ".join(f"v{i}" for i in range(17))
    refusal = f"^expansion too large: over the cap of {CAP} atoms in the power$"
    with pytest.raises(ValueError, match=refusal):
        expr_power(parse_expr(terms), 17)
    # a huge k is bounded by the atoms: 3 unions of at most 3 atoms
    assert format_expr(expr_power(parse_expr("x*y + z"), 2**63)) == "x*y + x*y*z + z"
    assert expr_power(FtfExpr.one(), 2**63) == FtfExpr.one()


def test_the_power_bound_holds_the_power_and_never_passes_the_table(monkeypatch):
    """The bound ``expr_power`` refuses on is at least the atoms of the
    power it builds, and at most the atoms the table's bound counts, so
    ``power`` never reaches it after the table."""
    rng = SplitMix64(36)
    atoms = (Var("p"), Var("q"), Var("r"), Var("s"), Call("f", 2))
    refused = 0
    for _ in range(300):
        expr = FtfExpr(
            tuple(
                Term(tuple(rng.choice(atoms) for _ in range(rng.randint(0, 3))))
                for _ in range(rng.randint(1, 5))
            )
        )
        k = rng.randint(1, 6)
        built = sum(len(t.atoms) for t in expr_power(expr, k).terms)
        longest = max(len(t.atoms) for t in expr.terms)
        table = len(multinomial_expand(expr, k)) * k * max(1, longest)
        monkeypatch.setattr(algebra, "MAX_EXPANSION", table)
        expr_power(expr, k)  # the table fits, so the power does
        if built:
            monkeypatch.setattr(algebra, "MAX_EXPANSION", built - 1)
            with pytest.raises(ValueError, match="atoms in the power$"):
                expr_power(expr, k)
            refused += 1
        monkeypatch.undo()
    assert refused >= 250


def test_multinomial_terms_evaluate_like_the_power():
    rng = SplitMix64(11)
    names = ("p", "q", "r")
    for _ in range(50):
        expr = FtfExpr(
            tuple(
                Term(tuple(Var(rng.choice(names)) for _ in range(rng.randint(1, 2))))
                for _ in range(rng.randint(1, 3))
            )
        )
        val = assignment_valuation({n: rng.grade() for n in names})
        for k in (2, 3):
            entries = multinomial_expand(expr, k)
            best = 0.0
            for entry in entries:
                best = max(best, eval_expr(FtfExpr((entry.term,)), val))
            assert best == eval_expr(expr, val)
            assert eval_expr(expr_power(expr, k), val) == eval_expr(expr, val)
