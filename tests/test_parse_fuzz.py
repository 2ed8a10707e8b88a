"""Seeded mutation testing of the three text parsers.

This is differential testing in the sense of McKeeman (1998), "Differential
testing for software": the fixture registry, the fixture assignment and a
few expressions are mutated by a SplitMix64 stream, and every mutant must
either parse and survive a round trip (format, then parse, gives an equal
value) or raise ``ParseError``.  Any other exception is a parser bug.  A
sample of the mutants also goes through the CLI, which may exit only with
0, 2 (parse error) or 3 (validation error).
"""

from __future__ import annotations

import re

from conftest import invoke_cli

from fuzzchain.algebra import format_expr, parse_expr
from fuzzchain.errors import ParseError
from fuzzchain.rng import SplitMix64
from fuzzchain.systems import (
    FIXTURE_ASSIGNMENT,
    builtin_fixtures,
    format_assignment,
    format_registry,
    parse_assignment,
    parse_registry,
)

# What an insertion or a word replacement puts in: keywords and punctuation
# of both grammars, grades in and out of range, identifiers good and bad,
# a digit that is not a decimal digit, and a count too long for int().
FRAGMENTS = (
    "system", "terminals", "edge", "call", "->", "{", "}", ";", "#", "\n", " ",
    "=", "+", "*", "^", "0", "1", "7", "0.5", "1.5", "-0.1", "nan", "1e999",
    "x", "psi1", "9x", "A", "²", "9" * 5000,
)

_WORD_RE = re.compile(r"\w+")

EXPRESSIONS = ("x*z + x*xbar*w + y*w + y*xbar*z", "psi1^2*w + x", "psi2^1*psi4^1", "1", "0")


def mutate(rng: SplitMix64, text: str) -> str:
    """One edit: insert a fragment, replace a word, duplicate a line or cut a span."""
    kind = rng.below(4)
    if kind == 0:
        at = rng.below(len(text) + 1)
        return text[:at] + rng.choice(FRAGMENTS) + text[at:]
    if kind == 1:
        words = list(_WORD_RE.finditer(text))
        if words:
            word = rng.choice(words)
            return text[: word.start()] + rng.choice(FRAGMENTS) + text[word.end() :]
        return text
    if kind == 2:
        lines = text.split("\n")
        i = rng.below(len(lines))
        lines.insert(i, lines[i])
        return "\n".join(lines)
    at = rng.below(len(text) + 1)
    return text[:at] + text[at + rng.randint(1, 12) :]


def mutants(seed: int, text: str, n: int):
    """``n`` mutants of ``text``, each one to three edits deep."""
    rng = SplitMix64(seed)
    for _ in range(n):
        out = text
        for _ in range(rng.randint(1, 3)):
            out = mutate(rng, out)
        yield out


def _registry_round_trip(text: str) -> None:
    registry = parse_registry(text)
    again = parse_registry(format_registry(registry))
    assert again == registry and again.names() == registry.names(), text


def _assignment_round_trip(text: str) -> None:
    assignment = parse_assignment(text)
    assert parse_assignment(format_assignment(assignment)) == assignment, text


def _expr_round_trip(text: str) -> None:
    expr = parse_expr(text)
    assert parse_expr(format_expr(expr, "raw")) == expr, text


def _parses_or_raises_parse_error(round_trip, texts) -> tuple[int, int]:
    parsed = rejected = 0
    for text in texts:
        try:
            round_trip(text)
        except ParseError:
            rejected += 1
        else:
            parsed += 1
    return parsed, rejected


def test_registry_mutants_parse_or_raise_parse_error():
    base = format_registry(builtin_fixtures())
    parsed, rejected = _parses_or_raises_parse_error(
        _registry_round_trip, mutants(1, base, 1200)
    )
    assert parsed and rejected  # the mutations reach both outcomes


def test_assignment_mutants_parse_or_raise_parse_error():
    base = format_assignment(FIXTURE_ASSIGNMENT)
    parsed, rejected = _parses_or_raises_parse_error(
        _assignment_round_trip, mutants(2, base, 800)
    )
    assert parsed and rejected


def test_expression_mutants_parse_or_raise_parse_error():
    outcomes = [
        _parses_or_raises_parse_error(_expr_round_trip, mutants(3 + i, base, 400))
        for i, base in enumerate(EXPRESSIONS)
    ]
    assert all(parsed and rejected for parsed, rejected in outcomes)


def test_cli_on_mutants_exits_0_2_or_3(tmp_path):
    registry_file = tmp_path / "mutant.fz"
    assign_file = tmp_path / "mutant.values"
    registries = mutants(4, format_registry(builtin_fixtures()), 60)
    assignments = mutants(5, format_assignment(FIXTURE_ASSIGNMENT), 60)
    expressions = mutants(6, EXPRESSIONS[1], 60)
    codes = set()
    for registry_text, assign_text, expr_text in zip(registries, assignments, expressions):
        registry_file.write_text(registry_text, encoding="utf-8")
        assign_file.write_text(assign_text, encoding="utf-8")
        for argv in (
            ("validate", "--fixtures", str(registry_file)),
            ("eval", "--fixtures", str(registry_file), "--system", "phi",
             "--assign", str(assign_file)),
            ("power", "--", expr_text, "2"),
        ):
            code, _, err = invoke_cli(*argv)
            assert code in (0, 2, 3), (argv, registry_text, assign_text, err)
            assert "Traceback" not in err
            codes.add(code)
    assert codes == {0, 2, 3}
