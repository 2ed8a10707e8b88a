"""Command line interface.

Exit codes are part of the contract:

* 0 — success
* 1 — usage error (bad flags, malformed ``--set``)
* 2 — parse error in a registry or assignment file
* 3 — validation error (unknown system, missing binding, bad grade), or an
  input too deep or too large to evaluate (recursion limit, out of memory,
  a count past what the machine's integers hold)
* 4 — internal invariant breach (a check suite or engine/oracle disagreement)
* 141 — stdout closed before the output was written (128 + SIGPIPE, as
  a shell reports a command killed by a broken pipe)
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

# Each handler imports the engine modules it calls, so a command compiles
# only those (`power` never loads the recursion layer, only `check` the
# suites and oracles).
from .errors import BindingError, ParseError, UnknownSystemError

USAGE_ERROR = 1
PARSE_ERROR = 2
VALIDATION_ERROR = 3
CHECK_FAILED = 4
BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage problems; we reserve 2 for file
    parse errors, so usage problems exit 1 instead."""

    def error(self, message: str):  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _set_pair(text: str) -> tuple[str, float]:
    from .algebra import is_identifier

    name, sep, raw = text.partition("=")
    if not sep or not is_identifier(name):
        raise argparse.ArgumentTypeError(f"expected var=value, got {text!r}")
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grade in {text!r}") from None
    return name, value


def _trial_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(sub: argparse.ArgumentParser, system_default: str | None = "psi1") -> None:
    # the bare flag and the omitted one both leave None: the built-in registry
    sub.add_argument("--fixtures", nargs="?", metavar="FILE",
                     help="registry file (bare flag or omitted: built-ins)")
    sub.add_argument("--rec-count", type=int, default=2, metavar="N",
                     help="self-call count for the built-in recursive fixture")
    if system_default is not None:
        sub.add_argument("--system", default=system_default, help="system name")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def _add_assignment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--assign", metavar="FILE", help="assignment file")
    sub.add_argument("--set", type=_set_pair, action="append", default=[],
                     metavar="VAR=VALUE", help="bind one variable (repeatable)")


def _read_text(path: str) -> str:
    """A definition file's text; bytes that are not UTF-8 are a parse error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from None


def _load_registry(args: argparse.Namespace):
    from .systems import FIXTURE_ASSIGNMENT, builtin_fixtures, parse_registry

    if args.fixtures is not None:
        registry = parse_registry(_read_text(args.fixtures))
        base: dict[str, float] = {}
    else:
        registry = builtin_fixtures(rec_count=args.rec_count)
        base = dict(FIXTURE_ASSIGNMENT)
    return registry, base


def _assignment(args: argparse.Namespace, base: dict[str, float]) -> dict[str, float]:
    from .algebra import check_grade

    out = dict(base)
    if getattr(args, "assign", None):
        from .systems import parse_assignment

        out = parse_assignment(_read_text(args.assign))
    for name, value in getattr(args, "set", []):
        out[name] = check_grade(value, f"binding for {name!r}")
    return out


def _emit(payload: dict, as_json: bool, plain: str) -> None:
    if as_json:
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(plain)


# --------------------------------------------------------------------------
# Subcommand handlers


def _cmd_ftf(args) -> int:
    from .algebra import canonicalize, format_expr
    from .chains import derive_ftf

    registry, _ = _load_registry(args)
    expr = derive_ftf(registry[args.system])
    if args.simplify:
        expr = canonicalize(expr, simplify=True)
    text = format_expr(expr, args.mode)
    _emit({"system": args.system, "mode": args.mode, "expr": text}, args.json, text)
    return 0


def _cmd_matrix(args) -> int:
    from .closure import render_numeric_matrix, render_symbolic_matrix, resolve_matrix
    from .systems import connection_matrix

    registry, base = _load_registry(args)
    if args.resolve:
        vertices, grid = resolve_matrix(registry, args.system, _assignment(args, base))
        payload = {"system": args.system, "vertices": list(vertices), "cells": grid}
        _emit(payload, args.json, render_numeric_matrix(vertices, grid))
    else:
        matrix = connection_matrix(registry[args.system])
        payload = {
            "system": args.system,
            "vertices": list(matrix.vertices),
            "cells": [[str(cell) for cell in row] for row in matrix.cells],
        }
        _emit(payload, args.json, render_symbolic_matrix(matrix))
    return 0


def _cmd_eval(args) -> int:
    from .recursion import resolve_call

    registry, base = _load_registry(args)
    assignment = _assignment(args, base)
    value = resolve_call(registry, args.system, args.budget, assignment)
    payload = {"system": args.system, "budget": args.budget, "value": value}
    _emit(payload, args.json, repr(value))
    return 0


def _cmd_closure(args) -> int:
    from .closure import render_numeric_matrix, resolve_matrix, terminal_cell, warshall_closure

    registry, base = _load_registry(args)
    assignment = _assignment(args, base)
    vertices, grid = resolve_matrix(registry, args.system, assignment)
    closed = warshall_closure(grid)
    system = registry[args.system]
    value = terminal_cell(system, closed)
    payload = {
        "system": args.system,
        "vertices": list(vertices),
        "closure": closed,
        "transmission": value,
    }
    plain = render_numeric_matrix(vertices, closed) + (
        f"\ntransmission {system.input_terminal}->{system.output_terminal} = {value!r}"
    )
    _emit(payload, args.json, plain)
    return 0


def _cmd_trace(args) -> int:
    from .recursion import trace_eval

    registry, base = _load_registry(args)
    result = trace_eval(registry, args.system, _assignment(args, base))
    lines = result.lines()
    payload = {"system": args.system, "value": result.value, "events": lines}
    _emit(payload, args.json, "\n".join(lines))
    return 0


def _cmd_expand(args) -> int:
    from .algebra import canonicalize, format_expr
    from .recursion import expansion_tree, paper_expansion, render_expansion, symbolic_expand

    registry, _ = _load_registry(args)
    if args.simplify or args.mode == "canonical":
        expr = symbolic_expand(registry, args.system, args.budget)
        if args.simplify:
            expr = canonicalize(expr, simplify=True)
        # a simplified expression is flat, so raw mode prints it canonically
        text = format_expr(expr, "canonical" if args.mode == "raw" else args.mode)
    elif args.mode == "paper":
        text = paper_expansion(registry, args.system, args.budget)
    else:
        text = render_expansion(expansion_tree(registry, args.system, args.budget))
    _emit({"system": args.system, "mode": args.mode, "expr": text}, args.json, text)
    return 0


def _cmd_power(args) -> int:
    from .algebra import (
        canonicalize,
        expr_power,
        format_expr,
        format_term,
        multinomial_expand,
        parse_expr,
    )

    expr = parse_expr(args.expr)
    # the table sizes itself before any row, and its bound covers the power's
    table = multinomial_expand(expr, args.k)
    powered_expr = expr_power(expr, args.k)
    if args.simplify:
        powered_expr = canonicalize(powered_expr, simplify=True)
    powered = format_expr(powered_expr, args.mode)
    lines = [powered]
    rows = []
    for entry in table:
        composition = ",".join(str(c) for c in entry.composition)
        term = format_term(entry.term, "canonical")
        rows.append({"composition": composition, "coefficient": entry.coefficient,
                     "term": term})
        lines.append(f"{entry.coefficient} * ({composition}) -> {term}")
    payload = {"expr": format_expr(expr, "raw"), "k": args.k, "power": powered,
               "table": rows}
    _emit(payload, args.json, "\n".join(lines))
    return 0


def _cmd_check(args) -> int:
    from .checks import run_all

    results = run_all(args.seed, args.trials)
    ok = all(r.passed for r in results)
    payload = {
        "seed": args.seed,
        "trials": args.trials,
        "passed": ok,
        "results": [
            {"name": r.name, "trials": r.trials, "failures": r.failures, "detail": r.detail}
            for r in results
        ],
    }
    _emit(payload, args.json, "\n".join(r.summary() for r in results))
    return 0 if ok else CHECK_FAILED


def _cmd_fixtures(args) -> int:
    from .systems import FIXTURE_ASSIGNMENT, builtin_fixtures, format_assignment, format_registry

    if args.values:
        text = format_assignment(FIXTURE_ASSIGNMENT)
        _emit({"assignment": FIXTURE_ASSIGNMENT}, args.json, text)
        return 0
    registry = builtin_fixtures(rec_count=args.rec_count)
    text = format_registry(registry)
    _emit({"registry": text}, args.json, text)
    return 0


def _cmd_validate(args) -> int:
    from .systems import validate_registry

    registry, _ = _load_registry(args)
    diagnostics = validate_registry(registry)
    payload = {
        "systems": list(registry.names()),
        "diagnostics": [
            {"system": d.system, "severity": d.severity, "message": d.message}
            for d in diagnostics
        ],
    }
    plain = "\n".join(map(str, diagnostics))
    _emit(payload, args.json, plain or f"ok: {len(registry)} systems")
    if any(d.severity == "error" for d in diagnostics):
        return VALIDATION_ERROR
    return 0


# --------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="fuzzchain", description="Max-min fuzzy system chains.")
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub = subs.add_parser("ftf", help="fuzzy transfer function of a system")
    _add_common(sub)
    sub.add_argument("--mode", choices=("raw", "canonical", "paper"), default="raw")
    sub.add_argument("--simplify", action="store_true", help="drop absorbed terms")
    sub.set_defaults(handler=_cmd_ftf)

    sub = subs.add_parser("matrix", help="connection matrix of a system")
    _add_common(sub)
    _add_assignment_flags(sub)
    sub.add_argument("--resolve", action="store_true", help="numeric cells via assignment")
    sub.set_defaults(handler=_cmd_matrix)

    sub = subs.add_parser("eval", help="transmission grade of a system")
    _add_common(sub)
    _add_assignment_flags(sub)
    sub.add_argument("--budget", type=int, default=None, metavar="K",
                     help="remaining call budget (default: top level)")
    sub.set_defaults(handler=_cmd_eval)

    sub = subs.add_parser("closure", help="max-min transitive closure of the resolved matrix")
    _add_common(sub)
    _add_assignment_flags(sub)
    sub.set_defaults(handler=_cmd_closure)

    sub = subs.add_parser("trace", help="narrated evaluation")
    _add_common(sub, system_default="psi1_rec")
    _add_assignment_flags(sub)
    sub.set_defaults(handler=_cmd_trace)

    sub = subs.add_parser("expand", help="unroll calls into a call-free expression")
    _add_common(sub, system_default="psi1_rec")
    sub.add_argument("--mode", choices=("raw", "canonical", "paper"), default="raw")
    sub.add_argument("--simplify", action="store_true")
    sub.add_argument("--budget", type=int, default=None, metavar="K")
    sub.set_defaults(handler=_cmd_expand)

    sub = subs.add_parser("power", help="max-min power of an expression")
    sub.add_argument("expr", help="expression text, e.g. 'xz + yw'")
    sub.add_argument("k", type=int, help="exponent (>= 1)")
    sub.add_argument("--mode", choices=("raw", "canonical", "paper"), default="canonical")
    sub.add_argument("--simplify", action="store_true")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_power)

    sub = subs.add_parser("check", help="run the differential check suites")
    # argparse converts a string default only when it is used, so a bad
    # FUZZCHAIN_SEED is a usage error for `check` without --seed alone
    sub.add_argument("--seed", type=int, default=os.environ.get("FUZZCHAIN_SEED", "42"))
    sub.add_argument("--trials", type=_trial_count, default=500)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_check)

    sub = subs.add_parser("fixtures", help="print the built-in registry")
    sub.add_argument("--rec-count", type=int, default=2, metavar="N")
    sub.add_argument("--values", action="store_true", help="print the fixture assignment")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_fixtures)

    sub = subs.add_parser("validate", help="structural diagnostics for a registry")
    _add_common(sub, system_default=None)
    sub.set_defaults(handler=_cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except (BindingError, UnknownSystemError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except (RecursionError, MemoryError, OverflowError) as exc:
        kind = type(exc).__name__
        print(f"error: input too deep or too large to evaluate ({kind})", file=sys.stderr)
        return VALIDATION_ERROR
    except AssertionError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at exit
        # has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
