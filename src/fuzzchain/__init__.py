"""Max-min fuzzy systems: chains, transfer functions, closures, and
budgeted calls between systems.

Every name in ``__all__`` is resolved from its defining module on first
access (PEP 562), so ``import fuzzchain`` loads no submodule and a CLI
command compiles only the modules it runs.  ``from fuzzchain import X``
works as usual.
"""

import importlib

__version__ = "0.1.0"

# export -> the submodule that defines it
_EXPORTS = {
    "Call": "algebra",
    "FtfExpr": "algebra",
    "Term": "algebra",
    "Var": "algebra",
    "canonicalize": "algebra",
    "eval_expr": "algebra",
    "expr_power": "algebra",
    "format_expr": "algebra",
    "format_term": "algebra",
    "multinomial_expand": "algebra",
    "parse_expr": "algebra",
    "derive_ftf": "chains",
    "enumerate_chains": "chains",
    "resolve_matrix": "closure",
    "transmission": "closure",
    "warshall_closure": "closure",
    "BindingError": "errors",
    "FuzzchainError": "errors",
    "ParseError": "errors",
    "UnknownSystemError": "errors",
    "eval_system": "recursion",
    "paper_expansion": "recursion",
    "render_expansion": "recursion",
    "resolve_call": "recursion",
    "stabilization_budget": "recursion",
    "symbolic_expand": "recursion",
    "trace_eval": "recursion",
    "SplitMix64": "rng",
    "FIXTURE_ASSIGNMENT": "systems",
    "ConnectionMatrix": "systems",
    "FuzzySystem": "systems",
    "SystemRegistry": "systems",
    "builtin_fixtures": "systems",
    "connection_matrix": "systems",
    "format_assignment": "systems",
    "format_registry": "systems",
    "parse_assignment": "systems",
    "parse_registry": "systems",
    "validate_registry": "systems",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
