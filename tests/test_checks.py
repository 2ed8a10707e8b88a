from __future__ import annotations

import pytest

from fuzzchain import checks, closure, oracles, recursion
from fuzzchain.checks import (
    check_budget_laws,
    check_closure_power,
    check_eval_closure,
    check_pivot_invariant,
    run_all,
)


@pytest.mark.parametrize("trials", [0, -1])
def test_run_all_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
        run_all(42, trials)


def test_budget_laws_catch_a_table_that_stops_at_layer_one(monkeypatch):
    # a layer table cut after layer 1 leaves every callee's own calls dead;
    # seed 45 is the budget-laws seed of `check --seed 42`
    assert check_budget_laws(45, 100).passed
    real = recursion.call_layers

    def cut(*args):
        grades, layers = real(*args)
        return grades, layers[:2]

    monkeypatch.setattr(recursion, "call_layers", cut)
    assert check_budget_laws(45, 100).failures > 0


def test_eval_closure_oracle_catches_two_routes_that_agree(monkeypatch):
    # chains and matrices capped alike still agree with each other; only
    # the call-unrolling oracle can tell them wrong
    assert check_eval_closure(42, 100).passed
    for route in ("eval_system", "transmission", "_closed_cell"):
        real = getattr(checks, route)
        monkeypatch.setattr(checks, route, lambda *args, real=real: min(real(*args), 0.5))
    result = check_eval_closure(42, 100)
    assert result.failures > 0
    assert "oracle=" in result.detail


def test_eval_closure_checks_the_closure_commands_cell(monkeypatch):
    # a closure that returns the resolved matrix unclosed leaves
    # transmission right, so only the closure command's route goes wrong
    assert check_eval_closure(42, 100).passed
    monkeypatch.setattr(checks, "warshall_closure", lambda grid: grid)
    result = check_eval_closure(42, 100)
    assert result.failures > 0
    assert "cell=" in result.detail


def _sweep_without_pivot_zero(m):
    """The ascending-pivot sweep with pivot 0 left unrelaxed."""
    n = len(m)
    w = [row[:] for row in m]
    for k in range(n):
        if k:
            for i in range(n):
                for j in range(n):
                    w[i][j] = max(w[i][j], min(w[i][k], w[k][j]))
        yield k, [row[:] for row in w]


def test_pivot_invariant_catches_a_sweep_that_skips_pivot_zero(monkeypatch):
    # seed 47 is the pivot-invariant seed of `check --seed 42`, which runs
    # it for a tenth of the trials
    assert check_pivot_invariant(47, 50).passed
    monkeypatch.setattr(checks, "warshall_steps", _sweep_without_pivot_zero)
    result = check_pivot_invariant(47, 50)
    assert result.failures > 0
    assert "pivot=0" in result.detail


def test_closure_power_catches_a_kernel_that_skips_the_last_column(monkeypatch):
    # the closure reads the Kruskal pass, so the power is what goes wrong;
    # seed 43 is the closure-power-agree seed of `check --seed 42`
    assert check_closure_power(43, 100).passed
    power = oracles.matrix_power

    def skipping(m, p):
        """A power that never writes the last column: it keeps the 0.0
        each product cell starts from."""
        out = power(m, p)
        for row in out:
            row[-1] = 0.0
        return out

    monkeypatch.setattr(checks, "matrix_power", skipping)
    result = check_closure_power(43, 100)
    assert result.failures > 0
    assert "closure != power(n-1)" in result.detail


def test_both_closure_suites_catch_a_kruskal_pass_that_skips_its_last_join(monkeypatch):
    # transmission and the closure read the same Kruskal pass, so both
    # suites that compare it with an independent route must fail
    assert check_eval_closure(42, 100).passed
    assert check_closure_power(43, 100).passed
    merges = closure._merges

    def skip_last_join(n, edges):
        joins = [(grade, set(a), set(b)) for grade, a, b in merges(n, edges)]
        return iter(joins[:-1])

    monkeypatch.setattr(closure, "_merges", skip_last_join)
    result = check_eval_closure(42, 100)
    assert result.failures > 0
    assert "closure=" in result.detail
    result = check_closure_power(43, 100)
    assert result.failures > 0
    assert "closure != power(n-1)" in result.detail
