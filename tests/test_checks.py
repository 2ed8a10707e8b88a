from __future__ import annotations

import pytest

from fuzzchain import checks, recursion
from fuzzchain.checks import check_budget_laws, check_eval_closure, run_all


@pytest.mark.parametrize("trials", [0, -1])
def test_run_all_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
        run_all(42, trials)


def test_budget_laws_catch_a_table_that_stops_at_layer_one(monkeypatch):
    # a layer table cut after layer 1 leaves every callee's own calls dead;
    # seed 45 is the budget-laws seed of `check --seed 42`
    assert check_budget_laws(45, 100).passed
    real = recursion.call_layers
    monkeypatch.setattr(recursion, "call_layers", lambda *args: real(*args)[:2])
    assert check_budget_laws(45, 100).failures > 0


def test_eval_closure_oracle_catches_two_routes_that_agree(monkeypatch):
    # chains and matrix capped alike still agree with each other; only the
    # call-unrolling oracle can tell them wrong
    assert check_eval_closure(42, 100).passed
    for route in ("eval_system", "transmission"):
        real = getattr(checks, route)
        monkeypatch.setattr(checks, route, lambda *args, real=real: min(real(*args), 0.5))
    result = check_eval_closure(42, 100)
    assert result.failures > 0
    assert "oracle=" in result.detail
