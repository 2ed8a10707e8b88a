from __future__ import annotations

import pytest

from fuzzchain.checks import run_all


@pytest.mark.parametrize("trials", [0, -1])
def test_run_all_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
        run_all(42, trials)
