from __future__ import annotations

import pytest

from fuzzchain.algebra import canonicalize, format_expr, parse_expr
from fuzzchain.chains import chain_atoms, derive_ftf, enumerate_chains
from fuzzchain.errors import FuzzchainError

# Sum-of-products transmission functions worked out by hand for the five
# built-in diamonds (terminals A/B, inner vertices C/D), as a (display,
# parseable) pair per system.  The display form juxtaposes single-letter
# factors; the order pins enumeration: 2-edge chain through D, 3-edge
# chain through D then C, 2-edge chain through C, 3-edge through C then D.
HAND_DERIVED = {
    "psi1": ("xz + x*xbar*w + yw + y*xbar*z", "x*z + x*xbar*w + y*w + y*xbar*z"),
    "psi2": ("xbar*z + xbar*x*w + yw + yxz", "xbar*z + xbar*x*w + y*w + y*x*z"),
    "psi3": ("xbar*z + xbar*w*x + yx + ywz", "xbar*z + xbar*w*x + y*x + y*w*z"),
    "psi4": ("xbar*w + xbar*y*z + xz + xyw", "xbar*w + xbar*y*z + x*z + x*y*w"),
    "psi5": ("xbar*y + xbar*w*z + xz + xwy", "xbar*y + xbar*w*z + x*z + x*w*y"),
}

PHI_DERIVED = "psi2^1*psi4^1 + psi2^1*psi1^1*psi5^1 + psi3^1*psi1^1*psi4^1 + psi3^1*psi5^1"


def test_enumerate_chains_orders(registry):
    def ids(name):
        return ["-".join(c) for c in enumerate_chains(registry[name])]

    assert ids("psi1") == ["A-D-B", "A-D-C-B", "A-C-B", "A-C-D-B"]
    assert ids("phi") == ["A-C-B", "A-C-D-B", "A-D-C-B", "A-D-B"]
    assert ids("psi1_rec") == ids("psi1")


def test_chain_atoms_in_path_order(registry):
    psi1 = registry["psi1"]
    atoms = chain_atoms(psi1, ("A", "D", "C", "B"))
    assert [str(a) for a in atoms] == ["x", "xbar", "w"]
    with pytest.raises(FuzzchainError, match="no edge 'A'-'B'"):
        chain_atoms(psi1, ("A", "B"))


@pytest.mark.parametrize("name, expected", sorted(HAND_DERIVED.items()))
def test_derive_ftf_diamonds(registry, name, expected):
    display, raw = expected
    derived = derive_ftf(registry[name])
    assert format_expr(derived, "paper") == display
    assert format_expr(derived, "raw") == raw
    # same term set after canonicalization, whatever the authored order
    assert canonicalize(derived) == canonicalize(parse_expr(raw))


def test_derive_ftf_composite(registry):
    derived = derive_ftf(registry["phi"])
    assert format_expr(derived, "raw") == PHI_DERIVED
    assert canonicalize(derived) == canonicalize(parse_expr(PHI_DERIVED))

