"""The mutant catalogue: deliberate faults in the operators, each of which a
named row of the check registry must fail.

Each mutant is monkeypatched into one class and run through only the check
that owns its row, at a small profile; the unmutated code passes every row of
that check.  A mutant that passes its row is a blind spot of the battery.
"""

import pytest

from cbfctl.checks import MarginLedger, Samples, forchheimer, verify_profile
from cbfctl.harness import config_from_dict
from cbfctl.operators import PairStencil, StateStencil

# check 2 at 2D n=8: four pairs, every one in the identity share
PROFILE = verify_profile(config_from_dict({"d": 2, "n": 8, "seed": 7}))._replace(
    forchheimer=Samples(((2, 8, 4, 5),), (1.0, 1.0), spawn=True)
)


def _pair_cross_term_at(weight):
    """PairStencil with its Forchheimer cross term s_i s_j at ``weight``: at
    0.7 it passes all nine checks of the battery without the secant row."""
    build = PairStencil.__init__

    def mutant(self, grid, m1, m2, params):
        build(self, grid, m1, m2, params)
        s = self._m1v + grid.to_physical(m2)
        self._k = self._k - (1.0 - weight) * 0.5 * params.beta * s[:, None] * s

    return mutant


def _state_forchheimer_zeroed():
    """StateStencil with its row beta |m|^2 zeroed: N(m) loses beta C(m)."""
    build = StateStencil.__init__

    def mutant(self, grid, m_ref, params):
        build(self, grid, m_ref, params)
        self._c[0] = 0.0

    return mutant


MUTANTS = {
    "pair cross term at weight 0.7": (PairStencil, _pair_cross_term_at(0.7), forchheimer, "pair_secant_rel"),
    "state beta |m|^2 row zeroed": (StateStencil, _state_forchheimer_zeroed(), forchheimer, "pair_secant_rel"),
}


def test_unmutated_operators_pass_every_row():
    for check in {check for _, _, check, _ in MUTANTS.values()}:
        ledger = MarginLedger()
        check(PROFILE, ledger)
        assert ledger.all_pass, {name: rec["value"] for name, rec in ledger.records.items()}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_fails_its_row(name, monkeypatch):
    cls, init, check, row = MUTANTS[name]
    monkeypatch.setattr(cls, "__init__", init)
    ledger = MarginLedger()
    check(PROFILE, ledger)
    assert ledger.records[row]["pass"] is False, (name, ledger.records[row]["value"])
