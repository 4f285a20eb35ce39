"""The mutant catalogue: deliberate faults in the operators and the adjoint
solver, each of which a named row of the check registry must fail.

Each mutant replaces one attribute of one owner (a class or a module) and is
run through only the check that owns its row, at a small profile; the
unmutated code passes every row of those checks.  A mutant that passes its
row is a blind spot of the battery.
"""

import numpy as np
import pytest

from cbfctl import adjoint_solver
from cbfctl.checks import MarginLedger, Samples, adjoint_bounds, duality, forchheimer, verify_profile
from cbfctl.harness import config_from_dict
from cbfctl.operators import PairStencil, StateStencil

# check 2 at 2D n=8: four pairs, every one in the identity share
PROFILE = verify_profile(config_from_dict({"d": 2, "n": 8, "nt": 16, "t_end": 0.5, "seed": 7}))._replace(
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


def _pair_convection_sign_flipped():
    """PairStencil whose B(v, m2) term, grad m2 in the coupling matrix, enters with the wrong sign."""
    build = PairStencil.__init__

    def mutant(self, grid, m1, m2, params):
        build(self, grid, m1, m2, params)
        self._k -= 2 * grid.grad_physical(m2)[1:]

    return mutant


def _state_forchheimer_zeroed():
    """StateStencil with its row beta |m|^2 zeroed: N(m) loses beta C(m)."""
    build = StateStencil.__init__

    def mutant(self, grid, m_ref, params):
        build(self, grid, m_ref, params)
        self._c[0] = 0.0

    return mutant


def _adjoint_slab_shifted():
    """The adjoint march with every step j >= 1 frozen on slab j - 1, one slab late."""
    march = adjoint_solver.march

    def mutant(grid, source, dt, params, operator, out, **picard):
        return march(grid, source, dt, params, lambda j, p: operator(max(j - 1, 0), p), out, **picard)

    return mutant


def _duality_cubic_dropped(grid, pv):
    """The duality residual's cubic coefficients C(q) as zeros: the delta term drops out."""
    return np.zeros(pv.shape[: -grid.d] + grid.shape, dtype=np.complex128)


def _transpose_ignoring_delta():
    """PairStencil.apply_transpose that drops the adjoint's delta weight."""
    apply_transpose = PairStencil.apply_transpose

    def mutant(self, q, extra_weight=None):
        return apply_transpose(self, q)

    return mutant


# name: (owner, attribute, replacement, check, row)
MUTANTS = {
    "pair cross term at weight 0.7": (
        PairStencil, "__init__", _pair_cross_term_at(0.7), forchheimer, "pair_secant_rel"
    ),
    "pair cross term dropped": (PairStencil, "__init__", _pair_cross_term_at(0.0), forchheimer, "pair_secant_rel"),
    "pair B(v, m2) sign flipped": (
        PairStencil, "__init__", _pair_convection_sign_flipped(), forchheimer, "pair_secant_rel"
    ),
    "state beta |m|^2 row zeroed": (
        StateStencil, "__init__", _state_forchheimer_zeroed(), forchheimer, "pair_secant_rel"
    ),
    "adjoint slab shifted": (adjoint_solver, "march", _adjoint_slab_shifted(), duality, "duality_delta0_rel_max"),
    "duality cubic term dropped": (
        adjoint_solver, "cubic_coeffs", _duality_cubic_dropped, duality, "duality_delta_0.1_order"
    ),
    "delta ignored by apply_transpose": (
        PairStencil, "apply_transpose", _transpose_ignoring_delta(), adjoint_bounds, "delta_ladder_monotone"
    ),
}


def test_unmutated_operators_pass_every_row():
    for check in {check for *_, check, _ in MUTANTS.values()}:
        ledger = MarginLedger()
        check(PROFILE, ledger)
        assert ledger.all_pass, {name: rec["value"] for name, rec in ledger.records.items()}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_fails_its_row(name, monkeypatch):
    owner, attribute, replacement, check, row = MUTANTS[name]
    monkeypatch.setattr(owner, attribute, replacement)
    ledger = MarginLedger()
    check(PROFILE, ledger)
    assert ledger.records[row]["pass"] is False, (name, ledger.records[row]["value"])
