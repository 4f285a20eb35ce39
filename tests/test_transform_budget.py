"""Transform budgets of the solves, and the report values read off their transforms.

Every field goes through the M-grid once per time step: a state step costs
the stencil of its new sample plus one 1-jet and one forward transform per
Picard sweep, an adjoint step adds the new sample's transform and the
coefficient fields' (one transform fewer when both are the same object).
The reports reuse those transforms, so each of their values must equal a
recomputation from the solution samples exactly, not just to round-off.
The time-step core (march, picard_solve and the stencils) works on raw
coefficient arrays, and fields appear only at the solvers' edges: the
SpectralFields a solve builds depend neither on how many sweeps it takes nor
on how many steps.  Check 2 transforms each of its random samples once.
"""

import math

import numpy as np
import pytest

from cbfctl import (
    Grid,
    OperatorParams,
    SpectralField,
    inner_product,
    norms,
    random_field,
    random_trajectory,
    solve_adjoint,
    solve_adjoint_noc,
    solve_difference,
    solve_state,
)
from cbfctl import state_solver
from cbfctl.checks import MarginLedger, Samples, _field, _samples, forchheimer, verify_profile
from cbfctl.fields import quadrature, speed_squared
from cbfctl.harness import ProblemConfig
from oracles import apply_C, monotonicity_gap

TRANSFORMS = ("to_physical", "grad_physical", "from_physical")


@pytest.fixture
def counts(monkeypatch):
    """Count Grid transforms and record each Picard solve's sweep count."""
    tally = {"transforms": 0, "sweeps": []}
    for name in TRANSFORMS:
        orig = getattr(Grid, name)

        def counted(*args, _orig=orig, **kwargs):
            tally["transforms"] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(Grid, name, counted)
    orig_picard = state_solver.picard_solve

    def picard(*args, **kwargs):
        x, its = orig_picard(*args, **kwargs)
        tally["sweeps"].append(its)
        return x, its

    monkeypatch.setattr(state_solver, "picard_solve", picard)
    return tally


def _reset(tally):
    tally["transforms"] = 0
    tally["sweeps"] = []


def _state_budget(sweeps):
    return 1 + sum(1 + 2 * s for s in sweeps)


def _same_bits(u, w):
    return np.array_equal(u.coeffs.view(np.uint64), w.coeffs.view(np.uint64))


def _adjoint_budget(sweeps, m1, m2):
    # sweeps are in reversed time: step j targets slab nt - 1 - j
    nt = m1.nt
    shared = [_same_bits(m1[nt - 1 - j], m2[nt - 1 - j]) for j in range(nt)]
    return 1 + sum(3 - sh + 2 * s for s, sh in zip(sweeps, shared))


def _check_sweeps(report, sweeps):
    # one entry per step, in solve order (reversed time for the adjoint)
    assert report.picard_sweeps.dtype.kind == "i"
    assert report.picard_sweeps.tolist() == sweeps


def _check_state_report(run):
    for n, s in enumerate(run.solution):
        assert run.report.l4[n] == norms(s).l4


def _check_adjoint_report(adj):
    q, r, p = adj.solution, adj.report, adj.params
    l4 = []
    for n, s in enumerate(q):
        nm = norms(s)
        assert (r.q_l2[n], r.q_v[n]) == (nm.l2, nm.v)
        l4.append(nm.l4)
    # the adjoint energy margin, recomputed sample by sample
    dt, nt, kappa, g = q.dt, q.nt, r.kappa, q.grid
    h, (m1, m2) = adj.rhs, adj.coeffs
    qv2, q4 = r.q_v**2, np.array(l4) ** 4
    int_h2 = int_w = int_qv = int_q4 = 0.0
    for n in range(nt):
        int_h2 += dt * inner_product(h[n], h[n])
        q2 = speed_squared(g, g.to_physical(q.coeffs[n]))
        a = float(np.sum(speed_squared(g, g.to_physical(m1.coeffs[n])) * q2) * g.quad_weight)
        b = float(np.sum(speed_squared(g, g.to_physical(m2.coeffs[n])) * q2) * g.quad_weight)
        int_w += dt * (a + b)
        int_qv += dt * qv2[n]
        int_q4 += dt * q4[n]
    K = math.exp(q.t_end) * int_h2
    lhs = (
        float(np.max(r.q_l2**2))
        + 2.0 * p.mu * (1.0 - kappa) * int_qv
        + 2.0 * adj.delta * int_q4
        + (p.beta - 1.0 / (2.0 * p.mu * kappa)) * int_w
    )
    assert type(r.energy_margin) is float and type(r.energy_K) is float
    assert r.energy_K == K
    assert r.energy_margin == K - lhs


@pytest.mark.parametrize("d,n,nt", [(2, 8, 6), (3, 6, 3)])
def test_transform_budget_and_reused_values(d, n, nt, counts):
    grid = Grid(d=d, n=n)
    params = OperatorParams(mu=1.0, alpha=0.1, beta=1.0)
    rng = np.random.default_rng(4242)
    m0 = random_field(grid, rng, l2=1.0)
    f1 = random_trajectory(grid, 0.25, nt, rng, l2=1.0)
    f2 = f1 + random_trajectory(grid, 0.25, nt, rng, l2=0.5)
    h = random_trajectory(grid, 0.25, nt, rng, l2=1.0)

    _reset(counts)
    run1 = solve_state(m0, f1, params)
    assert len(counts["sweeps"]) == nt
    assert counts["transforms"] == _state_budget(counts["sweeps"])
    _check_sweeps(run1.report, counts["sweeps"])
    _reset(counts)
    run2 = solve_state(m0, f2, params)
    _check_sweeps(run2.report, counts["sweeps"])

    m1, m2 = run1.solution, run2.solution
    assert _same_bits(m1[0], m2[0])  # the shared initial condition: slab 0 reuses one transform
    for delta in (0.0, 0.3):
        _reset(counts)
        adj = solve_adjoint((m1, m2), h, delta, params, kappa=params.kappa_star())
        assert counts["transforms"] == _adjoint_budget(counts["sweeps"], m1, m2)
        _check_sweeps(adj.report, counts["sweeps"])
        _check_adjoint_report(adj)

    _reset(counts)
    noc = solve_adjoint_noc(run1, h)
    assert counts["transforms"] == 1 + sum(2 + 2 * s for s in counts["sweeps"])
    _check_sweeps(noc.report, counts["sweeps"])
    _check_adjoint_report(noc)

    _check_state_report(run1)
    _check_state_report(run2)


@pytest.mark.parametrize("d,n,nt", [(2, 8, 6), (3, 6, 3)])
def test_field_wraps_do_not_grow_with_sweeps(d, n, nt, monkeypatch):
    # each solve builds as many SpectralFields at two tolerances (different
    # sweep totals) and at two horizons, nt and 2 nt (different step counts)
    grid = Grid(d=d, n=n)
    params = OperatorParams(mu=1.0, alpha=0.1, beta=1.0)
    rng = np.random.default_rng(4243)
    m0 = random_field(grid, rng, l2=1.0)
    wraps = [0]
    post_init = SpectralField.__post_init__

    def counted(self):
        wraps[0] += 1
        post_init(self)

    def wraps_of(solve, *args, **kwargs):
        wraps[0] = 0
        return solve(*args, **kwargs), wraps[0]

    monkeypatch.setattr(SpectralField, "__post_init__", counted)
    seen, sweeps = {}, {}
    for steps in (nt, 2 * nt):
        f1 = random_trajectory(grid, 0.25, steps, rng, l2=1.0)
        f2 = f1 + random_trajectory(grid, 0.25, steps, rng, l2=0.5)
        h = random_trajectory(grid, 0.25, steps, rng, l2=1.0)
        for tol in (1e-6, 1e-13):
            run1, state = wraps_of(solve_state, m0, f1, params, picard_tol=tol)
            run2 = solve_state(m0, f2, params, picard_tol=tol)
            _, difference = wraps_of(solve_difference, run1, run2, picard_tol=tol)
            adj, adjoint = wraps_of(
                solve_adjoint, (run1.solution, run1.solution), h, 0.3, params, kappa=params.kappa_star(), picard_tol=tol
            )
            seen[steps, tol] = (state, difference, adjoint)
            sweeps[steps, tol] = (int(run1.report.picard_sweeps.sum()), int(adj.report.picard_sweeps.sum()))
    for steps in (nt, 2 * nt):
        loose, tight = sweeps[steps, 1e-6], sweeps[steps, 1e-13]
        assert loose[0] < tight[0] and loose[1] < tight[1]  # the tolerances take different numbers of sweeps
    assert len(set(seen.values())) == 1, seen


def test_forchheimer_check_transforms_each_sample_once(monkeypatch):
    # check 2 feeds the identity, the ||a||_4^4 quadrature and the monotonicity
    # gap from one to_physical of each sample, and its rows are those of the
    # field-level operators, bit for bit; on an identity pair the secant and
    # tangent rows add five: the state stencils of a, b, a + b and a - b and
    # the pair build's values of a (the shared build of (a, a) takes a jet only)
    profile = verify_profile(ProblemConfig())._replace(
        forchheimer=Samples(((2, 8, 6, 5), (3, 6, 4, 6)), (0.5, 2.0), spawn=True, identity_share=0.5)
    )
    identity, gap = 0.0, math.inf
    for grid, i, count, rng in _samples(profile.forchheimer):
        a, b = _field(profile.forchheimer, grid, rng), _field(profile.forchheimer, grid, rng)
        if i < 0.5 * count:
            pairing = inner_product(apply_C(a), a)
            l4_4 = float(quadrature(grid, speed_squared(grid, grid.to_physical(a.coeffs)) ** 2, grid.d))
            identity = max(identity, abs(pairing - l4_4) / max(abs(pairing), 1e-30))
        gap = min(gap, monotonicity_gap(a, b))
    calls = [0]
    to_physical = Grid.to_physical

    def counted(*args, **kwargs):
        calls[0] += 1
        return to_physical(*args, **kwargs)

    monkeypatch.setattr(Grid, "to_physical", counted)
    ledger = MarginLedger()
    forchheimer(profile, ledger)
    assert calls[0] == 2 * (6 + 4) + 5 * (3 + 2)
    assert ledger.records["forchheimer_identity_rel"]["value"] == identity
    assert ledger.records["monotonicity_gap_min"]["value"] == gap
