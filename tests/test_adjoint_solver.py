import numpy as np
import pytest

from cbfctl import (
    Grid,
    OperatorParams,
    Trajectory,
    delta_sweep,
    derivative_bound_check,
    duality_residual,
    inner_product,
    make_field,
    random_field,
    random_trajectory,
    solve_adjoint,
    solve_adjoint_noc,
    solve_difference,
    solve_state,
    step_adjoint,
    time_reverse,
    zero_field,
)
from cbfctl.fields import random_forcing
from cbfctl.checks import observed_order


def _pair(grid, params, rng, t_end=1.0, nt=32, amp=1.0):
    m0 = random_field(grid, rng, l2=0.5 * amp)
    f1 = random_trajectory(grid, t_end, nt, rng, l2=amp)
    f2 = f1 + random_trajectory(grid, t_end, nt, rng, l2=0.5 * amp)
    run1 = solve_state(m0, f1, params)
    run2 = solve_state(m0, f2, params)
    h = random_trajectory(grid, t_end, nt, rng, l2=amp)
    return run1, run2, h


def test_time_reverse_involution(grid2d, rng):
    traj = random_trajectory(grid2d, 1.0, 8, rng)
    back = time_reverse(time_reverse(traj))
    for n in range(9):
        assert np.array_equal(back[n].coeffs, traj[n].coeffs)
    rev = time_reverse(traj)
    for n in range(9):
        assert np.array_equal(rev[n].coeffs, traj[8 - n].coeffs)
    const = Trajectory.constant(traj[0], 1.0, 4)
    revc = time_reverse(const)
    for n in range(5):
        assert np.array_equal(revc[n].coeffs, const[n].coeffs)


def test_zero_source_gives_zero_adjoint(grid2d, params, rng):
    run1, run2, _ = _pair(grid2d, params, rng, nt=8)
    h = Trajectory.zero(grid2d, 1.0, 8)
    adj = solve_adjoint((run1.solution, run2.solution), h, 0.0, params)
    assert all(float(np.max(np.abs(s.coeffs))) == 0.0 for s in adj.solution)


def test_terminal_condition_exact(grid2d, params, rng):
    run1, run2, h = _pair(grid2d, params, rng, nt=16)
    adj = solve_adjoint((run1.solution, run2.solution), h, 0.1, params)
    assert float(np.max(np.abs(adj.solution[16].coeffs))) == 0.0


def test_duality_exact_at_delta_zero(grid2d, params, rng):
    run1, run2, h = _pair(grid2d, params, rng, nt=32)
    diff = solve_difference(run1, run2)
    adj = solve_adjoint((run1.solution, run2.solution), h, 0.0, params)
    rep = duality_residual(adj, run1, run2, difference=diff.trajectory)
    assert rep.delta_form <= 1e-10 * rep.scale
    # limit form replaces v by m1 - m2: only O(dt)
    assert rep.limit_form <= 10.0 * run1.dt * rep.scale


def test_duality_provenance_check(grid2d, params, rng):
    run1, run2, h = _pair(grid2d, params, rng, nt=8)
    other1, other2, _ = _pair(grid2d, params, rng, nt=8)
    adj = solve_adjoint((run1.solution, run2.solution), h, 0.0, params)
    with pytest.raises(ValueError, match="coefficient trajectories"):
        duality_residual(adj, other1, other2)


def test_duality_delta_positive_first_order(params, rng):
    g = Grid(d=2, n=12)
    m0 = random_field(g, rng, l2=0.5)
    f1_fn = random_forcing(g, rng, l2=1.0, t_scale=0.5)
    f2_fn = random_forcing(g, rng, l2=1.0, t_scale=0.5)
    h_fn = random_forcing(g, rng, l2=1.0, t_scale=0.5)
    residuals, dts = [], []
    for nt in (16, 32, 64):
        f1 = Trajectory.from_callable(g, 0.5, nt, f1_fn)
        f2 = Trajectory.from_callable(g, 0.5, nt, f2_fn)
        h = Trajectory.from_callable(g, 0.5, nt, h_fn)
        run1 = solve_state(m0, f1, params)
        run2 = solve_state(m0, f2, params)
        diff = solve_difference(run1, run2)
        adj = solve_adjoint((run1.solution, run2.solution), h, 1e-1, params)
        rep = duality_residual(adj, run1, run2, difference=diff.trajectory)
        residuals.append(rep.delta_form)
        dts.append(0.5 / nt)
    assert observed_order(dts, residuals) >= 0.9


def test_adjoint_energy_bound(grid2d, params, rng):
    for _ in range(3):
        run1, run2, h = _pair(grid2d, params, rng)
        adj = solve_adjoint((run1.solution, run2.solution), h, 0.0, params)
        assert adj.report.energy_margin >= -1e-8 * adj.report.energy_K
        adj1 = solve_adjoint((run1.solution, run2.solution), h, 0.5, params)
        assert adj1.report.energy_margin >= -1e-8 * adj1.report.energy_K


def test_delta_ladder_monotone(grid2d, params, rng):
    run1, run2, h = _pair(grid2d, params, rng, nt=24)
    _, ladder = delta_sweep(
        (run1.solution, run2.solution), h, (1e-1, 1e-2, 1e-3, 1e-4), params
    )
    dists = [d for _, d in ladder]
    assert all(dists[i] > dists[i + 1] > 0.0 for i in range(len(dists) - 1))


def test_step_adjoint_scalar_cubic_oracle(params):
    # zero coefficients, single mode, delta = 1: the step collapses to the
    # scalar recursion (1 + dt(alpha + mu|k|^2) + 3 dt delta a_n^2) a_{n+1} = a_n + dt h_n
    # as long as the tripled wavenumber falls outside the retained range.
    g = Grid(d=2, n=16)
    k = (2, 0)
    assert 3 * k[0] > g.kmax
    delta, dt, nt = 1.0, 0.02, 40
    amp0 = 0.8

    def unit(a):
        return make_field(g, [(k, (0.0, a))])

    zero_traj = Trajectory.zero(g, dt * nt, nt)
    h = Trajectory.constant(unit(amp0), dt * nt, nt)
    adj = solve_adjoint((zero_traj, zero_traj), h, delta, params)

    # reversed-time scalar reference; physical amplitude of mode (a cos form)
    # C(field) = 3 a^2 * field in the retained space for this mode
    a = 0.0
    ael = []
    for j in range(nt):
        rhs = a + dt * amp0
        a = rhs / (1.0 + dt * (params.alpha + params.mu * 4.0) + 3.0 * dt * delta * a * a)
        ael.append(a)
    # adjoint solution at original index n corresponds to reversed index nt - n
    for j in (1, nt // 2, nt):
        coeff = adj.solution[nt - j].coeffs[(slice(None),) + g.mode_positions[k]]
        assert coeff[1].imag == pytest.approx(0.0, abs=1e-12)
        assert coeff[1].real == pytest.approx(ael[j - 1], rel=1e-9)


def test_step_adjoint_matches_solver(grid2d, params, rng):
    # one manual reversed step reproduces the last sample before T exactly
    run1, run2, h = _pair(grid2d, params, rng, nt=8)
    p0 = zero_field(grid2d)
    m1r = time_reverse(run1.solution)
    m2r = time_reverse(run2.solution)
    hr = time_reverse(h)
    for delta in (0.0, 0.3):
        adj = solve_adjoint((run1.solution, run2.solution), h, delta, params)
        p1 = step_adjoint(p0, m1r[1], m2r[1], hr[0], run1.dt, delta, params)
        assert np.array_equal(p1.coeffs, adj.solution[7].coeffs), delta


def test_derivative_bound(grid2d, params, rng):
    run1, run2, h = _pair(grid2d, params, rng, nt=24)
    state_K = (run1.report.energy_bound_K, run2.report.energy_bound_K)
    margins = {}
    for delta in (0.2, 0.1):
        adj = solve_adjoint((run1.solution, run2.solution), h, delta, params, state_K=state_K)
        rep = derivative_bound_check(adj, n_probes=24)
        assert rep.margin >= 0.0
        margins[delta] = rep
    # the bound's delta term scales by 2^(-1/4) under delta halving
    ratio = margins[0.1].delta_term / margins[0.2].delta_term
    assert ratio == pytest.approx(2.0 ** (-0.25), rel=1e-12)
    # h = 0: both sides vanish
    hz = Trajectory.zero(grid2d, 1.0, 24)
    adjz = solve_adjoint((run1.solution, run2.solution), hz, 0.0, params, state_K=state_K)
    repz = derivative_bound_check(adjz, n_probes=8)
    assert repz.sampled_norm == 0.0
    assert repz.k_hat == 0.0


def test_solve_adjoint_noc_zero_at_target(grid2d, params, rng):
    m0 = random_field(grid2d, rng, l2=0.5)
    f = random_trajectory(grid2d, 1.0, 16, rng)
    run = solve_state(m0, f, params)
    adj = solve_adjoint_noc(run, run.solution, params)
    assert all(float(np.max(np.abs(s.coeffs))) == 0.0 for s in adj.solution)


def test_solve_adjoint_noc_energy_bound(grid2d, params, rng):
    m0 = random_field(grid2d, rng, l2=0.5)
    f = random_trajectory(grid2d, 1.0, 16, rng)
    target = random_trajectory(grid2d, 1.0, 16, rng, l2=0.5)
    run = solve_state(m0, f, params)
    adj = solve_adjoint_noc(run, target)
    assert adj.delta == 0.0
    assert adj.report.energy_margin >= -1e-8 * adj.report.energy_K
    # collapsed coefficients: both trajectories are the state solution
    assert adj.coeffs[0] is run.solution and adj.coeffs[1] is run.solution


def test_full_pipeline_3d(grid3d, params, rng):
    # state pair -> difference -> backward adjoint, exact duality in 3D
    run1, run2, h = _pair(grid3d, params, rng, t_end=0.5, nt=16, amp=0.5)
    diff = solve_difference(run1, run2)
    adj = solve_adjoint((run1.solution, run2.solution), h, 0.0, params)
    rep = duality_residual(adj, run1, run2, difference=diff.trajectory)
    assert rep.delta_form <= 1e-10 * rep.scale
    assert adj.report.energy_margin >= -1e-8 * adj.report.energy_K
    assert run1.report.energy_equality_residual <= 10.0 * run1.dt * run1.report.energy_bound_K
    assert float(np.max(np.abs(adj.solution[16].coeffs))) == 0.0


def test_exact_discrete_transposition_bilinear_identity(grid2d, params, rng):
    # load-bearing property: sum (f1-f2, q) dt == sum (h, v) dt for random pairs
    for _ in range(3):
        run1, run2, h = _pair(grid2d, params, rng, nt=16)
        diff = solve_difference(run1, run2)
        adj = solve_adjoint((run1.solution, run2.solution), h, 0.0, params)
        dt, nt = run1.dt, 16
        lhs = sum(
            dt * inner_product(run1.forcing[n] - run2.forcing[n], adj.solution[n])
            for n in range(nt)
        )
        rhs = sum(dt * inner_product(h[n], diff.trajectory[n]) for n in range(1, nt + 1))
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) <= 1e-10 * scale
