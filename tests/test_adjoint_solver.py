import dataclasses
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from cbfctl import (
    Grid,
    OperatorParams,
    SpectralField,
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
    zero_field,
)
from cbfctl.fields import mode_sq, parseval_pairing, parseval_sum, random_forcing
from cbfctl.checks import observed_order
from oracles import trajectory_from_fields


def _pair(grid, params, rng, t_end=1.0, nt=32, amp=1.0):
    m0 = random_field(grid, rng, l2=0.5 * amp)
    f1 = random_trajectory(grid, t_end, nt, rng, l2=amp)
    f2 = f1 + random_trajectory(grid, t_end, nt, rng, l2=0.5 * amp)
    run1 = solve_state(m0, f1, params)
    run2 = solve_state(m0, f2, params)
    h = random_trajectory(grid, t_end, nt, rng, l2=amp)
    return run1, run2, h


def test_zero_source_gives_zero_adjoint(grid2d, params, rng):
    run1, run2, _ = _pair(grid2d, params, rng, nt=8)
    h = Trajectory.zero(grid2d, 1.0, 8)
    adj = solve_adjoint((run1.solution, run2.solution), h, 0.0, params, kappa=params.kappa_star())
    assert all(float(np.max(np.abs(s.coeffs))) == 0.0 for s in adj.solution)


def test_terminal_condition_exact(grid2d, params, rng):
    run1, run2, h = _pair(grid2d, params, rng, nt=16)
    adj = solve_adjoint((run1.solution, run2.solution), h, 0.1, params, kappa=params.kappa_star())
    assert float(np.max(np.abs(adj.solution[16].coeffs))) == 0.0


def test_duality_exact_at_delta_zero(grid2d, params, rng):
    run1, run2, h = _pair(grid2d, params, rng, nt=32)
    diff = solve_difference(run1, run2)
    adj = solve_adjoint((run1.solution, run2.solution), h, 0.0, params, kappa=params.kappa_star())
    rep = duality_residual(adj, run1, run2, difference=diff.trajectory)
    assert rep.delta_form <= 1e-10 * rep.scale
    # limit form replaces v by m1 - m2: only O(dt)
    assert rep.limit_form <= 10.0 * run1.dt * rep.scale


def test_duality_provenance_check(grid2d, params, rng):
    run1, run2, h = _pair(grid2d, params, rng, nt=8)
    other1, other2, _ = _pair(grid2d, params, rng, nt=8)
    adj = solve_adjoint((run1.solution, run2.solution), h, 0.0, params, kappa=params.kappa_star())
    with pytest.raises(ValueError, match="coefficient trajectories"):
        duality_residual(adj, other1, other2, difference=solve_difference(other1, other2).trajectory)


def test_solver_results_are_frozen(grid2d, params, rng):
    # duality_residual tells an adjoint's runs by identity, so a run's solution must not be rebound
    run1, run2, h = _pair(grid2d, params, rng, nt=4)
    adj = solve_adjoint((run1.solution, run2.solution), h, 0.0, params, kappa=params.kappa_star())
    for result in (run1, adj):
        with pytest.raises(FrozenInstanceError):
            result.solution = run2.solution
    moved = dataclasses.replace(run1, solution=run2.solution)
    assert moved.solution is run2.solution and moved.report is run1.report
    assert dataclasses.replace(adj, delta=0.1).delta == 0.1 and adj.delta == 0.0
    with pytest.raises(ValueError, match="coefficient trajectories"):
        duality_residual(adj, moved, run2, difference=solve_difference(run1, run2).trajectory)


def test_duality_delta_positive_first_order(params, rng):
    g = Grid(d=2, n=12)
    m0 = random_field(g, rng, l2=0.5)
    f1_fn = random_forcing(g, rng, l2=1.0, t_scale=0.5)
    f2_fn = random_forcing(g, rng, l2=1.0, t_scale=0.5)
    h_fn = random_forcing(g, rng, l2=1.0, t_scale=0.5)
    residuals, dts = [], []
    for nt in (16, 32, 64):
        f1 = Trajectory(g, 0.5, f1_fn(np.linspace(0.0, 0.5, nt + 1)))
        f2 = Trajectory(g, 0.5, f2_fn(np.linspace(0.0, 0.5, nt + 1)))
        h = Trajectory(g, 0.5, h_fn(np.linspace(0.0, 0.5, nt + 1)))
        run1 = solve_state(m0, f1, params)
        run2 = solve_state(m0, f2, params)
        diff = solve_difference(run1, run2)
        adj = solve_adjoint((run1.solution, run2.solution), h, 1e-1, params, kappa=params.kappa_star())
        rep = duality_residual(adj, run1, run2, difference=diff.trajectory)
        residuals.append(rep.delta_form)
        dts.append(0.5 / nt)
    assert observed_order(dts, residuals) >= 0.9


def test_adjoint_energy_bound(grid2d, params, rng):
    for _ in range(3):
        run1, run2, h = _pair(grid2d, params, rng)
        adj = solve_adjoint((run1.solution, run2.solution), h, 0.0, params, kappa=params.kappa_star())
        assert adj.report.energy_margin >= -1e-8 * adj.report.energy_K
        adj1 = solve_adjoint((run1.solution, run2.solution), h, 0.5, params, kappa=params.kappa_star())
        assert adj1.report.energy_margin >= -1e-8 * adj1.report.energy_K


def test_delta_ladder_monotone(grid2d, params, rng):
    run1, run2, h = _pair(grid2d, params, rng, nt=24)
    _, ladder = delta_sweep(
        (run1.solution, run2.solution), h, (1e-1, 1e-2, 1e-3, 1e-4), params, kappa=params.kappa_star()
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
    h = trajectory_from_fields(g, dt * nt, [unit(amp0)] * (nt + 1))
    adj = solve_adjoint((zero_traj, zero_traj), h, delta, params, kappa=params.kappa_star())

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
        coeff = adj.solution[nt - j].coeffs[(slice(None),) + g.position(k)]
        assert coeff[1].imag == pytest.approx(0.0, abs=1e-12)
        assert coeff[1].real == pytest.approx(ael[j - 1], rel=1e-9)


def test_step_adjoint_matches_solver(grid2d, params, rng):
    # one manual reversed step reproduces the last sample before T exactly
    run1, run2, h = _pair(grid2d, params, rng, nt=8)
    p0 = zero_field(grid2d)
    # reversed sample j of a trajectory x is x.coeffs[::-1][j]
    m1r, m2r, hr = (x.coeffs[::-1] for x in (run1.solution, run2.solution, h))
    for delta in (0.0, 0.3):
        adj = solve_adjoint((run1.solution, run2.solution), h, delta, params, kappa=params.kappa_star())
        p1 = step_adjoint(
            p0, SpectralField(grid2d, m1r[1]), SpectralField(grid2d, m2r[1]), SpectralField(grid2d, hr[0]),
            run1.dt, delta, params,
        )
        assert np.array_equal(p1.coeffs, adj.solution[7].coeffs), delta


def _bound_adjoint(run1, run2, h, delta, params):
    return solve_adjoint(
        (run1.solution, run2.solution), h, delta, params, kappa=params.kappa_star(),
        state_K=(run1.report.energy_bound_K, run2.report.energy_bound_K),
    )


def test_derivative_bound(grid2d, params, rng):
    run1, run2, h = _pair(grid2d, params, rng, nt=24)
    reps = {}
    for delta in (0.2, 0.1, 0.0):
        rep = derivative_bound_check(_bound_adjoint(run1, run2, h, delta, params))
        assert rep.margin == rep.bound - rep.norm
        assert rep.margin >= 0.0
        reps[delta] = rep
    # only the bound's delta term depends on delta; it scales by 2^(-1/4) under delta halving
    ratio = (reps[0.1].bound - reps[0.0].bound) / (reps[0.2].bound - reps[0.0].bound)
    assert ratio == pytest.approx(2.0 ** (-0.25), rel=1e-9)
    # h = 0: q = 0, so the norm vanishes, and K = 0 makes the bound vanish too
    repz = derivative_bound_check(_bound_adjoint(run1, run2, Trajectory.zero(grid2d, 1.0, 24), 0.0, params))
    assert repz.norm == 0.0 and repz.bound == 0.0 and repz.margin == 0.0


def _time_l2v_pairing(q, psi):
    """(int (dq/dt, psi) dt, ||psi||_{L2(0,T;V)}) with the difference quotient
    of q on each step and psi[n] the coefficient array of the probe on step n."""
    g = q.grid
    pairing = float(np.sum(parseval_pairing(g, q.coeffs[1:] - q.coeffs[:-1], psi)))
    return pairing, math.sqrt(q.dt * float(np.sum(parseval_sum(g, g.k_sq * mode_sq(g, psi), g.d))))


def _trajectories(grid, params, rng, t_end, nt):
    # an adjoint, a trajectory smooth in time and one with independent samples
    run1, run2, h = _pair(grid, params, rng, t_end=t_end, nt=nt, amp=0.5)
    yield run1, run2, h, _bound_adjoint(run1, run2, h, 0.0, params).solution
    yield run1, run2, h, random_trajectory(grid, t_end, nt, rng)
    yield run1, run2, h, trajectory_from_fields(grid, t_end, [random_field(grid, rng) for _ in range(nt + 1)])


@pytest.mark.parametrize("d,n", [(2, 8), (3, 6)])
def test_derivative_norm_is_the_probe_supremum(params, rng, d, n):
    # no smooth time profile times a random field exceeds the closed form, and
    # the Riesz probe psi_n = A^{-1} (q_{n+1} - q_n) / dt attains it, so the
    # norm is exact, not only an upper bound (dropping its 1/dt fails here)
    grid, t_end, nt = Grid(d=d, n=n), 0.5, 8
    for run1, run2, h, q in _trajectories(grid, params, rng, t_end, nt):
        adj = dataclasses.replace(_bound_adjoint(run1, run2, h, 0.0, params), solution=q)
        norm = derivative_bound_check(adj).norm
        assert norm > 0.0
        for _ in range(16):
            phi = random_field(grid, rng)
            freq, phase = rng.uniform(0.5, 3.0) * math.pi / t_end, rng.uniform(0.0, 2.0 * math.pi)
            probes = np.stack([phi.coeffs * math.cos(freq * t + phase) for t in q.times[:-1].tolist()])
            pairing, size = _time_l2v_pairing(q, probes)
            assert abs(pairing) / size <= norm * (1.0 + 1e-12)
        pairing, size = _time_l2v_pairing(q, (q.coeffs[1:] - q.coeffs[:-1]) / grid.k_sq_safe * (1.0 / q.dt))
        assert pairing / size == pytest.approx(norm, rel=1e-12)


def test_solve_adjoint_noc_zero_at_target(grid2d, params, rng):
    m0 = random_field(grid2d, rng, l2=0.5)
    f = random_trajectory(grid2d, 1.0, 16, rng)
    run = solve_state(m0, f, params)
    adj = solve_adjoint_noc(run, run.solution)
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
    adj = solve_adjoint((run1.solution, run2.solution), h, 0.0, params, kappa=params.kappa_star())
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
        adj = solve_adjoint((run1.solution, run2.solution), h, 0.0, params, kappa=params.kappa_star())
        dt, nt, df = run1.dt, 16, run1.forcing - run2.forcing
        lhs = sum(dt * inner_product(df[n], adj.solution[n]) for n in range(nt))
        rhs = sum(dt * inner_product(h[n], diff.trajectory[n]) for n in range(1, nt + 1))
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_reports_are_frozen(grid2d, params, rng):
    # both reports are complete when their solve returns; nothing fills them in later
    run1, run2, h = _pair(grid2d, params, rng, nt=4)
    with pytest.raises(FrozenInstanceError):
        run1.report.energy_bound_K = 0.0
    adj = solve_adjoint((run1.solution, run2.solution), h, 0.0, params, kappa=params.kappa_star())
    with pytest.raises(FrozenInstanceError):
        adj.report.energy_margin = 0.0


def test_kappa_is_required(grid2d, params, rng):
    # the energy margin's kappa is always the caller's; no solver picks one
    run1, run2, h = _pair(grid2d, params, rng, nt=4)
    with pytest.raises(TypeError, match="kappa"):
        solve_adjoint((run1.solution, run2.solution), h, 0.0, params)
    with pytest.raises(TypeError, match="kappa"):
        delta_sweep((run1.solution, run2.solution), h, (1e-1,), params)


def test_derivative_bound_needs_state_K(grid2d, params, rng):
    run1, run2, h = _pair(grid2d, params, rng, nt=4)
    adj = solve_adjoint((run1.solution, run2.solution), h, 0.0, params, kappa=params.kappa_star())
    with pytest.raises(ValueError, match="state_K"):
        derivative_bound_check(adj)
