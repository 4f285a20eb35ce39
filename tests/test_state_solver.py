import math

import numpy as np
import pytest

from cbfctl import (
    Grid,
    HypothesisViolatedError,
    NonConvergenceError,
    OperatorParams,
    SpectralField,
    Trajectory,
    inner_product,
    lipschitz_check,
    make_field,
    norms,
    random_field,
    random_trajectory,
    solve_difference,
    solve_state,
    step_state,
    zero_field,
)
from cbfctl.fields import random_forcing, speed_squared
from cbfctl.checks import observed_order
from cbfctl.operators import PairStencil, StateStencil
from cbfctl.state_solver import _dinv, picard_solve
from oracles import apply_B


def _l2(u):
    return math.sqrt(max(inner_product(u, u), 0.0))


def test_step_rest_state(grid2d, params):
    z = zero_field(grid2d)
    out = step_state(z, z, 0.01, params)
    assert float(np.max(np.abs(out.coeffs))) == 0.0


def test_step_eigenmode_linear_limit(params):
    g = Grid(d=2, n=16)
    amp = 1e-8
    u = make_field(g, [((1, 0), (0.0, amp))])
    dt = 1e-3
    out = step_state(u, zero_field(g), dt, params)
    expected = u.coeffs * (1.0 / (1.0 + dt * (params.mu * 1.0 + params.alpha)))
    rel = _l2(SpectralField(g, out.coeffs - expected)) / _l2(SpectralField(g, expected))
    assert rel <= 1e-6


def test_step_state_matches_solver(grid2d, params, rng):
    # the one-step march is the solver's first step, bit for bit
    m0 = random_field(grid2d, rng, l2=0.5)
    f = random_trajectory(grid2d, 0.5, 8, rng, l2=1.0)
    out = step_state(m0, f[0], f.dt, params)
    assert np.array_equal(out.coeffs, solve_state(m0, f, params).solution[1].coeffs)


def test_step_rejects_bad_dt(grid2d, params, rng):
    u = random_field(grid2d, rng)
    with pytest.raises(ValueError):
        step_state(u, u, -0.1, params)


def test_step_cfl_warning(params, rng):
    # far beyond the sanity threshold: warn, then fail to converge
    g = Grid(d=2, n=16)
    u = random_field(g, rng, l2=50.0)
    with pytest.warns(RuntimeWarning, match="implicit solve"):
        with pytest.raises(NonConvergenceError):
            with np.errstate(all="ignore"):
                step_state(u, zero_field(g), 1.0, params, max_iters=50)


def _reference_picard(grid, dinv, rhs, napply, dt, tol, max_iters):
    """The sweep as a loop over SpectralFields: one wrapped around every
    iterate, the increment's norm reduced by np.sum."""

    def l2(c):
        return math.sqrt(max(float(np.real(np.sum(c * np.conj(c))) * grid.volume), 0.0))

    scale = max(l2(rhs.coeffs), 1e-300)
    x = b = dinv * rhs.coeffs
    dt_dinv = dt * dinv
    for it in range(max_iters):
        x_new = b - dt_dinv * napply(SpectralField(grid, x).coeffs)
        delta = l2(x_new - x)
        x = x_new
        if delta <= tol * scale:
            return SpectralField(grid, x), it + 1
    raise AssertionError("the reference sweep did not converge")


@pytest.mark.parametrize("d,n", [(2, 8), (3, 6)])
def test_picard_solve_matches_field_loop_bitwise(d, n, params):
    g = Grid(d=d, n=n)
    rng = np.random.default_rng(808)
    m1, m2, rhs = (random_field(g, rng, l2=2.0) for _ in range(3))
    pair = PairStencil(g, m1.coeffs, m2.coeffs, params)
    extra = 0.3 * speed_squared(g, g.to_physical(m2.coeffs))
    applies = {
        "state": StateStencil(g, m1.coeffs, params).apply,
        "pair": pair.apply,
        "transpose": pair.apply_transpose,
        "transpose_extra": lambda q: pair.apply_transpose(q, extra_weight=extra),
    }
    dt = 0.05
    dinv = _dinv(g, params, dt)
    for name, napply in applies.items():
        x, sweeps = picard_solve(g, dinv, rhs.coeffs, napply, dt, 1e-12, 200, 0)
        ref, ref_sweeps = _reference_picard(g, dinv, rhs, napply, dt, 1e-12, 200)
        assert sweeps == ref_sweeps > 3, name
        assert np.array_equal(x.view(np.uint64), ref.coeffs.view(np.uint64)), name


def test_picard_nonconvergence(grid2d, params, rng):
    u = random_field(grid2d, rng, l2=5.0)
    with pytest.raises(NonConvergenceError):
        with pytest.warns(RuntimeWarning):
            with np.errstate(all="ignore"):
                step_state(u, zero_field(grid2d), 5.0, params, max_iters=3)


def test_solve_state_zero_everything(grid2d, params):
    f = Trajectory.zero(grid2d, 1.0, 8)
    run = solve_state(zero_field(grid2d), f, params)
    assert all(float(np.max(np.abs(s.coeffs))) == 0.0 for s in run.solution)
    assert run.report.energy_equality_residual == 0.0
    assert run.report.energy_bound_margin_t_pos == 0.0


def test_solve_state_dissipative_decay(grid2d, params, rng):
    m0 = random_field(grid2d, rng, l2=1.0)
    f = Trajectory.zero(grid2d, 1.0, 32)
    run = solve_state(m0, f, params)
    l2s = run.report.l2
    assert all(l2s[i + 1] <= l2s[i] * (1.0 + 1e-12) for i in range(len(l2s) - 1))
    assert l2s[-1] < 0.5 * l2s[0]


def test_implicit_convection_no_energy_contribution(grid2d, params, rng):
    m = random_field(grid2d, rng)
    f = random_field(grid2d, rng)
    out = step_state(m, f, 0.01, params)
    scale = norms(m).v * norms(out).l2 * norms(out).v
    assert abs(inner_product(apply_B(m, out), out)) <= 1e-12 * max(scale, 1.0)


def test_wellposedness_warning(grid2d, rng):
    weak = OperatorParams(mu=0.1, alpha=0.1, beta=1.0)
    f = random_trajectory(grid2d, 0.5, 8, rng, l2=0.1)
    with pytest.warns(RuntimeWarning, match="2\\*beta\\*mu"):
        solve_state(zero_field(grid2d), f, weak)


def test_energy_equality_first_order(params, rng):
    g = Grid(d=2, n=12)
    fn = random_forcing(g, rng, l2=1.0, t_scale=0.5)
    residuals, dts = [], []
    for nt in (16, 32, 64, 128):
        f = Trajectory(g, 0.5, fn(np.linspace(0.0, 0.5, nt + 1)))
        run = solve_state(zero_field(g), f, params)
        residuals.append(run.report.energy_equality_residual)
        dts.append(0.5 / nt)
    # consecutive halvings: first-order ratio in [1.5, 3]
    for i in range(len(residuals) - 1):
        ratio = residuals[i] / residuals[i + 1]
        assert 1.5 <= ratio <= 3.0
    assert observed_order(dts, residuals) >= 0.9


def test_energy_equality_stokes_regime(params, rng):
    # tiny amplitude: nonlinear terms negligible, residual at quadrature level
    g = Grid(d=2, n=16)
    m0 = random_field(g, rng, l2=5e-5)
    f = Trajectory.zero(g, 1.0, 64)
    run = solve_state(m0, f, params)
    assert run.report.energy_equality_residual <= 1e-8


def test_energy_estimate_spin_up_margins(params):
    # spin-up from rest
    grid = Grid(d=2, n=16)
    for seed in range(5):
        f = random_trajectory(grid, 1.0, 64, np.random.default_rng(seed))
        run = solve_state(zero_field(grid), f, params)
        K = run.report.energy_bound_K
        assert run.report.energy_bound_margin_t_pos >= -1e-8 * K


def test_energy_estimate_high_amplitude(params):
    grid = Grid(d=2, n=16)
    f = random_trajectory(grid, 1.0, 64, np.random.default_rng(20260808), l2=6.0)
    run = solve_state(zero_field(grid), f, params)
    assert run.report.energy_bound_margin_t_pos >= -1e-8 * run.report.energy_bound_K


def test_solve_difference_equal_forcings(grid2d, params, rng):
    m0 = random_field(grid2d, rng, l2=0.5)
    f = random_trajectory(grid2d, 0.5, 16, rng)
    run1 = solve_state(m0, f, params)
    run2 = solve_state(m0, f, params)
    diff = solve_difference(run1, run2)
    assert max(_l2(s) for s in diff.trajectory) <= 1e-11
    assert diff.defect <= 1e-11


def test_solve_difference_consistency_order(params, rng):
    g = Grid(d=2, n=12)
    m0 = random_field(g, rng, l2=0.5)
    f1_fn = random_forcing(g, rng, l2=1.0, t_scale=0.5)
    f2_fn = random_forcing(g, rng, l2=1.0, t_scale=0.5)
    defects, dts = [], []
    for nt in (16, 32, 64):
        f1 = Trajectory(g, 0.5, f1_fn(np.linspace(0.0, 0.5, nt + 1)))
        f2 = Trajectory(g, 0.5, f2_fn(np.linspace(0.0, 0.5, nt + 1)))
        run1 = solve_state(m0, f1, params)
        run2 = solve_state(m0, f2, params)
        defects.append(solve_difference(run1, run2).defect)
        dts.append(0.5 / nt)
    assert observed_order(dts, defects) >= 0.9


def test_solve_difference_requires_shared_setup(grid2d, params, rng):
    f = random_trajectory(grid2d, 0.5, 8, rng)
    run1 = solve_state(random_field(grid2d, rng, l2=0.5), f, params)
    run2 = solve_state(random_field(grid2d, rng, l2=0.5), f, params)
    with pytest.raises(ValueError, match="initial condition"):
        solve_difference(run1, run2)


def test_lipschitz_equal_forcings_zero(grid2d, params, rng):
    m0 = random_field(grid2d, rng, l2=0.5)
    f = random_trajectory(grid2d, 0.5, 16, rng)
    run1 = solve_state(m0, f, params)
    run2 = solve_state(m0, f, params)
    assert lipschitz_check(run1, run2, 0.75) == pytest.approx(0.0, abs=1e-18)


def test_lipschitz_margin_nonnegative(grid2d, params, rng):
    kappa = params.kappa_star()
    for _ in range(5):
        m0 = random_field(grid2d, rng, l2=0.5)
        f1 = random_trajectory(grid2d, 1.0, 32, rng)
        f2 = f1 + random_trajectory(grid2d, 1.0, 32, rng, l2=0.5)
        run1 = solve_state(m0, f1, params)
        run2 = solve_state(m0, f2, params)
        margin = lipschitz_check(run1, run2, kappa)
        df = (f1 - f2)[0]
        scale = math.exp(1.0) * max(inner_product(df, df), 1e-30)
        assert margin >= -1e-8 * scale


def test_lipschitz_invalid_kappa(grid2d, params, rng):
    m0 = random_field(grid2d, rng, l2=0.5)
    f = random_trajectory(grid2d, 0.5, 8, rng)
    run1 = solve_state(m0, f, params)
    run2 = solve_state(m0, f, params)
    with pytest.raises(HypothesisViolatedError):
        lipschitz_check(run1, run2, 1.2)
    with pytest.raises(HypothesisViolatedError):
        lipschitz_check(run1, run2, 0.3)  # 2 beta mu = 2 < 1/0.3


def test_lipschitz_quadratic_rho_scaling(params, rng):
    g = Grid(d=2, n=12)
    kappa = params.kappa_star()
    m0 = random_field(g, rng, l2=0.5)
    f1 = random_trajectory(g, 0.5, 32, rng)
    gdir = random_trajectory(g, 0.5, 32, rng)
    run1 = solve_state(m0, f1, params)
    margins = []
    for rho in (2e-2, 1e-2):
        run2 = solve_state(m0, f1 + rho * gdir, params)
        margins.append(lipschitz_check(run1, run2, kappa))
    assert margins[0] / margins[1] == pytest.approx(4.0, rel=0.1)
