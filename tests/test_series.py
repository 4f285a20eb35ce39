"""Per-sample series computed as one array operation over a trajectory.

Each value the solvers and the optimizer report is recomputed here sample by
sample, with the per-field functions and the accumulation order of a plain
loop, and must agree with ``==``: batching changes how a series is computed,
never a bit of what it holds.
"""

import math

import numpy as np
import pytest

from cbfctl import (
    Grid,
    OperatorParams,
    cost,
    duality_residual,
    gradient,
    inner_product,
    norms,
    random_field,
    random_trajectory,
    solve_adjoint,
    solve_adjoint_noc,
    solve_difference,
    solve_state,
    time_l2_inner,
)
from cbfctl.fields import (
    inner_product_series,
    l2_series,
    norm_series,
    parseval_pairing,
    quadrature,
    running_integral,
    spectral_norm_series,
    spectral_norms,
    speed_squared,
)
from oracles import apply_C


def _l2(u):
    return spectral_norms(u)[0]


@pytest.fixture(params=[(2, 8, 12), (3, 6, 3)], ids=["2d", "3d"])
def case(request):
    d, n, nt = request.param
    grid = Grid(d=d, n=n)
    params = OperatorParams(mu=1.0, alpha=0.1, beta=1.0)
    rng = np.random.default_rng(515)
    m0 = random_field(grid, rng, l2=1.0)
    f1 = random_trajectory(grid, 0.25, nt, rng, l2=1.0)
    f2 = f1 + random_trajectory(grid, 0.25, nt, rng, l2=0.5)
    h = random_trajectory(grid, 0.25, nt, rng, l2=1.0)
    run1, run2 = solve_state(m0, f1, params), solve_state(m0, f2, params)
    return params, m0, run1, run2, h


@pytest.mark.parametrize("d,n", [(2, 8), (3, 6), (3, 16)])
def test_series_match_per_sample_functions(d, n):
    # (3, 16): a sample of 12,288 coefficients, more than one numpy buffer
    grid = Grid(d=d, n=n)
    rng = np.random.default_rng(517)
    a, b = (random_trajectory(grid, 1.0, 5, rng) for _ in range(2))
    ips = inner_product_series(a, b)
    l2, v = spectral_norm_series(a)
    l2_only = l2_series(a)
    nm = norm_series(a)
    # the batched |u|^2, the M-grid quadrature of |u|^4 and the increment
    # norm of a Picard sweep, one row per sample
    mag2 = speed_squared(grid, grid.to_physical(a.coeffs))
    quad = quadrature(grid, mag2**2, d)
    increments = np.sqrt(parseval_pairing(grid, a.coeffs, a.coeffs))
    for k in range(a.nt + 1):
        assert ips[k] == inner_product(a[k], b[k])
        assert (l2[k], v[k]) == spectral_norms(a[k])
        assert l2_only[k] == l2[k]
        assert (nm.l2[k], nm.v[k], nm.l4[k]) == norms(a[k])
        u2 = speed_squared(grid, grid.to_physical(a[k].coeffs))
        assert np.array_equal(mag2[k].view(np.uint64), u2.view(np.uint64))
        assert quad[k] == quadrature(grid, u2**2, d)
        picard = math.sqrt(parseval_pairing(grid, a[k].coeffs, a[k].coeffs))  # picard_solve's expression
        assert increments[k] == picard == math.sqrt(inner_product(a[k], a[k]))


def test_state_report_series(case):
    run = case[2]
    r, m = run.report, run.solution
    for n in range(m.nt + 1):
        assert (r.l2[n], r.v[n]) == spectral_norms(m[n])


def test_adjoint_report_series(case):
    params, _, run1, run2, h = case
    pair = solve_adjoint((run1.solution, run2.solution), h, 0.2, params, kappa=params.kappa_star())
    for adj in (pair, solve_adjoint_noc(run1, h)):
        q, r = adj.solution, adj.report
        for n in range(q.nt + 1):
            assert (r.q_l2[n], r.q_v[n]) == spectral_norms(q[n])
        int_h2 = 0.0
        for n in range(q.nt):
            int_h2 += q.dt * inner_product(adj.rhs[n], adj.rhs[n])
        assert r.energy_K == math.exp(q.t_end) * int_h2


def test_cost_and_time_inner_keep_loop_accumulation():
    # long series of mixed-sign pairings, where the order of accumulation
    # shows in the last bits (a compensated or pairwise sum fails here)
    grid = Grid(d=2, n=8)
    rng = np.random.default_rng(516)
    f, m, target = (random_trajectory(grid, 1.0, 400, rng) for _ in range(3))
    dt, nt, lam = m.dt, m.nt, 0.1
    track, e = 0.0, m - target
    for n in range(1, nt + 1):
        track += dt * inner_product(e[n], e[n])
    ctrl = 0.0
    for n in range(nt):
        ctrl += dt * inner_product(f[n], f[n])
    assert cost(f, m, target, lam) == 0.5 * track + 0.5 * lam * ctrl
    values = [inner_product(f[n], target[n]) for n in range(nt)]
    acc, loop = 0.0, [0.0]
    for x in values:
        acc += dt * x
        loop.append(acc)
    assert time_l2_inner(f, target) == acc
    # the quadrature itself: every running sum, not only the last
    assert running_integral(values, dt).tolist() == loop


def test_gradient_series(case):
    _, _, run, _, target = case
    f, lam = run.forcing, 0.1
    q = solve_adjoint_noc(run, target).solution
    g = gradient(q, f, lam)
    assert g.t_end == f.t_end
    for n in range(f.nt + 1):
        assert np.array_equal((q.coeffs[n] + lam * f.coeffs[n]).view(np.uint64), g[n].coeffs.view(np.uint64))


@pytest.mark.parametrize("delta", [0.0, 0.2])
def test_duality_running(case, delta):
    params, _, run1, run2, h = case
    v = solve_difference(run1, run2).trajectory
    adj = solve_adjoint((run1.solution, run2.solution), h, delta, params, kappa=params.kappa_star())
    rep = duality_residual(adj, run1, run2, difference=v)
    q, dt, nt = adj.solution, adj.dt, adj.solution.nt
    g, m = run1.forcing - run2.forcing, run1.solution - run2.solution
    lhs = rhs = cubic = scale = int_hm = 0.0
    left = []
    for n in range(nt):
        lhs += dt * inner_product(g[n], q[n])
        scale += dt * (_l2(g[n]) * _l2(q[n]))
        if delta > 0:
            cubic += delta * dt * inner_product(apply_C(q[n]), v[n])
        left.append(lhs + cubic)
    running = [0.0]
    for n in range(1, nt + 1):
        rhs += dt * inner_product(h[n], v[n])
        int_hm += dt * inner_product(h[n], m[n])
        scale += dt * (_l2(h[n]) * _l2(v[n]))
        running.append(abs(left[n - 1] - rhs))
    assert rep.running == tuple(running)
    assert (rep.delta_form, rep.limit_form, rep.scale) == (running[-1], abs(lhs - int_hm), max(scale + abs(cubic), 1e-300))


@pytest.mark.parametrize("d,n", [(2, 8), (3, 6)])
def test_duality_cubic_term_batched_is_the_loop(d, n):
    # delta > 0: <C(q_n), v_n> for n < nt, from one batched transform each way, is the per-sample
    # loop's, bit for bit
    grid, delta = Grid(d=d, n=n), 0.1
    params = OperatorParams(mu=1.0, alpha=0.1, beta=1.0)
    rng = np.random.default_rng(518)
    m0 = random_field(grid, rng, l2=1.0)
    f1, f2, h = (random_trajectory(grid, 0.25, 8, rng, l2=1.0) for _ in range(3))
    run1, run2 = solve_state(m0, f1, params), solve_state(m0, f2, params)
    v = solve_difference(run1, run2).trajectory
    adj = solve_adjoint((run1.solution, run2.solution), h, delta, params, kappa=params.kappa_star())
    rep = duality_residual(adj, run1, run2, difference=v)
    q, dt = adj.solution, adj.dt
    cubic = running_integral([inner_product(apply_C(q[k]), v[k]) for k in range(q.nt)], delta * dt)
    g = run1.forcing - run2.forcing
    lhs = running_integral(inner_product_series(g, q)[:-1], dt)
    rhs = running_integral(inner_product_series(h, v)[1:], dt)
    assert rep.running == tuple(np.abs(lhs + cubic - rhs).tolist())
    assert rep.delta_form == abs(lhs[-1] + cubic[-1] - rhs[-1]) and cubic[-1] != 0.0
