import math
from dataclasses import replace

import numpy as np
import pytest

from cbfctl import (
    ControlProblem,
    Grid,
    LineSearchFailure,
    OperatorParams,
    Trajectory,
    cost,
    gradient,
    inner_product,
    ioc_ladder,
    make_probe_bank,
    optimize,
    project_admissible,
    random_field,
    random_trajectory,
    solve_adjoint_noc,
    solve_state,
    vi_residual,
    zero_field,
)
import cbfctl.adjoint_solver
import cbfctl.optimizer
from cbfctl.checks import certify_optimum, optimize_certificate
from cbfctl.fields import TAU, time_l2_inner, time_l2_norm
from cbfctl.harness import config_from_dict
from cbfctl.optimizer import vi_scale
from oracles import make_field, trajectory_from_fields


def _problem(grid, params, rng, *, t_end=0.5, nt=32, lam=0.1, radius=20.0, amp=0.5):
    m0 = random_field(grid, rng, l2=0.3 * amp)
    f_sharp = random_trajectory(grid, t_end, nt, rng, l2=amp)
    hidden = solve_state(m0, f_sharp, params)
    problem = ControlProblem(
        params=params, lam=lam, m0=m0, target=hidden.solution, radius=radius, kappa=params.kappa_star()
    )
    return problem, f_sharp


def test_cost_zero_at_target(grid2d, params, rng):
    m0 = random_field(grid2d, rng, l2=0.5)
    f = Trajectory.zero(grid2d, 1.0, 8)
    run = solve_state(m0, f, params)
    assert cost(f, run.solution, run.solution, 0.1) == 0.0


def test_cost_constant_unit_error():
    # ||m - m_d|| = 1 on [0, 1], f = 0: J = 1/2
    g = Grid(d=2, n=16)
    amp = 1.0 / (math.sqrt(2.0) * TAU)
    unit = make_field(g, [((1, 0), (0.0, amp))])
    assert inner_product(unit, unit) == pytest.approx(1.0, rel=1e-13)
    m = trajectory_from_fields(g, 1.0, [unit] * 17)
    target = Trajectory.zero(g, 1.0, 16)
    f = Trajectory.zero(g, 1.0, 16)
    assert cost(f, m, target, 0.7) == pytest.approx(0.5, rel=1e-12)


def test_cost_lambda_scaling(grid2d, params, rng):
    f = random_trajectory(grid2d, 1.0, 8, rng)
    m = random_trajectory(grid2d, 1.0, 8, rng)
    target = random_trajectory(grid2d, 1.0, 8, rng)
    lam = 0.4
    j1 = cost(f, m, target, lam)
    j2 = cost(f, m, target, 2.0 * lam)
    ctrl = sum(f.dt * inner_product(f[n], f[n]) for n in range(8))
    assert j2 - j1 == pytest.approx(0.5 * lam * ctrl, rel=1e-12)


def test_gradient_trivial_cases(grid2d, rng):
    z = Trajectory.zero(grid2d, 1.0, 8)
    g0 = gradient(z, z, 0.3)
    assert all(float(np.max(np.abs(s.coeffs))) == 0.0 for s in g0)
    q = random_trajectory(grid2d, 1.0, 8, rng)
    f = random_trajectory(grid2d, 1.0, 8, rng)
    g_nolam = gradient(q, f, 0.0)
    for n in range(9):
        assert np.array_equal(g_nolam[n].coeffs, q[n].coeffs)


def test_gradient_finite_difference(params, rng):
    # moderate resolution: error within the documented dt + eps^2 envelope
    g = Grid(d=2, n=8)
    t_end, nt, lam, amp = 0.25, 128, 0.1, 0.3
    m0 = random_field(g, rng, l2=amp)
    target = random_trajectory(g, t_end, nt, rng, l2=amp)
    f = random_trajectory(g, t_end, nt, rng, l2=amp)
    run = solve_state(m0, f, params)
    adj = solve_adjoint_noc(run, target)
    grad = gradient(adj.solution, f, lam)
    eps = 1e-4
    envelope = max(1e-4, 2.0 * (t_end / nt + eps**2))
    for _ in range(5):
        d = random_trajectory(g, t_end, nt, rng, l2=1.0)
        jp = cost(f + eps * d, solve_state(m0, f + eps * d, params).solution, target, lam)
        jm = cost(f - eps * d, solve_state(m0, f - eps * d, params).solution, target, lam)
        fd = (jp - jm) / (2.0 * eps)
        pred = time_l2_inner(grad, d)
        assert abs(fd - pred) / max(abs(fd), abs(pred), 1e-30) <= envelope


def test_projection(grid2d, rng):
    f = random_trajectory(grid2d, 1.0, 8, rng)
    nrm = time_l2_norm(f)
    inside = project_admissible(f, 2.0 * nrm)
    for n in range(9):
        assert np.array_equal(inside[n].coeffs, f[n].coeffs)
    shrunk = project_admissible(f, 0.5 * nrm)
    assert time_l2_norm(shrunk) == pytest.approx(0.5 * nrm, rel=1e-12)
    twice = project_admissible(shrunk, 0.5 * nrm)
    for n in range(9):
        assert np.allclose(twice[n].coeffs, shrunk[n].coeffs, rtol=1e-12, atol=1e-16)


def test_projection_nonexpansive(grid2d, rng):
    R = 1.0
    for _ in range(100):
        a = random_trajectory(grid2d, 1.0, 4, rng, l2=float(rng.uniform(0.1, 3.0)))
        b = random_trajectory(grid2d, 1.0, 4, rng, l2=float(rng.uniform(0.1, 3.0)))
        pa, pb = project_admissible(a, R), project_admissible(b, R)
        assert time_l2_norm(pa - pb) <= time_l2_norm(a - b) * (1.0 + 1e-12)


def test_optimize_already_optimal(grid2d, params, rng):
    # target is the uncontrolled trajectory: J(0) = 0, converged at iteration 0
    m0 = random_field(grid2d, rng, l2=0.5)
    f0 = Trajectory.zero(grid2d, 0.5, 16)
    run = solve_state(m0, f0, params)
    problem = ControlProblem(
        params=params, lam=0.1, m0=m0, target=run.solution, radius=5.0, kappa=params.kappa_star()
    )
    result = optimize(problem, f0, max_iters=10, tol=1e-12)
    assert result.trace.iterations == 0
    assert result.trace.rows[0].cost == 0.0


def test_optimize_expensive_control(params, rng):
    # huge lambda: control too expensive, coercivity bounds the optimum
    g = Grid(d=2, n=8)
    lam = 1e3
    problem, _ = _problem(g, params, rng, nt=16, lam=lam, radius=100.0)
    f0 = Trajectory.zero(g, 0.5, 16)
    run0 = solve_state(problem.m0, f0, params)
    j0 = cost(f0, run0.solution, problem.target, lam)
    result = optimize(problem, f0, max_iters=20, tol=1e-10)
    j_star = result.trace.rows[-1].cost
    assert j_star <= j0 * (1.0 + 1e-12)
    assert time_l2_norm(result.control) <= math.sqrt(2.0 * j0 / lam) * (1.0 + 1e-10)


def test_optimize_reduces_cost_monotonically(params, rng, monkeypatch):
    # lambda small enough that the penalty floor leaves room to descend
    g = Grid(d=2, n=8)
    problem, _ = _problem(g, params, rng, nt=16, lam=1e-3, amp=1.0)
    f0 = Trajectory.zero(g, 0.5, 16)
    solves = _count_state_solves(monkeypatch)
    result = optimize(problem, f0, max_iters=30, tol=1e-10)
    # the nonmonotone search may accept a rise of J, but never of the largest
    # cost in its memory
    costs = [r.cost for r in result.trace.rows]
    memory = cbfctl.optimizer.NONMONOTONE_MEMORY
    peaks = [max(costs[max(0, i - memory + 1) : i + 1]) for i in range(len(costs))]
    assert all(peaks[i + 1] <= peaks[i] for i in range(len(peaks) - 1))
    assert costs[-1] < costs[0] / 3.0
    # the 1/lambda first trial is cut by interpolation, not halved 5 times
    assert result.trace.rows[0].backtracks <= 2
    assert len(solves) <= result.trace.iterations + 4


def test_optimize_returns_its_adjoint(params, rng):
    # the adjoint of the returned state, solved under the problem's kappa and Picard control
    g = Grid(d=2, n=8)
    problem, _ = _problem(g, params, rng, nt=16, lam=1e-3, amp=1.0)
    problem = replace(problem, kappa=0.9, picard_tol=1e-9, picard_max_iters=50)
    result = optimize(problem, Trajectory.zero(g, 0.5, 16), max_iters=5, tol=1e-10)
    again = solve_adjoint_noc(result.state, problem.target, picard_tol=1e-9, max_iters=50)
    assert np.array_equal(result.adjoint.solution.coeffs, again.solution.coeffs)
    assert np.array_equal(result.adjoint.report.picard_sweeps, again.report.picard_sweeps)
    assert result.adjoint.report.kappa == 0.9
    assert result.trace.iterations == len(result.trace.rows) - 1


def test_certify_optimum_solves_each_adjoint_once(monkeypatch):
    # one adjoint per optimize iteration and one per rho; none solved again at the optimum
    calls = []
    solve = cbfctl.adjoint_solver.solve_adjoint

    def counted(*args, **kwargs):
        calls.append(kwargs.get("kappa"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(cbfctl.adjoint_solver, "solve_adjoint", counted)
    monkeypatch.setattr(cbfctl.optimizer, "solve_adjoint", counted)
    config = config_from_dict(
        {"experiment": "optimize", "n": 8, "nt": 8, "t_end": 0.5, "lambda": 1e-3, "seed": 7, "kappa": 0.9}
    )
    certificate = optimize_certificate(config)
    opt = certify_optimum(certificate)
    assert len(calls) == opt.result.trace.iterations + 1 + len(certificate.rhos)
    assert set(calls) == {0.9}


def test_line_search_failure(params, rng, monkeypatch):
    g = Grid(d=2, n=8)
    problem, _ = _problem(g, params, rng, nt=8)
    f0 = Trajectory.zero(g, 0.5, 8)
    monkeypatch.setattr(cbfctl.optimizer, "MAX_BACKTRACKS", 0)
    with pytest.raises(LineSearchFailure, match="no sufficient decrease after 0 backtracks at iteration 0"):
        optimize(problem, f0, max_iters=3, tol=1e-16)


def _count_state_solves(monkeypatch) -> list:
    calls = []
    solve = cbfctl.optimizer.solve_state

    def counted(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cbfctl.optimizer, "solve_state", counted)
    return calls


def test_vi_residual_interior_optimum(params, rng, monkeypatch):
    g = Grid(d=2, n=8)
    problem, _ = _problem(g, params, rng, nt=16, lam=0.2, radius=50.0)
    f0 = Trajectory.zero(g, 0.5, 16)
    solves = _count_state_solves(monkeypatch)
    result = optimize(problem, f0, max_iters=60, tol=1e-10)
    assert result.trace.stop == "tol"
    assert len(solves) <= 12  # 9 with the nonmonotone search, 23 with the monotone one
    assert all(r.step <= 1.0 / problem.lam for r in result.trace.rows)
    adj = solve_adjoint_noc(result.state, problem.target)
    gstar = gradient(adj.solution, result.control, problem.lam)
    probes = make_probe_bank(result.control, problem.radius, 16, rng, grad=gstar, step=1.0 / problem.lam)
    res = vi_residual(result.control, adj.solution, problem.lam, probes)
    scale = vi_scale(result.control, probes, problem)
    assert res >= -1e-6 * scale
    # tol = 0 lies below the adjoint gradient's O(dt) accuracy floor, so only
    # the round-off stop can end the run before max_iters
    solves.clear()
    assert optimize(problem, f0, max_iters=60, tol=0.0).trace.stop == "stalled"
    assert len(solves) <= 13


def test_vi_residual_negative_off_optimum(params, rng):
    # at a non-optimal point the projected descent probe certifies descent
    g = Grid(d=2, n=8)
    problem, _ = _problem(g, params, rng, nt=16, lam=0.1)
    f = random_trajectory(g, 0.5, 16, rng, l2=2.0)
    run = solve_state(problem.m0, f, params)
    adj = solve_adjoint_noc(run, problem.target)
    gbad = gradient(adj.solution, f, problem.lam)
    probe = project_admissible(f - (1.0 / problem.lam) * gbad, problem.radius)
    res = vi_residual(f, adj.solution, problem.lam, [probe])
    scale = vi_scale(f, [probe], problem)
    assert res < -1e-6 * scale


def test_ioc_residual_zero_probe(params, rng):
    g = Grid(d=2, n=8)
    problem, _ = _problem(g, params, rng, nt=8)
    f = random_trajectory(g, 0.5, 8, rng)
    run = problem.solve(f)
    q = solve_adjoint_noc(run, problem.target)
    assert ioc_ladder(f, (0.25,), problem, base_run=run, base_adjoint=q)[0].residual == 0.0


def test_ioc_rho_validation(params, rng):
    g = Grid(d=2, n=8)
    problem, _ = _problem(g, params, rng, nt=8)
    f = random_trajectory(g, 0.5, 8, rng)
    run = problem.solve(f)
    with pytest.raises(ValueError, match="rho"):
        ioc_ladder(2.0 * f, (1.5,), problem, base_run=run, base_adjoint=solve_adjoint_noc(run, problem.target))


def test_ioc_ladder_at_optimum(params, rng, monkeypatch):
    g = Grid(d=2, n=8)
    problem, _ = _problem(g, params, rng, nt=16, lam=0.1, radius=20.0)
    f0 = Trajectory.zero(g, 0.5, 16)
    solves = _count_state_solves(monkeypatch)
    result = optimize(problem, f0, max_iters=60, tol=1e-10)
    assert result.trace.stop == "tol"
    assert len(solves) <= 16  # 12 with the nonmonotone search, 29 with the monotone one
    assert all(r.step <= 1.0 / problem.lam for r in result.trace.rows)
    probes = make_probe_bank(result.control, problem.radius, 2, rng, grad=None, step=1.0)
    scale = vi_scale(result.control, probes, problem)
    points = ioc_ladder(
        probes[0], (0.5, 0.25, 0.1, 0.01), problem, base_run=result.state, base_adjoint=result.adjoint
    )
    for pt in points:
        assert pt.residual >= -1e-6 * scale
        assert pt.adjoint_margin >= -1e-8 * max(abs(pt.adjoint_margin), 1.0)
    dists = [pt.q_distance for pt in points]
    assert all(dists[i] > dists[i + 1] for i in range(len(dists) - 1))
    # tol = 0 lies below the adjoint gradient's accuracy floor: only the round-off stop ends the run
    solves.clear()
    assert optimize(problem, f0, max_iters=60, tol=0.0).trace.stop == "stalled"
    assert len(solves) <= 17
