"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Property-based at desk scale (2D n=32, 3D n=16); deterministic seeds.  Run
with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion lines
as they complete.
"""

import math

import numpy as np
import pytest

from cbfctl import (
    ControlProblem,
    Grid,
    OperatorParams,
    Trajectory,
    apply_C,
    cost,
    delta_sweep,
    duality_residual,
    gradient,
    inner_product,
    ioc_ladder,
    lipschitz_check,
    make_probe_bank,
    monotonicity_gap,
    norms,
    optimize,
    random_field,
    random_trajectory,
    solve_adjoint,
    solve_adjoint_noc,
    solve_difference,
    solve_state,
    trilinear_b,
    vi_residual,
    zero_field,
)
from cbfctl.fields import random_forcing, time_l2_inner, time_l2_norm
from cbfctl.harness import DenseSystem, config_from_dict, standard_state_inputs
from cbfctl.experiments import observed_order
from cbfctl.operators import PairStencil, apply_A, l4_norm4
from cbfctl.optimizer import vi_scale

PARAMS = OperatorParams(mu=1.0, alpha=0.1, beta=1.0)  # 2*beta*mu = 2, kappa* = 0.75
KAPPA = PARAMS.kappa_star()
SEED = 20260808


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def _pair_instance(grid, rng, t_end, nt, amp=1.0):
    m0 = random_field(grid, rng, l2=0.5 * amp)
    f1 = random_trajectory(grid, t_end, nt, rng, l2=amp)
    f2 = f1 + random_trajectory(grid, t_end, nt, rng, l2=0.5 * amp)
    run1 = solve_state(m0, f1, PARAMS)
    run2 = solve_state(m0, f2, PARAMS)
    return run1, run2


def test_criterion_1_trilinear_identities():
    """b(p,q,q) = 0 and alternation on 1000 random dealiased triples, d = 2, 3."""
    worst = 0.0
    for d, n, count in ((2, 32, 500), (3, 16, 500)):
        grid = Grid(d=d, n=n)
        rng = np.random.default_rng(SEED + d)
        for _ in range(count):
            p = random_field(grid, rng, l2=rng.uniform(0.2, 2.0))
            q = random_field(grid, rng, l2=rng.uniform(0.2, 2.0))
            r = random_field(grid, rng, l2=rng.uniform(0.2, 2.0))
            np_, nq, nr = norms(p), norms(q), norms(r)
            rel_zero = abs(trilinear_b(p, q, q)) / (np_.v * nq.v**2)
            rel_alt = abs(trilinear_b(p, q, r) + trilinear_b(p, r, q)) / (np_.v * nq.v * nr.v)
            worst = max(worst, rel_zero, rel_alt)
    _report(1, worst <= 1e-12, f"trilinear identity worst relative residual {worst:.3e} <= 1e-12")


def test_criterion_2_forchheimer_identities():
    """<C(p),p> = ||p||_4^4 to 1e-10 rel; monotonicity gap >= -1e-10, 1000 pairs."""
    worst_id = 0.0
    worst_gap = math.inf
    for d, n, count in ((2, 32, 600), (3, 16, 400)):
        grid = Grid(d=d, n=n)
        rng = np.random.default_rng(SEED + 10 * d)
        for i in range(count):
            p = random_field(grid, rng, l2=rng.uniform(0.2, 2.0))
            q = random_field(grid, rng, l2=rng.uniform(0.2, 2.0))
            if i < count // 2:
                pairing = inner_product(apply_C(p), p)
                worst_id = max(worst_id, abs(pairing - l4_norm4(p)) / max(pairing, 1e-30))
            worst_gap = min(worst_gap, monotonicity_gap(p, q))
    ok = worst_id <= 1e-10 and worst_gap >= -1e-10
    _report(2, ok, f"identity rel {worst_id:.3e} <= 1e-10, min gap {worst_gap:.3e} >= -1e-10")


def test_criterion_3_energy_equality_and_bound():
    """Energy equality O(dt) with order >= 0.9; a-priori margin on 100 forced runs."""
    grid = Grid(d=2, n=32)
    rng = np.random.default_rng(SEED + 3)
    f_fn = random_forcing(grid, rng, l2=1.0, t_scale=1.0)
    residuals, dts = [], []
    for nt in (32, 64, 128, 256):
        f = Trajectory.from_callable(grid, 1.0, nt, f_fn)
        run = solve_state(zero_field(grid), f, PARAMS)
        residuals.append(run.report.energy_equality_residual)
        dts.append(1.0 / nt)
    order = observed_order(dts, residuals)

    cfg = config_from_dict({"d": 2, "n": 32, "nt": 64, "t_end": 0.5, "amplitude": 1.0})
    worst_rel = math.inf
    for child in np.random.SeedSequence(SEED + 33).spawn(100):
        m0, f = standard_state_inputs(cfg, np.random.default_rng(child))
        run = solve_state(m0, f, PARAMS)
        margin = run.report.energy_bound_margin
        worst_rel = min(worst_rel, margin / max(run.report.energy_bound_K, 1e-30))
    ok = order >= 0.9 and worst_rel >= -1e-8
    _report(3, ok, f"energy order {order:.2f} >= 0.9, worst margin/K {worst_rel:.3e} >= -1e-8")


def test_criterion_4_lipschitz_estimate():
    """Stability margin >= -1e-8*scale on 100 pairs; quadratic rho scaling 4 +- 10%."""
    grid = Grid(d=2, n=32)
    worst_rel = math.inf
    for child in np.random.SeedSequence(SEED + 4).spawn(100):
        rng = np.random.default_rng(child)
        m0 = random_field(grid, rng, l2=0.5)
        f1 = random_trajectory(grid, 0.5, 64, rng, l2=1.0)
        f2 = f1 + random_trajectory(grid, 0.5, 64, rng, l2=0.5)
        run1 = solve_state(m0, f1, PARAMS)
        run2 = solve_state(m0, f2, PARAMS)
        margin = lipschitz_check(run1, run2, KAPPA)
        scale = math.exp(0.5) * time_l2_norm(f1 - f2) ** 2
        worst_rel = min(worst_rel, margin / scale)

    rng = np.random.default_rng(SEED + 44)
    m0 = random_field(grid, rng, l2=0.5)
    f1 = random_trajectory(grid, 0.5, 64, rng, l2=1.0)
    gdir = random_trajectory(grid, 0.5, 64, rng, l2=1.0)
    run1 = solve_state(m0, f1, PARAMS)
    margins = []
    for rho in (2e-2, 1e-2):
        run2 = solve_state(m0, f1 + rho * gdir, PARAMS)
        margins.append(lipschitz_check(run1, run2, KAPPA))
    ratio = margins[0] / margins[1]
    ok = worst_rel >= -1e-8 and abs(ratio - 4.0) <= 0.4
    _report(4, ok, f"worst margin/scale {worst_rel:.3e} >= -1e-8, rho ratio {ratio:.3f} in 4 +- 10%")


def test_criterion_5_discrete_duality():
    """Exact transpose duality at delta = 0; O(dt) residual, order >= 0.9, delta > 0."""
    grid = Grid(d=2, n=32)
    worst_rel = 0.0
    for child in np.random.SeedSequence(SEED + 5).spawn(5):
        rng = np.random.default_rng(child)
        run1, run2 = _pair_instance(grid, rng, 1.0, 128)
        h = random_trajectory(grid, 1.0, 128, rng, l2=1.0)
        diff = solve_difference(run1, run2)
        adj = solve_adjoint((run1.solution, run2.solution), h, 0.0, PARAMS)
        rep = duality_residual(adj, run1, run2, difference=diff.trajectory)
        worst_rel = max(worst_rel, rep.delta_form / rep.scale)

    small = Grid(d=2, n=16)
    rng = np.random.default_rng(SEED + 55)
    m0 = random_field(small, rng, l2=0.5)
    fns = [random_forcing(small, rng, l2=1.0, t_scale=0.5) for _ in range(3)]
    orders = []
    for delta in (1e-1, 1e-2):
        residuals, dts = [], []
        for nt in (32, 64, 128):
            f1 = Trajectory.from_callable(small, 0.5, nt, fns[0])
            f2 = Trajectory.from_callable(small, 0.5, nt, fns[1])
            h = Trajectory.from_callable(small, 0.5, nt, fns[2])
            run1 = solve_state(m0, f1, PARAMS)
            run2 = solve_state(m0, f2, PARAMS)
            diff = solve_difference(run1, run2)
            adj = solve_adjoint((run1.solution, run2.solution), h, delta, PARAMS)
            rep = duality_residual(adj, run1, run2, difference=diff.trajectory)
            residuals.append(rep.delta_form)
            dts.append(0.5 / nt)
        orders.append(observed_order(dts, residuals))
    ok = worst_rel <= 1e-10 and min(orders) >= 0.9
    _report(
        5,
        ok,
        f"delta=0 duality rel {worst_rel:.3e} <= 1e-10, delta>0 orders "
        f"{orders[0]:.2f}/{orders[1]:.2f} >= 0.9",
    )


def test_criterion_6_adjoint_bounds_and_delta_ladder():
    """Adjoint energy margin >= -1e-8*K on 100 instances; monotone delta ladder."""
    grid = Grid(d=2, n=16)
    worst_rel = math.inf
    for child in np.random.SeedSequence(SEED + 6).spawn(100):
        rng = np.random.default_rng(child)
        run1, run2 = _pair_instance(grid, rng, 0.5, 32)
        h = random_trajectory(grid, 0.5, 32, rng, l2=1.0)
        adj = solve_adjoint((run1.solution, run2.solution), h, 0.0, PARAMS, kappa=KAPPA)
        worst_rel = min(worst_rel, adj.report.energy_margin / max(adj.report.energy_K, 1e-30))

    rng = np.random.default_rng(SEED + 66)
    run1, run2 = _pair_instance(grid, rng, 0.5, 64)
    h = random_trajectory(grid, 0.5, 64, rng, l2=1.0)
    _, ladder = delta_sweep(
        (run1.solution, run2.solution), h, (1e-1, 1e-2, 1e-3, 1e-4, 1e-5), PARAMS
    )
    dists = [x for _, x in ladder]
    monotone = all(dists[i] > dists[i + 1] > 0 for i in range(len(dists) - 1))
    ok = worst_rel >= -1e-8 and monotone
    _report(
        6,
        ok,
        f"worst adjoint margin/K {worst_rel:.3e} >= -1e-8, delta ladder monotone: {monotone}",
    )


def test_criterion_7_gradient_consistency():
    """Central FD vs adjoint gradient: rel error <= 1e-4 on 20 directions."""
    grid = Grid(d=2, n=8)
    t_end, lam, amp = 0.25, 0.1, 0.1
    rng = np.random.default_rng(SEED + 7)

    def setup(nt):
        r = np.random.default_rng(SEED + 77)
        m0 = random_field(grid, r, l2=amp)
        target_fn = random_forcing(grid, r, l2=amp, t_scale=t_end)
        f_fn = random_forcing(grid, r, l2=amp, t_scale=t_end)
        target = Trajectory.from_callable(grid, t_end, nt, target_fn)
        f = Trajectory.from_callable(grid, t_end, nt, f_fn)
        run = solve_state(m0, f, PARAMS)
        adj = solve_adjoint_noc(run, target)
        return m0, target, f, gradient(adj.solution, f, lam)

    def fd_error(m0, target, f, grad, direction, eps):
        jp = cost(f + eps * direction, solve_state(m0, f + eps * direction, PARAMS).solution, target, lam)
        jm = cost(f - eps * direction, solve_state(m0, f - eps * direction, PARAMS).solution, target, lam)
        fd = (jp - jm) / (2.0 * eps)
        pred = time_l2_inner(grad, direction)
        return abs(fd - pred) / max(abs(fd), abs(pred), 1e-30)

    nt_fine = 1536
    m0, target, f, grad = setup(nt_fine)
    worst = 0.0
    for _ in range(20):
        d = random_trajectory(grid, t_end, nt_fine, rng, l2=1.0)
        worst = max(worst, fd_error(m0, target, f, grad, d, 1e-4))

    # (dt, eps) refinement table
    print("\n  (dt, eps) refinement table, relative FD-vs-adjoint error:")
    header = "    nt\\eps  " + "  ".join(f"{e:9.0e}" for e in (1e-3, 1e-4, 1e-5, 1e-6))
    print(header)
    for nt in (192, 384, 768, 1536):
        m0n, tn, fn_, gn = setup(nt)
        dn = random_trajectory(grid, t_end, nt, np.random.default_rng(SEED + 777), l2=1.0)
        cells = [fd_error(m0n, tn, fn_, gn, dn, eps) for eps in (1e-3, 1e-4, 1e-5, 1e-6)]
        print(f"    {nt:6d}  " + "  ".join(f"{c:9.2e}" for c in cells))

    _report(7, worst <= 1e-4, f"worst FD relative error over 20 directions {worst:.3e} <= 1e-4")


def test_criterion_8_optimality():
    """Manufactured tracking: 10x cost drop within 100 iterations; VI and IOC
    certificates at the returned point; q_rho -> q monotonically."""
    grid = Grid(d=2, n=16)
    t_end, nt, lam, radius = 1.0, 64, 1e-3, 10.0
    rng = np.random.default_rng(SEED + 8)
    m0 = random_field(grid, rng, l2=0.3)
    f_raw = random_trajectory(grid, t_end, nt, rng, l2=1.0)
    f_sharp = f_raw * (min(math.sqrt(t_end), 0.4 * radius) / time_l2_norm(f_raw))
    hidden = solve_state(m0, f_sharp, PARAMS)
    problem = ControlProblem(params=PARAMS, lam=lam, m0=m0, target=hidden.solution, radius=radius)

    from cbfctl.optimizer import gradient_scale

    g_scale = gradient_scale(problem)
    f0 = Trajectory.zero(grid, t_end, nt)
    result = optimize(problem, f0, max_iters=300, tol=0.5e-6 * g_scale)
    rows = result.trace.rows
    J0 = rows[0].cost
    J100 = min(r.cost for r in rows[: min(len(rows), 101)])
    reduced = J100 <= J0 / 10.0

    adj = solve_adjoint_noc(result.state, problem.target)
    g_star = gradient(adj.solution, result.control, lam)
    probes = make_probe_bank(result.control, radius, 32, rng, grad=g_star, step=1.0 / lam)
    vi = vi_residual(result.control, adj.solution, lam, probes)
    scale = vi_scale(result.control, probes, problem)
    vi_ok = vi >= -1e-6 * scale

    points = ioc_ladder(result.control, probes[1], (0.5, 0.25, 0.1, 0.01), problem, base_run=result.state)
    ioc_ok = all(pt.residual >= -1e-6 * scale for pt in points)
    dists = [pt.q_distance for pt in points]
    monotone = all(dists[i] > dists[i + 1] for i in range(len(dists) - 1))

    ok = reduced and vi_ok and ioc_ok and monotone
    _report(
        8,
        ok,
        f"J0/J100 = {J0 / J100:.1f} >= 10, VI {vi:.2e} >= {-1e-6 * scale:.2e}, "
        f"IOC min {min(pt.residual for pt in points):.2e}, q_rho distances monotone: {monotone}",
    )


def test_criterion_9_oracle_equivalence():
    """Dense Galerkin reference: transpose identity to 1e-12, operator match,
    and O(dt) agreement with the spectral solvers."""
    rng = np.random.default_rng(SEED + 9)
    worst_transpose = 0.0
    worst_op = 0.0
    for n in (4, 6):  # D = 8 and D = 24
        grid = Grid(d=2, n=n)
        system = DenseSystem(grid, PARAMS)
        assert system.dim <= 40
        m1 = random_field(grid, rng, l2=1.0)
        m2 = random_field(grid, rng, l2=1.0)
        M_diff = system.difference_step_matrix(m1, m2, 1.0 / 32)
        M_adj = system.adjoint_step_matrix(m1, m2, 1.0 / 32)
        worst_transpose = max(worst_transpose, float(np.max(np.abs(M_adj - M_diff.T))))
        stencil = PairStencil(m1, m2, PARAMS)
        L = system.assemble(stencil.apply)
        for _ in range(3):
            u = random_field(grid, rng, l2=1.0)
            x = system.field_to_vec(u)
            dense = M_diff @ x
            spectral = x + (1.0 / 32) * system.field_to_vec(
                PARAMS.mu * apply_A(u) + PARAMS.alpha * u + stencil.apply(u)
            )
            rel = float(np.max(np.abs(dense - spectral))) / max(float(np.max(np.abs(dense))), 1e-30)
            worst_op = max(worst_op, rel)

    grid = Grid(d=2, n=4)
    system = DenseSystem(grid, PARAMS)
    m0 = random_field(grid, rng, l2=0.5)
    f_fn = random_forcing(grid, rng, l2=1.0, t_scale=0.5)
    nts = [4, 8, 16]
    ref = system.state_reference(m0, f_fn, 0.5, nts[-1], refine=64)
    errors, dts = [], []
    for nt in nts:
        f = Trajectory.from_callable(grid, 0.5, nt, f_fn)
        run = solve_state(m0, f, PARAMS)
        stride = nts[-1] // nt
        err = max(
            math.sqrt(max(inner_product(run.solution[i] - ref[i * stride], run.solution[i] - ref[i * stride]), 0.0))
            for i in range(nt + 1)
        )
        errors.append(err)
        dts.append(0.5 / nt)
    order = observed_order(dts, errors)
    ok = worst_transpose <= 1e-12 and worst_op <= 1e-12 and order >= 0.9
    _report(
        9,
        ok,
        f"transpose defect {worst_transpose:.3e} <= 1e-12, operator match {worst_op:.3e} <= 1e-12, "
        f"reference order {order:.2f} >= 0.9",
    )
