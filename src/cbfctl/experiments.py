"""Experiment orchestration: seeded runs, invariant margins, artifact export.

Every experiment writes into its output directory:

* trajectories in the binary CBFT format,
* CSV series (norm histories, adjoint series, optimization traces),
* summary.json with one record per checked invariant margin,
* SVG line charts of the main series.

Identical config + seed reproduce the CSV outputs byte for byte.  Each
sampled check draws every sample from its own child generator of the seed,
so a sample's numbers do not depend on how many samples came before it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .adjoint_solver import (
    delta_sweep,
    derivative_bound_check,
    duality_residual,
    solve_adjoint,
    solve_adjoint_noc,
)
from .fields import (
    Grid,
    Trajectory,
    inner_product,
    inner_product_series,
    random_field,
    random_forcing,
    random_trajectory,
    time_l2_norm,
    write_norm_series,
    write_trajectory,
)
from .harness import (
    ProblemConfig,
    build_tracking_problem,
    config_to_dict,
    dense_oracle,
    standard_state_inputs,
)
from .operators import PairStencil, apply_A, apply_C, l4_norm4, monotonicity_gap, norms, trilinear_b
from .optimizer import (
    cost,
    gradient,
    gradient_scale,
    ioc_ladder,
    make_probe_bank,
    optimize,
    vi_residual,
    vi_scale,
)
from .state_solver import (
    lipschitz_check,
    solve_difference,
    solve_state,
)
from .svg import write_line_chart

DELTA_LADDER = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
RHO_LADDER = (0.5, 0.25, 0.1, 0.01)


class ExperimentResult(NamedTuple):
    exit_code: int
    summary: dict


def _picard(config: ProblemConfig) -> dict:
    """The config's inner solver control, as keyword arguments of the solves."""
    return {"picard_tol": config.picard_tol, "max_iters": config.picard_max_iters}


def _spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(count)]


def observed_order(steps: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares convergence order of errors ~ C * step^p."""
    xs = np.log(np.asarray(steps, dtype=float))
    ys = np.log(np.maximum(np.asarray(errors, dtype=float), 1e-300))
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


class MarginLedger:
    """Collects named margin/residual checks for summary.json."""

    def __init__(self) -> None:
        self.records: dict[str, dict] = {}

    def margin(self, name: str, value: float, tolerance: float) -> bool:
        """Pass when value >= -tolerance (lower bound check)."""
        ok = bool(value >= -tolerance) and math.isfinite(value)
        self.records[name] = {"kind": "margin", "value": value, "tolerance": tolerance, "pass": ok}
        return ok

    def residual(self, name: str, value: float, tolerance: float) -> bool:
        """Pass when |value| <= tolerance (smallness check)."""
        ok = bool(abs(value) <= tolerance) and math.isfinite(value)
        self.records[name] = {"kind": "residual", "value": value, "tolerance": tolerance, "pass": ok}
        return ok

    def order(self, name: str, value: float, minimum: float = 0.9) -> bool:
        ok = bool(value >= minimum) and math.isfinite(value)
        self.records[name] = {"kind": "order", "value": value, "tolerance": minimum, "pass": ok}
        return ok

    def flag(self, name: str, ok: bool, value=None) -> bool:
        self.records[name] = {"kind": "flag", "value": value, "pass": bool(ok)}
        return bool(ok)

    def note(self, name: str, value) -> None:
        self.records[name] = {"kind": "note", "value": value, "pass": True}

    @property
    def all_pass(self) -> bool:
        return all(rec["pass"] for rec in self.records.values())


def _write_summary(out_dir: str, config: ProblemConfig, ledger: MarginLedger) -> dict:
    summary = {
        "experiment": config.experiment,
        "config": config_to_dict(config),
        "hypothesis": config.hypothesis_report(),
        "checks": ledger.records,
        "all_pass": ledger.all_pass,
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


# ----------------------------------------------------------------------
# individual experiments
# ----------------------------------------------------------------------

def _forced_run(config: ProblemConfig, rng: np.random.Generator):
    m0, f = standard_state_inputs(config, rng)
    return solve_state(m0, f, config.operator_params(), **_picard(config))


def run_simulate(config: ProblemConfig, out_dir: str) -> ExperimentResult:
    ledger = MarginLedger()
    run = _forced_run(config, config.rng())
    write_trajectory(os.path.join(out_dir, "state.cbft"), run.solution)
    write_norm_series(os.path.join(out_dir, "norms.csv"), run.solution)
    write_line_chart(
        os.path.join(out_dir, "norms.svg"),
        run.report.times,
        {"l2": run.report.l2, "v": run.report.v, "l4": run.report.l4},
        title="state norm history",
        xlabel="t",
        ylabel="norm",
    )
    K = run.report.energy_bound_K
    scale = max(K, 1e-30)
    ledger.residual("energy_equality_residual", run.report.energy_equality_residual, 10.0 * run.dt * scale)
    ledger.margin("energy_bound_margin", run.report.energy_bound_margin, 1e-8 * scale)
    ledger.note("energy_bound_K", K)
    summary = _write_summary(out_dir, config, ledger)
    return ExperimentResult(0 if ledger.all_pass else 1, summary)


def _adjoint_instance(config: ProblemConfig, rng: np.random.Generator):
    """Forced state pair sharing m0, difference solve, and an adjoint source."""
    grid = config.grid()
    params = config.operator_params()
    amp = config.amplitude
    m0 = random_field(grid, rng, l2=amp)
    f1 = random_trajectory(grid, config.t_end, config.nt, rng, l2=amp)
    f2 = f1 + random_trajectory(grid, config.t_end, config.nt, rng, l2=0.5 * amp)
    h = random_trajectory(grid, config.t_end, config.nt, rng, l2=amp)
    run1 = solve_state(m0, f1, params, **_picard(config))
    run2 = solve_state(m0, f2, params, **_picard(config))
    return run1, run2, h


def run_adjoint(config: ProblemConfig, out_dir: str) -> ExperimentResult:
    ledger = MarginLedger()
    params = config.operator_params()
    run1, run2, h = _adjoint_instance(config, config.rng())
    diff = solve_difference(run1, run2, **_picard(config))
    adj = solve_adjoint(
        (run1.solution, run2.solution),
        h,
        config.delta,
        params,
        kappa=config.kappa_effective,
        **_picard(config),
        state_K=(run1.report.energy_bound_K, run2.report.energy_bound_K),
    )
    dual = duality_residual(adj, run1, run2, difference=diff.trajectory)

    q, dt = adj.solution, adj.dt
    write_csv(
        os.path.join(out_dir, "adjoint.csv"),
        ["t", "q_l2", "q_v", "duality_running"],
        zip(q.times, adj.report.q_l2, adj.report.q_v, dual.running),
    )
    write_trajectory(os.path.join(out_dir, "adjoint.cbft"), q)
    write_line_chart(
        os.path.join(out_dir, "adjoint.svg"),
        q.times,
        {"q_l2": adj.report.q_l2, "q_v": adj.report.q_v},
        title=f"adjoint norm history (delta={config.delta:g})",
        xlabel="t",
        ylabel="norm",
    )

    tol = config.tol_duality * dual.scale if config.delta == 0 else 10.0 * dt * dual.scale
    ledger.residual("duality_delta_form", dual.delta_form, tol)
    ledger.residual("duality_limit_form", dual.limit_form, 20.0 * dt * dual.scale)
    ledger.margin("adjoint_energy_margin", adj.report.energy_margin, 1e-8 * max(adj.report.energy_K, 1e-30))
    ledger.residual("difference_defect", diff.defect, 20.0 * dt * max(time_l2_norm(run1.solution - run2.solution), 1e-30))
    bound = derivative_bound_check(adj)
    ledger.note("derivative_bound_margin", bound.margin)
    ledger.note("derivative_bound_sampled", bound.sampled_norm)
    summary = _write_summary(out_dir, config, ledger)
    return ExperimentResult(0 if ledger.all_pass else 1, summary)


def run_delta_sweep(config: ProblemConfig, out_dir: str) -> ExperimentResult:
    ledger = MarginLedger()
    params = config.operator_params()
    run1, run2, h = _adjoint_instance(config, config.rng())
    base, ladder = delta_sweep(
        (run1.solution, run2.solution),
        h,
        DELTA_LADDER,
        params,
        kappa=config.kappa_effective,
        **_picard(config),
    )
    write_csv(os.path.join(out_dir, "delta_sweep.csv"), ["delta", "q_dist"], ladder)
    write_line_chart(
        os.path.join(out_dir, "delta_sweep.svg"),
        [d for d, _ in ladder],
        {"q_dist": [x for _, x in ladder]},
        title="||q^delta - q^0|| over the delta ladder",
        xlabel="delta",
        ylabel="distance",
        log_y=True,
    )
    dists = [x for _, x in ladder]
    ledger.flag("delta_ladder_monotone", all(dists[i] > dists[i + 1] for i in range(len(dists) - 1)), dists)
    ledger.margin("adjoint_energy_margin_delta0", base.report.energy_margin, 1e-8 * max(base.report.energy_K, 1e-30))
    summary = _write_summary(out_dir, config, ledger)
    return ExperimentResult(0 if ledger.all_pass else 1, summary)


def run_optimize(config: ProblemConfig, out_dir: str) -> ExperimentResult:
    ledger = MarginLedger()
    rng = config.rng()
    problem, f_sharp, _hidden = build_tracking_problem(config, rng)
    f0 = Trajectory.zero(problem.m0.grid, config.t_end, config.nt)
    g_scale = gradient_scale(problem)
    result = optimize(problem, f0, max_iters=300, tol=0.5 * config.tol_vi * g_scale)
    f_star, run_star, trace = result

    write_csv(
        os.path.join(out_dir, "trace.csv"),
        ["iter", "J", "grad_norm", "step", "vi_residual"],
        [(r.iteration, r.cost, r.grad_norm, r.step, r.vi_residual) for r in trace.rows],
    )
    write_trajectory(os.path.join(out_dir, "control.cbft"), f_star)
    write_trajectory(os.path.join(out_dir, "state.cbft"), run_star.solution)
    write_line_chart(
        os.path.join(out_dir, "cost.svg"),
        [r.iteration for r in trace.rows],
        {"J": [r.cost for r in trace.rows]},
        title="cost trace",
        xlabel="iteration",
        ylabel="J",
        log_y=True,
    )

    J0, J_star = trace.rows[0].cost, trace.rows[-1].cost
    j100 = min(r.cost for r in trace.rows[: min(len(trace.rows), 101)])
    ledger.flag("cost_reduced_10x_within_100", j100 <= J0 / 10.0, {"J0": J0, "J_100": j100})
    ledger.note("J_final", J_star)

    adj = solve_adjoint_noc(run_star, problem.target, **_picard(config))
    g_star = gradient(adj.solution, f_star, problem.lam)
    probes = make_probe_bank(f_star, config.radius, 32, rng, grad=g_star, step=1.0 / problem.lam)
    vi = vi_residual(f_star, adj.solution, problem.lam, probes)
    scale = vi_scale(f_star, probes, problem)
    ledger.margin("vi_residual", vi, config.tol_vi * scale)

    u_probe = probes[1]
    points = ioc_ladder(f_star, u_probe, RHO_LADDER, problem, base_run=run_star)
    ioc_scale = scale
    for pt in points:
        ledger.margin(f"ioc_residual_rho_{pt.rho:g}", pt.residual, config.tol_vi * ioc_scale)
    dists = [pt.q_distance for pt in points]
    ledger.flag("ioc_q_distance_decreasing", all(dists[i] > dists[i + 1] for i in range(len(dists) - 1)), dists)
    write_csv(
        os.path.join(out_dir, "ioc.csv"),
        ["rho", "residual", "q_distance", "adjoint_margin"],
        [(pt.rho, pt.residual, pt.q_distance, pt.adjoint_margin) for pt in points],
    )
    ledger.note("hidden_control_norm", time_l2_norm(f_sharp))
    summary = _write_summary(out_dir, config, ledger)
    return ExperimentResult(0 if ledger.all_pass else 1, summary)


def run_oracle(config: ProblemConfig, out_dir: str) -> ExperimentResult:
    ledger = MarginLedger()
    grid = config.grid()
    params = config.operator_params()
    rng = config.rng()
    system = dense_oracle(config)
    D = system.dim
    ledger.note("dense_dimension", D)

    # A is diagonal in the eigenbasis with |k|^2 entries, symmetric PD
    A = system.a_matrix
    eigs = np.array([norms(e).v ** 2 for e in system.basis])
    ledger.residual("a_matrix_diag_defect", float(np.max(np.abs(A - np.diag(eigs)))), 1e-12 * float(np.max(eigs)))
    ledger.flag("a_matrix_spd", bool(np.all(np.diag(A) > 0)))

    m1 = random_field(grid, rng, l2=config.amplitude)
    m2 = random_field(grid, rng, l2=config.amplitude)
    dt = config.t_end / config.nt
    M_diff = system.difference_step_matrix(m1, m2, dt)
    M_adj = system.adjoint_step_matrix(m1, m2, dt)
    ledger.residual("adjoint_matrix_transpose_defect", float(np.max(np.abs(M_adj - M_diff.T))), 1e-12)

    # dense matrix application vs direct spectral application
    stencil = PairStencil(m1, m2, params)
    rel_max = 0.0
    for _ in range(5):
        u = random_field(grid, rng, l2=1.0)
        xu = system.field_to_vec(u)
        dense_out = M_diff @ xu
        spectral = xu + dt * system.field_to_vec(
            params.mu * apply_A(u) + params.alpha * u + stencil.apply(u)
        )
        rel = float(np.max(np.abs(dense_out - spectral)) / max(np.max(np.abs(dense_out)), 1e-30))
        rel_max = max(rel_max, rel)
    ledger.residual("dense_vs_spectral_operator", rel_max, 1e-12)

    # fine-step reference vs spectral state solve, O(dt) with order >= 0.9
    m0 = random_field(grid, rng, l2=config.amplitude)
    f_fn = random_forcing(grid, rng, l2=config.amplitude, t_scale=config.t_end)
    nts = [max(config.nt // 4, 4), max(config.nt // 2, 8), config.nt]
    ref = system.state_reference(m0, f_fn, config.t_end, nts[-1], refine=64)
    errors, dts = [], []
    for nt in nts:
        f = Trajectory.from_callable(grid, config.t_end, nt, f_fn)
        run = solve_state(m0, f, params, **_picard(config))
        stride = nts[-1] // nt
        err = max(
            float(np.sqrt(max(inner_product(run.solution[i] - ref[i * stride], run.solution[i] - ref[i * stride]), 0.0)))
            for i in range(nt + 1)
        )
        errors.append(err)
        dts.append(config.t_end / nt)
    order = observed_order(dts, errors)
    ledger.order("state_reference_order", order, 0.9)
    write_csv(os.path.join(out_dir, "oracle_order.csv"), ["dt", "error"], zip(dts, errors))
    write_line_chart(
        os.path.join(out_dir, "oracle_order.svg"),
        [math.log10(h) for h in dts],
        {"error": errors},
        title=f"state error vs dense fine reference (order {order:.2f})",
        xlabel="log10 dt",
        ylabel="error",
        log_y=True,
    )
    summary = _write_summary(out_dir, config, ledger)
    return ExperimentResult(0 if ledger.all_pass else 1, summary)


# ----------------------------------------------------------------------
# verify: condensed all-invariant battery
# ----------------------------------------------------------------------

def _verify_trilinear(config: ProblemConfig, ledger: MarginLedger) -> None:
    cases = [(2, 12, 120), (3, 8, 60)]
    worst_zero = worst_alt = 0.0
    for d, n, count in cases:
        grid = Grid(d=d, n=n)
        rngs = _spawn_rngs(config.seed + d, count)

        def one(rng):
            p = random_field(grid, rng, l2=1.0)
            q = random_field(grid, rng, l2=1.0)
            r = random_field(grid, rng, l2=1.0)
            np_, nq, nr = norms(p), norms(q), norms(r)
            z = abs(trilinear_b(p, q, q)) / max(np_.v * nq.v**2, 1e-30)
            alt = abs(trilinear_b(p, q, r) + trilinear_b(p, r, q)) / max(np_.v * nq.v * nr.v, 1e-30)
            return z, alt

        for z, alt in map(one, rngs):
            worst_zero = max(worst_zero, z)
            worst_alt = max(worst_alt, alt)
    ledger.residual("trilinear_bqq_rel", worst_zero, 1e-12)
    ledger.residual("trilinear_alternation_rel", worst_alt, 1e-12)


def _verify_forchheimer(config: ProblemConfig, ledger: MarginLedger) -> None:
    grid = config.grid()
    rngs = _spawn_rngs(config.seed + 11, 100)

    def one(rng):
        p = random_field(grid, rng, l2=1.0)
        q = random_field(grid, rng, l2=1.0)
        pairing = inner_product(apply_C(p), p)
        ident = abs(pairing - l4_norm4(p)) / max(abs(pairing), 1e-30)
        return ident, monotonicity_gap(p, q)

    results = [one(rng) for rng in rngs]
    ledger.residual("forchheimer_identity_rel", max(r[0] for r in results), 1e-10)
    ledger.margin("monotonicity_gap_min", min(r[1] for r in results), 1e-10)


def _verify_energy(config: ProblemConfig, ledger: MarginLedger) -> None:
    grid = config.grid()
    params = config.operator_params()
    rng = config.rng()
    m0 = random_field(grid, rng, l2=config.amplitude)
    f_fn = random_forcing(grid, rng, l2=config.amplitude, t_scale=config.t_end)
    residuals, dts = [], []
    for nt in (config.nt // 4, config.nt // 2, config.nt, 2 * config.nt):
        f = Trajectory.from_callable(grid, config.t_end, nt, f_fn)
        run = solve_state(m0, f, params, **_picard(config))
        residuals.append(run.report.energy_equality_residual)
        dts.append(config.t_end / nt)
    ledger.order("energy_equality_order", observed_order(dts, residuals), 0.9)

    reports = (_forced_run(config, rng).report for rng in _spawn_rngs(config.seed + 23, 20))
    worst = min(r.energy_bound_margin / max(r.energy_bound_K, 1e-30) for r in reports)
    ledger.margin("energy_bound_margin_rel_min", worst, 1e-8)


def _verify_lipschitz(config: ProblemConfig, ledger: MarginLedger) -> None:
    params = config.operator_params()
    kappa = config.kappa_effective
    rngs = _spawn_rngs(config.seed + 31, 20)
    grid = config.grid()

    def one(rng):
        m0 = random_field(grid, rng, l2=config.amplitude)
        f1 = random_trajectory(grid, config.t_end, config.nt, rng, l2=config.amplitude)
        f2 = f1 + random_trajectory(grid, config.t_end, config.nt, rng, l2=0.5 * config.amplitude)
        run1 = solve_state(m0, f1, params, **_picard(config))
        run2 = solve_state(m0, f2, params, **_picard(config))
        margin = lipschitz_check(run1, run2, kappa)
        scale = math.exp(config.t_end) * max(time_l2_norm(f1 - f2) ** 2, 1e-30)
        return margin / scale

    ledger.margin("lipschitz_margin_rel_min", min(one(rng) for rng in rngs), 1e-8)

    # quadratic rho scaling of the bound's margin
    rng = np.random.default_rng(config.seed + 37)
    m0 = random_field(grid, rng, l2=config.amplitude)
    f1 = random_trajectory(grid, config.t_end, config.nt, rng, l2=config.amplitude)
    gdir = random_trajectory(grid, config.t_end, config.nt, rng, l2=config.amplitude)
    run1 = solve_state(m0, f1, params, **_picard(config))
    margins = []
    for rho in (2e-2, 1e-2):
        run2 = solve_state(m0, f1 + rho * gdir, params, **_picard(config))
        margins.append(lipschitz_check(run1, run2, kappa))
    ratio = margins[0] / margins[1]
    ledger.flag("lipschitz_rho_ratio_4", abs(ratio - 4.0) <= 0.4, ratio)


def _verify_duality(config: ProblemConfig, ledger: MarginLedger) -> None:
    params = config.operator_params()
    rngs = _spawn_rngs(config.seed + 41, 5)

    def one(rng):
        run1, run2, h = _adjoint_instance(config, rng)
        diff = solve_difference(run1, run2, **_picard(config))
        adj = solve_adjoint(
            (run1.solution, run2.solution), h, 0.0, params,
            kappa=config.kappa_effective, **_picard(config),
            state_K=(run1.report.energy_bound_K, run2.report.energy_bound_K),
        )
        dual = duality_residual(adj, run1, run2, difference=diff.trajectory)
        return dual.delta_form / dual.scale, adj.report.energy_margin / max(adj.report.energy_K, 1e-30)

    results = [one(rng) for rng in rngs]
    ledger.residual("duality_delta0_rel_max", max(r[0] for r in results), config.tol_duality)
    ledger.margin("adjoint_energy_margin_rel_min", min(r[1] for r in results), 1e-8)

    # O(dt) duality residual for delta > 0
    grid = config.grid()
    rng = np.random.default_rng(config.seed + 43)
    m0 = random_field(grid, rng, l2=config.amplitude)
    f1_fn = random_forcing(grid, rng, l2=config.amplitude, t_scale=config.t_end)
    f2_fn = random_forcing(grid, rng, l2=config.amplitude, t_scale=config.t_end)
    h_fn = random_forcing(grid, rng, l2=config.amplitude, t_scale=config.t_end)
    for delta in (1e-1, 1e-2):
        residuals, dts = [], []
        for nt in (config.nt // 4, config.nt // 2, config.nt):
            f1 = Trajectory.from_callable(grid, config.t_end, nt, f1_fn)
            f2 = Trajectory.from_callable(grid, config.t_end, nt, f2_fn)
            h = Trajectory.from_callable(grid, config.t_end, nt, h_fn)
            run1 = solve_state(m0, f1, params, **_picard(config))
            run2 = solve_state(m0, f2, params, **_picard(config))
            diff = solve_difference(run1, run2, **_picard(config))
            adj = solve_adjoint(
                (run1.solution, run2.solution), h, delta, params, kappa=config.kappa_effective, **_picard(config)
            )
            dual = duality_residual(adj, run1, run2, difference=diff.trajectory)
            residuals.append(dual.delta_form)
            dts.append(config.t_end / nt)
        ledger.order(f"duality_delta_{delta:g}_order", observed_order(dts, residuals), 0.9)


def _verify_delta_ladder(config: ProblemConfig, ledger: MarginLedger) -> None:
    params = config.operator_params()
    run1, run2, h = _adjoint_instance(config, np.random.default_rng(config.seed + 47))
    _, ladder = delta_sweep(
        (run1.solution, run2.solution), h, (1e-1, 1e-2, 1e-3), params,
        kappa=config.kappa_effective, **_picard(config),
    )
    dists = [x for _, x in ladder]
    ledger.flag("delta_ladder_monotone", all(dists[i] > dists[i + 1] for i in range(len(dists) - 1)), dists)


def _verify_gradient(config: ProblemConfig, ledger: MarginLedger) -> None:
    grid = Grid(d=2, n=8)
    rng = np.random.default_rng(config.seed + 53)
    params = config.operator_params()
    nt, t_end = 512, 0.25
    m0 = random_field(grid, rng, l2=0.3 * config.amplitude)
    target = random_trajectory(grid, t_end, nt, rng, l2=0.3 * config.amplitude)
    f = random_trajectory(grid, t_end, nt, rng, l2=0.3 * config.amplitude)
    run = solve_state(m0, f, params, **_picard(config))
    adj = solve_adjoint_noc(run, target, **_picard(config))
    g = gradient(adj.solution, f, config.lam)
    eps = 1e-4
    worst = 0.0
    for _ in range(3):
        direction = random_trajectory(grid, t_end, nt, rng, l2=1.0)
        f_plus, f_minus = f + eps * direction, f - eps * direction
        jp = cost(f_plus, solve_state(m0, f_plus, params, **_picard(config)).solution, target, config.lam)
        jm = cost(f_minus, solve_state(m0, f_minus, params, **_picard(config)).solution, target, config.lam)
        fd = (jp - jm) / (2.0 * eps)
        pred = sum((f.dt * inner_product_series(g, direction)[:nt]).tolist())
        worst = max(worst, abs(fd - pred) / max(abs(fd), 1e-30))
    ledger.residual("gradient_fd_rel_max", worst, max(1e-4, 2.0 * (t_end / nt) + eps**2))


def _verify_optimize(config: ProblemConfig, ledger: MarginLedger) -> None:
    # lambda small enough that the penalty floor leaves a 5x descent corridor
    small = replace(config, n=8, nt=32, t_end=0.5, lam=1e-3, amplitude=1.0)
    rng = small.rng()
    problem, _f_sharp, _ = build_tracking_problem(small, rng)
    f0 = Trajectory.zero(Grid(d=small.d, n=small.n), small.t_end, small.nt)
    g_scale = gradient_scale(problem)
    result = optimize(problem, f0, max_iters=250, tol=0.5 * small.tol_vi * g_scale)
    trace = result.trace
    J0, J_star = trace.rows[0].cost, trace.rows[-1].cost
    ledger.flag("optimize_cost_reduced_5x", J_star <= J0 / 5.0, {"J0": J0, "J_star": J_star})
    adj = solve_adjoint_noc(result.state, problem.target, **_picard(small))
    probes = make_probe_bank(result.control, small.radius, 8, rng)
    vi = vi_residual(result.control, adj.solution, problem.lam, probes)
    scale = vi_scale(result.control, probes, problem)
    ledger.margin("vi_residual_rel", vi / scale, small.tol_vi)
    points = ioc_ladder(result.control, probes[0], (0.25, 0.1), problem, base_run=result.state)
    ledger.margin("ioc_residual_rel_min", min(pt.residual for pt in points) / scale, small.tol_vi)


def _verify_oracle(config: ProblemConfig, ledger: MarginLedger) -> None:
    tiny = replace(config, d=2, n=4, nt=16, t_end=0.5)
    system = dense_oracle(tiny)
    rng = tiny.rng()
    grid = tiny.grid()
    m1 = random_field(grid, rng, l2=1.0)
    m2 = random_field(grid, rng, l2=1.0)
    M_diff = system.difference_step_matrix(m1, m2, 0.05)
    M_adj = system.adjoint_step_matrix(m1, m2, 0.05)
    ledger.residual("oracle_transpose_defect", float(np.max(np.abs(M_adj - M_diff.T))), 1e-12)


def run_verify(config: ProblemConfig, out_dir: str) -> ExperimentResult:
    ledger = MarginLedger()
    _verify_trilinear(config, ledger)
    _verify_forchheimer(config, ledger)
    _verify_energy(config, ledger)
    _verify_lipschitz(config, ledger)
    _verify_duality(config, ledger)
    _verify_delta_ladder(config, ledger)
    _verify_gradient(config, ledger)
    _verify_optimize(config, ledger)
    _verify_oracle(config, ledger)
    write_csv(
        os.path.join(out_dir, "verify.csv"),
        ["check", "kind", "value", "tolerance", "pass"],
        [
            (name, rec["kind"], rec.get("value"), rec.get("tolerance"), rec["pass"])
            for name, rec in ledger.records.items()
            if isinstance(rec.get("value"), (int, float))
        ],
    )
    summary = _write_summary(out_dir, config, ledger)
    return ExperimentResult(0 if ledger.all_pass else 1, summary)


_RUNNERS = {
    "simulate": run_simulate,
    "adjoint": run_adjoint,
    "optimize": run_optimize,
    "verify": run_verify,
    "delta-sweep": run_delta_sweep,
    "oracle": run_oracle,
}


def run_experiment(config: ProblemConfig, out_dir) -> ExperimentResult:
    """Run the config's experiment, writing artifacts into out_dir.

    Failures propagate to the caller, but a summary flagging the partial
    outputs is written first so an interrupted artifact directory is
    self-describing.
    """
    os.makedirs(out_dir, exist_ok=True)
    runner = _RUNNERS[config.experiment]
    try:
        return runner(config, str(out_dir))
    except Exception as exc:
        failure = {
            "experiment": config.experiment,
            "config": config_to_dict(config),
            "error": f"{type(exc).__name__}: {exc}",
            "partial_outputs": True,
        }
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(failure, fh, indent=2, sort_keys=True)
            fh.write("\n")
        raise
