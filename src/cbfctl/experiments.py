"""Experiment orchestration: seeded runs, invariant margins, artifact export.

Every experiment writes into its output directory:

* trajectories in the binary CBFT format,
* CSV series (norm histories, adjoint series, optimization traces),
* summary.json with one record per checked invariant margin,
* SVG line charts of the main series.

Identical config + seed reproduce the CSV outputs byte for byte.  The
verify experiment runs the check registry (checks.py) at the config's sizes.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .adjoint_solver import delta_sweep, derivative_bound_check, duality_residual, solve_adjoint
from .checks import (
    CHECKS,
    Draw,
    MarginLedger,
    certify_optimum,
    decreasing,
    observed_order,
    operator_match,
    optimize_certificate,
    pair_instance,
    reference_errors,
    verify_profile,
)
from .fields import (
    random_field,
    random_forcing,
    random_trajectory,
    time_l2_norm,
    write_norm_series,
    write_trajectory,
    zero_field,
)
from .harness import ProblemConfig, config_to_dict, dense_oracle
from .operators import PairStencil, norms
from .state_solver import solve_difference, solve_state
from .svg import write_line_chart

DELTA_LADDER = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


class ExperimentResult(NamedTuple):
    exit_code: int
    summary: dict


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


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

def run_simulate(config: ProblemConfig, out_dir: str) -> ExperimentResult:
    ledger = MarginLedger()
    # spin-up from rest, the regime the sup-form a-priori margin is checked in
    f = random_trajectory(config.grid(), config.t_end, config.nt, config.rng(), l2=config.amplitude)
    run = solve_state(zero_field(config.grid()), f, config.operator_params(), **config.picard)
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


def _adjoint_instance(config: ProblemConfig):
    """The config's forced state pair sharing m0, and an adjoint source."""
    a = config.amplitude
    draw = Draw(config.d, config.n, config.t_end, config.nt, a, a, config.seed)
    return pair_instance(config, draw, draw.rng())


def run_adjoint(config: ProblemConfig, out_dir: str) -> ExperimentResult:
    ledger = MarginLedger()
    params = config.operator_params()
    run1, run2, h = _adjoint_instance(config)
    diff = solve_difference(run1, run2, **config.picard)
    adj = solve_adjoint(
        (run1.solution, run2.solution),
        h,
        config.delta,
        params,
        kappa=config.kappa_effective,
        **config.picard,
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
    run1, run2, h = _adjoint_instance(config)
    base, ladder = delta_sweep(
        (run1.solution, run2.solution),
        h,
        DELTA_LADDER,
        params,
        kappa=config.kappa_effective,
        **config.picard,
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
    ledger.flag("delta_ladder_monotone", decreasing(dists), dists)
    ledger.margin("adjoint_energy_margin_delta0", base.report.energy_margin, 1e-8 * max(base.report.energy_K, 1e-30))
    summary = _write_summary(out_dir, config, ledger)
    return ExperimentResult(0 if ledger.all_pass else 1, summary)


def run_optimize(config: ProblemConfig, out_dir: str) -> ExperimentResult:
    ledger = MarginLedger()
    opt = certify_optimum(optimize_certificate(config))
    f_star, run_star, trace = opt.result

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

    ledger.flag("cost_reduced_10x_within_100", opt.J_window <= opt.J0 / 10.0, {"J0": opt.J0, "J_100": opt.J_window})
    ledger.note("J_final", trace.rows[-1].cost)
    tol = config.tol_vi * opt.scale
    ledger.margin("vi_residual", opt.vi, tol)
    for pt in opt.points:
        ledger.margin(f"ioc_residual_rho_{pt.rho:g}", pt.residual, tol)
    dists = [pt.q_distance for pt in opt.points]
    ledger.flag("ioc_q_distance_decreasing", decreasing(dists), dists)
    write_csv(
        os.path.join(out_dir, "ioc.csv"),
        ["rho", "residual", "q_distance", "adjoint_margin"],
        [(pt.rho, pt.residual, pt.q_distance, pt.adjoint_margin) for pt in opt.points],
    )
    ledger.note("hidden_control_norm", time_l2_norm(opt.f_sharp))
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

    fields = [random_field(grid, rng, l2=1.0) for _ in range(5)]
    rel = operator_match(system, M_diff, PairStencil(m1, m2, params), dt, fields)
    ledger.residual("dense_vs_spectral_operator", rel, 1e-12)

    # fine-step reference vs spectral state solve, O(dt) with order >= 0.9
    m0 = random_field(grid, rng, l2=config.amplitude)
    f_fn = random_forcing(grid, rng, l2=config.amplitude, t_scale=config.t_end)
    nts = [max(config.nt // 4, 4), max(config.nt // 2, 8), config.nt]
    dts, errors = reference_errors(system, m0, f_fn, config.t_end, nts, **config.picard)
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


def run_verify(config: ProblemConfig, out_dir: str) -> ExperimentResult:
    ledger, profile = MarginLedger(), verify_profile(config)
    for check in CHECKS:
        check(profile, ledger)
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
