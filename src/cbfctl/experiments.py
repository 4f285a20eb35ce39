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

from .adjoint_solver import derivative_bound_check
from .checks import (
    CHECKS,
    ORACLE_LADDER_MIN_NT,
    Draw,
    MarginLedger,
    certify_optimum,
    decreasing,
    delta_ladder_converges,
    dense_agreement,
    ladder,
    observed_order,
    optimize_certificate,
    pair_duality,
    pair_instance,
    pair_sweep,
    reference_errors,
    verify_profile,
)
from .fields import (
    l2_series,
    mode_sq,
    parseval_sum,
    random_field,
    random_forcing,
    random_trajectory,
    running_integral,
    time_l2_norm,
    write_trajectory,
    zero_field,
)
from .harness import ConfigError, DenseSystem, ProblemConfig, config_to_dict
from .state_solver import solve_state
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


def _strict(v):
    """v with every non-finite float as None, JSON's null."""
    if isinstance(v, dict):
        return {k: _strict(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_strict(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _write_summary(out_dir: str, config: ProblemConfig, **record) -> dict:
    """Write summary.json: the experiment, its config and the record's keys, in strict JSON."""
    summary = {"experiment": config.experiment, "config": config_to_dict(config), **record}
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(_strict(summary), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return summary


# ----------------------------------------------------------------------
# individual experiments
# ----------------------------------------------------------------------

def run_simulate(config: ProblemConfig, out_dir: str, ledger: MarginLedger) -> None:
    # spin-up from rest, the regime the sup-form a-priori margin is checked in
    f = random_trajectory(config.grid(), config.t_end, config.nt, config.rng(), l2=config.amplitude)
    run = solve_state(zero_field(config.grid()), f, config.operator_params(), **config.picard)
    write_trajectory(os.path.join(out_dir, "state.cbft"), run.solution)
    write_csv(
        os.path.join(out_dir, "norms.csv"),
        ["t", "l2", "v_norm", "l4"],
        zip(run.solution.times, run.report.l2, run.report.v, run.report.l4),
    )
    write_line_chart(
        os.path.join(out_dir, "norms.svg"),
        run.solution.times,
        {"l2": run.report.l2, "v": run.report.v, "l4": run.report.l4},
        title="state norm history",
        xlabel="t",
        ylabel="norm",
    )
    K = run.report.energy_bound_K
    scale = max(K, 1e-30)
    ledger.residual("energy_equality_residual", run.report.energy_equality_residual, 10.0 * run.dt * scale)
    ledger.margin("energy_bound_margin_t_pos", run.report.energy_bound_margin_t_pos, 1e-8 * scale)
    ledger.note("energy_bound_K", K)


def _adjoint_instance(config: ProblemConfig):
    """The config's forced state pair sharing m0, and an adjoint source."""
    a = config.amplitude
    draw = Draw(config.d, config.n, config.t_end, config.nt, a, a, config.seed)
    return pair_instance(config, draw, draw.rng())


def run_adjoint(config: ProblemConfig, out_dir: str, ledger: MarginLedger) -> None:
    run1, run2, h = _adjoint_instance(config)
    diff, adj, dual = pair_duality(config, run1, run2, h, config.delta)

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
    # scaled by the right-endpoint norm of m1 - m2 over n >= 1, the samples the defect is taken on
    right = math.sqrt(float(running_integral(l2_series(run1.solution - run2.solution)[1:] ** 2, dt)[-1]))
    ledger.residual("difference_defect", diff.defect, 20.0 * dt * max(right, 1e-30))
    bound = derivative_bound_check(adj)
    ledger.margin("derivative_bound_margin", bound.margin, 1e-8 * bound.bound)
    ledger.note("derivative_bound_slack", bound.bound / max(bound.norm, 1e-30))


def run_delta_sweep(config: ProblemConfig, out_dir: str, ledger: MarginLedger) -> None:
    if config.nt < 2:
        raise ConfigError("nt: delta-sweep needs nt >= 2; at one step delta acts on q(T) = 0 and every distance is 0")
    base, ladder = pair_sweep(config, *_adjoint_instance(config), DELTA_LADDER)
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
    delta_ladder_converges(ledger, ladder)
    ledger.margin("adjoint_energy_margin_delta0", base.report.energy_margin, 1e-8 * max(base.report.energy_K, 1e-30))


def run_optimize(config: ProblemConfig, out_dir: str, ledger: MarginLedger) -> None:
    certificate = optimize_certificate(config)
    opt = certify_optimum(certificate)
    f_star, run_star, _, trace = opt.result

    write_csv(
        os.path.join(out_dir, "trace.csv"),
        ["iter", "J", "grad_norm", "step", "backtracks", "vi_residual"],
        [(r.iteration, r.cost, r.grad_norm, r.step, r.backtracks, r.vi_residual) for r in trace.rows],
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

    reduction, window = certificate.reduction, certificate.window
    ledger.flag(
        f"cost_reduced_{reduction:g}x_within_{window}", opt.J_window <= opt.J0 / reduction,
        {"J0": opt.J0, f"J_{window}": opt.J_window},
    )
    ledger.note("J_final", trace.rows[-1].cost)
    ledger.note("optimizer_stop", trace.stop)
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


def run_oracle(config: ProblemConfig, out_dir: str, ledger: MarginLedger) -> None:
    grid = config.grid()
    rng = config.rng()
    system = DenseSystem(grid, config.operator_params())
    ledger.note("dense_dimension", system.dim)

    # A is diagonal in the eigenbasis with |k|^2 entries, symmetric PD
    A = system.a_matrix
    # each basis field's squared V norm, bitwise spectral_norms(e)[1] ** 2
    eigs = np.sqrt(parseval_sum(grid, grid.k_sq * mode_sq(grid, system.basis), grid.d)) ** 2
    ledger.residual("a_matrix_diag_defect", float(np.max(np.abs(A - np.diag(eigs)))), 1e-12 * float(np.max(eigs)))
    ledger.flag("a_matrix_spd", bool(np.all(np.diag(A) > 0)))

    m1, m2 = (random_field(grid, rng, l2=config.amplitude).coeffs for _ in range(2))
    fields = [random_field(grid, rng, l2=1.0).coeffs for _ in range(5)]
    defect, gap = dense_agreement(system, m1, m2, config.t_end / config.nt, fields)
    ledger.residual("adjoint_matrix_transpose_defect", defect, 1e-12)
    ledger.residual("dense_vs_spectral_operator", gap, 1e-12)

    # fine-step reference vs spectral state solve, O(dt) with order >= 0.9
    m0 = random_field(grid, rng, l2=config.amplitude)
    f_fn = random_forcing(grid, rng, l2=config.amplitude, t_scale=config.t_end)
    nts = ladder(max(config.nt // 4, ORACLE_LADDER_MIN_NT), 3)
    dts, errors = reference_errors(system, m0, f_fn, config.t_end, nts, **config.picard)
    order = observed_order(dts, errors)
    ledger.order("state_reference_order", order)
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


def run_verify(config: ProblemConfig, out_dir: str, ledger: MarginLedger) -> None:
    profile = verify_profile(config)
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


_RUNNERS = {
    "simulate": run_simulate,
    "adjoint": run_adjoint,
    "optimize": run_optimize,
    "verify": run_verify,
    "delta-sweep": run_delta_sweep,
    "oracle": run_oracle,
}


def run_experiment(config: ProblemConfig, out_dir) -> ExperimentResult:
    """Run the config's experiment, writing artifacts into out_dir; its
    checks go into one ledger, written last as summary.json.

    Failures propagate to the caller, but a summary flagging the partial
    outputs is written first so an interrupted artifact directory is
    self-describing.
    """
    out_dir = str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    ledger = MarginLedger()
    try:
        _RUNNERS[config.experiment](config, out_dir, ledger)
        summary = _write_summary(
            out_dir, config, hypothesis=config.hypothesis_report(), checks=ledger.records, all_pass=ledger.all_pass
        )
    except Exception as exc:
        _write_summary(out_dir, config, error=f"{type(exc).__name__}: {exc}", partial_outputs=True)
        raise
    return ExperimentResult(0 if ledger.all_pass else 1, summary)
