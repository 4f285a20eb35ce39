"""The benchmark's three workloads; one certificate is the unit of work.

Each workload builds its inputs from the run seed with cbfctl's own seeded
generators (``ProblemConfig.rng``, ``random_field``, ``random_trajectory``), so
the program receives only generated inputs.  ``certify`` runs one certificate
and checks it against the tolerance that certifies it.

cbfctl is always reached as ``cbfctl.<name>`` at call time, never through a
name imported here, so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import csv
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

import cbfctl
from cbfctl.harness import config_from_dict


@dataclass
class Outcome:
    """One certificate: whether it met its tolerance, and its certified values."""

    ok: bool
    fingerprint: dict[str, Any]


def _warm_up(cfg, m, f0) -> None:
    """One state step and one adjoint step on the workload grid: fills the
    FFT plan cache and the Grid's cached arrays before timing starts."""
    params = cfg.operator_params()
    dt = cfg.t_end / cfg.nt
    cbfctl.step_state(m, f0, dt, params, picard_tol=cfg.picard_tol)
    cbfctl.step_adjoint(cbfctl.zero_field(m.grid), m, m, f0, dt, 0.0, params, picard_tol=cfg.picard_tol)


# ----------------------------------------------------------------------
# adjoint3d: exact discrete duality at delta = 0, transform-bound
# ----------------------------------------------------------------------

# The ROADMAP's 3D config is n=16 nt=32 t_end=1.  The certificate keeps its
# grid and its dt = 1/32, so each time step does the same work, but takes 2
# steps rather than 32: about 1 s on a 2-vCPU host rather than 20 s, so that
# a run holds tens of certificates and their median is not set by one slow
# stretch of a shared machine (see NOTES.md, "Timing on a shared host").
ADJOINT_NT = 2


def setup_adjoint3d(seed: int, out_root: str) -> dict:
    cfg = config_from_dict(
        {"experiment": "adjoint", "d": 3, "n": 16, "nt": ADJOINT_NT, "t_end": ADJOINT_NT / 32, "seed": seed}
    )
    grid, rng, amp = cfg.grid(), cfg.rng(), cfg.amplitude
    m0 = cbfctl.random_field(grid, rng, l2=amp)
    f1 = cbfctl.random_trajectory(grid, cfg.t_end, cfg.nt, rng, l2=amp)
    f2 = f1 + cbfctl.random_trajectory(grid, cfg.t_end, cfg.nt, rng, l2=0.5 * amp)
    h = cbfctl.random_trajectory(grid, cfg.t_end, cfg.nt, rng, l2=amp)
    _warm_up(cfg, m0, f1[0])
    return {"cfg": cfg, "m0": m0, "f1": f1, "f2": f2, "h": h}


def certify_adjoint3d(case: dict) -> Outcome:
    cfg = case["cfg"]
    params, tol, iters = cfg.operator_params(), cfg.picard_tol, cfg.picard_max_iters
    run1 = cbfctl.solve_state(case["m0"], case["f1"], params, picard_tol=tol, max_iters=iters)
    run2 = cbfctl.solve_state(case["m0"], case["f2"], params, picard_tol=tol, max_iters=iters)
    diff = cbfctl.solve_difference(run1, run2, picard_tol=tol, max_iters=iters)
    adj = cbfctl.solve_adjoint(
        (run1.solution, run2.solution),
        case["h"],
        0.0,
        params,
        kappa=cfg.kappa_effective,
        picard_tol=tol,
        max_iters=iters,
        state_K=(run1.report.energy_bound_K, run2.report.energy_bound_K),
    )
    dual = cbfctl.duality_residual(adj, run1, run2, difference=diff.trajectory)
    K = max(adj.report.energy_K, 1e-30)
    duality_ok = dual.delta_form <= cfg.tol_duality * dual.scale
    energy_ok = adj.report.energy_margin >= -1e-8 * K
    return Outcome(
        ok=bool(duality_ok and energy_ok),
        fingerprint={
            "duality_rel": dual.delta_form / dual.scale,
            "adjoint_energy_margin_rel": adj.report.energy_margin / K,
        },
    )


# ----------------------------------------------------------------------
# gradcheck2d: FD-consistent adjoint gradient, interpreter-bound
# ----------------------------------------------------------------------

GRADCHECK_DIRECTIONS = 2
GRADCHECK_EPS = 1e-4
# Acceptance criterion 7 runs nt=1536 to t_end=0.25.  The certificate keeps
# its grid and its dt = 1/6144, and with it the FD tolerance, but takes a
# quarter of the steps, for the reason given at ADJOINT_NT.
GRADCHECK_NT = 384


def setup_gradcheck2d(seed: int, out_root: str) -> dict:
    cfg = config_from_dict(
        {
            "d": 2,
            "n": 8,
            "nt": GRADCHECK_NT,
            "t_end": GRADCHECK_NT / 6144,
            "lambda": 0.1,
            "amplitude": 0.1,
            "seed": seed,
        }
    )
    grid, rng, amp = cfg.grid(), cfg.rng(), cfg.amplitude
    m0 = cbfctl.random_field(grid, rng, l2=amp)
    target = cbfctl.random_trajectory(grid, cfg.t_end, cfg.nt, rng, l2=amp)
    f = cbfctl.random_trajectory(grid, cfg.t_end, cfg.nt, rng, l2=amp)
    directions = [
        cbfctl.random_trajectory(grid, cfg.t_end, cfg.nt, rng, l2=1.0) for _ in range(GRADCHECK_DIRECTIONS)
    ]
    _warm_up(cfg, m0, f[0])
    return {"cfg": cfg, "m0": m0, "target": target, "f": f, "directions": directions}


def certify_gradcheck2d(case: dict) -> Outcome:
    cfg, m0, target, f = case["cfg"], case["m0"], case["target"], case["f"]
    params, tol, lam, eps = cfg.operator_params(), cfg.picard_tol, cfg.lam, GRADCHECK_EPS
    run = cbfctl.solve_state(m0, f, params, picard_tol=tol)
    adj = cbfctl.solve_adjoint_noc(run, target, picard_tol=tol)
    g = cbfctl.gradient(adj.solution, f, lam)
    worst = 0.0
    for direction in case["directions"]:
        f_plus, f_minus = f + eps * direction, f - eps * direction
        j_plus = cbfctl.cost(f_plus, cbfctl.solve_state(m0, f_plus, params, picard_tol=tol).solution, target, lam)
        j_minus = cbfctl.cost(f_minus, cbfctl.solve_state(m0, f_minus, params, picard_tol=tol).solution, target, lam)
        fd = (j_plus - j_minus) / (2.0 * eps)
        pred = cbfctl.time_l2_inner(g, direction)
        worst = max(worst, abs(fd - pred) / max(abs(fd), 1e-30))
    # the rule of the verify battery's gradient check
    limit = max(1e-4, 2.0 * f.dt + eps**2)
    return Outcome(ok=worst <= limit, fingerprint={"fd_rel": worst, "fd_rel_limit": limit})


# ----------------------------------------------------------------------
# optimize2d: the optimize experiment end to end, artifacts included
# ----------------------------------------------------------------------

# Acceptance criterion 8's horizon, t_end=1, in 2 time steps rather than 16:
# a certificate then takes about 2.3 s instead of 20 s on a 2-vCPU host, for
# the reason given at ADJOINT_NT.  Shortening the horizon instead would make
# the experiment's 10x flag unreachable (NOTES.md, "Open finding"), and the
# n=8 grid makes the iteration count swing by 15% from seed to seed.
OPTIMIZE_NT = 2


def setup_optimize2d(seed: int, out_root: str) -> dict:
    cfg = config_from_dict(
        {
            "experiment": "optimize",
            "d": 2,
            "n": 16,
            "nt": OPTIMIZE_NT,
            "t_end": 1.0,
            "lambda": 1e-3,
            "seed": seed,
        }
    )
    grid = cfg.grid()
    m = cbfctl.random_field(grid, cfg.rng(), l2=0.3 * cfg.amplitude)
    _warm_up(cfg, m, m)
    return {"cfg": cfg, "out_root": out_root}


def certify_optimize2d(case: dict) -> Outcome:
    out_dir = tempfile.mkdtemp(prefix="optimize2d-", dir=case["out_root"])
    try:
        result = cbfctl.run_experiment(case["cfg"], out_dir)
        with open(os.path.join(out_dir, "trace.csv"), encoding="utf-8") as fh:
            iterations = sum(1 for _ in csv.reader(fh)) - 2  # header, final row
        io_bytes = sum(entry.stat().st_size for entry in os.scandir(out_dir))
    finally:
        shutil.rmtree(out_dir)
    return Outcome(
        ok=result.exit_code == 0,
        fingerprint={
            "J_final": result.summary["checks"]["J_final"]["value"],
            "iterations": iterations,
            "io_bytes": io_bytes,
        },
    )


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, str], dict]
    certify: Callable[[dict], Outcome]


# Why each workload is here: BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "adjoint3d": Workload(setup_adjoint3d, certify_adjoint3d),
    "gradcheck2d": Workload(setup_gradcheck2d, certify_gradcheck2d),
    "optimize2d": Workload(setup_optimize2d, certify_optimize2d),
}

# A certificate fails, rather than the benchmark, when a solver gives up.
SOLVER_FAILURES = (cbfctl.NonConvergenceError, cbfctl.LineSearchFailure)
