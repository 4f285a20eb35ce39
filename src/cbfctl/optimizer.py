"""Velocity-tracking control: cost, projected gradient descent, optimality checks.

The reduced problem is

    min_{f in ball}  J(f) = 1/2 int ||m[f] - m_d||_2^2 dt + lambda/2 int ||f||_2^2 dt,

with the admissible set concretized as the closed L2(0,T;H) ball of radius R
(closed-form projection: radial rescaling).  The discrete cost uses the
right-endpoint rule for the tracking term (the initial state does not depend
on f) and the left-endpoint rule for the control term (those are the samples
the scheme consumes); with these endpoints the adjoint-based gradient

    grad J(f)(t_n) = q(t_n) + lambda f(t_n)

is exactly the duality image of the discrete tracking derivative, so its
finite-difference defect comes only from the O(dt) gap between the difference
scheme and the true tangent of the nonlinear stepping map.

First-order optimality is certified two ways: the variational inequality
residual min_v (v - f*, q + lambda f*) over an admissible probe bank, and the
finite-increment condition evaluated along f_rho = f + rho (u - f) with the
intermediate adjoint built from the coefficient pair (m[f], m[f_rho]).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fields import (
    SpectralField,
    Trajectory,
    check_aligned,
    inner_product,
    inner_product_series,
    random_trajectory,
    running_integral,
    time_l2_inner,
    time_l2_norm,
)
from .operators import OperatorParams
from .state_solver import PICARD_MAX_ITERS, PICARD_TOL, StateRun, solve_state
from .adjoint_solver import AdjointRun, solve_adjoint, solve_adjoint_noc


class LineSearchFailure(RuntimeError):
    """Armijo backtracking exhausted its budget without sufficient decrease."""


@dataclass(frozen=True)
class ControlProblem:
    """All data of one tracking problem on a fixed grid and time axis."""

    params: OperatorParams
    lam: float
    m0: SpectralField
    target: Trajectory
    radius: float
    kappa: float  # the stability split every optimality adjoint's energy margin uses
    picard_tol: float = PICARD_TOL
    picard_max_iters: int = PICARD_MAX_ITERS

    def __post_init__(self) -> None:
        for name in ("lam", "radius"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.lam <= 0:
            raise ValueError("lambda must be > 0")
        if self.radius <= 0:
            raise ValueError("radius must be > 0")
        if self.m0.grid != self.target.grid:
            raise ValueError("target and initial condition live on different grids")

    @property
    def t_end(self) -> float:
        return self.target.t_end

    def solve(self, f: Trajectory) -> StateRun:
        check_aligned(f, self.target)
        return solve_state(
            self.m0, f, self.params, picard_tol=self.picard_tol, max_iters=self.picard_max_iters
        )


def cost(f: Trajectory, m: Trajectory, target: Trajectory, lam: float) -> float:
    """Discrete tracking cost; tracking right-endpoint, control left-endpoint."""
    check_aligned(f, m)
    check_aligned(m, target)
    e = m - target
    track = float(running_integral(inner_product_series(e, e)[1:], m.dt)[-1])
    return 0.5 * track + 0.5 * lam * time_l2_inner(f, f)


def gradient(q_noc: Trajectory, f: Trajectory, lam: float) -> Trajectory:
    """Pointwise-in-time cost gradient q(t) + lambda f(t)."""
    return lam * f + q_noc


def project_admissible(f: Trajectory, radius: float) -> Trajectory:
    """Projection onto the L2(0,T;H) ball: rescale when outside, else identity.

    Idempotent and nonexpansive.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    nrm = time_l2_norm(f)
    if nrm <= radius:
        return f
    return f * (radius / nrm)


# An accepted step that changes J by no more than this share of J changed it by
# round-off alone.  The adjoint gradient is off the nonlinear map's by O(dt), so
# its projected-gradient norm has a floor; at that floor accepted steps move J
# by 0 or 1 ulp, while real descent lowers it by about 1e-12 J or more.
ROUNDOFF_DECREASE = 8.0 * float(np.finfo(float).eps)

# The nonmonotone search of Grippo, Lampariello & Lucidi (1986) as spectral
# projected gradient uses it (Birgin, Martinez & Raydan 2000): a trial is tested
# against the largest of the last NONMONOTONE_MEMORY accepted costs, and a
# rejected step s is cut to the minimizer of the quadratic through J, the slope
# and J_c, kept within [BACKTRACK_MIN s, BACKTRACK_MAX s], at most MAX_BACKTRACKS
# times per iteration.
NONMONOTONE_MEMORY = 10
MAX_BACKTRACKS = 60
BACKTRACK_MIN = 0.1
BACKTRACK_MAX = 0.5


class TraceRow(NamedTuple):
    iteration: int
    cost: float
    grad_norm: float
    step: float
    backtracks: int  # step reductions of the trial step before the search accepted it
    vi_residual: float


@dataclass(frozen=True)
class OptimizeTrace:
    rows: list[TraceRow]
    iterations: int
    stop: str  # "tol", "stalled" or "max_iters"


class OptimizeResult(NamedTuple):
    control: Trajectory
    state: StateRun
    adjoint: AdjointRun  # the optimality adjoint at state, solved at problem.kappa
    trace: OptimizeTrace


def optimize(
    problem: ControlProblem,
    f_init: Trajectory,
    *,
    max_iters: int,
    tol: float,
) -> OptimizeResult:
    """Spectral projected gradient (Birgin, Martinez & Raydan 2000) with the
    nonmonotone Armijo search of Grippo, Lampariello & Lucidi (1986) on the
    true cost: a trial f_c = P(f - s g) is accepted when
    J(f_c) <= max(last NONMONOTONE_MEMORY accepted J) - 1e-4 <g, f - f_c>,
    so an accepted step may raise J, but that running maximum never rises.
    A rejected step is cut by safeguarded quadratic interpolation, to within
    [BACKTRACK_MIN s, BACKTRACK_MAX s], or halved when the quadratic has no
    minimum.

    The trial step is the Barzilai-Borwein step <df, df> / <df, dg>, with df
    and dg the changes of the iterate and of its gradient over the last
    accepted step, clipped to at most 1/lambda.  It is 1/lambda on the first
    iteration and whenever <df, dg> <= 0.

    Stops with trace.stop "tol" when the projected-gradient norm
    ||f - P(f - (1/lambda) g)|| * lambda falls below tol; "stalled" when the
    last accepted step changed J by no more than round-off (ROUNDOFF_DECREASE
    J), the gradient's accuracy floor; "max_iters" at max_iters.  Every stop
    returns the final iterate with its state and optimality adjoint.
    """
    f = project_admissible(f_init, problem.radius)
    run = problem.solve(f)
    J = cost(f, run.solution, problem.target, problem.lam)
    s_max = 1.0 / problem.lam
    rows: list[TraceRow] = []
    accepted = deque([J], maxlen=NONMONOTONE_MEMORY)
    stalled = False
    f_prev = g_prev = None

    for it in range(max_iters + 1):
        adj = solve_adjoint_noc(
            run, problem.target, kappa=problem.kappa, picard_tol=problem.picard_tol, max_iters=problem.picard_max_iters
        )
        g = gradient(adj.solution, f, problem.lam)
        probe = project_admissible(f - s_max * g, problem.radius)
        pg = time_l2_norm(f - probe) / s_max
        vi_probe = time_l2_inner(probe - f, g)
        stop = "tol" if pg <= tol else "stalled" if stalled else "max_iters" if it == max_iters else None
        if stop is not None:
            rows.append(TraceRow(it, J, pg, 0.0, 0, vi_probe))
            return OptimizeResult(f, run, adj, OptimizeTrace(rows, it, stop))

        s = s_max
        if f_prev is not None:
            df, dg = f - f_prev, g - g_prev
            curvature = time_l2_inner(df, dg)
            if curvature > 0.0:
                s = min(s_max, time_l2_inner(df, df) / curvature)
        J_ref = max(accepted)
        for backtracks in range(MAX_BACKTRACKS):
            cand = project_admissible(f - s * g, problem.radius)
            run_c = problem.solve(cand)
            J_c = cost(cand, run_c.solution, problem.target, problem.lam)
            decrease = time_l2_inner(g, f - cand)
            if J_c <= J_ref - 1e-4 * decrease:
                break
            excess = J_c - J + decrease  # J_c over the linear model J - decrease
            if excess > 0.0:
                s_star = decrease * s / (2.0 * excess)
                s = min(max(s_star, BACKTRACK_MIN * s), BACKTRACK_MAX * s)
            else:
                s *= 0.5
        else:
            raise LineSearchFailure(
                f"no sufficient decrease after {MAX_BACKTRACKS} backtracks at iteration {it}"
            )
        rows.append(TraceRow(it, J, pg, s, backtracks, vi_probe))
        stalled = abs(J - J_c) <= ROUNDOFF_DECREASE * J
        f_prev, g_prev = f, g
        f, run, J = cand, run_c, J_c
        accepted.append(J)

    raise AssertionError("unreachable")


def make_probe_bank(
    f_star: Trajectory,
    radius: float,
    count: int,
    rng: np.random.Generator,
    *,
    grad: Trajectory | None,
    step: float,
) -> list[Trajectory]:
    """Admissible probe bank: random interior points plus +-R-normalized
    extreme directions, optionally with the projected descent probe."""
    grid, t_end, nt = f_star.grid, f_star.t_end, f_star.nt
    probes: list[Trajectory] = []
    if grad is not None:
        probes.append(project_admissible(f_star - step * grad, radius))
    while len(probes) < count:
        u = random_trajectory(grid, t_end, nt, rng, l2=1.0)
        nrm = time_l2_norm(u)
        if nrm == 0.0:
            continue
        kind = len(probes) % 3
        if kind == 0:
            probes.append(project_admissible(u * (radius * rng.uniform(0.1, 0.9) / nrm), radius))
        elif kind == 1:
            probes.append(u * (radius / nrm))
        else:
            probes.append(u * (-radius / nrm))
    return probes[:count]


def vi_residual(
    f_star: Trajectory,
    q_noc: Trajectory,
    lam: float,
    probes: Sequence[Trajectory],
) -> float:
    """min over probes of int (v - f*, q + lambda f*) dt; nonnegative (up to
    tolerance) exactly when f* is stationary for the iteration's gradient map."""
    g = gradient(q_noc, f_star, lam)
    return min(time_l2_inner(v - f_star, g) for v in probes)


def gradient_scale(problem: ControlProblem) -> float:
    """A-priori magnitude of q + lambda f over the admissible set.

    lambda R bounds the penalty part; the adjoint part is bounded through its
    energy estimate with the worst tracking source m - m_d replaced by the
    problem data (target plus the reachable-state level K^(1/2)):
    ||q||_{L2(0,T;H)} <= sqrt(T e^T int ||h||^2).  Deliberately independent of
    the candidate point, so VI/IOC tolerances do not collapse at an optimum.
    """
    T = problem.t_end
    int_md = time_l2_inner(problem.target, problem.target)
    # sup_t ||m||^2 <= (||m0||^2 + int ||f||^2) e^T <= (||m0||^2 + R^2) e^T
    k_state = (inner_product(problem.m0, problem.m0) + problem.radius**2) * math.exp(T)
    int_h = 2.0 * T * k_state + 2.0 * int_md
    return problem.lam * problem.radius + math.sqrt(T * math.exp(T) * int_h)


def vi_scale(f_star: Trajectory, probes: Sequence[Trajectory], problem: ControlProblem) -> float:
    """Reference magnitude for VI/IOC tolerances: the probe spread times the
    a-priori gradient scale."""
    spread = max(time_l2_norm(v - f_star) for v in probes)
    return max(spread * gradient_scale(problem), 1e-30)


class IOCPoint(NamedTuple):
    rho: float
    residual: float
    q_distance: float
    adjoint_margin: float


def ioc_ladder(
    u_probe: Trajectory,
    rhos: Sequence[float],
    problem: ControlProblem,
    *,
    base_run: StateRun,
    base_adjoint: AdjointRun,
) -> list[IOCPoint]:
    """IOC residuals over a rho ladder, with ||q_rho - q|| against the
    collapsed optimality adjoint q (decreasing as rho -> 0).

    The residual at rho is the finite-increment optimality residual along
    f_rho = f + rho (u - f):

        int (u - f, q_rho + lambda f) dt
          + rho/2 int ||(m_rho - m)/rho||^2 dt
          + rho lambda / 2 int ||u - f||^2 dt,

    where q_rho solves the intermediate adjoint with coefficients (m, m_rho)
    and source m - m_d.  Nonnegative (up to discretization and optimizer
    tolerance) at an optimum, for every admissible u and 0 < rho < 1.
    base_run is the state m of the control f = base_run.forcing, base_adjoint
    its optimality adjoint q, as optimize returns them.
    """
    if not all(0.0 < rho < 1.0 for rho in rhos):
        raise ValueError("rho must lie in (0, 1)")
    f, m = base_run.forcing, base_run.solution
    check_aligned(f, u_probe)
    du = u_probe - f
    h = m - problem.target
    lam_f = problem.lam * f
    du_sq = time_l2_inner(du, du)
    points = []
    for rho in rhos:
        run_rho = problem.solve(f + rho * du)
        q_rho = solve_adjoint(
            (m, run_rho.solution),
            h,
            0.0,
            problem.params,
            kappa=problem.kappa,
            picard_tol=problem.picard_tol,
            max_iters=problem.picard_max_iters,
        )
        term1 = time_l2_inner(du, q_rho.solution + lam_f)
        z = (run_rho.solution - m) * (1.0 / rho)
        term2 = 0.5 * rho * float(running_integral(inner_product_series(z, z)[1:], f.dt)[-1])
        residual = term1 + term2 + 0.5 * rho * problem.lam * du_sq
        q_dist = time_l2_norm(q_rho.solution - base_adjoint.solution)
        points.append(IOCPoint(rho, residual, q_dist, q_rho.report.energy_margin))
    return points
