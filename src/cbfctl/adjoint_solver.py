"""Backward-in-time adjoint systems, built by transposing the difference scheme.

The difference scheme advances  S_n v_{n+1} = v_n + dt g_n  with
S_n = I + dt (mu A + alpha + L_n) and frozen slab coefficients (m1_n, m2_n).
The discrete adjoint is *defined* as its algebraic transpose: with terminal
value q_N = 0,

    S_n^T q_n = q_{n+1} + dt h_{n+1},        n = N-1, ..., 0,

which by summation by parts gives the exact discrete duality

    dt sum_{n=0}^{N-1} (g_n, q_n)  =  dt sum_{n=1}^{N} (h_n, v_n)

to solver tolerance at any dt (the identity the cost gradient rests on).
Because S_n^T = I + dt(mu A + alpha + L_n^T) with L_n^T the transposed pair
operator, the same recursion read backward is a consistent O(dt)
discretization of the continuous adjoint PDE

    -dq/dt + mu A q - B(m1, q) + P[sum_j grad((m2)_j) q_j] + alpha q
        + (beta/2) P{(|m1|^2+|m2|^2) q}
        + (beta/2) P{((m1+m2).q)(m1+m2)}  =  P h,      q(T) = 0.

Cube-regularized variant: a term delta P{|q|^2 q} is added with the frozen
coefficient |p_old|^2 of the previous backward step, keeping every step a
linear solve.  The solve runs in reversed time (p(t) = q(T - t)) as a
forward state_solver.march, with the transposed pair stencil as its operator,
into the reversed view of q's coefficient array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .fields import (
    SpectralField, Trajectory, check_aligned, inner_product_series, l2_series, l4_from_speed_squared, mode_sq,
    parseval_pairing, parseval_sum, quadrature, running_integral, spectral_rows, speed_squared, time_l2_inner,
    time_l2_norm,
)
from .operators import OperatorParams, PairStencil, cubic_coeffs
from .state_solver import PICARD_MAX_ITERS, PICARD_TOL, StateRun, march


def step_adjoint(
    p_n: SpectralField,
    m1_rev: SpectralField,
    m2_rev: SpectralField,
    h_n: SpectralField,
    dt: float,
    delta: float,
    params: OperatorParams,
    *,
    picard_tol: float = PICARD_TOL,
    max_iters: int = PICARD_MAX_ITERS,
) -> SpectralField:
    """One reversed-time adjoint step (the one-step march).

    m1_rev, m2_rev are the coefficient fields at the step's *target* reversed
    time (the transposed slab operator), h_n the reversed source at the old
    time.  For delta = 0 the step operator is exactly the transpose of the
    difference step on that slab; delta > 0 adds delta P{|p_n|^2 p_{n+1}}.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    grid = p_n.grid
    stencil = PairStencil(grid, m1_rev.coeffs, m2_rev.coeffs, params)
    extra = delta * speed_squared(grid, grid.to_physical(p_n.coeffs)) if delta > 0 else None
    out = np.empty((2,) + p_n.coeffs.shape, dtype=np.complex128)
    out[0] = p_n.coeffs
    march(
        grid, h_n.coeffs[None], dt, params, lambda n, x: partial(stencil.apply_transpose, extra_weight=extra), out,
        picard_tol=picard_tol, max_iters=max_iters,
    )
    return SpectralField(grid, out[1])


@dataclass(frozen=True)
class AdjointReport:
    """Sampled norms of q, the Picard sweeps of every step in solve order
    (picard_sweeps[j] is reversed step j, which yields q at time index
    nt - 1 - j), and the margins of the adjoint estimates."""

    q_l2: np.ndarray
    q_v: np.ndarray
    picard_sweeps: np.ndarray
    energy_K: float
    energy_margin: float
    kappa: float


@dataclass(frozen=True)
class AdjointRun:
    """A solved backward run q^delta with its inputs and report.

    solution[nt] is exactly zero (terminal condition); solution[0] is the last
    computed backward step, reported without interpolation.
    """

    params: OperatorParams
    delta: float
    coeffs: tuple[Trajectory, Trajectory]
    rhs: Trajectory
    solution: Trajectory
    report: AdjointReport
    state_K: tuple[float, float] | None = None

    @property
    def dt(self) -> float:
        return self.solution.dt


def solve_adjoint(
    coeffs: tuple[Trajectory, Trajectory],
    h: Trajectory,
    delta: float,
    params: OperatorParams,
    *,
    kappa: float,
    picard_tol: float = PICARD_TOL,
    max_iters: int = PICARD_MAX_ITERS,
    state_K: tuple[float, float] | None = None,
) -> AdjointRun:
    """Backward solve of the (regularized) adjoint system via time reversal.

    The report carries the margin of the adjoint energy bound

        sup_t ||q||^2 + 2 mu (1-kappa) int ||q||_V^2 + 2 delta int ||q||_4^4
          + (beta - 1/(2 mu kappa)) int [ |||m1| q||^2 + |||m2| q||^2 ]
            <=  e^T int ||h||^2  =: K,

    with left-endpoint integrals (NaN if the coefficient hypothesis fails).

    Each new sample is transformed once; its |q|^2 gives its l4, the next
    step's delta weight and, against the step stencil's |m1|^2 and |m2|^2,
    the weighted integrals of the bound.
    """
    m1, m2 = coeffs
    check_aligned(m1, m2)
    check_aligned(m1, h)
    if delta < 0:
        raise ValueError("delta must be >= 0")

    grid = m1.grid
    m1r, m2r = m1.coeffs[::-1], m2.coeffs[::-1]

    # q is written in reversed time through a reversed view of its array;
    # q(T) = 0 is the first reversed sample, left there by the zero fill.
    # rev_l4[j] is the l4 of reversed sample j and weighted[j] =
    # int |m1_n|^2 |q_n|^2 + int |m2_n|^2 |q_n|^2 for n = nt - 1 - j, against
    # the stencil of the step that produced q_n.
    rev_l4, weighted = [], []
    stencil = None

    def record(p: np.ndarray) -> np.ndarray:
        p2 = speed_squared(grid, grid.to_physical(p))
        rev_l4.append(l4_from_speed_squared(grid, p2))
        if stencil is not None:
            w1 = float(quadrature(grid, stencil.w1 * p2, grid.d))
            weighted.append(w1 + float(quadrature(grid, stencil.w2 * p2, grid.d)))
        return p2

    def operator(j: int, p: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        nonlocal stencil
        p2 = record(p)
        a = m1r[j + 1]
        stencil = PairStencil(grid, a, a if m2 is m1 else m2r[j + 1], params)
        return partial(stencil.apply_transpose, extra_weight=delta * p2 if delta > 0 else None)

    qc = np.zeros(m1.coeffs.shape, dtype=np.complex128)
    sweeps = march(grid, h.coeffs[::-1], m1.dt, params, operator, qc[::-1], picard_tol=picard_tol, max_iters=max_iters)
    record(qc[0])
    solution = Trajectory(grid, m1.t_end, qc)
    q_l2, q_v = spectral_rows(grid, qc)
    q_l4 = np.array(rev_l4[::-1])
    K = math.exp(solution.t_end) * time_l2_inner(h, h)
    margin = math.nan
    if params.hypothesis_holds(kappa):
        int_w, int_qv, int_q4 = (
            float(running_integral(x, solution.dt)[-1]) for x in (weighted[::-1], q_v[:-1] ** 2, q_l4[:-1] ** 4)
        )
        coeff = params.beta - 1.0 / (2.0 * params.mu * kappa)
        lhs = float(np.max(q_l2**2)) + 2.0 * params.mu * (1.0 - kappa) * int_qv + 2.0 * delta * int_q4 + coeff * int_w
        margin = K - lhs
    else:
        warnings.warn("coefficient hypothesis fails; adjoint energy margin undefined", RuntimeWarning)
    report = AdjointReport(q_l2=q_l2, q_v=q_v, picard_sweeps=sweeps, energy_K=K, energy_margin=margin, kappa=kappa)
    return AdjointRun(
        params=params, delta=delta, coeffs=coeffs, rhs=h, solution=solution, report=report, state_K=state_K
    )


class DualityReport(NamedTuple):
    delta_form: float
    limit_form: float
    scale: float
    running: tuple[float, ...]


def duality_residual(
    adj: AdjointRun,
    run1: StateRun,
    run2: StateRun,
    *,
    difference: Trajectory,
) -> DualityReport:
    """Discrete residuals of the duality identities.

    delta_form pairs the adjoint with the paired difference solution
    v = difference, the trajectory of solve_difference(run1, run2) under the
    caller's Picard control:

        | dt sum_{n<N} (f1_n - f2_n, q_n)
          + delta dt sum_{n<N} <C(q_n), v_n>  -  dt sum_{n=1..N} (h_n, v_n) |.

    The linear pairings use the endpoints the transpose construction makes
    exact, so at delta = 0 the residual is solver-tolerance small; at
    delta > 0 the cubic term is discretized at left endpoints and the
    residual is O(dt).  limit_form replaces v by the sampled m1 - m2 and
    drops the delta term (O(dt) always).  running[n] is the delta_form of the
    sums cut after n steps (running[0] = 0, running[nt] = delta_form).
    """
    if adj.coeffs[0] is not run1.solution or adj.coeffs[1] is not run2.solution:
        raise ValueError("adjoint was not built from the coefficient trajectories of these runs")
    v = difference
    check_aligned(v, adj.solution)
    q, h = adj.solution, adj.rhs
    dt = q.dt
    g = run1.forcing - run2.forcing
    g_l2, q_l2, h_l2, v_l2 = (l2_series(x) for x in (g, q, h, v))
    lhs = running_integral(inner_product_series(g, q)[:-1], dt)
    rhs = running_integral(inner_product_series(h, v)[1:], dt)
    cubic = np.zeros(q.nt + 1)
    if adj.delta > 0:  # <C(q_n), v_n> for n < nt, from one batched transform each way
        cq = cubic_coeffs(q.grid, q.grid.to_physical(q.coeffs[:-1]))
        cubic = running_integral(parseval_pairing(q.grid, cq, v.coeffs[:-1]), adj.delta * dt)
    limit = lhs[-1] - running_integral(inner_product_series(h, run1.solution - run2.solution)[1:], dt)[-1]
    scale = running_integral(np.concatenate(((g_l2 * q_l2)[:-1], (h_l2 * v_l2)[1:])), dt)[-1]
    running = np.abs(lhs + cubic - rhs)
    return DualityReport(
        delta_form=float(running[-1]), limit_form=float(abs(limit)),
        scale=max(float(scale + abs(cubic[-1])), 1e-300), running=tuple(running.tolist()),
    )


class DerivativeBound(NamedTuple):
    margin: float
    norm: float
    bound: float


def derivative_bound_check(adj: AdjointRun) -> DerivativeBound:
    """Certified check of the time-derivative dual-norm estimate

        || dq/dt ||_{V' + L^{4/3}}  <=  K_hat + delta^{1/4} (K/2)^{3/4}.

    The left side is bounded above by the discrete L2(0,T;V') norm of the
    difference quotient, which has the closed form

        sqrt( sum_n sum_k |q_{n+1,k} - q_{n,k}|^2 / |k|^2 * vol / dt ),

    attained by the Riesz probe A^{-1} (q_{n+1} - q_n) / dt.  So a nonnegative
    margin bound - norm certifies the estimate.  K_hat uses the a-priori
    constants of the coefficient runs, so the adjoint must carry state_K.
    """
    if adj.state_K is None:
        raise ValueError("derivative_bound_check needs state_K: the a-priori constants of the coefficient runs")
    params, q, h = adj.params, adj.solution, adj.rhs
    kappa = adj.report.kappa
    K = adj.report.energy_K
    if not params.hypothesis_holds(kappa):
        warnings.warn("coefficient hypothesis fails; derivative bound undefined", RuntimeWarning)
        return DerivativeBound(math.nan, math.nan, math.nan)

    coeff4 = params.beta - 1.0 / (2.0 * params.mu * kappa)
    int_h2 = time_l2_inner(h, h)
    amps = [(Ki / (2.0 * params.beta)) ** 0.25 for Ki in adj.state_K]
    k_hat = (
        math.sqrt(params.mu * K / (2.0 * (1.0 - kappa)))
        + math.sqrt(params.alpha * K / 2.0)
        + 2.0 * math.sqrt(K / coeff4)
        + math.sqrt(int_h2)
        + 1.5 * params.beta * math.sqrt(K / coeff4) * (amps[0] + amps[1])
    )
    bound = k_hat + adj.delta ** 0.25 * (K / 2.0) ** 0.75

    grid = q.grid
    dq_sq = mode_sq(grid, np.diff(q.coeffs, axis=0))  # row n: |q[n + 1] - q[n]|^2 per mode
    # one Parseval sum over every row at once (ndim d + 1), not a sum of row sums
    norm = math.sqrt(float(parseval_sum(grid, dq_sq / grid.k_sq_safe, grid.d + 1)) / q.dt)
    return DerivativeBound(bound - norm, norm, bound)


def solve_adjoint_noc(
    state: StateRun,
    m_d: Trajectory,
    *,
    kappa: float | None = None,
    picard_tol: float = PICARD_TOL,
    max_iters: int = PICARD_MAX_ITERS,
) -> AdjointRun:
    """Optimality adjoint at a candidate state: coefficients collapse to
    (m, m), delta = 0, source h = m - m_d.

    kappa=None means the state's kappa_star().  Every caller in the package
    passes kappa; the default stays only because the benchmark's gradcheck2d
    workload calls this without it.
    """
    return solve_adjoint(
        (state.solution, state.solution),
        state.solution - m_d,
        0.0,
        state.params,
        kappa=state.params.kappa_star() if kappa is None else kappa,
        picard_tol=picard_tol,
        max_iters=max_iters,
    )


def delta_sweep(
    coeffs: tuple[Trajectory, Trajectory],
    h: Trajectory,
    deltas: Sequence[float],
    params: OperatorParams,
    *,
    kappa: float,
    picard_tol: float = PICARD_TOL,
    max_iters: int = PICARD_MAX_ITERS,
) -> tuple[AdjointRun, list[tuple[float, float]]]:
    """Distance ||q^delta - q^0||_{L2(0,T;H)} over a delta ladder.

    Returns the delta = 0 run and (delta, distance) pairs in the given order;
    the distances decrease monotonically as delta -> 0.
    """
    base = solve_adjoint(coeffs, h, 0.0, params, kappa=kappa, picard_tol=picard_tol, max_iters=max_iters)
    out = []
    for delta in deltas:
        run = solve_adjoint(coeffs, h, float(delta), params, kappa=kappa, picard_tol=picard_tol, max_iters=max_iters)
        out.append((float(delta), time_l2_norm(run.solution - base.solution)))
    return base, out
