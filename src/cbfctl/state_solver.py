"""Time integration of the damped Navier-Stokes state and difference systems.

One state step is the first-order linearly-implicit scheme

    (I + dt mu A + dt alpha) m_{n+1} + dt B(m_n, m_{n+1})
        + dt beta P{ |m_n|^2 m_{n+1} }  =  m_n + dt f_n,

solved matrix-free by Picard iteration preconditioned with the diagonal
(1 + dt alpha + dt mu |k|^2)^{-1}.  The scheme is unconditionally linearly
stable, and with f = 0 it is dissipative step by step: the implicit convection
contributes nothing to the energy balance (b(m_n, x, x) = 0) and the frozen
cubic term contributes  +dt beta int |m_n|^2 |m_{n+1}|^2 >= 0.

The difference system for v = m1 - m2 is integrated with the same family,

    (I + dt mu A + dt alpha) v_{n+1} + dt L_n v_{n+1} = v_n + dt (f1 - f2)_n,

where L_n is the frozen-coefficient pair operator at slab n (operators.
PairStencil).  Its exact algebraic transpose defines the adjoint step, which
is why v is solved this way instead of taking m1 - m2 directly; the defect
||v - (m1 - m2)|| is O(dt) and reported for cross-checking.

Every step of the state, difference and adjoint systems is taken by march;
the solvers only supply each step's frozen operator (StateStencil, PairStencil
or its transpose) and keep their own bookkeeping.

All time integrals in the estimate checks use the left-endpoint rectangle
rule, the bookkeeping consistent with the scheme's first-order accuracy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .fields import (
    Grid,
    SpectralField,
    Trajectory,
    check_aligned,
    inner_product_series,
    norm_series,
    spectral_norm_series,
    spectral_norms,
)
from .operators import OperatorParams, PairStencil, StateStencil

CFL_WARN = 2.0


class NonConvergenceError(RuntimeError):
    """Picard iteration failed to reach tolerance; dt is likely too large."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class HypothesisViolatedError(ValueError):
    """The coefficient hypothesis 2*beta*mu > 1/kappa fails for the given kappa."""


def _dinv(grid: Grid, params: OperatorParams, dt: float) -> np.ndarray:
    return 1.0 / (1.0 + dt * (params.alpha + params.mu * grid.k_sq))


def _l2c(c: np.ndarray, volume: float) -> float:
    """||c||_2 of a raw coefficient array: the square root of its
    inner_product with itself, as the same expression."""
    return math.sqrt(max(float(np.real(np.sum(c * np.conj(c))) * volume), 0.0))


def _l2(u: SpectralField) -> float:
    return _l2c(u.coeffs, u.grid.volume)


def _l2_series(traj: Trajectory) -> np.ndarray:
    """_l2(traj[n]) for every sample n."""
    return np.sqrt(np.maximum(inner_product_series(traj, traj), 0.0))


def picard_solve(
    grid: Grid,
    dinv: np.ndarray,
    rhs: SpectralField,
    napply: Callable[[SpectralField], SpectralField],
    dt: float,
    tol: float,
    max_iters: int,
    step: int | None = None,
) -> tuple[SpectralField, int]:
    """Solve (D + dt N) x = rhs with D diagonal per mode and N linear.

    Fixed-point sweep x <- D^{-1}(rhs - dt N x); converged when the increment
    drops below tol * ||rhs||_2 (absolute for a zero right-hand side).  The
    iterates are raw coefficient arrays; each sweep wraps one for napply.
    """
    b, vol = rhs.coeffs, grid.volume
    scale = max(_l2c(b, vol), 1e-300)
    x = dinv * b
    for it in range(max_iters):
        x_new = dinv * (b - dt * napply(SpectralField(grid, x)).coeffs)
        delta = _l2c(x_new - x, vol)
        x = x_new
        if delta <= tol * scale:
            return SpectralField(grid, x), it + 1
    raise NonConvergenceError(
        f"Picard iteration did not reach {tol:g} within {max_iters} sweeps"
        + (f" at step {step}" if step is not None else "")
        + "; reduce dt or amplitudes",
        step=step,
    )


def march(
    x0: SpectralField,
    source: np.ndarray,
    dt: float,
    params: OperatorParams,
    operator: Callable[[int, SpectralField], Callable[[SpectralField], SpectralField]],
    out: np.ndarray,
    *,
    picard_tol: float,
    max_iters: int,
) -> np.ndarray:
    """Take len(out) - 1 linearly-implicit steps from x0 and return each
    step's Picard sweeps.  Step n solves

        (I + dt (mu A + alpha) + dt N_n) x_{n+1} = x_n + dt source[n],

    with N_n = operator(n, x_n), the operator frozen at step n, and writes
    x_{n+1} to out[n + 1]; out[0] = x0.
    """
    grid = x0.grid
    dinv = _dinv(grid, params, dt)
    sweeps = np.zeros(len(out) - 1, dtype=int)
    out[0] = x0.coeffs
    x = x0
    for n in range(len(sweeps)):
        rhs = SpectralField(grid, x.coeffs + dt * source[n])
        x, sweeps[n] = picard_solve(grid, dinv, rhs, operator(n, x), dt, picard_tol, max_iters, step=n)
        out[n + 1] = x.coeffs
    return sweeps


def step_state(
    m_n: SpectralField,
    f_n: SpectralField,
    dt: float,
    params: OperatorParams,
    *,
    picard_tol: float = 1e-11,
    max_iters: int = 200,
) -> SpectralField:
    """One linearly-implicit state step (the one-step march); output is
    divergence-free and mean-zero."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    _, vnorm = spectral_norms(m_n)
    if dt * vnorm > CFL_WARN:
        warnings.warn(
            f"dt * ||m||_V = {dt * vnorm:.3g} is large; the implicit solve may struggle",
            RuntimeWarning,
            stacklevel=2,
        )
    out = np.empty((2,) + m_n.coeffs.shape, dtype=np.complex128)
    march(
        m_n, f_n.coeffs[None], dt, params, lambda n, x: StateStencil(x, params).apply, out,
        picard_tol=picard_tol, max_iters=max_iters,
    )
    return SpectralField(m_n.grid, out[1])


@dataclass
class SolveReport:
    """Per-run diagnostics: sampled norms, the Picard sweeps of every step
    and the residuals/margins of the energy identities the trajectory is
    supposed to satisfy."""

    times: np.ndarray
    l2: np.ndarray
    v: np.ndarray
    l4: np.ndarray
    f_l2: np.ndarray
    f_pairing: np.ndarray
    picard_sweeps: np.ndarray
    energy_equality_residual: float = math.nan
    energy_bound_margin: float = math.nan
    energy_bound_margin_t_pos: float = math.nan
    energy_pointwise_margin: float = math.nan
    energy_bound_K: float = math.nan
    hypothesis_wellposed: bool = True
    dissipative: bool | None = None
    lipschitz_margin: float | None = None


@dataclass
class StateRun:
    """A solved state trajectory together with its inputs and report."""

    params: OperatorParams
    initial: SpectralField
    forcing: Trajectory
    solution: Trajectory
    report: SolveReport

    @property
    def grid(self) -> Grid:
        return self.solution.grid

    @property
    def dt(self) -> float:
        return self.solution.dt


def solve_state(
    m0: SpectralField,
    f: Trajectory,
    params: OperatorParams,
    *,
    picard_tol: float = 1e-11,
    max_iters: int = 200,
) -> StateRun:
    """Integrate the state system on the forcing's time grid.

    Warns (does not fail) when 2*beta*mu < 1, the regime where the a-priori
    estimate is not guaranteed.
    """
    if m0.grid != f.grid:
        raise ValueError("initial condition and forcing live on different grids")
    if not params.wellposed():
        warnings.warn(
            f"2*beta*mu = {2 * params.beta * params.mu:.3g} < 1: the a-priori "
            "energy bound is not covered; solving anyway",
            RuntimeWarning,
            stacklevel=2,
        )
    # Each sample's stencil is its one transform: it serves the next step
    # and gives the sample's l4.  The spectral series are taken after the march.
    l4s = []

    def operator(n: int, m: SpectralField) -> Callable[[SpectralField], SpectralField]:
        stencil = StateStencil(m, params)
        l4s.append(stencil.l4)
        return stencil.apply

    coeffs = np.empty(f.coeffs.shape, dtype=np.complex128)
    sweeps = march(m0, f.coeffs, f.dt, params, operator, coeffs, picard_tol=picard_tol, max_iters=max_iters)
    solution = Trajectory(f.grid, f.t_end, coeffs)
    l4s.append(StateStencil(solution[-1], params).l4)
    l2, v = spectral_norm_series(solution)
    dissipative = None
    if not np.any(f.coeffs):
        # unforced: the energy must not grow from one sample to the next
        l2u = _l2_series(solution)
        dissipative = not np.any(l2u[1:] > l2u[:-1] * (1.0 + 1e-12))
    report = SolveReport(
        times=solution.times,
        l2=l2,
        v=v,
        l4=np.array(l4s),
        f_l2=spectral_norm_series(f)[0],
        f_pairing=inner_product_series(f, solution),
        picard_sweeps=sweeps,
        hypothesis_wellposed=params.wellposed(),
        dissipative=dissipative,
    )
    run = StateRun(params=params, initial=m0, forcing=f, solution=solution, report=report)
    report.energy_equality_residual = energy_equality_residual(run)
    (
        report.energy_bound_K,
        report.energy_bound_margin,
        report.energy_bound_margin_t_pos,
        report.energy_pointwise_margin,
    ) = _energy_estimate(run)
    return run


def energy_equality_residual(run: StateRun) -> float:
    """Worst-over-time defect of the energy balance

        ||m(t)||^2 + 2 mu int ||m||_V^2 + 2 alpha int ||m||^2 + 2 beta int ||m||_4^4
            = ||m0||^2 + 2 int (f, m),

    with left-endpoint rectangle integrals; O(dt) for a converged run.
    """
    r, p = run.report, run.params
    dt = run.dt
    dissip = 2.0 * dt * (p.mu * r.v**2 + p.alpha * r.l2**2 + p.beta * r.l4**4)
    work = 2.0 * dt * r.f_pairing
    # cumulative left-endpoint sums over [0, t_i)
    cum_d = np.concatenate(([0.0], np.cumsum(dissip[:-1])))
    cum_w = np.concatenate(([0.0], np.cumsum(work[:-1])))
    resid = r.l2**2 + cum_d - r.l2[0] ** 2 - cum_w
    return float(np.max(np.abs(resid)))


def _energy_estimate(run: StateRun) -> tuple[float, float, float, float]:
    """(K_T, sup-form margin, its minimum over t > 0 alone, pointwise margin)
    of the a-priori bound; at t = 0 the sup-form margin is 0 by construction.

    The bound with the running supremum on the left,

        sup_{s<=t} ||m(s)||^2 + dissipation integrals  <=  K_t,

    is what the sup-form margin measures.  Summing the supremum with the full
    dissipation history at constant 1 is only attainable when the supremum
    sits at (or near) the current time, i.e. for forced spin-up; a decaying
    transient pays its dissipation out of energy the supremum still counts,
    and already the continuous inequality fails at small t.  The pointwise
    margin uses ||m(t)||^2 in place of the supremum, the form the Gronwall
    argument actually yields for every regime.
    """
    r, p = run.report, run.params
    dt = run.dt
    dissip = 2.0 * dt * (p.mu * r.v**2 + p.alpha * r.l2**2 + p.beta * r.l4**4)
    cum_d = np.concatenate(([0.0], np.cumsum(dissip[:-1])))
    cum_f = np.concatenate(([0.0], np.cumsum(dt * r.f_l2[:-1] ** 2)))
    K = (r.l2[0] ** 2 + cum_f) * np.exp(r.times)
    sup_margin = K - (np.maximum.accumulate(r.l2**2) + cum_d)
    pw_margin = float(np.min(K - (r.l2**2 + cum_d)))
    return float(K[-1]), float(np.min(sup_margin)), float(np.min(sup_margin[1:])), pw_margin


class DifferenceSolve(NamedTuple):
    trajectory: Trajectory
    defect: float


def _require_shared_setup(run1: StateRun, run2: StateRun) -> None:
    if run1.grid != run2.grid:
        raise ValueError("runs live on different grids")
    check_aligned(run1.solution, run2.solution)
    d0 = _l2(run1.initial - run2.initial)
    scale = max(_l2(run1.initial), _l2(run2.initial), 1.0)
    if d0 > 1e-12 * scale:
        raise ValueError("runs must share the initial condition")
    if run1.params != run2.params:
        raise ValueError("runs must share operator parameters")


def solve_difference(
    run1: StateRun,
    run2: StateRun,
    *,
    picard_tol: float = 1e-11,
    max_iters: int = 200,
) -> DifferenceSolve:
    """Integrate the linear difference system for v ~ m1 - m2.

    Per slab n the full frozen operator (convection around (m1_n, m2_n) plus
    the symmetric Forchheimer coupling) is treated implicitly; the returned
    defect max_t ||v - (m1 - m2)||_2 measures the O(dt) consistency error.
    """
    _require_shared_setup(run1, run2)
    params, grid = run1.params, run1.grid
    m1, m2 = run1.solution, run2.solution
    g = run1.forcing - run2.forcing
    coeffs = np.zeros(m1.coeffs.shape, dtype=np.complex128)
    march(
        SpectralField(grid, coeffs[0]), g.coeffs, run1.dt, params,
        lambda n, _v: PairStencil(m1[n], m2[n], params).apply, coeffs,
        picard_tol=picard_tol, max_iters=max_iters,
    )
    v = Trajectory(grid, m1.t_end, coeffs)
    defect = max([0.0] + _l2_series(v - (m1 - m2))[1:].tolist())
    return DifferenceSolve(v, defect)


def lipschitz_check(run1: StateRun, run2: StateRun, kappa: float) -> float:
    """Margin of the two-forcings stability estimate

        sup_t ||v||^2 + 2 mu (1-kappa) int ||v||_V^2 + 2 alpha int ||v||^2
          + 1/2 (beta - 1/(2 mu kappa)) int ||v||_4^4
            <=  e^T int ||f1 - f2||^2,        v = m1 - m2,

    holding under 2*beta*mu > 1/kappa.  Raises HypothesisViolatedError for an
    inadmissible kappa.
    """
    _require_shared_setup(run1, run2)
    params = run1.params
    if not params.hypothesis_holds(kappa):
        raise HypothesisViolatedError(
            f"kappa={kappa:g} needs 0 < kappa < 1 and 2*beta*mu > 1/kappa "
            f"(2*beta*mu = {2 * params.beta * params.mu:g})"
        )
    dt, nt, T = run1.dt, run1.solution.nt, run1.solution.t_end
    nm = norm_series(run1.solution - run2.solution)
    df = run1.forcing - run2.forcing
    df2 = inner_product_series(df, df).tolist()
    sup_v2 = 0.0
    int_v_v = int_v_l2 = int_v_l4 = int_df = 0.0
    for n, (l2, v, l4) in enumerate(zip(nm.l2.tolist(), nm.v.tolist(), nm.l4.tolist())):
        sup_v2 = max(sup_v2, l2**2)
        if n < nt:
            int_v_v += dt * v**2
            int_v_l2 += dt * l2**2
            int_v_l4 += dt * l4**4
            int_df += dt * df2[n]
    coeff4 = params.beta - 1.0 / (2.0 * params.mu * kappa)
    lhs = (
        sup_v2
        + 2.0 * params.mu * (1.0 - kappa) * int_v_v
        + 2.0 * params.alpha * int_v_l2
        + 0.5 * coeff4 * int_v_l4
    )
    margin = math.exp(T) * int_df - lhs
    run1.report.lipschitz_margin = margin
    run2.report.lipschitz_margin = margin
    return margin
