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
or its transpose) and keep their own bookkeeping.  march, picard_solve and the
stencils work on raw coefficient arrays; fields appear only at the solvers'
inputs and results and at the one-step wrappers step_state and step_adjoint.

Every time integral is the one rectangle rule, fields.running_integral, the
bookkeeping consistent with the scheme's first-order accuracy.  The estimate
checks sum at left endpoints; right-endpoint sums are the cost's tracking
term, the duality residual's h pairings and the IOC residual's z term,
whose t = 0 samples the control does not reach.
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
    l2_series,
    norm_series,
    parseval_norm_sq,
    parseval_pairing,
    running_integral,
    spectral_norm_series,
    spectral_norms,
    time_l2_inner,
)
from .operators import OperatorParams, PairStencil, StateStencil

CFL_WARN = 2.0
# The default Picard control of every solve: increment tolerance relative to
# the right-hand side, and the sweep budget per step.
PICARD_TOL = 1e-11
PICARD_MAX_ITERS = 200


class NonConvergenceError(RuntimeError):
    """Picard iteration failed to reach tolerance; dt is likely too large."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class HypothesisViolatedError(ValueError):
    """The coefficient hypothesis 2*beta*mu > 1/kappa fails for the given kappa."""


def _dinv(grid: Grid, params: OperatorParams, dt: float) -> np.ndarray:
    return 1.0 / (1.0 + dt * (params.alpha + params.mu * grid.k_sq))


def picard_solve(
    grid: Grid,
    dinv: np.ndarray,
    rhs: np.ndarray,
    napply: Callable[[np.ndarray], np.ndarray],
    dt: float,
    tol: float,
    max_iters: int,
    step: int,
) -> tuple[np.ndarray, int]:
    """Solve (D + dt N) x = rhs with D diagonal per mode and N linear, and
    return (x, sweeps).

    Fixed-point sweep x <- b - (dt D^{-1}) N x from x = b = D^{-1} rhs, both
    factors formed once; converged when the increment drops below tol *
    ||rhs||_2 (absolute for a zero right-hand side), norms by parseval_norm_sq.
    rhs, the iterates, napply's argument and value are (d,) + grid.shape arrays.
    """
    scale = max(math.sqrt(parseval_norm_sq(grid, rhs)), 1e-300)
    x = b = dinv * rhs
    dt_dinv = dt * dinv
    for it in range(max_iters):
        x_new = b - dt_dinv * napply(x)
        delta = math.sqrt(parseval_norm_sq(grid, x_new - x))
        x = x_new
        if delta <= tol * scale:
            return x, it + 1
    raise NonConvergenceError(
        f"Picard iteration did not reach {tol:g} within {max_iters} sweeps at step {step}; reduce dt or amplitudes",
        step,
    )


def march(
    grid: Grid,
    source: np.ndarray,
    dt: float,
    params: OperatorParams,
    operator: Callable[[int, np.ndarray], Callable[[np.ndarray], np.ndarray]],
    out: np.ndarray,
    *,
    picard_tol: float,
    max_iters: int,
) -> np.ndarray:
    """Take len(out) - 1 linearly-implicit steps from out[0], which the caller
    writes, and return each step's Picard sweeps.  Step n solves

        (I + dt (mu A + alpha) + dt N_n) x_{n+1} = x_n + dt source[n],

    with N_n = operator(n, out[n]), the operator frozen at step n, and writes
    x_{n+1} to out[n + 1].  Every x_n and source[n] is a raw coefficient array.
    """
    dinv = _dinv(grid, params, dt)
    sweeps = np.zeros(len(out) - 1, dtype=int)
    for n in range(len(sweeps)):
        x = out[n]
        out[n + 1], sweeps[n] = picard_solve(
            grid, dinv, x + dt * source[n], operator(n, x), dt, picard_tol, max_iters, step=n
        )
    return sweeps


def step_state(
    m_n: SpectralField,
    f_n: SpectralField,
    dt: float,
    params: OperatorParams,
    *,
    picard_tol: float = PICARD_TOL,
    max_iters: int = PICARD_MAX_ITERS,
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
    grid = m_n.grid
    out = np.empty((2,) + m_n.coeffs.shape, dtype=np.complex128)
    out[0] = m_n.coeffs
    march(
        grid, f_n.coeffs[None], dt, params, lambda n, x: StateStencil(grid, x, params).apply, out,
        picard_tol=picard_tol, max_iters=max_iters,
    )
    return SpectralField(grid, out[1])


@dataclass(frozen=True)
class SolveReport:
    """Per-run diagnostics: sampled norms, the Picard sweeps of every step
    and the residuals/margins of the energy identities the trajectory is
    supposed to satisfy."""

    l2: np.ndarray
    v: np.ndarray
    l4: np.ndarray
    picard_sweeps: np.ndarray
    energy_equality_residual: float
    energy_bound_margin_t_pos: float
    energy_bound_K: float


@dataclass(frozen=True)
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
    picard_tol: float = PICARD_TOL,
    max_iters: int = PICARD_MAX_ITERS,
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
    grid, l4s = f.grid, []

    def operator(n: int, m: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        stencil = StateStencil(grid, m, params)
        l4s.append(stencil.l4)
        return stencil.apply

    coeffs = np.empty(f.coeffs.shape, dtype=np.complex128)
    coeffs[0] = m0.coeffs
    sweeps = march(grid, f.coeffs, f.dt, params, operator, coeffs, picard_tol=picard_tol, max_iters=max_iters)
    l4s.append(StateStencil(grid, coeffs[-1], params).l4)
    solution = Trajectory(grid, f.t_end, coeffs)
    l2, v = spectral_norm_series(solution)
    l4 = np.array(l4s)
    f_l2 = l2_series(f)
    f_pairing = inner_product_series(f, solution)
    residual, K, margin_t_pos = _energy(params, solution, l2, v, l4, f_l2, f_pairing)
    report = SolveReport(
        l2=l2,
        v=v,
        l4=l4,
        picard_sweeps=sweeps,
        energy_equality_residual=residual,
        energy_bound_margin_t_pos=margin_t_pos,
        energy_bound_K=K,
    )
    return StateRun(params=params, initial=m0, forcing=f, solution=solution, report=report)


def _energy(
    p: OperatorParams,
    m: Trajectory,
    l2: np.ndarray,
    v: np.ndarray,
    l4: np.ndarray,
    f_l2: np.ndarray,
    f_pairing: np.ndarray,
) -> tuple[float, float, float]:
    """(energy equality residual, K_T, the sup-form margin's minimum over
    t > 0) of the solution m from its sampled norms, all with left-endpoint
    rectangle integrals over [0, t_i).

    The residual is the worst-over-time defect of the energy balance

        ||m(t)||^2 + 2 mu int ||m||_V^2 + 2 alpha int ||m||^2 + 2 beta int ||m||_4^4
            = ||m0||^2 + 2 int (f, m),

    O(dt) for a converged run.

    The margin is the a-priori bound's over t > 0; at t = 0 it is 0 by
    construction.  The bound with the running supremum on the left,

        sup_{s<=t} ||m(s)||^2 + dissipation integrals  <=  K_t,

    is what the sup-form margin measures.  Summing the supremum with the full
    dissipation history at constant 1 is only attainable when the supremum
    sits at (or near) the current time, i.e. for forced spin-up; a decaying
    transient pays its dissipation out of energy the supremum still counts,
    and already the continuous inequality fails at small t.
    """
    dt = m.dt
    dissip = p.mu * v**2 + p.alpha * l2**2 + p.beta * l4**4
    cum_d = running_integral(dissip[:-1], 2.0 * dt)
    cum_w = running_integral(f_pairing[:-1], 2.0 * dt)
    residual = float(np.max(np.abs(l2**2 + cum_d - l2[0] ** 2 - cum_w)))
    K = (l2[0] ** 2 + running_integral(f_l2[:-1] ** 2, dt)) * np.exp(m.times)
    sup_margin = K - (np.maximum.accumulate(l2**2) + cum_d)
    return residual, float(K[-1]), float(np.min(sup_margin[1:]))


class DifferenceSolve(NamedTuple):
    trajectory: Trajectory
    defect: float


def _require_shared_setup(run1: StateRun, run2: StateRun) -> None:
    if run1.grid != run2.grid:
        raise ValueError("runs live on different grids")
    check_aligned(run1.solution, run2.solution)
    c1, c2 = run1.initial.coeffs, run2.initial.coeffs
    rows = np.stack((c1 - c2, c1, c2))
    d0, l2_1, l2_2 = np.sqrt(parseval_pairing(run1.grid, rows, rows)).tolist()
    if d0 > 1e-12 * max(l2_1, l2_2, 1.0):
        raise ValueError("runs must share the initial condition")
    if run1.params != run2.params:
        raise ValueError("runs must share operator parameters")


def solve_difference(
    run1: StateRun,
    run2: StateRun,
    *,
    picard_tol: float = PICARD_TOL,
    max_iters: int = PICARD_MAX_ITERS,
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
        grid, g.coeffs, run1.dt, params, lambda n, _v: PairStencil(grid, m1.coeffs[n], m2.coeffs[n], params).apply,
        coeffs, picard_tol=picard_tol, max_iters=max_iters,
    )
    v = Trajectory(grid, m1.t_end, coeffs)
    defect = max([0.0] + l2_series(v - (m1 - m2))[1:].tolist())
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
    nm = norm_series(run1.solution - run2.solution)
    df = run1.forcing - run2.forcing
    int_v_v, int_v_l2, int_v_l4 = (
        float(running_integral(x[:-1], run1.dt)[-1]) for x in (nm.v**2, nm.l2**2, nm.l4**4)
    )
    coeff4 = params.beta - 1.0 / (2.0 * params.mu * kappa)
    lhs = (
        float(np.max(nm.l2**2))
        + 2.0 * params.mu * (1.0 - kappa) * int_v_v
        + 2.0 * params.alpha * int_v_l2
        + 0.5 * coeff4 * int_v_l4
    )
    return math.exp(run1.solution.t_end) * time_l2_inner(df, df) - lhs
