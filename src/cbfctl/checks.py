"""The check registry: the nine certified checks, each defined once.

A check is a function ``check(profile, ledger)``: it runs at the sizes its
profile fixes and records its rows into a MarginLedger.  A Profile is plain
data (grids, counts, seeds, time-step and delta/rho ladders, input norms and
tolerances), so ``cbfctl verify`` (``verify_profile``, built from the config)
and the acceptance gate (tests/test_acceptance.py, its own profile) run the
same code.  No check knows which profile it serves.

Random inputs: a ``Draw`` names the seed of one family of instances.  With a
count, each instance draws from its own child generator of the seed, so its
numbers do not depend on how many instances came before it.  A time-step
ladder is always (nt, 2 nt, 4 nt, ...) from the Draw's nt; the delta > 0
duality ladder starts at no fewer than DUALITY_LADDER_MIN_NT steps, the oracle
experiment's reference ladder at no fewer than ORACLE_LADDER_MIN_NT.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .adjoint_solver import (
    AdjointRun, DualityReport, delta_sweep, derivative_bound_check, duality_residual, solve_adjoint, solve_adjoint_noc,
)
from .fields import (
    Grid, SpectralField, Trajectory, parseval_pairing, quadrature, random_field, random_forcing, random_trajectory,
    spectral_norms, speed_squared, time_l2_inner, time_l2_norm, zero_field,
)
from .harness import DenseSystem, ProblemConfig, build_tracking_problem
from .operators import PairStencil, StateStencil, cubic_coeffs, gap_of_values, trilinear_b
from .optimizer import (
    IOCPoint, OptimizeResult, cost, gradient, gradient_scale, ioc_ladder, make_probe_bank, optimize,
    vi_residual, vi_scale,
)
from .state_solver import DifferenceSolve, StateRun, lipschitz_check, solve_difference, solve_state

RHO_LADDER = (0.5, 0.25, 0.1, 0.01)
ORDER_FLOOR = 0.9
# The delta > 0 duality residual is pre-asymptotic below 32 steps: on (8, 16, 32)
# at 2D n=8, t_end=0.5 its order reads 0.80, on (32, 64, 128) 0.95.
DUALITY_LADDER_MIN_NT = 32
# The oracle experiment's state-reference error is pre-asymptotic below 4 steps:
# at seed 7, t_end=0.5 its order reads 0.841 on (2, 4, 8) at 2D n=4 and 0.563
# on (1, 2, 4) at n=6.
ORACLE_LADDER_MIN_NT = 4


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

    def order(self, name: str, value: float) -> bool:
        """Pass when the fitted convergence order is at least ORDER_FLOOR."""
        ok = bool(value >= ORDER_FLOOR) and math.isfinite(value)
        self.records[name] = {"kind": "order", "value": value, "tolerance": ORDER_FLOOR, "pass": ok}
        return ok

    def flag(self, name: str, ok: bool, value=None) -> bool:
        self.records[name] = {"kind": "flag", "value": value, "pass": bool(ok)}
        return bool(ok)

    def note(self, name: str, value) -> None:
        """Record a value with no bound; it fails only as a non-finite float."""
        ok = not isinstance(value, float) or math.isfinite(value)
        self.records[name] = {"kind": "note", "value": value, "pass": ok}

    @property
    def all_pass(self) -> bool:
        return all(rec["pass"] for rec in self.records.values())


def observed_order(steps: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares convergence order of errors ~ C * step^p."""
    xs = np.log(np.asarray(steps, dtype=float))
    ys = np.log(np.maximum(np.asarray(errors, dtype=float), 1e-300))
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def decreasing(values: Sequence[float]) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def delta_ladder_converges(ledger: MarginLedger, sweep: Sequence[tuple[float, float]]) -> None:
    """Flag the (delta, ||q^delta - q^0||) ladder: the distances strictly
    decreasing to a positive value."""
    dists = [x for _, x in sweep]
    ledger.flag("delta_ladder_monotone", decreasing(dists) and dists[-1] > 0, dists)


def ladder(nt: int, rungs: int) -> tuple[int, ...]:
    """The time-step ladder (nt, 2 nt, 4 nt, ...) of every order fit."""
    return tuple(nt * 2**i for i in range(rungs))


def _spawn(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(count)]


class Samples(NamedTuple):
    """Random fields for the pointwise identities (checks 1 and 2)."""

    cases: tuple[tuple[int, int, int, int], ...]  # (d, n, count, seed)
    l2: tuple[float, float]  # each field's L2 norm, uniform on [lo, hi]; lo == hi draws nothing
    spawn: bool  # a child generator per sample, else one generator per case
    identity_share: float = 1.0  # leading share of each case's samples in check 2's identity


class Draw(NamedTuple):
    """Grid, time axis, input norms and seed of one family of random instances."""

    d: int
    n: int
    t_end: float
    nt: int
    m0_l2: float  # 0.0 starts from rest and draws nothing
    f_l2: float
    seed: int
    count: int = 1

    def grid(self) -> Grid:
        return Grid(d=self.d, n=self.n)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def rngs(self) -> list[np.random.Generator]:
        return _spawn(self.seed, self.count)


class Gradient(NamedTuple):
    """Central finite differences against the adjoint gradient (check 7).

    The setup's m0_l2 is the norm of m0, its f_l2 that of target and control.
    """

    setup: Draw
    lam: float
    directions: int
    direction_seed: int | None  # None: the directions continue the setup's generator
    tolerance: float
    table_nts: tuple[int, ...] = ()  # the (dt, eps) refinement table, one row per nt
    table_eps: tuple[float, ...] = ()
    table_seed: int = 0


class Optimality(NamedTuple):
    """A manufactured tracking problem, optimized and certified (check 8)."""

    config: ProblemConfig  # the problem (build_tracking_problem), Picard control and tol_vi
    max_iters: int
    reduction: float  # J0 / min J over the first `window` iterations must reach this
    window: int
    probes: int
    grad_probe: bool  # the bank leads with the projected descent probe
    rhos: tuple[float, ...]


class Oracle(NamedTuple):
    """Dense Galerkin systems against the spectral solvers (check 9)."""

    ns: tuple[int, ...]  # 2D grids, one dense system each; the reference runs on the first
    dt: float  # step of the transposed slab matrices
    probes: int  # random fields per grid, dense against spectral step; 0 skips the row
    seed: int  # one generator for every draw of the check
    ref_t_end: float = 0.0
    ref_nts: tuple[int, ...] = ()  # the reference-order ladder; () skips the row
    ref_l2: tuple[float, float] = (0.0, 0.0)  # norms of m0 and of the forcing


class Profile(NamedTuple):
    config: ProblemConfig  # operator parameters, kappa, Picard control, tol_duality
    trilinear: Samples
    forchheimer: Samples
    energy: tuple[Draw, Draw]  # energy-equality order ladder; a-priori bound runs
    lipschitz: tuple[Draw, Draw]  # stability pairs; the rho-ratio instance
    duality: tuple[Draw, Draw]  # delta = 0 instances; the delta > 0 order ladder
    adjoint: tuple[Draw, Draw]  # adjoint energy instances; the delta-ladder instance
    delta_ladder: tuple[float, ...]
    gradient: Gradient
    optimality: Optimality
    oracle: Oracle


def verify_profile(config: ProblemConfig) -> Profile:
    """The sizes ``cbfctl verify`` runs the nine checks at."""
    d, n, t_end, nt, a, s = config.d, config.n, config.t_end, config.nt, config.amplitude, config.seed
    return Profile(
        config=config,
        trilinear=Samples(((2, 12, 120, s + 2), (3, 8, 60, s + 3)), (1.0, 1.0), spawn=True),
        forchheimer=Samples(((d, n, 100, s + 11),), (1.0, 1.0), spawn=True),
        energy=(Draw(d, n, t_end, max(nt // 4, 1), a, a, s), Draw(d, n, t_end, nt, 0.0, a, s + 23, 20)),
        lipschitz=(Draw(d, n, t_end, nt, a, a, s + 31, 20), Draw(d, n, t_end, nt, a, a, s + 37)),
        duality=(Draw(d, n, t_end, nt, a, a, s + 41, 5), Draw(d, n, t_end, nt, a, a, s + 43)),
        # delta acts through the previous backward step's |q|^2: one step starts from q(T) = 0
        adjoint=(Draw(d, n, t_end, nt, a, a, s + 41, 5), Draw(d, n, t_end, max(nt, 2), a, a, s + 47)),
        delta_ladder=(1e-1, 1e-2, 1e-3),
        gradient=Gradient(
            Draw(2, 8, 0.25, 512, 0.3 * a, 0.3 * a, s + 53), config.lam, 3, None,
            max(1e-4, 2.0 * (0.25 / 512) + 1e-4**2),
        ),
        # lambda small enough that the penalty floor leaves a 5x descent corridor
        optimality=Optimality(
            replace(config, n=8, nt=32, t_end=0.5, lam=1e-3, amplitude=1.0), 250, 5.0, 250, 8, False, (0.25, 0.1)
        ),
        oracle=Oracle((4,), 0.05, 0, s),
    )


def _field(s: Samples, grid: Grid, rng: np.random.Generator) -> SpectralField:
    lo, hi = s.l2
    return random_field(grid, rng, l2=lo if lo == hi else rng.uniform(lo, hi))


def _samples(s: Samples) -> Iterator[tuple[Grid, int, int, np.random.Generator]]:
    """(grid, index, count, generator) for every sample of every case."""
    for d, n, count, seed in s.cases:
        rngs = _spawn(seed, count) if s.spawn else [np.random.default_rng(seed)] * count
        for i, rng in enumerate(rngs):
            yield Grid(d=d, n=n), i, count, rng


def _m0(draw: Draw, rng: np.random.Generator) -> SpectralField:
    return random_field(draw.grid(), rng, l2=draw.m0_l2) if draw.m0_l2 > 0 else zero_field(draw.grid())


def _inputs(draw: Draw, rng: np.random.Generator) -> tuple[SpectralField, Trajectory]:
    return _m0(draw, rng), random_trajectory(draw.grid(), draw.t_end, draw.nt, rng, l2=draw.f_l2)


def _solve(c: ProblemConfig, m0: SpectralField, f: Trajectory) -> StateRun:
    return solve_state(m0, f, c.operator_params(), **c.picard)


def pair_instance(c: ProblemConfig, draw: Draw, rng: np.random.Generator) -> tuple[StateRun, StateRun, Trajectory]:
    """Forced state pair sharing m0, the second forcing perturbed at half the
    norm, and an adjoint source h; solved with c's operator and solver."""
    m0, f1 = _inputs(draw, rng)
    f2 = f1 + random_trajectory(draw.grid(), draw.t_end, draw.nt, rng, l2=0.5 * draw.f_l2)
    h = random_trajectory(draw.grid(), draw.t_end, draw.nt, rng, l2=draw.f_l2)
    return _solve(c, m0, f1), _solve(c, m0, f2), h


# ----------------------------------------------------------------------
# the certificate solves, shared by the checks and the experiments
# ----------------------------------------------------------------------

def pair_adjoint(c: ProblemConfig, run1: StateRun, run2: StateRun, h: Trajectory, delta: float) -> AdjointRun:
    """The adjoint of a state pair at c's kappa and Picard control, with the
    runs' a-priori K."""
    return solve_adjoint(
        (run1.solution, run2.solution), h, delta, c.operator_params(), kappa=c.kappa_effective, **c.picard,
        state_K=(run1.report.energy_bound_K, run2.report.energy_bound_K),
    )


def pair_duality(
    c: ProblemConfig, run1: StateRun, run2: StateRun, h: Trajectory, delta: float
) -> tuple[DifferenceSolve, AdjointRun, DualityReport]:
    """The difference solve, the adjoint and their duality residual of a state pair."""
    diff = solve_difference(run1, run2, **c.picard)
    adj = pair_adjoint(c, run1, run2, h, delta)
    return diff, adj, duality_residual(adj, run1, run2, difference=diff.trajectory)


def pair_sweep(
    c: ProblemConfig, run1: StateRun, run2: StateRun, h: Trajectory, deltas: Sequence[float]
) -> tuple[AdjointRun, list[tuple[float, float]]]:
    """The delta = 0 adjoint of a state pair and ||q^delta - q^0|| over the deltas."""
    return delta_sweep(
        (run1.solution, run2.solution), h, deltas, c.operator_params(), kappa=c.kappa_effective, **c.picard
    )


def dense_agreement(
    system: DenseSystem, m1: np.ndarray, m2: np.ndarray, dt: float, fields: Sequence[np.ndarray]
) -> tuple[float, float]:
    """(transpose defect, operator gap) of one slab, all coefficient arrays: the
    largest entry of M_adj - M_diff^T, and the worst relative gap between the
    dense difference-step matrix and the spectral step applied to each field."""
    params = system.params
    stencil, worst = PairStencil(system.grid, m1, m2, params), 0.0
    M_diff = system.step_matrix(stencil.apply, dt)
    transpose = float(np.max(np.abs(system.step_matrix(stencil.apply_transpose, dt) - M_diff.T)))
    for c in fields:
        x = system.coords(c)
        dense = M_diff @ x
        step = params.mu * (system.grid.k_sq * c) + params.alpha * c + stencil.apply(c)
        spectral = x + dt * system.coords(step)
        worst = max(worst, _max_rel(spectral, dense))
    return transpose, worst


def _max_rel(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-30)


# ----------------------------------------------------------------------
# the nine checks
# ----------------------------------------------------------------------

def trilinear(p: Profile, ledger: MarginLedger) -> None:
    """1. b(p, q, q) = 0 and b(p, q, r) = -b(p, r, q) on random triples."""
    zero = alt = 0.0
    for grid, _, _, rng in _samples(p.trilinear):
        a, b, c = (_field(p.trilinear, grid, rng) for _ in range(3))
        na, nb, nc = spectral_norms(a)[1], spectral_norms(b)[1], spectral_norms(c)[1]
        zero = max(zero, abs(trilinear_b(a, b, b)) / max(na * nb**2, 1e-30))
        alt = max(alt, abs(trilinear_b(a, b, c) + trilinear_b(a, c, b)) / max(na * nb * nc, 1e-30))
    ledger.residual("trilinear_bqq_rel", zero, 1e-12)
    ledger.residual("trilinear_alternation_rel", alt, 1e-12)


def forchheimer(p: Profile, ledger: MarginLedger) -> None:
    """2. <C(p), p> = ||p||_4^4 and monotonicity of C on random pairs (a, b), one transform per sample; on the
    identity share, with N(m) = StateStencil(m).apply(m), the pair operator L as secant and tangent of N."""
    s, params = p.forchheimer, p.config.operator_params()
    identity, secant, tangent, gap = 0.0, 0.0, 0.0, math.inf
    for grid, i, count, rng in _samples(s):
        a, b = _field(s, grid, rng).coeffs, _field(s, grid, rng).coeffs
        av, bv = grid.to_physical(a), grid.to_physical(b)
        if i < s.identity_share * count:
            pairing = float(parseval_pairing(grid, cubic_coeffs(grid, av), a))
            l4_4 = float(quadrature(grid, speed_squared(grid, av) ** 2, grid.d))
            identity = max(identity, abs(pairing - l4_4) / max(abs(pairing), 1e-30))
            n = [StateStencil(grid, m, params).apply(m) for m in (a, b, a + b, a - b)]
            secant = max(secant, _max_rel(PairStencil(grid, a, b, params).apply(a - b), n[0] - n[1]))
            tangent_ref = 0.5 * (n[2] - n[3]) - params.beta * cubic_coeffs(grid, bv)
            tangent = max(tangent, _max_rel(PairStencil(grid, a, a, params).apply(b), tangent_ref))
        gap = min(gap, gap_of_values(grid, av, bv))
    ledger.residual("forchheimer_identity_rel", identity, 1e-10)
    ledger.margin("monotonicity_gap_min", gap, 1e-10)
    ledger.residual("pair_secant_rel", secant, 1e-12)
    ledger.residual("pair_tangent_rel", tangent, 1e-12)


def energy(p: Profile, ledger: MarginLedger) -> None:
    """3. O(dt) energy equality; the a-priori bound on forced runs, its
    minimum over t > 0 (at t = 0 both sides are ||m0||^2)."""
    fit, runs = p.energy
    grid, rng = fit.grid(), fit.rng()
    m0 = _m0(fit, rng)
    f_fn = random_forcing(grid, rng, l2=fit.f_l2, t_scale=fit.t_end)
    residuals, dts = [], []
    for nt in ladder(fit.nt, 4):
        f = Trajectory(grid, fit.t_end, f_fn(np.linspace(0.0, fit.t_end, nt + 1)))
        residuals.append(_solve(p.config, m0, f).report.energy_equality_residual)
        dts.append(fit.t_end / nt)
    ledger.order("energy_equality_order", observed_order(dts, residuals))

    reports = [_solve(p.config, *_inputs(runs, rng)).report for rng in runs.rngs()]
    ledger.margin(
        "energy_bound_margin_rel_min_t_pos",
        min(r.energy_bound_margin_t_pos / max(r.energy_bound_K, 1e-30) for r in reports), 1e-8,
    )


def lipschitz(p: Profile, ledger: MarginLedger) -> None:
    """4. The two-forcings stability margin, and its quadratic rho scaling."""
    pairs, single = p.lipschitz
    kappa = p.config.kappa_effective
    worst = math.inf
    for rng in pairs.rngs():
        m0, f1 = _inputs(pairs, rng)
        f2 = f1 + random_trajectory(pairs.grid(), pairs.t_end, pairs.nt, rng, l2=0.5 * pairs.f_l2)
        margin = lipschitz_check(_solve(p.config, m0, f1), _solve(p.config, m0, f2), kappa)
        worst = min(worst, margin / (math.exp(pairs.t_end) * max(time_l2_norm(f1 - f2) ** 2, 1e-30)))
    ledger.margin("lipschitz_margin_rel_min", worst, 1e-8)

    rng = single.rng()
    m0, f1 = _inputs(single, rng)
    direction = random_trajectory(single.grid(), single.t_end, single.nt, rng, l2=single.f_l2)
    run1 = _solve(p.config, m0, f1)
    margins = [lipschitz_check(run1, _solve(p.config, m0, f1 + rho * direction), kappa) for rho in (2e-2, 1e-2)]
    ratio = margins[0] / margins[1]
    ledger.flag("lipschitz_rho_ratio_4", abs(ratio - 4.0) <= 0.4, ratio)


def duality(p: Profile, ledger: MarginLedger) -> None:
    """5. Exact discrete duality at delta = 0; an O(dt) residual, fitted over
    (nt, 2 nt, 4 nt) from nt = max(the Draw's nt, DUALITY_LADDER_MIN_NT), at
    delta = 0.1 (the residual is linear in delta, so one delta > 0 certifies
    the order)."""
    instances, fit = p.duality
    worst = 0.0
    for rng in instances.rngs():
        _, _, dual = pair_duality(p.config, *pair_instance(p.config, instances, rng), 0.0)
        worst = max(worst, dual.delta_form / dual.scale)
    ledger.residual("duality_delta0_rel_max", worst, p.config.tol_duality)

    grid, rng = fit.grid(), fit.rng()
    m0 = _m0(fit, rng)
    fns = [random_forcing(grid, rng, l2=fit.f_l2, t_scale=fit.t_end) for _ in range(3)]
    residuals = []
    nts = ladder(max(fit.nt, DUALITY_LADDER_MIN_NT), 3)
    for nt in nts:
        f1, f2, h = (Trajectory(grid, fit.t_end, fn(np.linspace(0.0, fit.t_end, nt + 1))) for fn in fns)
        _, _, dual = pair_duality(p.config, _solve(p.config, m0, f1), _solve(p.config, m0, f2), h, 0.1)
        residuals.append(dual.delta_form)
    ledger.order("duality_delta_0.1_order", observed_order([fit.t_end / nt for nt in nts], residuals))


def adjoint_bounds(p: Profile, ledger: MarginLedger) -> None:
    """6. The adjoint energy bound and the dq/dt dual-norm bound at
    delta = 0; ||q^delta - q^0|| strictly decreasing to a positive value over
    the delta ladder."""
    (instances, single), c = p.adjoint, p.config
    worst = worst_deriv = math.inf
    for rng in instances.rngs():
        adj = pair_adjoint(c, *pair_instance(c, instances, rng), 0.0)
        rep, deriv = adj.report, derivative_bound_check(adj)
        worst = min(worst, rep.energy_margin / max(rep.energy_K, 1e-30))
        worst_deriv = min(worst_deriv, deriv.margin / max(deriv.bound, 1e-30))
    ledger.margin("adjoint_energy_margin_rel_min", worst, 1e-8)
    ledger.margin("derivative_bound_margin_rel_min", worst_deriv, 1e-8)

    _, sweep = pair_sweep(c, *pair_instance(c, single, single.rng()), p.delta_ladder)
    delta_ladder_converges(ledger, sweep)


def _gradient_setup(p: Profile, nt: int):
    """(m0, target, control, adjoint gradient, generator) at nt steps."""
    s = p.gradient.setup
    grid, rng = s.grid(), s.rng()
    m0 = _m0(s, rng)
    target, f = (random_trajectory(grid, s.t_end, nt, rng, l2=s.f_l2) for _ in range(2))
    adj = solve_adjoint_noc(_solve(p.config, m0, f), target, kappa=p.config.kappa_effective, **p.config.picard)
    return m0, target, f, gradient(adj.solution, f, p.gradient.lam), rng


def _fd_error(p: Profile, m0, target, f, grad, direction, eps: float) -> float:
    def J(fe: Trajectory) -> float:
        return cost(fe, _solve(p.config, m0, fe).solution, target, p.gradient.lam)

    fd = (J(f + eps * direction) - J(f - eps * direction)) / (2.0 * eps)
    pred = time_l2_inner(grad, direction)
    return abs(fd - pred) / max(abs(fd), 1e-30)


def gradient_check(p: Profile, ledger: MarginLedger) -> None:
    """7. Central finite differences against the adjoint gradient, and the
    (dt, eps) refinement table of the same error."""
    s = p.gradient
    grid, t_end = s.setup.grid(), s.setup.t_end
    m0, target, f, grad, rng = _gradient_setup(p, s.setup.nt)
    if s.direction_seed is not None:
        rng = np.random.default_rng(s.direction_seed)
    worst = 0.0
    for _ in range(s.directions):
        direction = random_trajectory(grid, t_end, s.setup.nt, rng, l2=1.0)
        worst = max(worst, _fd_error(p, m0, target, f, grad, direction, 1e-4))
    ledger.residual("gradient_fd_rel_max", worst, s.tolerance)

    table = []
    for nt in s.table_nts:
        m0n, target_n, f_n, grad_n, _ = _gradient_setup(p, nt)
        direction = random_trajectory(grid, t_end, nt, np.random.default_rng(s.table_seed), l2=1.0)
        table.append([nt, [_fd_error(p, m0n, target_n, f_n, grad_n, direction, eps) for eps in s.table_eps]])
    ledger.note("gradient_fd_table", table)


class Optimum(NamedTuple):
    f_sharp: Trajectory  # the hidden control that generated the target
    result: OptimizeResult
    J0: float
    J_window: float  # the least cost over the first `window` iterations
    vi: float
    scale: float  # vi_scale: the reference magnitude of the VI and IOC margins
    points: list[IOCPoint]


def optimize_certificate(config: ProblemConfig) -> Optimality:
    """What the optimize experiment certifies for the config's problem."""
    return Optimality(config, 300, 10.0, 100, 32, True, RHO_LADDER)


def certify_optimum(s: Optimality) -> Optimum:
    """Optimize the manufactured tracking problem from f = 0, then evaluate
    the VI residual over a probe bank and the IOC rho ladder at the result."""
    config = s.config
    rng = config.rng()
    problem, f_sharp, _ = build_tracking_problem(config, rng)
    f0 = Trajectory.zero(problem.m0.grid, config.t_end, config.nt)
    result = optimize(problem, f0, max_iters=s.max_iters, tol=0.5 * config.tol_vi * gradient_scale(problem))
    f, q = result.control, result.adjoint.solution
    grad = gradient(q, f, problem.lam) if s.grad_probe else None
    probes = make_probe_bank(f, config.radius, s.probes, rng, grad=grad, step=1.0 / problem.lam)
    vi = vi_residual(f, q, problem.lam, probes)
    scale = vi_scale(f, probes, problem)
    # the IOC probe is the bank's first random probe
    points = ioc_ladder(probes[int(s.grad_probe)], s.rhos, problem, base_run=result.state, base_adjoint=result.adjoint)
    rows = result.trace.rows
    J_window = min(r.cost for r in rows[: s.window + 1])
    return Optimum(f_sharp, result, rows[0].cost, J_window, vi, scale, points)


def optimality(p: Profile, ledger: MarginLedger) -> None:
    """8. Cost reduction, the VI and IOC certificates at the optimizer's
    result, and q_rho -> q monotonically."""
    s = p.optimality
    opt = certify_optimum(s)
    tol = s.config.tol_vi
    ioc_min = min(pt.residual for pt in opt.points)
    ledger.flag(
        f"optimize_cost_reduced_{s.reduction:g}x_within_{s.window}",
        opt.J_window <= opt.J0 / s.reduction,
        {"J0": opt.J0, "J_window": opt.J_window},
    )
    ledger.margin("vi_residual_rel", opt.vi / opt.scale, tol)
    ledger.margin("ioc_residual_rel_min", ioc_min / opt.scale, tol)
    dists = [pt.q_distance for pt in opt.points]
    ledger.flag("ioc_q_distance_decreasing", decreasing(dists), dists)
    ledger.note("optimality_unscaled", {"vi": opt.vi, "scale": opt.scale, "ioc_min": ioc_min})


def reference_errors(
    system: DenseSystem,
    m0: SpectralField,
    f_fn: Callable[[Sequence[float]], np.ndarray],
    t_end: float,
    nts: Sequence[int],
    **picard,
) -> tuple[list[float], list[float]]:
    """(dt, sup_n ||m_n - m_ref(t_n)||) for every nt of the ladder, against
    one dense fine-step reference sampled at the finest nt, which every nt
    must divide."""
    if any(nts[-1] % nt for nt in nts):
        raise ValueError(f"reference_errors: every step count of {tuple(nts)} must divide the finest")
    ref = system.state_reference(m0.coeffs, f_fn, t_end, nts[-1], refine=64)
    dts, errors = [], []
    for nt in nts:
        f = Trajectory(system.grid, t_end, f_fn(np.linspace(0.0, t_end, nt + 1)))
        run = solve_state(m0, f, system.params, **picard)
        gaps = run.solution.coeffs - ref.coeffs[:: nts[-1] // nt]
        errors.append(float(np.max(np.sqrt(parseval_pairing(system.grid, gaps, gaps)))))
        dts.append(t_end / nt)
    return dts, errors


def oracle(p: Profile, ledger: MarginLedger) -> None:
    """9. Dense Galerkin reference: the adjoint slab matrix is the transpose
    of the difference slab matrix, the dense and spectral steps agree, and
    the spectral state solve converges to a fine dense reference at O(dt)."""
    s = p.oracle
    params = p.config.operator_params()
    rng = np.random.default_rng(s.seed)
    transpose = operator = 0.0
    for n in s.ns:
        system = DenseSystem(Grid(d=2, n=n), params)
        m1, m2 = (random_field(system.grid, rng, l2=1.0).coeffs for _ in range(2))
        fields = [random_field(system.grid, rng, l2=1.0).coeffs for _ in range(s.probes)]
        defect, gap = dense_agreement(system, m1, m2, s.dt, fields)
        transpose, operator = max(transpose, defect), max(operator, gap)
    ledger.residual("oracle_transpose_defect", transpose, 1e-12)
    if s.probes:
        ledger.residual("oracle_operator_rel", operator, 1e-12)
    if s.ref_nts:
        system = DenseSystem(Grid(d=2, n=s.ns[0]), params)
        m0 = random_field(system.grid, rng, l2=s.ref_l2[0])
        f_fn = random_forcing(system.grid, rng, l2=s.ref_l2[1], t_scale=s.ref_t_end)
        dts, errors = reference_errors(system, m0, f_fn, s.ref_t_end, s.ref_nts, **p.config.picard)
        ledger.order("oracle_reference_order", observed_order(dts, errors))


CHECKS = (trilinear, forchheimer, energy, lipschitz, duality, adjoint_bounds, gradient_check, optimality, oracle)
