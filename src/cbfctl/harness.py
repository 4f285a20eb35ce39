"""Configuration and the dense Galerkin oracle.

ProblemConfig is the flat JSON schema every CLI run consumes; it validates
itself field by field on every construction, and its coefficient hypothesis
is evaluated up front (recorded, never fatal).

DenseSystem realizes the solvers' finite-dimensional systems literally: an
orthonormal real basis of the retained divergence-free modes is built once,
every operator is assembled into an explicit matrix column by column, and the
time steppers become dense linear solves.  At tiny mode counts this is the
brute-force reference the spectral path is checked against; in particular the
per-slab adjoint matrix must equal the transpose of the difference-step
matrix to round-off.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .fields import (
    Grid,
    Trajectory,
    make_field,
    parseval_pairing,
    random_field,
    random_trajectory,
    time_l2_norm,
)
from .operators import OperatorParams, StateStencil
from .optimizer import ControlProblem
from .state_solver import PICARD_MAX_ITERS, PICARD_TOL, StateRun, solve_state

EXPERIMENTS = ("simulate", "adjoint", "optimize", "verify", "delta-sweep", "oracle")


class ConfigError(ValueError):
    """Schema violation; the message names the offending field."""


# Per field: a lower bound (comparison, bound) and the one rule a bound
# cannot state (test, message).
_RULES = {
    "experiment": (None, (lambda v: v in EXPERIMENTS, f"must be one of {', '.join(EXPERIMENTS)}")),
    "d": ((">=", 2), (lambda v: v in (2, 3), "must be 2 or 3")),
    "n": ((">=", 4), (lambda v: v % 2 == 0, "must be even")),
    "nt": ((">=", 1), None),
    "t_end": ((">", 0.0), None),
    "mu": ((">", 0.0), None),
    "alpha": ((">=", 1e-12), None),
    "beta": ((">", 0.0), None),
    "kappa": (None, (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")),
    "lam": ((">", 0.0), None),
    "delta": ((">=", 0.0), None),
    "radius": ((">", 0.0), None),
    "amplitude": ((">", 0.0), None),
    "seed": ((">=", 0), None),
    "picard_tol": ((">", 0.0), None),
    "picard_max_iters": ((">=", 1), None),
    "tol_vi": ((">", 0.0), None),
    "tol_duality": ((">", 0.0), None),
}
_BOUNDS = {">": operator.gt, ">=": operator.ge}


def _expect(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{field}: {message}")


def _json_name(field: str) -> str:
    """The JSON key of a ProblemConfig field: lam is "lambda"."""
    return "lambda" if field == "lam" else field


@dataclass(frozen=True)
class ProblemConfig:
    """Validated flat configuration, each field with its schema default;
    kappa None is the midpoint choice.

    Every construction (config_from_dict, dataclasses.replace, a direct
    call) checks each field's JSON kind, given by its annotation, stores
    numbers as floats and applies _RULES; the first failing field in
    declaration order is named by its JSON key."""

    experiment: str = "verify"
    d: int = 2
    n: int = 16
    nt: int = 64
    t_end: float = 1.0
    mu: float = 1.0
    alpha: float = 0.1
    beta: float = 1.0
    kappa: float | None = None
    lam: float = 0.1
    delta: float = 0.0
    radius: float = 10.0
    amplitude: float = 1.0
    seed: int = 20260808
    picard_tol: float = PICARD_TOL
    picard_max_iters: int = PICARD_MAX_ITERS
    tol_vi: float = 1e-6
    tol_duality: float = 1e-10

    def __post_init__(self) -> None:
        for f in fields(self):
            key, val = _json_name(f.name), getattr(self, f.name)
            if val is None and f.type == "float | None":
                continue
            if f.type == "int":
                _expect(isinstance(val, int) and not isinstance(val, bool), key, "must be an integer")
            elif f.type != "str":
                _expect(isinstance(val, (int, float)) and not isinstance(val, bool), key, "must be a number")
                try:
                    val = float(val)
                except OverflowError:  # an integer beyond the float range
                    val = math.inf
                _expect(math.isfinite(val), key, "must be finite")
                object.__setattr__(self, f.name, val)
            bound, rule = _RULES[f.name]
            if bound is not None:
                op, lo = bound
                _expect(_BOUNDS[op](val, lo), key, f"must be {op} {lo}")
            if rule is not None:
                test, message = rule
                _expect(test(val), key, message)

    def operator_params(self) -> OperatorParams:
        return OperatorParams(mu=self.mu, alpha=self.alpha, beta=self.beta)

    @property
    def kappa_effective(self) -> float:
        if self.kappa is not None:
            return self.kappa
        return self.operator_params().kappa_star()

    @property
    def hypothesis_satisfied(self) -> bool:
        return self.operator_params().hypothesis_holds(self.kappa_effective)

    @property
    def picard(self) -> dict:
        """The inner solver control, as keyword arguments of the solves."""
        return {"picard_tol": self.picard_tol, "max_iters": self.picard_max_iters}

    def grid(self) -> Grid:
        return Grid(d=self.d, n=self.n)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(np.random.PCG64(self.seed))

    def hypothesis_report(self) -> dict:
        return {
            "kappa": self.kappa_effective,
            "two_beta_mu": 2.0 * self.beta * self.mu,
            "hypothesis_satisfied": self.hypothesis_satisfied,
            "wellposed_2bm_ge_1": self.operator_params().wellposed(),
        }


def config_from_dict(raw: dict) -> ProblemConfig:
    """The config of a JSON object: unknown keys are errors, "lambda" is lam."""
    names = {_json_name(f.name): f.name for f in fields(ProblemConfig)}
    unknown = sorted(set(raw) - set(names))
    _expect(not unknown, unknown[0] if unknown else "", "unknown field")
    return ProblemConfig(**{names[key]: val for key, val in raw.items()})


def parse_config(path) -> ProblemConfig:
    """Load and validate a flat JSON config; errors name the field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path} ({exc.strerror or exc})") from None
    except ValueError as exc:  # bad JSON, an undecodable byte or an over-long integer literal
        raise ConfigError(f"config: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    return config_from_dict(raw)


def config_to_dict(cfg: ProblemConfig) -> dict:
    """The config in the JSON schema: every field by its name, lam as "lambda"."""
    return {_json_name(f.name): getattr(cfg, f.name) for f in fields(cfg)}


# ----------------------------------------------------------------------
# dense Galerkin oracle
# ----------------------------------------------------------------------

def _tangent_basis(k: tuple[int, ...]) -> list[np.ndarray]:
    kv = np.array(k, dtype=float)
    if len(k) == 2:
        t = np.array([-kv[1], kv[0]]) / np.linalg.norm(kv)
        return [t]
    ref = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(ref, kv)) > 0.9 * np.linalg.norm(kv):
        ref = np.array([0.0, 1.0, 0.0])
    t1 = np.cross(kv, ref)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(kv / np.linalg.norm(kv), t1)
    return [t1, t2]


class DenseSystem:
    """Explicit-matrix mirror of the spectral solvers at tiny mode counts.

    The basis is orthonormal in L2: for every half-space representative k,
    every real tangent direction of k-perp, and both phases {1, i}, one unit
    field; basis stacks them as one (D, d) + grid.shape coefficient array.
    D = 2 (d-1) (number of representatives); capped at 64.
    """

    MAX_DIM = 64

    def __init__(self, grid: Grid, params: OperatorParams):
        self.grid = grid
        self.params = params
        reps = [k for k in grid.retained_modes() if k > tuple(0 for _ in k)]
        vol = grid.volume**0.5
        basis = [
            make_field(grid, [(k, phase * t / (math.sqrt(2.0) * vol))]).coeffs
            for k in reps for t in _tangent_basis(k) for phase in (1.0, 1.0j)
        ]
        if len(basis) > self.MAX_DIM:
            raise ConfigError(
                f"n: dense dimension {len(basis)} at n={grid.n} exceeds the cap {self.MAX_DIM}; shrink the grid"
            )
        self.basis = np.stack(basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, c: np.ndarray) -> np.ndarray:
        """The coordinates of the coefficient array c, in one pairing with the basis."""
        return parseval_pairing(self.grid, c, self.basis)

    def from_coords(self, x: np.ndarray) -> np.ndarray:
        """The coefficient array with coordinates x, summed in basis order."""
        return sum(float(xi) * e for xi, e in zip(x, self.basis))

    def assemble(self, op: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """The matrix of the coefficient-array map op, (op(e_j), e_i)_ij, in one pairing."""
        cols = np.stack([op(e) for e in self.basis])
        return parseval_pairing(self.grid, cols, self.basis[:, None])

    @cached_property
    def a_matrix(self) -> np.ndarray:
        return self.assemble(lambda c: self.grid.k_sq * c)

    def step_matrix(self, op: Callable[[np.ndarray], np.ndarray], dt: float) -> np.ndarray:
        """Dense implicit matrix I + dt (mu A + alpha I + L) of one slab, L the
        coefficient-array apply op: a PairStencil's apply (difference step) or
        apply_transpose (adjoint step, the transpose to round-off), or a
        StateStencil's apply (state step)."""
        L = self.assemble(op)
        return np.eye(self.dim) + dt * (self.params.mu * self.a_matrix + self.params.alpha * np.eye(self.dim) + L)

    def state_reference(
        self,
        m0: np.ndarray,
        forcing: Callable[[Sequence[float]], np.ndarray],
        t_end: float,
        nt: int,
        refine: int,
    ) -> Trajectory:
        """Fine-step dense integration from the coefficient array m0 (dt_ref =
        dt / refine), sampled on the coarse time grid; per fine step the forcing
        sampler is read at its start and the implicit matrix rebuilt and solved."""
        dt = t_end / nt
        dt_ref = dt / refine
        x = self.coords(m0)
        samples = [self.from_coords(x)]
        for n in range(nt):
            for r in range(refine):
                t = n * dt + r * dt_ref
                M = self.step_matrix(StateStencil(self.grid, self.from_coords(x), self.params).apply, dt_ref)
                x = np.linalg.solve(M, x + dt_ref * self.coords(forcing([t])[0]))
            samples.append(self.from_coords(x))
        return Trajectory(self.grid, t_end, np.stack(samples))


# ----------------------------------------------------------------------
# manufactured control problem (seeded)
# ----------------------------------------------------------------------

def build_tracking_problem(
    config: ProblemConfig,
    rng: np.random.Generator,
) -> tuple[ControlProblem, Trajectory, StateRun]:
    """Manufactured velocity-tracking instance.

    A hidden admissible control generates the target trajectory; returns
    (problem, hidden control, its state run).  The hidden control's
    L2(0,T;H) norm is amplitude * sqrt(t_end), capped at 40% of the ball
    radius so it stays well interior.  Exact recovery of the hidden control
    is not claimed, only trackability.
    """
    grid = config.grid()
    params = config.operator_params()
    m0 = random_field(grid, rng, l2=0.3 * config.amplitude)
    f_raw = random_trajectory(grid, config.t_end, config.nt, rng, l2=config.amplitude)
    nrm = time_l2_norm(f_raw)
    target_norm = min(config.amplitude * math.sqrt(config.t_end), 0.4 * config.radius)
    f_sharp = f_raw * (target_norm / nrm) if nrm > 0 else f_raw
    hidden_run = solve_state(m0, f_sharp, params, picard_tol=config.picard_tol, max_iters=config.picard_max_iters)
    problem = ControlProblem(
        params=params,
        lam=config.lam,
        m0=m0,
        target=hidden_run.solution,
        radius=config.radius,
        kappa=config.kappa_effective,
        picard_tol=config.picard_tol,
        picard_max_iters=config.picard_max_iters,
    )
    return problem, f_sharp, hidden_run
