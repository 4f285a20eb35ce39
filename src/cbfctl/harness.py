"""Configuration and the dense Galerkin oracle.

ProblemConfig is the flat JSON schema every CLI run consumes; parse_config
validates it field by field and evaluates the coefficient hypothesis up front
(recorded, never fatal).

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
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable

import numpy as np

from .fields import (
    Grid,
    SpectralField,
    Trajectory,
    inner_product,
    make_field,
    random_field,
    random_trajectory,
    time_l2_norm,
)
from .operators import OperatorParams, PairStencil, StateStencil, apply_A
from .optimizer import ControlProblem
from .state_solver import StateRun, solve_state

EXPERIMENTS = ("simulate", "adjoint", "optimize", "verify", "delta-sweep", "oracle")


class ConfigError(ValueError):
    """Schema violation; the message names the offending field."""


_DEFAULTS = {
    "experiment": "verify",
    "d": 2,
    "n": 16,
    "nt": 64,
    "t_end": 1.0,
    "mu": 1.0,
    "alpha": 0.1,
    "beta": 1.0,
    "kappa": None,
    "lambda": 0.1,
    "delta": 0.0,
    "radius": 10.0,
    "amplitude": 1.0,
    "seed": 20260808,
    "picard_tol": 1e-11,
    "picard_max_iters": 200,
    "tol_vi": 1e-6,
    "tol_duality": 1e-10,
}


@dataclass(frozen=True)
class ProblemConfig:
    """Validated flat configuration; kappa defaults to the midpoint choice."""

    experiment: str
    d: int
    n: int
    nt: int
    t_end: float
    mu: float
    alpha: float
    beta: float
    kappa: float | None
    lam: float
    delta: float
    radius: float
    amplitude: float
    seed: int
    picard_tol: float
    picard_max_iters: int
    tol_vi: float
    tol_duality: float

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
    def wellposed(self) -> bool:
        return self.operator_params().wellposed()

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
            "wellposed_2bm_ge_1": self.wellposed,
        }


def _expect(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{field}: {message}")


def config_from_dict(raw: dict) -> ProblemConfig:
    unknown = set(raw) - set(_DEFAULTS)
    _expect(not unknown, sorted(unknown)[0] if unknown else "", "unknown field")
    merged = {**_DEFAULTS, **raw}

    def num(fieldname, lo=None, strict=True, allow_none=False):
        val = merged[fieldname]
        if val is None and allow_none:
            return None
        _expect(isinstance(val, (int, float)) and not isinstance(val, bool), fieldname, "must be a number")
        val = float(val)
        if lo is not None:
            _expect(val > lo if strict else val >= lo, fieldname, f"must be {'>' if strict else '>='} {lo}")
        return val

    def integer(fieldname, lo):
        val = merged[fieldname]
        _expect(isinstance(val, int) and not isinstance(val, bool), fieldname, "must be an integer")
        _expect(val >= lo, fieldname, f"must be >= {lo}")
        return val

    experiment = merged["experiment"]
    _expect(experiment in EXPERIMENTS, "experiment", f"must be one of {', '.join(EXPERIMENTS)}")
    d = integer("d", 2)
    _expect(d in (2, 3), "d", "must be 2 or 3")
    n = integer("n", 4)
    _expect(n % 2 == 0, "n", "must be even")
    nt = integer("nt", 1)
    kappa = num("kappa", allow_none=True)
    if kappa is not None:
        _expect(0.0 < kappa < 1.0, "kappa", "must lie in (0, 1)")
    cfg = ProblemConfig(
        experiment=experiment,
        d=d,
        n=n,
        nt=nt,
        t_end=num("t_end", 0.0),
        mu=num("mu", 0.0),
        alpha=num("alpha", 1e-12, strict=False),
        beta=num("beta", 0.0),
        kappa=kappa,
        lam=num("lambda", 0.0),
        delta=num("delta", 0.0, strict=False),
        radius=num("radius", 0.0),
        amplitude=num("amplitude", 0.0),
        seed=integer("seed", 0),
        picard_tol=num("picard_tol", 0.0),
        picard_max_iters=integer("picard_max_iters", 1),
        tol_vi=num("tol_vi", 0.0),
        tol_duality=num("tol_duality", 0.0),
    )
    return cfg


def parse_config(path) -> ProblemConfig:
    """Load and validate a flat JSON config; errors name the field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    return config_from_dict(raw)


def config_to_dict(cfg: ProblemConfig) -> dict:
    """The config in the JSON schema: every field by its name, lam as "lambda"."""
    return {"lambda" if f.name == "lam" else f.name: getattr(cfg, f.name) for f in fields(cfg)}


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
    field.  D = 2 (d-1) (number of representatives); capped at 64.
    """

    MAX_DIM = 64

    def __init__(self, grid: Grid, params: OperatorParams):
        self.grid = grid
        self.params = params
        reps = [k for k in grid.retained_modes() if k > tuple(0 for _ in k)]
        basis: list[SpectralField] = []
        vol = grid.volume**0.5
        for k in reps:
            for t in _tangent_basis(k):
                for phase in (1.0, 1.0j):
                    amp = phase * t / (math.sqrt(2.0) * vol)
                    basis.append(make_field(grid, [(k, amp)]))
        if len(basis) > self.MAX_DIM:
            raise ConfigError(
                f"n: dense dimension {len(basis)} at n={grid.n} exceeds the cap {self.MAX_DIM}; shrink the grid"
            )
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def field_to_vec(self, u: SpectralField) -> np.ndarray:
        return np.array([inner_product(u, e) for e in self.basis])

    def vec_to_field(self, x: np.ndarray) -> SpectralField:
        coeffs = sum(float(xi) * e.coeffs for xi, e in zip(x, self.basis))
        return SpectralField(self.grid, np.asarray(coeffs))

    def assemble(self, op: Callable[[SpectralField], SpectralField]) -> np.ndarray:
        cols = [self.field_to_vec(op(e)) for e in self.basis]
        return np.column_stack(cols)

    @cached_property
    def a_matrix(self) -> np.ndarray:
        return self.assemble(apply_A)

    def difference_step_matrix(self, m1: SpectralField, m2: SpectralField, dt: float) -> np.ndarray:
        """Dense implicit matrix of one difference-system slab."""
        st = PairStencil(m1, m2, self.params)
        L = self.assemble(st.apply)
        return np.eye(self.dim) + dt * (self.params.mu * self.a_matrix + self.params.alpha * np.eye(self.dim) + L)

    def adjoint_step_matrix(self, m1: SpectralField, m2: SpectralField, dt: float) -> np.ndarray:
        """Dense implicit matrix of the matching backward slab; equals the
        transpose of difference_step_matrix to round-off."""
        st = PairStencil(m1, m2, self.params)
        Lt = self.assemble(st.apply_transpose)
        return np.eye(self.dim) + dt * (self.params.mu * self.a_matrix + self.params.alpha * np.eye(self.dim) + Lt)

    def state_step_matrix(self, m_ref: SpectralField, dt: float) -> np.ndarray:
        st = StateStencil(m_ref, self.params)
        L = self.assemble(st.apply)
        return np.eye(self.dim) + dt * (self.params.mu * self.a_matrix + self.params.alpha * np.eye(self.dim) + L)

    def state_reference(
        self,
        m0: SpectralField,
        forcing_fn: Callable[[float], SpectralField],
        t_end: float,
        nt: int,
        refine: int = 64,
    ) -> Trajectory:
        """Fine-step dense integration (dt_ref = dt / refine), sampled on the
        coarse time grid; per fine step the implicit matrix is rebuilt from
        the current state and solved exactly."""
        dt = t_end / nt
        dt_ref = dt / refine
        x = self.field_to_vec(m0)
        samples = [self.vec_to_field(x)]
        for n in range(nt):
            for r in range(refine):
                t = n * dt + r * dt_ref
                m_cur = self.vec_to_field(x)
                M = self.state_step_matrix(m_cur, dt_ref)
                rhs = x + dt_ref * self.field_to_vec(forcing_fn(t))
                x = np.linalg.solve(M, rhs)
            samples.append(self.vec_to_field(x))
        return Trajectory.from_fields(self.grid, t_end, samples)


def dense_oracle(config: ProblemConfig) -> DenseSystem:
    """Dense mirror for the config's grid; a dimension above 64 is a
    ConfigError that names n."""
    return DenseSystem(config.grid(), config.operator_params())


# ----------------------------------------------------------------------
# manufactured control problem (seeded)
# ----------------------------------------------------------------------

def build_tracking_problem(
    config: ProblemConfig,
    rng: np.random.Generator | None = None,
) -> tuple[ControlProblem, Trajectory, StateRun]:
    """Manufactured velocity-tracking instance.

    A hidden admissible control generates the target trajectory; returns
    (problem, hidden control, its state run).  The hidden control's
    L2(0,T;H) norm is amplitude * sqrt(t_end), capped at 40% of the ball
    radius so it stays well interior.  Exact recovery of the hidden control
    is not claimed, only trackability.
    """
    grid = config.grid()
    if rng is None:
        rng = config.rng()
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
        picard_tol=config.picard_tol,
        picard_max_iters=config.picard_max_iters,
    )
    return problem, f_sharp, hidden_run
