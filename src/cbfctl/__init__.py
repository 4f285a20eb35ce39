"""Adjoint-based optimal control of damped incompressible flow on the torus.

The package solves the forced state system

    dm/dt + mu A m + B(m) + alpha m + beta C(m) = f,     m(0) = m0,

(A the Stokes operator, B the projected convection, C the cubic damping
P(|m|^2 m)) with a dealiased Fourier spectral discretization, integrates the
associated difference and backward adjoint systems with an exactly transposed
time stepper, and runs projected gradient descent on the velocity-tracking
cost over an L2-ball of admissible forcings.  A verification harness turns
the analytical identities the construction rests on (energy balance, a-priori
and stability estimates, discrete duality, first-order optimality conditions)
into numerically checked margins.
"""

from .fields import (
    FieldNorms,
    Grid,
    GridMismatchError,
    SpectralField,
    Trajectory,
    inner_product,
    leray_project,
    make_field,
    norms,
    random_field,
    random_forcing,
    random_trajectory,
    read_trajectory,
    time_l2_inner,
    time_l2_norm,
    write_trajectory,
    zero_field,
)
from .operators import (
    OperatorParams,
    trilinear_b,
)
from .state_solver import (
    HypothesisViolatedError,
    NonConvergenceError,
    SolveReport,
    StateRun,
    lipschitz_check,
    solve_difference,
    solve_state,
    step_state,
)
from .adjoint_solver import (
    AdjointRun,
    delta_sweep,
    derivative_bound_check,
    duality_residual,
    solve_adjoint,
    solve_adjoint_noc,
    step_adjoint,
)
from .optimizer import (
    ControlProblem,
    LineSearchFailure,
    OptimizeResult,
    OptimizeTrace,
    cost,
    gradient,
    ioc_ladder,
    make_probe_bank,
    optimize,
    project_admissible,
    vi_residual,
)
from .harness import (
    ConfigError,
    DenseSystem,
    ProblemConfig,
    build_tracking_problem,
    parse_config,
)
from .experiments import run_experiment

__version__ = "0.1.0"
