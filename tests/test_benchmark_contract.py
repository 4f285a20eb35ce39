"""perfbench's view of cbfctl must match cbfctl.

perfbench/tracer.py resolves its entry points by name when a traced run
starts, and perfbench/workloads.py calls cbfctl.<name>(...) with positional
arguments and keywords; a refactor that renames, drops or re-signs one would
only show when the benchmark runs.  These tests check both against the
package, so they fail in the suite instead.  The last test holds the solver
reports to what the package and perfbench read of them.
"""

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import cbfctl
from cbfctl import (
    ControlProblem, Grid, OperatorParams, Trajectory, optimize, random_field, random_trajectory,
    solve_adjoint, solve_difference, solve_state, step_state, zero_field,
)
from cbfctl.adjoint_solver import AdjointReport, DerivativeBound, DualityReport
from cbfctl.checks import Optimum
from cbfctl.operators import StateStencil
from cbfctl.optimizer import IOCPoint, OptimizeTrace
from cbfctl.state_solver import DifferenceSolve, SolveReport, _dinv, picard_solve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "cbfctl"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_entries_resolve():
    tracer = _load_tracer()
    entries = tracer.SPANNED + tracer.COUNTED + tracer.SOLVERS
    assert entries
    for module, qualname in entries:
        assert callable(tracer._resolve(cbfctl, module, qualname)), (module, qualname)
    # one function under both names, so one wrapper covers both
    assert Trajectory.__rmul__ is Trajectory.__mul__


def test_workload_calls_bind():
    # every cbfctl.<name>(...) call in the workloads binds to the current signature
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "cbfctl"
    ]
    assert {"solve_adjoint", "duality_residual", "solve_adjoint_noc"} <= {c.func.attr for c in calls}
    for call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args), ast.unparse(call)
        assert all(k.arg is not None for k in call.keywords), ast.unparse(call)
        signature = inspect.signature(getattr(cbfctl, call.func.attr))
        try:
            signature.bind(*[None] * len(call.args), **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            raise AssertionError(f"line {call.lineno}: {ast.unparse(call)}: {exc}") from None


def test_picard_solve_returns_array_and_sweeps():
    # the tracer's picard hook reads the sweep count, out[1]; x is the step's solution
    grid = Grid(d=2, n=8)
    params = OperatorParams(mu=1.0, alpha=0.1, beta=1.0)
    m = random_field(grid, np.random.default_rng(1), l2=1.0)
    dt = 1e-3
    stencil = StateStencil(grid, m.coeffs, params)
    x, sweeps = picard_solve(grid, _dinv(grid, params, dt), m.coeffs, stencil.apply, dt, 1e-11, 200, 0)
    assert type(sweeps) is int and sweeps >= 1
    assert type(x) is np.ndarray and x.shape == (grid.d,) + grid.shape
    # with f = 0 the right-hand side is m itself: x is step_state's result, bit for bit
    ref = step_state(m, zero_field(grid), dt, params, picard_tol=1e-11, max_iters=200).coeffs
    assert np.array_equal(x.view(np.uint64), ref.view(np.uint64))


def test_solver_results_carry_what_the_hooks_read():
    # the tracer's steps_of and optimize hooks read these attributes of the results
    grid = Grid(d=2, n=8)
    params = OperatorParams(mu=1.0, alpha=0.1, beta=1.0)
    rng = np.random.default_rng(2)
    m0 = random_field(grid, rng, l2=0.3)
    f1, f2 = (random_trajectory(grid, 0.25, 4, rng, l2=0.5) for _ in range(2))
    run1, run2 = solve_state(m0, f1, params), solve_state(m0, f2, params)
    assert type(run1.solution.nt) is int and run1.solution.nt == 4
    diff = solve_difference(run1, run2)
    assert type(diff.trajectory.nt) is int and diff.trajectory.nt == 4
    adj = solve_adjoint((run1.solution, run2.solution), f1, 0.0, params, kappa=params.kappa_star())
    assert type(adj.solution.nt) is int and adj.solution.nt == 4
    problem = ControlProblem(
        params=params, lam=0.1, m0=m0, target=run1.solution, radius=5.0, kappa=params.kappa_star()
    )
    trace = optimize(problem, f2, max_iters=2, tol=1e-12).trace
    assert type(trace.iterations) is int and trace.iterations == len(trace.rows) - 1


# Kept without a reader: the per-step Picard sweeps are for the run counters
# planned in ROADMAP.md (item 9, one set of counters into summary.json).
UNREAD_FIELDS = {"picard_sweeps"}


def _fields(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls)) if dataclasses.is_dataclass(cls) else cls._fields


def test_every_report_field_has_a_reader():
    # an attribute read through .report or .trace counts for its field; a bare
    # read counts only when no class outside the contract has an attribute of
    # that name (FieldNorms also has l2, Draw f_l2, ProblemConfig kappa).
    # Optimum is in the contract, so its scale does not hide DualityReport's.
    reports = (
        SolveReport, AdjointReport, OptimizeTrace, DerivativeBound, DualityReport, DifferenceSolve, IOCPoint, Optimum,
    )
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))]
    elsewhere = set()
    for cls in (n for t in trees for n in ast.walk(t) if isinstance(n, ast.ClassDef)):
        if cls.name in {r.__name__ for r in reports}:
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                elsewhere.add(node.target.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                elsewhere.add(node.attr)
    read = set()
    for node in (n for t in trees for n in ast.walk(t)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            through = isinstance(node.value, ast.Attribute) and node.value.attr in ("report", "trace")
            if through or node.attr not in elsewhere:
                read.add(node.attr)
    unread = [
        f"{r.__name__}.{name}" for r in reports for name in _fields(r) if name not in read | UNREAD_FIELDS
    ]
    assert not unread, unread
