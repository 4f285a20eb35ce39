"""perfbench's view of cbfctl must match cbfctl.

perfbench/tracer.py resolves its entry points by name when a traced run
starts, and perfbench/workloads.py calls cbfctl.<name>(...) with positional
arguments and keywords; a refactor that renames, drops or re-signs one would
only show when the benchmark runs.  These tests check both against the
package, so they fail in the suite instead.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import cbfctl
from cbfctl import Grid, OperatorParams, SpectralField, Trajectory, random_field
from cbfctl.operators import StateStencil
from cbfctl.state_solver import _dinv, picard_solve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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


def test_picard_solve_returns_field_and_sweeps():
    grid = Grid(d=2, n=8)
    params = OperatorParams(mu=1.0, alpha=0.1, beta=1.0)
    m = random_field(grid, np.random.default_rng(1), l2=1.0)
    dt = 1e-3
    x, sweeps = picard_solve(grid, _dinv(grid, params, dt), m, StateStencil(m, params).apply, dt, 1e-11, 200)
    assert type(x) is SpectralField and x.grid == grid
    assert type(sweeps) is int and sweeps >= 1
