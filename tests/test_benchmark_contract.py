"""The names perfbench's tracer wraps must exist in cbfctl.

perfbench/tracer.py resolves its entry points by name when a traced run
starts; a refactor that renames or drops one would only show there.  This
test resolves every entry the same way, so it fails in the suite instead.
"""

import importlib.util
from pathlib import Path

import numpy as np

import cbfctl
from cbfctl import Grid, OperatorParams, SpectralField, Trajectory, random_field
from cbfctl.operators import StateStencil
from cbfctl.state_solver import _dinv, picard_solve

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


def test_picard_solve_returns_field_and_sweeps():
    grid = Grid(d=2, n=8)
    params = OperatorParams(mu=1.0, alpha=0.1, beta=1.0)
    m = random_field(grid, np.random.default_rng(1), l2=1.0)
    dt = 1e-3
    x, sweeps = picard_solve(grid, _dinv(grid, params, dt), m, StateStencil(m, params).apply, dt, 1e-11, 200)
    assert type(x) is SpectralField and x.grid == grid
    assert type(sweeps) is int and sweeps >= 1
