"""Run-time instrumentation of cbfctl's public entry points, from outside the package.

A wrapped function is rebound under every name that refers to it: in each
``cbfctl`` module namespace (``picard_solve``, ``norms`` and ``solve_state`` are
imported by name into other modules), in every class dictionary
(``Trajectory.__rmul__`` is the same function as ``__mul__``) and in
module-level dicts.  The traced run's exact count cross-checks (run.py)
confirm that no Picard step and no operator apply escaped.

Two modes share one mechanism:

* counting (``spans=False``): only the solver entry points are wrapped; they
  record the time steps and Picard sweeps each certificate completed, and
  after each Picard step call ``on_step`` (the reference probe's ``tick``,
  see reference.py) if one is given.
* tracing (``spans=True``): every entry point in ``SPANNED`` records a span
  (name, start, end, parent span, certificate id) kept in memory, and the
  functions in ``COUNTED`` are counted without a span so that their callers'
  self time keeps them.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

# (module, qualified name) of every function that gets a span when tracing.
SPANNED = (
    ("fields", "Grid.to_physical"),
    ("fields", "Grid.grad_physical"),
    ("fields", "Grid.from_physical"),
    ("fields", "Trajectory.__add__"),
    ("fields", "Trajectory.__sub__"),
    ("fields", "Trajectory.__mul__"),
    ("fields", "write_trajectory"),
    ("svg", "write_line_chart"),
    ("operators", "PairStencil.__init__"),
    ("operators", "StateStencil.__init__"),
    ("operators", "PairStencil.apply"),
    ("operators", "PairStencil.apply_transpose"),
    ("operators", "StateStencil.apply"),
    ("state_solver", "picard_solve"),
    ("state_solver", "solve_state"),
    ("state_solver", "solve_difference"),
    ("adjoint_solver", "solve_adjoint"),
    ("adjoint_solver", "duality_residual"),
    ("optimizer", "optimize"),
    ("optimizer", "ControlProblem.solve"),
    ("optimizer", "cost"),
    ("optimizer", "make_probe_bank"),
    ("optimizer", "vi_residual"),
    ("optimizer", "vi_scale"),
    ("optimizer", "ioc_ladder"),
    ("harness", "build_tracking_problem"),
    ("experiments", "write_csv"),
    ("experiments", "_write_summary"),
)

# Counted per call, no span: cheap calls made from inside other spans.
COUNTED = (
    ("fields", "norms"),
    ("fields", "inner_product"),
)

# Wrapped in counting mode too: the solves whose time steps and sweeps the
# end-to-end metrics and the certificate fingerprints need.
SOLVERS = (
    ("state_solver", "picard_solve"),
    ("state_solver", "solve_state"),
    ("state_solver", "solve_difference"),
    ("adjoint_solver", "solve_adjoint"),
)

TRANSFORMS = ("Grid.to_physical", "Grid.grad_physical", "Grid.from_physical")


def _resolve(package: types.ModuleType, module: str, qualname: str):
    obj = getattr(package, module)
    for part in qualname.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def _namespaces(package: types.ModuleType) -> list:
    """Every module dict, class and module-level dict of the cbfctl package."""
    prefix = package.__name__
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == prefix or name.startswith(prefix + ".")):
            continue
        out.append(vars(mod))
        for val in list(vars(mod).values()):
            if isinstance(val, type) and val.__module__ == name:
                out.append(val)  # class: rebound through setattr
            elif isinstance(val, dict):
                out.append(val)
    return out


def _items(ns) -> list:
    return list(ns.items()) if isinstance(ns, dict) else list(vars(ns).items())


def _set(ns, key, value) -> None:
    if isinstance(ns, dict):
        ns[key] = value
    else:
        setattr(ns, key, value)


class Tracer:
    """Wraps cbfctl entry points; ``install`` and ``uninstall`` bracket a phase.

    ``begin(cert)`` starts a certificate: the counts of ``tally`` and the spans
    recorded from then on carry that certificate id.
    """

    def __init__(self, package: types.ModuleType, *, spans: bool, on_step=None):
        self.package = package
        self.spans_on = spans
        self.on_step = on_step
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name id, start, end, parent index, cert)
        self.tallies: dict[int, defaultdict] = {}
        self.tally: defaultdict = defaultdict(float)
        self.cert = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def begin(self, cert: int) -> None:
        self.cert = cert
        self.tally = self.tallies.setdefault(cert, defaultdict(float))

    # ------------------------------------------------------------------
    # hooks: per-call counts read from arguments and results
    # ------------------------------------------------------------------

    def _hooks(self) -> dict:
        def transform(args, out, key):
            phys = args[1] if key == "Grid.from_physical" else out
            t = self.tally
            t["fft_points"] += phys.size
            t["bytes_computed"] += args[1].nbytes + out.nbytes

        def picard(args, out, key):
            t = self.tally
            t["picard_calls"] += 1
            t["sweeps"] += out[1]
            if out[1] > t["sweeps_max"]:
                t["sweeps_max"] = out[1]
            if self.on_step is not None:
                self.on_step()

        def steps_of(get):
            def hook(args, out, key):
                self.tally["steps"] += get(out).nt
                self.tally[key + ".solves"] += 1
            return hook

        def optimize(args, out, key):
            self.tally["iterations"] += out.trace.iterations

        hooks = {name: transform for name in TRANSFORMS}
        hooks.update(
            picard_solve=picard,
            solve_state=steps_of(lambda out: out.solution),
            solve_difference=steps_of(lambda out: out.trajectory),
            solve_adjoint=steps_of(lambda out: out.solution),
            optimize=optimize,
        )
        return hooks

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _spanned(self, key: str, fn, hook):
        name_id = len(self.names)
        self.names.append(key)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, self.cert)
            if hook is not None:
                hook(args, out, key)
            return out

        return wrapper

    def _counted(self, key: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if hook is not None:
                hook(args, out, key)
            else:
                self.tally[key + ".calls"] += 1
            return out

        return wrapper

    def install(self) -> None:
        hooks = self._hooks()
        if self.spans_on:
            plan = [(m, q, True) for m, q in SPANNED] + [(m, q, False) for m, q in COUNTED]
        else:
            plan = [(m, q, False) for m, q in SOLVERS]
        namespaces = _namespaces(self.package)
        try:
            for module, qualname, spanned in plan:
                fn = _resolve(self.package, module, qualname)
                make = self._spanned if spanned else self._counted
                wrapper = make(qualname, fn, hooks.get(qualname))
                for ns in namespaces:
                    for key, val in _items(ns):
                        if val is fn:
                            _set(ns, key, wrapper)
                            self._undo.append((ns, key, fn))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            ns, key, fn = self._undo.pop()
            _set(ns, key, fn)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds over all certs."""
        child = [0.0] * len(self.spans)
        for name_id, t0, t1, parent, _cert in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        table: dict[str, dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i, (name_id, t0, t1, _parent, _cert) in enumerate(self.spans):
            row = table[self.names[name_id]]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
        return table

    def child_count(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        pid, cid = self.names.index(parent_name), self.names.index(child_name)
        return sum(
            1
            for name_id, _t0, _t1, parent, _c in self.spans
            if name_id == cid and parent >= 0 and self.spans[parent][0] == pid
        )

    def totals(self) -> defaultdict:
        out: defaultdict = defaultdict(float)
        for tally in self.tallies.values():
            for key, val in tally.items():
                out[key] = max(out[key], val) if key == "sweeps_max" else out[key] + val
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start,end,parent,cert\n")
            fh.writelines(
                f"{i},{self.names[n]},{t0!r},{t1!r},{p},{c}\n"
                for i, (n, t0, t1, p, c) in enumerate(self.spans)
            )
