import dataclasses
import errno
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from cbfctl import (
    ConfigError,
    ControlProblem,
    Grid,
    OperatorParams,
    SpectralField,
    Trajectory,
    inner_product,
    parse_config,
    random_field,
    random_trajectory,
    solve_state,
    zero_field,
)
from cbfctl.checks import (
    MarginLedger, adjoint_bounds, duality, energy, observed_order, reference_errors, verify_profile,
)
from cbfctl.cli import main
from cbfctl.fields import parseval_pairing, random_forcing
from cbfctl.harness import (
    _RULES,
    EXPERIMENTS,
    DenseSystem,
    ProblemConfig,
    build_tracking_problem,
    config_from_dict,
    config_to_dict,
)
from cbfctl.operators import PairStencil, StateStencil, trilinear_b
from oracles import apply_A, b_tensor


def _write_config(tmp_path, name="config.json", **overrides):
    base = {"d": 2, "n": 8, "nt": 16, "t_end": 0.5, "seed": 7}
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------

def test_parse_config_defaults(tmp_path):
    path = tmp_path / "min.json"
    path.write_text("{}")
    cfg = parse_config(path)
    assert cfg.kappa is None
    assert cfg.delta == 0.0
    assert cfg.kappa_effective == pytest.approx(0.75)
    assert cfg.experiment == "verify"


def test_config_schema_has_one_source():
    # the JSON defaults are the dataclass defaults, keyed by JSON name, and
    # the README's schema table lists exactly those keys
    schema = {("lambda" if f.name == "lam" else f.name): f.default for f in dataclasses.fields(ProblemConfig)}
    assert config_to_dict(config_from_dict({})) == schema
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Config schema", 1)[1].split("\n\n###", 1)[0]
    rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
    assert sorted(key for row in rows for key in re.findall(r"`([^`]+)`", row)) == sorted(schema)


def test_parse_config_hypothesis_flag(tmp_path):
    path = _write_config(tmp_path, mu=1.0, beta=1.0)
    cfg = parse_config(path)
    # 2 beta mu = 2 > 1/0.75
    assert cfg.hypothesis_satisfied
    rep = cfg.hypothesis_report()
    assert rep["wellposed_2bm_ge_1"]
    assert rep["two_beta_mu"] == pytest.approx(2.0)
    weak = config_from_dict({"mu": 0.2, "beta": 1.0})
    assert not weak.hypothesis_report()["wellposed_2bm_ge_1"]


def test_parse_config_errors_name_field(tmp_path):
    with pytest.raises(ConfigError, match="beta"):
        parse_config(_write_config(tmp_path, beta=-1.0))
    with pytest.raises(ConfigError, match="^n:"):
        parse_config(_write_config(tmp_path, n=9))
    with pytest.raises(ConfigError, match="kappa"):
        parse_config(_write_config(tmp_path, kappa=1.5))
    with pytest.raises(ConfigError, match="experiment"):
        parse_config(_write_config(tmp_path, experiment="nope"))
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(_write_config(tmp_path, bogus=1))
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(bad)
    # an integer literal over Python's digit limit, and a byte that is not UTF-8
    for text in (b'{"seed": 1' + b"0" * 5000 + b"}", b"\xff{}"):
        bad.write_bytes(text)
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(bad)


def test_every_config_field_has_one_rule():
    # __post_init__ reads each field's kind from its annotation and its rules from _RULES
    names = [f.name for f in dataclasses.fields(ProblemConfig)]
    assert list(_RULES) == names
    assert {f.type for f in dataclasses.fields(ProblemConfig)} <= {"str", "int", "float", "float | None"}


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("n", 5, "n: must be even"),
        ("kappa", 1.5, "kappa: must lie in (0, 1)"),
        ("picard_max_iters", 0, "picard_max_iters: must be >= 1"),
        ("mu", math.nan, "mu: must be finite"),
        ("seed", True, "seed: must be an integer"),
        ("lam", 0.0, "lambda: must be > 0.0"),
    ],
)
def test_every_construction_validates(field, value, message):
    # a direct call and dataclasses.replace apply the rules a JSON config gets
    with pytest.raises(ConfigError) as json_error:
        config_from_dict({"lambda" if field == "lam" else field: value})
    assert str(json_error.value) == message
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ProblemConfig(**{field: value})
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(config_from_dict({}), **{field: value})


def test_config_stores_numbers_as_floats():
    assert type(ProblemConfig(t_end=1).t_end) is float and ProblemConfig(t_end=1).t_end == 1.0
    assert type(dataclasses.replace(ProblemConfig(), mu=2).mu) is float


def test_experiments_named_once():
    # the schema's experiments, the runners and the CLI's subcommands agree
    from cbfctl.cli import build_parser
    from cbfctl.experiments import _RUNNERS

    subcommands = re.search(r"\{([^}]*)\}", build_parser().format_usage()).group(1).split(",")
    assert set(EXPERIMENTS) == set(_RUNNERS) == set(subcommands)


NUMBER_FIELDS = (
    "t_end", "mu", "alpha", "beta", "kappa", "lambda", "delta", "radius", "amplitude",
    "picard_tol", "tol_vi", "tol_duality",
)


@pytest.mark.parametrize("literal", ["Infinity", "1e400", pytest.param("1" + "0" * 400, id="int1e400")])
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_config_rejects_non_finite(tmp_path, field, literal):
    # JSON's Infinity and an overflowing literal both parse to inf; an
    # integer literal beyond the float range is no finite number either
    path = tmp_path / "inf.json"
    path.write_text(f'{{"n": 8, "nt": 4, "{field}": {literal}}}')
    with pytest.raises(ConfigError, match=f"^{field}: must be finite"):
        parse_config(path)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3


def _control_problem(lam=0.1, radius=1.0):
    grid = Grid(d=2, n=4)
    return ControlProblem(
        params=OperatorParams(mu=1.0, alpha=0.1, beta=1.0), lam=lam, m0=zero_field(grid),
        target=Trajectory.zero(grid, 1.0, 2), radius=radius, kappa=0.75,
    )


_LIBRARY_NUMBERS = {
    "mu": lambda x: OperatorParams(mu=x, alpha=0.1, beta=1.0),
    "alpha": lambda x: OperatorParams(mu=1.0, alpha=x, beta=1.0),
    "beta": lambda x: OperatorParams(mu=1.0, alpha=0.1, beta=x),
    "t_end": lambda x: Trajectory.zero(Grid(d=2, n=4), x, 2),
    "lam": lambda x: _control_problem(lam=x),
    "radius": lambda x: _control_problem(radius=x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", sorted(_LIBRARY_NUMBERS))
def test_library_rejects_non_finite(field, value):
    # the library path names the field, as config files do
    with pytest.raises(ValueError, match=f"^{field} must be .*finite"):
        _LIBRARY_NUMBERS[field](value)


# ----------------------------------------------------------------------
# dense oracle
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_system():
    grid = Grid(d=2, n=4)
    params = OperatorParams(mu=1.0, alpha=0.1, beta=1.0)
    return DenseSystem(grid, params)


def _basis_fields(s):
    """The dense basis, one SpectralField per row."""
    return [SpectralField(s.grid, e) for e in s.basis]


def _apply_A(s):
    """The Stokes operator as the coefficient-array map DenseSystem assembles."""
    return lambda c: apply_A(SpectralField(s.grid, c)).coeffs


def test_dense_basis_orthonormal(tiny_system):
    D = tiny_system.dim
    assert D == 8
    assert tiny_system.basis.shape == (D, 2) + tiny_system.grid.shape
    basis = _basis_fields(tiny_system)
    G = np.array([[inner_product(a, b) for b in basis] for a in basis])
    assert np.allclose(G, np.eye(D), atol=1e-12)


def test_dense_roundtrip(tiny_system, rng):
    u = random_field(tiny_system.grid, rng)
    x = tiny_system.coords(u.coeffs)
    back = tiny_system.from_coords(x)
    assert np.allclose(back, u.coeffs, atol=1e-13)


def test_dense_a_matrix_diagonal_spd(tiny_system):
    A = tiny_system.a_matrix
    eigs = np.diag(A)
    assert np.all(eigs > 0)
    assert np.allclose(A, A.T, atol=1e-13)
    # basis fields are Stokes eigenfields: A dense is diagonal
    assert float(np.max(np.abs(A - np.diag(eigs)))) <= 1e-12 * float(np.max(eigs))
    # column test: dense column = spectral application of the basis field
    for j, e in enumerate(tiny_system.basis):
        col = tiny_system.coords(_apply_A(tiny_system)(e))
        assert np.allclose(col, A[:, j], atol=1e-13)


def test_dense_b_tensor_skew(tiny_system):
    T = b_tensor(tiny_system)
    assert float(np.max(np.abs(T + np.swapaxes(T, 1, 2)))) <= 1e-12


def test_trilinear_matches_dense_contraction(tiny_system, rng):
    T = b_tensor(tiny_system)
    s = tiny_system
    for _ in range(3):
        p, q, r = (random_field(s.grid, rng) for _ in range(3))
        xp, xq, xr = s.coords(p.coeffs), s.coords(q.coeffs), s.coords(r.coeffs)
        dense_val = float(np.einsum("i,j,k,ijk->", xp, xq, xr, T))
        assert dense_val == pytest.approx(trilinear_b(p, q, r), rel=1e-11, abs=1e-12)


def test_dense_adjoint_is_transpose(tiny_system, rng):
    m1 = random_field(tiny_system.grid, rng)
    m2 = random_field(tiny_system.grid, rng)
    pair = PairStencil(tiny_system.grid, m1.coeffs, m2.coeffs, tiny_system.params)
    M_diff = tiny_system.step_matrix(pair.apply, 0.05)
    M_adj = tiny_system.step_matrix(pair.apply_transpose, 0.05)
    assert float(np.max(np.abs(M_adj - M_diff.T))) <= 1e-12


def test_dense_operator_equivalence(tiny_system, rng):
    # dense matrix application == direct spectral application, for every block
    s = tiny_system
    m1, m2 = random_field(s.grid, rng), random_field(s.grid, rng)
    pair = PairStencil(s.grid, m1.coeffs, m2.coeffs, s.params).apply
    state = StateStencil(s.grid, m1.coeffs, s.params).apply
    L_pair = s.assemble(pair)
    L_state = s.assemble(state)
    for _ in range(5):
        u = random_field(s.grid, rng)
        x = s.coords(u.coeffs)
        for M, op in ((s.a_matrix, _apply_A(s)), (L_pair, pair), (L_state, state)):
            dense = M @ x
            spectral = s.coords(op(u.coeffs))
            scale = max(float(np.max(np.abs(dense))), 1e-30)
            assert float(np.max(np.abs(dense - spectral))) <= 1e-12 * scale


@pytest.mark.parametrize("d,n", [(2, 4), (2, 6), (3, 4)])
def test_dense_pairings_match_inner_product_loop(d, n):
    # coords and assemble each make one pairing against the stacked basis;
    # every entry is bitwise the inner_product of the per-basis loop
    s = DenseSystem(Grid(d=d, n=n), OperatorParams(mu=1.0, alpha=0.1, beta=1.0))
    rng = np.random.default_rng(611)
    u, m1, m2 = (random_field(s.grid, rng) for _ in range(3))
    pair = PairStencil(s.grid, m1.coeffs, m2.coeffs, s.params)

    def bits(x):
        return np.ascontiguousarray(x).view(np.uint64)

    basis = _basis_fields(s)
    loop = np.array([inner_product(u, e) for e in basis])
    assert np.array_equal(bits(s.coords(u.coeffs)), bits(loop))
    for op in (_apply_A(s), pair.apply):
        cols = [np.array([inner_product(SpectralField(s.grid, op(e)), b) for b in basis]) for e in s.basis]
        assert np.array_equal(bits(s.assemble(op)), bits(np.column_stack(cols)))


def test_dense_dimension_cap():
    grid = Grid(d=3, n=4)  # 13 representatives x 2 tangents x 2 phases = 52
    params = OperatorParams(mu=1.0, alpha=0.1, beta=1.0)
    sys3 = DenseSystem(grid, params)
    assert sys3.dim == 52
    with pytest.raises(ValueError, match="dense dimension"):
        DenseSystem(Grid(d=3, n=6), params)


def test_state_matches_dense_reference_order(tiny_system, rng):
    s = tiny_system
    m0 = random_field(s.grid, rng, l2=0.5)
    f_fn = random_forcing(s.grid, rng, l2=1.0, t_scale=0.5)
    nts = [4, 8, 16]
    ref = s.state_reference(m0.coeffs, f_fn, 0.5, nts[-1], refine=64)
    errors, dts = [], []
    for nt in nts:
        f = Trajectory(s.grid, 0.5, f_fn(np.linspace(0.0, 0.5, nt + 1)))
        run = solve_state(m0, f, s.params)
        e = run.solution.coeffs - ref.coeffs[:: nts[-1] // nt]
        errors.append(float(np.max(np.sqrt(np.maximum(parseval_pairing(s.grid, e, e), 0.0)))))
        dts.append(0.5 / nt)
    assert observed_order(dts, errors) >= 0.9


def test_difference_and_adjoint_match_dense(tiny_system, rng):
    # same-dt dense LU stepping reproduces the matrix-free solves
    import cbfctl as c

    s = tiny_system
    t_end, nt = 0.5, 8
    dt = t_end / nt
    m0 = random_field(s.grid, rng, l2=0.5)
    f1 = random_trajectory(s.grid, t_end, nt, rng, l2=1.0)
    f2 = f1 + random_trajectory(s.grid, t_end, nt, rng, l2=0.5)
    h = random_trajectory(s.grid, t_end, nt, rng, l2=1.0)
    run1 = solve_state(m0, f1, s.params, picard_tol=1e-13, max_iters=400)
    run2 = solve_state(m0, f2, s.params, picard_tol=1e-13, max_iters=400)

    diff = c.solve_difference(run1, run2, picard_tol=1e-13, max_iters=400)
    x = np.zeros(s.dim)
    for n in range(nt):
        M = s.step_matrix(PairStencil(s.grid, run1.solution.coeffs[n], run2.solution.coeffs[n], s.params).apply, dt)
        g = s.coords(f1.coeffs[n] - f2.coeffs[n])
        x = np.linalg.solve(M, x + dt * g)
        got = s.coords(diff.trajectory.coeffs[n + 1])
        assert np.allclose(got, x, atol=1e-10)

    adj = c.solve_adjoint(
        (run1.solution, run2.solution), h, 0.0, s.params,
        kappa=s.params.kappa_star(), picard_tol=1e-13, max_iters=400,
    )
    q = np.zeros(s.dim)
    for n in reversed(range(nt)):
        pair = PairStencil(s.grid, run1.solution.coeffs[n], run2.solution.coeffs[n], s.params)
        M = s.step_matrix(pair.apply_transpose, dt)
        q = np.linalg.solve(M, q + dt * s.coords(h.coeffs[n + 1]))
        got = s.coords(adj.solution.coeffs[n])
        assert np.allclose(got, q, atol=1e-10)


def test_duality_trivial_zero_case(tiny_system, rng):
    import cbfctl as c

    s = tiny_system
    m0 = random_field(s.grid, rng, l2=0.5)
    f = random_trajectory(s.grid, 0.5, 8, rng)
    run1 = solve_state(m0, f, s.params)
    run2 = solve_state(m0, f, s.params)
    h = Trajectory.zero(s.grid, 0.5, 8)
    diff = c.solve_difference(run1, run2)
    adj = c.solve_adjoint((run1.solution, run2.solution), h, 0.0, s.params, kappa=s.params.kappa_star())
    rep = c.duality_residual(adj, run1, run2, difference=diff.trajectory)
    assert rep.delta_form == 0.0
    assert rep.limit_form == 0.0


def test_same_dt_dense_matches_spectral(tiny_system, rng):
    # at identical dt the dense LU path and the Picard path agree to solver tol
    s = tiny_system
    m0 = random_field(s.grid, rng, l2=0.5)
    f_fn = random_forcing(s.grid, rng, l2=1.0, t_scale=0.5)
    nt = 8
    ref = s.state_reference(m0.coeffs, f_fn, 0.5, nt, refine=1)
    f = Trajectory(s.grid, 0.5, f_fn(np.linspace(0.0, 0.5, nt + 1)))
    run = solve_state(m0, f, s.params, picard_tol=1e-13, max_iters=400)
    e = run.solution.coeffs - ref.coeffs
    assert np.max(np.sqrt(np.maximum(parseval_pairing(s.grid, e, e), 0.0))) <= 1e-9


# ----------------------------------------------------------------------
# experiments and CLI
# ----------------------------------------------------------------------

def test_build_tracking_problem_interior(rng):
    cfg = config_from_dict({"n": 8, "nt": 16, "t_end": 0.5, "radius": 10.0})
    with pytest.raises(TypeError, match="rng"):
        build_tracking_problem(cfg)
    problem, f_sharp, hidden = build_tracking_problem(cfg, cfg.rng())
    from cbfctl.fields import time_l2_norm

    assert time_l2_norm(f_sharp) <= 0.4 * cfg.radius + 1e-12
    assert problem.target.nt == 16


def test_cli_simulate_and_artifacts(tmp_path):
    cfg = _write_config(tmp_path, nt=8)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "state.cbft").exists()
    lines = (out / "norms.csv").read_text().strip().splitlines()
    assert lines[0] == "t,l2,v_norm,l4"
    assert len(lines) == 10
    assert (out / "norms.svg").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["experiment"] == "simulate"
    assert summary["all_pass"] is True
    assert "energy_equality_residual" in summary["checks"]
    # the gated a-priori margin is the one over t > 0; at t = 0 both sides are ||m0||^2
    margin = summary["checks"]["energy_bound_margin_t_pos"]
    assert margin["kind"] == "margin" and margin["value"] > 0.0


def test_cli_config_error_exit_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"beta": -2}))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
    assert main(["simulate", "--config", str(tmp_path / "nothere.json"), "--out", str(tmp_path / "o")]) == 3


def test_cli_exit_3_only_for_input_errors(tmp_path, monkeypatch):
    import cbfctl.cli as cli
    from cbfctl.fields import CBFTFormatError, GridMismatchError
    from cbfctl.state_solver import HypothesisViolatedError

    cfg = _write_config(tmp_path, nt=8)
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]

    def raising(exc):
        def run(*args, **kwargs):
            raise exc
        return run

    # no CLI path reads a CBFT file, so a CBFTFormatError is a bug too
    monkeypatch.setattr(cli, "run_experiment", raising(CBFTFormatError("CBFT file has 8 trailing bytes")))
    with pytest.raises(CBFTFormatError):
        main(argv)
    # the config's coefficients admit no stability split
    monkeypatch.setattr(cli, "run_experiment", raising(HypothesisViolatedError("kappa=1 needs 0 < kappa < 1")))
    assert main(argv) == 3
    # a grid mismatch or an internal ValueError is a bug, not a config error
    monkeypatch.setattr(cli, "run_experiment", raising(GridMismatchError("grid mismatch")))
    with pytest.raises(GridMismatchError):
        main(argv)
    monkeypatch.setattr(cli, "run_experiment", raising(ValueError("internal")))
    with pytest.raises(ValueError, match="internal"):
        main(argv)


def test_cli_status_names_failing_records(tmp_path, monkeypatch, capsys):
    import cbfctl.experiments as experiments

    def runner(config, out_dir, ledger):
        ledger.margin("kept_margin", 1.0, 0.0)
        ledger.margin("broken_margin", -1.0, 0.0)

    monkeypatch.setitem(experiments._RUNNERS, "simulate", runner)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 1
    line = capsys.readouterr().out.strip()
    assert line == f"cbfctl simulate: INVARIANT VIOLATION (2 checks, 1 failed: broken_margin, out={out})"


def test_cli_verify_hypothesis_violation_exit_3(tmp_path, capsys):
    # 2*beta*mu = 0.6 admits no kappa in (0, 1): verify's stability check stops the run
    cfg = _write_config(tmp_path, nt=8, t_end=0.25, beta=0.3)
    with pytest.warns(RuntimeWarning, match="a-priori energy bound is not covered"):
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "config error" in err
    assert "2*beta*mu = 0.6" in err


def test_cli_seed_override_and_determinism(tmp_path):
    cfg = _write_config(tmp_path, nt=8)
    out1, out2, out3 = (tmp_path / f"out{i}" for i in (1, 2, 3))
    assert main(["simulate", "--config", str(cfg), "--out", str(out1), "--seed", "99"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "99"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out3), "--seed", "100"]) == 0
    assert (out1 / "norms.csv").read_bytes() == (out2 / "norms.csv").read_bytes()
    assert (out1 / "norms.csv").read_bytes() != (out3 / "norms.csv").read_bytes()


def test_cli_optimize_byte_for_byte(tmp_path):
    cfg = _write_config(tmp_path, nt=8, **{"lambda": 1e-3})
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert main(["optimize", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["optimize", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("trace.csv", "ioc.csv", "control.cbft"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_seed_not_an_integer_exit_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, nt=8)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "abc"])
    assert exc.value.code == 3
    assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err


def test_cli_negative_seed_exit_3(tmp_path, capsys):
    # the override goes through the config schema, whose seed must be >= 0
    cfg = _write_config(tmp_path, nt=8)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "-5"])
    assert exc.value.code == 3
    assert "argument --seed: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_unknown_flag_exit_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, nt=8)
    for flag in ("--threads", "--bogus"):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), flag, "2"])
        assert exc.value.code == 3
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


def test_cli_unreadable_config_exit_3(tmp_path, capsys):
    # any OSError of the read, here a directory, is a config error that names its cause
    assert main(["verify", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 3
    assert f"config error: config: cannot read {tmp_path} ({os.strerror(errno.EISDIR)})" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_out_not_a_directory_exit_3(tmp_path, capsys, monkeypatch):
    # --out naming an existing file is an argument error, raised before the experiment runs
    import cbfctl.cli as cli

    def refuse(*args):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "run_experiment", refuse)
    out = tmp_path / "taken"
    out.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(_write_config(tmp_path, nt=8)), "--out", str(out)])
    assert exc.value.code == 3
    assert f"argument --out: cannot create directory {out} ({os.strerror(errno.EEXIST)})" in capsys.readouterr().err


def test_cli_help_exit_0(capsys):
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: cbfctl" in capsys.readouterr().out


def test_picard_max_iters_reaches_every_solve(tmp_path, monkeypatch):
    # every Picard solve of verify and optimize must get the config's sweep limit
    import cbfctl.state_solver as state_solver

    real = state_solver.picard_solve
    limits = []

    def spy(grid, dinv, rhs, napply, dt, tol, max_iters, step=None):
        limits.append(max_iters)
        return real(grid, dinv, rhs, napply, dt, tol, max_iters, step)

    monkeypatch.setattr(state_solver, "picard_solve", spy)
    verify = _write_config(tmp_path, "verify.json", picard_max_iters=150)
    optimize = _write_config(
        tmp_path, "optimize.json", tol_vi=1e-4, picard_max_iters=150, **{"lambda": 1e-3}
    )
    # at nt=16 verify's O(dt) order checks may fail (exit 1); only the solves' limits matter here
    assert main(["verify", "--config", str(verify), "--out", str(tmp_path / "v")]) in (0, 1)
    assert main(["optimize", "--config", str(optimize), "--out", str(tmp_path / "o")]) == 0
    assert limits and set(limits) == {150}


def test_cli_solver_failure_exit_2(tmp_path):
    # absurd amplitude and step size: Picard cannot converge
    cfg = _write_config(tmp_path, nt=2, t_end=10.0, amplitude=500.0)
    out = tmp_path / "outfail"
    with np.errstate(all="ignore"):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    failure = json.loads((out / "summary.json").read_text())
    assert failure["partial_outputs"] is True
    assert "NonConvergenceError" in failure["error"]


def test_cli_adjoint_experiment(tmp_path):
    for delta in (0.0, 0.1):
        cfg = _write_config(tmp_path, nt=8, delta=delta)
        out = tmp_path / f"outadj{delta:g}"
        assert main(["adjoint", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "adjoint.csv").read_text().splitlines()
        assert lines[0] == "t,q_l2,q_v,duality_running"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checks"]["duality_delta_form"]["pass"] is True
        # the running column ends at the certified residual, digit for digit
        assert float(lines[-1].split(",")[-1]) == summary["checks"]["duality_delta_form"]["value"]
        derivative = summary["checks"]["derivative_bound_margin"]
        assert derivative["kind"] == "margin" and derivative["pass"] is True
        assert summary["checks"]["derivative_bound_slack"]["value"] > 1.0


def test_cli_oracle_experiment(tmp_path):
    cfg = _write_config(tmp_path, n=4, nt=8)
    out = tmp_path / "outoracle"
    assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["adjoint_matrix_transpose_defect"]["pass"] is True
    assert summary["checks"]["state_reference_order"]["pass"] is True


def test_cli_oracle_default_config_exit_3(tmp_path, capsys):
    # the default n=16 needs a dense dimension of 120, above the cap of 64
    cfg = tmp_path / "defaults.json"
    cfg.write_text("{}")
    assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "config error: n: dense dimension 120 at n=16 exceeds the cap 64" in err


@pytest.mark.parametrize("nt", [8, 12, 18])
def test_cli_oracle_runs_at_any_nt(tmp_path, nt):
    # the order study's ladder (max(nt // 4, 4), ...) doubles, so it aligns at every nt: here (4, 8, 16)
    cfg = _write_config(tmp_path, n=6, nt=nt)
    out = tmp_path / "o"
    assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "oracle_order.csv").read_text().splitlines()
    assert rows[0] == "dt,error"
    assert [float(row.split(",")[0]) for row in rows[1:]] == [0.5 / 4, 0.5 / 8, 0.5 / 16]


def test_reference_errors_rejects_misaligned_ladder():
    # the nt = 4 run would be compared with the reference at every 4th of 18 steps
    system = DenseSystem(Grid(d=2, n=4), OperatorParams(mu=1.0, alpha=0.1, beta=1.0))
    rng = np.random.default_rng(7)
    f_fn = random_forcing(system.grid, rng, l2=1.0, t_scale=0.5)
    with pytest.raises(ValueError, match="must divide the finest"):
        reference_errors(system, random_field(system.grid, rng, l2=1.0), f_fn, 0.5, (4, 9, 18))


def test_cli_delta_sweep_experiment(tmp_path):
    cfg = _write_config(tmp_path, n=8, nt=8, t_end=0.25)
    out = tmp_path / "outsweep"
    assert main(["delta-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "delta_sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "delta,q_dist"
    dists = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(dists[i] > dists[i + 1] for i in range(len(dists) - 1))


VERIFY_ROWS = """trilinear_bqq_rel trilinear_alternation_rel forchheimer_identity_rel monotonicity_gap_min
    pair_secant_rel pair_tangent_rel
    energy_equality_order energy_bound_margin_rel_min_t_pos
    lipschitz_margin_rel_min lipschitz_rho_ratio_4 duality_delta0_rel_max duality_delta_0.1_order
    adjoint_energy_margin_rel_min derivative_bound_margin_rel_min gradient_fd_rel_max vi_residual_rel
    ioc_residual_rel_min oracle_transpose_defect""".split()


def test_cli_verify_experiment_defaults(tmp_path):
    # the nine registry checks on the default config: every row, each passing
    cfg = tmp_path / "defaults.json"
    cfg.write_text("{}")
    out = tmp_path / "outverify"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_pass"] is True
    rows = [line.split(",") for line in (out / "verify.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == VERIFY_ROWS
    assert all(row[-1] == "True" for row in rows)
    # records that are not numbers stay out of verify.csv
    assert set(summary["checks"]) - set(VERIFY_ROWS) == {
        "delta_ladder_monotone", "gradient_fd_table", "optimize_cost_reduced_5x_within_250",
        "ioc_q_distance_decreasing", "optimality_unscaled",
    }


def test_verify_duality_order_at_seed_2():
    # fitted over (nt, 2nt, 4nt); over (nt/4, nt/2, nt) this read 0.774
    ledger = MarginLedger()
    duality(verify_profile(config_from_dict({"seed": 2})), ledger)
    assert ledger.records["duality_delta_0.1_order"]["value"] >= 0.9


def test_verify_duality_order_at_small_nt():
    # the delta > 0 ladder starts at 32 steps; from nt = 8, (8, 16, 32) read 0.802
    ledger = MarginLedger()
    duality(verify_profile(config_from_dict({"d": 2, "n": 8, "nt": 8, "t_end": 0.5, "seed": 7})), ledger)
    assert ledger.records["duality_delta_0.1_order"]["value"] >= 0.9


def test_verify_energy_check_at_nt_2():
    # the energy-fit draw takes nt // 4 steps, at least one
    ledger = MarginLedger()
    energy(verify_profile(config_from_dict({"d": 2, "n": 8, "nt": 2, "t_end": 0.5, "seed": 7})), ledger)
    assert {"energy_equality_order", "energy_bound_margin_rel_min_t_pos"} <= set(ledger.records)


def test_verify_delta_ladder_at_nt_1():
    # delta acts through the previous backward step's |q|^2, and one step starts from q(T) = 0:
    # the delta-ladder draw takes max(nt, 2) steps, so it is the config's own at nt >= 2
    profile = verify_profile(config_from_dict({"d": 2, "n": 8, "nt": 1, "t_end": 0.5, "seed": 7}))
    assert profile.adjoint[0].nt == 1 and profile.adjoint[1].nt == 2
    for nt in (2, 3, 16):
        assert verify_profile(config_from_dict({"nt": nt})).adjoint[1].nt == nt
    ledger = MarginLedger()
    adjoint_bounds(profile, ledger)
    ladder = ledger.records["delta_ladder_monotone"]
    assert ladder["pass"] is True and min(ladder["value"]) > 0.0
    assert ledger.all_pass


def test_cli_delta_sweep_at_nt_1_exit_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, nt=1)
    assert main(["delta-sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "config error: nt: delta-sweep needs nt >= 2" in capsys.readouterr().err


def test_cli_adjoint_at_nt_1(tmp_path):
    # the difference defect is taken on the samples n >= 1 and scaled by the right-endpoint
    # norm of m1 - m2 over them; the left-endpoint norm sees only m1 - m2 = 0 at n = 0
    cfg = _write_config(tmp_path, nt=1)
    out = tmp_path / "o"
    assert main(["adjoint", "--config", str(cfg), "--out", str(out)]) == 0
    defect = json.loads((out / "summary.json").read_text())["checks"]["difference_defect"]
    assert defect["pass"] is True and 0.0 < defect["value"] <= defect["tolerance"]
    assert defect["tolerance"] > 1e-3


def test_summary_is_strict_json_with_undefined_margins(tmp_path):
    # 2*beta*mu = 0.6 < 1/kappa: the adjoint margins are undefined (NaN), written as null
    cfg = _write_config(tmp_path, nt=8, beta=0.3)
    out = tmp_path / "o"
    with pytest.warns(RuntimeWarning):
        assert main(["adjoint", "--config", str(cfg), "--out", str(out)]) == 1

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    checks = summary["checks"]
    assert checks["adjoint_energy_margin"]["value"] is None
    assert checks["derivative_bound_margin"]["value"] is None and checks["derivative_bound_margin"]["tolerance"] is None
    assert checks["adjoint_energy_margin"]["pass"] is False and checks["derivative_bound_margin"]["pass"] is False
    assert checks["derivative_bound_slack"]["value"] is None and checks["derivative_bound_slack"]["pass"] is False
    assert summary["all_pass"] is False


def test_cli_optimize_experiment(tmp_path):
    # tol_vi relaxed so the projected gradient converges quickly at this size
    cfg = _write_config(
        tmp_path, n=8, nt=16, t_end=0.5, radius=10.0, amplitude=1.0, tol_vi=1e-4,
        **{"lambda": 1e-3},
    )
    out = tmp_path / "outopt"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "trace.csv").read_text().strip().splitlines()
    assert rows[0] == "iter,J,grad_norm,step,backtracks,vi_residual"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["vi_residual"]["pass"] is True
    assert summary["checks"]["ioc_q_distance_decreasing"]["pass"] is True
    assert summary["checks"]["optimizer_stop"]["value"] in ("tol", "stalled", "max_iters")
    assert (out / "control.cbft").exists() and (out / "cost.svg").exists()


def test_cli_optimize_kappa_reaches_ioc_margin(tmp_path):
    # kappa enters only the adjoint energy margin: the optimization itself does not move
    outs = {}
    for kappa in (0.9, None):
        cfg = _write_config(tmp_path, f"k{kappa}.json", nt=8, kappa=kappa, **{"lambda": 1e-3})
        outs[kappa] = tmp_path / f"out{kappa}"
        assert main(["optimize", "--config", str(cfg), "--out", str(outs[kappa])]) == 0
    assert (outs[0.9] / "trace.csv").read_bytes() == (outs[None] / "trace.csv").read_bytes()
    ioc = {k: [line.split(",") for line in (out / "ioc.csv").read_text().splitlines()] for k, out in outs.items()}
    assert ioc[0.9][0] == ["rho", "residual", "q_distance", "adjoint_margin"]
    assert [row[:3] for row in ioc[0.9]] == [row[:3] for row in ioc[None]]
    assert all(a[3] != b[3] for a, b in zip(ioc[0.9][1:], ioc[None][1:]))


# Cells of these columns are names or flags.  Every other CSV cell is a number,
# except "None", the tolerance of a verify.csv check that has none (a flag).
TEXT_COLUMNS = {"check", "kind", "pass"}


@pytest.mark.parametrize(
    "experiment,overrides",
    [
        ("simulate", {"nt": 8}),
        ("adjoint", {"nt": 8, "delta": 0.1}),
        ("delta-sweep", {"nt": 8, "t_end": 0.25}),
        ("optimize", {"tol_vi": 1e-4, "lambda": 1e-3}),
        ("verify", {}),
        ("oracle", {"n": 4, "nt": 8}),
    ],
)
def test_csv_cells_parse_as_floats(tmp_path, experiment, overrides):
    # every numeric cell is a plain float literal, e.g. never np.float64(0.5)
    cfg = _write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    # at nt=16 verify's O(dt) order checks may fail (exit 1); only the files matter here
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) in (0, 1)
    paths = sorted(out.glob("*.csv"))
    assert paths
    for path in paths:
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        assert rows, path.name
        for row in rows:
            assert len(row) == len(header), path.name
            for column, cell in zip(header, row):
                if column not in TEXT_COLUMNS and (column, cell) != ("tolerance", "None"):
                    float(cell)  # raises on a cell that is not a number
