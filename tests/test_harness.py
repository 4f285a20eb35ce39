import json
import math

import numpy as np
import pytest

from cbfctl import (
    ConfigError,
    Grid,
    OperatorParams,
    Trajectory,
    apply_A,
    inner_product,
    parse_config,
    random_field,
    random_trajectory,
    solve_state,
)
from cbfctl.checks import MarginLedger, duality, observed_order, verify_profile
from cbfctl.cli import main
from cbfctl.fields import random_forcing
from cbfctl.harness import DenseSystem, build_tracking_problem, config_from_dict
from cbfctl.operators import PairStencil, StateStencil, trilinear_b
from oracles import b_tensor


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


def test_parse_config_hypothesis_flag(tmp_path):
    path = _write_config(tmp_path, mu=1.0, beta=1.0)
    cfg = parse_config(path)
    # 2 beta mu = 2 > 1/0.75
    assert cfg.hypothesis_satisfied
    assert cfg.wellposed
    rep = cfg.hypothesis_report()
    assert rep["two_beta_mu"] == pytest.approx(2.0)
    weak = config_from_dict({"mu": 0.2, "beta": 1.0})
    assert not weak.wellposed


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


# ----------------------------------------------------------------------
# dense oracle
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_system():
    grid = Grid(d=2, n=4)
    params = OperatorParams(mu=1.0, alpha=0.1, beta=1.0)
    return DenseSystem(grid, params)


def test_dense_basis_orthonormal(tiny_system):
    D = tiny_system.dim
    assert D == 8
    G = np.array([
        [inner_product(a, b) for b in tiny_system.basis] for a in tiny_system.basis
    ])
    assert np.allclose(G, np.eye(D), atol=1e-12)


def test_dense_roundtrip(tiny_system, rng):
    u = random_field(tiny_system.grid, rng)
    x = tiny_system.field_to_vec(u)
    back = tiny_system.vec_to_field(x)
    assert np.allclose(back.coeffs, u.coeffs, atol=1e-13)


def test_dense_a_matrix_diagonal_spd(tiny_system):
    A = tiny_system.a_matrix
    eigs = np.diag(A)
    assert np.all(eigs > 0)
    assert np.allclose(A, A.T, atol=1e-13)
    # basis fields are Stokes eigenfields: A dense is diagonal
    assert float(np.max(np.abs(A - np.diag(eigs)))) <= 1e-12 * float(np.max(eigs))
    # column test: dense column = spectral application of the basis field
    for j, e in enumerate(tiny_system.basis):
        col = tiny_system.field_to_vec(apply_A(e))
        assert np.allclose(col, A[:, j], atol=1e-13)


def test_dense_b_tensor_skew(tiny_system):
    T = b_tensor(tiny_system)
    assert float(np.max(np.abs(T + np.swapaxes(T, 1, 2)))) <= 1e-12


def test_trilinear_matches_dense_contraction(tiny_system, rng):
    T = b_tensor(tiny_system)
    s = tiny_system
    for _ in range(3):
        p, q, r = (random_field(s.grid, rng) for _ in range(3))
        xp, xq, xr = s.field_to_vec(p), s.field_to_vec(q), s.field_to_vec(r)
        dense_val = float(np.einsum("i,j,k,ijk->", xp, xq, xr, T))
        assert dense_val == pytest.approx(trilinear_b(p, q, r), rel=1e-11, abs=1e-12)


def test_dense_adjoint_is_transpose(tiny_system, rng):
    m1 = random_field(tiny_system.grid, rng)
    m2 = random_field(tiny_system.grid, rng)
    M_diff = tiny_system.difference_step_matrix(m1, m2, 0.05)
    M_adj = tiny_system.adjoint_step_matrix(m1, m2, 0.05)
    assert float(np.max(np.abs(M_adj - M_diff.T))) <= 1e-12


def test_dense_operator_equivalence(tiny_system, rng):
    # dense matrix application == direct spectral application, for every block
    s = tiny_system
    m1, m2 = random_field(s.grid, rng), random_field(s.grid, rng)
    pair = PairStencil(m1, m2, s.params)
    state = StateStencil(m1, s.params)
    L_pair = s.assemble(pair.apply)
    L_state = s.assemble(state.apply)
    for _ in range(5):
        u = random_field(s.grid, rng)
        x = s.field_to_vec(u)
        for M, op in ((s.a_matrix, apply_A), (L_pair, pair.apply), (L_state, state.apply)):
            dense = M @ x
            spectral = s.field_to_vec(op(u))
            scale = max(float(np.max(np.abs(dense))), 1e-30)
            assert float(np.max(np.abs(dense - spectral))) <= 1e-12 * scale


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
    ref = s.state_reference(m0, f_fn, 0.5, nts[-1], refine=64)
    errors, dts = [], []
    for nt in nts:
        f = Trajectory.from_callable(s.grid, 0.5, nt, f_fn)
        run = solve_state(m0, f, s.params)
        stride = nts[-1] // nt
        err = max(
            math.sqrt(max(inner_product(run.solution[i] - ref[i * stride], run.solution[i] - ref[i * stride]), 0.0))
            for i in range(nt + 1)
        )
        errors.append(err)
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
        M = s.difference_step_matrix(run1.solution[n], run2.solution[n], dt)
        g = s.field_to_vec(f1[n] - f2[n])
        x = np.linalg.solve(M, x + dt * g)
        got = s.field_to_vec(diff.trajectory[n + 1])
        assert np.allclose(got, x, atol=1e-10)

    adj = c.solve_adjoint(
        (run1.solution, run2.solution), h, 0.0, s.params, picard_tol=1e-13, max_iters=400
    )
    q = np.zeros(s.dim)
    for n in reversed(range(nt)):
        M = s.adjoint_step_matrix(run1.solution[n], run2.solution[n], dt)
        q = np.linalg.solve(M, q + dt * s.field_to_vec(h[n + 1]))
        got = s.field_to_vec(adj.solution[n])
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
    adj = c.solve_adjoint((run1.solution, run2.solution), h, 0.0, s.params)
    rep = c.duality_residual(adj, run1, run2, difference=diff.trajectory)
    assert rep.delta_form == 0.0
    assert rep.limit_form == 0.0


def test_same_dt_dense_matches_spectral(tiny_system, rng):
    # at identical dt the dense LU path and the Picard path agree to solver tol
    s = tiny_system
    m0 = random_field(s.grid, rng, l2=0.5)
    f_fn = random_forcing(s.grid, rng, l2=1.0, t_scale=0.5)
    nt = 8
    ref = s.state_reference(m0, f_fn, 0.5, nt, refine=1)
    f = Trajectory.from_callable(s.grid, 0.5, nt, f_fn)
    run = solve_state(m0, f, s.params, picard_tol=1e-13, max_iters=400)
    worst = max(
        math.sqrt(max(inner_product(run.solution[i] - ref[i], run.solution[i] - ref[i]), 0.0))
        for i in range(nt + 1)
    )
    assert worst <= 1e-9


# ----------------------------------------------------------------------
# experiments and CLI
# ----------------------------------------------------------------------

def test_build_tracking_problem_interior(rng):
    cfg = config_from_dict({"n": 8, "nt": 16, "t_end": 0.5, "radius": 10.0})
    problem, f_sharp, hidden = build_tracking_problem(cfg)
    from cbfctl.fields import time_l2_norm

    assert time_l2_norm(f_sharp) <= 0.4 * cfg.radius + 1e-12
    assert problem.target.nt == 16


def test_cli_simulate_and_artifacts(tmp_path):
    cfg = _write_config(tmp_path, nt=8)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "state.cbft").exists()
    assert (out / "norms.csv").exists()
    assert (out / "norms.svg").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["experiment"] == "simulate"
    assert summary["all_pass"] is True
    assert "energy_equality_residual" in summary["checks"]


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

    monkeypatch.setattr(cli, "run_experiment", raising(CBFTFormatError("CBFT file has 8 trailing bytes")))
    assert main(argv) == 3
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


def test_cli_delta_sweep_experiment(tmp_path):
    cfg = _write_config(tmp_path, n=8, nt=8, t_end=0.25)
    out = tmp_path / "outsweep"
    assert main(["delta-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "delta_sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "delta,q_dist"
    dists = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(dists[i] > dists[i + 1] for i in range(len(dists) - 1))


VERIFY_ROWS = """trilinear_bqq_rel trilinear_alternation_rel forchheimer_identity_rel monotonicity_gap_min
    energy_equality_order energy_bound_margin_rel_min energy_bound_margin_rel_min_t_pos
    lipschitz_margin_rel_min lipschitz_rho_ratio_4 duality_delta0_rel_max duality_delta_0.1_order
    duality_delta_0.01_order adjoint_energy_margin_rel_min gradient_fd_rel_max vi_residual_rel
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
    for delta in ("0.1", "0.01"):
        assert ledger.records[f"duality_delta_{delta}_order"]["value"] >= 0.9


def test_cli_optimize_experiment(tmp_path):
    # tol_vi relaxed so the projected gradient converges quickly at this size
    cfg = _write_config(
        tmp_path, n=8, nt=16, t_end=0.5, radius=10.0, amplitude=1.0, tol_vi=1e-4,
        **{"lambda": 1e-3},
    )
    out = tmp_path / "outopt"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "trace.csv").read_text().strip().splitlines()
    assert rows[0] == "iter,J,grad_norm,step,vi_residual"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["vi_residual"]["pass"] is True
    assert summary["checks"]["ioc_q_distance_decreasing"]["pass"] is True
    assert (out / "control.cbft").exists() and (out / "cost.svg").exists()


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
