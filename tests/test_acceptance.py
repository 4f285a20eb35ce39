"""Acceptance gate: the nine registry checks at desk scale, one test each.

Each test runs one check of ``cbfctl.checks`` (the checks ``cbfctl verify``
runs) with the acceptance profile below, property-based at 2D n=32 and 3D
n=16 with deterministic seeds, and prints its PASS/FAIL line from the check's
ledger.  Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines
as they complete.
"""

from cbfctl.checks import CHECKS, Draw, Gradient, MarginLedger, Oracle, Profile, Samples, ladder, optimize_certificate
from cbfctl.harness import config_from_dict

SEED = 20260808

# mu = 1, alpha = 0.1, beta = 1 (2*beta*mu = 2, kappa* = 0.75); Picard 1e-11
PROFILE = Profile(
    config=config_from_dict({}),
    trilinear=Samples(((2, 32, 500, SEED + 2), (3, 16, 500, SEED + 3)), (0.2, 2.0), spawn=False),
    forchheimer=Samples(
        ((2, 32, 600, SEED + 20), (3, 16, 400, SEED + 30)), (0.2, 2.0), spawn=False, identity_share=0.5
    ),
    energy=(Draw(2, 32, 1.0, 32, 0.0, 1.0, SEED + 3), Draw(2, 32, 0.5, 64, 0.0, 1.0, SEED + 33, 100)),
    lipschitz=(Draw(2, 32, 0.5, 64, 0.5, 1.0, SEED + 4, 100), Draw(2, 32, 0.5, 64, 0.5, 1.0, SEED + 44)),
    duality=(Draw(2, 32, 1.0, 128, 0.5, 1.0, SEED + 5, 5), Draw(2, 16, 0.5, 32, 0.5, 1.0, SEED + 55)),
    adjoint=(Draw(2, 16, 0.5, 32, 0.5, 1.0, SEED + 6, 100), Draw(2, 16, 0.5, 64, 0.5, 1.0, SEED + 66)),
    delta_ladder=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5),
    gradient=Gradient(
        Draw(2, 8, 0.25, 1536, 0.1, 0.1, SEED + 77), 0.1, 20, SEED + 7, 1e-4,
        table_nts=(192, 384, 768, 1536), table_eps=(1e-3, 1e-4, 1e-5, 1e-6), table_seed=SEED + 777,
    ),
    optimality=optimize_certificate(
        config_from_dict({"experiment": "optimize", "n": 16, "nt": 64, "t_end": 1.0, "lambda": 1e-3, "seed": SEED + 8})
    ),
    oracle=Oracle((4, 6), 1.0 / 32, 3, SEED + 9, ref_t_end=0.5, ref_nts=ladder(4, 3), ref_l2=(0.5, 1.0)),
)


def _check(criterion: int) -> tuple[MarginLedger, dict]:
    ledger = MarginLedger()
    CHECKS[criterion - 1](PROFILE, ledger)
    return ledger, {name: rec["value"] for name, rec in ledger.records.items()}


def _report(criterion: int, ledger: MarginLedger, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ledger.all_pass else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ledger.all_pass, line


def test_criterion_1_trilinear_identities():
    """b(p,q,q) = 0 and alternation on 1000 random dealiased triples, d = 2, 3."""
    ledger, v = _check(1)
    worst = max(v["trilinear_bqq_rel"], v["trilinear_alternation_rel"])
    _report(1, ledger, f"trilinear identity worst relative residual {worst:.3e} <= 1e-12")


def test_criterion_2_forchheimer_identities():
    """<C(p),p> = ||p||_4^4 to 1e-10 rel; monotonicity gap >= -1e-10, 1000 pairs; the pair operator
    as the secant and the tangent of the state operator to 1e-12 on the 500 identity pairs."""
    ledger, v = _check(2)
    detail = (
        f"identity rel {v['forchheimer_identity_rel']:.3e} <= 1e-10, min gap {v['monotonicity_gap_min']:.3e} >= -1e-10, "
        f"secant rel {v['pair_secant_rel']:.3e} <= 1e-12, tangent rel {v['pair_tangent_rel']:.3e} <= 1e-12"
    )
    _report(2, ledger, detail)


def test_criterion_3_energy_equality_and_bound():
    """Energy equality O(dt) with order >= 0.9; a-priori margin on 100 forced runs."""
    ledger, v = _check(3)
    detail = f"energy order {v['energy_equality_order']:.2f} >= 0.9, worst margin/K {v['energy_bound_margin_rel_min_t_pos']:.3e} >= -1e-8"
    _report(3, ledger, detail)


def test_criterion_4_lipschitz_estimate():
    """Stability margin >= -1e-8*scale on 100 pairs; quadratic rho scaling 4 +- 10%."""
    ledger, v = _check(4)
    detail = f"worst margin/scale {v['lipschitz_margin_rel_min']:.3e} >= -1e-8, rho ratio {v['lipschitz_rho_ratio_4']:.3f} in 4 +- 10%"
    _report(4, ledger, detail)


def test_criterion_5_discrete_duality():
    """Exact transpose duality at delta = 0; O(dt) residual, order >= 0.9, delta > 0."""
    ledger, v = _check(5)
    detail = (
        f"delta=0 duality rel {v['duality_delta0_rel_max']:.3e} <= 1e-10, delta>0 order "
        f"{v['duality_delta_0.1_order']:.2f} >= 0.9"
    )
    _report(5, ledger, detail)


def test_criterion_6_adjoint_bounds_and_delta_ladder():
    """Adjoint energy margin >= -1e-8*K on 100 instances; monotone delta ladder."""
    ledger, v = _check(6)
    monotone = ledger.records["delta_ladder_monotone"]["pass"]
    detail = f"worst adjoint margin/K {v['adjoint_energy_margin_rel_min']:.3e} >= -1e-8, delta ladder monotone: {monotone}"
    _report(6, ledger, detail)


def test_criterion_7_gradient_consistency():
    """Central FD vs adjoint gradient: rel error <= 1e-4 on 20 directions."""
    ledger, v = _check(7)
    print("\n  (dt, eps) refinement table, relative FD-vs-adjoint error:")
    print("    nt\\eps  " + "  ".join(f"{e:9.0e}" for e in PROFILE.gradient.table_eps))
    for nt, cells in v["gradient_fd_table"]:
        print(f"    {nt:6d}  " + "  ".join(f"{c:9.2e}" for c in cells))
    _report(7, ledger, f"worst FD relative error over 20 directions {v['gradient_fd_rel_max']:.3e} <= 1e-4")


def test_criterion_8_optimality():
    """Manufactured tracking (the optimize experiment's certificate): 10x cost
    drop within 100 iterations; VI and IOC certificates at the returned point;
    q_rho -> q monotonically."""
    ledger, v = _check(8)
    cut, raw = v["optimize_cost_reduced_10x_within_100"], v["optimality_unscaled"]
    monotone = ledger.records["ioc_q_distance_decreasing"]["pass"]
    detail = (
        f"J0/J100 = {cut['J0'] / cut['J_window']:.1f} >= 10, VI {raw['vi']:.2e} >= {-1e-6 * raw['scale']:.2e}, "
        f"IOC min {raw['ioc_min']:.2e}, q_rho distances monotone: {monotone}"
    )
    _report(8, ledger, detail)


def test_criterion_9_oracle_equivalence():
    """Dense Galerkin reference: transpose identity to 1e-12, operator match,
    and O(dt) agreement with the spectral solvers."""
    ledger, v = _check(9)
    detail = (
        f"transpose defect {v['oracle_transpose_defect']:.3e} <= 1e-12, operator match "
        f"{v['oracle_operator_rel']:.3e} <= 1e-12, reference order {v['oracle_reference_order']:.2f} >= 0.9"
    )
    _report(9, ledger, detail)
