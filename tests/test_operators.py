import numpy as np
import pytest

from cbfctl import (
    Grid,
    GridMismatchError,
    OperatorParams,
    SpectralField,
    inner_product,
    norms,
    random_field,
    trilinear_b,
    zero_field,
)
from cbfctl.fields import quadrature, speed_squared
from cbfctl.operators import PairStencil, StateStencil, cubic_coeffs
from oracles import adjoint_convection, adjoint_forchheimer, apply_A, apply_B, apply_C, b_dual_norm, monotonicity_gap


def test_operator_params_validation():
    with pytest.raises(ValueError):
        OperatorParams(mu=0.0, alpha=0.1, beta=1.0)
    with pytest.raises(ValueError):
        OperatorParams(mu=1.0, alpha=0.0, beta=1.0)
    with pytest.raises(ValueError):
        OperatorParams(mu=1.0, alpha=0.1, beta=-1.0)
    p = OperatorParams(mu=1.0, alpha=0.1, beta=1.0)
    assert p.kappa_star() == pytest.approx(0.75)
    assert p.hypothesis_holds(0.75)
    assert not p.hypothesis_holds(0.4)
    assert not p.hypothesis_holds(1.5)
    weak = OperatorParams(mu=0.1, alpha=0.1, beta=1.0)
    assert not weak.wellposed()
    assert 0.0 < weak.kappa_star() < 1.0
    # the default kappa is admissible exactly when some kappa is: 2*beta*mu > 1
    for mu in (0.2, 0.5, 0.51, 2.0):
        pp = OperatorParams(mu=mu, alpha=0.1, beta=1.0)
        assert pp.hypothesis_holds(pp.kappa_star()) == (2.0 * pp.beta * pp.mu > 1.0)


def test_apply_A_eigenmode():
    g = Grid(d=2, n=16)
    from cbfctl import make_field

    u = make_field(g, [((1, 0), (0.0, 1.0))])
    assert np.allclose(apply_A(u).coeffs, u.coeffs)
    w = make_field(g, [((3, 4), (4.0, -3.0))])
    assert np.allclose(apply_A(w).coeffs, 25.0 * w.coeffs)
    assert np.all(apply_A(zero_field(g)).coeffs == 0)


def test_apply_A_quadratic_form(grid2d, grid3d, rng):
    for g in (grid2d, grid3d):
        u = random_field(g, rng)
        assert inner_product(apply_A(u), u) == pytest.approx(norms(u).v ** 2, rel=1e-12)
        # A is self-adjoint
        w = random_field(g, rng)
        assert inner_product(apply_A(u), w) == pytest.approx(inner_product(u, apply_A(w)), rel=1e-11)


def test_b_dual_norm_bound(grid2d, grid3d, rng):
    for g in (grid2d, grid3d):
        for _ in range(20):
            p = random_field(g, rng, l2=rng.uniform(0.2, 2.0))
            assert b_dual_norm(p) <= norms(p).l4 ** 2 * (1.0 + 1e-12)


@pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
def test_trilinear_identities(d, n, rng):
    g = Grid(d=d, n=n)
    for _ in range(50):
        p = random_field(g, rng)
        q = random_field(g, rng)
        r = random_field(g, rng)
        np_, nq, nr = norms(p), norms(q), norms(r)
        assert abs(trilinear_b(p, q, q)) <= 1e-12 * np_.v * nq.v**2
        assert abs(trilinear_b(p, q, r) + trilinear_b(p, r, q)) <= 1e-12 * np_.v * nq.v * nr.v


def test_apply_B_duality(grid2d, rng):
    p, q, r = (random_field(grid2d, rng) for _ in range(3))
    assert inner_product(apply_B(p, q), r) == pytest.approx(trilinear_b(p, q, r), rel=1e-11, abs=1e-13)
    assert float(np.max(np.abs(apply_B(zero_field(grid2d), q).coeffs))) == 0.0


def test_apply_B_grid_mismatch(rng):
    p = random_field(Grid(d=2, n=16), rng)
    q = random_field(Grid(d=2, n=12), rng)
    with pytest.raises(GridMismatchError):
        apply_B(p, q)
    with pytest.raises(GridMismatchError):
        trilinear_b(p, p, q)


def test_apply_C_identity_and_scaling(grid2d, grid3d, rng):
    for g in (grid2d, grid3d):
        p = random_field(g, rng)
        pairing = inner_product(apply_C(p), p)
        assert pairing == pytest.approx(norms(p).l4 ** 4, rel=1e-10)
        scaled = apply_C(SpectralField(g, 2.5 * p.coeffs))
        assert np.allclose(scaled.coeffs, 2.5**3 * apply_C(p).coeffs, rtol=1e-12, atol=1e-15)
    assert float(np.max(np.abs(apply_C(zero_field(grid2d)).coeffs))) == 0.0


def test_monotonicity_gap(grid2d, rng):
    p = random_field(grid2d, rng)
    assert abs(monotonicity_gap(p, p)) <= 1e-14
    # q = 0: gap = 3/4 ||p||_4^4
    gap0 = monotonicity_gap(p, zero_field(grid2d))
    assert gap0 == pytest.approx(0.75 * norms(p).l4 ** 4, rel=1e-10)
    for _ in range(200):
        a = random_field(grid2d, rng, l2=rng.uniform(0.1, 2.0))
        b = random_field(grid2d, rng, l2=rng.uniform(0.1, 2.0))
        assert monotonicity_gap(a, b) >= -1e-10


def test_adjoint_convection_duality(grid2d, grid3d, rng):
    for g in (grid2d, grid3d):
        m1, m2, q = (random_field(g, rng) for _ in range(3))
        out = adjoint_convection(m1, m2, q)
        for _ in range(10):
            w = random_field(g, rng)
            expected = trilinear_b(m1, w, q) + trilinear_b(w, m2, q)
            scale = norms(m1).v * norms(w).v * norms(q).v + norms(w).v * norms(m2).v * norms(q).v
            assert abs(inner_product(out, w) - expected) <= 1e-11 * max(scale, 1.0)
        assert float(np.max(np.abs(adjoint_convection(m1, m2, zero_field(g)).coeffs))) == 0.0
        assert (
            float(np.max(np.abs(adjoint_convection(zero_field(g), zero_field(g), q).coeffs))) == 0.0
        )


def test_adjoint_forchheimer_symmetry_and_collapse(grid2d, rng):
    beta = 1.3
    m1, m2, q, w = (random_field(grid2d, rng) for _ in range(4))
    # symmetric in the (q, w) pairing
    lhs = inner_product(adjoint_forchheimer(m1, m2, q, beta), w)
    rhs = inner_product(adjoint_forchheimer(m1, m2, w, beta), q)
    assert lhs == pytest.approx(rhs, rel=1e-11)
    # m1 = m2 = m: beta P{|m|^2 q} + 2 beta P{(m.q) m}
    m = m1
    g = grid2d
    mv = g.to_physical(m.coeffs)
    qv = g.to_physical(q.coeffs)
    expected = beta * np.sum(mv**2, axis=0) * qv + 2.0 * beta * np.sum(mv * qv, axis=0) * mv
    from cbfctl.fields import leray_project

    expected_field = leray_project(g, g.from_physical(expected))
    got = adjoint_forchheimer(m, m, q, beta)
    assert np.allclose(got.coeffs, expected_field.coeffs, rtol=1e-12, atol=1e-14)
    # positivity of the quadratic form
    for _ in range(20):
        mm = random_field(g, rng)
        qq = random_field(g, rng)
        assert inner_product(adjoint_forchheimer(mm, mm, qq, beta), qq) >= -1e-12


def test_forchheimer_difference_factorization(grid2d, rng):
    # applied to m1 - m2 the coupling reproduces beta (C(m1) - C(m2))
    beta = 0.7
    m1 = random_field(grid2d, rng)
    m2 = random_field(grid2d, rng)
    lhs = adjoint_forchheimer(m1, m2, SpectralField(grid2d, m1.coeffs - m2.coeffs), beta).coeffs
    rhs = beta * (apply_C(m1).coeffs - apply_C(m2).coeffs)
    scale = float(np.max(np.abs(rhs))) + 1e-30
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-11 * scale


def test_convection_difference_factorization(grid2d, rng):
    # B(m1) - B(m2) = B(m1, v) + B(v, m2) with v = m1 - m2
    m1 = random_field(grid2d, rng)
    m2 = random_field(grid2d, rng)
    v = SpectralField(grid2d, m1.coeffs - m2.coeffs)
    lhs = apply_B(m1, m1).coeffs - apply_B(m2, m2).coeffs
    rhs = apply_B(m1, v).coeffs + apply_B(v, m2).coeffs
    scale = float(np.max(np.abs(lhs))) + 1e-30
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-11 * scale


def test_pair_stencil_matches_standalone_ops(grid2d, grid3d, rng, params):
    for g in (grid2d, grid3d):
        m1, b, v, q = (random_field(g, rng) for _ in range(4))
        for m2 in (b, m1):
            st = PairStencil(g, m1.coeffs, m2.coeffs, params)
            direct = apply_B(m1, v).coeffs + apply_B(v, m2).coeffs + adjoint_forchheimer(m1, m2, v, params.beta).coeffs
            assert np.allclose(st.apply(v.coeffs), direct, rtol=1e-12, atol=1e-14)
            direct_t = adjoint_convection(m1, m2, q).coeffs + adjoint_forchheimer(m1, m2, q, params.beta).coeffs
            assert np.allclose(st.apply_transpose(q.coeffs), direct_t, rtol=1e-12, atol=1e-14)


def _max_rel(got, want):
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


@pytest.mark.parametrize("d,n", [(2, 8), (2, 16), (3, 8)])
def test_pair_operator_is_the_secant_and_the_tangent(d, n):
    # with N(m) = B(m, m) + beta P(|m|^2 m), the StateStencil of m applied to
    # m, the symmetric split is exact: L_(m1,m2) (m1 - m2) = N(m1) - N(m2),
    # and L_(m,m) v = (N(m + v) - N(m - v)) / 2 - beta C(v), the central
    # difference of a cubic less its third-order term
    g, params = Grid(d=d, n=n), OperatorParams(mu=0.7, alpha=0.3, beta=1.3)
    rng = np.random.default_rng(11)

    def N(m):
        return StateStencil(g, m, params).apply(m)

    for _ in range(5):
        m1, m2 = (random_field(g, rng).coeffs for _ in range(2))
        assert _max_rel(PairStencil(g, m1, m2, params).apply(m1 - m2), N(m1) - N(m2)) <= 1e-13
        m, v = (random_field(g, rng).coeffs for _ in range(2))
        tangent = 0.5 * (N(m + v) - N(m - v)) - params.beta * cubic_coeffs(g, g.to_physical(v))
        assert _max_rel(PairStencil(g, m, m, params).apply(v), tangent) <= 1e-13


def test_pair_stencil_exact_transpose(grid2d, grid3d, rng, params):
    for g in (grid2d, grid3d):
        m1, m2 = random_field(g, rng), random_field(g, rng)
        st = PairStencil(g, m1.coeffs, m2.coeffs, params)
        for _ in range(5):
            v, q = random_field(g, rng), random_field(g, rng)
            lhs = inner_product(SpectralField(g, st.apply(v.coeffs)), q)
            rhs = inner_product(v, SpectralField(g, st.apply_transpose(q.coeffs)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_self_adjoint_zeroth_order_block(grid2d, rng, params):
    # alpha v + Forchheimer coupling is self-adjoint
    m1, m2, v, q = (random_field(grid2d, rng) for _ in range(4))

    def op(x):
        return SpectralField(grid2d, params.alpha * x.coeffs + adjoint_forchheimer(m1, m2, x, params.beta).coeffs)

    assert inner_product(op(v), q) == pytest.approx(inner_product(v, op(q)), rel=1e-11)


def test_l4_fourth_power_matches_norms(grid2d, rng):
    # ||u||_4^4 as check 2 forms it: the quadrature of |u|^4 from one transform
    u = random_field(grid2d, rng)
    l4_4 = float(quadrature(grid2d, speed_squared(grid2d, grid2d.to_physical(u.coeffs)) ** 2, grid2d.d))
    assert l4_4 == pytest.approx(norms(u).l4 ** 4, rel=1e-13)
    assert l4_4**0.25 == norms(u).l4
