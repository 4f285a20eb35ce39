"""The real transforms on the M = 3n/2 grid against the complex 2n-grid reference.

The reference below is the straightforward form of the transform pair: the
retained cube (the stored half cube and its mirror) zero-padded into a
2n-lattice, complex FFTs both ways.  Both
grids integrate products of up to four retained modes exactly, so every
quantity built from them agrees to round-off.
"""

import numpy as np
import pytest

from cbfctl import Grid, norms, random_field
from cbfctl.fields import TAU
from oracles import coefficient_jet, full_cube, trilinear_b

REL = 1e-12


def _ref_index(g: Grid):
    """Index of the cube's k = -kmax..kmax in FFT order on the 2n-lattice."""
    pos = np.arange(-g.kmax, g.kmax + 1) % (2 * g.n)
    return (Ellipsis,) + np.ix_(*([pos] * g.d))


def ref_to_physical(g: Grid, coeffs: np.ndarray) -> np.ndarray:
    m = 2 * g.n
    big = np.zeros(coeffs.shape[: -g.d] + (m,) * g.d, dtype=np.complex128)
    big[_ref_index(g)] = full_cube(g, coeffs)
    vals = np.fft.ifftn(big, axes=tuple(range(-g.d, 0)))
    return np.real(vals) * float(m**g.d)


def ref_from_physical(g: Grid, values: np.ndarray) -> np.ndarray:
    m = 2 * g.n
    big = np.fft.fftn(values, axes=tuple(range(-g.d, 0))) / float(m**g.d)
    return g.reduce_coeffs(big[_ref_index(g)][..., g.kmax :])


def ref_quad_weight(g: Grid) -> float:
    return (TAU / (2 * g.n)) ** g.d


CASES = [(d, n) for d in (2, 3) for n in (6, 8, 10, 16)]


@pytest.mark.parametrize("d,n", CASES)
def test_l4_norm_matches_reference(d, n, rng):
    g = Grid(d=d, n=n)
    u = random_field(g, rng, l2=1.7)
    uv = ref_to_physical(g, u.coeffs)
    ref = (float(np.sum(np.sum(uv**2, axis=0) ** 2)) * ref_quad_weight(g)) ** 0.25
    assert norms(u).l4 == pytest.approx(ref, rel=REL)


@pytest.mark.parametrize("d,n", CASES)
def test_trilinear_matches_reference(d, n, rng):
    g = Grid(d=d, n=n)
    p, q, r = (random_field(g, rng) for _ in range(3))
    pv = ref_to_physical(g, p.coeffs)
    gq = ref_to_physical(g, 1j * g.k[:, None] * q.coeffs[None])
    rv = ref_to_physical(g, r.coeffs)
    ref = float(np.sum(np.einsum("i...,ij...->j...", pv, gq) * rv)) * ref_quad_weight(g)
    assert trilinear_b(p, q, r) == pytest.approx(ref, rel=REL)


@pytest.mark.parametrize("d,n", CASES)
def test_cubic_coefficients_match_reference(d, n, rng):
    g = Grid(d=d, n=n)
    p = random_field(g, rng, l2=2.3)
    pv = ref_to_physical(g, p.coeffs)
    ref = ref_from_physical(g, np.sum(pv**2, axis=0) * pv)
    pm = g.to_physical(p.coeffs)
    assert pm.shape == (d,) + (g.pad_n,) * d
    got = g.from_physical(np.sum(pm**2, axis=0) * pm)
    assert float(np.max(np.abs(got - ref))) <= REL * float(np.max(np.abs(ref)))


@pytest.mark.parametrize("d,n", [(d, n) for d in (2, 3) for n in (6, 8, 16)])
def test_grad_physical_jet(d, n, rng):
    # one stacked transform: out[0] is to_physical bitwise, out[1:] the gradient
    g = Grid(d=d, n=n)
    u = random_field(g, rng, l2=1.3)
    jet = g.grad_physical(u.coeffs)
    assert jet.shape == (1 + d, d) + (g.pad_n,) * d
    vals = g.to_physical(u.coeffs)
    assert np.array_equal(jet[0], vals)
    assert np.array_equal(np.signbit(jet[0]), np.signbit(vals))
    # x = 2 pi j / M = 2 pi l / 2n holds for j = 3i, l = 4i: compare on those n/2 nodes per axis
    ref = ref_to_physical(g, 1j * g.k[:, None] * u.coeffs[None])[(Ellipsis,) + (slice(None, None, 4),) * d]
    got = jet[1:][(Ellipsis,) + (slice(None, None, 3),) * d]
    assert got.shape == ref.shape == (d, d) + (n // 2,) * d
    assert float(np.max(np.abs(got - ref))) <= REL * float(np.max(np.abs(ref)))


@pytest.mark.parametrize("d,n", [(d, n) for d in (2, 3) for n in (6, 8, 16)])
def test_grad_physical_derivative_rows_match_coefficient_jet(d, n, rng):
    # the derivative factors E' and R' against ik c synthesized component by
    # component: multiplying by k rounds, so the rows agree to round-off, not bitwise
    g = Grid(d=d, n=n)
    u = random_field(g, rng, l2=1.3)
    jet, ref = g.grad_physical(u.coeffs), coefficient_jet(g, u.coeffs)
    for i in range(1, 1 + d):
        assert float(np.max(np.abs(jet[i] - ref[i]))) <= 1e-14 * float(np.max(np.abs(ref[i]))), i
