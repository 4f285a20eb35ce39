"""Spatial operators of the damped Navier-Stokes system and their transposes.

All nonlinear terms are evaluated pseudo-spectrally on the padded transform
grid of M > 4*kmax points per axis (retained-mode tensor-product matrix
transforms, see fields.Grid), which makes cubic products alias-free and
quartic integrals exact, so the classical identities hold to round-off rather
than to discretization accuracy:

* b(p, q, q) = 0 and b(p, q, r) = -b(p, r, q)  for retained, projected fields,
* <A u, u> = ||grad u||_2^2,
* <C(p), p> = ||p||_4^4  with  C(p) = P(|p|^2 p),
* <C(p) - C(q), p - q> >= 1/4 ||p - q||_4^4   (cubic monotonicity).

The difference system for v = m1 - m2 applies the linear-in-v operator

    L(v) = B(m1, v) + B(v, m2)
         + (beta/2) P{ (|m1|^2 + |m2|^2) v }
         + (beta/2) P{ ((m1 + m2) . v) (m1 + m2) },

and the backward-in-time systems apply its algebraic transpose

    L^T(q) = -B(m1, q) + P{ sum_j grad((m2)_j) q_j }  + same Forchheimer part,

the Forchheimer part being self-adjoint.  PairStencil below evaluates both
from one coupling matrix per M-grid node, formed once per slab; it is the
inner kernel of the time steppers, and the exactness of apply/apply_transpose
as mutual transposes is what the discrete duality identity rests on.

The stencils map raw coefficient arrays to arrays, as a Picard sweep calls
them.  Every field goes through the M-grid once per use: an apply takes the
values and the gradient of its argument from one 1-jet transform, a stencil
transforms its frozen arrays once; a state apply is one contraction of that
jet with the rows (beta |m|^2, m).  |u|^2 and every integral are the fields
reductions speed_squared and quadrature.  An apply, and a PairStencil build,
form their jets and products in the Grid's workspace; what they return or
keep is fresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Grid, SpectralField, _check_same_grid, l4_from_speed_squared, quadrature, speed_squared


@dataclass(frozen=True)
class OperatorParams:
    """Coefficients of the damped system: viscosity mu, linear drag alpha,
    cubic drag beta, all strictly positive (alpha >= 1e-12)."""

    mu: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("mu", "alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.mu <= 0:
            raise ValueError("mu must be > 0")
        if self.alpha < 1e-12:
            raise ValueError("alpha must be >= 1e-12")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")

    def hypothesis_holds(self, kappa: float) -> bool:
        """2*beta*mu > 1/kappa for the supplied kappa in (0, 1)."""
        return 0.0 < kappa < 1.0 and 2.0 * self.beta * self.mu > 1.0 / kappa

    def kappa_star(self) -> float:
        """Default kappa: midpoint of (1/(2 beta mu), 1), clamped to (0, 1)."""
        k = 0.5 * (1.0 / (2.0 * self.beta * self.mu) + 1.0)
        return min(max(k, 1e-9), 1.0 - 1e-9)

    def wellposed(self) -> bool:
        """Weaker condition 2*beta*mu >= 1 used by the a-priori estimate."""
        return 2.0 * self.beta * self.mu >= 1.0


def trilinear_b(p: SpectralField, q: SpectralField, r: SpectralField) -> float:
    """b(p, q, r) = integral of (p . grad) q . r, exact quadrature."""
    _check_same_grid(p, q)
    _check_same_grid(p, r)
    g = p.grid
    pv = g.to_physical(p.coeffs)
    gq = g.grad_physical(q.coeffs)[1:]
    rv = g.to_physical(r.coeffs)
    conv = np.einsum("i...,ij...->j...", pv, gq)
    return float(quadrature(g, conv * rv, g.d + 1))


def cubic_coeffs(grid: Grid, pv: np.ndarray) -> np.ndarray:
    """The coefficients of the cubic damping C(p) = P(|p|^2 p), alias-free on
    the padded grid, from the M-grid values pv of p; any leading axes are
    batch axes."""
    return grid.project_coeffs(grid.from_physical(np.expand_dims(speed_squared(grid, pv), -(grid.d + 1)) * pv))


def gap_of_values(grid: Grid, pv: np.ndarray, qv: np.ndarray) -> float:
    """The monotonicity gap <C(p) - C(q), p - q> - 1/4 ||p - q||_4^4,
    nonnegative up to round-off, from the M-grid values pv and qv."""
    dv = pv - qv
    cubic = speed_squared(grid, pv) * pv - speed_squared(grid, qv) * qv
    pairing = float(quadrature(grid, cubic * dv, grid.d + 1))
    return pairing - 0.25 * float(quadrature(grid, speed_squared(grid, dv) ** 2, grid.d))


def _bits(c: np.ndarray) -> np.ndarray:
    """The raw 64-bit words of a complex array (signed zeros and NaN payloads
    compare as themselves)."""
    return np.ascontiguousarray(c).view(np.uint64)


class PairStencil:
    """Frozen-coefficient spatial operator of the difference/adjoint systems
    on one time slab, with the coefficient transforms shared between calls.

    apply() and apply_transpose() are exact algebraic transposes of each other
    on the retained divergence-free space (the quadrature pairing of each term
    is symmetric/alternating by construction).

    The build forms one d x d matrix per M-grid node, K[i, j] = d_i (m2)_j +
    (beta/2)((|m1|^2 + |m2|^2) delta_ij + s_i s_j), s = m1 + m2, from one
    1-jet transform of m2 into the workspace and one value transform of m1,
    or the jet alone when m2 holds m1's bits.  apply adds sum_i v_i K[i, j]
    to B(m1, v), apply_transpose sum_j K[i, j] q_j to -B(m1, q).  It keeps K,
    the values of m1, and w1 = |m1|^2 and w2 = |m2|^2 (the adjoint energy
    weights; w1 is w2 when shared): (d^2 + d + 2) M^d words, one fewer shared.
    """

    def __init__(self, grid: Grid, m1: np.ndarray, m2: np.ndarray, params: OperatorParams):
        self.grid, self._ws = grid, grid._workspace
        shared = m2 is m1 or np.array_equal(_bits(m1), _bits(m2))
        m2v = grid.grad_physical(m2, out=self._ws.jet)[0]
        self._m1v = m2v.copy() if shared else grid.to_physical(m1)
        self.w2 = speed_squared(grid, m2v)
        self.w1 = self.w2 if shared else speed_squared(grid, self._m1v)
        # s and w1 + w2 go to the product buffers, which to_physical's stages share
        s = np.add(self._m1v, m2v, out=self._ws.prod)
        k = np.multiply(s[:, None], s)
        k.reshape((-1,) + self.w1.shape)[:: grid.d + 1] += np.add(self.w1, self.w2, out=self._ws.weight)
        k *= 0.5 * params.beta
        self._k = np.add(k, self._ws.grad, out=k)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """B(m1, v) + B(v, m2) + Forchheimer(v), v a coefficient array."""
        g, ws = self.grid, self._ws
        g.grad_physical(v, out=ws.jet)
        out = np.einsum("i...,ij...->j...", self._m1v, ws.grad, out=ws.prod)
        out += np.einsum("i...,ij...->j...", ws.value, self._k, out=ws.tmp)
        return g.project_coeffs(g.from_physical(out))

    def apply_transpose(self, q: np.ndarray, extra_weight: np.ndarray | None = None) -> np.ndarray:
        """-B(m1, q) + P{sum_j grad((m2)_j) q_j} + Forchheimer(q)
        [+ extra_weight * q pointwise, the adjoint's delta term]."""
        g, ws = self.grid, self._ws
        g.grad_physical(q, out=ws.jet)
        out = np.einsum("ij...,j...->i...", self._k, ws.value, out=ws.prod)
        out -= np.einsum("i...,ij...->j...", self._m1v, ws.grad, out=ws.tmp)
        if extra_weight is not None:
            out += np.multiply(extra_weight, ws.value, out=ws.tmp)
        return g.project_coeffs(g.from_physical(out))


class StateStencil:
    """Frozen-coefficient implicit part of one state step:
    x -> B(m_ref, x) + beta P{|m_ref|^2 x}, on raw coefficient arrays.

    Building it is the one transform of m_ref.  It keeps the 1 + d rows
    C = (beta |m_ref|^2, m_ref) on the M-grid, so an apply is one
    contraction of x's 1-jet with C, sum_a C[a] jet[a, j], then the
    analysis.  Its l4 is m_ref's ||.||_4, bitwise norms(m_ref).l4.
    """

    def __init__(self, grid: Grid, m_ref: np.ndarray, params: OperatorParams):
        self.grid, self._ws = grid, grid._workspace
        mv = grid.to_physical(m_ref)
        w = speed_squared(grid, mv)
        self._c = np.concatenate((w[None], mv))
        self._c[0] *= params.beta
        self.l4 = l4_from_speed_squared(grid, w)

    def apply(self, x: np.ndarray) -> np.ndarray:
        g, ws = self.grid, self._ws
        g.grad_physical(x, out=ws.jet)
        return g.project_coeffs(g.from_physical(np.einsum("a...,aj...->j...", self._c, ws.jet, out=ws.prod)))
