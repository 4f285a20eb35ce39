"""Independent operator oracles for the tests.

The field-level forms the package works without come first: make_field
builds a field from (wavenumber, amplitude) pairs, leray_project projects a
raw array into a field, spectral_norms is a field's (L2, V) norms, and
trilinear_b is b(p, q, r) from fresh transforms of its three fields, the
reference for check 1's shared jets and for the dense b tensor.

Each function below evaluates one term of the difference and adjoint
operators on its own, straight from its definition, with fresh transforms of
every argument.  The solvers never call them: PairStencil and StateStencil
compute the same terms from frozen coefficient transforms, and the tests check
the stencils against these forms; apply_A is the Stokes operator the dense
oracle assembles as k_sq * c, and apply_C and monotonicity_gap are the
field-level forms of the batched M-grid kernels the checks and the duality
residual use.  state_apply, pair_apply and pair_apply_transpose are the
stencil applies written with fresh arrays, and pair_coupling is the
PairStencil build's coupling matrix so written: the references for the
applies and the build that form their products in the Grid's workspace.
full_cube expands the stored half cube into the whole retained cube, slot by
slot, for sums and transforms that ignore the storage.  coefficient_jet is
the 1-jet synthesized from the coefficient jet (c, ik c), every component
through every stage, the reference for grad_physical's derivative factors.
trajectory_from_fields stacks fields into a Trajectory, and
random_trajectory_by_sample is random_trajectory summed one time at a time.
"""

import math
from typing import Iterable, Sequence

import numpy as np

from cbfctl.fields import (
    TAU, Grid, GridMismatchError, SpectralField, Trajectory, _check_same_grid, quadrature, random_field, spectral_rows,
    speed_squared,
)
from cbfctl.harness import DenseSystem
from cbfctl.operators import PairStencil, StateStencil


def make_field(grid: Grid, mode_list: Iterable[tuple[Sequence[int], Sequence[complex]]]) -> SpectralField:
    """Build a field from (wavenumber, amplitude) pairs.

    Each entry (k, a) contributes a*exp(i k.x) + conj(a)*exp(-i k.x), of
    which the half cube stores the term with k_last >= 0 (both on the k_last
    = 0 plane); the result is Leray-projected, so every invariant holds on
    return.  k = 0 and out-of-range wavenumbers are rejected.
    """
    coeffs = np.zeros((grid.d,) + grid.shape, dtype=np.complex128)
    for k, amp in mode_list:
        kt = tuple(int(ki) for ki in k)
        if len(kt) != grid.d:
            raise ValueError(f"wavenumber {kt} has wrong dimension for d={grid.d}")
        if all(ki == 0 for ki in kt):
            raise ValueError("k = 0 is not allowed: fields have zero spatial mean")
        if any(abs(ki) > grid.kmax for ki in kt):
            raise ValueError(f"wavenumber {kt} outside dealiased range |k_i| <= {grid.kmax}")
        a = np.asarray(amp, dtype=np.complex128)
        if a.shape != (grid.d,):
            raise ValueError(f"amplitude must be a {grid.d}-vector")
        for kk, ak in ((kt, a), (tuple(-ki for ki in kt), np.conj(a))):
            if kk[-1] >= 0:
                coeffs[(slice(None),) + grid.position(kk)] += ak
    return leray_project(grid, coeffs)


def leray_project(grid: Grid, coeffs: np.ndarray) -> SpectralField:
    """Leray projection of a raw (Hermitian) coefficient array.

    Idempotent; gradients are annihilated, divergence-free input is unchanged.
    """
    return SpectralField(grid, grid.project_coeffs(grid.reduce_coeffs(coeffs)))


def spectral_norms(u: SpectralField) -> tuple[float, float]:
    """(||u||_2, ||grad u||_2) by Parseval; no transform."""
    l2, v = spectral_rows(u.grid, u.coeffs)
    return float(l2), float(v)


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


def apply_A(u: SpectralField) -> SpectralField:
    """Stokes operator: coefficientwise multiplication by |k|^2."""
    return SpectralField(u.grid, u.grid.k_sq * u.coeffs)


def apply_B(p: SpectralField, q: SpectralField) -> SpectralField:
    """Projected convection B(p, q) = P (p . grad) q."""
    _check_same_grid(p, q)
    g = p.grid
    pv = g.to_physical(p.coeffs)
    gq = g.grad_physical(q.coeffs)[1:]
    conv = np.einsum("i...,ij...->j...", pv, gq)
    return SpectralField(g, g.project_coeffs(g.from_physical(conv)))


def apply_C(p: SpectralField) -> SpectralField:
    """Cubic damping C(p) = P(|p|^2 p) of one field, from a fresh transform."""
    g = p.grid
    pv = g.to_physical(p.coeffs)
    return SpectralField(g, g.project_coeffs(g.from_physical(speed_squared(g, pv) * pv)))


def monotonicity_gap(p: SpectralField, q: SpectralField) -> float:
    """<C(p) - C(q), p - q> - 1/4 ||p - q||_4^4 of two fields, from fresh transforms."""
    _check_same_grid(p, q)
    g = p.grid
    pv = g.to_physical(p.coeffs)
    qv = g.to_physical(q.coeffs)
    dv = pv - qv
    cubic = speed_squared(g, pv) * pv - speed_squared(g, qv) * qv
    pairing = float(quadrature(g, cubic * dv, g.d + 1))
    d4 = float(quadrature(g, speed_squared(g, dv) ** 2, g.d))
    return pairing - 0.25 * d4


def b_dual_norm(u: SpectralField) -> float:
    """Dual (V') norm of the projected self-convection B(u) = P (u.grad) u."""
    g = u.grid
    bu = apply_B(u, u).coeffs
    sq = np.sum(np.abs(bu) ** 2, axis=0) / g.k_sq_safe
    return float(np.sqrt(np.sum(sq) * g.volume))


def adjoint_convection(m1: SpectralField, m2: SpectralField, q: SpectralField) -> SpectralField:
    """Transposed convection of the difference system.

    Returns -B(m1, q) + P{ sum_j grad((m2)_j) q_j }; for every test field w

        <adjoint_convection(m1, m2, q), w> = b(m1, w, q) + b(w, m2, q),

    i.e. the transpose of  v -> B(m1, v) + B(v, m2).
    """
    _check_same_grid(m1, q)
    _check_same_grid(m2, q)
    g = q.grid
    m1v = g.to_physical(m1.coeffs)
    jq = g.grad_physical(q.coeffs)
    qv, gq = jq[0], jq[1:]
    gm2 = g.grad_physical(m2.coeffs)[1:]
    out = -np.einsum("i...,ij...->j...", m1v, gq) + np.einsum("ij...,j...->i...", gm2, qv)
    return SpectralField(g, g.project_coeffs(g.from_physical(out)))


def adjoint_forchheimer(m1: SpectralField, m2: SpectralField, q: SpectralField, beta: float) -> SpectralField:
    """Self-adjoint Forchheimer coupling shared by the difference and adjoint
    systems:

        (beta/2) P{ (|m1|^2 + |m2|^2) q } + (beta/2) P{ ((m1+m2) . q) (m1+m2) }.

    At m1 = m2 = m it collapses to beta P{|m|^2 q} + 2 beta P{(m . q) m}, and
    applied to m1 - m2 it reproduces beta (C(m1) - C(m2)) identically.
    """
    _check_same_grid(m1, q)
    _check_same_grid(m2, q)
    g = q.grid
    m1v = g.to_physical(m1.coeffs)
    m2v = g.to_physical(m2.coeffs)
    qv = g.to_physical(q.coeffs)
    w = np.sum(m1v**2, axis=0) + np.sum(m2v**2, axis=0)
    s = m1v + m2v
    out = 0.5 * beta * (w * qv + np.sum(s * qv, axis=0) * s)
    return SpectralField(g, g.project_coeffs(g.from_physical(out)))


def state_apply(st: StateStencil, x: np.ndarray) -> np.ndarray:
    """StateStencil.apply from fresh arrays: the public transforms and the
    stencil's rows C, contracted with a fresh jet in the stencil's order."""
    g = st.grid
    return g.project_coeffs(g.from_physical(np.einsum("a...,aj...->j...", st._c, g.grad_physical(x))))


def pair_coupling(g: Grid, m1: np.ndarray, m2: np.ndarray, beta: float) -> np.ndarray:
    """PairStencil's coupling matrix K[i, j] = d_i (m2)_j + (beta/2)((|m1|^2 +
    |m2|^2) delta_ij + s_i s_j), s = m1 + m2, from fresh transforms in the
    stencil's order."""
    jet, m1v = g.grad_physical(m2), g.to_physical(m1)
    s, w = m1v + jet[0], speed_squared(g, m1v) + speed_squared(g, jet[0])
    k = s[:, None] * s
    for i in range(g.d):
        k[i, i] += w
    return 0.5 * beta * k + jet[1:]


def pair_apply(st: PairStencil, v: np.ndarray) -> np.ndarray:
    """PairStencil.apply from fresh arrays, in the stencil's order."""
    g = st.grid
    jv = g.grad_physical(v)
    vv, gv = jv[0], jv[1:]
    out = np.einsum("i...,ij...->j...", st._m1v, gv)
    out += np.einsum("i...,ij...->j...", vv, st._k)
    return g.project_coeffs(g.from_physical(out))


def pair_apply_transpose(st: PairStencil, q: np.ndarray, extra_weight: np.ndarray | None = None) -> np.ndarray:
    """PairStencil.apply_transpose from fresh arrays, in the stencil's order."""
    g = st.grid
    jq = g.grad_physical(q)
    qv, gq = jq[0], jq[1:]
    out = np.einsum("ij...,j...->i...", st._k, qv)
    out -= np.einsum("i...,ij...->j...", st._m1v, gq)
    if extra_weight is not None:
        out += extra_weight * qv
    return g.project_coeffs(g.from_physical(out))


def b_tensor(system: DenseSystem) -> np.ndarray:
    """T[i, j, k] = b(e_i, e_j, e_k) over the dense basis; skew in its last two indices."""
    D = system.dim
    T = np.empty((D, D, D))
    basis = [SpectralField(system.grid, e) for e in system.basis]
    for i, ei in enumerate(basis):
        for j, ej in enumerate(basis):
            for k, ek in enumerate(basis):
                T[i, j, k] = trilinear_b(ei, ej, ek)
    return T


def full_cube(g: Grid, half: np.ndarray) -> np.ndarray:
    """The retained cube, k = -kmax..kmax on every axis, of a half-cube array
    (any leading axes): c(k) at k_last >= 0, conj(c(-k)) at k_last < 0."""
    r = 2 * g.kmax + 1
    out = np.empty(half.shape[: -g.d] + (r,) * g.d, dtype=np.complex128)
    for idx in np.ndindex(*(r,) * g.d):
        k = tuple(i - g.kmax for i in idx)
        if k[-1] >= 0:
            out[(Ellipsis,) + idx] = half[(Ellipsis,) + g.position(k)]
        else:
            out[(Ellipsis,) + idx] = np.conj(half[(Ellipsis,) + g.position(tuple(-ki for ki in k))])
    return out


def coefficient_jet(g: Grid, coeffs: np.ndarray) -> np.ndarray:
    """The 1-jet of one field, (1 + d, d, M, ..., M): ik c multiplied into the
    coefficients, then the (1 + d) d components as one batched to_physical."""
    return g.to_physical(np.concatenate((coeffs[None], 1j * g.k[:, None] * coeffs[None])))


def trajectory_from_fields(grid: Grid, t_end: float, fields) -> Trajectory:
    """The trajectory with the given samples, copied into one array."""
    coeffs = np.empty((len(fields), grid.d) + grid.shape, dtype=np.complex128)
    for i, s in enumerate(fields):
        if s.grid != grid:
            raise GridMismatchError("all samples must share the trajectory grid")
        coeffs[i] = s.coeffs
    return Trajectory(grid, t_end, coeffs)


def random_trajectory_by_sample(
    grid: Grid, t_end: float, nt: int, rng: np.random.Generator, *, l2: float = 1.0
) -> Trajectory:
    """random_trajectory with the same draws, each sample the sum of the
    three fields' coefficient arrays scaled by math.cos, from mode 0 on."""
    fields = [random_field(grid, rng, l2=l2) for _ in range(3)]
    freqs = rng.uniform(0.5, 2.5, size=3) * math.pi / t_end
    phases = rng.uniform(0.0, TAU, size=3)
    samples = []
    for t in np.linspace(0.0, t_end, nt + 1):
        acc = fields[0].coeffs * math.cos(freqs[0] * float(t) + phases[0])
        for i in range(1, len(fields)):
            acc = acc + fields[i].coeffs * math.cos(freqs[i] * float(t) + phases[i])
        samples.append(acc)
    return Trajectory(grid, t_end, np.stack(samples))
