"""Divergence-free velocity fields on the periodic torus, in truncated Fourier form.

The computational domain is the d-torus [0, 2*pi)^d (d = 2 or 3).  A velocity
field is stored as a complex coefficient array ``c[j, k1, ..., kd]`` over the
retained half cube, the half-complex layout of a real field (kmax = n//3,
2/3-rule dealiasing): k = -kmax..kmax at index k + kmax on each of the first
d - 1 axes, k_last = 0..kmax at index k_last on the last.  The k_last < 0
modes, conjugates of stored ones, and the modes outside the dealiased range
have no slot.  Every field satisfies two invariants:

* Hermitian symmetry  c(-k) = conj(c(k))   (real values; binds k_last = 0),
* c(0) = 0                                  (zero spatial mean),

plus discrete incompressibility  k . c(k) = 0  for every retained mode.  The
constructors establish them; invariant_defects measures them on a coefficient
array, per leading row, and CBFT ingest checks every sample with it.  With
the mean removed the smallest Laplacian eigenvalue on the torus is 1, so the
gradient seminorm dominates the L2 norm (Poincare with constant 1) and is used
as the H1-type norm throughout.

Nonlinear products are never formed on the n-grid: physical-space work happens
on a zero-padded grid of M = 3n/2 points per axis.  Any M > 4*kmax leaves
quadratic *and* cubic products of retained modes alias-free and makes the
quadrature of their (up to quartic) integrals exact (Orszag's padding rule
applied to cubic terms).  The transforms sum over the retained modes only,
as tensor-product matrix products (sum factorization): a precomputed M x r
matrix per full axis and, fields being real, a real matrix on the last
axis's half spectrum.  A derivative is a transform factor too: d/dx_i
scales the one axis factor it acts on by ik, so the 1-jet shares every stage
that differs only in other axes and never forms ik c.  Every Grid transform
accepts leading batch axes.  A stencil apply's jet and products, and an
unbatched transform's stages and their views, live in one workspace its
Grid makes once and frees with itself: an unbatched transform is just its
matmuls.  The rule: one apply at a time per Grid; results, and the arrays a
stencil keeps, are fresh arrays (a jet goes to a buffer only if passed).

Below the public entry points everything is a raw coefficient array: the
SpectralField record (grid, coeffs) appears only where an entry point takes
or returns one field (zero_field, random_field, traj[n], norms,
inner_product, the one-step wrappers, a state solve's m0).  spectral_rows
and norm_rows give the norms of every sample row of an array.

A Trajectory holds its nt+1 samples as one read-only complex array of shape
(nt+1, d) + Grid.shape; ``traj[n]`` is a SpectralField over row n, without a
copy.  Trajectory arithmetic is one array operation, and a random forcing
samples a whole time grid in one array expression.  Every spatial integral
goes through the space quadrature section, the only sums (the Picard stop
norm too) that weight the half: 1 on the k_last = 0 plane, 2 elsewhere for
a slot and its mirror.  Every time integral goes through running_integral.

CBFT files keep the full n^d lattice in lexicographic k-order, in which the
retained cube is the centred block n/2 - kmax .. n/2 + kmax of every axis.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

import numpy as np

TAU = 2.0 * math.pi

_CBFT_MAGIC = b"CBFT"
_CBFT_VERSION = 1
_CBFT_HEADER = struct.Struct("<4sIIIId")  # magic, version, d, n, nt, t_end


class GridMismatchError(ValueError):
    """Two fields or trajectories do not share the same Grid / time axis."""


class CBFTFormatError(ValueError):
    """A CBFT trajectory file is malformed; the message names the defect."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """Spectral grid: ``d`` spatial dimensions, ``n`` wavenumbers per axis.

    The box length is fixed at 2*pi per axis.  Retained (dealiased) modes
    satisfy |k_i| <= kmax = n//3, and coefficient arrays hold those with
    k_last >= 0: the half cube, k ascending on every axis.

    A Grid owns the buffers of one unbatched apply (_workspace): one apply
    at a time per Grid, and what a transform or an apply returns is fresh.
    """

    d: int
    n: int

    def __post_init__(self) -> None:
        if self.d not in (2, 3):
            raise ValueError(f"d must be 2 or 3, got {self.d}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 4, got {self.n}")

    @property
    def kmax(self) -> int:
        return self.n // 3

    @property
    def shape(self) -> tuple[int, ...]:
        """The half cube (2*kmax + 1,) * (d - 1) + (kmax + 1,): the retained k_last >= 0."""
        return (2 * self.kmax + 1,) * (self.d - 1) + (self.kmax + 1,)

    @property
    def pad_n(self) -> int:
        """Transform grid size M per axis.

        M = 3n/2 satisfies M >= n and M > 4*kmax for every even n, the
        condition for alias-free cubic products and exact quartic quadrature.
        """
        return 3 * self.n // 2

    @property
    def volume(self) -> float:
        return TAU**self.d

    @property
    def quad_weight(self) -> float:
        """Quadrature weight of one transform-grid node, (2*pi / M)^d."""
        return (TAU / self.pad_n) ** self.d

    @cached_property
    def k(self) -> np.ndarray:
        """Wavenumber vectors over the half cube, shape (d,) + shape, float64."""
        ks = np.arange(-self.kmax, self.kmax + 1)
        axes = np.meshgrid(*([ks] * (self.d - 1) + [ks[self.kmax :]]), indexing="ij")
        return _frozen(np.stack(axes).astype(np.float64))

    @cached_property
    def k_sq(self) -> np.ndarray:
        return _frozen(np.sum(self.k**2, axis=0))

    @cached_property
    def k_sq_safe(self) -> np.ndarray:
        ksq = self.k_sq.copy()
        ksq[ksq == 0.0] = 1.0
        return _frozen(ksq)

    @cached_property
    def _matrices(self) -> tuple[np.ndarray, ...]:
        """Read-only (E, R, F, Rf, D, R') of the retained-mode transforms.

        E (M x r) = exp(2 pi i j k / M) takes a full axis from k = -kmax..kmax
        to the nodes j.  R (2(kmax+1) x M) takes the last axis from the
        (re, im) pairs of k = 0..kmax to real values, with weight 2 for k > 0:
        the Hermitian k_last < 0 half adds the complex conjugate.  F = E^H / M
        and Rf (M x 2(kmax+1)), the (re, im) columns of conj(E) / M over
        k = 0..kmax, are the analysis pair; they give the half cube.  Phases
        come from the integer (j k) mod M.  The derivative factors put d/dx
        on the one axis it acts on: D stacks E and E' = E diag(ik), shape
        (2,) + (1,) * (d - 1) + (M, r) to broadcast over the axes before, and
        E is a view of D[0]; R' is R of ik c: R'[2k] = k R[2k+1] and
        R'[2k+1] = -k R[2k]."""
        m, kx = self.pad_n, self.kmax
        ks = np.arange(-kx, kx + 1)
        e = np.exp(1j * (TAU * (np.outer(np.arange(m), ks) % m) / m))
        de = np.stack((e, e * (1j * ks))).reshape((2,) + (1,) * (self.d - 1) + e.shape)
        r = np.ascontiguousarray(np.conj(e[:, kx:] * self._hermitian_weights).view(np.float64).T)
        dr = np.empty_like(r)
        dr[0::2], dr[1::2] = ks[kx:, None] * r[1::2], -ks[kx:, None] * r[0::2]
        mats = (de[(0,) * self.d], r, np.ascontiguousarray(np.conj(e).T) / m, np.conj(e[:, kx:]).view(np.float64) / m, de, dr)
        return tuple(_frozen(a) for a in mats)

    @cached_property
    def _hermitian_weights(self) -> np.ndarray:
        """Hermitian weights of the last axis: 1 for k_last = 0, 2 for a slot and its mirror."""
        return _frozen(np.where(np.arange(self.kmax + 1) > 0, 2.0, 1.0))

    @cached_property
    def _plane_slots(self) -> tuple[tuple, tuple]:
        """Within the k_last = 0 plane: the index of k = 0 and the reflection k -> -k."""
        return (Ellipsis,) + (self.kmax,) * (self.d - 1), (Ellipsis,) + (slice(None, None, -1),) * (self.d - 1)

    def position(self, k: Sequence[int]) -> tuple[int, ...]:
        """Array index of the wavenumber k, k_last >= 0, in the half cube."""
        if k[-1] < 0:
            raise ValueError(f"wavenumber {tuple(k)} has no slot: its mirror -k holds the conjugate")
        return tuple(ki + self.kmax for ki in k[:-1]) + (k[-1],)

    def retained_modes(self) -> list[tuple[int, ...]]:
        """All retained wavenumber tuples, k_last < 0 too (k = 0 excluded), lexicographically sorted."""
        kx = self.kmax
        return [k for k in itertools.product(range(-kx, kx + 1), repeat=self.d) if any(k)]

    # ------------------------------------------------------------------
    # raw coefficient-array helpers (module-internal workhorses)
    # ------------------------------------------------------------------

    def reduce_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """A copy of a raw half-cube array, c(0) = 0 and its k_last = 0 plane
        Hermitian (_hermitian_plane); any leading axes are batch axes."""
        return self._hermitian_plane(np.array(coeffs, dtype=np.complex128))

    def project_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Per-mode Helmholtz projection c <- c - (k / |k|^2)(k . c), the factor
        cached; k . c sums the axis -(d + 1), so leading axes are batch axes.

        ``coeffs`` must already be reduced (output of reduce_coeffs, or of
        from_physical): its k = 0 mode is +0, and the projection leaves it +0.
        """
        dot = np.add.reduce(self.k * coeffs, axis=-(self.d + 1), keepdims=True)
        return coeffs - self._k_by_k_sq * dot

    @cached_property
    def _k_by_k_sq(self) -> np.ndarray:
        return _frozen(self.k / self.k_sq_safe)

    @cached_property
    def _stage_tails(self) -> tuple[list, list, list]:
        """(shape after the leading axes, dtype) of each stage of to_physical, grad_physical and from_physical."""
        m, d, kx, r, c = self.pad_n, self.d, self.kmax, 2 * self.kmax + 1, np.complex128
        value = [((r,) * (d - 2) + (m, kx + 1), c), ((m, m * (kx + 1)), c)][: d - 1]
        jet = [((2, d) + value[0][0], c)] + [((d, d) + s, t) for s, t in value[1:]]
        return value, jet, [((m ** (d - 1), 2 * (kx + 1)), np.float64), ((r, m * (kx + 1)), c)][: d - 1]

    @cached_property
    def _workspace(self) -> SimpleNamespace:
        """The buffers of one unbatched apply or PairStencil build, and the unbatched
        transforms' plans over them, made on first use.  ``jet`` takes the real 1-jet
        (rows ``value`` and ``grad``).  One scratch array holds the rest in three phases,
        each from its start: the synthesis stages (row 0 of each is to_physical's); the
        products ``prod``, ``tmp`` and the scalar ``weight``; ``prod`` again, then the
        analysis stages.  A plan holds a transform's views over its stages (fresh ones if
        given None) for leading axes ``lead``: the first matmul's output, the (matrix,
        input, output) of each later full axis, the last matmul's input.  A full axis is
        one matmul per index of the axes before it, so each batch member gets the matmuls
        of its unbatched transform, and bitwise its result."""
        m, d, f = self.pad_n, self.d, np.float64
        vec, (_, synthesis, analysis) = (d,) + (m,) * d, self._stage_tails
        phases = (synthesis, [(vec, f)] * 2 + [(vec[1:], f)], [(vec, f)] + [((d,) + s, t) for s, t in analysis])
        words = [[math.prod(shape) * np.dtype(t).itemsize // 8 for shape, t in p] for p in phases]
        scratch, jet = np.empty(max(map(sum, words))), np.empty((1 + d,) + vec)
        stages, (prod, tmp, weight), (_, *analysis) = (
            [scratch[a : a + w].view(t).reshape(shape) for (shape, t), a, w in zip(p, itertools.accumulate(ws, initial=0), ws)]
            for p, ws in zip(phases, words)
        )
        return SimpleNamespace(
            jet=jet, value=jet[0], grad=jet[1:], prod=prod, tmp=tmp, weight=weight, synthesis=stages,
            to_plan=self._value_plan((d,), [s[0] for s in stages]), jet_plan=self._jet_plan((), stages, jet),
            from_plan=self._analysis_plan((d,), analysis),
        )

    def _value_plan(self, lead: tuple, stages: list | None) -> tuple:
        """to_physical's plan, result shape: E on full axes innermost first (-2 by e @ c), R on the last."""
        m, d, stages = self.pad_n, self.d, stages or [np.empty(lead + s, t) for s, t in self._stage_tails[0]]
        later = [(self._matrices[0], stages[0].reshape(lead + (2 * self.kmax + 1, -1)), stages[1])] if d == 3 else []
        return stages[0], later, stages[-1].view(np.float64).reshape(lead + (m ** (d - 1), -1)), lead + (m,) * d

    def _jet_plan(self, lead: tuple, stages: list | None, jet: np.ndarray) -> tuple:
        """grad_physical's plan into ``jet``: D on axis -2; in 3D, E and E' on axis -3 of the E
        branch and E of the E' branch; last, R on every branch and R' on the value branch."""
        m, d, e, de, later = self.pad_n, self.d, self._matrices[0], self._matrices[4], []
        stages = stages or [np.empty(lead + s, t) for s, t in self._stage_tails[1]]
        if d == 3:
            flat = stages[0].reshape(lead + (2, d, 2 * self.kmax + 1, -1))
            later = [(de[:, 0], flat[..., :1, :, :, :], stages[1][..., :2, :, :, :]), (e, flat[..., 1, :, :, :], stages[1][..., 2, :, :, :])]
        x, rows = stages[-1].view(np.float64).reshape(lead + (d, d, m ** (d - 1), -1)), jet.reshape(lead + (1 + d, d, -1, m))
        return stages[0], later, x, x[..., 0, :, :, :], rows[..., :d, :, :, :], rows[..., d, :, :, :]

    def _analysis_plan(self, lead: tuple, stages: list | None) -> tuple:
        """from_physical's plan, input shape: Rf on the last axis, F on full axes outermost first (-2 by f @ x)."""
        stages = stages or [np.empty(lead + s, t) for s, t in self._stage_tails[2]]
        m, d, x = self.pad_n, self.d, stages[0].view(np.complex128)
        later = [(self._matrices[2], x.reshape(lead + (m, -1)), stages[1])] if d == 3 else []
        last = stages[-1].view(np.complex128).reshape(lead + (-1,) * (d - 2) + (m, self.kmax + 1))
        return stages[0], later, last, lead + (m ** (d - 1), m)

    def to_physical(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate the retained modes on the M-grid; returns real (d, M, ..., M),
        any leading axes batch axes; an unbatched input runs the workspace's plan."""
        lead = coeffs.shape[: -self.d]
        first, later, x, shape = self._workspace.to_plan if lead == (self.d,) else self._value_plan(lead, None)
        np.matmul(self._matrices[0], coeffs, out=first)
        for mat, a, b in later:
            np.matmul(mat, a, out=b)
        return (x @ self._matrices[1]).reshape(shape)

    def from_physical(self, values: np.ndarray) -> np.ndarray:
        """Half-cube coefficients of M-grid samples (exact, no aliasing for
        products of total degree <= 3 of retained modes), the k_last = 0 plane
        symmetrized; any leading axes batch axes, unbatched on the workspace's plan."""
        lead = values.shape[: -self.d]
        first, later, x, shape = self._workspace.from_plan if lead == (self.d,) else self._analysis_plan(lead, None)
        np.matmul(values.reshape(shape), self._matrices[3], out=first)
        for mat, a, b in later:
            np.matmul(mat, a, out=b)
        return self._hermitian_plane(self._matrices[2] @ x)

    def grad_physical(self, coeffs: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
        """The 1-jet of u on the M-grid: out[0] = u and out[1 + i, j] =
        d u_j / d x_i, shape (1 + d, d, M, ..., M).  Leading batch axes come
        first: a (B, d) + shape input gives (B, 1 + d, d, M, ..., M).  The jet
        goes to ``out`` if given, else to a fresh array; an unbatched input
        runs the workspace's stages (_jet_plan).  out[0] is bitwise equal to
        to_physical(coeffs): every component is the same matmuls of the same
        data.
        """
        d, lead = self.d, coeffs.shape[: -self.d - 1]
        jet = np.empty(lead + (1 + d, d) + (self.pad_n,) * d) if out is None else out
        if lead:
            coeffs, plan = coeffs.reshape(lead + (1,) + coeffs.shape[-d - 1 :]), self._jet_plan(lead, None, jet)
        else:
            ws = self._workspace
            plan = ws.jet_plan if jet is ws.jet else self._jet_plan((), ws.synthesis, jet)
        first, later, x, x0, head, last = plan
        np.matmul(self._matrices[4], coeffs, out=first)
        for mat, a, b in later:
            np.matmul(mat, a, out=b)
        np.matmul(x, self._matrices[1], out=head)
        np.matmul(x0, self._matrices[5], out=last)
        return jet

    def _hermitian_plane(self, c: np.ndarray) -> np.ndarray:
        """Set c(0) = 0 and replace the k_last = 0 plane of the half-cube array
        c by its Hermitian part 0.5 * (c(k) + conj(c(-k))), in place; returns c."""
        centre, reflect = self._plane_slots
        plane = c[..., 0]
        plane[centre] = 0.0
        c[..., 0] = 0.5 * (plane + np.conj(plane[reflect]))
        return c


def _full_cube(grid: Grid, half: np.ndarray) -> np.ndarray:
    """The retained cube of a half-cube array: conj(c(-k)) + 0.0 on k_last < 0,
    the + 0.0 writing the zeros that conj negates as +0."""
    mirror = half[(Ellipsis,) + (slice(None, None, -1),) * (grid.d - 1) + (slice(grid.kmax, 0, -1),)]
    return np.concatenate((np.conj(mirror) + 0.0, half), axis=-1)


class FieldNorms(NamedTuple):
    l2: float
    v: float
    l4: float


@dataclass(frozen=True)
class SpectralField:
    """A velocity field on a Grid as a plain (grid, coeffs) record: the
    read-only complex128 half-cube array of one sample.  It does no
    arithmetic and checks only the array's shape; its invariants are
    measured on the array by invariant_defects."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.grid.d,) + self.grid.shape
        if self.coeffs.shape != expected:
            raise ValueError(f"coefficient array must have shape {expected}")
        if self.coeffs.dtype != np.complex128:
            object.__setattr__(self, "coeffs", self.coeffs.astype(np.complex128))
        self.coeffs.setflags(write=False)


def invariant_defects(grid: Grid, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (Hermitian, divergence) defects of a half-cube array per leading row:
    max |c(k) - conj(c(-k))| over the k_last = 0 plane relative to max |c|, 0
    for zero c; and max over modes of |k . c(k)| / (|k| |c(k)|), a mode with
    |k| |c(k)| = 0 counting 0."""
    plane = c[..., 0]
    asym = np.max(np.abs(plane - np.conj(plane[grid._plane_slots[1]])), axis=_TRAILING[grid.d])
    scale = np.max(np.abs(c), axis=_TRAILING[grid.d + 1])
    hermitian = asym / np.where(scale == 0.0, 1.0, scale)  # zero c: asym is 0
    dot = np.abs(np.add.reduce(grid.k * c, axis=-(grid.d + 1)))
    mag = np.sqrt(grid.k_sq) * np.sqrt(mode_sq(grid, c))
    divergence = np.max(np.where(mag > 0, dot / np.where(mag > 0, mag, 1.0), 0.0), axis=_TRAILING[grid.d])
    return hermitian, divergence


def zero_field(grid: Grid) -> SpectralField:
    return SpectralField(grid, np.zeros((grid.d,) + grid.shape, dtype=np.complex128))


def _check_same_grid(u: SpectralField, w: SpectralField) -> None:
    if u.grid != w.grid:
        raise GridMismatchError(f"grid mismatch: {u.grid} vs {w.grid}")


def inner_product(u: SpectralField, w: SpectralField) -> float:
    """L2(torus) inner product via Parseval."""
    _check_same_grid(u, w)
    return float(parseval_pairing(u.grid, u.coeffs, w.coeffs))


def norms(u: SpectralField) -> FieldNorms:
    """(||u||_2, ||grad u||_2, ||u||_4); l4 by exact padded-grid quadrature.
    Solvers that hold |u|^2 on the M-grid get the same bits from
    spectral_rows and l4_from_speed_squared."""
    return FieldNorms(*(float(x) for x in norm_rows(u.grid, u.coeffs)))


def random_field(
    grid: Grid,
    rng: np.random.Generator,
    *,
    l2: float = 1.0,
) -> SpectralField:
    """Seeded random divergence-free field with e^{-0.35 |k|} spectral envelope,
    rescaled to the requested L2 norm (zero field if l2 == 0)."""
    shape = (grid.d,) + (grid.n,) * grid.d
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    slots = np.arange(-grid.kmax, grid.kmax + 1) % grid.n  # the retained cube in the draws' FFT order
    cube = raw[(slice(None),) + np.ix_(*([slots] * grid.d))]
    envelope = np.exp(-0.35 * np.sqrt(grid.k_sq))
    # the Hermitian part 0.5 * (c(k) + conj(c(-k))) of the enveloped draws, on the half
    c, c_neg = (x[..., grid.kmax :] * envelope for x in (cube, cube[(Ellipsis,) + (slice(None, None, -1),) * grid.d]))
    c = grid.project_coeffs(grid.reduce_coeffs(0.5 * (c + np.conj(c_neg))))
    amp = spectral_rows(grid, c)[0]
    if amp == 0.0 or l2 == 0.0:
        return zero_field(grid)
    return SpectralField(grid, c * (l2 / amp))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly time-sampled fields on [0, t_end]: one read-only complex
    array of shape (nt+1, d) + grid.shape whose row n is the sample at n * dt.

    traj[n] is a SpectralField over the row (a view, no copy); arithmetic
    and the per-sample series below are single array operations.
    """

    grid: Grid
    t_end: float
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        sample = (self.grid.d,) + self.grid.shape
        if self.coeffs.shape[1:] != sample:
            raise ValueError(f"trajectory array must have shape (nt+1,) + {sample}")
        if self.coeffs.shape[0] < 2:
            raise ValueError("a trajectory needs nt >= 1, i.e. at least 2 samples")
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError("t_end must be positive and finite")
        if self.coeffs.dtype != np.complex128:
            object.__setattr__(self, "coeffs", self.coeffs.astype(np.complex128))
        self.coeffs.setflags(write=False)

    @property
    def nt(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def dt(self) -> float:
        return self.t_end / self.nt

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.nt + 1)

    def __getitem__(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[i])

    def __add__(self, other: "Trajectory") -> "Trajectory":
        check_aligned(self, other)
        return Trajectory(self.grid, self.t_end, self.coeffs + other.coeffs)

    def __sub__(self, other: "Trajectory") -> "Trajectory":
        check_aligned(self, other)
        return Trajectory(self.grid, self.t_end, self.coeffs - other.coeffs)

    def __mul__(self, c: float) -> "Trajectory":
        return Trajectory(self.grid, self.t_end, self.coeffs * float(c))

    __rmul__ = __mul__

    @staticmethod
    def zero(grid: Grid, t_end: float, nt: int) -> "Trajectory":
        return Trajectory(grid, t_end, np.zeros((nt + 1, grid.d) + grid.shape, dtype=np.complex128))


def check_aligned(a: Trajectory, b: Trajectory) -> None:
    if a.grid != b.grid:
        raise GridMismatchError("trajectory grids differ")
    if a.nt != b.nt or abs(a.t_end - b.t_end) > 1e-14 * max(1.0, a.t_end):
        raise GridMismatchError("trajectory time axes differ")


# ----------------------------------------------------------------------
# space quadrature: the Parseval pairing and mode sums of coefficient arrays,
# the exact quadrature of M-grid values.  Each sums a sample's trailing axes
# (_TRAILING[ndim]) per leading row, so a field and a trajectory take the same
# code; the axes of a contiguous array coalesce into one pairwise run per
# row, so every row is bitwise its one-field value.
# ----------------------------------------------------------------------

_TRAILING = tuple(tuple(range(-ndim, 0)) for ndim in range(5))


def parseval_pairing(grid: Grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum a conj(b) * volume over the full cube per sample row (the
    Hermitian weights); a and b broadcast."""
    prod = np.real(a * np.conj(b)) * grid._hermitian_weights
    return np.add.reduce(prod, axis=_TRAILING[grid.d + 1]) * grid.volume


def parseval_norm_sq(grid: Grid, c: np.ndarray) -> float:
    """The Picard stop test's Re <c, c> * volume of a whole array: twice every slot less the k_last = 0 plane."""
    return grid.volume * (2.0 * np.vdot(c, c).real - np.vdot(c[..., 0], c[..., 0]).real)


def mode_sq(grid: Grid, c: np.ndarray) -> np.ndarray:
    """|c(k)|^2 summed over the components, per mode."""
    return np.add.reduce(np.abs(c) ** 2, axis=-(grid.d + 1))


def parseval_sum(grid: Grid, x: np.ndarray, ndim: int) -> np.ndarray:
    """sum x * volume over the full cube (the Hermitian weights) and the last
    ndim axes of a per-mode array x, such as mode_sq (squared L2 norm) or
    |k|^2 mode_sq (squared V norm)."""
    return np.add.reduce(x * grid._hermitian_weights, axis=_TRAILING[ndim]) * grid.volume


def quadrature(grid: Grid, values: np.ndarray, ndim: int) -> np.ndarray:
    """Exact M-grid quadrature sum values * quad_weight over the last ndim
    axes: d for a scalar integrand, d + 1 for a dot product."""
    return np.add.reduce(values, axis=_TRAILING[ndim]) * grid.quad_weight


def speed_squared(grid: Grid, values: np.ndarray) -> np.ndarray:
    """|u|^2 at every M-grid node from the values of u."""
    return np.add.reduce(values**2, axis=-(grid.d + 1))


def l4_from_speed_squared(grid: Grid, mag2: np.ndarray) -> float | np.ndarray:
    """||u||_4 per row from |u|^2, a float for one field; Python's float
    power, which numpy's vectorized power differs from in the last bit."""
    s = quadrature(grid, mag2**2, grid.d).tolist()
    return s**0.25 if isinstance(s, float) else np.array([x**0.25 for x in s])


def spectral_rows(grid: Grid, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(||u||_2, ||grad u||_2) per sample row of the coefficient array c, by
    Parseval; no transform."""
    sq = mode_sq(grid, c)
    return np.sqrt(parseval_sum(grid, sq, grid.d)), np.sqrt(parseval_sum(grid, grid.k_sq * sq, grid.d))


def norm_rows(grid: Grid, c: np.ndarray) -> FieldNorms:
    """The FieldNorms of every sample row of c, as arrays; the l4 row comes
    from one batched transform of the whole array."""
    l2, v = spectral_rows(grid, c)
    return FieldNorms(l2, v, l4_from_speed_squared(grid, speed_squared(grid, grid.to_physical(c))))


def inner_product_series(a: Trajectory, b: Trajectory) -> np.ndarray:
    """inner_product(a[n], b[n]) for every sample n."""
    check_aligned(a, b)
    return parseval_pairing(a.grid, a.coeffs, b.coeffs)


def l2_series(traj: Trajectory) -> np.ndarray:
    """spectral_rows(grid, traj.coeffs)[0], without the V row."""
    g = traj.grid
    return np.sqrt(parseval_sum(g, mode_sq(g, traj.coeffs), g.d))


def running_integral(values: np.ndarray | Sequence[float], dt: float) -> np.ndarray:
    """The rectangle rule's running sums [0, dt v0, dt v0 + dt v1, ...].

    The one time quadrature: callers choose the endpoint by the samples they
    pass, values[:-1] of a sampled series for the left rule over [0, t_i),
    values[1:] for the right rule over (0, t_i].  np.add.accumulate adds in
    order from 0.0, so every entry is bitwise the plain loop acc += dt * v.
    """
    out = np.zeros(len(values) + 1)
    np.multiply(values, dt, out=out[1:])
    return np.add.accumulate(out, out=out)


def time_l2_inner(a: Trajectory, b: Trajectory) -> float:
    """Discrete L2(0,T;H) pairing, left-endpoint rectangle rule."""
    return float(running_integral(inner_product_series(a, b)[:-1], a.dt)[-1])


def time_l2_norm(a: Trajectory) -> float:
    return math.sqrt(max(time_l2_inner(a, a), 0.0))


def random_forcing(
    grid: Grid,
    rng: np.random.Generator,
    *,
    l2: float = 1.0,
    t_scale: float,
) -> Callable[[Sequence[float]], np.ndarray]:
    """Smooth-in-time random forcing, resolution-independent, as a sampler:
    a sequence of times goes in, the coefficient rows at those times come
    out as one array of shape (len(times), d) + grid.shape.  Sample it at
    np.linspace(0, t_end, nt + 1) for a Trajectory at any nt, at [t] for
    one time.

    f(t) = sum_i cos(freq_i t + phase_i) u_i over three random fields u_i
    (random_field's spectrum), added from i = 0 on.  Each cosine is
    Python's math.cos, which numpy's vectorized cos can differ from in the
    last bit; a row depends only on its time, bit for bit.
    """
    fields = np.stack([random_field(grid, rng, l2=l2).coeffs for _ in range(3)])
    freqs = (rng.uniform(0.5, 2.5, size=3) * math.pi / t_scale).tolist()
    phases = rng.uniform(0.0, TAU, size=3).tolist()

    def fn(times: Sequence[float]) -> np.ndarray:
        cos = np.array([[math.cos(w * t + p) for w, p in zip(freqs, phases)] for t in times])
        terms = fields * cos.reshape(cos.shape + (1,) * (grid.d + 1))
        return terms[:, 0] + terms[:, 1] + terms[:, 2]

    return fn


def random_trajectory(
    grid: Grid,
    t_end: float,
    nt: int,
    rng: np.random.Generator,
    *,
    l2: float = 1.0,
) -> Trajectory:
    fn = random_forcing(grid, rng, l2=l2, t_scale=t_end)
    return Trajectory(grid, t_end, fn(np.linspace(0.0, t_end, nt + 1)))


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def _lex_block(grid: Grid) -> tuple:
    """Index of the retained cube in a lex-ordered n-lattice: the centred
    block n/2 - kmax .. n/2 + kmax of each of the last d axes."""
    lo = grid.n // 2 - grid.kmax
    return (Ellipsis,) + (slice(lo, lo + 2 * grid.kmax + 1),) * grid.d


def write_trajectory(path, traj: Trajectory) -> None:
    """Binary trajectory file.

    Layout: magic "CBFT", u32 version=1, u32 d, u32 n, u32 nt, f64 t_end, then
    (nt+1) * d * n^d little-endian f64 (re, im) pairs in lexicographic k-order
    (k_1 ascending fastest-last, i.e. C order over the sorted wavenumber axes
    -n/2..n/2-1); the k_last < 0 modes are the conjugates of the stored ones,
    and every mode outside the retained cube is written as +0.
    """
    g = traj.grid
    lattice = np.zeros((traj.nt + 1, g.d) + (g.n,) * g.d, dtype="<c16")
    lattice[_lex_block(g)] = _full_cube(g, traj.coeffs)
    with open(path, "wb") as fh:
        fh.write(_CBFT_HEADER.pack(_CBFT_MAGIC, _CBFT_VERSION, g.d, g.n, traj.nt, traj.t_end))
        fh.write(lattice.tobytes())


def read_trajectory(path) -> Trajectory:
    """Read a CBFT file written by write_trajectory.

    The header's sizes are checked against the file length before anything
    is allocated.  Every sample must be zero outside the retained cube, have
    a finite half with c(0) = 0 and invariant_defects at most 1e-12, and be
    Hermitian over the whole cube; the rules run in that order over all
    samples at once, and CBFTFormatError names the first failing sample and
    its first failed rule.  The half is kept.
    """
    with open(path, "rb") as fh:
        head = fh.read(_CBFT_HEADER.size)
        if head[:4] != _CBFT_MAGIC:
            raise CBFTFormatError(f"not a CBFT file (magic {head[:4]!r})")
        if len(head) < _CBFT_HEADER.size:
            raise CBFTFormatError(f"CBFT header truncated at {len(head)} bytes")
        _, version, d, n, nt, t_end = _CBFT_HEADER.unpack(head)
        if version != _CBFT_VERSION:
            raise CBFTFormatError(f"unsupported CBFT version {version}")
        try:
            grid = Grid(d=d, n=n)
        except ValueError as exc:
            raise CBFTFormatError(f"CBFT header: {exc}") from None
        if nt < 1 or not (math.isfinite(t_end) and t_end > 0):
            raise CBFTFormatError(f"CBFT header: needs nt >= 1 and t_end > 0, got nt={nt}, t_end={t_end!r}")
        size = os.fstat(fh.fileno()).st_size
        expected = _CBFT_HEADER.size + (nt + 1) * d * n**d * 16
        if size < expected:
            raise CBFTFormatError(f"CBFT file holds {size} bytes, its header (d={d}, n={n}, nt={nt}) needs {expected}")
        if size > expected:
            raise CBFTFormatError(f"CBFT file has {size - expected} trailing bytes after its {nt + 1} samples")
        data = np.frombuffer(fh.read(expected - _CBFT_HEADER.size), dtype="<c16")
    lattice = data.reshape((nt + 1, d) + (n,) * d)
    cube = lattice[_lex_block(grid)]
    half = cube[..., grid.kmax :]
    sample = _TRAILING[d + 1]
    # a non-finite or huge sample's defects may be nan or inf: its rules decide, without a warning
    with np.errstate(invalid="ignore", over="ignore"):
        hermitian, divergence = invariant_defects(grid, half)
        mirror = np.max(np.abs(cube - _full_cube(grid, half)), axis=sample)
    rules = (
        (np.count_nonzero(lattice, axis=sample) > np.count_nonzero(cube, axis=sample),
         "nonzero coefficient outside the dealiased range"),
        (~np.all(np.isfinite(half), axis=sample), "non-finite coefficient"),
        (np.any(half[(Ellipsis,) + grid.position((0,) * d)] != 0, axis=1), "nonzero mean coefficient c(0)"),
        (hermitian > 1e-12, "Hermitian symmetry violated"),
        (divergence > 1e-12, "divergence-free constraint violated"),
        # relative to the finite half, so a NaN or an inf k_last < 0 mode fails here too
        (~(mirror <= 1e-12 * np.max(np.abs(half), axis=sample)), "Hermitian symmetry violated"),
    )
    failed = np.array([bad for bad, _ in rules])  # (rule, sample)
    if failed.any():
        i = int(np.argmax(failed.any(axis=0)))
        raise CBFTFormatError(f"CBFT sample {i}: {rules[int(np.argmax(failed[:, i]))][1]}")
    return Trajectory(grid, t_end, grid.reduce_coeffs(half))

