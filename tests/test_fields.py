import math
import struct

import numpy as np
import pytest

from cbfctl import (
    Grid,
    GridMismatchError,
    SpectralField,
    Trajectory,
    inner_product,
    norms,
    random_field,
    random_trajectory,
    read_trajectory,
    time_l2_norm,
    write_trajectory,
    zero_field,
)
from cbfctl.checks import dense_agreement
from cbfctl.fields import (
    TAU, CBFTFormatError, invariant_defects, mode_sq, parseval_norm_sq, parseval_pairing, parseval_sum,
    random_forcing,
)
from cbfctl.harness import DenseSystem
from oracles import full_cube, leray_project, make_field, random_trajectory_by_sample, trajectory_from_fields


@pytest.mark.parametrize("d,n", [(2, 4), (2, 8), (2, 16), (3, 4), (3, 8)])
def test_position_and_retained_modes_match_mask(d, n):
    # brute force: every slot of the retained half cube but k = 0, with its wavenumber from Grid.k
    grid = Grid(d=d, n=n)
    r = 2 * grid.kmax + 1
    assert grid.shape == (r,) * (d - 1) + (grid.kmax + 1,) and grid.k.shape == (d,) + grid.shape
    kk = grid.k.astype(np.int64)
    slots = {}
    for idx in np.ndindex(*grid.shape):
        k = tuple(int(kk[j][idx]) for j in range(d))
        assert k == tuple(i - grid.kmax for i in idx[:-1]) + (idx[-1],)
        if any(k):
            slots[k] = idx
    assert grid.position((0,) * d) == (grid.kmax,) * (d - 1) + (0,)
    assert [k for k in grid.retained_modes() if k[-1] >= 0] == sorted(slots)
    for k, idx in slots.items():
        assert grid.position(k) == idx
    with pytest.raises(ValueError, match="mirror"):
        grid.position((0,) * (d - 1) + (-1,))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(d=1, n=16)
    with pytest.raises(ValueError):
        Grid(d=2, n=15)
    with pytest.raises(ValueError):
        Grid(d=2, n=2)
    g = Grid(d=2, n=16)
    assert g.kmax == 5
    for n in range(4, 41, 2):
        g = Grid(d=2, n=n)
        # alias-free cubic products and exact quartic quadrature
        assert g.pad_n > 4 * g.kmax and g.pad_n >= n


def test_make_field_zero_modes():
    g = Grid(d=2, n=16)
    u = make_field(g, [])
    assert norms(u) == (0.0, 0.0, 0.0)


def test_make_field_shear_mode():
    # amplitude orthogonal to k: projection leaves the mode untouched
    g = Grid(d=2, n=16)
    u = make_field(g, [((1, 0), (0.0, 1.0))])
    for k in ((1, 0), (-1, 0)):
        assert np.allclose(u.coeffs[(slice(None),) + g.position(k)], [0.0, 1.0])
    assert np.all(np.isfinite(u.coeffs)) and np.all(u.coeffs[(slice(None),) + g.position((0, 0))] == 0)
    assert invariant_defects(g, u.coeffs) == (0.0, 0.0)
    # field is (0, 2 cos x): l2^2 = 2 (2 pi)^2
    assert norms(u).l2 == pytest.approx(math.sqrt(2.0) * TAU, rel=1e-13)


def test_make_field_parallel_amplitude_projected_out():
    g = Grid(d=2, n=16)
    u = make_field(g, [((1, 0), (1.0, 0.0))])
    assert float(np.max(np.abs(u.coeffs))) <= 1e-15


def test_make_field_rejects_bad_modes():
    g = Grid(d=2, n=16)
    with pytest.raises(ValueError, match="zero spatial mean"):
        make_field(g, [((0, 0), (1.0, 0.0))])
    with pytest.raises(ValueError, match="dealiased range"):
        make_field(g, [((g.kmax + 1, 0), (0.0, 1.0))])


def test_leray_annihilates_gradients(grid2d, rng):
    # gradient field: c_j(k) = i k_j phi(k)
    phi = rng.standard_normal(grid2d.shape) + 1j * rng.standard_normal(grid2d.shape)
    coeffs = 1j * grid2d.k * phi[None, ...]
    coeffs = grid2d.reduce_coeffs(coeffs)
    u = leray_project(grid2d, coeffs)
    assert float(np.max(np.abs(u.coeffs))) <= 1e-13


def test_leray_idempotent_and_orthogonal(grid2d, rng):
    raw = rng.standard_normal((2,) + grid2d.shape) + 1j * rng.standard_normal((2,) + grid2d.shape)
    raw = grid2d.reduce_coeffs(raw)
    u = leray_project(grid2d, raw)
    u2 = leray_project(grid2d, u.coeffs)
    assert float(np.max(np.abs(u.coeffs - u2.coeffs))) <= 1e-14 * float(np.max(np.abs(u.coeffs)))
    # Helmholtz split: <Pu, u - Pu> = 0
    residual = SpectralField(grid2d, raw - u.coeffs)
    assert abs(inner_product(u, residual)) <= 1e-12 * inner_product(u, u)


def test_divergence_free_after_projection(grid2d, rng):
    c = np.stack([random_field(grid2d, rng).coeffs for _ in range(10)])
    hermitian, divergence = invariant_defects(grid2d, c)
    assert hermitian.shape == divergence.shape == (10,)
    assert np.all(divergence <= 1e-12) and np.all(hermitian <= 1e-13)
    # one row per leading index, each its one-sample value
    assert all(invariant_defects(grid2d, c[i]) == (hermitian[i], divergence[i]) for i in range(10))


def test_norms_zero_field(grid2d):
    assert norms(zero_field(grid2d)) == (0.0, 0.0, 0.0)


def test_norms_eigenmode_ratio():
    g = Grid(d=2, n=16)
    u = make_field(g, [((1, 0), (0.0, 0.5))])
    nm = norms(u)
    assert nm.v / nm.l2 == pytest.approx(1.0, rel=1e-13)
    w = make_field(g, [((3, 4), (4.0, -3.0))])
    assert norms(w).v / norms(w).l2 == pytest.approx(5.0, rel=1e-13)


def test_l4_matches_fine_grid_quadrature(grid2d, rng):
    # refine the transform grid x2: exact quadrature must agree
    u = random_field(grid2d, rng)
    fine = Grid(d=2, n=2 * grid2d.n)
    uf = SpectralField(fine, _embed(grid2d, fine, u.coeffs))
    assert norms(uf).l4 == pytest.approx(norms(u).l4, rel=1e-10)
    assert norms(uf).l2 == pytest.approx(norms(u).l2, rel=1e-12)


def _embed(src: Grid, dst: Grid, coeffs):
    out = np.zeros((src.d,) + dst.shape, dtype=np.complex128)
    lo = dst.kmax - src.kmax
    out[(slice(None),) + (slice(lo, lo + 2 * src.kmax + 1),) * (src.d - 1) + (slice(0, src.kmax + 1),)] = coeffs
    return out


def test_inner_product_properties(grid2d, rng):
    u = random_field(grid2d, rng)
    w = random_field(grid2d, rng)
    assert inner_product(u, zero_field(grid2d)) == 0.0
    assert inner_product(u, u) == pytest.approx(norms(u).l2 ** 2, rel=1e-12)
    assert inner_product(u, w) == pytest.approx(inner_product(w, u), rel=1e-12)


def test_inner_product_mode_orthogonality():
    g = Grid(d=2, n=16)
    u = make_field(g, [((1, 0), (0.0, 1.0))])
    w = make_field(g, [((2, 1), (1.0, -2.0))])
    assert abs(inner_product(u, w)) <= 1e-14


def test_inner_product_grid_mismatch(rng):
    u = random_field(Grid(d=2, n=16), rng)
    w = random_field(Grid(d=2, n=12), rng)
    with pytest.raises(GridMismatchError):
        inner_product(u, w)


def _enveloped(g, rng, *, l2, decay):
    """A random field of L2 norm l2 under the envelope e^{-decay |k|}: random_field's draw
    with its own envelope e^{-0.35 |k|} traded for that one."""
    c = random_field(g, rng).coeffs * np.exp((0.35 - decay) * np.sqrt(g.k_sq))
    return SpectralField(g, c * (l2 / np.sqrt(parseval_sum(g, mode_sq(g, c), g.d))))


def test_poincare_many_random_fields(rng):
    for g in (Grid(d=2, n=16), Grid(d=3, n=8)):
        for _ in range(500):
            u = _enveloped(g, rng, l2=rng.uniform(0.1, 3.0), decay=rng.uniform(0.1, 1.0))
            nm = norms(u)
            assert nm.l2 <= nm.v * (1.0 + 1e-12)


@pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
def test_ladyzhenskaya_inequality(d, n, rng):
    g = Grid(d=d, n=n)
    const = 2.0 ** ((d - 1) / 4.0)
    for _ in range(200):
        u = _enveloped(g, rng, l2=rng.uniform(0.1, 2.0), decay=rng.uniform(0.2, 1.0))
        nm = norms(u)
        bound = const * nm.l2 ** (1.0 - d / 4.0) * nm.v ** (d / 4.0)
        assert nm.l4 <= bound * (1.0 + 1e-12)


def test_field_immutability(grid2d, rng):
    u = random_field(grid2d, rng)
    with pytest.raises(ValueError):
        u.coeffs[0, 0, 0] = 1.0


def test_trajectory_alignment_and_arith(grid2d, rng):
    a = random_trajectory(grid2d, 1.0, 8, rng)
    b = random_trajectory(grid2d, 1.0, 8, rng)
    c = a + b - a
    for n in range(9):
        assert np.allclose(c[n].coeffs, b[n].coeffs, atol=1e-14)
    with pytest.raises(GridMismatchError):
        a + random_trajectory(grid2d, 1.0, 16, rng)
    assert time_l2_norm(2.0 * a) == pytest.approx(2.0 * time_l2_norm(a), rel=1e-12)


def test_trajectory_io_roundtrip(tmp_path, grid3d, rng):
    traj = random_trajectory(grid3d, 0.5, 4, rng)
    path = tmp_path / "traj.cbft"
    write_trajectory(path, traj)
    back = read_trajectory(path)
    assert back.grid == traj.grid
    assert back.nt == traj.nt
    assert back.t_end == traj.t_end
    for n in range(traj.nt + 1):
        assert np.array_equal(back[n].coeffs, traj[n].coeffs)


def test_trajectory_io_header(tmp_path, grid2d, rng):
    traj = random_trajectory(grid2d, 1.0, 2, rng)
    path = tmp_path / "traj.cbft"
    write_trajectory(path, traj)
    raw = path.read_bytes()
    assert raw[:4] == b"CBFT"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:12], "little") == 2
    assert int.from_bytes(raw[12:16], "little") == grid2d.n
    expected = 4 + 16 + 8 + 3 * 2 * grid2d.n**2 * 16
    assert len(raw) == expected
    with pytest.raises(ValueError, match="magic"):
        read_trajectory(__file__)


CBFT_HEADER = 4 + 16 + 8  # magic, version, d, n, nt, t_end


def _cbft_bytes(tmp_path, traj) -> bytes:
    path = tmp_path / "src.cbft"
    write_trajectory(path, traj)
    return path.read_bytes()


def test_trajectory_io_rejects_header_sizes_beyond_file(tmp_path, grid2d, rng):
    raw = _cbft_bytes(tmp_path, random_trajectory(grid2d, 1.0, 2, rng))
    path = tmp_path / "bad.cbft"
    # one sample short of what the header declares
    path.write_bytes(raw[: -2 * grid2d.n**2 * 16])
    with pytest.raises(CBFTFormatError, match="header .* needs"):
        read_trajectory(path)
    # a header asking for 2^60 coefficients must fail before any allocation
    path.write_bytes(raw[:8] + struct.pack("<III", 3, 2**20, 1) + raw[20:])
    with pytest.raises(CBFTFormatError, match="header .* needs"):
        read_trajectory(path)


def test_trajectory_io_rejects_trailing_bytes(tmp_path, grid2d, rng):
    path = tmp_path / "bad.cbft"
    path.write_bytes(_cbft_bytes(tmp_path, random_trajectory(grid2d, 1.0, 2, rng)) + b"\0" * 16)
    with pytest.raises(CBFTFormatError, match="16 trailing bytes"):
        read_trajectory(path)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _signed_zeros(rng, c):
    """c with a fifth of its real and imaginary parts replaced by -0.0."""
    c = c.copy()
    c.real[rng.random(c.shape) < 0.2] = -0.0
    c.imag[rng.random(c.shape) < 0.2] = -0.0
    return c


@pytest.mark.parametrize("d,n", [(2, 8), (3, 6), (3, 16)])
def test_reduce_coeffs_bitwise_reference(d, n):
    # the Hermitian average on the k_last = 0 plane by an index table: the slot of -k from position(),
    # k = 0 masked out; the k_last > 0 slots stay as they are
    g = Grid(d=d, n=n)
    rng = np.random.default_rng(11)
    shape = (2, d) + g.shape
    c = _signed_zeros(rng, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    masked = np.where(g.k_sq > 0, c, 0.0)
    mirror = np.empty(g.shape + (d,), dtype=np.int64)
    for idx in np.ndindex(*g.shape):
        mirror[idx] = g.position([g.kmax - i for i in idx[:-1]] + [0]) if idx[-1] == 0 else idx
    plane = 0.5 * (masked + np.conj(masked[(slice(None), slice(None)) + tuple(np.moveaxis(mirror, -1, 0))]))
    ref = np.where(g.k[-1] == 0, plane, masked)
    before = c.copy()
    assert np.array_equal(_bits(g.reduce_coeffs(c)), _bits(ref))
    assert np.array_equal(_bits(c), _bits(before))  # a copy: the input keeps its k = 0 mode


@pytest.mark.parametrize("d,n", [(2, 8), (3, 6), (2, 16), (3, 16)])
def test_batched_from_physical_matches_per_sample(d, n):
    g = Grid(d=d, n=n)
    rng = np.random.default_rng(12)
    values = rng.standard_normal((2, 3, d) + (g.pad_n,) * d)
    values[0, 1] = -values[0, 0]  # a sample whose zero modes come out as -0.0
    got = g.from_physical(values)
    assert got.shape == (2, 3, d) + g.shape
    for i in range(2):
        for j in range(3):
            assert np.array_equal(_bits(got[i, j]), _bits(g.from_physical(values[i, j])))


@pytest.mark.parametrize("d,n", [(2, 8), (3, 6), (2, 16), (3, 16)])
def test_batched_grad_physical_matches_per_member(d, n):
    # the jet axis follows the batch axes; each member is its unbatched jet
    g = Grid(d=d, n=n)
    rng = np.random.default_rng(13)
    coeffs = np.stack([random_field(g, rng).coeffs for _ in range(4)]).reshape((2, 2, d) + g.shape)
    got = g.grad_physical(coeffs)
    assert got.shape == (2, 2, 1 + d, d) + (g.pad_n,) * d
    for i in range(2):
        for j in range(2):
            assert np.array_equal(_bits(got[i, j]), _bits(g.grad_physical(coeffs[i, j])))


@pytest.mark.parametrize("d,n", [(2, 8), (3, 6), (2, 16), (3, 16)])
def test_from_physical_exactly_hermitian_with_positive_zeros(d, n):
    # samples of no retained field: the symmetrization alone must make c(-k) = conj(c(k)) on the
    # k_last = 0 plane, the one plane of the half cube that holds both k and -k
    g = Grid(d=d, n=n)
    c = g.from_physical(np.random.default_rng(14).standard_normal((d,) + (g.pad_n,) * d))
    assert invariant_defects(g, c)[0] == 0.0
    off = c[(slice(None),) + g.position((0,) * d)]  # k = 0, the half's one slot outside the retained modes
    assert off.size == d * (len(c[0].ravel()) - len([k for k in g.retained_modes() if k[-1] >= 0]))
    for part in (off.real, off.imag):
        assert np.all(part == 0.0) and not np.any(np.signbit(part))
    # samples of the zero field give +0 on every mode
    z = g.from_physical(np.zeros((d,) + (g.pad_n,) * d))
    assert not np.any(np.signbit(z.real)) and not np.any(np.signbit(z.imag))


@pytest.mark.parametrize("d", [2, 3])
def test_transform_matrices_read_only(d):
    # the derivative factors too: D stacks E and E', and E is its first slice
    g = Grid(d=d, n=8)
    e, r, f, rf, de, dr = g._matrices
    assert np.shares_memory(e, de)
    for mat in (e, r, f, rf, de[1], dr):
        with pytest.raises(ValueError):
            mat[(0,) * mat.ndim] = 1.0


def test_trajectory_is_one_read_only_array(grid2d, rng):
    a = random_trajectory(grid2d, 1.0, 4, rng)
    assert a.coeffs.shape == (5, 2) + grid2d.shape
    with pytest.raises(ValueError):
        a.coeffs[1, 0, 1, 1] = 1.0
    s = a[2]
    assert np.shares_memory(s.coeffs, a.coeffs)
    with pytest.raises(ValueError):
        s.coeffs[0, 1, 1] = 1.0
    assert [np.array_equal(x.coeffs, a.coeffs[n]) for n, x in enumerate(a)] == [True] * 5
    const = trajectory_from_fields(grid2d, 1.0, [s] * 4)
    assert const.nt == 3 and np.array_equal(const[3].coeffs, s.coeffs)
    with pytest.raises(ValueError):
        const.coeffs[0, 0, 1, 1] = 1.0


def test_trajectory_arithmetic_leaves_operands(grid2d, rng):
    f = random_trajectory(grid2d, 1.0, 4, rng)
    d = random_trajectory(grid2d, 1.0, 4, rng)
    f0, d0 = f.coeffs.copy(), d.coeffs.copy()
    eps = 1e-4
    g = f + eps * d
    h = f - eps * d
    assert np.array_equal(_bits(f.coeffs), _bits(f0)) and np.array_equal(_bits(d.coeffs), _bits(d0))
    assert not np.shares_memory(g.coeffs, f.coeffs) and not np.shares_memory(h.coeffs, d.coeffs)
    for n in range(5):
        assert np.array_equal(_bits(g[n].coeffs), _bits(f.coeffs[n] + eps * d.coeffs[n]))
        assert np.array_equal(_bits(h[n].coeffs), _bits(f.coeffs[n] - eps * d.coeffs[n]))


def test_trajectory_rejects_bad_samples(grid2d, rng):
    u = random_field(grid2d, rng)
    other = random_field(Grid(d=2, n=8), rng)
    with pytest.raises(GridMismatchError, match="share the trajectory grid"):
        trajectory_from_fields(grid2d, 1.0, [u, other, u])
    with pytest.raises(ValueError, match="at least 2 samples"):
        trajectory_from_fields(grid2d, 1.0, [u])
    with pytest.raises(ValueError, match="at least 2 samples"):
        Trajectory(grid2d, 1.0, u.coeffs[None])
    with pytest.raises(ValueError, match="t_end must be positive"):
        trajectory_from_fields(grid2d, 0.0, [u, u])
    with pytest.raises(ValueError, match="array must have shape"):
        Trajectory(grid2d, 1.0, np.stack([other.coeffs] * 3))


def _cbft_with_defects(path, grid, traj, defects):
    """Write traj to path with each {sample: defect names} applied: "mean",
    "hermitian", "divergence" and "nan" to the stored half; "outside",
    "mirror", "mirror-nan" and "mirror-inf" to the file's lattice, component 0."""
    coeffs, pos = traj.coeffs.copy(), grid.position((1, 2))
    for i, names in defects.items():
        c = coeffs[i]
        if "mean" in names:
            c[(0,) + grid.position((0, 0))] = 1.0
        if "hermitian" in names:
            # the k_last = 0 plane holds both k and -k; component 1 keeps k = (1, 0) divergence-free
            c[(1,) + grid.position((1, 0))] += 1e-3j
        if "divergence" in names:
            # the file holds the mirror (-1, -2) as the conjugate
            c[(slice(None),) + pos] += 1e-3 * np.array([1.0, 2.0])
        if "nan" in names:
            c[(0,) + pos] = np.nan
    write_trajectory(path, Trajectory(grid, traj.t_end, coeffs))
    raw, n = bytearray(path.read_bytes()), grid.n
    for i, names in defects.items():
        for name in {"outside", "mirror", "mirror-nan", "mirror-inf"}.intersection(names):
            # no field holds k = (kmax + 1, 0), and the file's (-1, -2) must be the conjugate of the stored (1, 2)
            k = (grid.kmax + 1, 0) if name == "outside" else (-1, -2)
            offset = CBFT_HEADER + 16 * ((i * 2 + 0) * n**2 + (k[0] + n // 2) * n + k[1] + n // 2)
            raw[offset : offset + 16] = struct.pack("<dd", {"mirror-nan": np.nan, "mirror-inf": np.inf}.get(name, 1.0), 0.0)
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize(
    "defect,message",
    [
        ("outside", "nonzero coefficient outside the dealiased range"),
        ("mean", "nonzero mean coefficient"),
        ("hermitian", "Hermitian symmetry"),
        ("divergence", "divergence-free"),
        ("nan", "non-finite"),
        ("mirror", "Hermitian symmetry"),
        ("mirror-nan", "Hermitian symmetry"),
        ("mirror-inf", "Hermitian symmetry"),
    ],
)
def test_trajectory_io_validates_samples(tmp_path, grid2d, rng, defect, message):
    path = tmp_path / "bad.cbft"
    _cbft_with_defects(path, grid2d, random_trajectory(grid2d, 1.0, 2, rng), {1: (defect,)})
    with pytest.raises(CBFTFormatError, match=f"sample 1: {message}"):
        read_trajectory(path)


@pytest.mark.parametrize(
    "defects,message",
    [
        # the first failing sample is named, even when a later one fails an earlier rule
        ({1: ("mirror",), 3: ("outside",)}, "CBFT sample 1: Hermitian symmetry violated"),
        ({2: ("divergence",), 3: ("nan", "mean")}, "CBFT sample 2: divergence-free constraint violated"),
        # within a sample, the first rule in order: outside, non-finite, c(0), Hermitian plane, divergence, mirror
        ({1: ("divergence", "mean"), 2: ("outside",)}, "CBFT sample 1: nonzero mean coefficient c(0)"),
        ({2: ("mirror-nan", "divergence")}, "CBFT sample 2: divergence-free constraint violated"),
        ({1: ("nan", "outside")}, "CBFT sample 1: nonzero coefficient outside the dealiased range"),
    ],
)
def test_trajectory_io_names_first_sample_and_rule(tmp_path, grid2d, rng, defects, message):
    path = tmp_path / "bad.cbft"
    _cbft_with_defects(path, grid2d, random_trajectory(grid2d, 1.0, 3, rng), defects)
    with pytest.raises(CBFTFormatError) as err:
        read_trajectory(path)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "d,n,k,amp",
    [(2, 8, (1, 2), (1.0 + 0.5j, -0.5 - 0.25j)), (3, 6, (1, -2, 0), (2.0 + 1.0j, 1.0 + 0.5j, 0.5 - 0.25j))],
)
def test_trajectory_io_payload_layout(tmp_path, d, n, k, amp):
    # one mode with exactly representable amplitudes orthogonal to k: the payload is the n-lattice in
    # lex order (k_i at index k_i + n/2, components outermost), nonzero only at k and its mirror
    g = Grid(d=d, n=n)
    u = make_field(g, [(k, amp)])
    path = tmp_path / "one.cbft"
    write_trajectory(path, trajectory_from_fields(g, 0.5, [u, zero_field(g)]))
    lattice = np.zeros((2, d) + (n,) * d, dtype="<c16")
    lattice[(0, slice(None)) + tuple(ki + n // 2 for ki in k)] = amp
    lattice[(0, slice(None)) + tuple(n // 2 - ki for ki in k)] = np.conj(amp)
    assert path.read_bytes()[CBFT_HEADER:] == lattice.tobytes()
    assert np.array_equal(read_trajectory(path)[0].coeffs, u.coeffs)


@pytest.mark.parametrize("d,n", [(2, 8), (3, 6)])
def test_hermitian_weights_match_full_cube_sums(d, n):
    # the weighted reductions over the stored half against plain sums over the expanded retained cube;
    # a pairing of independent fields is relative to the product of their norms, which it can cancel below
    g = Grid(d=d, n=n)
    rng = np.random.default_rng(18)
    a, b = (random_trajectory(g, 1.0, 5, rng).coeffs for _ in range(2))
    fa, fb = full_cube(g, a), full_cube(g, b)
    axes = tuple(range(-d - 1, 0))
    sq = np.sum(np.abs(fa) ** 2, axis=axes) * g.volume
    v_sq = np.sum(np.real(full_cube(g, g.k_sq)) * np.abs(fa) ** 2, axis=axes) * g.volume
    pairing = np.real(np.sum(fa * np.conj(fb), axis=axes)) * g.volume
    scale = np.sqrt(sq * np.sum(np.abs(fb) ** 2, axis=axes) * g.volume)
    assert np.max(np.abs(parseval_sum(g, mode_sq(g, a), d) - sq) / sq) <= 1e-15
    assert np.max(np.abs(parseval_sum(g, g.k_sq * mode_sq(g, a), d) - v_sq) / v_sq) <= 1e-15
    assert np.max(np.abs(parseval_pairing(g, a, a) - sq) / sq) <= 1e-15
    assert np.max(np.abs(parseval_pairing(g, a, b) - pairing) / scale) <= 1e-15


@pytest.mark.parametrize("d,n", [(2, 8), (2, 16), (3, 6)])
def test_stop_norm_matches_parseval_pairing(d, n):
    # the Picard stop test's two-vdot norm weights the half as parseval_pairing does, on any array,
    # Hermitian or not, and reads exactly 0.0 on a zero array
    g = Grid(d=d, n=n)
    rng = np.random.default_rng(29)
    for _ in range(20):
        c = rng.standard_normal((d,) + g.shape) + 1j * rng.standard_normal((d,) + g.shape)
        want = float(parseval_pairing(g, c, c))
        assert abs(parseval_norm_sq(g, c) - want) <= 1e-15 * want
    assert parseval_norm_sq(g, np.zeros((d,) + g.shape, dtype=np.complex128)) == 0.0


@pytest.mark.parametrize("d, n, nt", [(2, 8, 384), (3, 6, 8)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_trajectory_bitwise_per_sample(d, n, nt, seed):
    # one array expression over the time grid gives the bits of the per-sample field sums
    g = Grid(d=d, n=n)
    traj = random_trajectory(g, 0.5, nt, np.random.default_rng(seed), l2=0.7)
    ref = random_trajectory_by_sample(g, 0.5, nt, np.random.default_rng(seed), l2=0.7)
    assert np.array_equal(_bits(traj.coeffs), _bits(ref.coeffs))
    fn = random_forcing(g, np.random.default_rng(seed), l2=0.7, t_scale=0.5)
    for i in (0, 1, nt // 2, nt):
        row = fn([traj.times[i]])
        assert row.shape == (1, d) + g.shape
        assert np.array_equal(_bits(row[0]), _bits(traj.coeffs[i]))


def test_forcings_and_solvers_run_without_field_arithmetic(params):
    import cbfctl as c

    # a field is a (grid, coeffs) record, without arithmetic or validators: the solvers and the
    # dense agreement below run on arrays, and invariant_defects checks arrays
    methods = ("__add__", "__sub__", "__mul__", "__rmul__", "validate", "divergence_defect", "hermitian_defect")
    assert [name for name in methods if hasattr(SpectralField, name)] == []
    g, rng = Grid(d=2, n=4), np.random.default_rng(5)
    m0 = random_field(g, rng, l2=0.5)
    f1, f2, h = (random_trajectory(g, 0.25, 4, rng) for _ in range(3))
    run1, run2 = c.solve_state(m0, f1, params), c.solve_state(m0, f2, params)
    diff = c.solve_difference(run1, run2)
    for delta in (0.0, 0.1):
        adj = c.solve_adjoint((run1.solution, run2.solution), h, delta, params, kappa=params.kappa_star())
        c.duality_residual(adj, run1, run2, difference=diff.trajectory)
    fields = [random_field(g, rng).coeffs for _ in range(2)]
    defect, gap = dense_agreement(DenseSystem(g, params), m0.coeffs, fields[0], 0.05, fields)
    assert defect <= 1e-12 and gap <= 1e-12
