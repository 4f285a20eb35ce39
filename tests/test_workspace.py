"""The Grid's workspace: the stencil applies and PairStencil's build form
their transform stages and products in buffers the Grid owns, one apply or
build at a time per Grid.

The buffered applies and build must give the bits of the same operations on
fresh arrays (the references in oracles.py), no result and no array a
stencil keeps may live in the workspace, a PairStencil keeps no jet, an
apply must not allocate arrays of the jet's size, a jet written to a
caller's buffer not an eighth of one, and the workspace must be freed with
its Grid.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from cbfctl import Grid, OperatorParams, random_field
from cbfctl.fields import speed_squared
from cbfctl.operators import PairStencil, StateStencil
from oracles import pair_apply, pair_apply_transpose, pair_coupling, state_apply

PARAMS = OperatorParams(mu=0.7, alpha=0.3, beta=1.1)
KEPT = ("_c", "_m1v", "_k", "w1", "w2")


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _same(a, b):
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _inputs(d, n, seed, count):
    grid = Grid(d=d, n=n)
    rng = np.random.default_rng(seed)
    return grid, [random_field(grid, rng).coeffs for _ in range(count)]


def _applies(grid, m1, m2):
    """(name, stencil, buffered apply, reference apply) for every apply, the
    transpose with and without the delta term."""
    pair, state = PairStencil(grid, m1, m2, PARAMS), StateStencil(grid, m1, PARAMS)
    extra = 0.3 * speed_squared(grid, grid.to_physical(m2))
    return [
        ("state", state, state.apply, lambda x: state_apply(state, x)),
        ("pair", pair, pair.apply, lambda x: pair_apply(pair, x)),
        ("pair_T", pair, pair.apply_transpose, lambda x: pair_apply_transpose(pair, x)),
        ("pair_T_delta", pair, lambda x: pair.apply_transpose(x, extra), lambda x: pair_apply_transpose(pair, x, extra)),
    ]


@pytest.mark.parametrize("d,n", [(2, 8), (2, 16), (3, 6)])
def test_buffered_applies_match_fresh_references(d, n):
    grid, (m1, m2, x) = _inputs(d, n, 100 * d + n, 3)
    for shared in (False, True):
        for name, _, apply, reference in _applies(grid, m1, m1 if shared else m2):
            assert _same(apply(x), reference(x)), (name, shared)


@pytest.mark.parametrize("d,n", [(2, 8), (2, 16), (3, 6)])
def test_pair_build_matches_fresh_reference(d, n):
    # the build forms m2's jet, s and |m1|^2 + |m2|^2 in the workspace
    grid, (m1, m2) = _inputs(d, n, 100 * d + n + 1, 2)
    for b in (m2, m1):
        st = PairStencil(grid, m1, b, PARAMS)
        assert _same(st._k, pair_coupling(grid, m1, b, PARAMS.beta))
        assert _same(st._m1v, grid.to_physical(m1))
        assert _same(st.w1, speed_squared(grid, grid.to_physical(m1)))
        assert _same(st.w2, speed_squared(grid, grid.to_physical(b)))


def _kept_bytes(obj):
    """Bytes of the numpy arrays obj keeps, each base buffer counted once, so
    that a view into a jet counts the whole jet."""
    bases = {}
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            while value.base is not None:
                value = value.base
            bases[id(value)] = value.nbytes
    return sum(bases.values())


@pytest.mark.parametrize("d,n", [(2, 8), (3, 6), (3, 16)])
def test_pair_stencil_keeps_no_jet(d, n):
    # K, the values of m1, w1 and w2: (d^2 + d + 2) M^d words, one fewer when
    # m2 holds m1's bits (w1 is w2); a kept jet of m2 alone is (1 + d) d M^d
    grid, (m1, m2) = _inputs(d, n, 17 * d + n, 2)
    node = grid.pad_n**d * 8
    for b, words in ((m2, d * d + d + 2), (m1, d * d + d + 1), (m1.copy(), d * d + d + 1)):
        st = PairStencil(grid, m1, b, PARAMS)
        assert _kept_bytes(st) <= words * node, (_kept_bytes(st), words * node)
        kept = [a for a in vars(st).values() if isinstance(a, np.ndarray)]
        assert not any(np.shares_memory(a, grid._workspace.jet) for a in kept)


@pytest.mark.parametrize("d,n", [(2, 8), (2, 16), (3, 6)])
def test_transforms_bitwise_with_and_without_buffers(d, n):
    # unbatched transforms run their stages in the workspace, batched ones on
    # fresh arrays; a jet written to a caller's buffer is the fresh jet
    grid, coeffs = _inputs(d, n, 7 * d + n, 2)
    batch = np.stack(coeffs)
    values = np.stack([grid.to_physical(c) for c in coeffs]) ** 3
    fresh_jets, fresh_values, fresh_coeffs = grid.grad_physical(batch), grid.to_physical(batch), grid.from_physical(values)
    for i, c in enumerate(coeffs):
        out = np.full((1 + d, d) + (grid.pad_n,) * d, np.nan)
        assert grid.grad_physical(c, out=out) is out
        assert _same(out, fresh_jets[i])
        assert _same(grid.grad_physical(c), fresh_jets[i])
        assert _same(grid.to_physical(c), fresh_values[i])
        assert _same(grid.from_physical(values[i]), fresh_coeffs[i])


@pytest.mark.parametrize("d,n", [(2, 8), (3, 6)])
def test_apply_results_do_not_alias_the_workspace(d, n):
    grid, (m1, m2, x, y) = _inputs(d, n, 31 * d + n, 4)
    for name, _, apply, _ in _applies(grid, m1, m2):
        first = apply(x)
        kept = first.copy()
        apply(y)
        assert _same(first, kept), name
        assert not np.shares_memory(first, grid._workspace.jet)


@pytest.mark.parametrize("d,n", [(2, 8), (3, 6)])
def test_kept_arrays_survive_another_stencils_applies(d, n):
    # solve_adjoint's record reads the previous step's w1 and w2 while the
    # next step's stencil sweeps on the same Grid
    grid, (m1, m2, m3, m4, x) = _inputs(d, n, 53 * d + n, 5)
    first = [st for _, st, _, _ in _applies(grid, m1, m2)]
    snapshot = [{k: getattr(st, k).copy() for k in KEPT if hasattr(st, k)} for st in first]
    for _, _, apply, _ in _applies(grid, m3, m4):
        apply(x)
    for st, kept in zip(first, snapshot):
        assert kept
        for key, value in kept.items():
            assert _same(getattr(st, key), value), key


def test_an_apply_allocates_less_than_half_a_jet():
    # the transform stages and the products live in the workspace, so one
    # warm apply at 3D n=8 allocates far less than one float64 jet
    grid, (m1, m2, x) = _inputs(3, 8, 88, 3)
    jet_bytes = (1 + grid.d) * grid.d * grid.pad_n**grid.d * 8
    for name, _, apply, _ in _applies(grid, m1, m2):
        apply(x)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            apply(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < jet_bytes // 2, (name, peak - start, jet_bytes // 2)


def test_a_jet_into_a_buffer_allocates_less_than_an_eighth_of_a_jet():
    # an unbatched 1-jet runs its synthesis stages in the workspace: warm, at
    # 3D n=8, writing into a caller's buffer allocates next to nothing
    grid, (x,) = _inputs(3, 8, 89, 1)
    buf = np.empty((1 + grid.d, grid.d) + (grid.pad_n,) * grid.d)
    grid.grad_physical(x, out=buf)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grid.grad_physical(x, out=buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < buf.nbytes // 8, (peak - start, buf.nbytes // 8)


def test_workspace_dies_with_its_grid():
    # no cycle holds the buffers: dropping the Grid and its stencil frees
    # them by reference counting alone
    grid, (m1, x) = _inputs(3, 6, 5, 2)
    stencil = StateStencil(grid, m1, PARAMS)
    stencil.apply(x)
    gone = weakref.ref(grid._workspace.jet)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del grid, stencil
        assert gone() is None
    finally:
        if enabled:
            gc.enable()
