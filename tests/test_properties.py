"""Property tests of the round-off identities over drawn (d, n, amplitude).

Each identity holds exactly in exact arithmetic because the transform grid
integrates products of up to four retained modes exactly; a grid that is too
small, or a transform that drops or aliases a mode, breaks it at O(1).
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cbfctl import Grid, OperatorParams, SpectralField, inner_product, norms, random_field, random_trajectory
from cbfctl.fields import read_trajectory, write_trajectory
from cbfctl.operators import PairStencil
from oracles import apply_C, monotonicity_gap, trilinear_b

TOL = 1e-12

SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def setups(draw):
    d = draw(st.sampled_from((2, 3)))
    n = draw(st.sampled_from((4, 6, 8, 10, 12, 16) if d == 2 else (4, 6, 8, 10)))
    amplitude = draw(st.floats(min_value=1e-3, max_value=1e3))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return Grid(d=d, n=n), amplitude, np.random.default_rng(seed)


@SETTINGS
@given(setups())
def test_convection_is_skew(setup):
    g, amp, rng = setup
    p, q = random_field(g, rng, l2=amp), random_field(g, rng, l2=amp)
    scale = norms(p).l4 * norms(q).v * norms(q).l4
    assert abs(trilinear_b(p, q, q)) <= TOL * scale


@SETTINGS
@given(setups())
def test_cubic_pairing_is_l4_power(setup):
    g, amp, rng = setup
    p = random_field(g, rng, l2=amp)
    l4_4 = norms(p).l4 ** 4
    assert abs(inner_product(apply_C(p), p) - l4_4) <= TOL * l4_4


@SETTINGS
@given(setups())
def test_cubic_monotonicity(setup):
    g, amp, rng = setup
    p, q = random_field(g, rng, l2=amp), random_field(g, rng, l2=amp)
    scale = norms(p).l4 ** 4 + norms(q).l4 ** 4
    assert monotonicity_gap(p, q) >= -TOL * scale


@SETTINGS
@given(setups())
def test_pair_stencil_transpose(setup):
    g, amp, rng = setup
    m1, m2, v, q = (random_field(g, rng, l2=amp) for _ in range(4))
    stencil = PairStencil(g, m1.coeffs, m2.coeffs, OperatorParams(mu=1.0, alpha=0.1, beta=1.0))
    lv, ltq = (SpectralField(g, a) for a in (stencil.apply(v.coeffs), stencil.apply_transpose(q.coeffs)))
    scale = norms(lv).l2 * norms(q).l2 + norms(v).l2 * norms(ltq).l2
    assert abs(inner_product(lv, q) - inner_product(v, ltq)) <= TOL * scale


@SETTINGS
@given(setups(), st.integers(min_value=1, max_value=3))
def test_cbft_roundtrip(setup, nt):
    g, amp, rng = setup
    traj = random_trajectory(g, 0.5, nt, rng, l2=amp)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traj.cbft"
        write_trajectory(path, traj)
        back = read_trajectory(path)
    assert (back.grid, back.nt, back.t_end) == (g, nt, 0.5)
    for a, b in zip(back, traj):
        assert np.array_equal(a.coeffs, b.coeffs)
