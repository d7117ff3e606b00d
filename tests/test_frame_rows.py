"""The frame target's component-row kernels against their row-major oracles.

The polar factorisation, the tangent projection and the horizontal
projection are checked against the row-major bodies kept in
``reference_loops`` on random frames, near-degenerate ones included
(cond(M) up to 1e6), and random ambient vectors; the horizontal projection
also against its defining properties, and the ``FrameTarget`` methods for
single points against stacks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import reference_loops as ref
from legsurf import stiefel as st
from legsurf.errors import DegenerateFrameError
from legsurf.fields import STIEFEL

N = 16


@hst.composite
def raw_frames(draw):
    """N raw 4x2 frames U diag(s_max, s_max / cond) V^T, with random
    orthonormal U (4x2) and V (2x2), log10 cond in [0, 6] and s_max in
    [1e-2, 1e2]."""
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    cond = 10.0 ** draw(hst.floats(0.0, 6.0))
    s_max = 10.0 ** draw(hst.floats(-2.0, 2.0))
    u, _ = np.linalg.qr(rng.standard_normal((N, 4, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((N, 2, 2)))
    m = (u * np.array([s_max, s_max / cond])) @ v.transpose(0, 2, 1)
    return m[..., 0], m[..., 1]


@hst.composite
def frames_and_vectors(draw):
    """N orthonormal frames, the SVD polar factors of raw frames, stacked as
    (N, 8) points, with N ambient vectors of entries in [-1, 1]."""
    a, b = ref.retract_svd(*draw(raw_frames()))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    return np.concatenate([a, b], axis=1), rng.uniform(-1.0, 1.0, (N, 8))


def _rel_err(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


@settings(max_examples=100, deadline=None)
@given(raw_frames())
def test_polar_matches_row_major_oracle(frame):
    q, s_inv, t = st.polar_rows(*map(st.rows, frame))
    ra, rb, r_inv, rt = ref.frame_polar(*frame)
    for got, want in [(st.stacked(q[:4]), ra), (st.stacked(q[4:]), rb), (t, rt),
                      *zip(s_inv, r_inv)]:
        assert _rel_err(got, want) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(frames_and_vectors())
def test_projections_match_row_major_oracles(data):
    q, x = data
    a, b, v, w = q[:, :4], q[:, 4:], x[:, :4], x[:, 4:]
    for got, want in [(STIEFEL.tangent(q, x), ref.frame_tangent(a, b, v, w)),
                      (STIEFEL.horizontal(q, x), ref.frame_horizontal(a, b, v, w))]:
        assert np.max(np.abs(got - np.concatenate(want, axis=1))) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(frames_and_vectors())
def test_horizontal_is_an_idempotent_projection_onto_ker_alpha(data):
    q, x = data
    h = STIEFEL.horizontal(q, x)
    assert np.max(np.abs(STIEFEL.horizontal(q, h) - h)) <= 1e-14
    assert np.max(np.abs(STIEFEL.alpha(q, h))) <= 1e-14
    assert np.max(st.tangency_defect(q[:, :4], q[:, 4:], h[:, :4], h[:, 4:])) <= 1e-14
    # orthogonal: x - h is orthogonal to the horizontal part of every vector
    y = STIEFEL.horizontal(q, x[::-1])
    assert np.max(np.abs(np.sum((x - h) * y, axis=1))) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(frames_and_vectors())
def test_single_points_give_the_rows_of_a_stack(data):
    q, x = data
    delta = 1e-2 * x
    stacks = {
        "tangent": STIEFEL.tangent(q, x),
        "horizontal": STIEFEL.horizontal(q, x),
        "j": STIEFEL.j(x),
        "reeb": STIEFEL.reeb(q),
        "alpha": STIEFEL.alpha(q, x),
        "move": STIEFEL.move(q, delta),
        "edge_residual": STIEFEL.edge_residual(q, delta),
        "reeb_slope": STIEFEL.reeb_slope(q, delta),
    }
    for i in range(N):
        points = {
            "tangent": STIEFEL.tangent(q[i], x[i]),
            "horizontal": STIEFEL.horizontal(q[i], x[i]),
            "j": STIEFEL.j(x[i]),
            "reeb": STIEFEL.reeb(q[i]),
            "alpha": STIEFEL.alpha(q[i], x[i]),
            "move": STIEFEL.move(q[i], delta[i]),
            "edge_residual": STIEFEL.edge_residual(q[i], delta[i]),
            "reeb_slope": STIEFEL.reeb_slope(q[i], delta[i]),
        }
        for name, got in points.items():
            assert np.shape(got) == np.shape(stacks[name][i]), name
            assert np.array_equal(got, stacks[name][i]), name


@settings(max_examples=30, deadline=None)
@given(frames_and_vectors(), hst.integers(0, N - 1))
def test_rank_deficient_frames_raise(data, i):
    q, x = data
    a, b = q[:, :4], q[:, 4:]
    # The move takes b onto a, and the edge midpoint of that move has b = a.
    delta = np.zeros_like(q)
    delta[i, 4:] = a[i] - b[i]
    with pytest.raises(DegenerateFrameError):
        STIEFEL.move(q, delta)
    with pytest.raises(DegenerateFrameError):
        STIEFEL.edge_residual(q, 2.0 * delta)
    STIEFEL.move(q, 0.5 * delta)  # a full-rank neighbour of the same frames passes
