"""Closed-form 2x2 kernels against their general-purpose versions.

The polar retraction, the metric algebra of the energy and the gradient
scatters are checked against the SVD, einsum and np.add.at bodies kept in
``reference_loops``; the retraction also against its defining properties.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

import reference_loops as ref
from legsurf import cli, corpus, energy, immersion
from legsurf import stiefel as st
from legsurf.errors import DegenerateFrameError
from legsurf.fields import STIEFEL
from legsurf.immersion import FaceData

CASES = [
    (family, n, target)
    for family in ("clifford_lift", "perturbed_clifford")
    for n in (12, 24)
    for target in ("heisenberg", "stiefel")
]


def _generate(family, n, target):
    """The mesh, with its vertices moved off the (symmetric, near-critical)
    surface so that no compared quantity is a cancellation down to rounding."""
    if family == "clifford_lift":
        imm = corpus.clifford_lift(n, target=target, warp=0.3)
    else:
        imm = corpus.perturbed_clifford(n, amplitude=5e-2, seed=4, target=target)
    geo = imm.geometry
    noise = np.random.default_rng(n).standard_normal(imm.positions.shape)
    return imm.with_positions(geo.move(imm.positions, 1e-2 * geo.tangent(imm.positions, noise)))


def retract(a, b):
    """The frame target's retraction of raw frames (a, b), stacked (..., 8)."""
    return STIEFEL.move(np.concatenate([a, b], axis=-1), 0.0)


def _rel_err(a, b):
    return float(np.max(np.abs(np.asarray(a) - b)) / max(np.max(np.abs(b)), 1e-300))


@pytest.mark.parametrize("family,n,target", CASES)
def test_energy_kernels_match_einsum_bodies(family, n, target):
    imm = _generate(family, n, target)
    asm = energy.EnergyAssembler(imm)
    p = imm.positions
    eps = 0.2
    fd = FaceData(imm)
    _, aat, quad = fd.gauss_gradients
    a_ref, quad_ref = ref.gauss_gradients(fd)
    assert _rel_err(aat, np.einsum("fai,fbi->fab", a_ref, a_ref)) <= 1e-12
    assert _rel_err(quad, quad_ref) <= 1e-12
    assert _rel_err(asm.gradient(imm, eps).covector, ref.energy_gradient(asm, imm, eps)) <= 1e-12
    w = np.random.default_rng(7).standard_normal(p.shape)
    fv = asm.first_variation(imm, eps, w)
    assert abs(fv - ref.energy_first_variation(asm, imm, eps, w)) <= 1e-12 * abs(fv)


@pytest.mark.parametrize("family,n,target", CASES)
def test_projection_kernels_match_einsum_bodies(family, n, target):
    imm = _generate(family, n, target)
    fd = FaceData(imm)
    b_map, bt_map = energy.hamiltonian_map(imm)
    b_ref, bt_ref = ref.hamiltonian_operator(imm, fd)
    rng = np.random.default_rng(8)
    u = rng.standard_normal(len(imm.positions))
    y = rng.standard_normal(imm.positions.shape)
    assert _rel_err(b_map(u), b_ref(u)) <= 1e-12
    assert _rel_err(bt_map(y), bt_ref(y)) <= 1e-12
    weights, areas = immersion.cotangent_weights(imm)
    weights_ref, areas_ref = ref.cotangent_weights(imm, fd)
    assert _rel_err(weights, weights_ref) <= 1e-12
    assert _rel_err(areas, areas_ref) <= 1e-12


def test_retraction_matches_svd():
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((2, 2000, 4))
    for scale in (1.0, 1e-3):  # random frames, then near-orthonormal ones
        q = retract(a, b)
        ra, rb = ref.retract_svd(a, b)
        assert max(np.max(np.abs(q[:, :4] - ra)), np.max(np.abs(q[:, 4:] - rb))) <= 1e-12
        a, b = ra + scale * rng.standard_normal(ra.shape), rb + scale * rng.standard_normal(rb.shape)


def test_edge_midpoint_retraction_matches_svd():
    imm = corpus.perturbed_clifford(24, amplitude=5e-2, seed=4, target="stiefel")
    tails, heads = imm.mesh.edges[:, 0], imm.mesh.edges[:, 1]
    mid = 0.5 * (imm.positions[tails] + imm.positions[heads])
    ra, rb = ref.retract_svd(mid[:, :4], mid[:, 4:])
    assert _rel_err(STIEFEL.move(mid, 0.0), np.concatenate([ra, rb], axis=1)) <= 1e-12


@pytest.mark.parametrize("n", [12, 24])
def test_reeb_slope_matches_svd_body(n):
    imm = _generate("perturbed_clifford", n, "stiefel")
    tails, heads = imm.mesh.edges[:, 0], imm.mesh.edges[:, 1]
    p_tail, delta = imm.positions[tails], imm.edge_differences()[1]
    slopes = imm.geometry.reeb_slope(p_tail, delta)
    assert _rel_err(slopes, ref.frame_reeb_slope(p_tail, delta)) <= 1e-12


def _frames(singular_values, seed):
    """Raw 4x2 frames U diag(s) V^T with random orthonormal U (4x2) and V (2x2)."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((len(singular_values), 4, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((len(singular_values), 2, 2)))
    m = (u * np.asarray(singular_values, float)[:, None, :]) @ v.transpose(0, 2, 1)
    return m[..., 0], m[..., 1]


# Full-rank frames within a condition number of 100: the closed form loses
# orthonormality like eps * cond(M), so 1e-13 leaves headroom at that bound.
@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, (4, 2), elements=hst.floats(-10.0, 10.0)))
def test_polar_factor_properties(m):
    s = np.linalg.svd(m, compute_uv=False)
    assume(s[0] > 1e-3 and s[1] >= 1e-2 * s[0])
    q, (p11, p12, p22), tr_s = st.polar_rows(m[:, 0], m[:, 1])
    q = np.stack([q[:4], q[4:]], axis=-1)
    assert np.max(np.abs(q.T @ q - np.eye(2))) <= 1e-13
    s_mat = q.T @ m
    assert abs(s_mat[0, 1] - s_mat[1, 0]) <= 1e-13 * s[0]
    assert np.all(np.linalg.eigvalsh(0.5 * (s_mat + s_mat.T)) > 0)
    assert tr_s == pytest.approx(np.trace(s_mat), rel=1e-13)
    s_inv = np.array([[p11, p12], [p12, p22]])
    assert np.max(np.abs(s_inv @ s_mat - np.eye(2))) <= 1e-12


def test_rank_deficient_frames_raise():
    a = np.array([1.0, 2.0, 0.0, -1.0])
    with pytest.raises(DegenerateFrameError):
        retract(a, -3.0 * a)
    with pytest.raises(DegenerateFrameError):
        retract(a, np.zeros(4))
    with pytest.raises(DegenerateFrameError):
        retract(np.zeros(4), np.zeros(4))


def test_degeneracy_threshold_kept():
    # s_min <= 1e-13 max(s_max, 1) raises, as with the singular values of an SVD
    for s_max in (1.0, 1e3):
        for ratio, raises in ((1e-14, True), (0.5e-13, True), (1e-12, False)):
            s_min = ratio * max(s_max, 1.0)
            a, b = _frames([[s_max, s_min]], seed=3)
            if raises:
                with pytest.raises(DegenerateFrameError):
                    retract(a, b)
            else:
                retract(a, b)


def test_descent_halves_step_on_degenerate_frame(monkeypatch):
    imm = corpus.perturbed_clifford(12, seed=3, target="stiefel")
    opts = energy.DescentOptions(max_iters=1)
    real_step = energy.flow_step
    taus = []

    def counting(imm_, w, tau):
        taus.append(tau)
        return real_step(imm_, w, tau)

    monkeypatch.setattr(energy, "flow_step", counting)
    baseline = energy.descend(imm, [0.2], opts)
    base_taus = list(taus)
    taus.clear()

    def collapse_once(imm_, w, tau):
        if not taus:
            taus.append(tau)
            raise DegenerateFrameError("frame vectors are (numerically) linearly dependent")
        return counting(imm_, w, tau)

    monkeypatch.setattr(energy, "flow_step", collapse_once)
    result = energy.descend(imm, [0.2], opts)
    assert len(result.records) == len(baseline.records) == 1
    assert len(taus) == len(base_taus) + 1  # one extra backtrack
    assert taus[1] == 0.5 * taus[0] == 0.5 * base_taus[0]


def test_cli_maps_degenerate_frame_to_validation_exit(monkeypatch, tmp_path, capsys):
    def collapse(config, out):
        raise DegenerateFrameError("frame vectors are (numerically) linearly dependent")

    monkeypatch.setitem(cli.COMMANDS, "energy", collapse)
    status = cli.main(["energy", "--epsilon", "0.2", "--out", str(tmp_path)])
    assert status == cli.EXIT_VALIDATION
    assert "linearly dependent" in capsys.readouterr().err
