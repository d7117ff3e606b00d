"""The one-shot analysis kernels against their loop versions, and the work a
``density`` or ``monotonicity`` run does.

The mean-curvature one-form integrates beta along a breadth-first tree, the
generator-loop periods look edges up by key, grid triangles come from index
arithmetic and the Gauss stencil's least-squares weights are written out in
closed form; each is compared with the body it replaced
(``tests/reference_loops.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.sparse.csgraph import shortest_path

import reference_loops as ref
from legsurf import cli, corpus, gauge_lab, immersion, mesh
from legsurf.errors import GeometryDomainError

MCF_CASES = [
    ("flat_patch", dict(n=8)),
    ("clifford_lift", dict(n=12)),
    ("clifford_lift", dict(n=10, target="stiefel")),
    ("perturbed_clifford", dict(n=10)),
    ("perturbed_clifford", dict(n=8, target="stiefel")),
    ("double_sheet", dict(n=6)),
]


def _mesh_id(case):
    family, kw = case
    return family + "".join(f"-{v}" for v in kw.values())


@pytest.fixture(params=MCF_CASES, ids=_mesh_id)
def imm(request):
    family, kw = request.param
    return corpus.generate(family, **kw)


class TestMeanCurvatureOneForm:
    def test_matches_loop_version(self, imm):
        new = immersion.mean_curvature_one_form(imm)
        old = ref.mean_curvature_one_form(imm)
        for field in ("gamma", "curl", "periods", "laplace_beta_residual", "vertex_areas"):
            np.testing.assert_allclose(
                getattr(new, field), getattr(old, field), rtol=0, atol=1e-12, err_msg=field
            )
        assert new.component_roots == old.component_roots

    def test_beta_integrates_gamma_on_breadth_first_tree(self, imm):
        # Every vertex but a root is reached from a vertex one breadth-first
        # level closer to its root by an edge on which d beta = gamma / 2.
        mcf = immersion.mean_curvature_one_form(imm)
        m = imm.mesh
        tails, heads = m.edges[:, 0], m.edges[:, 1]
        roots = mcf.component_roots
        comps = ref.components(m, ref.mesh_adjacency(m)["vertex_neighbors"])
        assert roots == [comp[0] for comp in comps]  # each component's smallest vertex
        assert np.all(mcf.beta[roots] == 0.0)
        graph = abs(m.edge_incidence.T @ m.edge_incidence)
        levels = shortest_path(graph, directed=False, unweighted=True, indices=roots).min(axis=0)
        assert np.all(np.isfinite(levels))
        scale = max(1.0, float(np.abs(mcf.beta).max()))
        exact = np.abs(mcf.beta[heads] - mcf.beta[tails] - 0.5 * mcf.gamma) <= 1e-13 * scale
        deeper = np.where(levels[heads] > levels[tails], heads, tails)
        step = np.abs(levels[heads] - levels[tails]) == 1
        reached = np.zeros(m.n_vertices, bool)
        reached[deeper[exact & step]] = True
        reached[roots] = True
        assert reached.all()

    def test_reuses_given_face_data(self, imm):
        # The immersion's kept FaceData gives what a fresh one (another
        # immersion at the same positions) gives.
        a = immersion.mean_curvature_one_form(imm)
        b = immersion.mean_curvature_one_form(imm.with_positions(imm.positions))
        np.testing.assert_array_equal(a.gamma, b.gamma)
        np.testing.assert_array_equal(a.laplace_beta_residual, b.laplace_beta_residual)

    def test_missing_loop_edge_raises(self):
        cl = corpus.clifford_lift(8)
        cl.mesh.generator_loops = [[0, 1, 2, 3, 4, 5, 6, 7], [0, 2, 4, 6]]
        with pytest.raises(GeometryDomainError, match=r"missing edge \(0, 2\)"):
            immersion.mean_curvature_one_form(cl)
        with pytest.raises(GeometryDomainError, match=r"missing edge \(0, 2\)"):
            ref.mean_curvature_one_form(cl)


@settings(max_examples=40, deadline=None)
@given(
    target=hst.sampled_from(["heisenberg", "stiefel"]),
    n=hst.integers(4, 12),
    warp=hst.floats(0.0, 0.45),
    amplitude=hst.floats(0.0, 0.1),
    seed=hst.integers(0, 2**32 - 1),
)
def test_chord_framed_at_head_is_minus_chord_framed_at_tail(target, n, warp, amplitude, seed):
    # The Clifford lift is a torus whose seam edges carry wraps (and, in the
    # flat model, a Legendrian monodromy); the random tangent move perturbs it.
    imm = corpus.clifford_lift(n, target=target, warp=warp)
    geo = imm.geometry
    noise = np.random.default_rng(seed).standard_normal(imm.positions.shape)
    imm = imm.with_positions(geo.move(imm.positions, amplitude * geo.tangent(imm.positions, noise)))
    chords = immersion.edge_chords(imm)
    at_tail, at_head = ref._edge_chords(imm)
    np.testing.assert_array_equal(chords, at_tail)
    largest = np.max(np.linalg.norm(chords, axis=-1))
    assert np.max(np.abs(at_head + chords)) <= 1e-14 * largest


class TestEdgeIds:
    def test_lookup_both_orders_and_missing(self):
        m = corpus.flat_patch(4).mesh
        e = np.arange(len(m.edges))
        np.testing.assert_array_equal(m.edge_ids(m.edges[:, 0], m.edges[:, 1]), e)
        np.testing.assert_array_equal(m.edge_ids(m.edges[:, 1], m.edges[:, 0]), e)
        last = m.n_vertices - 1
        assert m.edge_ids([0, 3, last], [0, 0, last]).tolist() == [-1, -1, -1]


@pytest.mark.parametrize(
    "args",
    [(5, 7, False, False, 0), (5, 7, True, False, 3), (5, 7, False, True, 0),
     (6, 6, True, True, 10), (2, 2, False, False, 0), (1, 4, False, False, 0)],
)
def test_grid_triangles_match_loop_version(args):
    new = corpus._grid_triangles(*args)
    old = np.asarray(ref.grid_triangles(*args), int).reshape(-1, 3)
    assert new.shape == old.shape
    np.testing.assert_array_equal(new, old)


def _lsq_weights(delta):
    """mesh._lsq_weights on row-major (n, c, 2) blocks, returning (n, 2, c)."""
    return mesh._lsq_weights(delta.transpose(2, 1, 0)).transpose(2, 0, 1)


class TestStencilWeights:
    def test_stencil_matches_pinv(self, imm):
        m = imm.mesh
        uv = m.face_uv[0]
        new = m.gauss_stencil
        old = ref.gauss_stencil_pinv(m, uv)
        np.testing.assert_array_equal(new.indptr, old.indptr)
        np.testing.assert_array_equal(new.indices, old.indices)
        np.testing.assert_allclose(new.data, old.data, rtol=0, atol=1e-12)

    def test_stencil_on_cone_matches_pinv(self):
        m = corpus.cone_fixture().mesh
        uv = m.face_uv[0]
        np.testing.assert_allclose(
            m.gauss_stencil.toarray(), ref.gauss_stencil_pinv(m, uv).toarray(),
            rtol=0, atol=1e-12,
        )

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_blocks_match_pinv(self, c):
        delta = np.random.default_rng(c).uniform(-1.0, 1.0, size=(500, c, 2))
        q, expected = _lsq_weights(delta), np.linalg.pinv(delta)
        if c == 1:  # a single row is always collinear
            np.testing.assert_array_equal(q, expected)
        err = np.abs(q - expected).max(axis=(1, 2)) / np.abs(expected).max(axis=(1, 2))
        assert err.max() <= 1e-11

    def test_collinear_blocks_fall_back_to_pinv(self):
        delta = np.array([
            [[0.1, 0.2], [-0.2, -0.4]],  # collinear rows
            [[0.3, 0.0], [0.0, 0.2]],  # well conditioned
            [[0.1, 0.1], [0.1, 0.1 + 1e-12]],  # collinear up to rounding
        ])
        q = _lsq_weights(delta)
        expected = np.linalg.pinv(delta)
        np.testing.assert_array_equal(q[[0, 2]], expected[[0, 2]])
        np.testing.assert_allclose(q[1], expected[1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("target", ["heisenberg", "stiefel"])
def test_vertex_tangent_frames_match_loop_version(target):
    imm = corpus.perturbed_clifford(8, target=target)
    fd = immersion.FaceData(imm)
    new_frames = gauge_lab.vertex_tangent_frames(imm)
    for new, old in zip(new_frames, ref.vertex_tangent_frames(imm, fd)):
        np.testing.assert_array_equal(new, old)


class TestWorkCounts:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"gauge_fields": 0, "facedata": 0, "balance": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            gauge_lab, "gauge_fields", counted("gauge_fields", gauge_lab.gauge_fields)
        )
        monkeypatch.setattr(
            gauge_lab, "monotonicity_balance", counted("balance", gauge_lab.monotonicity_balance)
        )
        monkeypatch.setattr(
            immersion.FaceData, "__init__", counted("facedata", immersion.FaceData.__init__)
        )
        return counts

    def test_density_evaluates_gauge_fields_once(self, counts, tmp_path):
        argv = ["density", "--family", "flat_patch", "--resolution", "32", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        assert counts["gauge_fields"] == 1
        assert counts["facedata"] == 1

    def test_monotonicity_builds_one_face_data_per_rung(self, counts, tmp_path):
        argv = ["monotonicity", "--resolution-ladder", "48,56", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        assert counts["balance"] == 2
        assert counts["facedata"] == 2
