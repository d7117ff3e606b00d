"""Sparse and vectorised kernels against their per-element loop versions."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import reference_loops as ref
from legsurf import corpus, gauge_lab
from legsurf.energy import EnergyAssembler
from legsurf.errors import GeometryDomainError
from legsurf.immersion import FaceData, mean_curvature_one_form
from legsurf.mesh import DiscreteImmersion, SurfaceMesh
from legsurf.polynomials import random_polynomial

STENCIL_CASES = [
    ("flat_patch", dict(n=6)),  # boundary faces with one and two neighbours
    ("clifford_lift", dict(n=8, target="heisenberg", warp=0.3)),  # seam faces
    ("clifford_lift", dict(n=8, target="stiefel", warp=0.3)),
    ("double_sheet", dict(n=5)),  # two components
]

MESH_CASES = STENCIL_CASES + [("reeb_orbit_tube_excluded", {}), ("perturbed_clifford", dict(n=6))]


def _immersion(family, kw):
    return corpus.generate(family, **kw)


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("family,kw", STENCIL_CASES)
def test_stencil_matches_face_loops(family, kw):
    imm = _immersion(family, kw)
    nbrs, q = ref.stencil_weights(imm.mesh)
    rng = np.random.default_rng(0)
    moved = imm.with_positions(imm.positions + 1e-2 * rng.normal(size=imm.positions.shape))
    fd = FaceData(moved)
    a_list, _, _ = fd.gauss_gradients
    assert _rel_err(a_list, ref.stencil_apply(nbrs, q, fd.gauss)) < 1e-13
    t_dot = rng.normal(size=fd.gauss.shape)
    a_dot = (ref.stencil_matrix(imm.mesh) @ t_dot).reshape(a_list.shape)
    assert _rel_err(a_dot, ref.stencil_apply(nbrs, q, t_dot)) < 1e-13
    a_bar = rng.normal(size=a_list.shape)
    t_bar = imm.mesh.gauss_stencil_t @ a_bar.reshape(-1, fd.gauss.shape[1])
    assert _rel_err(t_bar, ref.stencil_adjoint(nbrs, q, a_bar)) < 1e-13


def test_single_face_has_empty_stencil():
    mesh = SurfaceMesh([[0, 1, 2]], 3, uv=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], boundary_loops=[[0, 1, 2]])
    imm = DiscreteImmersion(mesh=mesh, target="heisenberg",
                            positions=[[0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0]])
    asm = EnergyAssembler(imm)
    slots, weights = mesh.gauss_stencil
    assert slots.tolist() == [[0]] * 4 and not weights.any()
    assert mesh.gauss_stencil_t.shape == (1, 2) and mesh.gauss_stencil_t.nnz == 0
    e = asm.energy(imm, 0.5)
    assert e.penalty == pytest.approx(0.5**4 * e.area, rel=1e-14)


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _isolated_faces():
    """A patch of three faces of the Clifford torus that share no edge: every
    face lacks all three neighbours."""
    imm = corpus.clifford_lift(8)
    nbrs = imm.mesh.face_neighbors
    faces = [0]
    for f in range(len(nbrs)):
        if not any(g in nbrs[f] or g == f for g in faces) and len(faces) < 3:
            faces.append(f)
    return imm.restrict(np.array(faces))


def _ball(imm):
    """The gauge-ball patch about vertex 0, whose faces cross the seam."""
    return gauge_lab.gauge_ball(imm, imm.positions[0], 1.0)


# Meshes with boundary faces (one and two neighbours), seam faces on both
# targets, the cone's three-face fan, a gauge-ball patch and faces with no
# neighbour at all.
KERNEL_CASES = {
    "flat_patch": lambda: corpus.flat_patch(6),
    "clifford-heisenberg": lambda: corpus.clifford_lift(8, target="heisenberg", warp=0.3),
    "clifford-stiefel": lambda: corpus.clifford_lift(8, target="stiefel", warp=0.3),
    "cone": corpus.cone_fixture,
    "patch": lambda: _ball(corpus.clifford_lift(12)),
    "isolated": _isolated_faces,
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_edge_divergence_equals_incidence_product(case):
    imm = KERNEL_CASES[case]()
    m = imm.mesh
    d_t = ref.incidence(m).T
    rng = np.random.default_rng(5)
    n_e, k = len(m.edges), imm.positions.shape[1]
    for shape in [(n_e,), (n_e, 1), (n_e, k)]:
        y = rng.standard_normal(shape)
        for values in (y, np.ascontiguousarray(y.T).T):  # row-major, and component rows
            assert _bits(m.edge_divergence(values)) == _bits(d_t @ values)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_gathered_gauss_gradient_equals_stencil_product(case):
    imm = KERNEL_CASES[case]()
    m = imm.mesh
    if imm.target == "heisenberg":
        rng = np.random.default_rng(6)
        imm = imm.with_positions(imm.positions + 1e-2 * rng.normal(size=imm.positions.shape))
    a_list = imm.face_data.gauss_gradients[0]  # (F, 2, K2)
    matrix = ref.stencil_matrix(m)
    want = (matrix @ np.ascontiguousarray(imm.face_data.gauss)).reshape(a_list.shape)
    assert _bits(a_list) == _bits(want)
    # The adjoint's CSR, built from the same tables, is that matrix
    # transposed, entry for entry.
    got, want_t = m.gauss_stencil_t, matrix.T.tocsr()
    for name in ("indptr", "indices", "data"):
        assert _bits(getattr(got, name)) == _bits(getattr(want_t, name)), name


@pytest.mark.parametrize("family,kw", MESH_CASES)
def test_adjacency_matches_loops(family, kw):
    mesh = _immersion(family, kw).mesh
    expected = ref.mesh_adjacency(mesh)
    for name in ("edges", "face_edges", "face_neighbors", "boundary_edge_mask"):
        assert np.array_equal(getattr(mesh, name), expected[name]), name
    graph = mesh.vertex_graph
    assert graph.nnz == len(mesh.edges)
    assert np.all(graph[mesh.edges[:, 0], mesh.edges[:, 1]] == 1.0)
    assert [set(row) for row in (graph + graph.T).tolil().rows] == expected["vertex_neighbors"]


class TestMeshErrors:
    def test_index_out_of_range(self):
        for tri in ([[0, 1, 5]], [[0, -1, 2]]):
            with pytest.raises(GeometryDomainError, match="triangle index out of range"):
                SurfaceMesh(tri, 3)

    def test_inconsistent_orientation(self):
        # Three faces on one edge always repeat a directed edge.
        for tri, n in (([[0, 1, 2], [0, 1, 3]], 4), ([[0, 1, 2], [0, 1, 3], [0, 1, 4]], 5)):
            with pytest.raises(GeometryDomainError, match=r"directed edge \(0, 1\) repeated"):
                SurfaceMesh(tri, n)

    def test_euler_characteristic(self):
        with pytest.raises(GeometryDomainError, match="Euler characteristic 1 inconsistent"):
            SurfaceMesh([[0, 1, 2]], 3, genus=1)

    def test_cli_mesh_out_of_range_exits_two(self, tmp_path):
        good = {"target": "heisenberg", "vertices": [[0.0] * 5] * 3, "triangles": [[0, 1, 2]],
                "boundary_loops": [[0, 1, 2]]}
        cases = [
            ({"triangles": [[0, 1, 5]]}, "triangle index out of range"),
            ({"uv": [[0.0, 0.0]]}, "uv must have shape (3, 2), got shape (1, 2)"),
            ({"vertices": [[0.0] * 4] * 3}, "positions must have shape (3, 5), got shape (3, 4)"),
            ({"vertices": [[0.0] * 5, [0.0] * 5, [0.0] * 4]},
             "positions must have shape (3, 5), got ragged rows"),
        ]
        for i, (change, message) in enumerate(cases):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps({**good, **change}))
            r = subprocess.run(
                [sys.executable, "-m", "legsurf.cli", "energy", "--mesh", str(path),
                 "--epsilon", "0.2", "--out", str(tmp_path / "out")],
                capture_output=True, text=True,
            )
            assert r.returncode == 2, r.stderr
            assert message in r.stderr
            assert "Traceback" not in r.stderr


@pytest.mark.parametrize("family,kw", [("flat_patch", dict(n=8, center=True)), ("double_sheet", dict(n=6))])
def test_component_count_matches_union_find(family, kw):
    imm = _immersion(family, kw)
    gf = gauge_lab.gauge_fields(imm, np.zeros(5))
    for s in np.quantile(gf.r, [0.0, 0.05, 0.3, 0.7, 1.0]) + 1e-12:
        assert gauge_lab._component_count(imm, gf.r, s) == ref.component_count(imm.mesh, gf.r, s)


@pytest.mark.parametrize("target", ["heisenberg", "stiefel"])
def test_face_one_form_matches_edge_dict(target):
    imm = corpus.clifford_lift(n=8, target=target, warp=0.3)
    fd = FaceData(imm)
    gamma = 0.5 * mean_curvature_one_form(imm).gamma
    got = gauge_lab._face_one_form(imm, gamma)
    assert np.array_equal(got, ref.face_one_form(imm.mesh, fd.minv, gamma))


def test_polynomial_power_table_matches_pow():
    """The multiplied power table is within e ulps of pow; values and gradients
    within 1e-14 of the sum of the absolute terms (the rounding scale of the sum)."""
    rng = np.random.default_rng(3)
    eps = np.finfo(float).eps
    for _ in range(50):
        n_vars = int(rng.integers(1, 9))
        poly = random_polynomial(rng, n_vars, degree=int(rng.integers(0, 6)),
                                 n_terms=int(rng.integers(1, 20)))
        x = rng.normal(size=(int(rng.integers(1, 40)), n_vars))
        table = poly._power_table(x).reshape(-1, n_vars, len(x))  # (degree, n_vars, points)
        e = np.arange(1, len(table) + 1)[:, None, None]
        pow_table = x.T ** e
        assert np.all(np.abs(table - pow_table) <= e * eps * np.abs(pow_table))
        ref.assert_polynomial_close(poly, x, poly(x), poly.grad(x))
        ref.assert_polynomial_close(poly, x[0], *poly.value_and_grad(x[0]))


def _relabelled(imm, perm):
    """The same immersion with vertex v renamed perm[v]."""
    m = imm.mesh
    inv = np.argsort(perm)
    mesh = SurfaceMesh(
        triangles=perm[m.triangles],
        n_vertices=m.n_vertices,
        uv=m.uv[inv],
        genus=m.genus,
        boundary_loops=[perm[loop].tolist() for loop in m.boundary_loops],
        uv_periods=m.uv_periods,
        generator_loops=[perm[loop].tolist() for loop in m.generator_loops],
    )
    return DiscreteImmersion(
        mesh=mesh, target=imm.target, positions=imm.positions[inv],
        legendrian_tol=imm.legendrian_tol, phi_monodromy=imm.phi_monodromy,
    )


RELABEL_CASES = [
    ("flat_patch", dict(n=5)),
    ("clifford_lift", dict(n=6, target="heisenberg", warp=0.3)),
    ("clifford_lift", dict(n=6, target="stiefel", warp=0.3)),
]


@settings(max_examples=25, deadline=None)
@given(case=hst.sampled_from(RELABEL_CASES), seed=hst.integers(0, 2**32 - 1),
       eps=hst.floats(0.05, 0.5))
def test_energy_and_gradient_invariant_under_relabelling(case, seed, eps):
    imm = _immersion(*case)
    rng = np.random.default_rng(seed)
    if imm.target == "heisenberg":
        imm = imm.with_positions(imm.positions + 1e-2 * rng.normal(size=imm.positions.shape))
    perm = rng.permutation(imm.mesh.n_vertices)
    other = _relabelled(imm, perm)
    e0 = EnergyAssembler(imm).energy(imm, eps)
    e1 = EnergyAssembler(other).energy(other, eps)
    assert e1.total == pytest.approx(e0.total, rel=1e-12)
    assert e1.penalty == pytest.approx(e0.penalty, rel=1e-12)
    g0 = EnergyAssembler(imm).gradient(imm, eps).covector
    g1 = EnergyAssembler(other).gradient(other, eps).covector
    assert _rel_err(g1[perm], g0) < 1e-12
