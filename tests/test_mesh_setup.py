"""Per-mesh set-up against its reference bodies on relabelled corpus meshes.

The topology comes from one sort of the undirected edge keys, the Gauss
stencil is written straight into CSR, and the seam offsets touch only the
Reeb row.  Relabelling the vertices, reordering the faces and rotating each
face's corners must leave the topology equal to the per-face loops
(``reference_loops.mesh_adjacency``) and the stencil equal to the pinv
assembly; a flipped face must name the repeated directed edge that
``np.unique`` finds; and on seamed tori FaceData and the energy gradient
must match a build with dense (V, dim) seam shifts.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import reference_loops as ref
from legsurf import corpus, energy
from legsurf.errors import GeometryDomainError
from legsurf.immersion import FaceData
from legsurf.mesh import SurfaceMesh

MESHES = {
    "flat_patch": lambda: corpus.flat_patch(6),  # faces with one and two neighbours
    "clifford_lift": lambda: corpus.clifford_lift(6, warp=0.2),  # seam faces
    "clifford_lift stiefel": lambda: corpus.clifford_lift(6, target="stiefel"),
    "double_sheet": lambda: corpus.double_sheet(5),  # two components
    "cone": corpus.cone_fixture,  # a valence-3 apex
}
TOPOLOGY = ("edges", "face_edges", "face_neighbors", "boundary_edge_mask")


def _rebuilt(mesh, triangles, perm=None):
    """``mesh`` with new triangles, its vertex data moved by the relabelling
    ``perm`` (old vertex v becomes perm[v])."""
    perm = np.arange(mesh.n_vertices) if perm is None else perm
    uv = None
    if mesh.uv is not None:
        uv = np.empty_like(mesh.uv)
        uv[perm] = mesh.uv
    return SurfaceMesh(
        triangles, mesh.n_vertices, uv=uv, genus=mesh.genus,
        boundary_loops=[perm[loop] for loop in mesh.boundary_loops],
        uv_periods=mesh.uv_periods,
        generator_loops=[perm[loop] for loop in mesh.generator_loops],
    )


def _relabelled(mesh, seed):
    """``mesh`` with its vertices relabelled, its faces reordered and each
    face's corners rotated (which keeps its orientation)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_vertices)
    tri = perm[mesh.triangles][rng.permutation(len(mesh.triangles))]
    rotation = (np.arange(3) + rng.integers(0, 3, size=(len(tri), 1))) % 3
    return _rebuilt(mesh, np.take_along_axis(tri, rotation, axis=1), perm)


relabellings = given(name=hst.sampled_from(sorted(MESHES)), seed=hst.integers(0, 2**32 - 1))


@relabellings
@settings(max_examples=40, deadline=None)
def test_topology_matches_loops_after_relabelling(name, seed):
    original = MESHES[name]().mesh
    mesh = _relabelled(original, seed)
    expected = ref.mesh_adjacency(mesh)
    for attr in TOPOLOGY:
        assert np.array_equal(getattr(mesh, attr), expected[attr]), attr
    graph = mesh.vertex_graph
    assert graph.has_sorted_indices and graph.nnz == len(mesh.edges)
    assert [set(row) for row in (graph + graph.T).tolil().rows] == expected["vertex_neighbors"]
    assert mesh.boundary_vertices == expected["boundary_vertices"]
    assert len(mesh.edges) == len(original.edges)
    assert mesh.boundary_edge_mask.sum() == original.boundary_edge_mask.sum()


@relabellings
@settings(max_examples=40, deadline=None)
def test_flipped_face_names_the_reference_edge(name, seed):
    mesh = _relabelled(MESHES[name]().mesh, seed)
    tri = mesh.triangles.copy()
    f = np.random.default_rng(seed).integers(len(tri))
    tri[f] = tri[f, ::-1]
    edge = ref.repeated_directed_edge(tri, mesh.n_vertices)
    assert edge is not None  # every corpus face shares an edge
    with pytest.raises(GeometryDomainError, match=re.escape(f"directed edge {edge} repeated")):
        _rebuilt(mesh, tri)


@relabellings
@settings(max_examples=20, deadline=None)
def test_edge_on_three_faces_names_the_reference_edge(name, seed):
    mesh = _relabelled(MESHES[name]().mesh, seed)
    interior = mesh.edges[~mesh.boundary_edge_mask]
    a, b = interior[np.random.default_rng(seed).integers(len(interior))]
    # A third face on interior edge (a, b), through a new vertex, either way round.
    extra = [a, b, mesh.n_vertices] if seed % 2 else [b, a, mesh.n_vertices]
    tri = np.vstack([mesh.triangles, extra])
    edge = ref.repeated_directed_edge(tri, mesh.n_vertices + 1)
    assert edge is not None
    with pytest.raises(GeometryDomainError, match=re.escape(f"directed edge {edge} repeated")):
        SurfaceMesh(tri, mesh.n_vertices + 1)


@relabellings
@settings(max_examples=40, deadline=None)
def test_stencil_matches_pinv_after_relabelling(name, seed):
    mesh = _relabelled(MESHES[name]().mesh, seed)
    counts = set((mesh.face_neighbors >= 0).sum(axis=1).tolist())
    if name == "flat_patch":
        assert {1, 2, 3} <= counts
    new, old = mesh.gauss_stencil, ref.gauss_stencil_pinv(mesh, mesh.corner_uv_local()[0])
    assert new.has_sorted_indices
    np.testing.assert_array_equal(new.indptr, old.indptr)
    np.testing.assert_array_equal(new.indices, old.indices)
    np.testing.assert_allclose(new.data, old.data, rtol=0, atol=1e-12)


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


@given(n=hst.integers(4, 10), warp=hst.floats(0.0, 0.3),
       amplitude=hst.sampled_from([0.0, 1e-2, 5e-2]), seed=hst.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_seamed_face_data_and_gradient_match_dense_shifts(n, warp, amplitude, seed):
    imm = corpus.clifford_lift(n, warp=warp)
    if amplitude:
        rng = np.random.default_rng(seed)
        imm = imm.with_positions(imm.positions + amplitude * rng.normal(size=imm.positions.shape))
    assert imm.mesh.face_uv[0] is not None and any(imm.phi_monodromy)  # seams with offsets
    fd = FaceData(imm)
    for attr, want in ref.face_data_arrays(imm).items():
        assert _rel_err(getattr(fd, attr), want) <= 1e-14, attr
    asm = energy.EnergyAssembler(imm)
    want = ref.energy_gradient(asm, imm, 0.2)
    assert _rel_err(asm.gradient(imm, 0.2).covector, want) <= 1e-14
