"""Per-mesh set-up against its reference bodies on relabelled corpus meshes.

The topology comes from one sort of the undirected edge keys, the Gauss
stencil is written straight into CSR, and the seam offsets touch only the
Reeb row.  Relabelling the vertices, reordering the faces and rotating each
face's corners must leave the topology equal to the per-face loops
(``reference_loops.mesh_adjacency``) and the stencil equal to the pinv
assembly; a flipped face must name the repeated directed edge that
``np.unique`` finds; and on seamed tori FaceData and the energy gradient
must match a build with dense (V, dim) seam shifts.  The signed face edges
must follow the relabelling, close every exact edge form, and give the face
one-form of an exact form as the gradient of its vertex values.  The NumPy
component count must equal ``scipy.sparse.csgraph``'s on relabelled meshes,
on arbitrary edge lists and on the density curve's sublevel subgraphs.
"""

import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.sparse.csgraph import connected_components

import reference_loops as ref
from legsurf import corpus, energy, gauge_lab
from legsurf.errors import GeometryDomainError
from legsurf.immersion import FaceData
from legsurf.mesh import SurfaceMesh, component_count

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


def _relabelling(mesh, seed):
    """A random vertex relabelling ``perm`` (old vertex v becomes perm[v]),
    face order (new face i is old face order[i]) and per-face corner shift
    (new corner c is old corner (c + shift[i]) % 3, which keeps the face's
    orientation)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_vertices)
    order = rng.permutation(len(mesh.triangles))
    return perm, order, rng.integers(0, 3, size=len(order))


def _relabelled(mesh, seed):
    """``mesh`` with its vertices relabelled, its faces reordered and each
    face's corners rotated (:func:`_relabelling`)."""
    perm, order, shift = _relabelling(mesh, seed)
    rotation = (np.arange(3) + shift[:, None]) % 3
    return _rebuilt(mesh, np.take_along_axis(perm[mesh.triangles][order], rotation, axis=1), perm)


def _relabelled_immersion(imm, seed):
    """``imm`` on :func:`_relabelled` of its mesh, its positions moved with the vertices."""
    positions = np.empty_like(imm.positions)
    positions[_relabelling(imm.mesh, seed)[0]] = imm.positions
    return dataclasses.replace(imm, mesh=_relabelled(imm.mesh, seed), positions=positions)


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
    assert len(mesh.edges) == len(original.edges)
    assert mesh.boundary_edge_mask.sum() == original.boundary_edge_mask.sum()


@relabellings
@settings(max_examples=40, deadline=None)
def test_face_edge_signs_follow_relabelling(name, seed):
    original = MESHES[name]().mesh
    mesh = _relabelled(original, seed)
    perm, order, shift = _relabelling(original, seed)
    # Local edge k runs corner k + 1 -> k + 2 along (sign +1) or against its edge.
    tri, signs = mesh.triangles, mesh.face_edge_signs
    along = np.stack([tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]], axis=1)
    oriented = np.where(signs[..., None] > 0, along, along[..., ::-1])
    assert np.array_equal(oriented, mesh.edges[mesh.face_edges])
    # New local edge k is old local edge (k + shift) % 3 of the old face, with
    # its sign flipped where the relabelling swaps the order of its ends.
    k_old = (np.arange(3) + shift[:, None]) % 3
    old_signs = np.take_along_axis(original.face_edge_signs[order], k_old, axis=1)
    ends = np.take_along_axis(original.edges[original.face_edges][order], k_old[..., None], axis=1)
    kept = (perm[ends[..., 0]] < perm[ends[..., 1]]) == (ends[..., 0] < ends[..., 1])
    assert np.array_equal(signs, np.where(kept, old_signs, -old_signs))


@relabellings
@settings(max_examples=40, deadline=None)
def test_exact_edge_forms_are_closed(name, seed):
    mesh = _relabelled(MESHES[name]().mesh, seed)
    f = np.random.default_rng(seed).normal(size=mesh.n_vertices)
    df = f[mesh.edges[:, 1]] - f[mesh.edges[:, 0]]
    curl = np.sum(mesh.face_edge_signs * df[mesh.face_edges], axis=1)
    assert np.max(np.abs(curl)) <= 1e-13 * np.max(np.abs(df))


@relabellings
@settings(max_examples=40, deadline=None)
def test_face_one_form_of_exact_form_is_gradient(name, seed):
    # A per-vertex f is single-valued, so its edge differences are exact on
    # seamed tori too; both sides difference it without wraps.
    imm = _relabelled_immersion(MESHES[name](), seed)
    m = imm.mesh
    f = np.random.default_rng(seed).normal(size=m.n_vertices)
    want = imm.face_data.grad_scalar(f)
    got = gauge_lab._face_one_form(imm, f[m.edges[:, 1]] - f[m.edges[:, 0]])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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
    new, old = ref.stencil_matrix(mesh), ref.gauss_stencil_pinv(mesh, mesh.face_uv[0])
    assert new.has_sorted_indices
    np.testing.assert_array_equal(new.indptr, old.indptr)
    np.testing.assert_array_equal(new.indices, old.indices)
    np.testing.assert_allclose(new.data, old.data, rtol=0, atol=1e-12)


def _csgraph_count(n_vertices, edges):
    """scipy's count of the components of the graph with ``edges`` (E, 2)."""
    edges = np.asarray(edges, int).reshape(-1, 2)
    graph = sp.csr_matrix((np.ones(len(edges)), edges.T), shape=(n_vertices, n_vertices))
    return connected_components(graph, directed=False)[0]


@relabellings
@settings(max_examples=40, deadline=None)
def test_component_count_matches_csgraph_after_relabelling(name, seed):
    mesh = _relabelled(MESHES[name]().mesh, seed)
    want = connected_components(mesh.vertex_graph, directed=False)[0]
    assert component_count(mesh.n_vertices, mesh.edges) == want
    assert want == (2 if name == "double_sheet" else 1)


@hst.composite
def edge_lists(draw):
    """A vertex count and an edge list on it, possibly empty, with isolated
    vertices, self-loops, and some edges repeated and some reversed."""
    n = draw(hst.integers(1, 200))
    vertex = hst.integers(0, n - 1)
    edges = draw(hst.lists(hst.tuples(vertex, vertex), max_size=2 * n))
    repeated = draw(hst.lists(hst.sampled_from(edges), max_size=10)) if edges else []
    reversed_ = [(b, a) for a, b in draw(hst.lists(hst.sampled_from(edges), max_size=10))] if edges else []
    return n, edges + repeated + reversed_


@given(graph=edge_lists())
@settings(max_examples=200, deadline=None)
def test_component_count_matches_csgraph_on_edge_lists(graph):
    n, edges = graph
    assert component_count(n, edges) == _csgraph_count(n, edges)


def test_component_count_without_edges_counts_every_vertex():
    assert component_count(0, []) == 0
    assert component_count(7, np.empty((0, 2), int)) == 7


SUBLEVEL_MESHES = {
    "double_sheet": lambda: corpus.double_sheet(5),
    "perturbed_clifford": lambda: corpus.perturbed_clifford(8),
}


@given(name=hst.sampled_from(sorted(SUBLEVEL_MESHES)), vertex=hst.integers(0, 10**6),
       levels=hst.lists(hst.floats(0.0, 1.0), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_sublevel_component_count_matches_csgraph(name, vertex, levels):
    imm = SUBLEVEL_MESHES[name]()
    gf = gauge_lab.gauge_fields(imm, imm.positions[vertex % imm.mesh.n_vertices])
    for s in np.quantile(gf.r, levels):  # the smallest radius leaves no vertex inside
        idx = np.flatnonzero(gf.r < s)
        want = connected_components(imm.mesh.vertex_graph[idx][:, idx], directed=False)[0]
        assert gauge_lab._component_count(imm, gf.r, s) == want


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
    assert imm.mesh.face_uv[1] is not None and any(imm.phi_monodromy)  # seams with offsets
    fd = FaceData(imm)
    for attr, want in ref.face_data_arrays(imm).items():
        assert _rel_err(getattr(fd, attr), want) <= 1e-14, attr
    asm = energy.EnergyAssembler(imm)
    want = ref.energy_gradient(asm, imm, 0.2)
    assert _rel_err(asm.gradient(imm, 0.2).covector, want) <= 1e-14
