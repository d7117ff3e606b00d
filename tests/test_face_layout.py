"""Component-major face, vertex and mesh storage and the face kernels built on it.

Every (F, ...) array of a FaceData, its Gauss gradients and the mesh's
inverse parameter matrices, every immersion's (V, k) positions, and the
mesh's triangles, edges, uv and seam wraps, is the transposed view of one
C-contiguous buffer, so a kernel can loop over the few components with
NumPy's inner loop over the faces, edges or vertices.  These
tests pin that layout, so that an edit cannot fall back to row-major
storage unnoticed, and check the kernels against the row-major bodies kept
in ``reference_loops`` to rounding: a component-major row sum may add its
terms in another order.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import reference_loops as ref
from legsurf import corpus, energy, gauge_lab
from legsurf.immersion import FaceData
from legsurf.mesh import DiscreteImmersion, SurfaceMesh

MESHES = [
    ("clifford_lift", dict(n=8, target="heisenberg", warp=0.3)),
    ("clifford_lift", dict(n=8, target="stiefel", warp=0.3)),
    ("perturbed_clifford", dict(n=8, amplitude=5e-2, seed=1)),
    ("perturbed_clifford", dict(n=8, amplitude=5e-2, seed=1, target="stiefel")),
    ("flat_patch", dict(n=6)),
]


def _face_arrays(fd):
    return {name: arr for name, arr in vars(fd).items() if isinstance(arr, np.ndarray)}


@pytest.mark.parametrize("family,kw", MESHES)
def test_face_arrays_are_transposed_component_buffers(family, kw):
    imm = corpus.generate(family, **kw)
    fd = FaceData(imm)
    n_f, k = len(imm.mesh.triangles), imm.positions.shape[1]
    k2 = k * (k - 1) // 2
    shapes = {
        "base_pos": (n_f, k), "d1": (n_f, k), "d2": (n_f, k), "e1": (n_f, k), "e2": (n_f, k),
        "du": (n_f, k), "dv": (n_f, k), "gauss": (n_f, k2),
        "g": (n_f, 2, 2), "ginv": (n_f, 2, 2), "minv": (n_f, 2, 2),
        "wnorm": (n_f,), "area": (n_f,), "uv_area": (n_f,),
    }
    arrays = _face_arrays(fd)
    assert sorted(arrays) == sorted(shapes)
    a_list, aat, quad = fd.gauss_gradients
    arrays.update(a_list=a_list, aat=aat, quad=quad)
    shapes.update(a_list=(n_f, 2, k2), aat=(n_f, 2, 2), quad=(n_f,))
    for name, arr in arrays.items():
        assert arr.shape == shapes[name], name
        assert not arr.flags.writeable, name
        assert arr.T.flags.c_contiguous, name
        with pytest.raises(ValueError):
            arr.T[(0,) * arr.ndim] = 0.0
    # du and dv are the two halves of one read-only (2, k, F) buffer.
    partials = fd.partials
    assert partials.shape == (2, k, n_f) and partials.flags.c_contiguous
    assert not partials.flags.writeable
    assert np.shares_memory(partials[0], fd.du) and np.array_equal(partials[0], fd.du.T)
    assert np.shares_memory(partials[1], fd.dv) and np.array_equal(partials[1], fd.dv.T)


def _rel_err(a, b):
    return float(np.max(np.abs(np.asarray(a) - b)) / max(np.max(np.abs(b)), 1e-300))


@settings(max_examples=24, deadline=None)
@given(
    target=hst.sampled_from(["heisenberg", "stiefel"]),
    n=hst.integers(4, 16),
    warp=hst.floats(0.0, 0.4),
    seed=hst.integers(0, 2**16),
)
def test_face_kernels_match_row_major_bodies(target, n, warp, seed):
    imm = corpus.clifford_lift(n, target=target, warp=warp)
    geo, p = imm.geometry, imm.positions
    rng = np.random.default_rng(seed)
    imm = imm.with_positions(geo.move(p, 1e-2 * geo.tangent(p, rng.standard_normal(p.shape))))
    fd = imm.face_data
    a_list, aat, quad = fd.gauss_gradients
    a_ref, quad_ref = ref.gauss_gradients(fd)
    assert _rel_err(a_list, a_ref) <= 1e-12
    assert _rel_err(aat, np.einsum("fai,fbi->fab", a_ref, a_ref)) <= 1e-12
    assert _rel_err(quad, quad_ref) <= 1e-12
    asm = energy.EnergyAssembler(imm)
    assert _rel_err(asm.gradient(imm, 0.2).covector, ref.energy_gradient(asm, imm, 0.2)) <= 1e-12
    b_map, bt_map = energy.hamiltonian_map(imm)
    b_ref, bt_ref = ref.hamiltonian_operator(imm, fd)
    u = rng.standard_normal(len(p))
    y = rng.standard_normal(p.shape)
    assert _rel_err(b_map(u), b_ref(u)) <= 1e-12
    assert _rel_err(bt_map(y), bt_ref(y)) <= 1e-12


# ---------------------------------------------------------------------------
# vertex positions

#: Each corpus family, on both targets where it takes one.
FAMILIES = [
    ("flat_patch", dict(n=4)),
    ("double_sheet", dict(n=4)),
    ("reeb_orbit_tube_excluded", dict()),
    ("clifford_lift", dict(n=6)),
    ("clifford_lift", dict(n=6, target="stiefel")),
    ("perturbed_clifford", dict(n=6, seed=2)),
    ("perturbed_clifford", dict(n=6, seed=2, target="stiefel")),
]


def assert_component_major(imm):
    """positions is the read-only (V, k) view of one C-contiguous (k, V) buffer."""
    p = imm.positions
    assert p.shape == (imm.mesh.n_vertices, imm.geometry.dim)
    assert not p.flags.writeable
    assert p.T.flags.c_contiguous
    with pytest.raises(ValueError):
        p.T[0, 0] = 0.0


@pytest.mark.parametrize("family,kw", FAMILIES)
def test_every_construction_stores_positions_component_major(family, kw):
    imm = corpus.generate(family, **kw)
    assert_component_major(imm)
    loaded = DiscreteImmersion.from_json(json.loads(json.dumps(imm.to_json())))
    assert_component_major(loaded)
    assert np.array_equal(loaded.positions, imm.positions)
    patch = imm.restrict(np.arange(len(imm.mesh.triangles)) % 2 == 0)
    assert_component_major(patch)
    assert np.array_equal(patch.positions, imm.positions[np.unique(imm.mesh.triangles[::2])])
    # A read-only array already in the layout is kept, not copied.
    same = imm.with_positions(imm.positions)
    assert same.positions.base is imm.positions.base


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("writeable", [True, False])
def test_with_positions_copies_into_the_layout(order, writeable):
    imm = corpus.clifford_lift(6, target="stiefel")
    caller = np.array(imm.positions, order=order)
    caller.flags.writeable = writeable
    out = imm.with_positions(caller)
    assert_component_major(out)
    assert np.array_equal(out.positions, caller)
    assert caller.flags.writeable == writeable  # neither frozen nor thawed
    if not writeable and order == "F":
        assert out.positions is caller  # read-only and in the layout: kept
        return
    assert not np.shares_memory(out.positions, caller)
    if writeable:
        caller[0, 0] += 1.0
        assert out.positions[0, 0] == imm.positions[0, 0]


@pytest.mark.parametrize("target", ["heisenberg", "stiefel"])
def test_flow_step_returns_component_major_positions(target):
    imm = corpus.perturbed_clifford(8, seed=3, target=target)
    _, w = energy.hamiltonian_project(imm, energy.gradient(imm, 0.2).covector,
                                      energy.projection_factor(imm))
    restored, _, after, passes = energy.flow_step(imm, -w, 1e-2)
    assert_component_major(restored)
    assert after <= restored.legendrian_tol


def _trajectory(imm):
    """The descent's trajectory.jsonl bytes, as ``legsurf descend`` writes them."""
    result = energy.descend(imm, [0.2], energy.DescentOptions(max_iters=3))
    assert result.records
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in result.records).encode()


@pytest.mark.parametrize("target", ["heisenberg", "stiefel"])
def test_descent_from_vertex_major_copy_is_byte_identical(target):
    imm = corpus.perturbed_clifford(8, seed=3, target=target)
    vertex_major = imm.with_positions(np.ascontiguousarray(imm.positions))
    assert_component_major(vertex_major)
    assert _trajectory(vertex_major) == _trajectory(imm)


# ---------------------------------------------------------------------------
# mesh index and parameter arrays


def assert_mesh_rows(imm):
    """triangles, edges, uv, the edge wraps and face_uv's corner uv, wraps
    and minv are read-only views of C-contiguous component rows, and the
    assembler keeps the (F, 3) triangles."""
    m = imm.mesh
    n_f, n_e = len(m.triangles), len(m.edges)
    corner_uv, wraps, minv, _ = m.face_uv
    arrays = {
        "triangles": (m.triangles, (n_f, 3)), "edges": (m.edges, (n_e, 2)),
        "uv": (m.uv, (m.n_vertices, 2)), "edge_wraps": (m.edge_wraps, (n_e, 2)),
        "corner_uv": (corner_uv, (n_f, 3, 2)), "minv": (minv, (n_f, 2, 2)),
    }
    if wraps is not None:
        arrays["face_wraps"] = (wraps, (n_f, 3, 2))
    for name, (arr, shape) in arrays.items():
        assert arr.shape == shape, name
        assert not arr.flags.writeable, name
        assert arr.T.flags.c_contiguous, name
        with pytest.raises(ValueError):
            arr.T[(0,) * arr.ndim] = 0
    assert len(energy.EnergyAssembler(imm).tri) == n_f


@pytest.mark.parametrize("family,kw", FAMILIES)
def test_every_construction_stores_mesh_arrays_as_rows(family, kw, tmp_path):
    imm = corpus.generate(family, **kw)
    assert_mesh_rows(imm)
    imm.save(tmp_path / "a.json")
    loaded = DiscreteImmersion.from_json(json.loads((tmp_path / "a.json").read_text()))
    assert_mesh_rows(loaded)
    loaded.save(tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    ball = gauge_lab.gauge_ball(imm, imm.positions[-1], 1e-3)  # the last vertex's star
    assert ball is not imm
    assert_mesh_rows(ball)
    verts = np.unique(imm.mesh.triangles[ball.mesh.parent_faces])
    assert np.array_equal(ball.mesh.uv, imm.mesh.uv[verts])


@pytest.mark.parametrize("order", ["C", "F"])
def test_mesh_copies_a_callers_writable_arrays(order):
    m = corpus.clifford_lift(6).mesh
    kw = dict(n_vertices=m.n_vertices, genus=1, uv_periods=m.uv_periods)
    tri, uv = np.array(m.triangles, order=order), np.array(m.uv, order=order)
    copied = SurfaceMesh(tri, uv=uv, **kw)
    for caller, stored in ((tri, copied.triangles), (uv, copied.uv)):
        assert caller.flags.writeable  # not frozen
        assert not np.shares_memory(caller, stored)
        assert np.array_equal(caller, stored)
    tri[0, 0] += 1
    assert copied.triangles[0, 0] == m.triangles[0, 0]
    # Read-only arrays already in the layout are kept, not copied.
    kept = SurfaceMesh(m.triangles, uv=m.uv, **kw)
    assert np.shares_memory(kept.triangles, m.triangles) and np.shares_memory(kept.uv, m.uv)
