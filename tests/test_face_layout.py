"""Component-major face storage and the face kernels built on it.

Every (F, ...) array of a FaceData, its Gauss gradients and the mesh's
inverse parameter matrices is the transposed view of one C-contiguous
buffer, so a face kernel can loop over the few components with NumPy's
inner loop over the faces.  These tests pin that layout, so that an edit
cannot fall back to row-major storage unnoticed, and check the kernels
against the row-major bodies kept in ``reference_loops`` to rounding: a
component-major row sum may add its terms in another order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import reference_loops as ref
from legsurf import corpus, energy
from legsurf.immersion import FaceData

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
    b_op, b_ref = energy.hamiltonian_map(imm), ref.hamiltonian_operator(imm, fd)
    u = rng.standard_normal(b_op.shape[1])
    y = rng.standard_normal(b_op.shape[0])
    assert _rel_err(b_op.matvec(u), b_ref.matvec(u)) <= 1e-12
    assert _rel_err(b_op.rmatvec(y), b_ref.rmatvec(y)) <= 1e-12
