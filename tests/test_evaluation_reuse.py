"""One evaluation per descent iterate, and the kernels rewritten for speed.

An immersion keeps its FaceData and its positions are read-only; every result
computed from that kept FaceData must equal a fresh evaluation bitwise, and
changed positions must never be served stale.  A mesh keeps its edges'
seam wraps, and the Reeb-row edge offsets built from them must give the
dense seam shifts' edge differences exactly.  The projection stiffness and the mesh writer must reproduce
the bodies they replaced (``reference_loops``) exactly; FaceData and a
polynomial's planned value and gradient must match theirs to rounding.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

import reference_loops as ref
from legsurf import corpus, energy, immersion
from legsurf.errors import DegenerateFaceError
from legsurf.immersion import cotangent_weights
from legsurf.mesh import DiscreteImmersion, SurfaceMesh
from legsurf.polynomials import Polynomial

TARGETS = ["heisenberg", "stiefel"]
EPS = 0.2


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _perturbed(target):
    return corpus.perturbed_clifford(8, amplitude=5e-2, seed=2, target=target)


def _counting_face_data(monkeypatch):
    """Counts the FaceData builds."""
    calls = []
    init = immersion.FaceData.__init__

    def counting(self, imm):
        calls.append(1)
        init(self, imm)

    monkeypatch.setattr(immersion.FaceData, "__init__", counting)
    return calls


@pytest.mark.parametrize("target", TARGETS)
def test_evaluations_after_energy_equal_fresh_ones(target, monkeypatch):
    imm = _perturbed(target)
    p = imm.positions
    w = np.random.default_rng(4).standard_normal(p.shape)
    asm = energy.EnergyAssembler(imm)
    calls = _counting_face_data(monkeypatch)
    e = asm.energy(imm, EPS)
    grad = asm.gradient(imm, EPS)
    fv = asm.first_variation(imm, EPS, w)
    u, w_proj = energy.hamiltonian_project(imm, grad.covector, energy.projection_factor(imm))
    e_next = asm.energy(imm, 0.1)  # the next stage's first energy
    assert len(calls) == 1

    # Fresh evaluations: new assemblers at new immersions of the same positions.
    assert e == energy.energy(imm.with_positions(p), EPS)
    assert e_next == energy.energy(imm.with_positions(p), 0.1)
    fresh_grad = energy.gradient(imm.with_positions(p), EPS)
    assert _bits(grad.covector) == _bits(fresh_grad.covector)
    assert fv == energy.first_variation(imm.with_positions(p), EPS, w)
    fresh = imm.with_positions(p)
    u_ref, w_ref = energy.hamiltonian_project(fresh, fresh_grad.covector,
                                              energy.projection_factor(fresh))
    assert _bits(u) == _bits(u_ref)
    assert _bits(w_proj) == _bits(w_ref)


@pytest.mark.parametrize("target", TARGETS)
def test_changed_positions_are_evaluated_again(target, monkeypatch):
    imm = _perturbed(target)
    asm = energy.EnergyAssembler(imm)
    calls = _counting_face_data(monkeypatch)
    p = imm.positions.copy()
    e0 = asm.energy(imm, EPS)
    asm.energy(imm, EPS)  # the same immersion: its face state is reused
    assert len(calls) == 1
    with pytest.raises(ValueError):
        imm.positions[3] = p[3]  # an immersion's positions are never moved in place
    p[3] += 1e-3 * imm.geometry.reeb(p[3])
    moved = imm.with_positions(p)
    grad = asm.gradient(moved, EPS)
    e1 = asm.energy(moved, EPS)
    assert len(calls) == 2
    other = imm.with_positions(imm.positions + 1e-3)
    e_other = asm.energy(other, EPS)
    assert len(calls) == 3
    assert e1 != e0
    assert e1 == energy.energy(imm.with_positions(p), EPS)
    assert _bits(grad.covector) == _bits(energy.gradient(imm.with_positions(p), EPS).covector)
    assert e_other == energy.energy(imm.with_positions(other.positions), EPS)


def test_kept_state_is_read_only():
    imm = _perturbed("heisenberg")
    fd = imm.face_data
    a_list, _, quad = fd.gauss_gradients
    for arr in (imm.positions, fd.area, fd.ginv, a_list, quad):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_face_data_rejects_degenerate_faces():
    fp = corpus.flat_patch(4)
    pos = fp.positions.copy()
    a, b, c = fp.mesh.triangles[0]
    pos[c] = pos[a] + 0.5 * (pos[b] - pos[a])  # collapse face 0 onto its edge
    flat = fp.with_positions(pos)
    with pytest.raises(DegenerateFaceError):
        energy.EnergyAssembler(fp).energy(flat, EPS)


@pytest.mark.parametrize("target", TARGETS)
def test_descent_evaluates_each_iterate_once(target, monkeypatch):
    pc = corpus.perturbed_clifford(8, amplitude=1e-2, seed=3, target=target)
    candidates = []
    flow_step = energy.flow_step

    def counting_flow_step(*args, **kwargs):
        out = flow_step(*args, **kwargs)
        candidates.append(1)
        return out

    face_states = _counting_face_data(monkeypatch)
    monkeypatch.setattr(energy, "flow_step", counting_flow_step)
    res = energy.descend(pc, [0.2, 0.1], energy.DescentOptions(max_iters=3))
    assert res.records
    # The stage's projection factor and areas come from the iterate's own
    # FaceData; the start and each restored candidate are evaluated once,
    # whatever is asked of them.
    assert len(face_states) == 1 + len(candidates)


@pytest.mark.parametrize("target", TARGETS)
def test_gauss_gradients_are_built_once_per_face_data(target, monkeypatch):
    builds = []
    block_gram = immersion._block_gram

    def counting(x, y):
        builds.append(1)
        return block_gram(x, y)

    monkeypatch.setattr(immersion, "_block_gram", counting)
    imm = _perturbed(target)
    w = np.random.default_rng(4).standard_normal(imm.positions.shape)
    # Module-level calls make a new assembler each; the iterate's FaceData
    # keeps the gradients for all of them, at every eps.
    energy.energy(imm, EPS)
    energy.gradient(imm, EPS)
    energy.first_variation(imm, EPS, w)
    energy.EnergyAssembler(imm).energy(imm, 0.1)
    assert len(builds) == 1
    fd, stencil = imm.face_data, imm.mesh.gauss_stencil
    assert fd.gauss_gradients is fd.gauss_gradients
    assert imm.mesh.gauss_stencil_t is imm.mesh.gauss_stencil_t
    # Another immersion of the mesh builds its own, with the mesh's stencil.
    moved = imm.with_positions(imm.positions)
    energy.energy(moved, EPS)
    assert len(builds) == 2 and imm.mesh.gauss_stencil is stencil
    for mine, theirs in zip(moved.face_data.gauss_gradients, fd.gauss_gradients):
        assert _bits(mine) == _bits(theirs)

    # A descent builds them once per iterate it evaluates.
    builds.clear()
    face_states = _counting_face_data(monkeypatch)
    pc = corpus.perturbed_clifford(8, amplitude=1e-2, seed=3, target=target)
    assert energy.descend(pc, [0.2, 0.1], energy.DescentOptions(max_iters=3)).records
    assert len(builds) == len(face_states)


@pytest.mark.parametrize("target", TARGETS)
def test_immersion_keeps_one_face_data(target):
    imm = _perturbed(target)
    with pytest.raises(ValueError):
        imm.positions[0, 0] = 0.0
    fd = imm.face_data
    assert imm.face_data is fd
    moved = imm.with_positions(imm.positions)
    assert moved.face_data is not fd
    fresh = immersion.FaceData(imm)
    for name, value in vars(fresh).items():
        if isinstance(value, np.ndarray):
            assert _bits(getattr(fd, name)) == _bits(value), name
    assert _bits(fd.vertex_areas) == _bits(fresh.vertex_areas)
    # A writable array handed in is copied, never frozen or aliased.
    pos = imm.positions.copy()
    other = imm.with_positions(pos)
    pos[0] += 1.0
    assert pos.flags.writeable and _bits(other.positions) == _bits(imm.positions)


def test_dropped_immersion_frees_its_face_data():
    # FaceData holds the mesh, not the immersion: no reference cycle, so a
    # rejected line-search candidate is freed without the cycle collector.
    imm = _perturbed("heisenberg")
    imm.face_data.gauss_gradients  # kept on the FaceData, so freed with it
    refs = weakref.ref(imm), weakref.ref(imm.face_data)
    gc.disable()
    try:
        del imm
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


STIFFNESS_CASES = [
    ("flat_patch", dict(n=6)),
    ("double_sheet", dict(n=6)),
    ("clifford_lift", dict(n=8, target="heisenberg")),
    ("clifford_lift", dict(n=8, target="stiefel")),
    ("perturbed_clifford", dict(n=8, amplitude=5e-2, seed=1, target="stiefel")),
]


@pytest.mark.parametrize("family,kw", STIFFNESS_CASES)
def test_stiffness_equals_coo_assembly(family, kw):
    imm = corpus.generate(family, **kw)
    weights, areas = cotangent_weights(imm)
    want = ref.stiffness_coo(imm, weights, areas)
    for _ in range(2):  # a second assembly on the same mesh is the same matrix
        got = imm.mesh.stiffness(2.0 * weights, (-4.0 / imm.geometry.alpha_reeb) * areas)
        assert got.format == want.format
        for attr in ("indptr", "indices", "data"):
            assert _bits(getattr(got, attr)) == _bits(getattr(want, attr))


def _flat_patch_without_uv():
    fp = corpus.flat_patch(6)
    m = fp.mesh
    mesh = SurfaceMesh(m.triangles, m.n_vertices, boundary_loops=m.boundary_loops)
    return DiscreteImmersion(mesh=mesh, target="heisenberg", positions=fp.positions)


EDGE_SHIFT_CASES = [
    ("flat_patch", dict(n=6)),
    ("clifford_lift", dict(n=8, target="heisenberg")),
    ("clifford_lift", dict(n=8, target="heisenberg", warp=0.3)),
    ("clifford_lift", dict(n=8, target="stiefel")),
    ("clifford_lift", dict(n=8, target="stiefel", warp=0.3)),
    ("double_sheet", dict(n=6)),
    ("perturbed_clifford", dict(n=8, amplitude=5e-2, seed=1)),
    ("perturbed_clifford", dict(n=8, amplitude=5e-2, seed=1, target="stiefel")),
    ("no uv", None),
]


def _reeb_row_of_dense_shift(self, wraps):
    """phi_offsets as the Reeb row of the dense seam shift, zeros included."""
    return None if wraps is None else ref.wraps_shift(self, wraps)[..., 0]


@pytest.mark.parametrize("family,kw", EDGE_SHIFT_CASES)
def test_edge_shift_equals_seam_shift(family, kw, monkeypatch):
    imm = _flat_patch_without_uv() if kw is None else corpus.generate(family, **kw)
    m = imm.mesh
    tails, heads = m.edges[:, 0], m.edges[:, 1]
    dense = imm.positions[heads] - imm.positions[tails] + ref.seam_shift(imm, tails, heads)
    np.testing.assert_array_equal(imm.edge_differences()[1], dense)
    assert m.edge_wraps is m.edge_wraps and not m.edge_wraps.flags.writeable
    # Random Reeb moves break every edge's residual, and restoration undoes them.
    p, geo = imm.positions, imm.geometry
    s = np.random.default_rng(7).standard_normal(len(p))
    moved = imm.with_positions(geo.move(p, 1e-2 * s[:, None] * geo.reeb(p)))

    def restored_and_residual():
        out, before, after, passes = energy.restore_constraint(moved)
        assert passes >= 1
        values = immersion.legendrian_residual(moved).values
        return _bits(out.positions), before, after, passes, _bits(values)

    got = restored_and_residual()
    # Skipping the zero offsets changes no bit.  The mesh keeps the offsets
    # it was first given, so the dense ones go to a fresh cache.
    monkeypatch.setattr(DiscreteImmersion, "phi_offsets", _reeb_row_of_dense_shift)
    monkeypatch.setattr(m, "_seam_offsets", {})
    assert got == restored_and_residual()


@pytest.mark.parametrize("family,kw", EDGE_SHIFT_CASES)
def test_face_data_equals_stacked_build(family, kw):
    imm = _flat_patch_without_uv() if kw is None else corpus.generate(family, **kw)
    fd = immersion.FaceData(imm)
    want = ref.face_data_arrays(imm)
    got = {name: arr for name, arr in vars(fd).items() if isinstance(arr, np.ndarray)}
    assert sorted(got) == sorted(want)
    for name, arr in want.items():  # row sums may add in another order
        assert got[name].dtype == arr.dtype and got[name].shape == arr.shape, name
        err = np.max(np.abs(got[name] - arr)) / max(np.max(np.abs(arr)), 1e-300)
        assert err <= 1e-14, (name, err)


MONOMIAL_EXPONENTS = {
    "constant terms": [[0, 0, 0, 0], [2, 0, 1, 0], [0, 0, 0, 0], [1, 1, 1, 1]],
    "unused variable": [[1, 0, 2, 1], [0, 0, 1, 3], [2, 0, 0, 0]],
    "degree 0": [[0, 0, 0, 0], [0, 0, 0, 0]],
    "one variable per term": [[0, 0, 0, 3], [1, 0, 0, 0], [0, 2, 0, 0]],
    "no terms": np.zeros((0, 4), int),
}


@pytest.mark.parametrize("name", sorted(MONOMIAL_EXPONENTS))
def test_monomials_equal_full_product(name):
    exponents = np.asarray(MONOMIAL_EXPONENTS[name], int)
    rng = np.random.default_rng(11)
    poly = Polynomial(rng.uniform(-1.0, 1.0, len(exponents)), exponents)
    x = rng.uniform(-2.0, 2.0, size=(6, 4))
    x[0, 1], x[1, 2] = 0.0, -0.0
    for pts in (x, x[1], x.reshape(2, 3, 4)):  # a batch, a single (0-d) point, a 2-d batch
        ref.assert_polynomial_close(poly, pts, *poly.value_and_grad(pts))


@settings(max_examples=60, deadline=None)
@given(data=hst.data())
def test_monomials_equal_full_product_random(data):
    n_vars = data.draw(hst.integers(1, 8), label="n_vars")
    degree = data.draw(hst.integers(0, 4), label="degree")
    n_terms = data.draw(hst.integers(0, 12), label="n_terms")
    exponents = data.draw(arrays(np.int64, (n_terms, n_vars), elements=hst.integers(0, degree)))
    n_points = data.draw(hst.integers(1, 20), label="n_points")
    x = data.draw(arrays(np.float64, (n_points, n_vars), elements=hst.floats(-3.0, 3.0)))
    poly = Polynomial(np.ones(n_terms), exponents)
    for pts in (x, x[0]):
        ref.assert_polynomial_close(poly, pts, *poly.value_and_grad(pts))


@settings(max_examples=80, deadline=None)
@given(data=hst.data())
def test_polynomial_equals_product_of_gathered_powers(data):
    n_vars = data.draw(hst.sampled_from([1, 4, 5, 8]), label="n_vars")
    n_terms = data.draw(hst.integers(1, 12), label="n_terms")
    exponents = data.draw(arrays(np.int64, (n_terms, n_vars), elements=hst.integers(0, 4)))
    coeffs = data.draw(arrays(np.float64, n_terms, elements=hst.floats(-10.0, 10.0)))
    n_points = data.draw(hst.integers(1, 30), label="n_points")
    x = data.draw(arrays(np.float64, (n_points, n_vars), elements=hst.floats(-3.0, 3.0)))
    poly = Polynomial(coeffs, exponents)
    for pts in (x, x[0]):
        ref.assert_polynomial_close(poly, pts, poly(pts), poly.grad(pts))


@pytest.mark.parametrize(
    "family,kw",
    [
        ("flat_patch", dict(n=4)),
        ("clifford_lift", dict(n=6, target="heisenberg")),
        ("clifford_lift", dict(n=6, target="stiefel")),
        ("perturbed_clifford", dict(n=6, seed=1)),
        ("reeb_orbit_tube_excluded", {}),
    ],
)
def test_save_equals_json_dump(family, kw, tmp_path):
    imm = corpus.generate(family, **kw)
    imm.save(tmp_path / "new.json")
    ref.save_json_dump(imm, tmp_path / "old.json")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
