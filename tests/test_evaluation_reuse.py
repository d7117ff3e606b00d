"""One evaluation per descent iterate, and the kernels rewritten for speed.

The assembler keeps the FaceData of the last positions it evaluated; every
result computed from that kept FaceData must equal a fresh evaluation bitwise,
and changed positions must never be served stale.  A mesh keeps its edges'
seam wraps, and the edge offsets built from them must equal the per-call
ones bitwise.  The stiffness fill and the mesh writer must reproduce the
bodies they replaced (``reference_loops``) exactly; a polynomial's planned
value and gradient must match the product of powers per term to rounding.
"""

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


def _counting_evaluations(asm, monkeypatch):
    """Counts the FaceData builds of ``asm``'s evaluations (those with its face constants)."""
    calls = []
    init = immersion.FaceData.__init__

    def counting(self, imm, params=None):
        if params is asm.face_params:
            calls.append(1)
        init(self, imm, params)

    monkeypatch.setattr(immersion.FaceData, "__init__", counting)
    return calls


@pytest.mark.parametrize("target", TARGETS)
def test_evaluations_after_energy_equal_fresh_ones(target, monkeypatch):
    imm = _perturbed(target)
    p = imm.positions
    w = np.random.default_rng(4).standard_normal(p.shape)
    asm = energy.EnergyAssembler(imm)
    calls = _counting_evaluations(asm, monkeypatch)
    e = asm.energy(p, EPS)
    grad = asm.gradient(p, EPS)
    fv = asm.first_variation(p, EPS, w)
    u, w_proj = energy.hamiltonian_project(imm, grad.covector, asm.evaluate(p)[0])
    e_next = asm.energy(p, 0.1)  # the next stage's first energy
    assert len(calls) == 1

    def fresh():
        return energy.EnergyAssembler(imm)

    assert e == fresh().energy(p, EPS)
    assert e_next == fresh().energy(p, 0.1)
    fresh_grad = fresh().gradient(p, EPS)
    assert _bits(grad.covector) == _bits(fresh_grad.covector)
    assert fv == fresh().first_variation(p, EPS, w)
    u_ref, w_ref = energy.hamiltonian_project(imm, fresh_grad.covector)
    assert _bits(u) == _bits(u_ref)
    assert _bits(w_proj) == _bits(w_ref)


@pytest.mark.parametrize("target", TARGETS)
def test_changed_positions_are_evaluated_again(target, monkeypatch):
    imm = _perturbed(target)
    asm = energy.EnergyAssembler(imm)
    calls = _counting_evaluations(asm, monkeypatch)
    p = imm.positions.copy()
    e0 = asm.energy(p, EPS)
    asm.energy(p.copy(), EPS)  # equal bits in another array: reused
    assert len(calls) == 1
    p[3] += 1e-3 * imm.geometry.reeb(p[3])  # moved in place
    grad = asm.gradient(p, EPS)
    e1 = asm.energy(p, EPS)
    assert len(calls) == 2
    assert e1 != e0
    assert e1 == energy.EnergyAssembler(imm).energy(p, EPS)
    assert _bits(grad.covector) == _bits(energy.EnergyAssembler(imm).gradient(p, EPS).covector)
    other = imm.positions + 1e-3  # a new array
    assert asm.energy(other, EPS) == energy.EnergyAssembler(imm).energy(other, EPS)
    assert len(calls) == 3


def test_kept_state_is_read_only():
    imm = _perturbed("heisenberg")
    asm = energy.EnergyAssembler(imm)
    fd, (a_list, _, quad) = asm.evaluate(imm.positions)
    for arr in (fd.area, fd.ginv, a_list, quad):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_face_data_rejects_degenerate_faces():
    fp = corpus.flat_patch(4)
    pos = fp.positions.copy()
    a, b, c = fp.mesh.triangles[0]
    pos[c] = pos[a] + 0.5 * (pos[b] - pos[a])  # collapse face 0 onto its edge
    flat = fp.with_positions(pos)
    with pytest.raises(DegenerateFaceError):
        energy.EnergyAssembler(fp).evaluate(flat.positions)


@pytest.mark.parametrize("target", TARGETS)
def test_descent_evaluates_each_iterate_once(target, monkeypatch):
    pc = corpus.perturbed_clifford(8, amplitude=1e-2, seed=3, target=target)
    face_data_inits, face_states, candidates = [], [], []
    init, flow_step = immersion.FaceData.__init__, energy.flow_step

    def counting_init(self, imm, params=None):
        # with the face constants given: an assembler's evaluation
        (face_data_inits if params is None else face_states).append(1)
        init(self, imm, params)

    def counting_flow_step(*args, **kwargs):
        out = flow_step(*args, **kwargs)
        candidates.append(1)
        return out

    monkeypatch.setattr(immersion.FaceData, "__init__", counting_init)
    monkeypatch.setattr(energy, "flow_step", counting_flow_step)
    res = energy.descend(pc, [0.2, 0.1], energy.DescentOptions(max_iters=3))
    assert res.records
    # No FaceData is built from scratch (the stage's projection factor and
    # areas come from the assembler's FaceData); the start and each restored
    # candidate are evaluated once, whatever is asked of them.
    assert len(face_data_inits) == 0
    assert len(face_states) == 1 + len(candidates)


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
    for _ in range(2):  # the kept pattern survives a fill
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


def _edge_seam_shift(imm):
    """The edge offsets as they were computed before the mesh kept its wraps."""
    return imm.seam_shift(imm.mesh.edges[:, 0], imm.mesh.edges[:, 1])


@pytest.mark.parametrize("family,kw", EDGE_SHIFT_CASES)
def test_edge_shift_equals_seam_shift(family, kw, monkeypatch):
    imm = _flat_patch_without_uv() if kw is None else corpus.generate(family, **kw)
    m = imm.mesh
    assert _bits(imm.edge_shift()) == _bits(_edge_seam_shift(imm))
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
    monkeypatch.setattr(DiscreteImmersion, "edge_shift", _edge_seam_shift)
    assert got == restored_and_residual()


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
