"""One evaluation per descent iterate, and the kernels rewritten for speed.

The assembler keeps the face state of the last positions it evaluated; every
result computed from that kept state must equal a fresh evaluation bitwise,
and changed positions must never be served stale.  The stiffness fill, the
polynomial monomials and the mesh writer must reproduce the bodies they
replaced (``reference_loops``) exactly.
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
from legsurf.polynomials import Polynomial

TARGETS = ["heisenberg", "stiefel"]
EPS = 0.2


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _perturbed(target):
    return corpus.perturbed_clifford(8, amplitude=5e-2, seed=2, target=target)


def _counting_face_state(asm):
    calls = []
    face_state = asm.face_state

    def counting(positions):
        calls.append(1)
        return face_state(positions)

    asm.face_state = counting
    return calls


@pytest.mark.parametrize("target", TARGETS)
def test_evaluations_after_energy_equal_fresh_ones(target):
    imm = _perturbed(target)
    p = imm.positions
    w = np.random.default_rng(4).standard_normal(p.shape)
    asm = energy.EnergyAssembler(imm)
    calls = _counting_face_state(asm)
    e = asm.energy(p, EPS)
    grad = asm.gradient(p, EPS)
    fv = asm.first_variation(p, EPS, w)
    u, w_proj = energy.hamiltonian_project(imm, grad.covector, asm.face_data(imm))
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
def test_changed_positions_are_evaluated_again(target):
    imm = _perturbed(target)
    asm = energy.EnergyAssembler(imm)
    calls = _counting_face_state(asm)
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
    state, (a_list, _, quad) = asm.evaluate(imm.positions)
    for arr in (state["area"], state["ginv"], a_list, quad):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_face_data_rejects_degenerate_faces():
    fp = corpus.flat_patch(4)
    pos = fp.positions.copy()
    a, b, c = fp.mesh.triangles[0]
    pos[c] = pos[a] + 0.5 * (pos[b] - pos[a])  # collapse face 0 onto its edge
    flat = fp.with_positions(pos)
    with pytest.raises(DegenerateFaceError):
        energy.EnergyAssembler(fp).face_data(flat)


@pytest.mark.parametrize("target", TARGETS)
def test_descent_evaluates_each_iterate_once(target, monkeypatch):
    pc = corpus.perturbed_clifford(8, amplitude=1e-2, seed=3, target=target)
    face_data_inits, face_states, candidates = [], [], []
    init, face_state, flow_step = (
        immersion.FaceData.__init__, energy.EnergyAssembler.face_state, energy.flow_step,
    )

    def counting_init(self, *args, **kwargs):
        face_data_inits.append(1)
        init(self, *args, **kwargs)

    def counting_face_state(self, positions):
        face_states.append(1)
        return face_state(self, positions)

    def counting_flow_step(*args, **kwargs):
        out = flow_step(*args, **kwargs)
        candidates.append(1)
        return out

    monkeypatch.setattr(immersion.FaceData, "__init__", counting_init)
    monkeypatch.setattr(energy.EnergyAssembler, "face_state", counting_face_state)
    monkeypatch.setattr(energy, "flow_step", counting_flow_step)
    res = energy.descend(pc, [0.2, 0.1], energy.DescentOptions(max_iters=3))
    assert res.records
    # No FaceData is built from scratch (the stage's projection factor and
    # areas come from the assembler's state); the start and each restored
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
        assert _bits(poly(pts)) == _bits(ref.polynomial_prod_value(poly, pts))
        assert _bits(poly.grad(pts)) == _bits(ref.polynomial_prod_grad(poly, pts))


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
