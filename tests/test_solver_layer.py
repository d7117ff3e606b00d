"""The projection and restoration solvers: operator form, exact Reeb slopes, cached factor."""

import json
import subprocess
import sys

import numpy as np
import pytest

import reference_loops as ref
from legsurf import corpus, energy, immersion
from legsurf.errors import GeometryDomainError
from legsurf.immersion import FaceData
from legsurf.mesh import DiscreteImmersion

MAP_CASES = [
    ("flat_patch", dict(n=6)),
    ("clifford_lift", dict(n=8, target="heisenberg", warp=0.3)),
    ("clifford_lift", dict(n=8, target="stiefel", warp=0.3)),
]


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("family,kw", MAP_CASES)
def test_hamiltonian_map_matches_coo_assembly(family, kw):
    imm = corpus.generate(family, **kw)
    fd = FaceData(imm)
    b_ref = ref.hamiltonian_matrix(imm, fd)
    b_op = energy.hamiltonian_map(imm)
    assert b_op.shape == b_ref.shape
    n_rows, n_v = b_ref.shape
    assert _rel_err(b_op @ np.eye(n_v), b_ref.toarray()) <= 1e-13
    rng = np.random.default_rng(5)
    y = rng.standard_normal((n_rows, 3))
    got = np.stack([b_op.rmatvec(col) for col in y.T], axis=1)
    assert _rel_err(got, b_ref.T @ y) <= 1e-13


@pytest.mark.parametrize("target", ["heisenberg", "stiefel"])
def test_hamiltonian_map_adjoint(target):
    imm = corpus.perturbed_clifford(12, amplitude=5e-2, seed=4, target=target)
    b_op = energy.hamiltonian_map(imm)
    rng = np.random.default_rng(6)
    for _ in range(3):
        u = rng.standard_normal(b_op.shape[1])
        y = rng.standard_normal(b_op.shape[0])
        bu = b_op.matvec(u)
        gap = abs(bu @ y - u @ b_op.rmatvec(y))
        assert gap <= 1e-12 * np.linalg.norm(bu) * np.linalg.norm(y)


@pytest.mark.parametrize("target", ["heisenberg", "stiefel"])
def test_projection_with_own_factor_matches_fresh(target):
    imm = corpus.perturbed_clifford(12, amplitude=5e-2, seed=4, target=target)
    grad = energy.EnergyAssembler(imm).gradient(imm, 0.2)
    factor = energy.projection_factor(imm)
    u, w = energy.hamiltonian_project(imm, grad.covector, factor=factor)
    u_fresh, w_fresh = energy.hamiltonian_project(imm, grad.covector)
    assert np.array_equal(u, u_fresh) and np.array_equal(w, w_fresh)
    # Pairing the covector with the field is u^T A u > 0, so -w descends.
    assert np.sum(grad.covector * w) > 0


@pytest.mark.parametrize("target", ["heisenberg", "stiefel"])
def test_descent_factors_projection_once_per_stage(target, monkeypatch):
    import scipy.sparse.linalg as spla

    callers = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_filename)
        return splu(*args, **kwargs)

    def no_spsolve(*args, **kwargs):
        raise AssertionError("the descent must not call spsolve")

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(spla, "spsolve", no_spsolve)
    imm = corpus.perturbed_clifford(8, amplitude=1e-2, seed=3, target=target)
    schedule = [0.3, 0.2, 0.1]
    res = energy.descend(imm, schedule, energy.DescentOptions(max_iters=2))
    assert len(res.stages) == len(schedule) and res.records
    assert sum(c == energy.__file__ for c in callers) == len(schedule)


@pytest.mark.parametrize("target", ["heisenberg", "stiefel"])
def test_reeb_slope_matches_central_differences(target):
    imm = corpus.perturbed_clifford(12, amplitude=5e-2, seed=2, target=target)
    geo = imm.geometry
    tails, heads = imm.mesh.edges[:, 0], imm.mesh.edges[:, 1]
    shift = ref.seam_shift(imm, tails, heads)
    p = imm.positions
    reeb = geo.reeb(p)

    def residual(p_tail, p_head):
        return geo.edge_residual(p_tail, p_head - p_tail + shift)

    slopes = geo.reeb_slope(p[tails], p[heads] - p[tails] + shift)
    h = 1e-6
    tail_fd = (residual(geo.move(p[tails], h * reeb[tails]), p[heads])
               - residual(geo.move(p[tails], -h * reeb[tails]), p[heads])) / (2 * h)
    head_fd = (residual(p[tails], geo.move(p[heads], h * reeb[heads]))
               - residual(p[tails], geo.move(p[heads], -h * reeb[heads]))) / (2 * h)
    assert _rel_err(slopes, tail_fd) <= 1e-6
    assert _rel_err(-slopes, head_fd) <= 1e-6  # Reeb flow of both ends leaves r unchanged


def test_restoration_adds_no_uniform_phi_translation():
    imm = corpus.perturbed_clifford(48)
    grad = energy.EnergyAssembler(imm).gradient(imm, 0.2)
    _, w_proj = energy.hamiltonian_project(imm, grad.covector)
    moved = imm.with_positions(imm.geometry.move(imm.positions, -1.0 * w_proj))
    restored, _, _, passes = energy.restore_constraint(moved)
    assert passes >= 1
    correction = restored.positions[:, 0] - moved.positions[:, 0]
    assert abs(np.mean(correction)) <= 1e-2 * np.max(np.abs(correction))


def test_restoration_factor_cached_while_slopes_unchanged():
    imm = corpus.clifford_lift(8)
    m = imm.mesh
    ones = np.ones(len(m.edges))
    first = m.restoration_factor(ones)
    assert m.restoration_factor(ones.copy()) is first
    assert m.restoration_factor(2.0 * ones) is not first


def test_flow_step_reports_restore_iters():
    imm = corpus.perturbed_clifford(12)
    *_, passes = energy.flow_step(imm, np.zeros_like(imm.positions), 1e-2)
    assert passes == 0
    grad = energy.EnergyAssembler(imm).gradient(imm, 0.2)
    _, w_proj = energy.hamiltonian_project(imm, grad.covector)
    _, before, after, passes = energy.flow_step(imm, -w_proj, 1.0)
    assert before > imm.legendrian_tol
    assert after <= imm.legendrian_tol
    assert passes >= 1


def test_descent_records_restored_residual():
    imm = corpus.perturbed_clifford(12, seed=3)
    result = energy.descend(imm, [0.2], energy.DescentOptions(max_iters=3))
    assert result.records
    last = result.records[-1]["max_leg_residual"]
    assert last == immersion.legendrian_residual(result.final).max


class TestFramePhiMonodromy:
    def _data(self):
        data = corpus.clifford_lift(4, target="stiefel").to_json()
        data["phi_monodromy"] = [0.5, 0.0]
        return data

    def test_rejected_on_load(self):
        with pytest.raises(GeometryDomainError, match="phi_monodromy"):
            DiscreteImmersion.from_json(self._data())

    def test_cli_exits_two(self, tmp_path):
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps(self._data()))
        r = subprocess.run(
            [sys.executable, "-m", "legsurf.cli", "energy", "--mesh", str(path),
             "--epsilon", "0.2", "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert r.returncode == 2, r.stderr
        assert "phi_monodromy" in r.stdout + r.stderr
        assert "Traceback" not in r.stderr
