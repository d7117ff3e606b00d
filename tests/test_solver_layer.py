"""The projection and restoration solvers: operator form, exact Reeb slopes, cached factor."""

import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import reference_loops as ref
from legsurf import corpus, energy, gauge_lab, immersion
from legsurf.errors import GeometryDomainError
from legsurf.immersion import FaceData
from legsurf.mesh import DiscreteImmersion, GridSolver

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
    # b_op's rows are component-major (i V + v), the reference's vertex-major (v k + i).
    b_ref = b_ref.tocsr()[np.arange(n_rows).reshape(n_v, -1).T.ravel()]
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
def test_projected_field_is_stored_as_rows(target):
    imm = corpus.perturbed_clifford(8, target=target)
    _, w = energy.hamiltonian_project(imm, energy.gradient(imm, 0.2).covector)
    assert w.shape == imm.positions.shape and w.T.flags.c_contiguous


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


GRID_CASES = [
    *[("clifford_lift", dict(n=n, warp=warp)) for n in (8, 12, 24) for warp in (0.0, 0.3)],
    ("perturbed_clifford", dict(n=24)),
]


@pytest.mark.parametrize("family,kw", GRID_CASES)
def test_grid_solver_matches_lu(family, kw):
    imm = corpus.generate(family, **kw)
    m = imm.mesh
    d = m.edge_incidence
    ones = np.ones(len(m.edges))
    solver = m.restoration_factor(ones)
    assert isinstance(solver, GridSolver)
    lu = spla.splu((d.T @ d + 1e-14 * sp.identity(m.n_vertices)).tocsc())
    # A right-hand side like the restoration's, D^T (c r).  The constant mode
    # of x is fixed only by the 1e-14 shift and rounding, so compare D x.
    b = -(d.T @ np.random.default_rng(3).standard_normal(len(m.edges)))
    want = d @ lu.solve(b)
    assert _rel_err(d @ solver.solve(b), want) <= 1e-12


def _relabelled(imm, perm):
    """The immersion as a mesh file would hold it with vertex v renamed perm[v]."""
    data = imm.to_json()
    inv = np.argsort(perm)
    for key in ("vertices", "uv"):
        data[key] = np.asarray(data[key])[inv].tolist()
    for key in ("triangles", "generator_loops"):
        data[key] = [perm[np.asarray(item, int)].tolist() for item in data[key]]
    return DiscreteImmersion.from_json(data)


@pytest.mark.parametrize("target", ["heisenberg", "stiefel"])
@pytest.mark.parametrize("family", ["clifford_lift", "perturbed_clifford"])
def test_grid_shape_of_periodic_grids(family, target):
    imm = corpus.generate(family, n=12, target=target)
    assert imm.mesh.grid_shape == (12, 12)
    assert DiscreteImmersion.from_json(json.loads(json.dumps(imm.to_json()))).mesh.grid_shape == (12, 12)


def test_grid_shape_none_off_the_periodic_grid():
    clifford = corpus.clifford_lift(12)
    patch = gauge_lab.gauge_ball(clifford, clifford.positions[0], 0.5)
    assert patch.mesh.n_vertices < clifford.mesh.n_vertices
    perm = np.random.default_rng(4).permutation(clifford.mesh.n_vertices)
    for imm in (corpus.flat_patch(8), corpus.double_sheet(4), patch, _relabelled(clifford, perm)):
        assert imm.mesh.grid_shape is None


def test_relabelled_grid_restores_through_lu():
    imm = corpus.perturbed_clifford(12, seed=3)
    perm = np.random.default_rng(5).permutation(imm.mesh.n_vertices)
    other = _relabelled(imm, perm)
    s = np.random.default_rng(6).standard_normal(imm.mesh.n_vertices)
    geo = imm.geometry
    moved = imm.with_positions(geo.move(imm.positions, 1e-2 * s[:, None] * geo.reeb(imm.positions)))
    moved_other = other.with_positions(moved.positions[np.argsort(perm)])
    grid_out, *grid_stats = energy.restore_constraint(moved)
    lu_out, *lu_stats = energy.restore_constraint(moved_other)
    assert isinstance(imm.mesh.restoration_factor(np.ones(len(imm.mesh.edges))), GridSolver)
    assert isinstance(other.mesh.restoration_factor(np.ones(len(other.mesh.edges))), spla.SuperLU)
    assert lu_stats[2] == grid_stats[2] >= 1 and lu_stats[1] <= imm.legendrian_tol
    # The corrections agree up to the constant mode.
    grid_fix = grid_out.positions[:, 0] - moved.positions[:, 0]
    lu_fix = (lu_out.positions[:, 0] - moved_other.positions[:, 0])[perm]
    assert _rel_err(lu_fix - lu_fix.mean(), grid_fix - grid_fix.mean()) <= 1e-10


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
