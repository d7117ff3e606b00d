"""The projection and restoration solvers: operator form, exact Reeb slopes, solver choice."""

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
from legsurf.mesh import DiscreteImmersion, GridSolver, SurfaceMesh

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
    b_ref = ref.hamiltonian_matrix(imm, fd)  # rows v k + i: vertex-major
    b_map, bt_map = energy.hamiltonian_map(imm)
    n_v, k = imm.positions.shape
    assert b_ref.shape == (n_v * k, n_v)
    columns = np.stack([b_map(e).ravel() for e in np.eye(n_v)], axis=1)
    assert _rel_err(columns, b_ref.toarray()) <= 1e-13
    y = np.random.default_rng(5).standard_normal((3, n_v, k))
    got = np.stack([bt_map(field) for field in y], axis=1)
    assert _rel_err(got, b_ref.T @ y.reshape(3, -1).T) <= 1e-13


@pytest.mark.parametrize("target", ["heisenberg", "stiefel"])
def test_hamiltonian_map_adjoint(target):
    imm = corpus.perturbed_clifford(12, amplitude=5e-2, seed=4, target=target)
    b_map, bt_map = energy.hamiltonian_map(imm)
    rng = np.random.default_rng(6)
    for _ in range(3):
        u = rng.standard_normal(len(imm.positions))
        y = rng.standard_normal(imm.positions.shape)
        bu = b_map(u)
        gap = abs(np.sum(bu * y) - u @ bt_map(y))
        assert gap <= 1e-12 * np.linalg.norm(bu) * np.linalg.norm(y)


@pytest.mark.parametrize("target", ["heisenberg", "stiefel"])
def test_hamiltonian_map_field_is_stored_as_rows(target):
    imm = corpus.perturbed_clifford(8, target=target)
    b_map, _ = energy.hamiltonian_map(imm)
    bu = b_map(np.random.default_rng(3).standard_normal(len(imm.positions)))
    assert bu.shape == imm.positions.shape and bu.T.flags.c_contiguous


@pytest.mark.parametrize("target", ["heisenberg", "stiefel"])
def test_projected_field_is_stored_as_rows(target):
    imm = corpus.perturbed_clifford(8, target=target)
    _, w = energy.hamiltonian_project(imm, energy.gradient(imm, 0.2).covector,
                                      energy.projection_factor(imm))
    assert w.shape == imm.positions.shape and w.T.flags.c_contiguous


@pytest.mark.parametrize("target", ["heisenberg", "stiefel"])
def test_projection_with_own_factor_matches_fresh(target):
    imm = corpus.perturbed_clifford(12, amplitude=5e-2, seed=4, target=target)
    grad = energy.EnergyAssembler(imm).gradient(imm, 0.2)
    factor = energy.projection_factor(imm)
    u, w = energy.hamiltonian_project(imm, grad.covector, factor=factor)
    u_fresh, w_fresh = energy.hamiltonian_project(imm, grad.covector,
                                                  energy.projection_factor(imm))
    assert np.array_equal(u, u_fresh) and np.array_equal(w, w_fresh)
    # Pairing the covector with the field is u^T A u > 0, so -w descends.
    assert np.sum(grad.covector * w) > 0


@pytest.mark.parametrize("target", ["heisenberg", "stiefel"])
def test_descent_factors_projection_once_per_stage(target, monkeypatch):
    calls = []
    projection_factor = energy.projection_factor

    def counting_factor(imm):
        calls.append(imm)
        return projection_factor(imm)

    def no_spsolve(*args, **kwargs):
        raise AssertionError("the descent must not call spsolve")

    monkeypatch.setattr(energy, "projection_factor", counting_factor)
    monkeypatch.setattr(spla, "spsolve", no_spsolve)
    imm = corpus.perturbed_clifford(8, amplitude=1e-2, seed=3, target=target)
    schedule = [0.3, 0.2, 0.1]
    res = energy.descend(imm, schedule, energy.DescentOptions(max_iters=2))
    assert len(res.stages) == len(schedule) and res.records
    assert len(calls) == len(schedule)


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
    _, w_proj = energy.hamiltonian_project(imm, grad.covector, energy.projection_factor(imm))
    moved = imm.with_positions(imm.geometry.move(imm.positions, -1.0 * w_proj))
    restored, _, _, passes = energy.restore_constraint(moved)
    assert passes >= 1
    correction = restored.positions[:, 0] - moved.positions[:, 0]
    assert abs(np.mean(correction)) <= 1e-2 * np.max(np.abs(correction))


def test_flat_restoration_reuses_the_reeb_solver(monkeypatch):
    built = []
    laplacian_solver = SurfaceMesh.laplacian_solver

    def counting_solver(mesh, *args):
        built.append(args)
        return laplacian_solver(mesh, *args)

    monkeypatch.setattr(SurfaceMesh, "laplacian_solver", counting_solver)
    for imm, kind in [(corpus.clifford_lift(8), GridSolver), (corpus.flat_patch(8), spla.SuperLU)]:
        m, geo, p = imm.mesh, imm.geometry, imm.positions
        s = np.random.default_rng(2).standard_normal(m.n_vertices)
        built.clear()
        for scale in (0.1, 0.2):
            moved = imm.with_positions(geo.move(p, scale * s[:, None] * geo.reeb(p)))
            assert energy.restore_constraint(moved)[3] >= 1
        assert len(built) == 1 and m.reeb_solver is m.reeb_solver
        assert isinstance(m.reeb_solver, kind)


def _grid_and_other_meshes():
    """A periodic grid's mesh, and meshes that are not grids: a patch and a
    relabelling of it, and a flat patch."""
    clifford = corpus.clifford_lift(12)
    patch = gauge_lab.gauge_ball(clifford, clifford.positions[0], 0.5)
    perm = np.random.default_rng(4).permutation(clifford.mesh.n_vertices)
    return clifford.mesh, [patch.mesh, _relabelled(clifford, perm).mesh, corpus.flat_patch(8).mesh]


def test_laplacian_solver_is_fft_only_on_a_grid_with_constant_coefficients():
    grid, others = _grid_and_other_meshes()
    rng = np.random.default_rng(8)
    for m in [grid, *others]:
        n_e, n_v = len(m.edges), m.n_vertices
        varied_w, varied_d = 1.0 + rng.uniform(size=n_e), 1.0 + rng.uniform(size=n_v)
        for weights, diagonal in [(np.full(n_e, 2.5), 1e-14), (np.ones(n_e), np.full(n_v, 0.5)),
                                  (varied_w, 1e-14), (np.ones(n_e), varied_d)]:
            fft = m is grid and np.ptp(weights) == 0 and np.ptp(diagonal) == 0
            solver = m.laplacian_solver(weights, diagonal)
            assert isinstance(solver, GridSolver if fft else spla.SuperLU)
            b = m.edge_incidence.T @ rng.standard_normal(n_e)  # in the range at any shift
            assert _rel_err(m.stiffness(weights, diagonal) @ solver.solve(b), b) <= 1e-10


@pytest.mark.parametrize("target", ["heisenberg", "stiefel"])
@pytest.mark.parametrize("n", [8, 24])
def test_projection_factor_is_lu_on_the_clifford_grid(n, target):
    imm = corpus.clifford_lift(n, target=target)
    assert imm.mesh.grid_shape == (n, n)
    assert np.ptp(immersion.cotangent_weights(imm)[0]) > 0  # the cot weights vary
    assert isinstance(energy.projection_factor(imm), spla.SuperLU)


GRID_CASES = [
    *[("clifford_lift", dict(n=n, warp=warp)) for n in (8, 12, 24) for warp in (0.0, 0.3)],
    ("perturbed_clifford", dict(n=24)),
]


@pytest.mark.parametrize("family,kw", GRID_CASES)
def test_grid_solver_matches_lu(family, kw):
    imm = corpus.generate(family, **kw)
    m = imm.mesh
    d = m.edge_incidence
    assert isinstance(m.reeb_solver, GridSolver)
    # A right-hand side like the restoration's, D^T (c r).  The constant mode
    # of x is fixed only by the 1e-14 shift and rounding, so compare D x.
    b = -(d.T @ np.random.default_rng(3).standard_normal(len(m.edges)))
    for c2 in (1.0, 2.5):  # unit slopes, and another constant one
        matrix = m.stiffness(np.full(len(m.edges), c2), 1e-14)
        lu = spla.splu((c2 * (d.T @ d) + 1e-14 * sp.identity(m.n_vertices)).tocsc())
        assert _rel_err(d @ GridSolver(matrix, m.grid_shape).solve(b), d @ lu.solve(b)) <= 1e-12


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
    grid, (patch, *others) = _grid_and_other_meshes()
    assert patch.n_vertices < grid.n_vertices
    for m in (patch, *others, corpus.double_sheet(4).mesh):
        assert m.grid_shape is None


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
    assert isinstance(imm.mesh.reeb_solver, GridSolver)
    assert isinstance(other.mesh.reeb_solver, spla.SuperLU)
    assert lu_stats[2] == grid_stats[2] >= 1 and lu_stats[1] <= imm.legendrian_tol
    # Both restorations pin the constant mode, so the corrections agree.
    grid_fix = grid_out.positions[:, 0] - moved.positions[:, 0]
    lu_fix = (lu_out.positions[:, 0] - moved_other.positions[:, 0])[perm]
    assert _rel_err(lu_fix, grid_fix) <= 1e-12


def test_flow_step_reports_restore_iters():
    imm = corpus.perturbed_clifford(12)
    *_, passes = energy.flow_step(imm, np.zeros_like(imm.positions), 1e-2)
    assert passes == 0
    grad = energy.EnergyAssembler(imm).gradient(imm, 0.2)
    _, w_proj = energy.hamiltonian_project(imm, grad.covector, energy.projection_factor(imm))
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
