"""Face frames, residuals, the penalty's Gauss-map curvature, Hopf differential,
angle one-form."""

import json

import numpy as np
import pytest

from legsurf import corpus, energy, immersion
from legsurf.checks import fit_loglog_slope
from legsurf.errors import DegenerateFaceError, GeometryDomainError
from legsurf.mesh import DiscreteImmersion, SurfaceMesh


def stretched_patch(n=8):
    """Flat anisotropic Legendrian patch (0, 2 x1, 0, x2, 0)."""
    fp = corpus.flat_patch(n)
    pos = fp.positions.copy()
    pos[:, 1] *= 2.0
    return fp.with_positions(pos)


class TestFaceFrames:
    def test_flat_patch_metric(self):
        fp = corpus.flat_patch(4)
        fd, geo = fp.face_data, fp.geometry
        assert fd.area.shape == (len(fp.mesh.triangles),)
        assert fd.area.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(fd.g, np.eye(2), atol=1e-14)
        assert np.all(np.abs(np.linalg.norm(fd.gauss, axis=-1) - 1.0) < 1e-12)
        # The normal basis: the unit Reeb vector and J of each horizontal partial.
        ju, jv = (geo.j(geo.horizontal(fd.base_pos, d)) for d in (fd.du, fd.dv))
        normals = (geo.reeb(fd.base_pos) / np.sqrt(-geo.alpha_reeb),
                   ju / np.linalg.norm(ju, axis=-1, keepdims=True),
                   jv / np.linalg.norm(jv, axis=-1, keepdims=True))
        for n in normals:
            assert np.all(np.abs(np.sum(n * fd.du, axis=-1)) < 1e-10)
            assert np.all(np.abs(np.sum(n * fd.dv, axis=-1)) < 1e-10)

    def test_clifford_metric_near_identity(self):
        cl = corpus.clifford_lift(64)
        fd = immersion.FaceData(cl)
        h = 2 * np.pi / 64
        dev = np.abs(fd.g - np.eye(2)).max()
        assert dev < h**2

    def test_collapsed_triangle_rejected(self):
        fp = corpus.flat_patch(2)
        pos = fp.positions.copy()
        # collapse one triangle by copying a vertex onto its neighbour
        tri = fp.mesh.triangles[0]
        pos[tri[1]] = pos[tri[0]]
        with pytest.raises(DegenerateFaceError) as exc:
            immersion.FaceData(fp.with_positions(pos))
        assert exc.value.face_id is not None

    def test_stiefel_torus_area(self):
        stt = corpus.clifford_lift(32, target="stiefel")
        fd = immersion.FaceData(stt)
        assert fd.area.sum() == pytest.approx(4 * np.pi**2, rel=4e-3)


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_legendrian_tol_must_be_finite_and_positive(tol):
    fp = corpus.flat_patch(4)
    with pytest.raises(GeometryDomainError, match="legendrian_tol"):
        DiscreteImmersion(fp.mesh, fp.target, fp.positions, legendrian_tol=tol)
    data = {**fp.to_json(), "legendrian_tol": tol}
    with pytest.raises(GeometryDomainError, match="legendrian_tol"):
        DiscreteImmersion.from_json(data)


class TestLegendrianResidual:
    def test_flat_patch_exact(self):
        res = immersion.legendrian_residual(corpus.flat_patch(8))
        assert res.max == 0.0

    def test_lifted_tori_at_machine_floor(self):
        for target in ("heisenberg", "stiefel"):
            res = immersion.legendrian_residual(corpus.clifford_lift(32, target=target))
            assert res.max < 1e-12

    def test_flowed_surface_consistency_order(self):
        # Exact Hamiltonian flows of the flat patch sample exact Legendrian
        # surfaces; the midpoint-rule residual must decay at order >= 1.9.
        from legsurf.polynomials import random_polynomial

        rng = np.random.default_rng(8)
        poly = random_polynomial(rng, 5, degree=3, n_terms=8, scale=1.0)
        ns = [16, 32, 64]
        vals = []
        for n in ns:
            fl = corpus.flow_exact_hamiltonian(corpus.flat_patch(n), poly, 0.03, nsteps=24)
            vals.append(immersion.legendrian_residual(fl).max)
        slope = fit_loglog_slope(1.0 / np.asarray(ns), vals)
        assert slope >= 1.9

    def test_detects_random_perturbation(self):
        rng = np.random.default_rng(1)
        cl = corpus.clifford_lift(16)
        pos = cl.positions + 1e-2 * rng.standard_normal(cl.positions.shape)
        res = immersion.legendrian_residual(cl.with_positions(pos))
        assert res.max > 1e-3

    def test_validate_gate(self):
        stt = corpus.clifford_lift(16, target="stiefel")
        loaded = DiscreteImmersion.from_json(stt.to_json())
        assert immersion.legendrian_residual(loaded).max <= loaded.legendrian_tol
        rng = np.random.default_rng(2)
        data = stt.to_json()
        data["vertices"] = (stt.positions + 1e-2 * rng.standard_normal(stt.positions.shape)).tolist()
        with pytest.raises(GeometryDomainError, match="target invariants"):
            DiscreteImmersion.from_json(data)


class TestPenaltyCurvature:
    """|dT|^2_g of the Gauss-map stencil, the |II|^2 that the penalty
    eps^4 * sum((1 + |II|^2)^2 area) reads: 2 on the Clifford torus (each
    unit-circle factor curves by 1 in its own normal direction), 0 on flat
    sheets."""

    @pytest.mark.parametrize("target", ["heisenberg", "stiefel"])
    @pytest.mark.parametrize("n", [16, 32])
    def test_clifford_lift_is_two_on_every_face(self, n, target):
        cl = corpus.clifford_lift(n, target=target)
        quad = cl.face_data.gauss_gradients[2]
        assert quad.shape == (len(cl.mesh.triangles),)
        assert np.abs(quad - 2.0).max() < 1e-12
        eps = 0.2
        e = energy.energy(cl, eps)
        assert e.penalty == pytest.approx(9.0 * eps**4 * e.area, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("make", [lambda: corpus.flat_patch(10), lambda: corpus.double_sheet(8)],
                             ids=["flat_patch", "double_sheet"])
    def test_flat_sheets_vanish(self, make):
        assert np.abs(make().face_data.gauss_gradients[2]).max() < 1e-20


class TestHopfDifferential:
    def test_flat_conformal_patch(self):
        hd = immersion.hopf_differential(corpus.flat_patch(6))
        assert np.abs(hd).max() < 1e-14

    def test_stretched_patch_value(self):
        hd = immersion.hopf_differential(stretched_patch(6))
        assert np.allclose(hd.real, 0.75, atol=1e-12)
        assert np.allclose(hd.imag, 0.0, atol=1e-12)

    def test_clifford_conformality(self):
        for n in (16, 32):
            hd = immersion.hopf_differential(corpus.clifford_lift(n))
            assert np.abs(hd).max() < 1e-12

    def test_requires_uv(self):
        fp = corpus.flat_patch(4)
        mesh = SurfaceMesh(
            triangles=fp.mesh.triangles,
            n_vertices=fp.mesh.n_vertices,
            uv=None,
            genus=0,
            boundary_loops=fp.mesh.boundary_loops,
        )
        imm = DiscreteImmersion(mesh=mesh, target="heisenberg", positions=fp.positions)
        with pytest.raises(GeometryDomainError):
            immersion.hopf_differential(imm)


class TestMeanCurvatureOneForm:
    def test_flat_patch_trivial(self):
        mcf = immersion.mean_curvature_one_form(corpus.flat_patch(8))
        assert np.abs(mcf.gamma).max() < 1e-12
        assert mcf.beta.max() - mcf.beta.min() < 1e-12

    def test_clifford_angle_one_form(self):
        # d beta = (ds + dt) / 2 for the lifted torus under the d beta = gamma/2
        # normalisation; compare edge-wise to dodge branch bookkeeping.
        errs = []
        for n in (16, 32, 64):
            cl = corpus.clifford_lift(n)
            mcf = immersion.mean_curvature_one_form(cl)
            m = cl.mesh
            tails, heads = m.edges[:, 0], m.edges[:, 1]
            duv = m.uv[heads] - m.uv[tails]
            duv -= m.wraps(m.uv[tails], m.uv[heads]) * 2 * np.pi
            expected = 0.5 * (duv[:, 0] + duv[:, 1])
            errs.append(np.abs(0.5 * mcf.gamma - expected).max())
        assert errs[-1] < 1e-3
        slope = fit_loglog_slope(2 * np.pi / np.array([16, 32, 64]), errs)
        assert slope >= 1.0

    def test_clifford_maslov_periods(self):
        cl = corpus.clifford_lift(64)
        mcf = immersion.mean_curvature_one_form(cl)
        assert len(mcf.periods) == 2
        for p in mcf.periods:
            assert p == pytest.approx(np.pi, rel=2e-2)

    def test_curl_residual_decays(self):
        vals = []
        ns = [16, 32, 64]
        for n in ns:
            mcf = immersion.mean_curvature_one_form(corpus.clifford_lift(n))
            vals.append(np.abs(mcf.curl).max())
        slope = fit_loglog_slope(2 * np.pi / np.asarray(ns), vals)
        assert slope >= 1.0 or vals[-1] < 1e-12

    def test_laplace_beta_residual_decays(self):
        # H-minimality defect of the lifted torus under refinement.
        vals = []
        ns = [16, 32, 64]
        for n in ns:
            mcf = immersion.mean_curvature_one_form(corpus.clifford_lift(n))
            vals.append(np.abs(mcf.laplace_beta_residual).max())
        slope = fit_loglog_slope(2 * np.pi / np.asarray(ns), vals)
        assert slope >= 1.0 or vals[-1] < 1e-12

    def test_disconnected_components_get_roots(self):
        ds = corpus.double_sheet(8)
        mcf = immersion.mean_curvature_one_form(ds)
        assert len(mcf.component_roots) == 2


class TestMeshValidation:
    def test_euler_characteristic_enforced(self):
        fp = corpus.flat_patch(4)
        with pytest.raises(GeometryDomainError):
            SurfaceMesh(
                triangles=fp.mesh.triangles,
                n_vertices=fp.mesh.n_vertices,
                uv=fp.mesh.uv,
                genus=3,
                boundary_loops=fp.mesh.boundary_loops,
            )

    def test_euler_characteristic_counts_components(self):
        # Two disks: chi = 2 = 2 * 2 components - 2 loops, so one loop short fails.
        m = corpus.double_sheet(5).mesh
        rebuilt = lambda loops: SurfaceMesh(m.triangles, m.n_vertices, uv=m.uv, boundary_loops=loops)
        rebuilt(m.boundary_loops)
        with pytest.raises(GeometryDomainError, match=r"Euler characteristic 2 .* 2 components "
                                                      r"and 1 boundary loops \(expected 3\)"):
            rebuilt(m.boundary_loops[:1])

    def test_orientation_enforced(self):
        with pytest.raises(GeometryDomainError):
            SurfaceMesh(
                triangles=[(0, 1, 2), (0, 1, 3)],  # edge (0,1) traversed twice
                n_vertices=4,
                genus=0,
                boundary_loops=[[0, 2, 1, 3]],
            )

    def test_json_roundtrip(self, tmp_path):
        for target in ("heisenberg", "stiefel"):
            cl = corpus.clifford_lift(8, target=target)
            path = tmp_path / f"{target}.json"
            cl.save(path)
            back = DiscreteImmersion.from_json(json.loads(path.read_text()))
            assert back.target == target
            assert np.allclose(back.positions, cl.positions)
            assert back.phi_monodromy == cl.phi_monodromy
            assert back.mesh.uv_periods == cl.mesh.uv_periods
            res_a = immersion.legendrian_residual(cl)
            res_b = immersion.legendrian_residual(back)
            assert res_a.max == res_b.max


class TestInvariances:
    def test_relabeling_invariance(self):
        fp = corpus.flat_patch(4)
        rng = np.random.default_rng(3)
        perm = rng.permutation(fp.mesh.n_vertices)
        inv = np.argsort(perm)
        mesh2 = SurfaceMesh(
            triangles=inv[fp.mesh.triangles],
            n_vertices=fp.mesh.n_vertices,
            uv=fp.mesh.uv[perm],
            genus=0,
            boundary_loops=[[int(inv[v]) for v in fp.mesh.boundary_loops[0]]],
        )
        imm2 = DiscreteImmersion(
            mesh=mesh2, target="heisenberg", positions=fp.positions[perm]
        )
        a1 = immersion.FaceData(fp).area.sum()
        a2 = immersion.FaceData(imm2).area.sum()
        assert a1 == pytest.approx(a2, abs=1e-14)
        r1 = immersion.legendrian_residual(fp)
        r2 = immersion.legendrian_residual(imm2)
        assert r1.max == pytest.approx(r2.max, abs=1e-15)

    def test_parameter_swap_invariance(self):
        # Swapping the two parameter directions with an orientation-preserving
        # relabeling of each triangle leaves face quantities unchanged.
        fp = corpus.flat_patch(4)
        tri = fp.mesh.triangles[:, [0, 2, 1]]
        uv = fp.mesh.uv[:, [1, 0]]
        mesh2 = SurfaceMesh(
            triangles=tri,
            n_vertices=fp.mesh.n_vertices,
            uv=uv,
            genus=0,
            boundary_loops=fp.mesh.boundary_loops,
        )
        imm2 = DiscreteImmersion(mesh=mesh2, target="heisenberg", positions=fp.positions)
        assert immersion.FaceData(imm2).area.sum() == pytest.approx(1.0, abs=1e-14)
        hd = immersion.hopf_differential(imm2)
        assert np.abs(hd).max() < 1e-13
