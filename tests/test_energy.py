"""Penalized energy, exact first variation, flow, projection, descent."""

import numpy as np
import pytest

import reference_loops as ref
from legsurf import corpus, energy, gauge_lab, immersion
from legsurf.checks import fit_loglog_slope
from legsurf.errors import GeometryDomainError, LocalisationError
from legsurf.mesh import DiscreteImmersion, SurfaceMesh
from legsurf.polynomials import Polynomial, random_polynomial

TARGETS = ("heisenberg", "stiefel")


def quadratic_bump(seed=5):
    """phi-independent quadratic Hamiltonian (flows commute with the deck map)."""
    rng = np.random.default_rng(seed)
    poly = random_polynomial(rng, 4, degree=2, n_terms=8, scale=1.0)
    return Polynomial(poly.coeffs, np.pad(poly.exponents, ((0, 0), (1, 0))))


def spec_of(poly):
    return energy.HamiltonianSpec(h=lambda p: poly(p), grad=lambda p: poly.grad(p))


def richardson_directional(asm, imm, eps, w, t1=1e-3, t2=1e-4):
    def central(t):
        ep = asm.energy(imm.with_positions(imm.positions + t * w), eps).total
        em = asm.energy(imm.with_positions(imm.positions - t * w), eps).total
        return (ep - em) / (2 * t)

    d1, d2 = central(t1), central(t2)
    return (t1**2 * d2 - t2**2 * d1) / (t1**2 - t2**2)


class TestEnergy:
    def test_flat_patch_breakdown(self):
        eb = energy.energy(corpus.flat_patch(8), 0.1)
        assert eb.area == pytest.approx(1.0, abs=1e-12)
        assert eb.penalty == pytest.approx(1e-4, rel=1e-12)
        assert eb.total == pytest.approx(1.0001, rel=1e-12)

    def test_clifford_area_converges(self):
        eb = energy.energy(corpus.clifford_lift(128), 0.1)
        assert eb.area == pytest.approx(4 * np.pi**2, rel=5e-3)

    def test_penalty_vanishes_with_eps(self):
        cl = corpus.clifford_lift(16)
        totals = [energy.energy(cl, e).total for e in (0.2, 0.1, 0.05, 0.01)]
        area = energy.energy(cl, 1e-4).area
        assert all(b < a for a, b in zip(totals, totals[1:]))
        assert totals[-1] == pytest.approx(area, rel=1e-6)

    def test_penalty_at_least_eps4_area(self):
        pc = corpus.perturbed_clifford(16, amplitude=2e-2, seed=1)
        eb = energy.energy(pc, 0.3)
        assert eb.penalty >= 0.3**4 * eb.area

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(GeometryDomainError):
            energy.energy(corpus.flat_patch(4), 0.0)

    def test_mesh_without_uv_rejected(self):
        # The Gauss-map stencil differences parameter barycentres, so every
        # evaluation of the penalty needs uv.
        fp = corpus.flat_patch(6)
        m = fp.mesh
        mesh = SurfaceMesh(m.triangles, m.n_vertices, boundary_loops=m.boundary_loops)
        imm = DiscreteImmersion(mesh=mesh, target="heisenberg", positions=fp.positions)
        for evaluate in (
            lambda: energy.energy(imm, 0.2),
            lambda: energy.gradient(imm, 0.2),
            lambda: energy.descend(imm, [0.2], energy.DescentOptions(max_iters=2)),
        ):
            with pytest.raises(GeometryDomainError, match="requires uv parameters"):
                evaluate()


class TestFirstVariation:
    def test_directional_equals_pairing(self):
        # The gradient's pairing against the forward-mode oracle.
        for target in TARGETS:
            rng = np.random.default_rng(0)
            pc = corpus.perturbed_clifford(12, amplitude=2e-2, seed=3, target=target)
            asm = energy.EnergyAssembler(pc)
            w = pc.geometry.tangent(pc.positions, rng.standard_normal(pc.positions.shape))
            direct = asm.first_variation(pc, 0.3, w)
            oracle = ref.energy_first_variation(asm, pc, 0.3, w)
            assert direct == pytest.approx(oracle, rel=1e-12), target

    def test_gradient_matches_richardson_fd(self):
        for target in TARGETS:
            rng = np.random.default_rng(1)
            pc = corpus.perturbed_clifford(12, amplitude=2e-2, seed=3, target=target)
            asm = energy.EnergyAssembler(pc)
            for _ in range(5):
                w = pc.geometry.tangent(pc.positions, rng.standard_normal(pc.positions.shape))
                analytic = asm.first_variation(pc, 0.25, w)
                fd = richardson_directional(asm, pc, 0.25, w)
                assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(analytic)), target

    def test_area_variation_matches_fd_interior_bump(self):
        # Interior-supported coordinate bump on the flat patch at eps -> 0.
        fp = corpus.flat_patch(12)
        asm = energy.EnergyAssembler(fp)
        uv = fp.mesh.uv
        bump = np.exp(-60.0 * ((uv[:, 0] - 0.5) ** 2 + (uv[:, 1] - 0.5) ** 2))
        bump[uv[:, 0] < 1e-9] = 0.0
        bump[uv[:, 0] > 1 - 1e-9] = 0.0
        bump[uv[:, 1] < 1e-9] = 0.0
        bump[uv[:, 1] > 1 - 1e-9] = 0.0
        w = np.zeros_like(fp.positions)
        w[:, 1] = bump
        analytic = asm.first_variation(fp, 1e-8, w)
        fd = richardson_directional(asm, fp, 1e-8, w)
        assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(analytic))

    def test_reeb_rotation_invariance_on_stiefel_torus(self):
        stt = corpus.clifford_lift(16, target="stiefel")
        w = stt.geometry.reeb(stt.positions)
        val = energy.first_variation(stt, 0.2, w)
        assert abs(val) < 1e-8
        # the rotation is an exact isometry of the discrete energy
        theta = 0.3
        a, b = ref.reeb_rotate_raw(stt.positions[:, :4], stt.positions[:, 4:], theta)
        rotated = stt.with_positions(np.concatenate([a, b], axis=-1))
        e0 = energy.energy(stt, 0.2).total
        e1 = energy.energy(rotated, 0.2).total
        assert e1 == pytest.approx(e0, rel=1e-12)

    def test_flat_patch_area_gradient_zero_interior(self):
        fp = corpus.flat_patch(8)
        grad = energy.gradient(fp, 1e-9).covector
        boundary = np.unique(fp.mesh.edges[fp.mesh.boundary_edge_mask])
        interior = np.delete(grad, boundary, axis=0)
        assert np.abs(interior).max() < 1e-9


class TestHamiltonianDeformation:
    def test_zero_hamiltonian(self):
        cl = corpus.clifford_lift(8)
        spec = energy.HamiltonianSpec(
            h=lambda p: np.zeros(len(p)), grad=lambda p: np.zeros_like(p)
        )
        assert np.abs(energy.hamiltonian_deformation(cl, spec)).max() == 0.0

    def test_constant_hamiltonian_on_stiefel_is_reeb(self):
        stt = corpus.clifford_lift(8, target="stiefel")
        spec = energy.HamiltonianSpec(
            h=lambda p: np.ones(len(p)), grad=lambda p: np.zeros_like(p)
        )
        w = energy.hamiltonian_deformation(stt, spec)
        assert np.allclose(w, -2.0 * stt.geometry.reeb(stt.positions), atol=1e-12)

    def test_dilation_generator_on_model(self):
        cl = corpus.clifford_lift(8)
        spec = energy.HamiltonianSpec(
            h=lambda p: -p[..., 0],
            grad=lambda p: np.concatenate(
                [-np.ones(p.shape[:-1] + (1,)), np.zeros(p.shape[:-1] + (4,))], axis=-1
            ),
        )
        w = energy.hamiltonian_deformation(cl, spec)
        expected = np.concatenate([2 * cl.positions[:, :1], cl.positions[:, 1:]], axis=-1)
        assert np.allclose(w, expected, atol=1e-12)

    def test_field_tangency_on_stiefel(self):
        stt = corpus.clifford_lift(8, target="stiefel")
        poly = random_polynomial(np.random.default_rng(4), 8, degree=2, n_terms=6)
        w = energy.hamiltonian_deformation(stt, spec_of(poly))
        from legsurf import stiefel as st

        defect = st.tangency_defect(
            stt.positions[:, :4], stt.positions[:, 4:], w[:, :4], w[:, 4:]
        )
        assert np.max(defect) < 1e-10


class TestFlowStep:
    def test_zero_field_identity(self):
        cl = corpus.clifford_lift(8)
        out, before, after, passes = energy.flow_step(cl, np.zeros_like(cl.positions), 1e-2)
        assert out is cl and passes == 0
        assert before == after == immersion.legendrian_residual(cl).max

    def test_hamiltonian_step_order_two(self):
        cl = corpus.clifford_lift(24)
        w = energy.hamiltonian_deformation(cl, spec_of(quadratic_bump()))
        taus = np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
        vals = [ref.pre_restoration_residual(cl, w, t) for t in taus]
        assert fit_loglog_slope(taus, vals) >= 1.9

    def test_generic_step_order_one(self):
        cl = corpus.clifford_lift(24)
        rng = np.random.default_rng(6)
        w = rng.standard_normal(cl.positions.shape)
        taus = np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
        vals = [ref.pre_restoration_residual(cl, w, t) for t in taus]
        slope = fit_loglog_slope(taus, vals)
        assert slope <= 1.2

    def test_restoration_reaches_tolerance(self):
        cl = corpus.clifford_lift(24)
        w = energy.hamiltonian_deformation(cl, spec_of(quadratic_bump()))
        stepped, _, after, _ = energy.flow_step(cl, w, 1e-2)
        assert immersion.legendrian_residual(stepped).max == after <= cl.legendrian_tol


class TestDescend:
    def test_flat_patch_immediate_convergence(self):
        fp = corpus.flat_patch(8)
        res = energy.descend(fp, [0.2], energy.DescentOptions(max_iters=10))
        assert res.stages[0].iters == 0
        assert not res.records

    def test_perturbed_clifford_recovery(self):
        pc = corpus.perturbed_clifford(16, amplitude=1e-2, seed=3)
        e0 = energy.energy(pc, 0.2).total
        res = energy.descend(pc, [0.2], energy.DescentOptions(max_iters=60))
        e_ref = energy.energy(corpus.clifford_lift(16), 0.2).total
        assert res.stages[0].energy.total <= e0
        assert abs(res.stages[0].energy.total - e_ref) < 1e-3
        totals = [r["area"] + r["penalty"] for r in res.records]
        assert all(b < a for a, b in zip(totals, totals[1:]))

    def test_schedule_entropy_reported(self):
        pc = corpus.perturbed_clifford(12, amplitude=1e-2, seed=3)
        res = energy.descend(pc, [0.2, 0.1, 0.05], energy.DescentOptions(max_iters=25))
        ent = [s.energy.entropy_indicator for s in res.stages]
        assert len(ent) == 3
        assert all(b <= a for a, b in zip(ent, ent[1:]))
        for s in res.stages:
            assert s.to_json()["exp_bound_target"] == pytest.approx(np.exp(-1 / s.eps**2))

    def test_stage_at_tolerance_needs_no_extra_gradient(self, monkeypatch):
        # A stage that breaks at tolerance has already measured the gradient
        # norm at its final mesh: one gradient per accepted step plus the one
        # that stops the loop.
        pc = corpus.perturbed_clifford(12, amplitude=1e-2, seed=3, target="stiefel")
        calls = []
        gradient = energy.EnergyAssembler.gradient

        def counting(self, imm, eps):
            calls.append(eps)
            return gradient(self, imm, eps)

        monkeypatch.setattr(energy.EnergyAssembler, "gradient", counting)
        opts = energy.DescentOptions(max_iters=40, tol_scale=1e-2)
        res = energy.descend(pc, [0.2], opts)
        stage = res.stages[0]
        assert stage.hit_tolerance and stage.grad_norm <= stage.tol
        assert 0 < len(res.records) == stage.iters
        assert len(calls) == len(res.records) + 1
        # The reported norm is the one measured at the final mesh, in the
        # stage's frozen metric: the factor and areas of the stage-start mesh.
        factor, areas = energy.projection_factor(pc), pc.face_data.vertex_areas
        grad = gradient(energy.EnergyAssembler(res.final), res.final, 0.2)
        _, w_proj = energy.hamiltonian_project(res.final, grad.covector, factor=factor)
        assert stage.grad_norm == energy._grad_norm(res.final, areas, w_proj)

    def test_frame_stage_stops_at_tolerance(self):
        pc = corpus.perturbed_clifford(24, amplitude=1e-2, seed=3, target="stiefel")
        (stage,) = energy.descend(pc, [0.2], energy.DescentOptions(max_iters=20)).stages
        assert stage.stopped_by == "tolerance" and stage.grad_norm <= stage.tol
        assert stage.to_json()["stopped_by"] == "tolerance" and stage.hit_tolerance

    def test_bad_schedule_rejected(self):
        fp = corpus.flat_patch(4)
        with pytest.raises(GeometryDomainError):
            energy.descend(fp, [0.1, 0.2])

    @pytest.mark.parametrize("target", TARGETS)
    def test_slope_is_gradient_pairing(self, target):
        # The Armijo slope at the first iterate: the gradient that the
        # projection used, paired with the descent direction, is the
        # directional derivative of the forward-mode oracle.
        pc = corpus.perturbed_clifford(12, amplitude=1e-2, seed=3, target=target)
        asm = energy.EnergyAssembler(pc)
        factor = energy.projection_factor(pc)
        grad = asm.gradient(pc, 0.2)
        _, w_proj = energy.hamiltonian_project(pc, grad.covector, factor)
        slope = grad.pair(-w_proj)
        assert slope < 0
        assert slope == pytest.approx(ref.energy_first_variation(asm, pc, 0.2, -w_proj), rel=1e-12)

    @pytest.mark.parametrize("target", TARGETS)
    def test_descent_assembles_no_first_variation(self, target, monkeypatch):
        pc = corpus.perturbed_clifford(12, amplitude=1e-2, seed=3, target=target)
        opts = energy.DescentOptions(max_iters=4)
        want = energy.descend(pc, [0.2, 0.1], opts)

        def refuse(*args, **kwargs):
            raise AssertionError("descend assembled a first variation")

        monkeypatch.setattr(energy.EnergyAssembler, "first_variation", refuse)
        got = energy.descend(pc, [0.2, 0.1], opts)
        assert got.records and got.records == want.records
        assert [s.to_json() for s in got.stages] == [s.to_json() for s in want.stages]

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize(
        "tau_init,tau_min",
        [
            (1e-2, 2e3), (1e-2, 0.0), (1e-2, -1e-10), (1e-2, float("nan")),
            (0.0, 1e-10), (-1e-2, 1e-10),
        ],
    )
    def test_step_bounds_rejected(self, target, tau_init, tau_min):
        # A tau_min above the cap on the first step would abort every stage
        # before any step is tried.
        pc = corpus.perturbed_clifford(10, amplitude=1e-2, seed=3, target=target)
        opts = energy.DescentOptions(tau_init=tau_init, tau_min=tau_min, max_iters=3)
        with pytest.raises(GeometryDomainError, match="tau_min"):
            energy.descend(pc, [0.2], opts)

    @pytest.mark.parametrize("target", TARGETS)
    def test_tau_min_at_cap_is_tried(self, target):
        from legsurf.errors import StageAbortedError

        pc = corpus.perturbed_clifford(10, amplitude=1e-2, seed=3, target=target)
        opts = energy.DescentOptions(tau_min=energy.TAU_MAX, max_iters=3)
        with pytest.raises(StageAbortedError) as exc:
            energy.descend(pc, [0.2], opts)
        assert exc.value.diagnostics["tau"] == energy.TAU_MAX


class TestPairingIdentity:
    def test_area_variation_pairs_with_angle_form(self):
        # <dA, X_h> = 2 int <dh, d beta> for fields with unit-scale horizontal
        # part; consistency error decays with refinement at order >= 1.
        poly = quadratic_bump(11)
        errs = []
        ns = [12, 24, 48]
        for n in ns:
            cl = corpus.clifford_lift(n)
            spec = spec_of(poly)
            w = energy.hamiltonian_deformation(cl, spec)
            lhs = energy.first_variation(cl, 1e-9, w)
            fd = immersion.FaceData(cl)
            mcf = immersion.mean_curvature_one_form(cl)
            dbeta = energy_face_one_form(cl, 0.5 * mcf.gamma)
            h_vals = spec.h(cl.positions)
            dh = fd.grad_scalar(h_vals)
            rhs = 2.0 * float(np.sum(fd.pairing(dh, dbeta) * fd.area))
            errs.append(abs(lhs - rhs))
        slope = fit_loglog_slope(2 * np.pi / np.asarray(ns), errs)
        assert slope >= 1.0 or errs[-1] < 1e-10

    def test_dirichlet_dominates_area(self):
        # (1/2) int |dL|^2 dvol_uv >= area, equality iff conformal.
        for imm, conformal in (
            (corpus.clifford_lift(16), True),
            (corpus.flat_patch(8), True),
            (_stretched(8), False),
        ):
            fd = immersion.FaceData(imm)
            dirichlet = float(np.sum(0.5 * (fd.g[:, 0, 0] + fd.g[:, 1, 1]) * fd.uv_area))
            area = float(np.sum(fd.area))
            assert dirichlet >= area - 1e-12
            hopf_max = np.abs(immersion.hopf_differential(imm)).max()
            if conformal:
                assert dirichlet == pytest.approx(area, abs=1e-6)
                assert hopf_max <= 1e-6
            else:
                assert dirichlet > area + 1e-6
                assert hopf_max > 1e-6


def _stretched(n):
    fp = corpus.flat_patch(n)
    pos = fp.positions.copy()
    pos[:, 1] *= 2.0
    return fp.with_positions(pos)


def energy_face_one_form(imm, edge_values):
    from legsurf.gauge_lab import _face_one_form

    return _face_one_form(imm, edge_values)


class TestWeakStationarity:
    def test_clifford_residual_at_floor(self):
        # Sampled Lagrangian tori are exactly discretely critical along
        # sampled Hamiltonian fields; the truncated pairing sits at machine
        # floor at every resolution (stronger than any decay order).
        for n in (16, 32, 64):
            cl = corpus.clifford_lift(n, warp=0.35)
            p0 = cl.positions[(n // 2) * n + n // 2]
            spec = gauge_lab.smooth_gauge_bump(cl.target, p0, 0.5, tilt=0.4)
            f_vals = -np.cos(cl.mesh.uv[:, 0])
            val = energy.weak_stationarity_residual(
                cl, np.ones(cl.mesh.n_vertices), spec, f_vals, lam=0.2
            )
            assert abs(val) < 1e-12

    @pytest.mark.parametrize("target", TARGETS)
    def test_matches_written_out_pairing(self, target):
        # Off the critical torus the residual is generic; the two FaceData
        # calls agree with the written-out d_u w, d_v w and four-term pairing
        # to rounding of the sum's absolute terms.
        imm = corpus.perturbed_clifford(16, target=target)
        spec = gauge_lab.smooth_gauge_bump(target, imm.positions[8 * 16 + 8], 0.5, tilt=0.4)
        n_mult = 1.0 + 0.5 * np.cos(imm.mesh.uv[:, 1])
        f_vals = -np.cos(imm.mesh.uv[:, 0])
        want, scale = ref.weak_stationarity_residual(imm, n_mult, spec, f_vals, 0.2)
        got = energy.weak_stationarity_residual(imm, n_mult, spec, f_vals, 0.2)
        assert abs(want) > 1e-6 * scale
        assert abs(got - want) <= 1e-13 * scale

    def test_pairing_nonzero_on_non_minimal_surface(self):
        # Control for the floor test: a Lagrangian graph that is not
        # area-critical pairs to a genuinely nonzero value.
        g = _lagrangian_graph(16)
        p0 = g.positions[np.argmin(np.sum(g.mesh.uv**2, axis=1))]
        spec = gauge_lab.smooth_gauge_bump(g.target, p0, 0.3, tilt=0.4)
        w = energy.hamiltonian_deformation(g, spec)
        assert abs(energy.first_variation(g, 1e-12, w)) > 1e-5

    def test_flat_patch_zero(self):
        fp = corpus.flat_patch(24, extent=1.0, center=True)
        p0 = np.zeros(5)
        spec = gauge_lab.hamiltonian_arctan(fp.target, p0, 0.15, 0.03)
        f_vals = fp.mesh.uv[:, 0]
        # support inside the cut domain; level line disjoint from it
        val = energy.weak_stationarity_residual(
            fp, np.ones(fp.mesh.n_vertices), spec, f_vals, lam=-0.45
        )
        assert abs(val) < 1e-6

    def test_localisation_violation_raises(self):
        cl = corpus.clifford_lift(16)
        p0 = cl.positions[(16 // 2) * 16 + 16 // 2]
        spec = gauge_lab.hamiltonian_arctan(cl.target, p0, 0.25, 0.05)
        # cut right through the support: f = r_gauge with a level inside it
        gf = gauge_lab.gauge_fields(cl, p0)
        with pytest.raises(LocalisationError) as exc:
            energy.weak_stationarity_residual(
                cl, np.ones(cl.mesh.n_vertices), spec, gf.r, lam=0.3
            )
        assert exc.value.face_id is not None


class TestStageAbort:
    def test_step_rejection_cascade(self):
        # A tau floor above any admissible step forces the abort diagnostic.
        from legsurf.errors import StageAbortedError

        pc = corpus.perturbed_clifford(10, amplitude=1e-2, seed=3)
        with pytest.raises(StageAbortedError) as exc:
            energy.descend(pc, [0.2], energy.DescentOptions(tau_min=5.0, max_iters=5))
        assert "eps" in exc.value.diagnostics

    @pytest.mark.parametrize("target", TARGETS)
    def test_abort_carries_last_step_and_residuals(self, target):
        # tau_min above tau_init: the only step tried is tau_min, and it fails.
        from legsurf.errors import StageAbortedError

        pc = corpus.perturbed_clifford(10, amplitude=1e-2, seed=3, target=target)
        opts = energy.DescentOptions(tau_init=1e-2, tau_min=5.0, max_iters=3)
        with pytest.raises(StageAbortedError) as exc:
            energy.descend(pc, [0.2], opts)
        diag = exc.value.diagnostics
        assert diag["tau"] == 5.0 and diag["iter"] == 1
        assert diag["residual_before_restore"] > pc.legendrian_tol
        assert 0 <= diag["residual_after_restore"] < diag["residual_before_restore"]


class TestLineSearch:
    """The backtrack after an Armijo failure interpolates; a rejection halves."""

    @staticmethod
    def _flat48():
        # Smaller meshes accept every first trial, so nothing backtracks there.
        return corpus.perturbed_clifford(48, amplitude=1e-2, seed=1)

    def test_backtrack_is_clamped_quadratic_minimiser(self, monkeypatch):
        real_step, trials = energy.flow_step, []
        eps = 0.2

        def recording(imm, w_field, tau):
            out = real_step(imm, w_field, tau)
            e0 = energy.energy(imm, eps).total
            slope = energy.gradient(imm, eps).pair(w_field)
            trials.append((imm, tau, e0, slope, energy.energy(out[0], eps).total))
            return out

        monkeypatch.setattr(energy, "flow_step", recording)
        opts = energy.DescentOptions(max_iters=8)
        energy.descend(self._flat48(), [eps], opts)
        ratios = []
        for (imm, tau, e0, slope, e_tau), nxt in zip(trials, trials[1:]):
            if nxt[0] is not imm:
                continue  # this trial was accepted
            assert e_tau > e0 + opts.armijo * tau * slope
            curvature = e_tau - e0 - slope * tau
            assert curvature > 0
            ratio = min(max(-slope * tau / (2.0 * curvature), energy.BACKTRACK_MIN),
                        energy.BACKTRACK_MAX)
            assert nxt[1] == pytest.approx(ratio * tau, rel=1e-12)
            ratios.append(ratio)
        # Some ratio lies inside the clamp, where halving would differ.
        assert any(energy.BACKTRACK_MIN < r < energy.BACKTRACK_MAX for r in ratios)

    def test_nonconvex_model_halves(self, monkeypatch):
        # The first trial reads E(0) + 1.5 slope tau, a concave quadratic
        # model.  Only an armijo above 1 fails the Armijo test there, and
        # descend rejects one, so the stage is driven directly; a tau_min of
        # half the first step aborts it once the halved trial fails too.
        from legsurf.errors import StageAbortedError

        eps = 0.2
        real_step, real_energy = energy.flow_step, energy.EnergyAssembler.energy
        taus, faked = [], []

        def concave_first(imm, w_field, tau):
            taus.append(tau)
            out = real_step(imm, w_field, tau)
            if len(taus) == 1:
                total = (energy.energy(imm, eps).total
                         + 1.5 * tau * energy.gradient(imm, eps).pair(w_field))
                faked.append((out[0], energy.EnergyBreakdown(total, 0.0, total, 0.0)))
            return out

        def faking(self, imm, eps_):
            for candidate, breakdown in faked:
                if candidate is imm:
                    return breakdown
            return real_energy(self, imm, eps_)

        monkeypatch.setattr(energy, "flow_step", concave_first)
        monkeypatch.setattr(energy.EnergyAssembler, "energy", faking)
        pc = corpus.perturbed_clifford(10, amplitude=1e-2, seed=3)
        opts = energy.DescentOptions(armijo=2.0, tau_min=1e-2, max_iters=1)
        result = energy.DescentResult(pc, [], [], stopped_by_entropy=False)
        with pytest.raises(StageAbortedError):  # armijo 2 accepts no real step either
            energy.descent_stage(result, energy.EnergyAssembler(pc), 0, eps, opts)
        assert taus == [2e-2, 1e-2]

    def test_trial_count_and_records(self, monkeypatch):
        real_step, taus = energy.flow_step, []

        def counting(imm, w_field, tau):
            taus.append(tau)
            return real_step(imm, w_field, tau)

        monkeypatch.setattr(energy, "flow_step", counting)
        result = energy.descend(self._flat48(), [0.2, 0.1], energy.DescentOptions(max_iters=8))
        records = result.records
        assert len(records) == 16
        # Halving from twice the last step made 31 trials here.
        assert len(taus) < 28
        assert all(type(r["backtracks"]) is int and r["backtracks"] >= 0 for r in records)
        assert len(records) + sum(r["backtracks"] for r in records) == len(taus)
        accepted = np.cumsum([r["backtracks"] + 1 for r in records]) - 1
        assert [r["tau"] for r in records] == [taus[i] for i in accepted]


def _lagrangian_graph(n):
    """Non-minimal Lagrangian graph (x1, dF/dx1, x2, dF/dx2), lifted."""
    from legsurf import heisenberg as hs
    from legsurf.corpus import _grid_triangles, _square_boundary_loop
    from legsurf.mesh import DiscreteImmersion, SurfaceMesh

    lin = np.linspace(-0.5, 0.5, n + 1)
    x1, x2 = np.meshgrid(lin, lin, indexing="ij")
    f1 = 0.3 * np.cos(x1) * np.cos(x2)
    f2 = -0.3 * np.sin(x1) * np.sin(x2)
    u = np.stack([x1, f1, x2, f2], axis=-1)
    grid = hs.LagrangianSampleGrid(n + 1, n + 1, lin[1] - lin[0], lin[1] - lin[0], u)
    lift = hs.legendrian_lift(grid, tol_lag=1e-3)
    pos = np.zeros(((n + 1) ** 2, 5))
    pos[:, 0] = lift.phi.ravel()
    pos[:, 1:] = u.reshape(-1, 4)
    uv = np.stack([x1.ravel(), x2.ravel()], axis=-1)
    mesh = SurfaceMesh(
        _grid_triangles(n + 1, n + 1),
        (n + 1) ** 2,
        uv=uv,
        genus=0,
        boundary_loops=[_square_boundary_loop(n + 1, n + 1)],
    )
    return DiscreteImmersion(mesh=mesh, target="heisenberg", positions=pos, legendrian_tol=1e-4)


class TestReebFlow:
    def test_constant_hamiltonian_flow_is_reeb_rotation(self):
        # h = 1 gives -2R; its time-t flow is the frame rotation by -2t.
        stt = corpus.clifford_lift(8, target="stiefel")
        one = Polynomial(np.array([1.0]), np.zeros((1, 8), int))
        t = 0.05
        flowed = corpus.flow_exact_hamiltonian(stt, one, t, nsteps=64)
        a, b = ref.reeb_rotate_raw(stt.positions[:, :4], stt.positions[:, 4:], -2.0 * t)
        expected = np.concatenate([a, b], axis=-1)
        assert np.max(np.abs(flowed.positions - expected)) < 1e-9


class TestDegenerateFaces:
    def test_energy_rejects_collapsed_face(self):
        from legsurf.errors import DegenerateFaceError

        fp = corpus.flat_patch(4)
        pos = fp.positions.copy()
        tri = fp.mesh.triangles[0]
        pos[tri[1]] = pos[tri[0]]
        with pytest.raises(DegenerateFaceError):
            energy.energy(fp.with_positions(pos), 0.1)

    @pytest.mark.parametrize("target", TARGETS)
    def test_collapsed_candidate_is_retried_at_half_the_step(self, target, monkeypatch):
        from legsurf.errors import DegenerateFaceError

        pc = corpus.perturbed_clifford(8, amplitude=1e-2, seed=3, target=target)
        a, _, c = pc.mesh.triangles[0]

        def collapsed(imm):
            pos = imm.positions.copy()
            pos[c] = pos[a]  # face 0 collapses onto its edge a-b
            return imm.with_positions(pos)

        with pytest.raises(DegenerateFaceError):
            energy.EnergyAssembler(pc).energy(collapsed(pc), 0.2)
        flow_step, taus = energy.flow_step, []

        def collapsing_first(imm, w_field, tau):
            taus.append(tau)
            if len(taus) == 1:
                return collapsed(imm), 0.0, 0.0, 0
            return flow_step(imm, w_field, tau)

        monkeypatch.setattr(energy, "flow_step", collapsing_first)
        res = energy.descend(pc, [0.2], energy.DescentOptions(max_iters=2))
        assert res.records and len(res.stages) == 1
        assert taus[1] == 0.5 * taus[0]

    def test_flow_step_reports_residuals(self):
        cl = corpus.clifford_lift(16)
        w = energy.hamiltonian_deformation(cl, spec_of(quadratic_bump()))
        _, before, after, _ = energy.flow_step(cl, w, 1e-3)
        assert before >= after - 1e-18
        assert after <= cl.legendrian_tol
