"""Gauge fields, cut-off Hamiltonian, truncated balance, density curves."""

import itertools

import numpy as np
import pytest

import reference_loops as ref
from legsurf import corpus, gauge_lab as gl
from legsurf.checks import fit_loglog_slope
from legsurf.errors import GeometryDomainError, ResolutionError


def center_vertex(imm, n):
    return imm.positions[(n // 2) * n + n // 2]


class TestCutoff:
    def test_plateau_and_support(self):
        assert gl.chi(0.5) == 1.0 and gl.chi(1.0) == 1.0
        assert gl.chi(2.0) == 0.0 and gl.chi(3.0) == 0.0
        ts = np.linspace(0, 3, 301)
        assert np.all(gl.chi_prime(ts) <= 0)

    def test_derivative_floor_on_window(self):
        ts = np.linspace(1.25, 1.75, 501)
        assert np.min(-gl.chi_prime(ts)) > 0.5

    def test_c2_continuity(self):
        for t0 in (1.0, 2.0):
            eps = 1e-6
            assert abs(gl.chi(t0 - eps) - gl.chi(t0 + eps)) < 1e-5
            assert abs(gl.chi_prime(t0 - eps) - gl.chi_prime(t0 + eps)) < 1e-4
            assert abs(gl.chi_double_prime(t0 - eps) - gl.chi_double_prime(t0 + eps)) < 1e-3


class TestGaugeFields:
    def test_flat_patch_sigma_linear_bound(self):
        fp = corpus.flat_patch(128, extent=1.0, center=True)
        gf = gl.gauge_fields(fp, np.zeros(5))
        m = (~gf.singular) & (gf.r < 0.2)
        # phi vanishes identically on the flat patch, so sigma does too
        c = np.nanmax(np.abs(gf.sigma[m]) / gf.r[m])
        assert c < 1e-12

    def test_clifford_sigma_linear_bound(self):
        n = 128
        cl = corpus.clifford_lift(n)
        gf = gl.gauge_fields(cl, center_vertex(cl, n))
        m = (~gf.singular) & (gf.r < 0.2)
        c = np.nanmax(np.abs(gf.sigma[m]) / gf.r[m])
        assert 0 < c < 2.0  # fitted constant; the order is the claim

    def test_clifford_arctan_gradient_bounded(self):
        n = 64
        cl = corpus.clifford_lift(n)
        gf = gl.gauge_fields(cl, center_vertex(cl, n))
        fd = gf.imm.face_data
        norms = np.sqrt(
            np.einsum("fa,fab,fb->f", gf.face_grad_arctan, fd.ginv, gf.face_grad_arctan)
        )
        near = gf.face_ok & (gf.face_r < 0.3) & (gf.face_r > 0.05)
        assert np.nanmax(norms[near]) < 5.0  # O(1), regression-baselined

    def test_pure_reeb_offset_limits(self):
        fp = corpus.flat_patch(16)
        origin = np.argmin(np.sum(fp.mesh.uv**2, axis=1))
        # A pure Legendrian offset from the patch, on either side of it.
        for offset, limit in ((-0.3, np.pi / 2), (0.3, -np.pi / 2)):
            p0 = np.zeros(5)
            p0[0] = offset
            gf = gl.gauge_fields(fp, p0)
            assert np.isnan(gf.sigma[origin])  # rho = 0 there
            assert gf.arctan_sigma[origin] == pytest.approx(limit)

    def test_gradient_cap(self):
        n = 64
        cl = corpus.clifford_lift(n)
        gf = gl.gauge_fields(cl, center_vertex(cl, n))
        cap = gl.gradient_cap_defects(gf)
        band = gf.face_ok & (gf.face_r > 0.05) & (gf.face_r < 0.5)
        h_slack = 2 * np.pi / n
        assert np.nanmax(cap[band]) <= h_slack

    def test_weight_bounds_pointwise(self):
        for imm, p0 in (
            (corpus.flat_patch(32, center=True), np.zeros(5)),
            (corpus.clifford_lift(32), None),
        ):
            if p0 is None:
                p0 = center_vertex(imm, 32)
            gf = gl.gauge_fields(imm, p0)
            sig = np.where(np.isnan(gf.sigma), np.inf, gf.sigma)
            w = gl.sigma_weight(sig[~gf.singular])
            assert np.all(w >= 1.0 - 1e-12)
            assert np.all(w <= np.pi / 2 + 1e-12)


class TestHamiltonianArctan:
    def test_support_shell(self):
        n = 32
        cl = corpus.clifford_lift(n)
        p0 = center_vertex(cl, n)
        spec = gl.hamiltonian_arctan(cl.target, p0, 0.3, 0.05)
        gf = gl.gauge_fields(cl, p0)
        h = spec.h(cl.positions)
        outside = gf.r > 2 * 0.3 + 1e-9
        assert np.abs(h[outside]).max() == 0.0
        inside_core = gf.r < 0.05 * (1 - 1e-9)
        assert np.abs(h[inside_core]).max() == 0.0

    def test_arctan_limits_on_the_reeb_axis(self):
        # rho = 0 and r = sqrt(2 |phi|) = 0.2 inside the band, where h = arctan sigma
        spec = gl.hamiltonian_arctan("heisenberg", np.zeros(5), 0.3, 0.05)
        points = np.zeros((2, 5))
        points[:, 0] = [0.02, -0.02]
        assert spec.h(points) == pytest.approx([np.pi / 2, -np.pi / 2])

    def test_value_formula_midband(self):
        # at r = 1.5 eta the outer cut-off is 1, so h = (1 - chi(1.5)) arctan sigma
        fp = corpus.flat_patch(64, center=True)
        p0 = np.zeros(5)
        p0[0] = 1e-3  # lift the base point so sigma is nontrivial
        eta, r0 = 0.1, 0.4
        spec = gl.hamiltonian_arctan(fp.target, p0, r0, eta)
        gf = gl.gauge_fields(fp, p0)
        sel = np.abs(gf.r - 1.5 * eta) < 5e-3
        expected = (1.0 - gl.chi(gf.r[sel] / eta)) * gf.arctan_sigma[sel]
        assert np.allclose(spec.h(fp.positions)[sel], expected, atol=1e-12)

    def test_gradient_matches_fd(self):
        n = 32
        cl = corpus.clifford_lift(n)
        p0 = center_vertex(cl, n)
        spec = gl.hamiltonian_arctan(cl.target, p0, 0.3, 0.05)
        rng = np.random.default_rng(0)
        gf = gl.gauge_fields(cl, p0)
        candidates = np.where((gf.r > 0.1) & (gf.r < 0.5))[0]
        for v in candidates[:5]:
            q = cl.positions[v]
            g = spec.grad(q[None])[0]
            for step_dir in range(5):
                e = np.zeros(5)
                e[step_dir] = 1e-6
                fd = (spec.h((q + e)[None])[0] - spec.h((q - e)[None])[0]) / 2e-6
                assert fd == pytest.approx(g[step_dir], abs=1e-6 + 1e-4 * abs(g[step_dir]))

    def test_invalid_shell_rejected(self):
        with pytest.raises(GeometryDomainError):
            gl.hamiltonian_arctan("heisenberg", np.zeros(5), 0.1, 0.2)


class TestMonotonicityBalance:
    def test_flat_patch_residual_decays(self):
        p0 = np.zeros(5)
        residuals = []
        ns = [64, 128, 256]
        for n in ns:
            fp = corpus.flat_patch(n, extent=1.6, center=True)
            rep = gl.monotonicity_balance(fp, p0, r0=0.3, eta=0.05)
            residuals.append(rep.residual)
        slope = fit_loglog_slope(1.0 / np.asarray(ns), residuals)
        assert slope >= 0.8
        assert np.isfinite(residuals[-1])

    def test_fourteen_slots_present(self):
        fp = corpus.flat_patch(64, extent=1.6, center=True)
        rep = gl.monotonicity_balance(fp, np.zeros(5), r0=0.3, eta=0.05)
        assert len(rep.lhs_terms) == 6 and len(rep.rhs_terms) == 6
        assert len(rep.bookkeeping) == 3  # order-1 band plus the two order-r rings
        # 12 exact slots + 2 bookkeeping scales = the displayed integral count
        assert rep.annulus_faces >= 100

    def test_flat_ring_integrals_hit_two_pi(self):
        fp = corpus.flat_patch(256, extent=1.6, center=True)
        rep = gl.monotonicity_balance(fp, np.zeros(5), r0=0.3, eta=0.05)
        assert rep.lhs_terms["ring_r_grad"] == pytest.approx(2 * np.pi, rel=1e-3)
        assert rep.rhs_terms["ring_eta_grad"] == pytest.approx(2 * np.pi, rel=2e-2)

    def test_under_resolved_annulus_rejected(self):
        fp = corpus.flat_patch(8, extent=1.6, center=True)
        with pytest.raises(ResolutionError):
            gl.monotonicity_balance(fp, np.zeros(5), r0=0.3, eta=0.05)

    def test_perp_gradient_identity(self):
        n = 64
        cl = corpus.clifford_lift(n)
        gf = gl.gauge_fields(cl, center_vertex(cl, n))
        pg = gl.perp_gradient_identity_defects_vertex(gf)
        band = (~gf.singular) & (gf.r > 0.05) & (gf.r < 0.3)
        c_fit = np.nanmax(pg[band] / (1.0 + gf.r[band]))
        assert np.isfinite(c_fit) and c_fit < 5.0

    def test_horizontal_gradient_identity(self):
        n = 64
        stt = corpus.clifford_lift(n, target="stiefel")
        gf = gl.gauge_fields(stt, center_vertex(stt, n))
        hd = gl.horizontal_gradient_defects(gf)
        band = (~gf.singular) & (gf.r > 0.05) & (gf.r < 0.3)
        c = float(np.sum(np.abs(hd[band]) * gf.r[band] ** 2) / np.sum(gf.r[band] ** 4))
        assert 0 < c < 1.0


class TestDensity:
    def test_flat_patch_pi(self):
        fp = corpus.flat_patch(256, center=True)
        dc = gl.density_curve(gl.gauge_fields(fp, np.zeros(5)), [0.05, 0.075, 0.1])
        assert np.all(np.abs(dc.ratios / np.pi - 1.0) < 0.02)
        assert np.all(dc.counts == 1)

    def test_double_sheet_two_pi(self):
        ds = corpus.double_sheet(128)
        dc = gl.density_curve(gl.gauge_fields(ds, np.zeros(5)), [0.05, 0.075, 0.1])
        assert np.all(np.abs(dc.ratios / (2 * np.pi) - 1.0) < 0.03)
        assert np.all(dc.counts == 2)

    def test_theta0_both_kernels(self):
        gf_flat = gl.gauge_fields(corpus.flat_patch(256, center=True), np.zeros(5))
        gf_dbl = gl.gauge_fields(corpus.double_sheet(128), np.zeros(5))
        for a, b in gl.DEFAULT_KERNELS.values():
            k = gl.polynomial_kernel(a, b)
            _, mult, dist, _ = gl.theta0_estimate(gf_flat, kernel=k)
            assert abs(mult - 1.0) < 0.03
            _, mult2, _, _ = gl.theta0_estimate(gf_dbl, kernel=k)
            assert abs(mult2 - 2.0) < 0.03

    def test_kernel_normalisation(self):
        for a, b in gl.DEFAULT_KERNELS.values():
            k = gl.polynomial_kernel(a, b)
            ts = np.linspace(0, 2.5, 20001)
            integral = np.trapezoid(k(ts), ts)
            assert integral == pytest.approx(1.0, abs=1e-6)

    def test_small_radii_excluded_with_warning(self):
        fp = corpus.flat_patch(16, center=True)
        dc = gl.density_curve(gl.gauge_fields(fp, np.zeros(5)), [0.5, 0.01])
        assert 0.01 in dc.excluded
        assert len(dc.radii) == 1

    @pytest.mark.parametrize("radii,min_radius", [
        ([0.0], 0.0), ([-0.1, 0.2], -1.0), ([0.5, float("nan")], 0.0), ([0.5], -1e-3),
    ])
    def test_nonpositive_radius_or_cut_rejected(self, radii, min_radius):
        gf = gl.gauge_fields(corpus.flat_patch(16, center=True), np.zeros(5))
        with pytest.raises(GeometryDomainError, match=r"need radii > 0, min_radius >= 0"):
            gl.density_curve(gf, radii, min_radius=min_radius)

    def test_sublevel_clipping_exact_for_linear(self):
        # single reference triangle, linear field: closed-form areas
        r_vals = np.array([[0.0, 1.0, 2.0]])
        assert gl.tri_sublevel_fraction(r_vals, 2.5)[0] == 1.0
        assert gl.tri_sublevel_fraction(r_vals, 0.5)[0] == pytest.approx(0.125)
        assert gl.tri_sublevel_fraction(r_vals, 1.5)[0] == pytest.approx(1 - 0.125)

    def test_sublevel_corner_order_is_the_sorted_one(self):
        # The min/max network picks the floats np.sort picks, ties included,
        # so every corner order of a row clips like its sorted row, bit for bit.
        rng = np.random.default_rng(4)
        rows = np.concatenate([rng.integers(0, 3, size=(200, 3)).astype(float),
                               rng.uniform(0.0, 3.0, size=(200, 3))])
        want = {s: gl.tri_sublevel_fraction(np.sort(rows, axis=-1), s)
                for s in (0.0, 0.5, 1.0, 1.7, 2.0, 3.0)}
        for order in itertools.permutations(range(3)):
            for s, frac in want.items():
                assert np.array_equal(gl.tri_sublevel_fraction(rows[:, order], s), frac)


class TestQuasiMonotonicity:
    def test_two_sided_constant_stable(self):
        radii = [0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]
        cs = {}
        for n in (64, 128):
            cl = corpus.clifford_lift(n)
            dc = gl.density_curve(
                gl.gauge_fields(cl, center_vertex(cl, n)), radii, min_radius=2 * 2 * np.pi / n
            )
            cemp = 0.0
            for i, s in enumerate(dc.radii):
                for j, r in enumerate(dc.radii):
                    if 2 * s < r:
                        cemp = max(cemp, dc.ratios[i] / dc.ratios[j])
            cs[n] = cemp
            large = dc.ratios[np.argmax(dc.radii)]
            assert np.max(dc.ratios) <= 3.0 * large
        assert cs[64] > 0 and cs[128] > 0
        assert abs(cs[64] - cs[128]) <= 0.10 * max(cs[64], cs[128])


class TestReebRotationInvariance:
    def test_lab_outputs_invariant(self, monkeypatch):
        n = 32
        stt = corpus.clifford_lift(n, target="stiefel")
        p0 = center_vertex(stt, n)
        theta = 0.7
        a, b = ref.reeb_rotate_raw(stt.positions[:, :4], stt.positions[:, 4:], theta)
        rotated = stt.with_positions(np.concatenate([a, b], axis=-1))
        p0r = np.concatenate(
            ref.reeb_rotate_raw(p0[None, :4], p0[None, 4:], theta), axis=-1
        )[0]
        gf0 = gl.gauge_fields(stt, p0)
        gf1 = gl.gauge_fields(rotated, p0r)
        assert np.allclose(gf0.r, gf1.r, atol=1e-10)
        assert np.allclose(gf0.phi, gf1.phi, atol=1e-10)
        d0 = gl.density_curve(gf0, [0.3, 0.4], min_radius=0.1)
        d1 = gl.density_curve(gf1, [0.3, 0.4], min_radius=0.1)
        assert np.allclose(d0.ratios, d1.ratios, atol=1e-10)
        monkeypatch.setattr(gl, "MIN_ANNULUS_FACES", 50)  # n=32 puts 54 faces in the annulus
        r0 = gl.monotonicity_balance(stt, p0, 0.3, 0.08)
        r1 = gl.monotonicity_balance(rotated, p0r, 0.3, 0.08)
        for key in r0.lhs_terms:
            assert r0.lhs_terms[key] == pytest.approx(r1.lhs_terms[key], abs=1e-10)
        for key in r0.rhs_terms:
            assert r0.rhs_terms[key] == pytest.approx(r1.rhs_terms[key], abs=1e-10)


class TestBalanceAssembly:
    @pytest.mark.parametrize("n", [48, 64])
    def test_pairing_slot_uses_the_arctan_hamiltonian(self, n):
        # The balance takes h from its gauge fields; about the centre of the
        # lifted torus that is bitwise hamiltonian_arctan's h.  The balance
        # sums over its gauge ball of radius 2 r0 with the one-ring, and so
        # does the expected value.
        from legsurf.immersion import mean_curvature_one_form

        cl = corpus.clifford_lift(n)
        p0 = center_vertex(cl, n)
        rep = gl.monotonicity_balance(cl, p0, r0=0.3, eta=0.08)
        ball = gl.gauge_ball(cl, p0, 2 * 0.3, star=True)
        gf = gl.gauge_fields(ball, p0)
        fd = gf.imm.face_data
        h = gl.hamiltonian_arctan(cl.target, p0, 0.3, 0.08).h(ball.positions)
        dh = fd.grad_scalar(np.where(gf.singular, 0.0, h))
        dbeta = gl._face_one_form(ball, 0.5 * mean_curvature_one_form(ball).gamma)
        area = np.where(gf.face_ok, fd.area, 0.0)
        expected = float(np.sum(np.where(gf.face_ok, fd.pairing(dh, dbeta), 0.0) * area))
        assert rep.lhs_terms["dh_dbeta"] == expected

    def test_pairing_slot_matches_assembly_on_clifford(self):
        # The dh.dbeta slot must match the rest of the truncated assembly;
        # the mismatch is quadrature error and shrinks under refinement.
        residuals = {}
        for n in (64, 128):
            cl = corpus.clifford_lift(n)
            p0 = center_vertex(cl, n)
            rep = gl.monotonicity_balance(cl, p0, r0=0.3, eta=0.08)
            lhs_rest = rep.lhs_total() - rep.lhs_terms["dh_dbeta"]
            assembled = rep.rhs_total() - lhs_rest
            direct = rep.lhs_terms["dh_dbeta"]
            scale = max(abs(rep.lhs_total()), abs(rep.rhs_total()))
            residuals[n] = abs(direct - assembled) / scale
        assert residuals[128] < residuals[64]
        assert residuals[128] < 0.2
