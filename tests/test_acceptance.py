"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every tolerance below is pinned; the suite is the exit gate of the package.
"""

import json
import subprocess
import sys
import time

import numpy as np

from legsurf import checks, corpus, energy, fields, gauge_lab as gl, immersion
from legsurf import stiefel as st
from legsurf.checks import fit_loglog_slope
from legsurf.fields import STIEFEL


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} [{status}] {detail}")
    assert passed, f"criterion {criterion}: {detail}"


class TestCriterion1AlgebraicIdentities:
    def test_identity_suite(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        n = 10_000
        q = checks.random_frames(rng, n)
        err_reeb = float(np.max(np.abs(STIEFEL.alpha(q, STIEFEL.reeb(q)) + 2.0)))

        x = checks.random_horizontal(rng, q)
        jx = STIEFEL.j(x)
        a, b, v, w, jv, jw = q[:, :4], q[:, 4:], x[:, :4], x[:, 4:], jx[:, :4], jx[:, 4:]
        err_invol = float(np.max(np.abs(STIEFEL.j(jx) + x)))
        err_isom = float(
            np.max(
                np.abs(
                    np.sum(jv * jv + jw * jw, axis=-1) - np.sum(v * v + w * w, axis=-1)
                )
            )
        )

        xi = st.wedge4(v, b) + st.wedge4(a, w)
        sxi = st.hodge_star(xi)
        pushed = (np.sum((xi + sxi) ** 2, axis=-1) + np.sum((xi - sxi) ** 2, axis=-1)) / 4.0
        err_hopf = float(np.max(np.abs(pushed - np.sum(v * v + w * w, axis=-1))))

        y = checks.random_horizontal(rng, q)
        fd = checks.d_alpha_fd_batch(q, x, y)
        err_dalpha = float(np.max(np.abs(fd - st.d_alpha_pairs(v, w, y[:, :4], y[:, 4:]))))

        # covariant derivative of the Reeb field along horizontal Z, reeb(Z), vs -J_H Z
        err_cova = float(np.max(np.abs(STIEFEL.reeb(x) + jx)))
        elapsed = time.perf_counter() - t0
        ok = (
            err_reeb <= 1e-12
            and err_invol <= 1e-12
            and err_isom <= 1e-12
            and err_hopf <= 1e-10
            and err_dalpha <= 1e-5
            and err_cova <= 1e-12
            and elapsed < 10.0
        )
        report(
            1,
            ok,
            f"alpha(R)+2: {err_reeb:.1e}, J^2+Id: {err_invol:.1e}, isometry: "
            f"{err_isom:.1e}, hopf: {err_hopf:.1e}, dalpha fd: {err_dalpha:.1e}, "
            f"cova reeb: {err_cova:.1e}, {elapsed:.1f}s < 10s",
        )


class TestCriterion2Contactomorphism:
    def test_lie_derivative_and_slopes(self):
        t0 = time.perf_counter()
        worst = {}
        for target in (fields.TARGET_HEISENBERG, fields.TARGET_STIEFEL):
            for convention in ("thm1", "sec231"):
                rng = np.random.default_rng(7)
                vals = checks.hamiltonian_lie_defects(
                    target, rng, n_cases=100, convention=convention
                )
                worst[(target, convention)] = float(np.max(vals))
        rng = np.random.default_rng(11)
        ham_h, gen_h = checks.flow_order_slopes(fields.TARGET_HEISENBERG, rng, n_cases=6)
        ham_s, gen_s = checks.flow_order_slopes(fields.TARGET_STIEFEL, rng, n_cases=6)
        elapsed = time.perf_counter() - t0
        lie_ok = all(v <= 1e-4 for v in worst.values())
        slope_ok = (
            min(ham_h.min(), ham_s.min()) >= 1.9
            and max(gen_h.max(), gen_s.max()) <= 1.2
        )
        ok = lie_ok and slope_ok and elapsed < 30.0
        report(
            2,
            ok,
            f"lie defects max {max(worst.values()):.2e} <= 1e-4 (both targets, both "
            f"conventions); hamiltonian slopes >= {min(ham_h.min(), ham_s.min()):.2f}, "
            f"generic slopes <= {max(gen_h.max(), gen_s.max()):.2f}, {elapsed:.1f}s < 30s",
        )


class TestCriterion3GradientCorrectness:
    def test_richardson_check(self):
        t0 = time.perf_counter()
        rel_errs = []
        for case in range(4):
            pc = corpus.perturbed_clifford(32, amplitude=2e-2, seed=case)
            asm = energy.EnergyAssembler(pc)
            rng = np.random.default_rng(100 + case)
            for _ in range(5):
                w = pc.geometry.tangent(pc.positions, rng.standard_normal(pc.positions.shape))
                analytic = asm.first_variation(pc, 0.25, w)

                def central(t):
                    ep = asm.energy(pc.with_positions(pc.positions + t * w), 0.25).total
                    em = asm.energy(pc.with_positions(pc.positions - t * w), 0.25).total
                    return (ep - em) / (2 * t)

                # Steps sized for rough random directions: the quartic
                # penalty terms leave the O(t^2) regime above ~1e-4 here.
                t1, t2 = 1e-4, 1e-5
                d1, d2 = central(t1), central(t2)
                rich = (t1**2 * d2 - t2**2 * d1) / (t1**2 - t2**2)
                rel_errs.append(abs(rich - analytic) / max(abs(analytic), 1e-12))
        elapsed = time.perf_counter() - t0
        ok = max(rel_errs) <= 1e-5 and elapsed < 60.0
        report(
            3,
            ok,
            f"20 cases at n=32, worst relative error {max(rel_errs):.2e} <= 1e-5, "
            f"{elapsed:.1f}s < 60s",
        )


class TestCriterion4CliffordHMinimality:
    def test_refinement_ladder(self):
        # The uniform sampling is so symmetric that several discrete residuals
        # vanish identically; the warp resamples the same continuum torus on a
        # skewed parameter grid, which exposes the genuine consistency orders.
        ns = np.array([16, 32, 64, 128])
        hs_param = 2 * np.pi / ns
        lap_res, weak_res, hopf_max = [], [], []
        area_128 = None
        for n in ns:
            cl = corpus.clifford_lift(int(n), warp=0.35)
            mcf = immersion.mean_curvature_one_form(cl)
            lap_res.append(float(np.abs(mcf.laplace_beta_residual).max()))
            p0 = cl.positions[(n // 2) * n + n // 2]
            spec = gl.smooth_gauge_bump(cl.target, p0, 0.5, tilt=0.4)
            f_vals = -np.cos(cl.mesh.uv[:, 0])  # support sits inside the cut domain
            weak_res.append(
                abs(
                    energy.weak_stationarity_residual(
                        cl, np.ones(cl.mesh.n_vertices), spec, f_vals, lam=0.2
                    )
                )
            )
            hopf_max.append(float(np.abs(immersion.hopf_differential(cl)).max()))
            if n == 128:
                area_128 = float(immersion.FaceData(cl).area.sum())
        slope_lap = fit_loglog_slope(hs_param, lap_res)
        slope_weak = fit_loglog_slope(hs_param, weak_res)
        slope_hopf = fit_loglog_slope(hs_param, hopf_max)
        area_ok = abs(area_128 - 4 * np.pi**2) / (4 * np.pi**2) <= 5e-3
        lap_ok = slope_lap >= 1.0 or lap_res[-1] < 1e-12
        # sampled Lagrangian tori are exactly discretely critical along
        # sampled Hamiltonian fields, so this residual sits at machine floor
        weak_ok = slope_weak >= 1.0 or weak_res[-1] < 1e-12
        hopf_ok = slope_hopf >= 1.0 or hopf_max[-1] < 1e-12
        ok = area_ok and lap_ok and weak_ok and hopf_ok
        weak_note = (
            f"at floor {weak_res[-1]:.1e}"
            if not np.isfinite(slope_weak) or weak_res[-1] < 1e-12
            else f"slope {slope_weak:.2f}"
        )
        report(
            4,
            ok,
            f"laplace-beta slope {slope_lap:.2f} (last {lap_res[-1]:.1e}), "
            f"weak-stationarity {weak_note}, "
            f"area(128) off by {abs(area_128 - 4 * np.pi**2) / (4 * np.pi**2):.2e} <= 5e-3, "
            f"hopf slope {slope_hopf:.2f} (last {hopf_max[-1]:.1e})",
        )


class TestCriterion5DensityQuantization:
    def test_quantized_densities(self):
        fp = corpus.flat_patch(256, center=True)
        ds = corpus.double_sheet(128)
        p0 = np.zeros(5)
        gf_flat, gf_dbl = gl.gauge_fields(fp, p0), gl.gauge_fields(ds, p0)
        flat = gl.density_curve(gf_flat, [0.05, 0.075, 0.1])
        dbl = gl.density_curve(gf_dbl, [0.05, 0.075, 0.1])
        flat_ok = np.all(np.abs(flat.ratios / np.pi - 1.0) <= 0.02)
        dbl_ok = np.all(np.abs(dbl.ratios / (2 * np.pi) - 1.0) <= 0.03)
        theta_ok = True
        details = []
        for name, (ka, kb) in gl.DEFAULT_KERNELS.items():
            kern = gl.polynomial_kernel(ka, kb)
            _, m1, _, _ = gl.theta0_estimate(gf_flat, kernel=kern)
            _, m2, _, _ = gl.theta0_estimate(gf_dbl, kernel=kern)
            theta_ok &= abs(m1 - 1.0) <= 0.03 and abs(m2 - 2.0) <= 0.03
            details.append(f"{name}: {m1:.4f}/{m2:.4f}")
        ok = flat_ok and dbl_ok and theta_ok
        report(
            5,
            ok,
            f"flat ratio/pi in {np.round(flat.ratios / np.pi, 4).tolist()} (2%), doubled "
            f"ratio/2pi in {np.round(dbl.ratios / (2 * np.pi), 4).tolist()} (3%), "
            f"theta0/2pi per kernel {details} (3%)",
        )


class TestCriterion6GaugeStructure:
    def test_fitted_constants_stable(self):
        consts = {}
        for n in (64, 128):
            cl = corpus.clifford_lift(n, target="stiefel")
            p0 = cl.positions[(n // 2) * n + n // 2]
            gf = gl.gauge_fields(cl, p0)
            band_v = (~gf.singular) & (gf.r > 0.05) & (gf.r < 0.3)
            sdv = gl.structure_defects_vertex(gf)
            c_struct = float(
                np.sum(np.abs(sdv[band_v]) * gf.r[band_v] ** 2) / np.sum(gf.r[band_v] ** 4)
            )
            hd = gl.horizontal_gradient_defects(gf)
            c_horiz = float(
                np.sum(np.abs(hd[band_v]) * gf.r[band_v] ** 2) / np.sum(gf.r[band_v] ** 4)
            )
            cap = gl.gradient_cap_defects(gf)
            bandf = gf.face_ok & (gf.face_r > 0.05) & (gf.face_r < 0.5)
            cap_max = float(np.nanmax(cap[bandf]))
            consts[n] = (c_struct, c_horiz, cap_max)

        def stable(x, y, floor=1e-10):
            return abs(x - y) <= 0.20 * max(abs(x), abs(y), floor)

        (s64, h64, c64), (s128, h128, c128) = consts[64], consts[128]
        cap_ok = c64 <= 2 * np.pi / 64 and c128 <= 2 * np.pi / 128
        ok = stable(s64, s128) and stable(h64, h128) and cap_ok
        report(
            6,
            ok,
            f"C_structure {s64:.4f}/{s128:.4f}, C_horizontal {h64:.4f}/{h128:.4f} "
            f"(both within 20%), gradient cap margins {c64:.2f}/{c128:.2f} <= h-slack",
        )


class TestCriterion7QuasiMonotonicity:
    def test_two_sided_bound(self):
        radii = [0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]
        cs = {}
        spikes = {}
        for n in (64, 128):
            cl = corpus.clifford_lift(n)
            p0 = cl.positions[(n // 2) * n + n // 2]
            dc = gl.density_curve(gl.gauge_fields(cl, p0), radii, min_radius=2 * (2 * np.pi / n))
            cemp = 0.0
            for i, s in enumerate(dc.radii):
                for j, r in enumerate(dc.radii):
                    if 2 * s < r <= 0.5:
                        cemp = max(cemp, float(dc.ratios[i] / dc.ratios[j]))
            cs[n] = cemp
            large = dc.ratios[np.argmax(dc.radii)]
            spikes[n] = float(np.max(dc.ratios) / large)
        stable = abs(cs[64] - cs[128]) <= 0.10 * max(cs[64], cs[128])
        ok = stable and all(s <= 3.0 for s in spikes.values()) and all(c > 0 for c in cs.values())
        report(
            7,
            ok,
            f"C_emp {cs[64]:.4f}/{cs[128]:.4f} (within 10%), spike ratios "
            f"{spikes[64]:.3f}/{spikes[128]:.3f} <= 3",
        )


class TestCriterion8DescentBehavior:
    def test_perturbed_clifford_descent(self):
        t0 = time.perf_counter()
        n = 64
        pc = corpus.perturbed_clifford(n, amplitude=1e-2, seed=3)
        reference = energy.energy(corpus.clifford_lift(n), 0.2).total
        result = energy.descend(
            pc, [0.2, 0.1], energy.DescentOptions(max_iters=50)
        )
        elapsed = time.perf_counter() - t0
        totals = [r["area"] + r["penalty"] for r in result.records]
        strictly_decreasing = all(b < a for a, b in zip(totals, totals[1:]))
        recovery = abs(result.stages[0].energy.total - reference)
        max_res = max(r["max_leg_residual"] for r in result.records)
        entropy_reported = all(
            np.isfinite(s.energy.entropy_indicator) for s in result.stages
        ) and len(result.stages) == 2
        ok = (
            strictly_decreasing
            and recovery <= 1e-3
            and max_res <= 10 * pc.legendrian_tol
            and entropy_reported
            and elapsed < 300.0
        )
        report(
            8,
            ok,
            f"{len(totals)} accepted steps strictly decreasing, recovery "
            f"{recovery:.2e} <= 1e-3, max residual {max_res:.2e} <= "
            f"{10 * pc.legendrian_tol:.2e}, entropy per stage "
            f"{[round(float(s.energy.entropy_indicator), 5) for s in result.stages]}, "
            f"{elapsed:.0f}s < 300s",
        )


class TestCriterion9Determinism:
    def test_byte_identical_outputs(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps(
                {
                    "family": "perturbed_clifford",
                    "resolution": 12,
                    "epsilon_schedule": [0.2],
                    "max_iters": 8,
                    "seed": 9,
                }
            )
        )
        blobs = {"trajectory": [], "density": []}
        for run in ("a", "b"):
            out = tmp_path / f"descend_{run}"
            r = subprocess.run(
                [sys.executable, "-m", "legsurf.cli", "descend",
                 "--config", str(config), "--out", str(out)],
                capture_output=True,
            )
            assert r.returncode == 0
            blobs["trajectory"].append((out / "trajectory.jsonl").read_bytes())
            out2 = tmp_path / f"density_{run}"
            r = subprocess.run(
                [sys.executable, "-m", "legsurf.cli", "density", "--family",
                 "flat_patch", "--resolution", "64", "--seed", "9",
                 "--out", str(out2)],
                capture_output=True,
            )
            assert r.returncode == 0
            blobs["density"].append((out2 / "density.csv").read_bytes())
        ok = (
            blobs["trajectory"][0] == blobs["trajectory"][1]
            and blobs["density"][0] == blobs["density"][1]
        )
        report(9, ok, "JSONL and CSV outputs byte-identical across seeded reruns")
