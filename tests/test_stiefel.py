"""Pointwise identities of the frame-pair contact geometry, on the batched kernels."""

import numpy as np
import pytest

import reference_loops as ref
from legsurf import checks
from legsurf import stiefel as st
from legsurf.errors import DegenerateFrameError

E = np.eye(4)
Z = np.zeros(4)
A0, B0 = E[0], E[1]  # the base frame (e1, e2)


def sq_norm(v, w):
    return np.sum(v * v + w * w, axis=-1)


class TestContactForm:
    def test_reeb_pairing_is_minus_two(self):
        assert st.alpha_raw(A0, B0, E[1], -E[0]) == pytest.approx(-2.0, abs=1e-15)

    def test_horizontal_vector_vanishes(self):
        assert st.alpha_raw(A0, B0, E[2], Z) == 0.0

    def test_rotated_horizontal_vector_vanishes(self):
        theta = np.pi / 3
        # Direct evaluation of a.W - b.V: both dot products are zero.
        val = st.alpha_raw(A0, B0, np.cos(theta) * E[2], np.sin(theta) * E[3])
        assert val == pytest.approx(0.0, abs=1e-15)


class TestReeb:
    def test_definition(self):
        rv, rw = st.reeb_raw(A0, B0)
        assert np.allclose(rv, E[1]) and np.allclose(rw, -E[0])

    def test_alpha_of_reeb_any_point(self):
        rng = np.random.default_rng(3)
        a, b = st.random_points_raw(rng, 50)
        assert np.max(np.abs(st.alpha_raw(a, b, *st.reeb_raw(a, b)) + 2.0)) <= 1e-12

    def test_tangency_exact(self):
        rng = np.random.default_rng(4)
        a, b = st.random_points_raw(rng, 1)
        rv, rw = st.reeb_raw(a, b)
        assert st.tangency_defect(a, b, rv, rw)[0] < 1e-14
        assert np.sqrt(sq_norm(rv, rw)[0]) == pytest.approx(np.sqrt(2.0), abs=1e-12)


class TestHorizontalProject:
    def test_kills_reeb(self):
        rng = np.random.default_rng(5)
        a, b = st.random_points_raw(rng, 1)
        hv, hw = st.horizontal_raw(a, b, *st.reeb_raw(a, b))
        assert np.sqrt(sq_norm(hv, hw)[0]) < 1e-14

    def test_idempotent_on_horizontal(self):
        hv, hw = st.horizontal_raw(A0, B0, E[2], E[3])
        assert np.allclose(hv, E[2]) and np.allclose(hw, E[3])

    def test_result_is_horizontal(self):
        rng = np.random.default_rng(6)
        a, b = st.random_points_raw(rng, 20)
        hv, hw = st.horizontal_raw(
            a, b, rng.standard_normal((20, 4)), rng.standard_normal((20, 4))
        )
        assert np.max(np.abs(st.alpha_raw(a, b, hv, hw))) < 1e-12


class TestTransverseComplexStructure:
    def test_defining_formula(self):
        jv, jw = st.jh_raw(E[2], Z)
        assert np.allclose(jv, 0.0) and np.allclose(jw, E[2])

    def test_involution_and_isometry_random(self):
        rng = np.random.default_rng(7)
        a, b = st.random_points_raw(rng, 10_000)
        v, w = st.random_horizontal_raw(rng, a, b)
        jv, jw = st.jh_raw(v, w)
        jjv, jjw = st.jh_raw(jv, jw)
        assert np.max(np.abs(jjv + v)) < 1e-12
        assert np.max(np.abs(jjw + w)) < 1e-12
        assert np.max(np.abs(sq_norm(jv, jw) - sq_norm(v, w))) < 1e-12

    def test_example_pair(self):
        jv, jw = st.jh_raw(E[2], E[3])
        assert np.allclose(jv, -E[3]) and np.allclose(jw, E[2])
        assert np.sqrt(sq_norm(jv, jw)) == pytest.approx(np.sqrt(2.0), abs=1e-14)


class TestHopf:
    def test_project_example(self):
        g_plus, g_minus = st.hopf_project_raw(A0, B0)
        e12 = st.wedge4(E[0], E[1])
        e34 = st.wedge4(E[2], E[3])
        assert np.allclose(g_plus, (e12 + e34) / np.sqrt(2.0), atol=1e-14)
        assert np.allclose(g_minus, (e12 - e34) / np.sqrt(2.0), atol=1e-14)

    def test_push_isometry_random(self):
        rng = np.random.default_rng(8)
        a, b = st.random_points_raw(rng, 200)
        v, w = st.random_horizontal_raw(rng, a, b)
        plus, minus = st.hopf_push_raw(a, b, v, w)
        pushed = np.sum(plus**2, axis=-1) + np.sum(minus**2, axis=-1)
        ratios = np.sqrt(pushed) / np.sqrt(sq_norm(v, w))
        assert np.max(np.abs(ratios - 1.0)) < 1e-10

    def test_push_intertwines_complex_structures(self):
        plus_j, minus_j = st.hopf_push_raw(A0, B0, *st.jh_raw(E[2], Z))
        jplus, jminus = ref.sphere_product_j_raw(
            *st.hopf_project_raw(A0, B0), *st.hopf_push_raw(A0, B0, E[2], Z)
        )
        assert np.allclose(plus_j, jplus, atol=1e-12)
        assert np.allclose(minus_j, jminus, atol=1e-12)

    def test_push_intertwines_random(self):
        rng = np.random.default_rng(9)
        a, b = st.random_points_raw(rng, 100)
        v, w = st.random_horizontal_raw(rng, a, b)
        plus_j, minus_j = st.hopf_push_raw(a, b, *st.jh_raw(v, w))
        jplus, jminus = ref.sphere_product_j_raw(
            *st.hopf_project_raw(a, b), *st.hopf_push_raw(a, b, v, w)
        )
        assert np.allclose(plus_j, jplus, atol=1e-10)
        assert np.allclose(minus_j, jminus, atol=1e-10)


class TestCovariantReeb:
    def test_example(self):
        dv, dw = st.covariant_reeb_raw(E[2], Z)
        assert np.allclose(dv, 0.0) and np.allclose(dw, -E[2])

    def test_orthogonal_to_input(self):
        rng = np.random.default_rng(10)
        a, b = st.random_points_raw(rng, 100)
        v, w = st.random_horizontal_raw(rng, a, b)
        dv, dw = st.covariant_reeb_raw(v, w)
        assert np.max(np.abs(np.sum(v * dv + w * dw, axis=-1))) < 1e-12

    def test_equals_minus_jh(self):
        rng = np.random.default_rng(11)
        a, b = st.random_points_raw(rng, 1)
        v, w = st.random_horizontal_raw(rng, a, b)
        dv, dw = st.covariant_reeb_raw(v, w)
        jv, jw = st.jh_raw(v, w)
        assert np.allclose(dv, -jv) and np.allclose(dw, -jw)

    def test_divergence_over_legendrian_planes(self):
        rng = np.random.default_rng(12)
        _, _, e1, e2 = _random_legendrian_planes(rng, 50)
        # div of the Reeb field along span(e1, e2): sum of <e, nabla_e R>.
        div = sum(np.sum(ev * dv + ew * dw, axis=-1)
                  for ev, ew in (e1, e2) for dv, dw in [st.covariant_reeb_raw(ev, ew)])
        assert np.max(np.abs(div)) < 1e-12

    def test_broken_kernel_fails_the_check(self, monkeypatch):
        rng = np.random.default_rng(13)
        assert checks.check_covariant_reeb(rng, n=100).passed
        monkeypatch.setattr(st, "covariant_reeb_raw", lambda v, w: (-np.asarray(w), v))
        assert not checks.check_covariant_reeb(rng, n=100).passed


class TestGauge:
    def test_same_point(self):
        rho, phi, r = st.gauge_scalars(A0, B0, A0, B0)
        assert (rho, phi, r) == (0.0, 0.0, 0.0)

    def test_reeb_quarter_turn(self):
        a, b = ref.reeb_rotate_raw(A0, B0, np.pi / 2)
        rho, phi, r = st.gauge_scalars(A0, B0, a, b)
        assert rho**2 == pytest.approx(4.0, abs=1e-12)
        assert phi == pytest.approx(2.0, abs=1e-12)
        assert r**4 == pytest.approx(32.0, abs=1e-10)
        assert 2.0 * phi / rho**2 == pytest.approx(1.0, abs=1e-12)  # sigma

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        a1, b1 = st.random_points_raw(rng, 200)
        a2, b2 = st.random_points_raw(rng, 200)
        _, _, r12 = st.gauge_scalars(a1, b1, a2, b2)
        _, _, r21 = st.gauge_scalars(a2, b2, a1, b1)
        assert np.max(np.abs(r12 - r21)) <= 1e-12

    def test_quasi_triangle_constant(self):
        rng = np.random.default_rng(14)
        n = 50_000
        # Global triples plus clustered ones; the local regime stresses the constant.
        a1, b1 = st.random_points_raw(rng, n)
        a2, b2 = st.random_points_raw(rng, n)
        a3, b3 = st.random_points_raw(rng, n)
        scale = rng.uniform(1e-3, 0.3, size=(n, 1))
        ac, bc = st.retract_raw(a1 + scale * rng.standard_normal((n, 4)),
                                b1 + scale * rng.standard_normal((n, 4)))
        ad, bd = st.retract_raw(a1 + scale * rng.standard_normal((n, 4)),
                                b1 + scale * rng.standard_normal((n, 4)))
        p1 = np.concatenate([a1, a1]), np.concatenate([b1, b1])
        p2 = np.concatenate([a2, ac]), np.concatenate([b2, bc])
        p3 = np.concatenate([a3, ad]), np.concatenate([b3, bd])
        _, _, r12 = st.gauge_scalars(p1[0], p1[1], p2[0], p2[1])
        _, _, r13 = st.gauge_scalars(p1[0], p1[1], p3[0], p3[1])
        _, _, r23 = st.gauge_scalars(p2[0], p2[1], p3[0], p3[1])
        c0 = np.max(r12 / (r13 + r23))
        # Empirical smallest constant for the quasi triangle inequality.
        assert 0.0 < c0 < 10.0


class TestRetract:
    def test_idempotent(self):
        rng = np.random.default_rng(15)
        a, b = st.random_points_raw(rng, 1)
        qa, qb = st.retract_raw(a, b)
        assert np.max(np.abs(qa - a)) < 1e-14
        assert np.max(np.abs(qb - b)) < 1e-14

    def test_pure_rescaling(self):
        qa, qb = st.retract_raw(2 * E[0], 3 * E[1])
        assert np.allclose(qa, E[0]) and np.allclose(qb, E[1])

    def test_against_gram_eigen_oracle(self):
        rng = np.random.default_rng(16)
        a_raw = rng.standard_normal((50, 4))
        b_raw = rng.standard_normal((50, 4))
        qa, qb = st.retract_raw(a_raw, b_raw)
        oa, ob = _polar_oracle(a_raw, b_raw)
        assert np.max(np.abs(qa - oa)) < 1e-10
        assert np.max(np.abs(qb - ob)) < 1e-10

    def test_specific_shear(self):
        qa, qb = st.retract_raw(E[0] + 0.1 * E[1], E[1])
        oa, ob = _polar_oracle(E[0] + 0.1 * E[1], E[1])
        assert np.max(np.abs(qa - oa)) < 1e-10
        assert np.max(np.abs(qb - ob)) < 1e-10

    def test_rank_deficient_rejected(self):
        with pytest.raises(DegenerateFrameError):
            st.retract_raw(E[0], 2 * E[0])


class TestExteriorDerivative:
    def test_fd_matches_algebraic(self):
        rng = np.random.default_rng(17)
        a, b = st.random_points_raw(rng, 500)
        xv, xw = st.random_horizontal_raw(rng, a, b)
        yv, yw = st.random_horizontal_raw(rng, a, b)
        fd = st.d_alpha_fd_batch(a, b, xv, xw, yv, yw)
        exact = st.d_alpha_raw(xv, xw, yv, yw)
        assert np.max(np.abs(fd - exact)) < 1e-5

    def test_volume_form_sign_constant(self):
        rng = np.random.default_rng(18)
        a, b, e1, e2 = _random_legendrian_planes(rng, 300)
        vals = st.volume_sign_fast(a, b, *e1, *e2)
        assert np.all(vals < 0) or np.all(vals > 0)

    def test_volume_form_collapse_matches_full_antisymmetrisation(self):
        rng = np.random.default_rng(19)
        a, b, e1, e2 = _random_legendrian_planes(rng, 5)
        # The five vectors (R, e1, J e1, e2, J e2), stacked on axis 1.
        vecs = [st.reeb_raw(a, b), e1, st.jh_raw(*e1), e2, st.jh_raw(*e2)]
        v = np.stack([x[0] for x in vecs], axis=1)
        w = np.stack([x[1] for x in vecs], axis=1)
        al = st.alpha_raw(a[:, None], b[:, None], v, w)
        dal = st.d_alpha_raw(v[:, :, None], w[:, :, None], v[:, None, :], w[:, None, :])
        full = checks.alpha_dalpha_dalpha(al, dal)
        fast = st.volume_sign_fast(a, b, *e1, *e2)
        assert full == pytest.approx(fast, rel=1e-10)


def _random_legendrian_planes(rng, n):
    """Frames with orthonormal horizontal pairs (e1, e2), e2 also normal to J e1.

    Draws n frames and drops the few where e2 nearly lies in span(e1, J e1).
    """
    a, b = st.random_points_raw(rng, n)
    e1v, e1w = st.random_horizontal_raw(rng, a, b)
    nrm = np.sqrt(sq_norm(e1v, e1w))[:, None]
    e1v, e1w = e1v / nrm, e1w / nrm
    e2v, e2w = st.random_horizontal_raw(rng, a, b)
    for bv, bw in ((e1v, e1w), st.jh_raw(e1v, e1w)):
        coef = (np.sum(e2v * bv + e2w * bw, axis=-1) / sq_norm(bv, bw))[:, None]
        e2v, e2w = e2v - coef * bv, e2w - coef * bw
    nrm2 = np.sqrt(sq_norm(e2v, e2w))[:, None]
    keep = nrm2[:, 0] > 1e-3
    e2v, e2w = e2v / nrm2, e2w / nrm2
    return a[keep], b[keep], (e1v[keep], e1w[keep]), (e2v[keep], e2w[keep])


def _polar_oracle(a_raw, b_raw):
    """Independent polar decomposition through the 2x2 Gram matrix eigensystem."""
    m = np.stack([a_raw, b_raw], axis=-1)
    gram = np.swapaxes(m, -1, -2) @ m
    evals, evecs = np.linalg.eigh(gram)
    inv_sqrt = evecs @ (evals[..., None] ** -0.5 * np.swapaxes(evecs, -1, -2))
    q = m @ inv_sqrt
    return q[..., 0], q[..., 1]
