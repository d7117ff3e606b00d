"""Pointwise identities of the frame-pair contact geometry, on the ``FrameTarget``
methods and the pair-shaped Hopf, d alpha and gauge kernels."""

import numpy as np
import pytest

import reference_loops as ref
from legsurf import checks
from legsurf import stiefel as st
from legsurf.errors import DegenerateFrameError
from legsurf.fields import STIEFEL, FrameTarget

E = np.eye(4)
Z = np.zeros(4)
A0, B0 = E[0], E[1]
Q0 = np.concatenate([A0, B0])  # the base frame (e1, e2)


def vec(v, w):
    """The stacked R^8 vector of the pair (v, w)."""
    return np.concatenate([v, w], axis=-1)


def halves(x):
    return x[..., :4], x[..., 4:]


def sq_norm(x):
    v, w = halves(x)
    return np.sum(v * v + w * w, axis=-1)


def retract(a, b):
    return STIEFEL.move(vec(a, b), 0.0)


class TestContactForm:
    def test_reeb_pairing_is_minus_two(self):
        assert STIEFEL.alpha(Q0, vec(E[1], -E[0])) == pytest.approx(-2.0, abs=1e-15)

    def test_horizontal_vector_vanishes(self):
        assert STIEFEL.alpha(Q0, vec(E[2], Z)) == 0.0

    def test_rotated_horizontal_vector_vanishes(self):
        theta = np.pi / 3
        # Direct evaluation of a.W - b.V: both dot products are zero.
        val = STIEFEL.alpha(Q0, vec(np.cos(theta) * E[2], np.sin(theta) * E[3]))
        assert val == pytest.approx(0.0, abs=1e-15)


class TestReeb:
    def test_definition(self):
        assert np.allclose(STIEFEL.reeb(Q0), vec(E[1], -E[0]))

    def test_alpha_of_reeb_any_point(self):
        rng = np.random.default_rng(3)
        q = checks.random_frames(rng, 50)
        assert np.max(np.abs(STIEFEL.alpha(q, STIEFEL.reeb(q)) + 2.0)) <= 1e-12

    def test_tangency_exact(self):
        rng = np.random.default_rng(4)
        q = checks.random_frames(rng, 1)
        r = STIEFEL.reeb(q)
        assert st.tangency_defect(*halves(q), *halves(r))[0] < 1e-14
        assert np.sqrt(sq_norm(r)[0]) == pytest.approx(np.sqrt(2.0), abs=1e-12)


class TestHorizontalProject:
    def test_kills_reeb(self):
        rng = np.random.default_rng(5)
        q = checks.random_frames(rng, 1)
        assert np.sqrt(sq_norm(STIEFEL.horizontal(q, STIEFEL.reeb(q)))[0]) < 1e-14

    def test_idempotent_on_horizontal(self):
        assert np.allclose(STIEFEL.horizontal(Q0, vec(E[2], E[3])), vec(E[2], E[3]))

    def test_result_is_horizontal(self):
        rng = np.random.default_rng(6)
        q = checks.random_frames(rng, 20)
        h = STIEFEL.horizontal(q, vec(rng.standard_normal((20, 4)), rng.standard_normal((20, 4))))
        assert np.max(np.abs(STIEFEL.alpha(q, h))) < 1e-12


class TestTransverseComplexStructure:
    def test_defining_formula(self):
        assert np.allclose(STIEFEL.j(vec(E[2], Z)), vec(Z, E[2]))

    def test_involution_and_isometry_random(self):
        rng = np.random.default_rng(7)
        x = checks.random_horizontal(rng, checks.random_frames(rng, 10_000))
        jx = STIEFEL.j(x)
        assert np.max(np.abs(STIEFEL.j(jx) + x)) < 1e-12
        assert np.max(np.abs(sq_norm(jx) - sq_norm(x))) < 1e-12

    def test_example_pair(self):
        jx = STIEFEL.j(vec(E[2], E[3]))
        assert np.allclose(jx, vec(-E[3], E[2]))
        assert np.sqrt(sq_norm(jx)) == pytest.approx(np.sqrt(2.0), abs=1e-14)


class TestHopf:
    def test_project_example(self):
        g_plus, g_minus = st.hopf_project_raw(A0, B0)
        e12 = st.wedge4(E[0], E[1])
        e34 = st.wedge4(E[2], E[3])
        assert np.allclose(g_plus, (e12 + e34) / np.sqrt(2.0), atol=1e-14)
        assert np.allclose(g_minus, (e12 - e34) / np.sqrt(2.0), atol=1e-14)

    def test_push_isometry_random(self):
        rng = np.random.default_rng(8)
        q = checks.random_frames(rng, 200)
        x = checks.random_horizontal(rng, q)
        plus, minus = st.hopf_push_raw(*halves(q), *halves(x))
        pushed = np.sum(plus**2, axis=-1) + np.sum(minus**2, axis=-1)
        ratios = np.sqrt(pushed) / np.sqrt(sq_norm(x))
        assert np.max(np.abs(ratios - 1.0)) < 1e-10

    def test_push_intertwines_complex_structures(self):
        plus_j, minus_j = st.hopf_push_raw(A0, B0, *halves(STIEFEL.j(vec(E[2], Z))))
        jplus, jminus = ref.sphere_product_j_raw(
            *st.hopf_project_raw(A0, B0), *st.hopf_push_raw(A0, B0, E[2], Z)
        )
        assert np.allclose(plus_j, jplus, atol=1e-12)
        assert np.allclose(minus_j, jminus, atol=1e-12)

    def test_push_intertwines_random(self):
        rng = np.random.default_rng(9)
        q = checks.random_frames(rng, 100)
        x = checks.random_horizontal(rng, q)
        plus_j, minus_j = st.hopf_push_raw(*halves(q), *halves(STIEFEL.j(x)))
        jplus, jminus = ref.sphere_product_j_raw(
            *st.hopf_project_raw(*halves(q)), *st.hopf_push_raw(*halves(q), *halves(x))
        )
        assert np.allclose(plus_j, jplus, atol=1e-10)
        assert np.allclose(minus_j, jminus, atol=1e-10)


class TestCovariantReeb:
    """R is linear in the frame, so its covariant derivative along a
    horizontal Z is ``reeb(Z)``."""

    def test_example(self):
        assert np.allclose(STIEFEL.reeb(vec(E[2], Z)), vec(Z, -E[2]))

    def test_orthogonal_to_input(self):
        rng = np.random.default_rng(10)
        x = checks.random_horizontal(rng, checks.random_frames(rng, 100))
        assert np.max(np.abs(np.sum(x * STIEFEL.reeb(x), axis=-1))) < 1e-12

    def test_equals_minus_jh(self):
        rng = np.random.default_rng(11)
        x = checks.random_horizontal(rng, checks.random_frames(rng, 1))
        assert np.allclose(STIEFEL.reeb(x), -STIEFEL.j(x))

    def test_divergence_over_legendrian_planes(self):
        rng = np.random.default_rng(12)
        _, e1, e2 = checks.legendrian_planes(rng, 50, 1e-3)
        # div of the Reeb field along span(e1, e2): sum of <e, nabla_e R>.
        div = sum(np.sum(e * STIEFEL.reeb(e), axis=-1) for e in (e1, e2))
        assert np.max(np.abs(div)) < 1e-12

    def test_broken_kernel_fails_the_check(self, monkeypatch):
        rng = np.random.default_rng(13)
        assert checks.check_covariant_reeb(rng, n=100).passed
        # A sign error in the Reeb field or in J, the methods the package runs.
        for name in ("reeb", "j"):
            method = getattr(FrameTarget, name)
            with monkeypatch.context() as patch:
                patch.setattr(FrameTarget, name, lambda self, x, method=method: -method(self, x))
                assert not checks.check_covariant_reeb(rng, n=100).passed


class TestGauge:
    def test_same_point(self):
        rho, phi, r = STIEFEL.gauge_scalars(Q0, Q0)
        assert (rho, phi, r) == (0.0, 0.0, 0.0)

    def test_reeb_quarter_turn(self):
        a, b = ref.reeb_rotate_raw(A0, B0, np.pi / 2)
        rho, phi, r = STIEFEL.gauge_scalars(Q0, vec(a, b))
        assert rho**2 == pytest.approx(4.0, abs=1e-12)
        assert phi == pytest.approx(2.0, abs=1e-12)
        assert r**4 == pytest.approx(32.0, abs=1e-10)
        assert 2.0 * phi / rho**2 == pytest.approx(1.0, abs=1e-12)  # sigma

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        q1, q2 = checks.random_frames(rng, 200), checks.random_frames(rng, 200)
        _, _, r12 = STIEFEL.gauge_scalars(q1, q2)
        _, _, r21 = STIEFEL.gauge_scalars(q2, q1)
        assert np.max(np.abs(r12 - r21)) <= 1e-12

    def test_quasi_triangle_constant(self):
        rng = np.random.default_rng(14)
        n = 50_000
        # Global triples plus clustered ones; the local regime stresses the constant.
        q1, q2, q3 = (checks.random_frames(rng, n) for _ in range(3))
        scale = rng.uniform(1e-3, 0.3, size=(n, 1))
        qc = STIEFEL.move(q1, scale * checks.random_vectors(rng, n))
        qd = STIEFEL.move(q1, scale * checks.random_vectors(rng, n))
        p1, p2, p3 = np.concatenate([q1, q1]), np.concatenate([q2, qc]), np.concatenate([q3, qd])
        _, _, r12 = STIEFEL.gauge_scalars(p1, p2)
        _, _, r13 = STIEFEL.gauge_scalars(p1, p3)
        _, _, r23 = STIEFEL.gauge_scalars(p2, p3)
        c0 = np.max(r12 / (r13 + r23))
        # Empirical smallest constant for the quasi triangle inequality.
        assert 0.0 < c0 < 10.0


class TestRetract:
    def test_idempotent(self):
        rng = np.random.default_rng(15)
        q = checks.random_frames(rng, 1)
        assert np.max(np.abs(STIEFEL.move(q, 0.0) - q)) < 1e-14

    def test_pure_rescaling(self):
        assert np.allclose(retract(2 * E[0], 3 * E[1]), Q0)

    def test_against_gram_eigen_oracle(self):
        rng = np.random.default_rng(16)
        a_raw = rng.standard_normal((50, 4))
        b_raw = rng.standard_normal((50, 4))
        qa, qb = halves(retract(a_raw, b_raw))
        oa, ob = _polar_oracle(a_raw, b_raw)
        assert np.max(np.abs(qa - oa)) < 1e-10
        assert np.max(np.abs(qb - ob)) < 1e-10

    def test_specific_shear(self):
        qa, qb = halves(retract(E[0] + 0.1 * E[1], E[1]))
        oa, ob = _polar_oracle(E[0] + 0.1 * E[1], E[1])
        assert np.max(np.abs(qa - oa)) < 1e-10
        assert np.max(np.abs(qb - ob)) < 1e-10

    def test_rank_deficient_rejected(self):
        with pytest.raises(DegenerateFrameError):
            retract(E[0], 2 * E[0])


class TestExteriorDerivative:
    def test_fd_matches_algebraic(self):
        rng = np.random.default_rng(17)
        q = checks.random_frames(rng, 500)
        x, y = checks.random_horizontal(rng, q), checks.random_horizontal(rng, q)
        fd = checks.d_alpha_fd_batch(q, x, y)
        exact = st.d_alpha_pairs(*halves(x), *halves(y))
        assert np.max(np.abs(fd - exact)) < 1e-5

    def test_volume_form_sign_constant(self):
        rng = np.random.default_rng(18)
        vals = checks.volume_sign_fast(*checks.legendrian_planes(rng, 300, 1e-3))
        assert np.all(vals < 0) or np.all(vals > 0)

    def test_volume_form_collapse_matches_full_antisymmetrisation(self):
        rng = np.random.default_rng(19)
        q, e1, e2 = checks.legendrian_planes(rng, 5, 1e-3)
        # The five vectors (R, e1, J e1, e2, J e2), stacked on axis 1.
        x = np.stack([STIEFEL.reeb(q), e1, STIEFEL.j(e1), e2, STIEFEL.j(e2)], axis=1)
        al = STIEFEL.alpha(q[:, None], x)
        dal = st.d_alpha_pairs(*halves(x[:, :, None]), *halves(x[:, None, :]))
        full = checks.alpha_dalpha_dalpha(al, dal)
        fast = checks.volume_sign_fast(q, e1, e2)
        assert full == pytest.approx(fast, rel=1e-10)


def _polar_oracle(a_raw, b_raw):
    """Independent polar decomposition through the 2x2 Gram matrix eigensystem."""
    m = np.stack([a_raw, b_raw], axis=-1)
    gram = np.swapaxes(m, -1, -2) @ m
    evals, evecs = np.linalg.eigh(gram)
    inv_sqrt = evecs @ (evals[..., None] ** -0.5 * np.swapaxes(evecs, -1, -2))
    q = m @ inv_sqrt
    return q[..., 0], q[..., 1]
