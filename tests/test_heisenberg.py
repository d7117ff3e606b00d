"""Flat-model contact form, lifts, dilations, Hamiltonian fields."""

import numpy as np
import pytest

from legsurf import checks, fields
from legsurf import heisenberg as hs
from legsurf.errors import ConstraintViolationError, GeometryDomainError


def clifford_grid(n, periodic=True):
    s = np.arange(n) * (2 * np.pi / n) if periodic else np.linspace(0, 2 * np.pi, n)
    t = s.copy()
    ss, tt = np.meshgrid(s, t, indexing="ij")
    u = np.stack([np.cos(ss), np.sin(ss), np.cos(tt), np.sin(tt)], axis=-1)
    h = s[1] - s[0]
    return hs.LagrangianSampleGrid(n, n, h, h, u, (periodic, periodic))


class TestContactForm:
    def test_dphi_direction(self):
        q = np.zeros(5)
        assert hs.contact_form_h(q, [1, 0, 0, 0, 0]) == -1.0

    def test_dy2_direction(self):
        q = np.array([0.0, 1.0, 0, 0, 0])
        assert hs.contact_form_h(q, [0, 0, 1, 0, 0]) == 1.0

    def test_horizontal_lift_annihilated(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = fields.HEISENBERG.random_point(rng)
            x = fields.HEISENBERG.random_horizontal(rng, q)
            assert abs(hs.contact_form_h(q, x)) < 1e-12


class TestLegendrianLift:
    def test_clifford_lift_matches_symbolic(self):
        n = 256
        grid = clifford_grid(n)
        lift = hs.legendrian_lift(grid, base_value=0.0)
        h = grid.h1
        s = np.arange(n) * h
        # The symbolic lift is phi = s + t; the trapezoidal rule gives
        # increments sin(h) per step, an O(h^2) relative deviation.
        expected = s[:, None] + s[None, :]
        assert np.max(np.abs(lift.phi - expected)) < (n * 2) * h**3
        assert lift.periods[0] == pytest.approx(2 * np.pi, rel=1e-3)
        assert lift.periods[1] == pytest.approx(2 * np.pi, rel=1e-3)

    def test_constant_map(self):
        u = np.tile(np.array([1.0, 2.0, 3.0, 4.0]), (8, 8, 1))
        grid = hs.LagrangianSampleGrid(8, 8, 0.1, 0.1, u)
        lift = hs.legendrian_lift(grid, base_value=7.0)
        assert np.allclose(lift.phi, 7.0)
        assert lift.periods == (0.0, 0.0)

    def test_non_lagrangian_graph_rejected(self):
        n = 16
        s = np.linspace(0, 1, n)
        ss, tt = np.meshgrid(s, s, indexing="ij")
        u = np.stack([ss, tt, np.zeros_like(ss), np.zeros_like(tt)], axis=-1)
        grid = hs.LagrangianSampleGrid(n, n, s[1], s[1], u)
        with pytest.raises(ConstraintViolationError) as exc:
            hs.legendrian_lift(grid)
        assert exc.value.worst is not None

    def test_lifted_edges_are_horizontal(self):
        n = 256
        grid = clifford_grid(n)
        lift = hs.legendrian_lift(grid)
        # Per-edge residuals of the lifted polygon against the contact form,
        # evaluated at edge midpoints in the first grid direction.
        u = grid.u
        phi = lift.phi
        dphi = phi[1:, :] - phi[:-1, :]
        du = u[1:, :] - u[:-1, :]
        ymid = 0.5 * (u[1:, :] + u[:-1, :])
        res = -dphi + hs.omega0(ymid, du)
        assert np.max(np.abs(res)) < 1e-8


class TestDilate:
    def test_identity(self):
        q = np.array([1.5, 1.0, 2, 3, 4])
        out = hs.dilate(q, 1.0)
        assert out[0] == q[0] and np.allclose(out[1:], q[1:])

    def test_example(self):
        out = hs.dilate(np.array([4.0, 2.0, 0, 0, 0]), 2.0)
        assert out[0] == 1.0 and np.allclose(out[1:], [1, 0, 0, 0])

    def test_gauge_scales_linearly(self):
        rng = np.random.default_rng(1)
        origin = np.zeros(5)
        q = rng.uniform(-1, 1, size=(20, 5))
        r = rng.uniform(0.3, 3.0, size=20)
        _, _, g = hs.gauge_scalars(origin, q)
        _, _, gd = hs.gauge_scalars(origin, hs.dilate(q, r))
        assert gd == pytest.approx(g / r, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(GeometryDomainError):
            hs.dilate(np.zeros(5), 0.0)
        with pytest.raises(GeometryDomainError):
            hs.dilate(np.zeros((2, 5)), np.array([1.0, -1.0]))


class TestHamiltonianField:
    def test_constant_hamiltonian(self):
        q = np.zeros(5)
        x = fields.HEISENBERG.hamiltonian_field(3.0, np.zeros(5), q)
        assert np.allclose(x, [-6.0, 0, 0, 0, 0])

    def test_linear_hamiltonian_at_origin(self):
        q = np.zeros(5)
        grad = np.array([0.0, 1.0, 0, 0, 0])  # h = y1
        x = fields.HEISENBERG.hamiltonian_field(0.0, grad, q)
        assert np.allclose(x, [0, 0, 1, 0, 0])

    def test_dilation_generator(self):
        # h = -phi generates the anisotropic dilations: X = 2 phi dphi + y dy.
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = fields.HEISENBERG.random_point(rng)
            grad = np.array([-1.0, 0, 0, 0, 0])
            x = fields.HEISENBERG.hamiltonian_field(-q[0], grad, q)
            expected = np.concatenate([[2 * q[0]], q[1:]])
            assert np.allclose(x, expected, atol=1e-13)

    def test_dilation_flow_matches_dilate(self):
        # Integrating the h = -phi field for time t is dilate by e^{-t}.
        q0 = np.array([0.7, 0.3, -0.4, 0.5, 0.1])
        t_total, nsteps = 0.5, 4000
        dt = t_total / nsteps
        q = q0.copy()
        for _ in range(nsteps):
            x = fields.HEISENBERG.hamiltonian_field(-q[0], np.array([-1.0, 0, 0, 0, 0]), q)
            q = q + dt * x
        r = np.exp(-t_total)
        expected = np.concatenate([[q0[0] / r**2], q0[1:] / r])
        assert np.allclose(q, expected, atol=1e-3)

    def test_lie_derivative_small_both_conventions(self):
        rng = np.random.default_rng(3)
        for convention in fields.CONVENTIONS:
            vals = checks.hamiltonian_lie_defects(
                fields.TARGET_HEISENBERG, rng, n_cases=10, convention=convention
            )
            assert np.max(vals) < 1e-4

    def test_generic_field_fails_lie_test(self):
        rng = np.random.default_rng(4)
        q = fields.HEISENBERG.random_point(rng)
        x = fields.HEISENBERG.random_horizontal(rng, q)
        const = rng.standard_normal(5)
        val = checks.lie_derivative_fd(
            fields.TARGET_HEISENBERG, q, x, lambda p: const
        )
        assert abs(val) > 1e-3

    def test_flow_order_discrimination(self):
        rng = np.random.default_rng(5)
        ham, gen = checks.flow_order_slopes(fields.TARGET_HEISENBERG, rng, n_cases=5)
        assert np.min(ham) >= 1.9
        assert np.max(gen) <= 1.2


class TestNonIntegrability:
    def test_volume_constant(self):
        rng = np.random.default_rng(6)
        q = np.stack([fields.HEISENBERG.random_point(rng) for _ in range(20)])
        basis = np.eye(5)
        al = hs.contact_form_h(q[:, None, :], basis)
        dal = 2.0 * hs.omega0(basis[:, None, 1:], basis[None, :, 1:])
        assert checks.alpha_dalpha_dalpha(al, dal) == pytest.approx(-8.0, abs=1e-12)


class TestGridRoundTrip:
    def test_json(self):
        grid = clifford_grid(8)
        data = grid.to_json()
        back = hs.LagrangianSampleGrid.from_json(data)
        assert np.allclose(back.u, grid.u)
        assert back.periodic == grid.periodic
