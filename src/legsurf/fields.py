"""The two contact targets, each as one object owning its pointwise primitives.

The frame manifold (orthonormal 2-frames (a, b) in R^4, alpha = a.db - b.da)
and the flat model (R^5 with alpha = -dphi + omega0) share every discrete
formula of the package; only the primitives on :class:`Target` differ.
:func:`geometry` resolves a target name (the name stored in mesh files and
configs) to its instance.

Points and tangent vectors are stacked ambient coordinates (..., dim).  Face
and vertex geometry works in *frame components*: plain R^8 coordinates on the
frame manifold, and (Reeb coefficient, R^4 projection) in the flat model,
components in an orthonormal frame, so Euclidean formulas apply to both.  On
both targets alpha = -<R, .>, hence |R|^2 = -alpha(R).

Hamiltonian fields come in the two published Reeb-coefficient conventions,
each self-consistent (the horizontal part is scaled so the flow preserves the
contact kernel, which the contactomorphism oracle verifies numerically).
"""

from __future__ import annotations

import numpy as np

from . import heisenberg as hs
from . import stiefel as st
from .errors import GeometryDomainError

TARGET_STIEFEL = "stiefel"
TARGET_HEISENBERG = "heisenberg"

#: Reeb-coefficient conventions: the Hamiltonian field of h has Reeb
#: component -m h R, with m the coefficient of the displayed formula.
CONVENTIONS = {"thm1": 2.0, "sec231": -0.5}


class Target:
    """The primitives of one target; each subclass supplies its own.

    Per target: ``dim``, ``alpha_reeb`` (alpha(R)) and ``invariant_defect``;
    the frame map ``frame(base, delta)``, its inverse ``unframe``, the
    adjoint of the inverse ``frame_covector`` (ambient covector to frame
    covector) and the adjoint of its derivative ``frame_adjoint`` (whose
    ``base_bar`` may be the scalar 0); the ``tangent`` and
    ``horizontal`` projections, ``j``, ``reeb`` and ``alpha``;
    ``edge_residual`` and its Reeb derivative ``reeb_slope``,
    ``gauge_scalars``, ``gauge_gradients`` and ``seam_shift``; ``move``
    (re-retracting onto the target) and ``random_point``.  The methods below
    are built from these.
    """

    name: str
    dim: int
    alpha_reeb: float  # alpha(R), constant on each target
    carries_monodromy: bool  # whether seam crossings can shift a Legendrian coordinate

    def point(self, p):
        """A coordinate vector as an array, checked against the target's dimension."""
        p = np.asarray(p, float)
        if p.size != self.dim:
            raise GeometryDomainError(f"base point has {p.size} coordinates, expected {self.dim}")
        return p

    def reeb_unit(self, q):
        """Unit Reeb vector (frame components equal ambient ones)."""
        return self.reeb(q) / np.sqrt(-self.alpha_reeb)

    def horizontal_gradient(self, q, ambient_grad):
        """Horizontal metric gradient, in frame components, from ambient partials."""
        return self.horizontal(q, self.frame_covector(q, np.asarray(ambient_grad, float)))

    def hamiltonian_field(self, h_value, h_grad, q, convention="thm1"):
        """Hamiltonian field k J grad_H h - m h R of a scalar h, ambient coordinates.

        ``h_value`` and ``h_grad`` are h and its ambient gradient at stacked
        points q.  On both targets dalpha(X, JY) = 2 <X, Y> on ker alpha, so
        k = -m alpha(R) / 2 makes the flow preserve ker alpha.
        """
        if convention not in CONVENTIONS:
            raise GeometryDomainError(f"unknown Reeb-coefficient convention {convention!r}")
        m = CONVENTIONS[convention]
        q = np.asarray(q, float)
        k = -m * self.alpha_reeb / 2.0
        h = np.asarray(h_value, float)[..., None]
        c = k * self.j(self.horizontal_gradient(q, h_grad)) - m * h * self.reeb(q)
        return self.unframe(q, c)

    def random_horizontal(self, rng, q):
        """A random unit horizontal vector at stacked ambient points q."""
        q = np.asarray(q, float)
        x = self.unframe(q, self.horizontal(q, rng.standard_normal(q.shape)))
        return x / np.linalg.norm(self.frame(q, x), axis=-1, keepdims=True)


class FrameTarget(Target):
    """Orthonormal 2-frames (a, b) in R^4, stacked as (a, b) in R^8."""

    name = TARGET_STIEFEL
    dim = 8
    alpha_reeb = -2.0
    carries_monodromy = False

    def invariant_defect(self, positions):
        a, b = positions[:, :4], positions[:, 4:]
        return float(max(
            np.max(np.abs(np.sum(a * a, axis=1) - 1.0)),
            np.max(np.abs(np.sum(b * b, axis=1) - 1.0)),
            np.max(np.abs(np.sum(a * b, axis=1))),
        ))

    # The frame components of a vector are its ambient coordinates.
    def frame(self, base, delta):
        return np.asarray(delta, float)

    def unframe(self, base, c):
        return c

    def frame_covector(self, base, cov):
        return np.asarray(cov, float)

    def frame_adjoint(self, base, delta, c_bar):
        return 0.0, c_bar

    def tangent(self, q, x):
        v, w = st.project_tangent_raw(q[..., :4], q[..., 4:], x[..., :4], x[..., 4:])
        return np.concatenate([v, w], axis=-1)

    def horizontal(self, q, c):
        a, b = q[..., :4], q[..., 4:]
        v, w = st.project_tangent_raw(a, b, c[..., :4], c[..., 4:])
        v, w = st.horizontal_project_raw(a, b, v, w)
        return np.concatenate([v, w], axis=-1)

    def j(self, c):
        return np.concatenate(st.jh_raw(c[..., :4], c[..., 4:]), axis=-1)

    def reeb(self, q):
        return np.concatenate(st.reeb_raw(q[..., :4], q[..., 4:]), axis=-1)

    def alpha(self, q, x):
        return st.alpha_raw(q[..., :4], q[..., 4:], x[..., :4], x[..., 4:])

    def edge_residual(self, p_tail, delta):
        """alpha at the retracted midpoint of each edge, on its difference vector."""
        mid = p_tail + 0.5 * delta
        am, bm = st.retract_raw(mid[:, :4], mid[:, 4:])
        return st.alpha_raw(am, bm, delta[:, :4], delta[:, 4:])

    def reeb_slope(self, p_tail, delta):
        """d r / ds of :meth:`edge_residual` as the tail moves to move(p_tail, s R).

        The retracted midpoint Q (from M = Q S, S = Q^T M) moves by
        dQ = Q Omega + (I - Q Q^T) dM S^-1 along dM = R / 2, with Omega
        = w [[0, 1], [-1, 0]] and w = (Q^T dM - dM^T Q)_01 / tr S; the
        difference vector moves by -R.  S^-1 and tr S come from the polar
        factorisation itself.
        """
        reeb = self.reeb(p_tail)
        mid = p_tail + 0.5 * delta
        qa, qb, (p11, p12, p22), tr_s = st.polar_raw(mid[:, :4], mid[:, 4:])
        dma, dmb = 0.5 * reeb[:, :4], 0.5 * reeb[:, 4:]
        # Q^T dM, entry (i, j) = q_i . dm_j
        qa_a, qa_b = np.sum(qa * dma, axis=1), np.sum(qa * dmb, axis=1)
        qb_a, qb_b = np.sum(qb * dma, axis=1), np.sum(qb * dmb, axis=1)
        w = ((qa_b - qb_a) / tr_s)[:, None]
        # (I - Q Q^T) dM, then times S^-1
        na = dma - qa * qa_a[:, None] - qb * qb_a[:, None]
        nb = dmb - qa * qa_b[:, None] - qb * qb_b[:, None]
        da = na * p11[:, None] + nb * p12[:, None] - w * qb
        db = na * p12[:, None] + nb * p22[:, None] + w * qa
        return (st.alpha_raw(da, db, delta[:, :4], delta[:, 4:])
                - st.alpha_raw(qa, qb, reeb[:, :4], reeb[:, 4:]))

    def gauge_scalars(self, p0, points):
        return st.gauge_scalars(p0[:4], p0[4:], points[..., :4], points[..., 4:])

    def gauge_gradients(self, p0, points):
        """Ambient gradients of rho^2 and phi at stacked points."""
        grad_phi = np.broadcast_to(np.concatenate([p0[4:], -p0[:4]]), points.shape).copy()
        return 2.0 * (points - p0), grad_phi

    def seam_shift(self, wraps, monodromy):
        """Frames close up across seams: no shift."""
        return np.zeros(np.shape(wraps)[:-1] + (self.dim,))

    def move(self, q, delta):
        q = np.asarray(q, float)
        delta = np.asarray(delta, float)
        a, b = st.retract_raw(q[..., :4] + delta[..., :4], q[..., 4:] + delta[..., 4:])
        return np.concatenate([a, b], axis=-1)

    def random_point(self, rng):
        a, b = st.random_points_raw(rng, 1)
        return np.concatenate([a[0], b[0]])


class FlatTarget(Target):
    """The flat model: points (phi, y) with y in R^4 = C^2."""

    name = TARGET_HEISENBERG
    dim = 5
    alpha_reeb = -1.0
    carries_monodromy = True

    def invariant_defect(self, positions):
        return 0.0

    # The frame map and its adjoints fill an output shaped and laid out like
    # their last operand, one component at a time.
    def frame(self, base, delta):
        """Frame components of ambient vectors delta based at base."""
        out = np.empty_like(delta, dtype=float)
        out[..., 0] = delta[..., 0] - hs.omega0(base[..., 1:], delta[..., 1:])
        out[..., 1:] = delta[..., 1:]
        return out

    def unframe(self, base, c):
        """Inverse of :meth:`frame`."""
        out = np.empty_like(c, dtype=float)
        out[..., 0] = c[..., 0] + hs.omega0(base[..., 1:], c[..., 1:])
        out[..., 1:] = c[..., 1:]
        return out

    def frame_covector(self, base, cov):
        """An ambient covector as a covector on frame components (adjoint of unframe)."""
        out = np.array(cov, float)
        out[..., 1:] += out[..., 0, None] * hs.jc2(base[..., 1:])
        return out

    def frame_adjoint(self, base, delta, c_bar):
        """(base_bar, delta_bar): the adjoint of the derivative of
        frame(base, delta), c0 = delta_dot_0 - omega0(base_dot, delta) -
        omega0(base, delta_dot) and c_i = delta_dot_i, applied to c_bar."""
        f0 = c_bar[..., 0]
        base_bar = np.empty_like(c_bar, dtype=float)
        delta_bar = np.empty_like(c_bar, dtype=float)
        base_bar[..., 0] = 0.0
        delta_bar[..., 0] = f0
        # component i of jc2(v) is sign * v[src]
        for i, (src, sign) in enumerate(hs.JC2_COLUMNS, start=1):
            base_bar[..., i] = f0 * (sign * delta[..., 1 + src])
            delta_bar[..., i] = c_bar[..., i] - f0 * (sign * base[..., 1 + src])
        return base_bar, delta_bar

    def tangent(self, q, x):
        return x

    def horizontal(self, q, c):
        out = np.array(c, float)
        out[..., 0] = 0.0
        return out

    def j(self, c):
        out = np.zeros_like(c)
        out[..., 1:] = hs.jc2(c[..., 1:])
        return out

    def reeb(self, q):
        out = np.zeros(np.shape(q))
        out[..., 0] = 1.0
        return out

    def alpha(self, q, x):
        return hs.contact_form_h(q, x)

    def edge_residual(self, p_tail, delta):
        """alpha at the midpoint of each edge, on its difference vector."""
        y_mid = p_tail[:, 1:] + 0.5 * delta[:, 1:]
        return -delta[:, 0] + hs.omega0(y_mid, delta[:, 1:])

    def reeb_slope(self, p_tail, delta):
        """d r / ds of :meth:`edge_residual` as the tail moves by s R: exactly 1."""
        return np.ones(len(p_tail))

    def gauge_scalars(self, p0, points):
        return hs.gauge_scalars(p0, points)

    def gauge_gradients(self, p0, points):
        """Ambient gradients of rho^2 and phi at stacked points."""
        grad_rho2 = np.zeros_like(points)
        grad_rho2[..., 1:] = 2.0 * (points[..., 1:] - p0[1:])
        grad_phi = np.zeros_like(points)
        grad_phi[..., 0] = 1.0
        grad_phi[..., 1:] = -hs.jc2(np.broadcast_to(p0[1:], points[..., 1:].shape))
        return grad_rho2, grad_phi

    def seam_shift(self, wraps, monodromy):
        """The Legendrian coordinate jumps by the monodromy at each seam crossing."""
        out = np.zeros(np.shape(wraps)[:-1] + (self.dim,))
        out[..., 0] = -(wraps[..., 0] * monodromy[0] + wraps[..., 1] * monodromy[1])
        return out

    def move(self, q, delta):
        return np.asarray(q, float) + np.asarray(delta, float)

    def random_point(self, rng):
        y = rng.uniform(-1.0, 1.0, size=4)
        phi = rng.uniform(-1.0, 1.0)
        return np.concatenate([[phi], y])


STIEFEL = FrameTarget()
HEISENBERG = FlatTarget()


def geometry(name) -> Target:
    """The target object of a target name."""
    for target in (STIEFEL, HEISENBERG):
        if target.name == name:
            return target
    raise GeometryDomainError(f"unknown target {name!r}")
