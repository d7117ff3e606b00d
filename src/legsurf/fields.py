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
    ``gauge_scalars`` and ``gauge_gradients``; ``move`` (re-retracting onto
    the target) and ``random_point``; and, on a target that
    ``carries_monodromy``, ``seam_offset``.  The methods below are built
    from these.  They are the target's only pointwise API: the descent, the
    energy, the lab and the identity battery (:mod:`legsurf.checks`) all
    call them.
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


def _halves(x):
    """The (4, ...) row blocks of the two R^4 halves of stacked R^8 coordinates."""
    x = st.rows(x)
    return x[:4], x[4:]


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

    # The projections, alpha, the edge residual, its Reeb slope and the move
    # work on component rows (stiefel's ``*_rows`` kernels) and return the
    # stacked view of one (8, ...) output; j and reeb fill an output laid
    # out like their operand.
    def tangent(self, q, x):
        return st.stacked(st.tangent_rows(*_halves(q), *_halves(x)))

    def horizontal(self, q, c):
        return st.stacked(st.horizontal_rows(*_halves(q), *_halves(c)))

    def j(self, c):
        out = np.empty_like(c, dtype=float)
        np.negative(c[..., 4:], out=out[..., :4])
        out[..., 4:] = c[..., :4]
        return out

    def reeb(self, q):
        out = np.empty_like(q, dtype=float)
        out[..., :4] = q[..., 4:]
        np.negative(q[..., :4], out=out[..., 4:])
        return out

    def alpha(self, q, x):
        return st.alpha_rows(*_halves(q), *_halves(x))

    def edge_residual(self, p_tail, delta):
        """alpha at the retracted midpoint of each edge, on its difference vector."""
        q, _, _ = st.polar_rows(*_halves(p_tail + 0.5 * delta))
        return st.alpha_rows(q[:4], q[4:], *_halves(delta))

    def reeb_slope(self, p_tail, delta):
        """d r / ds of :meth:`edge_residual` as the tail moves to move(p_tail, s R).

        The retracted midpoint Q (from M = Q S, S = Q^T M) moves by
        dQ = Q Omega + (I - Q Q^T) dM S^-1 along dM = R / 2, with Omega
        = w [[0, 1], [-1, 0]] and w = (Q^T dM - dM^T Q)_01 / tr S; the
        difference vector moves by -R.  S^-1 and tr S come from the polar
        factorisation itself.
        """
        a, b = _halves(p_tail)
        dv, dw = _halves(delta)
        q, (p11, p12, p22), tr_s = st.polar_rows(a + 0.5 * dv, b + 0.5 * dw)
        qa, qb = q[:4], q[4:]
        dma, dmb = 0.5 * b, -0.5 * a  # dM = R / 2, R = (b, -a)
        # Q^T dM, entry (i, j) = q_i . dm_j
        qa_a, qa_b = st.dot_rows(qa, dma), st.dot_rows(qa, dmb)
        qb_a, qb_b = st.dot_rows(qb, dma), st.dot_rows(qb, dmb)
        w = (qa_b - qb_a) / tr_s
        # (I - Q Q^T) dM, then times S^-1
        na = dma - qa * qa_a - qb * qb_a
        nb = dmb - qa * qa_b - qb * qb_b
        da = na * p11 + nb * p12 - w * qb
        db = na * p12 + nb * p22 + w * qa
        return st.alpha_rows(da, db, dv, dw) - st.alpha_rows(qa, qb, b, -a)

    def gauge_scalars(self, p0, points):
        return st.gauge_scalars(p0[..., :4], p0[..., 4:], points[..., :4], points[..., 4:])

    def gauge_gradients(self, p0, points):
        """Ambient gradients of rho^2 and phi at stacked points."""
        grad_phi = np.broadcast_to(np.concatenate([p0[4:], -p0[:4]]), points.shape).copy()
        return 2.0 * (points - p0), grad_phi

    def move(self, q, delta):
        q, _, _ = st.polar_rows(*_halves(np.add(q, delta)))
        return st.stacked(q)

    def random_point(self, rng):
        return self.move(rng.standard_normal((1, 8)), 0.0)[0]


class FlatTarget(Target):
    """The flat model: points (phi, y) with y in R^4 = C^2."""

    name = TARGET_HEISENBERG
    dim = 5
    alpha_reeb = -1.0
    carries_monodromy = True

    def invariant_defect(self, positions):
        return 0.0

    # The frame map, its adjoints, j and reeb fill an output shaped and laid
    # out like their last operand, one component at a time.
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
        out = np.zeros_like(q, dtype=float)
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

    def seam_offset(self, wraps, monodromy):
        """The jump of the Legendrian coordinate phi (coordinate 0, the Reeb
        direction) at the seam crossings ``wraps`` (..., 2)."""
        return -(wraps[..., 0] * monodromy[0] + wraps[..., 1] * monodromy[1])

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
