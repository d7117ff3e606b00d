"""Pointwise contact geometry of orthonormal 2-frames in R^4.

The manifold is the set of pairs (a, b) of orthonormal vectors in R^4, embedded
in R^8 with the induced metric.  On it live the contact form ``alpha = a.db -
b.da``, the Reeb field ``(b, -a)``, the horizontal distribution ``ker alpha``,
the transverse complex structure ``(V, W) -> (-W, V)``, the projection to the
Grassmannian of oriented 2-planes (a product of two round spheres of self-dual
and anti-self-dual 2-vectors), and the Folland-Koranyi gauge measuring the
anisotropic distance between two frames.

All functions broadcast over leading axes, so stacked inputs of shape
``(n, 4)`` evaluate n points at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import DegenerateFrameError, GeometryDomainError

ORTHO_TOL = 1e-12
# Inputs to jh/covariant_reeb come from retracted frames with 1e-12
# orthonormality, so the horizontality gate leaves headroom.
HORIZ_TOL = 1e-10

# Basis ordering for 2-vectors on R^4: e12, e13, e14, e23, e24, e34.
_STAR6 = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ]
)

_SQ2 = np.sqrt(2.0)
# Orthonormal bases of the self-dual / anti-self-dual 3-planes.
_SIGMA_PLUS = np.array(
    [
        [1, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, -1, 0],
        [0, 0, 1, 1, 0, 0],
    ]
) / _SQ2
_SIGMA_MINUS = np.array(
    [
        [1, 0, 0, 0, 0, -1],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, -1, 0, 0],
    ]
) / _SQ2


def wedge4(u, v):
    """Coordinates of u ^ v in the basis (e12, e13, e14, e23, e24, e34)."""
    u, v = np.asarray(u, float), np.asarray(v, float)
    return np.stack(
        [
            u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0],
            u[..., 0] * v[..., 2] - u[..., 2] * v[..., 0],
            u[..., 0] * v[..., 3] - u[..., 3] * v[..., 0],
            u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1],
            u[..., 1] * v[..., 3] - u[..., 3] * v[..., 1],
            u[..., 2] * v[..., 3] - u[..., 3] * v[..., 2],
        ],
        axis=-1,
    )


def hodge_star(xi):
    """Hodge star on 2-vector coordinates."""
    return np.asarray(xi, float) @ _STAR6.T


# ---------------------------------------------------------------------------
# raw array kernel


def alpha_raw(a, b, v, w):
    """alpha(X) = a.W - b.V for a tangent pair X = (V, W) at (a, b)."""
    return np.sum(a * w, axis=-1) - np.sum(b * v, axis=-1)


def reeb_raw(a, b):
    return np.asarray(b, float).copy(), -np.asarray(a, float)


def d_alpha_raw(vx, wx, vy, wy):
    """d alpha(X, Y) = 2 (V_X.W_Y - V_Y.W_X) for tangent pairs."""
    return 2.0 * (np.sum(vx * wy, axis=-1) - np.sum(vy * wx, axis=-1))


def tangency_defect(a, b, v, w):
    """Largest violation of V.a = 0, W.b = 0, a.W + V.b = 0."""
    d1 = np.abs(np.sum(v * a, axis=-1))
    d2 = np.abs(np.sum(w * b, axis=-1))
    d3 = np.abs(np.sum(a * w, axis=-1) + np.sum(v * b, axis=-1))
    return np.maximum(np.maximum(d1, d2), d3)


def project_tangent_raw(a, b, v, w):
    """Orthogonal projection of an ambient R^8 pair onto the tangent space."""
    # Unit normals of the constraint set in R^8: (a,0), (0,b), (b,a)/sqrt(2).
    c1 = np.sum(v * a, axis=-1)[..., None]
    c2 = np.sum(w * b, axis=-1)[..., None]
    c3 = 0.5 * (np.sum(v * b, axis=-1) + np.sum(w * a, axis=-1))[..., None]
    return v - c1 * a - c3 * b, w - c2 * b - c3 * a


def horizontal_project_raw(a, b, v, w):
    """Remove the Reeb component of a tangent pair: X - (X.R / 2) R."""
    rv, rw = reeb_raw(a, b)
    coef = 0.5 * (np.sum(v * rv, axis=-1) + np.sum(w * rw, axis=-1))[..., None]
    return v - coef * rv, w - coef * rw


def jh_raw(v, w):
    return -np.asarray(w, float), np.asarray(v, float).copy()


def polar_raw(a_raw, b_raw):
    """Polar factors M = Q S of raw 4x2 frames M = [a b], in closed form.

    With G = M^T M and sigma = |a ^ b| = sqrt(det G) (the root of the summed
    squared 2x2 minors, free of the cancellation in g11 g22 - g12^2),
    S = G^(1/2) = (G + sigma I) / t with t = tr S = sqrt(tr G + 2 sigma), and
    S^-1 = [[g22 + sigma, -g12], [-g12, g11 + sigma]] / (sigma t).  Returns
    Q's columns (qa, qb), the entries (p11, p12, p22) of S^-1 and tr S.
    Q^T Q = I holds to about 3e-16 cond(M), unlike an SVD's U V^T, which
    is fine for the near-orthonormal frames a flow step or an edge midpoint
    produces.
    """
    a = np.asarray(a_raw, float)
    b = np.asarray(b_raw, float)
    g11 = np.sum(a * a, axis=-1)
    g12 = np.sum(a * b, axis=-1)
    g22 = np.sum(b * b, axis=-1)
    sigma = np.sqrt(np.sum(wedge4(a, b) ** 2, axis=-1))
    trace = g11 + g22
    smax = np.sqrt(0.5 * (trace + np.sqrt((g11 - g22) ** 2 + 4.0 * g12 * g12)))
    # s_min = sigma / s_max <= 1e-13 max(s_max, 1), tested without dividing.
    if np.any(sigma <= 1e-13 * np.maximum(smax, 1.0) * smax):
        raise DegenerateFrameError("frame vectors are (numerically) linearly dependent")
    t = np.sqrt(trace + 2.0 * sigma)
    scale = 1.0 / (sigma * t)
    p11 = (g22 + sigma) * scale
    p12 = -g12 * scale
    p22 = (g11 + sigma) * scale
    qa = a * p11[..., None] + b * p12[..., None]
    qb = a * p12[..., None] + b * p22[..., None]
    return qa, qb, (p11, p12, p22), t


def retract_raw(a_raw, b_raw):
    """Polar retraction of a raw 4x2 frame onto orthonormal pairs."""
    qa, qb, _, _ = polar_raw(a_raw, b_raw)
    return qa, qb


def gauge_scalars(a0, b0, a, b):
    """Return (rho, phi, r_gauge) of the frame (a, b) relative to (a0, b0)."""
    rho2 = np.sum((a - a0) ** 2, axis=-1) + np.sum((b - b0) ** 2, axis=-1)
    phi = np.sum(a * b0, axis=-1) - np.sum(a0 * b, axis=-1)
    r4 = rho2**2 + 4.0 * phi**2
    return np.sqrt(rho2), phi, r4**0.25


def reeb_rotate_raw(a, b, theta):
    """The circle action (a, b) -> (cos a + sin b, -sin a + cos b)."""
    c, s = np.cos(theta), np.sin(theta)
    return c * a + s * b, -s * a + c * b


# ---------------------------------------------------------------------------
# typed surface


@dataclass(frozen=True)
class StiefelPoint:
    """An orthonormal pair (a, b) in R^4."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, float).reshape(4)
        b = np.asarray(self.b, float).reshape(4)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        defect = max(
            abs(a @ a - 1.0),
            abs(b @ b - 1.0),
            abs(a @ b),
        )
        if defect > 1e-11:
            raise GeometryDomainError(f"frame is not orthonormal within tolerance: defect {defect:.3e}")

    def as_vector(self):
        return np.concatenate([self.a, self.b])

    def to_json(self):
        return [float(x) for x in self.as_vector()]

    @staticmethod
    def from_json(values):
        v = np.asarray(values, float).reshape(8)
        return StiefelPoint(v[:4], v[4:])


@dataclass(frozen=True)
class StiefelTangent:
    """A tangent pair (V, W) at a base frame."""

    v: np.ndarray
    w: np.ndarray
    base: StiefelPoint

    def __post_init__(self):
        v = np.asarray(self.v, float).reshape(4)
        w = np.asarray(self.w, float).reshape(4)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        defect = tangency_defect(self.base.a, self.base.b, v, w)
        scale = max(1.0, float(np.linalg.norm(v) + np.linalg.norm(w)))
        if defect > 1e-11 * scale:
            raise GeometryDomainError(f"pair is not tangent within tolerance: defect {defect:.3e}")

    def norm(self):
        return float(np.sqrt(self.v @ self.v + self.w @ self.w))


@dataclass(frozen=True)
class GrassmannPoint:
    """Unit self-dual and anti-self-dual 2-vectors, in e_ij coordinates."""

    g_plus: np.ndarray
    g_minus: np.ndarray

    def __post_init__(self):
        gp = np.asarray(self.g_plus, float).reshape(6)
        gm = np.asarray(self.g_minus, float).reshape(6)
        object.__setattr__(self, "g_plus", gp)
        object.__setattr__(self, "g_minus", gm)
        if abs(gp @ gp - 1.0) > 1e-11 or abs(gm @ gm - 1.0) > 1e-11:
            raise GeometryDomainError("Grassmann components are not unit 2-vectors")

    def plus_coords(self):
        """Coordinates of g_plus in the orthonormal self-dual basis."""
        return _SIGMA_PLUS @ self.g_plus

    def minus_coords(self):
        return _SIGMA_MINUS @ self.g_minus


@dataclass(frozen=True)
class GaugeFrame:
    """(rho, phi, r_gauge, sigma) of a frame relative to a base frame.

    ``sigma`` is None when rho = 0; ``arctan_sigma`` then takes the limit
    value +-pi/2 keyed on the sign of phi.
    """

    rho: float
    phi: float
    r_gauge: float
    sigma: float | None

    def __post_init__(self):
        r4 = self.rho**4 + 4.0 * self.phi**2
        if abs(self.r_gauge**4 - r4) > 1e-12 * max(1.0, r4):
            raise GeometryDomainError("gauge invariant r^4 = rho^4 + 4 phi^2 violated")
        if self.sigma is not None and abs(self.sigma * self.rho**2 - 2.0 * self.phi) > 1e-10 * max(
            1.0, abs(self.phi)
        ):
            raise GeometryDomainError("gauge invariant sigma rho^2 = 2 phi violated")

    @property
    def singular(self):
        return self.r_gauge == 0.0

    def arctan_sigma(self):
        if self.sigma is not None:
            return float(np.arctan(self.sigma))
        if self.phi > 0:
            return np.pi / 2
        if self.phi < 0:
            return -np.pi / 2
        return 0.0


def tangent(p: StiefelPoint, v, w) -> StiefelTangent:
    return StiefelTangent(np.asarray(v, float), np.asarray(w, float), p)


def _check_base(p: StiefelPoint, x: StiefelTangent):
    if x.base is p:
        return
    if np.max(np.abs(x.base.a - p.a)) > 1e-12 or np.max(np.abs(x.base.b - p.b)) > 1e-12:
        raise GeometryDomainError("tangent vector is based at a different frame")


def contact_form(p: StiefelPoint, x: StiefelTangent) -> float:
    """alpha(X) = a.W - b.V."""
    _check_base(p, x)
    return float(alpha_raw(p.a, p.b, x.v, x.w))


def reeb(p: StiefelPoint) -> StiefelTangent:
    """The Reeb field (b, -a); alpha(R) = -2 and |R|^2 = 2."""
    rv, rw = reeb_raw(p.a, p.b)
    return StiefelTangent(rv, rw, p)


def horizontal_project(p: StiefelPoint, x: StiefelTangent) -> StiefelTangent:
    """Project a tangent pair onto ker alpha by removing its Reeb component."""
    _check_base(p, x)
    v, w = horizontal_project_raw(p.a, p.b, x.v, x.w)
    return StiefelTangent(v, w, p)


def _require_horizontal(p, x, tol=HORIZ_TOL):
    a = alpha_raw(p.a, p.b, x.v, x.w)
    scale = max(1.0, x.norm())
    if abs(a) > tol * scale:
        raise GeometryDomainError(f"input is not horizontal: alpha = {a:.3e}")
    # Horizontality on this manifold also means V, W are normal to span(a, b).
    span_defect = max(
        abs(x.v @ p.b),
        abs(x.w @ p.a),
    )
    if span_defect > tol * scale:
        raise GeometryDomainError("V, W are not orthogonal to span(a, b)")


def jh(p: StiefelPoint, x: StiefelTangent) -> StiefelTangent:
    """The transverse complex structure (V, W) -> (-W, V) on horizontal pairs."""
    _check_base(p, x)
    _require_horizontal(p, x)
    v, w = jh_raw(x.v, x.w)
    return StiefelTangent(v, w, p)


def covariant_reeb(p: StiefelPoint, z: StiefelTangent) -> StiefelTangent:
    """Covariant derivative of the Reeb field along a horizontal Z: (W_Z, -V_Z)."""
    _check_base(p, z)
    _require_horizontal(p, z)
    return StiefelTangent(z.w.copy(), -z.v, p)


def reeb_divergence(p: StiefelPoint, e1: StiefelTangent, e2: StiefelTangent) -> float:
    """div of the Reeb field along the plane spanned by an orthonormal basis e1, e2."""
    total = 0.0
    for e in (e1, e2):
        d = covariant_reeb(p, e)
        total += float(e.v @ d.v + e.w @ d.w)
    return total


def hopf_project(p: StiefelPoint) -> GrassmannPoint:
    """((a^b + *(a^b))/sqrt2, (a^b - *(a^b))/sqrt2)."""
    g = wedge4(p.a, p.b)
    sg = hodge_star(g)
    return GrassmannPoint((g + sg) / _SQ2, (g - sg) / _SQ2)


def hopf_push(p: StiefelPoint, x: StiefelTangent):
    """Push a horizontal pair to the spheres of (anti-)self-dual 2-vectors.

    Returns coordinates in the fixed orthonormal bases of the two 3-planes,
    normalised so the push-forward is an isometry.
    """
    _check_base(p, x)
    _require_horizontal(p, x)
    xi = wedge4(x.v, p.b) + wedge4(p.a, x.w)
    sxi = hodge_star(xi)
    plus = _SIGMA_PLUS @ ((xi + sxi) / 2.0)
    minus = _SIGMA_MINUS @ ((xi - sxi) / 2.0)
    return plus, minus


def sphere_product_j(base: GrassmannPoint, plus, minus):
    """Product complex structure on the two spheres, reversed on the second factor."""
    bp = base.plus_coords()
    bm = base.minus_coords()
    return np.cross(bp, plus), -np.cross(bm, minus)


def gauge(p0: StiefelPoint, p: StiefelPoint) -> GaugeFrame:
    """Folland-Koranyi gauge data of p relative to p0."""
    rho, phi, r = gauge_scalars(p0.a, p0.b, p.a, p.b)
    rho, phi, r = float(rho), float(phi), float(r)
    sigma = 2.0 * phi / rho**2 if rho > 0 else None
    return GaugeFrame(rho, phi, r, sigma)


def retract(a_raw, b_raw) -> StiefelPoint:
    """Polar retraction of two independent vectors to an orthonormal frame."""
    a, b = retract_raw(np.asarray(a_raw, float), np.asarray(b_raw, float))
    return StiefelPoint(a, b)


def reeb_rotate(p: StiefelPoint, theta: float) -> StiefelPoint:
    a, b = reeb_rotate_raw(p.a, p.b, theta)
    return StiefelPoint(a, b)


# ---------------------------------------------------------------------------
# derived checks used by the identity suite


def d_alpha_fd(p: StiefelPoint, x: StiefelTangent, y: StiefelTangent, step=1e-4):
    """Finite-difference exterior derivative d alpha(X, Y).

    Extends X, Y as constant pairs, probes along retracted paths with central
    differences, and evaluates alpha by its bilinear formula at the probes.
    """
    _check_base(p, x)
    _check_base(p, y)

    def probe(direction, other_v, other_w):
        ap, bp = retract_raw(p.a + step * direction.v, p.b + step * direction.w)
        am, bm = retract_raw(p.a - step * direction.v, p.b - step * direction.w)
        fp = alpha_raw(ap, bp, other_v, other_w)
        fm = alpha_raw(am, bm, other_v, other_w)
        return (fp - fm) / (2.0 * step)

    return float(probe(x, y.v, y.w) - probe(y, x.v, x.w))


def d_alpha_fd_batch(a, b, xv, xw, yv, yw, step=1e-4):
    """Vectorised version of :func:`d_alpha_fd` over stacked inputs."""

    def probe(dv, dw, ov, ow):
        ap, bp = retract_raw(a + step * dv, b + step * dw)
        am, bm = retract_raw(a - step * dv, b - step * dw)
        return (alpha_raw(ap, bp, ov, ow) - alpha_raw(am, bm, ov, ow)) / (2.0 * step)

    return probe(xv, xw, yv, yw) - probe(yv, yw, xv, xw)


def volume_form_value(p: StiefelPoint, vectors):
    """alpha ^ dalpha ^ dalpha evaluated on five tangent pairs (full antisymmetrisation)."""
    vs = [np.concatenate([t.v, t.w]) for t in vectors]

    def al(i):
        return alpha_raw(p.a, p.b, vs[i][:4], vs[i][4:])

    def da(i, j):
        return d_alpha_raw(vs[i][:4], vs[i][4:], vs[j][:4], vs[j][4:])

    total = 0.0
    for perm in permutations(range(5)):
        sign = _perm_sign(perm)
        total += sign * al(perm[0]) * da(perm[1], perm[2]) * da(perm[3], perm[4])
    return total / (1.0 * 2.0 * 2.0)


def volume_sign_fast(a, b, e1v, e1w, e2v, e2w):
    """Collapsed alpha ^ dalpha ^ dalpha on (R, e1, J e1, e2, J e2), batched.

    Uses alpha(e_i) = 0 and dalpha(R, .) = 0 so only the Reeb slot carries
    alpha, leaving alpha(R) * (dalpha ^ dalpha) on the horizontal 4-tuple.
    """
    j1v, j1w = jh_raw(e1v, e1w)
    j2v, j2w = jh_raw(e2v, e2w)
    al_r = alpha_raw(a, b, *reeb_raw(a, b))
    quad = 2.0 * (
        d_alpha_raw(e1v, e1w, j1v, j1w) * d_alpha_raw(e2v, e2w, j2v, j2w)
        - d_alpha_raw(e1v, e1w, e2v, e2w) * d_alpha_raw(j1v, j1w, j2v, j2w)
        + d_alpha_raw(e1v, e1w, j2v, j2w) * d_alpha_raw(j1v, j1w, e2v, e2w)
    )
    return al_r * quad


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def random_point(rng) -> StiefelPoint:
    return retract(rng.standard_normal(4), rng.standard_normal(4))


def random_points_raw(rng, n):
    return retract_raw(rng.standard_normal((n, 4)), rng.standard_normal((n, 4)))


def random_horizontal_raw(rng, a, b):
    """Random horizontal pairs over stacked frames (a, b)."""
    v = rng.standard_normal(a.shape)
    w = rng.standard_normal(b.shape)
    v, w = project_tangent_raw(a, b, v, w)
    return horizontal_project_raw(a, b, v, w)
