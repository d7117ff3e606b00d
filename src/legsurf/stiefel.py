"""Pointwise contact geometry of orthonormal 2-frames in R^4.

The manifold is the set of pairs (a, b) of orthonormal vectors in R^4, embedded
in R^8 with the induced metric.  On it live the contact form ``alpha = a.db -
b.da``, the Reeb field ``(b, -a)``, the horizontal distribution ``ker alpha``,
the transverse complex structure ``(V, W) -> (-W, V)``, the projection to the
Grassmannian of oriented 2-planes (a product of two round spheres of self-dual
and anti-self-dual 2-vectors), and the Folland-Koranyi gauge measuring the
anisotropic distance between two frames.

Every function is a batched kernel on stacked coordinate arrays that
broadcasts over leading axes.  The pointwise API of the manifold is
:class:`legsurf.fields.FrameTarget`, on stacked (..., 8) points and vectors;
its methods wrap the row kernels below.  The Hopf maps, ``d_alpha_pairs``,
``tangency_defect`` and ``gauge_scalars`` take the (..., 4) halves: a frame
is the pair (a, b), a tangent vector the pair (V, W).  Horizontality and
tangency of the inputs are the caller's to ensure (``tangency_defect``
measures them).

The kernels the descent runs (the polar factorisation and retraction, the
tangent and horizontal projections and alpha) work on *component rows*:
``rows`` turns stacked (..., n) coordinates into one C-contiguous (n, ...)
array, a view when they already are the transposed view of one, and the
``*_rows`` kernels take the (4, ...) row blocks of a, b, V and W, so every
NumPy inner loop runs over the points, not over 4 components.  The polar
factorisation and the projections each write one preallocated (8, ...)
output, a's or V's rows first; ``stacked`` is its (..., 8) view.  Row sums
add the components in sequence, the order of ``np.sum`` over fewer than
eight terms, so the polar factors, the tangent projection and alpha equal
the row-major ones bit for bit (signed zeros aside).

At an orthonormal frame the horizontal space is {(V, W): V and W both
orthogonal to a and b}: tangency gives V.a = W.b = 0 and V.b = -W.a, and
alpha = a.W - b.V = 0 then gives V.b = W.a = 0.  So the horizontal
projection is one projection of V and of W off span(a, b)
(``horizontal_rows``), not the tangent projection followed by removal of
the Reeb component.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFrameError

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


def rows(x):
    """The component rows (n, ...) of stacked coordinates x (..., n), as one
    C-contiguous array: a view when x is the transposed view of such an
    array, else one transposing copy."""
    x = np.asarray(x, dtype=float)
    return np.ascontiguousarray(x.transpose(-1, *range(x.ndim - 1)))


def stacked(x_rows):
    """The stacked (..., n) view of component rows (n, ...)."""
    return x_rows.transpose(*range(1, x_rows.ndim), 0)


def dot_rows(x, y):
    """sum_i x[i] * y[i] over the leading axis, added in sequence."""
    return np.add.reduce(x * y, axis=0)


def alpha_rows(a, b, v, w):
    """alpha(X) = a.W - b.V on (4, ...) row blocks."""
    return dot_rows(a, w) - dot_rows(b, v)


def d_alpha_pairs(vx, wx, vy, wy):
    """d alpha(X, Y) = 2 (V_X.W_Y - V_Y.W_X) for tangent pairs."""
    return 2.0 * (np.sum(vx * wy, axis=-1) - np.sum(vy * wx, axis=-1))


def tangency_defect(a, b, v, w):
    """Largest violation of V.a = 0, W.b = 0, a.W + V.b = 0."""
    d1 = np.abs(np.sum(v * a, axis=-1))
    d2 = np.abs(np.sum(w * b, axis=-1))
    d3 = np.abs(np.sum(a * w, axis=-1) + np.sum(v * b, axis=-1))
    return np.maximum(np.maximum(d1, d2), d3)


def tangent_rows(a, b, v, w):
    """Orthogonal projection of ambient R^8 pairs onto the tangent space, on
    (4, ...) row blocks; returns the (8, ...) rows of (V', W')."""
    # Unit normals of the constraint set in R^8: (a,0), (0,b), (b,a)/sqrt(2).
    c1, c2 = dot_rows(v, a), dot_rows(w, b)
    c3 = 0.5 * (dot_rows(v, b) + dot_rows(w, a))
    out = np.empty((8,) + c3.shape)
    for x, own, other, c, o in ((v, a, b, c1, out[:4]), (w, b, a, c2, out[4:])):
        np.multiply(c, own, out=o)
        np.subtract(x, o, out=o)
        o -= c3 * other
    return out


def horizontal_rows(a, b, v, w):
    """Orthogonal projection of ambient R^8 pairs onto the horizontal space
    at orthonormal frames, on (4, ...) row blocks: V and W each lose their
    components along a and b.  Returns the (8, ...) rows of (V', W')."""
    coefs = [(dot_rows(x, a), dot_rows(x, b)) for x in (v, w)]
    out = np.empty((8,) + coefs[0][0].shape)
    for x, (xa, xb), o in zip((v, w), coefs, (out[:4], out[4:])):
        np.multiply(xa, a, out=o)
        o += xb * b
        np.subtract(x, o, out=o)
    return out


def hopf_project_raw(a, b):
    """((a^b + *(a^b))/sqrt2, (a^b - *(a^b))/sqrt2), in e_ij coordinates."""
    g = wedge4(a, b)
    sg = hodge_star(g)
    return (g + sg) / _SQ2, (g - sg) / _SQ2


def hopf_push_raw(a, b, v, w):
    """Push horizontal pairs to the spheres of (anti-)self-dual 2-vectors.

    Returns coordinates in the fixed orthonormal bases ``_SIGMA_PLUS`` and
    ``_SIGMA_MINUS`` of the two 3-planes, normalised so the push-forward is
    an isometry.
    """
    xi = wedge4(v, b) + wedge4(a, w)
    sxi = hodge_star(xi)
    return ((xi + sxi) / 2.0) @ _SIGMA_PLUS.T, ((xi - sxi) / 2.0) @ _SIGMA_MINUS.T


def polar_rows(a, b):
    """Polar factors M = Q S of raw 4x2 frames M = [a b], in closed form, on
    (4, ...) row blocks.

    With G = M^T M and sigma = |a ^ b| = sqrt(det G) (the root of the summed
    squared 2x2 minors, free of the cancellation in g11 g22 - g12^2),
    S = G^(1/2) = (G + sigma I) / t with t = tr S = sqrt(tr G + 2 sigma), and
    S^-1 = [[g22 + sigma, -g12], [-g12, g11 + sigma]] / (sigma t).  Returns
    the (8, ...) rows of Q's columns (qa, qb), the entries (p11, p12, p22) of
    S^-1 and tr S.  Q^T Q = I holds to about 3e-16 cond(M), unlike an SVD's
    U V^T, which is fine for the near-orthonormal frames a flow step or an
    edge midpoint produces.
    """
    g11, g12, g22 = dot_rows(a, a), dot_rows(a, b), dot_rows(b, b)
    # The minors a_i b_j - a_j b_i, i < j, ordered by i, then j.
    minors = np.empty((6,) + g12.shape)
    p = 0
    for i in range(3):
        block = minors[p:p + 3 - i]
        np.multiply(a[i], b[i + 1:], out=block)
        block -= a[i + 1:] * b[i]
        p += 3 - i
    sigma = np.sqrt(dot_rows(minors, minors))
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
    q = np.empty((8,) + g12.shape)
    for o, pa, pb in ((q[:4], p11, p12), (q[4:], p12, p22)):
        np.multiply(a, pa, out=o)
        o += b * pb
    return q, (p11, p12, p22), t


def gauge_scalars(a0, b0, a, b):
    """Return (rho, phi, r_gauge) of the frame (a, b) relative to (a0, b0)."""
    rho2 = np.sum((a - a0) ** 2, axis=-1) + np.sum((b - b0) ** 2, axis=-1)
    phi = np.sum(a * b0, axis=-1) - np.sum(a0 * b, axis=-1)
    r4 = rho2**2 + 4.0 * phi**2
    return np.sqrt(rho2), phi, r4**0.25
