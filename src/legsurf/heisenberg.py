"""The flat five-dimensional contact model (R^5, alpha).

Points are (phi, y) with y in R^4 identified with C^2.  The contact form is
``alpha = -dphi + y1 dy2 - y2 dy1 + y3 dy4 - y4 dy3`` and the metric is the
left-invariant one for which the projection of the horizontal distribution to
R^4 is an isometry and d/dphi has unit length.  Tangent 5-vectors are ordered
(phi-component, y-components).

The module provides the contact form, Legendrian lifts of Lagrangian sample
grids, the anisotropic dilations, and the model gauge relative to a base
point (through the group left translation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolationError, GeometryDomainError

def omega0(y, v):
    """y1 v2 - y2 v1 + y3 v4 - y4 v3 (the symplectic pairing against y)."""
    return (
        y[..., 0] * v[..., 1]
        - y[..., 1] * v[..., 0]
        + y[..., 2] * v[..., 3]
        - y[..., 3] * v[..., 2]
    )


#: Component i of jc2(v) is sign * v[src], as (src, sign) pairs.
JC2_COLUMNS = ((1, -1.0), (0, 1.0), (3, -1.0), (2, 1.0))


def jc2(v):
    """Multiplication by i on R^4 = C^2: (v1, v2, v3, v4) -> (-v2, v1, -v4, v3),
    in an output laid out like ``v``."""
    out = np.empty_like(v, dtype=float)
    for i, (src, sign) in enumerate(JC2_COLUMNS):
        np.multiply(v[..., src], sign, out=out[..., i])
    return out


def contact_form_h(q, x):
    """alpha(X) = -X_phi + y1 X_y2 - y2 X_y1 + y3 X_y4 - y4 X_y3.

    ``q`` is a stacked (..., 5) coordinate array and ``x`` a matching
    (..., 5) tangent array.
    """
    q = np.asarray(q, float)
    x = np.asarray(x, float)
    return -x[..., 0] + omega0(q[..., 1:], x[..., 1:])


def dilate(q, r):
    """Anisotropic dilation (phi, y) -> (phi / r^2, y / r) of stacked (..., 5) points.

    ``r`` is a scalar or an array broadcasting against ``q[..., 0]``.
    """
    r = np.asarray(r, float)
    if not np.all(r > 0):
        raise GeometryDomainError("dilation parameter must be positive")
    q = np.asarray(q, float)
    r = r[..., None]
    return np.concatenate([q[..., :1] / r**2, q[..., 1:] / r], axis=-1)


def gauge_scalars(p0, points):
    """(rho, phi, r_gauge) of stacked points relative to p0, via the group left translation.

    rho = |y - y0|, the gauge Legendrian coordinate is
    phi - phi0 - omega0(y0, y), and r^4 = rho^4 + 4 phi_gauge^2.
    """
    rho = np.linalg.norm(points[..., 1:] - p0[1:], axis=-1)
    phi = points[..., 0] - p0[0] - omega0(p0[1:], points[..., 1:])
    return rho, phi, (rho**4 + 4.0 * phi**2) ** 0.25


# ---------------------------------------------------------------------------
# Legendrian lifts of Lagrangian sample grids


@dataclass
class LagrangianSampleGrid:
    """Samples of a map into R^4 on a rectangular parameter grid.

    ``u`` has shape (n1, n2, 4); spacings are h1, h2.  A periodic direction
    means the last sample connects back to the first with the same spacing.
    """

    n1: int
    n2: int
    h1: float
    h2: float
    u: np.ndarray
    periodic: tuple = (False, False)

    def __post_init__(self):
        self.u = np.asarray(self.u, float).reshape(self.n1, self.n2, 4)
        self.periodic = (bool(self.periodic[0]), bool(self.periodic[1]))

    def to_json(self):
        return {
            "n1": self.n1,
            "n2": self.n2,
            "h1": self.h1,
            "h2": self.h2,
            "periodic": list(self.periodic),
            "u": [[float(c) for c in row] for row in self.u.reshape(-1, 4)],
        }

    @staticmethod
    def from_json(data):
        return LagrangianSampleGrid(
            n1=int(data["n1"]),
            n2=int(data["n2"]),
            h1=float(data["h1"]),
            h2=float(data["h2"]),
            u=np.asarray(data["u"], float).reshape(int(data["n1"]), int(data["n2"]), 4),
            periodic=tuple(data.get("periodic", [False, False])),
        )


@dataclass
class LiftResult:
    phi: np.ndarray
    periods: tuple
    cell_residuals: np.ndarray
    tol: float


def lagrangian_cell_residuals(grid: LagrangianSampleGrid):
    """Loop integrals of the lift one-form around each grid cell.

    These are (twice) the discrete symplectic areas of the cells; they vanish
    exactly when the sampled map is Lagrangian for the trapezoidal rule.  The
    trapezoidal integral of u1 du2 - u2 du1 + u3 du4 - u4 du3 along a segment
    ua -> ub is omega0(ua, ub).
    """
    u = grid.u
    n1c = grid.n1 if grid.periodic[0] else grid.n1 - 1
    n2c = grid.n2 if grid.periodic[1] else grid.n2 - 1
    i1 = (np.arange(n1c) + 1) % grid.n1
    i2 = (np.arange(n2c) + 1) % grid.n2
    u00 = u[:n1c, :n2c]
    u10 = u[i1][:, :n2c]
    u01 = u[:n1c][:, i2]
    u11 = u[i1][:, i2]
    return omega0(u00, u10) + omega0(u10, u11) - omega0(u01, u11) - omega0(u00, u01)


def lagrangian_tolerance(grid: LagrangianSampleGrid):
    """Default residual tolerance: 1e-8 * cell area * max |du|^2."""
    u = grid.u
    du1 = np.diff(u, axis=0) / grid.h1
    du2 = np.diff(u, axis=1) / grid.h2
    max_du_sq = 0.0
    if du1.size:
        max_du_sq = max(max_du_sq, float(np.max(np.sum(du1**2, axis=-1))))
    if du2.size:
        max_du_sq = max(max_du_sq, float(np.max(np.sum(du2**2, axis=-1))))
    return 1e-8 * grid.h1 * grid.h2 * max(max_du_sq, 1e-30)


def legendrian_lift(grid: LagrangianSampleGrid, base_value=0.0, tol_lag=None) -> LiftResult:
    """Integrate the Legendrian coordinate over the grid, rows then columns.

    Raises on non-Lagrangian input; on periodic directions the accumulated
    phi-increment around the closed loop is returned as the period instead of
    being treated as a failure.
    """
    tol = lagrangian_tolerance(grid) if tol_lag is None else float(tol_lag)
    res = lagrangian_cell_residuals(grid)
    if res.size and np.max(np.abs(res)) > tol:
        worst = tuple(
            int(w) for w in np.unravel_index(int(np.argmax(np.abs(res))), res.shape)
        )
        raise ConstraintViolationError(
            f"grid is not Lagrangian: cell {worst} has loop residual "
            f"{res[worst]:.3e} > tol {tol:.3e}",
            worst=worst,
            residual=float(res[worst]),
        )
    u = grid.u
    phi = np.empty((grid.n1, grid.n2))
    phi[0, 0] = base_value
    inc_rows = omega0(u[:-1, 0], u[1:, 0])
    phi[1:, 0] = base_value + np.cumsum(inc_rows)
    inc_cols = omega0(u[:, :-1], u[:, 1:])
    phi[:, 1:] = phi[:, [0]] + np.cumsum(inc_cols, axis=1)

    period1 = 0.0
    period2 = 0.0
    if grid.periodic[0]:
        period1 = float(np.sum(inc_rows) + omega0(u[-1, 0], u[0, 0]))
    if grid.periodic[1]:
        period2 = float(np.sum(inc_cols[0]) + omega0(u[0, -1], u[0, 0]))
    return LiftResult(phi=phi, periods=(period1, period2), cell_residuals=res, tol=tol)
