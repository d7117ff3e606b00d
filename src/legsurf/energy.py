"""Penalized area energy, exact first variation, constrained flow, descent.

The energy of an immersion is area plus ``eps^4 * integral (1 + |dT|^2_g)^2``
where T is the per-face unit Gauss 2-vector in frame components and its
gradient is estimated from neighbour-face differences with fixed
parameter-space weights.  Because those weights are constant, the discrete
energy is a smooth closed-form function of the vertex positions; the
gradient returned here is its exact differential (assembled in reverse),
and the directional first variation mirrors the classical formulas for the
metric, volume-form and Gauss-map variations term by term.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fields, heisenberg as hs, stiefel as st
from .errors import (
    DegenerateFaceError,
    GeometryDomainError,
    LocalisationError,
    StageAbortedError,
    StepRejectedError,
)
from .immersion import (
    FaceData,
    cotangent_weights,
    horizontal_part,
    j_frame,
    legendrian_residual,
    vertical_unit,
    wedge_nd,
    wedge_pairs,
)
from .mesh import DiscreteImmersion


@dataclass
class EnergyBreakdown:
    area: float
    penalty: float
    total: float
    entropy_indicator: float

    def __post_init__(self):
        if not np.isfinite(self.total):
            raise GeometryDomainError("energy is not finite")


@dataclass
class FirstVariation:
    """Per-vertex covector; pairing against any field projects it to tangents."""

    covector: np.ndarray
    target: str

    def pair(self, w):
        return float(np.sum(self.covector * project_field(self.target, None, w)))


@dataclass
class HamiltonianSpec:
    """Scalar Hamiltonian with derivatives on the target, plus support data.

    ``h`` and ``grad`` accept stacked ambient coordinates.  ``support`` is
    None (everywhere) or ("gauge_ball", center_coords, radius): the field is
    then supported where the Folland-Koranyi gauge from the center is below
    the radius, which makes the localisation hypothesis checkable.
    """

    h: callable
    grad: callable
    hess: callable = None
    support: tuple = None

    def supported_at(self, points):
        if self.support is None:
            return np.ones(np.shape(points)[0], bool)
        kind, center, radius = self.support
        if kind != "gauge_ball":
            raise GeometryDomainError(f"unknown support descriptor {kind!r}")
        return _gauge_from(center, points) < radius


def _gauge_from(center, points):
    center = np.asarray(center, float)
    points = np.asarray(points, float)
    if center.size == 8:
        _, _, r = st.gauge_scalars(center[:4], center[4:], points[..., :4], points[..., 4:])
        return r
    rho = np.linalg.norm(points[..., 1:] - center[1:], axis=-1)
    phi = points[..., 0] - center[0] - hs.omega0(center[1:], points[..., 1:])
    return (rho**4 + 4.0 * phi**2) ** 0.25


def project_field(target, positions, w):
    """Project an ambient per-vertex field onto the target tangent spaces."""
    w = np.asarray(w, float)
    if target == "heisenberg":
        return w
    if positions is None:
        return w  # stiefel covectors are stored already projected
    a, b = positions[:, :4], positions[:, 4:]
    v, wp = st.project_tangent_raw(a, b, w[:, :4], w[:, 4:])
    return np.concatenate([v, wp], axis=-1)


# ---------------------------------------------------------------------------
# assembler


def _gauss_stencil(m, uv):
    """The (2F, F) neighbour-differencing stencil of the Gauss-map gradient.

    Face f with neighbours n_j (in face-edge order) gets the least-squares
    weights q_f = pinv(bary[n_j] - bary[f]), the parameter differences
    unwrapped across the seam; row 2f + a holds q_f[a, j] at column n_j and
    -sum_j q_f[a, j] at column f, so (D @ t)[2f + a] = sum_j q_f[a, j] (t[n_j] - t[f]).
    Faces without neighbours get empty rows.
    """
    n_f = len(m.triangles)
    bary = uv.mean(axis=1)
    nbrs = m.face_neighbors
    has = nbrs >= 0
    delta = bary[np.where(has, nbrs, 0)] - bary[:, None, :]  # (F, 3, 2)
    if m.uv_periods is not None:
        for axis in (0, 1):
            p = m.uv_periods[axis]
            if p:
                delta[..., axis] -= p * np.round(delta[..., axis] / p)
    count = has.sum(axis=1)
    rows, cols, vals = [], [], []
    for c in (1, 2, 3):
        faces = np.where(count == c)[0]
        if not faces.size:
            continue
        slots = np.argsort(~has[faces], axis=1, kind="stable")[:, :c]  # keep edge order
        cols_c = np.take_along_axis(nbrs[faces], slots, axis=1)  # (n, c)
        q = np.linalg.pinv(np.take_along_axis(delta[faces], slots[..., None], axis=1))  # (n, 2, c)
        row = 2 * faces[:, None] + np.arange(2)  # (n, 2)
        rows += [np.repeat(row, c, axis=1).ravel(), row.ravel()]
        cols += [np.broadcast_to(cols_c[:, None, :], q.shape).ravel(), np.repeat(faces, 2)]
        vals += [q.ravel(), -q.sum(axis=2).ravel()]
    if not rows:
        return sp.csr_matrix((2 * n_f, n_f))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(2 * n_f, n_f)
    )


class EnergyAssembler:
    """Constant mesh data plus energy/gradient evaluation at given positions."""

    def __init__(self, imm: DiscreteImmersion):
        m = imm.mesh
        if m.uv is None:
            raise GeometryDomainError("the energy functional requires uv parameters")
        self.template = imm
        self.tri = m.triangles
        n_f = len(self.tri)
        uv, wraps = m.corner_uv_local()
        self.corner_phi_offsets = -(
            wraps[:, :, 0] * imm.phi_monodromy[0] + wraps[:, :, 1] * imm.phi_monodromy[1]
        )
        d1 = uv[:, 1] - uv[:, 0]
        d2 = uv[:, 2] - uv[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(det <= 0):
            raise GeometryDomainError("parameter triangles must be positively oriented")
        self.uv_area = 0.5 * det
        inv = np.empty((n_f, 2, 2))
        inv[:, 0, 0] = d2[:, 1]
        inv[:, 0, 1] = -d2[:, 0]
        inv[:, 1, 0] = -d1[:, 1]
        inv[:, 1, 1] = d1[:, 0]
        inv /= det[:, None, None]
        self.minv = inv

        # Fixed neighbour differencing stencil for the Gauss-map gradient.
        self.stencil = _gauss_stencil(m, uv)
        self.stencil_t = self.stencil.T.tocsr()
        self.target = imm.target
        self.k = imm.positions.shape[1]
        self.k2 = len(wedge_pairs(self.k))
        self._pairs = np.asarray(wedge_pairs(self.k), int)

    # -- forward pieces ------------------------------------------------------

    def _corner_positions(self, positions):
        pos = positions[self.tri].copy()
        if self.target == "heisenberg":
            pos[:, :, 0] += self.corner_phi_offsets
        return pos

    def _frame_edges(self, corners):
        base = corners[:, 0]
        if self.target == "stiefel":
            return base, corners[:, 1] - base, corners[:, 2] - base
        y0 = base[:, 1:]
        e = []
        for c in (1, 2):
            dphi = corners[:, c, 0] - base[:, 0] - hs.omega0(y0, corners[:, c, 1:])
            e.append(np.concatenate([dphi[:, None], corners[:, c, 1:] - y0], axis=-1))
        return base, e[0], e[1]

    def _face_state(self, positions):
        corners = self._corner_positions(positions)
        base, e1, e2 = self._frame_edges(corners)
        du = self.minv[:, 0, 0, None] * e1 + self.minv[:, 1, 0, None] * e2
        dv = self.minv[:, 0, 1, None] * e1 + self.minv[:, 1, 1, None] * e2
        g11 = np.sum(du * du, axis=-1)
        g12 = np.sum(du * dv, axis=-1)
        g22 = np.sum(dv * dv, axis=-1)
        w = wedge_nd(du, dv)
        wnorm = np.sqrt(np.maximum(np.sum(w * w, axis=-1), 1e-300))
        t = w / wnorm[:, None]
        det = g11 * g22 - g12 * g12
        ginv = np.empty((len(du), 2, 2))
        ginv[:, 0, 0] = g22
        ginv[:, 1, 1] = g11
        ginv[:, 0, 1] = -g12
        ginv[:, 1, 0] = -g12
        with np.errstate(divide="ignore", invalid="ignore"):
            # degenerate faces are rejected by the caller-side check
            ginv /= det[:, None, None]
        return dict(
            corners=corners, base=base, e1=e1, e2=e2, du=du, dv=dv,
            g=np.stack([g11, g12, g22], axis=-1), det=det, ginv=ginv,
            w=w, wnorm=wnorm, t=t, area=self.uv_area * wnorm,
        )

    def _gauss_gradients(self, state):
        """Per-face parameter gradient A (2, K2) of the Gauss field and |dT|^2_g."""
        t = state["t"]
        ginv = state["ginv"]
        a_list = (self.stencil @ t).reshape(len(t), 2, self.k2)
        quad = np.einsum("fab,fai,fbi->f", ginv, a_list, a_list)
        return a_list, quad

    # -- public evaluations -----------------------------------------------

    def energy(self, positions, eps, check_degenerate=False):
        state = self._face_state(positions)
        if check_degenerate:
            scale = np.maximum(state["g"][:, 0] + state["g"][:, 2], 1e-300)
            bad = np.where(state["wnorm"] <= 1e-12 * scale)[0]
            if bad.size:
                from .errors import DegenerateFaceError

                raise DegenerateFaceError(int(bad[0]))
        _, quad = self._gauss_gradients(state)
        area = float(np.sum(state["area"]))
        penalty = float(eps**4 * np.sum((1.0 + quad) ** 2 * state["area"]))
        log_term = np.log(1.0 / eps) if eps < 1.0 else 1.0
        return EnergyBreakdown(area, penalty, area + penalty, penalty * log_term)

    def first_variation(self, positions, eps, w_field):
        """Directional derivative along a (tangent-projected) vertex field.

        Assembled from the metric variation dg_ab = <d_a w, d_b L> + <d_a L,
        d_b w>, the volume variation <dw . dL>_g dvol, and the Gauss-map
        variation dT = (d_u w ^ d_v L + d_u L ^ d_v w)/|W| - <...> T.
        """
        w_field = project_field(self.target, positions, np.asarray(w_field, float))
        state = self._face_state(positions)
        a_list, quad = self._gauss_gradients(state)
        e1_dot, e2_dot = self._frame_edge_dots(positions, w_field)
        du_dot = self.minv[:, 0, 0, None] * e1_dot + self.minv[:, 1, 0, None] * e2_dot
        dv_dot = self.minv[:, 0, 1, None] * e1_dot + self.minv[:, 1, 1, None] * e2_dot
        du, dv = state["du"], state["dv"]
        g11_dot = 2.0 * np.sum(du_dot * du, axis=-1)
        g12_dot = np.sum(du_dot * dv, axis=-1) + np.sum(du * dv_dot, axis=-1)
        g22_dot = 2.0 * np.sum(dv_dot * dv, axis=-1)
        w_dot = wedge_nd(du_dot, dv) + wedge_nd(du, dv_dot)
        t = state["t"]
        wnorm_dot = np.sum(t * w_dot, axis=-1)
        area_dot = self.uv_area * wnorm_dot
        t_dot = (w_dot - wnorm_dot[:, None] * t) / state["wnorm"][:, None]
        # dT gradient variation: neighbour differences of t_dot, then the
        # inverse-metric variation.
        a_dot = (self.stencil @ t_dot).reshape(a_list.shape)
        ginv = state["ginv"]
        g_dot = np.stack(
            [
                np.stack([g11_dot, g12_dot], axis=-1),
                np.stack([g12_dot, g22_dot], axis=-1),
            ],
            axis=-2,
        )
        ginv_dot = -np.einsum("fab,fbc,fcd->fad", ginv, g_dot, ginv)
        quad_dot = np.einsum("fab,fai,fbi->f", ginv_dot, a_list, a_list)
        quad_dot += 2.0 * np.einsum("fab,fai,fbi->f", ginv, a_dot, a_list)
        de = np.sum(area_dot)
        de += eps**4 * np.sum(
            2.0 * (1.0 + quad) * quad_dot * state["area"] + (1.0 + quad) ** 2 * area_dot
        )
        return float(de)

    def gradient(self, positions, eps) -> FirstVariation:
        """Exact differential of the discrete energy, projected to tangents."""
        state = self._face_state(positions)
        a_list, quad = self._gauss_gradients(state)
        n_f = len(self.tri)
        s_area = 1.0 + eps**4 * (1.0 + quad) ** 2
        s_quad = eps**4 * 2.0 * (1.0 + quad) * state["area"]
        ginv = state["ginv"]

        # d|dT|^2/dA and the inverse-metric adjoint.
        a_bar = 2.0 * s_quad[:, None, None] * np.einsum("fab,fbi->fai", ginv, a_list)
        aat = np.einsum("fai,fbi->fab", a_list, a_list)
        g_bar_mat = -np.einsum("f,fab,fbc,fcd->fad", s_quad, ginv, aat, ginv)

        # Through the differencing stencil into per-face Gauss adjoints.
        t_bar = self.stencil_t @ a_bar.reshape(2 * n_f, self.k2)

        t = state["t"]
        wnorm = state["wnorm"]
        w_bar = (t_bar - np.sum(t_bar * t, axis=-1, keepdims=True) * t) / wnorm[:, None]
        w_bar += (s_area * self.uv_area)[:, None] * t

        du, dv = state["du"], state["dv"]
        du_bar = np.zeros_like(du)
        dv_bar = np.zeros_like(dv)
        i_idx, j_idx = self._pairs[:, 0], self._pairs[:, 1]
        np.add.at(du_bar, (slice(None), i_idx), w_bar * dv[:, j_idx])
        np.add.at(du_bar, (slice(None), j_idx), -w_bar * dv[:, i_idx])
        np.add.at(dv_bar, (slice(None), j_idx), w_bar * du[:, i_idx])
        np.add.at(dv_bar, (slice(None), i_idx), -w_bar * du[:, j_idx])

        g11_bar = g_bar_mat[:, 0, 0]
        g12_bar = g_bar_mat[:, 0, 1] + g_bar_mat[:, 1, 0]
        g22_bar = g_bar_mat[:, 1, 1]
        du_bar += 2.0 * g11_bar[:, None] * du + g12_bar[:, None] * dv
        dv_bar += 2.0 * g22_bar[:, None] * dv + g12_bar[:, None] * du

        e1_bar = self.minv[:, 0, 0, None] * du_bar + self.minv[:, 0, 1, None] * dv_bar
        e2_bar = self.minv[:, 1, 0, None] * du_bar + self.minv[:, 1, 1, None] * dv_bar

        grad = np.zeros_like(positions)
        self._scatter_edge_adjoints(positions, state, e1_bar, e2_bar, grad)
        if self.target == "stiefel":
            a, b = positions[:, :4], positions[:, 4:]
            gv, gw = st.project_tangent_raw(a, b, grad[:, :4], grad[:, 4:])
            grad = np.concatenate([gv, gw], axis=-1)
        return FirstVariation(covector=grad, target=self.target)

    # -- internals ---------------------------------------------------------

    def _frame_edge_dots(self, positions, w_field):
        wc = w_field[self.tri]
        if self.target == "stiefel":
            return wc[:, 1] - wc[:, 0], wc[:, 2] - wc[:, 0]
        corners = self._corner_positions(positions)
        y0 = corners[:, 0, 1:]
        w0y = wc[:, 0, 1:]
        out = []
        for c in (1, 2):
            yi = corners[:, c, 1:]
            dphi_dot = (
                wc[:, c, 0]
                - wc[:, 0, 0]
                - hs.omega0(w0y, yi)
                - hs.omega0(y0, wc[:, c, 1:])
            )
            out.append(
                np.concatenate([dphi_dot[:, None], wc[:, c, 1:] - w0y], axis=-1)
            )
        return out[0], out[1]

    def _scatter_edge_adjoints(self, positions, state, e1_bar, e2_bar, grad):
        tri = self.tri
        if self.target == "stiefel":
            np.add.at(grad, tri[:, 1], e1_bar)
            np.add.at(grad, tri[:, 2], e2_bar)
            np.add.at(grad, tri[:, 0], -(e1_bar + e2_bar))
            return
        corners = state["corners"]
        y0 = corners[:, 0, 1:]
        for c, e_bar in ((1, e1_bar), (2, e2_bar)):
            yi = corners[:, c, 1:]
            f0 = e_bar[:, 0]
            fy = e_bar[:, 1:]
            gi = np.concatenate(
                [f0[:, None], fy - f0[:, None] * hs.jc2(y0)], axis=-1
            )
            g0 = np.concatenate(
                [-f0[:, None], -fy + f0[:, None] * hs.jc2(yi)], axis=-1
            )
            np.add.at(grad, tri[:, c], gi)
            np.add.at(grad, tri[:, 0], g0)


# ---------------------------------------------------------------------------
# module-level operations


def energy(imm: DiscreteImmersion, eps: float) -> EnergyBreakdown:
    if not eps > 0:
        raise GeometryDomainError("eps must be positive")
    return EnergyAssembler(imm).energy(imm.positions, eps, check_degenerate=True)


def first_variation(imm: DiscreteImmersion, eps: float, w_field) -> float:
    return EnergyAssembler(imm).first_variation(imm.positions, eps, w_field)


def gradient(imm: DiscreteImmersion, eps: float) -> FirstVariation:
    return EnergyAssembler(imm).gradient(imm.positions, eps)


def hamiltonian_deformation(imm: DiscreteImmersion, spec: HamiltonianSpec, convention="thm1"):
    """The Hamiltonian field sampled at the vertices, tangent to the target."""
    p = imm.positions
    return fields.hamiltonian_field(imm.target, spec.h(p), spec.grad(p), p, convention)


# ---------------------------------------------------------------------------
# constrained flow


def _reeb_directions(imm, positions):
    if imm.target == "stiefel":
        rv, rw = st.reeb_raw(positions[:, :4], positions[:, 4:])
        return np.concatenate([rv, rw], axis=-1)
    out = np.zeros_like(positions)
    out[:, 0] = 1.0
    return out


def _edge_residual_pair(imm, p_tail, p_head, offsets):
    delta = p_head - p_tail
    if imm.target == "stiefel":
        am, bm = st.retract_raw(
            0.5 * (p_tail[:, :4] + p_head[:, :4]), 0.5 * (p_tail[:, 4:] + p_head[:, 4:])
        )
        return st.alpha_raw(am, bm, delta[:, :4], delta[:, 4:])
    d0 = delta[:, 0] + offsets
    y_mid = 0.5 * (p_tail[:, 1:] + p_head[:, 1:])
    return -d0 + hs.omega0(y_mid, delta[:, 1:])


def _edge_phi_offsets(imm):
    m = imm.mesh
    if imm.target != "heisenberg" or m.uv_periods is None or m.uv is None:
        return np.zeros(len(m.edges))
    tails, heads = m.edges[:, 0], m.edges[:, 1]
    w = m.wraps(m.uv[tails], m.uv[heads])
    return -(w[:, 0] * imm.phi_monodromy[0] + w[:, 1] * imm.phi_monodromy[1])


def restore_constraint(imm: DiscreteImmersion, max_iters=5, tol=None, fd_step=1e-7):
    """Gauss-Newton restoration of the per-edge Legendrian residuals.

    Corrections move vertices along the Reeb direction, the one direction the
    contact form does not annihilate, so each edge residual is first-order
    controllable by its endpoints.
    """
    tol = imm.legendrian_tol if tol is None else tol
    m = imm.mesh
    tails, heads = m.edges[:, 0], m.edges[:, 1]
    offsets = _edge_phi_offsets(imm)
    positions = imm.positions.copy()
    before = legendrian_residual(imm.with_positions(positions)).max
    n_e, n_v = len(m.edges), m.n_vertices
    rows = np.concatenate([np.arange(n_e), np.arange(n_e)])
    cols = np.concatenate([tails, heads])
    res_max = before
    last_norm = np.inf
    for _ in range(max_iters):
        r = _edge_residual_pair(imm, positions[tails], positions[heads], offsets)
        res_max = float(np.max(np.abs(r))) if len(r) else 0.0
        r_norm = float(np.linalg.norm(r))
        if res_max <= tol or r_norm > 0.999 * last_norm:
            break  # done, or at the least-squares floor of vertical corrections
        last_norm = r_norm
        reeb = _reeb_directions(imm, positions)

        def moved(pset, idx, s):
            return fields.move(imm.target, pset, s * fd_step * reeb[idx])

        jt = (
            _edge_residual_pair(imm, moved(positions[tails], tails, +1), positions[heads], offsets)
            - _edge_residual_pair(imm, moved(positions[tails], tails, -1), positions[heads], offsets)
        ) / (2 * fd_step)
        jh = (
            _edge_residual_pair(imm, positions[tails], moved(positions[heads], heads, +1), offsets)
            - _edge_residual_pair(imm, positions[tails], moved(positions[heads], heads, -1), offsets)
        ) / (2 * fd_step)
        jac = sp.csr_matrix((np.concatenate([jt, jh]), (rows, cols)), shape=(n_e, n_v))
        normal = (jac.T @ jac + 1e-14 * sp.identity(n_v)).tocsc()
        sol = spla.spsolve(normal, -jac.T @ r)
        positions = fields.move(imm.target, positions, sol[:, None] * reeb)
        r = _edge_residual_pair(imm, positions[tails], positions[heads], offsets)
        res_max = float(np.max(np.abs(r))) if len(r) else 0.0
    if res_max > tol:
        raise StepRejectedError(
            f"constraint restoration stalled at {res_max:.3e} > {tol:.3e}",
            residual_before=before,
            residual_after=res_max,
        )
    return imm.with_positions(positions), before, res_max


def flow_step(imm: DiscreteImmersion, w_field, tau: float, report: dict = None) -> DiscreteImmersion:
    """Move vertices by tau * w, retract, and restore the Legendrian gate.

    When ``report`` is a dict it receives the residuals before and after the
    restoration.
    """
    if not tau > 0:
        raise GeometryDomainError("step size must be positive")
    w_field = np.asarray(w_field, float)
    if not w_field.any():
        if report is not None:
            base = legendrian_residual(imm).max
            report.update(residual_before_restore=base, residual_after_restore=base)
        return imm
    moved = imm.with_positions(fields.move(imm.target, imm.positions, tau * w_field))
    restored, before, after = restore_constraint(moved)
    if report is not None:
        report.update(residual_before_restore=before, residual_after_restore=after)
    return restored


def pre_restoration_residual(imm: DiscreteImmersion, w_field, tau: float) -> float:
    """Residual growth of a raw (unrestored) step; the order-in-tau witness."""
    moved = imm.with_positions(fields.move(imm.target, imm.positions, tau * np.asarray(w_field)))
    base = legendrian_residual(imm).values
    after = legendrian_residual(moved).values
    return float(np.max(np.abs(after - base)))


# ---------------------------------------------------------------------------
# Hamiltonian projection of descent directions


def _vertical_scale_sq(target):
    # |vertical vector with alpha-value 2|^2: |-R|^2 = 2 or |-2 d/dphi|^2 = 4.
    return 2.0 if target == "stiefel" else 4.0


def hamiltonian_map(imm: DiscreteImmersion, fd: FaceData | None = None):
    """Sparse map from a vertex scalar u to the normal Hamiltonian field.

    The normal parts of Hamiltonian deformations along a Legendrian surface
    form the family J grad^S(u) + vertical(2u); this assembles that family as
    a matrix producing per-vertex frame components (surface gradients are
    face-wise, averaged to vertices with area weights).
    """
    m = imm.mesh
    fd = fd or FaceData(imm)
    tri = m.triangles
    n_v = m.n_vertices
    k = imm.positions.shape[1]
    wsum = np.zeros(n_v)
    for c in range(3):
        np.add.at(wsum, tri[:, c], fd.area)
    wsum = np.maximum(wsum, 1e-300)

    # hat-function surface gradients per face and source corner
    hat_params = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    gvecs = []
    for c in range(3):
        coef = np.einsum("fij,i->fj", fd.minv, hat_params[c])
        gcoef = np.einsum("fab,fb->fa", fd.ginv, coef)
        gvecs.append(gcoef[:, 0, None] * fd.du + gcoef[:, 1, None] * fd.dv)

    rows, cols, vals = [], [], []
    for c_recv in range(3):
        recv = tri[:, c_recv]
        weight = (fd.area / wsum[recv])[:, None]
        for c_src in range(3):
            block = weight * j_frame(
                imm, horizontal_part(imm, imm.positions[recv], gvecs[c_src])
            )
            for comp in range(k):
                rows.append(recv * k + comp)
                cols.append(tri[:, c_src])
                vals.append(block[:, comp])
    vert = vertical_unit(imm, imm.positions)
    vert_coef = -np.sqrt(_vertical_scale_sq(imm.target))
    for comp in range(k):
        rows.append(np.arange(n_v) * k + comp)
        cols.append(np.arange(n_v))
        vals.append(vert_coef * vert[:, comp])
    b_mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_v * k, n_v),
    ).tocsr()
    return b_mat


def _covector_frame_adjoint(imm, cov):
    """Rewrite a position covector so it pairs against frame components."""
    cov = np.asarray(cov, float)
    if imm.target == "stiefel":
        return cov.copy()
    y = imm.positions[:, 1:]
    out = cov.copy()
    # ambient phi-component of a frame field is c0 + omega0(y, c_y)
    out[:, 1:] += cov[:, 0, None] * hs.jc2(y)
    return out


def hamiltonian_project(imm: DiscreteImmersion, covector, fd: FaceData | None = None):
    """Project the energy differential onto Hamiltonian fields, area-weighted L2.

    Solves min_u sum_v A_v |(B u)_v - cov_v / A_v|^2 so the result is the
    Riesz gradient field within the Hamiltonian family; pairing the covector
    against it equals u' (B' D_A B) u >= 0, so its negative always descends.
    """
    fd = fd or FaceData(imm)
    b_mat = hamiltonian_map(imm, fd)
    m = imm.mesh
    n_v = m.n_vertices
    gtilde = _covector_frame_adjoint(imm, covector).ravel()
    rhs = b_mat.T @ gtilde
    # The area Hessian along Hamiltonian fields is a Dirichlet form in u (the
    # pairing identity <dA, X_u> = 2 int <du, d beta>), so the cot stiffness
    # plus scaled mass is a natural quasi-Newton preconditioner; it is SPD,
    # hence the covector pairs nonnegatively with B u and -B u descends.
    weights, areas = cotangent_weights(imm, fd)
    tails, heads = m.edges[:, 0], m.edges[:, 1]
    lap = sp.coo_matrix(
        (
            np.concatenate([weights, weights, -weights, -weights]),
            (
                np.concatenate([tails, heads, tails, heads]),
                np.concatenate([tails, heads, heads, tails]),
            ),
        ),
        shape=(n_v, n_v),
    ).tocsr()
    a_mat = (2.0 * lap + sp.diags(_vertical_scale_sq(imm.target) * areas)).tocsc()
    u = spla.spsolve(a_mat, rhs)
    w_frame = (b_mat @ u).reshape(imm.positions.shape)
    return u, _unframe_field(imm, w_frame)


def _frame_field(imm, ambient_field):
    """Frame components of a per-vertex ambient field at its own vertex."""
    w = np.asarray(ambient_field, float)
    if imm.target == "stiefel":
        return w.copy()
    c0 = w[:, 0] - hs.omega0(imm.positions[:, 1:], w[:, 1:])
    return np.concatenate([c0[:, None], w[:, 1:]], axis=-1)


def _unframe_field(imm, frame_field):
    if imm.target == "stiefel":
        return frame_field
    x0 = frame_field[:, 0] + hs.omega0(imm.positions[:, 1:], frame_field[:, 1:])
    return np.concatenate([x0[:, None], frame_field[:, 1:]], axis=-1)


# ---------------------------------------------------------------------------
# descent


@dataclass
class DescentOptions:
    tau_init: float = 1e-2
    tau_min: float = 1e-10
    armijo: float = 1e-4
    max_iters: int = 200
    tol_scale: float = 1e-3
    reeb_convention: str = "thm1"
    seed: int = 0


@dataclass
class StageReport:
    eps: float
    iters: int
    energy: EnergyBreakdown
    grad_norm: float
    tol: float
    hit_tolerance: bool

    def to_json(self):
        return {
            "eps": self.eps,
            "iters": self.iters,
            "area": self.energy.area,
            "penalty": self.energy.penalty,
            "total": self.energy.total,
            "entropy_indicator": self.energy.entropy_indicator,
            "grad_norm": self.grad_norm,
            "tol": self.tol,
            "hit_tolerance": self.hit_tolerance,
            "exp_bound_target": float(np.exp(-1.0 / self.eps**2)),
        }


@dataclass
class DescentResult:
    final: DiscreteImmersion
    records: list
    stages: list
    stopped_by_entropy: bool


def _grad_norm(imm, areas, w):
    wn = np.sum(_frame_field(imm, w) ** 2, axis=-1)
    return float(np.sqrt(np.sum(areas * wn) / np.sum(areas)))


def descend(imm: DiscreteImmersion, schedule, opts: DescentOptions = None) -> DescentResult:
    """Constraint-preserving descent of the penalized energy over an eps ladder.

    Each stage runs Armijo line searches along Hamiltonian-projected negative
    gradients until the projected gradient norm reaches the stage tolerance
    max(1e-8, tol_scale * eps^2).  The whole schedule stops early when the
    entropy indicator increases on two consecutive stages.
    """
    opts = opts or DescentOptions()
    schedule = list(schedule)
    if any(e <= 0 for e in schedule) or any(
        b >= a for a, b in zip(schedule, schedule[1:])
    ):
        raise GeometryDomainError("eps schedule must be positive and decreasing")
    current = imm
    records = []
    stages = []
    entropy_prev = None
    entropy_rises = 0
    stopped = False
    assembler = EnergyAssembler(current)
    _, areas = cotangent_weights(current)
    for k, eps in enumerate(schedule):
        tol_k = max(1e-8, opts.tol_scale * eps**2)
        tau = opts.tau_init
        e_cur = assembler.energy(current.positions, eps)
        hit = False
        it = 0
        for it in range(1, opts.max_iters + 1):
            grad = assembler.gradient(current.positions, eps)
            _, w_proj = hamiltonian_project(current, grad.covector)
            gnorm = _grad_norm(current, areas, w_proj)
            if gnorm <= tol_k:
                hit = True
                it -= 1
                break
            direction = -w_proj
            slope = assembler.first_variation(current.positions, eps, direction)
            if slope >= 0:
                hit = True  # projected direction no longer descends: stationary
                it -= 1
                break
            accepted = False
            tau = min(max(tau * 2.0, opts.tau_min), 1e3)
            while tau >= opts.tau_min:
                try:
                    candidate = flow_step(current, direction, tau)
                except (StepRejectedError, DegenerateFaceError):
                    tau *= 0.5
                    continue
                e_new = assembler.energy(candidate.positions, eps)
                if e_new.total <= e_cur.total + opts.armijo * tau * slope:
                    accepted = True
                    break
                tau *= 0.5
            if not accepted:
                raise StageAbortedError(
                    f"stage eps={eps}: no admissible step above tau_min",
                    diagnostics={"eps": eps, "iter": it, "grad_norm": gnorm},
                )
            current = candidate
            e_cur = e_new
            res = legendrian_residual(current)
            records.append(
                {
                    "k": k,
                    "iter": it,
                    "area": e_cur.area,
                    "penalty": e_cur.penalty,
                    "grad_norm": gnorm,
                    "max_leg_residual": res.max,
                    "entropy_indicator": e_cur.entropy_indicator,
                }
            )
        grad = assembler.gradient(current.positions, eps)
        _, w_proj = hamiltonian_project(current, grad.covector)
        gnorm = _grad_norm(current, areas, w_proj)
        stages.append(
            StageReport(
                eps=eps, iters=it, energy=e_cur, grad_norm=gnorm, tol=tol_k,
                hit_tolerance=hit or gnorm <= tol_k,
            )
        )
        if entropy_prev is not None and e_cur.entropy_indicator > entropy_prev:
            entropy_rises += 1
            if entropy_rises >= 2:
                stopped = True
                break
        else:
            entropy_rises = 0
        entropy_prev = e_cur.entropy_indicator
    return DescentResult(final=current, records=records, stages=stages, stopped_by_entropy=stopped)


# ---------------------------------------------------------------------------
# weak stationarity


def weak_stationarity_residual(imm: DiscreteImmersion, n_mult, spec: HamiltonianSpec, f_vals, lam, convention="thm1", support_tol=0.0):
    """The cut-domain pairing of dL against d(X_h o L).

    Faces enter by majority vertex membership in {f > lam}; faces straddling
    the level line must be outside the Hamiltonian's support (localisation),
    otherwise a LocalisationError names the offender.
    """
    m = imm.mesh
    f_vals = np.asarray(f_vals, float)
    n_mult = np.asarray(n_mult, float)
    above = f_vals > lam
    tri = m.triangles
    counts = above[tri].sum(axis=1)
    included = counts >= 2
    straddling = (counts > 0) & (counts < 3)
    h_abs = np.abs(spec.h(imm.positions))
    for fidx in np.where(straddling)[0]:
        if np.any(h_abs[tri[fidx]] > support_tol):
            raise LocalisationError(
                f"face {fidx} straddles the cut level inside the Hamiltonian support",
                face_id=int(fidx),
            )
    w_field = hamiltonian_deformation(imm, spec, convention)
    fd = FaceData(imm)
    wc = _frame_field(imm, w_field)[tri]
    dw1 = wc[:, 1] - wc[:, 0]
    dw2 = wc[:, 2] - wc[:, 0]
    dwu = fd.minv[:, 0, 0, None] * dw1 + fd.minv[:, 1, 0, None] * dw2
    dwv = fd.minv[:, 0, 1, None] * dw1 + fd.minv[:, 1, 1, None] * dw2
    pair = (
        fd.ginv[:, 0, 0] * np.sum(dwu * fd.du, axis=-1)
        + fd.ginv[:, 0, 1] * (np.sum(dwu * fd.dv, axis=-1) + np.sum(dwv * fd.du, axis=-1))
        + fd.ginv[:, 1, 1] * np.sum(dwv * fd.dv, axis=-1)
    )
    face_n = n_mult[tri].mean(axis=1)
    return float(np.sum(pair[included] * face_n[included] * fd.area[included]))
