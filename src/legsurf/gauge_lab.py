"""Gauge fields, the arctan Hamiltonian, monotonicity balances, densities.

Everything is computed on a discrete Legendrian immersion relative to a base
point: the Euclidean distance rho, the Legendrian coordinate phi, the
anisotropic gauge r = (rho^4 + 4 phi^2)^(1/4), the slope sigma = 2 phi / rho^2,
surface and horizontal gradients of all of them, the cut-off Hamiltonian
h = [chi(r/r0) - chi(r/eta)] arctan(sigma), the fourteen-term truncated
balance, sublevel-set density curves, and the kernel-weighted density limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields
from .energy import HamiltonianSpec
from .errors import GeometryDomainError, ResolutionError
from .immersion import edge_chords, mean_curvature_edges
from .mesh import DiscreteImmersion, component_count

# ---------------------------------------------------------------------------
# cut-off bump: quintic smoothstep, C^2, chi' <= 0, -chi' > 1/2 on [5/4, 7/4]

CHI_DESCRIPTION = "quintic smoothstep: chi(t) = 1 - S(t-1) on [1,2], S = 6x^5 - 15x^4 + 10x^3"


def chi(t):
    t = np.asarray(t, float)
    x = np.clip(t - 1.0, 0.0, 1.0)
    s = ((6.0 * x - 15.0) * x + 10.0) * x**3
    return 1.0 - s


def _bump_coordinate(t):
    """x = t - 1 clipped to [0, 1], and where t - 1 lies inside (0, 1)."""
    x = np.asarray(t, float) - 1.0
    return np.clip(x, 0.0, 1.0), (x > 0.0) & (x < 1.0)


def chi_prime(t):
    x, inside = _bump_coordinate(t)
    return np.where(inside, -30.0 * x**2 * (1.0 - x) ** 2, 0.0)


def chi_double_prime(t):
    x, inside = _bump_coordinate(t)
    return np.where(inside, -(60.0 * x - 180.0 * x**2 + 120.0 * x**3), 0.0)


# ---------------------------------------------------------------------------
# pointwise gauge data


def sigma_weight(sigma):
    """(1 + s arctan s) / sqrt(1 + s^2); the pointwise density weight in [1, pi/2]."""
    s = np.asarray(sigma, float)
    out = np.empty(s.shape)
    big = np.abs(s) > 1e8
    out[~big] = (1.0 + s[~big] * np.arctan(s[~big])) / np.sqrt(1.0 + s[~big] ** 2)
    out[big] = np.pi / 2
    return out


@dataclass
class GaugeFields:
    """Per-vertex gauge quantities and per-face tangential gradients of ``imm``."""

    rho: np.ndarray
    phi: np.ndarray
    r: np.ndarray
    sigma: np.ndarray  # nan where rho = 0
    arctan_sigma: np.ndarray  # limit values +-pi/2 at rho = 0
    singular: np.ndarray  # r == 0 vertices, excluded from gradient faces
    grad_h_r: np.ndarray  # per-vertex horizontal gradient of r (frame comps)
    grad_h_arctan: np.ndarray
    face_grad_r: np.ndarray  # per-face parameter gradients (F, 2)
    face_grad_arctan: np.ndarray
    face_ok: np.ndarray  # faces free of singular vertices, branch-consistent
    face_r: np.ndarray  # face averages
    face_sigma_weight: np.ndarray
    face_arctan: np.ndarray
    imm: DiscreteImmersion
    base_p0: np.ndarray = None


def _gauge(geo, p0, points):
    """rho, phi, r, sigma, arctan sigma and the ambient gradients of r and of
    arctan sigma at stacked points about p0.  sigma is nan at rho = 0, where
    arctan sigma takes its limits +-pi/2 (the sign of phi); both gradients
    are 0 where r = 0."""
    rho, phi, r = geo.gauge_scalars(p0, points)
    grad_rho2, grad_phi = geo.gauge_gradients(p0, points)
    r_safe = np.maximum(r, 1e-300)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sigma = np.where(rho > 0, 2.0 * phi / np.maximum(rho, 1e-300) ** 2, np.nan)
        arctan = np.where(rho > 0, np.arctan(np.nan_to_num(sigma)), np.sign(phi) * (np.pi / 2))
        # d r = (rho^2 d rho^2 + 4 phi d phi) / (2 r^3)
        grad_r = (rho[:, None] ** 2 * grad_rho2 + 4.0 * phi[:, None] * grad_phi) / (
            2.0 * r_safe[:, None] ** 3
        )
        # d arctan sigma = 2 (rho^2 / r^4) d phi - (2 / r^4) phi d rho^2
        grad_at = (
            2.0 * rho[:, None] ** 2 * grad_phi - 2.0 * phi[:, None] * grad_rho2
        ) / r_safe[:, None] ** 4
    return rho, phi, r, sigma, arctan, np.nan_to_num(grad_r), np.nan_to_num(grad_at)


def _deck_positions(imm: DiscreteImmersion, p0):
    """The vertex positions of ``imm``, each moved to the deck copy nearest
    the base point p0 in phi (a tie goes to the lower copy), and the index of
    that copy per vertex.

    A lifted torus's copies are moved by s R along the Reeb field R, for the
    seam offsets s of k in {-1, 0, 1}^2 crossings.  On the flat model the
    copy moved by s R has gauge phi - s and the same rho, so one gauge pass
    picks the nearest s.  phi - s rounds unlike phi of the moved point, so
    phi within 1e-9 of a midpoint of two offsets is evaluated at each copy.
    Without monodromy every vertex stays on copy 0.
    """
    geo = imm.geometry
    pos = imm.positions
    wraps = np.array([(k1, k2) for k1 in (-1, 0, 1) for k2 in (-1, 0, 1)])
    offsets = imm.phi_offsets(wraps)
    branch = np.zeros(len(pos), int)
    if offsets is not None:
        shifts = np.unique(-offsets)
        decks = shifts[:, None] * geo.reeb(p0)
        mid = 0.5 * (shifts[1:] + shifts[:-1])
        phi = geo.gauge_scalars(p0, pos)[1]
        branch = np.searchsorted(mid, phi)
        tol = 1e-9 * (1.0 + np.abs(phi))
        tie = np.flatnonzero(np.min(np.abs(phi[:, None] - mid), axis=1) <= tol)
        if tie.size:
            phis = np.stack([geo.gauge_scalars(p0, pos[tie] - d)[1] for d in decks], axis=1)
            branch[tie] = np.argmin(np.abs(phis), axis=1)
        pos = pos - decks[branch]
    return pos, branch


def gauge_fields(imm: DiscreteImmersion, p0) -> GaugeFields:
    geo = imm.geometry
    p0 = geo.point(p0)
    pos, branch = _deck_positions(imm, p0)
    rho, phi, r, sigma, arctan, grad_r_amb, grad_at_amb = _gauge(geo, p0, pos)
    singular = r < 1e-14
    grad_h_r = geo.horizontal_gradient(pos, grad_r_amb)
    grad_h_arctan = geo.horizontal_gradient(pos, grad_at_amb)
    grad_h_r[singular] = np.nan
    grad_h_arctan[singular] = np.nan

    fd = imm.face_data
    tri = imm.mesh.triangles
    face_ok = ~np.any(singular[tri], axis=1)
    # Faces mixing deck branches carry meaningless interpolated gradients.
    face_ok &= np.all(branch[tri] == branch[tri][:, [0]], axis=1)
    face_grad_r = fd.grad_scalar(np.where(singular, 0.0, r))
    face_grad_arctan = fd.grad_scalar(np.where(singular, 0.0, arctan))
    face_r = r[tri].mean(axis=1)
    sigma_for_weight = np.where(np.isnan(sigma), np.inf * np.sign(phi + 1e-300), sigma)
    face_sigma_weight = sigma_weight(sigma_for_weight)[tri].mean(axis=1)
    face_arctan = arctan[tri].mean(axis=1)
    return GaugeFields(
        rho=rho, phi=phi, r=r, sigma=sigma, arctan_sigma=arctan, singular=singular,
        grad_h_r=grad_h_r, grad_h_arctan=grad_h_arctan,
        face_grad_r=face_grad_r, face_grad_arctan=face_grad_arctan,
        face_ok=face_ok, face_r=face_r, face_sigma_weight=face_sigma_weight,
        face_arctan=face_arctan, imm=imm, base_p0=p0,
    )


def gauge_ball(imm: DiscreteImmersion, p0, radius, star=False) -> DiscreteImmersion:
    """The sub-immersion (:meth:`DiscreteImmersion.restrict`) on the faces of
    ``imm`` with a corner at gauge radius < ``radius`` about p0, on the deck
    copies :func:`gauge_fields` measures, or ``imm`` itself when that is every
    face.  ``star`` adds every face sharing a vertex with them, so that each
    corner keeps the full star that vertex quantities (cot-Laplacian, vertex
    areas) read.
    """
    p0 = imm.geometry.point(p0)
    r = imm.geometry.gauge_scalars(p0, _deck_positions(imm, p0)[0])[2]
    tri = imm.mesh.triangles
    keep = np.any(r[tri] < radius, axis=1)
    if star:
        near = np.zeros(len(r), bool)
        near[tri[keep]] = True
        keep = np.any(near[tri], axis=1)
    return imm if keep.all() else imm.restrict(keep)


def gradient_cap_defects(gf: GaugeFields):
    """|grad^S arctan sigma| - 2 / r per face (should stay below an h-slack)."""
    norms = np.sqrt(gf.imm.face_data.pairing(gf.face_grad_arctan, gf.face_grad_arctan))
    return norms - 2.0 / np.maximum(gf.face_r, 1e-300)


def vertex_tangent_frames(imm: DiscreteImmersion):
    """Orthonormal tangent pairs per vertex from area-weighted face partials."""
    fd = imm.face_data
    m = imm.mesh
    corners = m.triangles.T.ravel()
    weighted = np.tile(fd.partials * fd.area, 3)  # (2, k, 3F), corner-major like ``corners``
    acc_u, acc_v = (np.stack([np.bincount(corners, weights=row, minlength=m.n_vertices)
                              for row in rows], axis=1) for rows in weighted)
    t1 = imm.geometry.horizontal(imm.positions, acc_u)
    n1 = np.linalg.norm(t1, axis=-1, keepdims=True)
    t1 = t1 / np.maximum(n1, 1e-300)
    t2 = imm.geometry.horizontal(imm.positions, acc_v)
    t2 = t2 - np.sum(t2 * t1, axis=-1, keepdims=True) * t1
    n2 = np.linalg.norm(t2, axis=-1, keepdims=True)
    t2 = t2 / np.maximum(n2, 1e-300)
    return t1, t2


def structure_defects_vertex(gf: GaugeFields):
    """Vertex version of the structural identity on ``gf.imm``, using analytic gradients.

    The ambient gauge gradients are exact; only the discrete tangent plane is
    approximate, so the defect is not polluted by interpolation noise near
    the base point.
    """
    imm = gf.imm
    t1, t2 = vertex_tangent_frames(imm)
    rho = np.maximum(gf.rho, 1e-300)
    geo = imm.geometry
    # Ambient gradients of rho^2 and phi are independent of the branch shift.
    gr2, gp = geo.gauge_gradients(gf.base_p0, imm.positions)
    g_rho = geo.horizontal_gradient(imm.positions, gr2) / (2.0 * rho[:, None])
    g_phi = geo.horizontal_gradient(imm.positions, gp)
    p_rho = np.sum(g_rho * t1, axis=-1) ** 2 + np.sum(g_rho * t2, axis=-1) ** 2
    p_phi = np.sum(g_phi * t1, axis=-1) ** 2 + np.sum(g_phi * t2, axis=-1) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        out = p_rho + p_phi / rho**2 - 1.0
    out[gf.singular] = np.nan
    return out


def perp_gradient_identity_defects_vertex(gf: GaugeFields):
    """Vertex version of the perpendicular-gradient identity defect on ``gf.imm``."""
    t1, t2 = vertex_tangent_frames(gf.imm)

    def tangent_part(v):
        c1, c2 = (np.sum(v * t, axis=-1, keepdims=True) for t in (t1, t2))
        return c1 * t1 + c2 * t2

    perp = gf.grad_h_r - tangent_part(gf.grad_h_r)
    tang_at = tangent_part(gf.grad_h_arctan)
    j_at = gf.imm.geometry.j(tang_at)
    diff = perp / np.maximum(gf.r, 1e-300)[:, None] - 0.5 * j_at
    out = np.linalg.norm(diff, axis=-1)
    out[gf.singular] = np.nan
    return out


def horizontal_gradient_defects(gf: GaugeFields):
    """|grad_H r|^2 - 1/sqrt(1+sigma^2) per vertex (order r^2 target)."""
    n = np.sum(gf.grad_h_r**2, axis=-1)
    s = gf.sigma
    inv = np.where(np.isnan(s), 0.0, 1.0 / np.sqrt(1.0 + np.nan_to_num(s) ** 2))
    out = n - inv
    out[gf.singular] = np.nan
    return out


# ---------------------------------------------------------------------------
# the cut-off Hamiltonian


def hamiltonian_arctan(target, p0, r0: float, eta: float) -> HamiltonianSpec:
    """h = [chi(r/r0) - chi(r/eta)] arctan(sigma), with analytic first derivatives.

    Supported inside the gauge shell {eta <= r <= 2 r0}.
    """
    if not 0 < eta < r0 < 1:
        raise GeometryDomainError("need 0 < eta < r0 < 1")
    geo = fields.geometry(target)
    p0 = geo.point(p0)

    def gauge(points):
        return _gauge(geo, p0, np.atleast_2d(np.asarray(points, float)))

    def value(points):
        _, _, r, _, atan, _, _ = gauge(points)
        return (chi(r / r0) - chi(r / eta)) * atan

    def grad(points):
        _, _, r, _, atan, grad_r, grad_at = gauge(points)
        bump = chi(r / r0) - chi(r / eta)
        dbump = chi_prime(r / r0) / r0 - chi_prime(r / eta) / eta
        out = dbump[:, None] * atan[:, None] * grad_r + bump[:, None] * grad_at
        out[r < 1e-14] = 0.0
        return out

    return HamiltonianSpec(h=value, grad=grad)


# ---------------------------------------------------------------------------
# truncated balance


@dataclass
class MonotonicityReport:
    r0: float
    eta: float
    lhs_terms: dict
    rhs_terms: dict
    bookkeeping: dict
    residual: float
    annulus_faces: int

    def lhs_total(self):
        return sum(self.lhs_terms.values())

    def rhs_total(self):
        return sum(self.rhs_terms.values())


#: Fewest faces the annulus eta < r < 2 r0 of a balance must hold.
MIN_ANNULUS_FACES = 100


def monotonicity_balance(imm: DiscreteImmersion, p0, r0: float, eta: float) -> MonotonicityReport:
    """Evaluate every displayed term of the truncated balance at scales (r0, eta).

    The order-one and order-r bookkeeping bounds are reported separately with
    explicit constant one; the residual compares only the exact terms.  An
    annulus of fewer than ``MIN_ANNULUS_FACES`` faces raises ResolutionError.

    Every term vanishes where the gauge radius is at least 2 r0, so the
    balance sums over the :func:`gauge_ball` of radius 2 r0 with its one-ring,
    where the mean-curvature one-form's gamma is the whole immersion's.
    """
    if not 0 < eta < r0:
        raise GeometryDomainError("need 0 < eta < r0")
    imm = gauge_ball(imm, p0, 2 * r0, star=True)
    gf = gauge_fields(imm, p0)
    fd = imm.face_data
    ok = gf.face_ok
    area = np.where(ok, fd.area, 0.0)
    rr = np.maximum(gf.face_r, 1e-300)

    in_annulus = (rr > eta) & (rr < 2 * r0) & ok
    n_annulus = int(np.count_nonzero(in_annulus))
    if n_annulus < MIN_ANNULUS_FACES:
        raise ResolutionError(
            f"annulus eta < r < 2 r0 holds only {n_annulus} faces (< {MIN_ANNULUS_FACES})"
        )

    dbeta = _face_one_form(imm, 0.5 * mean_curvature_edges(imm)[0])
    h_vals = (chi(gf.r / r0) - chi(gf.r / eta)) * gf.arctan_sigma  # hamiltonian_arctan's h
    dh = fd.grad_scalar(np.where(gf.singular, 0.0, h_vals))
    pair_dh_dbeta = fd.pairing(dh, dbeta)

    grad_r_sq = fd.pairing(gf.face_grad_r, gf.face_grad_r)
    grad_at_sq = fd.pairing(gf.face_grad_arctan, gf.face_grad_arctan)
    cross = fd.pairing(gf.face_grad_r, gf.face_grad_arctan)
    tri = imm.mesh.triangles
    # sigma arctan sigma / sqrt(1+sigma^2) = weight - 1/sqrt(1+sigma^2)
    sig_face = gf.sigma[tri]
    with np.errstate(invalid="ignore"):
        inv_sqrt_face = np.where(np.isnan(sig_face), 0.0, 1.0 / np.sqrt(1.0 + sig_face**2)).mean(axis=1)
    s_atan_w = gf.face_sigma_weight - inv_sqrt_face

    grad_h_face = np.nanmean(gf.grad_h_r[tri], axis=1)
    coef = np.einsum("fab,fb->fa", fd.ginv, gf.face_grad_r)
    grad_s_vec = coef[:, 0, None] * fd.du + coef[:, 1, None] * fd.dv
    perp_sq = np.maximum(
        np.sum(grad_h_face**2, axis=-1) - np.sum(grad_s_vec * grad_s_vec, axis=-1), 0.0
    )
    perp_sq = np.where(ok, np.nan_to_num(perp_sq), 0.0)

    at = gf.face_arctan
    xr, xe = rr / r0, rr / eta
    cr, ce = chi_prime(xr), chi_prime(xe)
    c2r, c2e = chi_double_prime(xr), chi_double_prime(xe)
    band = chi(xr) - chi(xe)

    def integ(values):
        return float(np.sum(np.where(ok, values, 0.0) * area))

    lhs = {
        "dh_dbeta": integ(pair_dh_dbeta),
        "ring_r_grad": integ(-xr * cr * grad_r_sq / rr**2),
        "ring_r_weight": integ(-xr * cr * s_atan_w / rr**2),
        "chi2_cross_r": integ(0.25 * xr**2 * c2r * at * cross / rr),
        "chi1_cross_r": integ(-0.75 * xr * cr * at * cross / rr),
        "chi1_sigma_r": integ(0.25 * xr * cr * grad_at_sq),
    }
    rhs = {
        "perp_annulus": integ(4.0 * band * perp_sq / rr**2),
        "ring_eta_grad": integ(-xe * ce * grad_r_sq / rr**2),
        "ring_eta_weight": integ(-xe * ce * s_atan_w / rr**2),
        "chi1_sigma_eta": integ(4.0 * xe * ce * grad_at_sq),
        "chi1_cross_eta": integ(-0.75 * xe * ce * at * cross / rr),
        "chi2_cross_eta": integ(0.25 * xe**2 * c2e * at * cross / rr),
    }
    bookkeeping = {
        "order1_band": integ(np.abs(band)),
        "order_r_ring_r": integ(xr * np.abs(cr)),
        "order_r_ring_eta": integ(xe * np.abs(ce)),
    }
    lhs_total = sum(lhs.values())
    rhs_total = sum(rhs.values())
    residual = abs(lhs_total - rhs_total) / max(abs(lhs_total), abs(rhs_total), 1e-30)
    return MonotonicityReport(
        r0=r0, eta=eta, lhs_terms=lhs, rhs_terms=rhs, bookkeeping=bookkeeping,
        residual=residual, annulus_faces=n_annulus,
    )


def _face_one_form(imm, edge_values):
    """Per-face parameter coefficients (F, 2) of a one-form given by edge integrals."""
    m = imm.mesh
    # Local edge 2 runs corner 0 -> 1 and local edge 1 corner 2 -> 0.
    d = m.face_edge_signs[:, [2, 1]] * edge_values[m.face_edges[:, [2, 1]]] * [1.0, -1.0]
    return imm.face_data.differential(d)


# ---------------------------------------------------------------------------
# density curves


@dataclass
class DensityCurve:
    base_point: np.ndarray
    radii: np.ndarray
    ratios: np.ndarray
    counts: np.ndarray
    excluded: list  # radii below the resolvable scale, with a warning
    min_radius: float  # the cut that excluded them


def tri_sublevel_fraction(r_vals, s):
    """Area fraction of a triangle where the linear interpolant of r is < s.

    The corner values r0 <= r1 <= r2 of each row of ``r_vals`` (..., 3) are
    picked by a min/max network: the floats ``np.sort`` returns, unsorted."""
    x, y, z = r_vals[..., 0], r_vals[..., 1], r_vals[..., 2]
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    r0, r1, r2 = np.minimum(lo, z), np.maximum(lo, np.minimum(hi, z)), np.maximum(hi, z)
    frac = np.zeros(r0.shape)
    frac[s >= r2] = 1.0
    # Each branch is evaluated on its own faces only, where s lies within the
    # face's range of r: a radius far beyond the mesh enters no square.
    two_in = (s >= r1) & (s < r2)
    a, b, c = r0[two_in], r1[two_in], r2[two_in]
    frac[two_in] = 1.0 - (c - s) ** 2 / np.maximum((c - a) * (c - b), 1e-300)
    one_in = (s > r0) & (s < r1)
    a, b, c = r0[one_in], r1[one_in], r2[one_in]
    frac[one_in] = (s - a) ** 2 / np.maximum((b - a) * (c - a), 1e-300)
    return frac


def resolvable_radius(imm: DiscreteImmersion):
    """Three median frame edge lengths (of :func:`~legsurf.immersion.edge_chords`):
    the smallest radius worth measuring."""
    return 3.0 * float(np.median(np.linalg.norm(edge_chords(imm), axis=-1)))


def density_curve(gf: GaugeFields, radii, min_radius=None) -> DensityCurve:
    """s -> Area({r_gauge < s}) / s^2 by exact clipping of linear interpolants,
    on the gauge fields of an immersion about its base point.

    Radii (all > 0) under three median edge lengths (:func:`resolvable_radius`)
    are excluded with a warning entry; pass ``min_radius`` >= 0 to override
    the cut (coarse-resolution studies).  On gauge fields of a
    :func:`gauge_ball` patch pass the whole immersion's cut: the default
    would measure the patch's edges.
    """
    imm = gf.imm
    fd = imm.face_data
    r_corners = gf.r[imm.mesh.triangles]
    radii = np.asarray(sorted(radii, reverse=True), float)
    min_s = resolvable_radius(imm) if min_radius is None else float(min_radius)
    if not (min_s >= 0 and np.all(radii > 0)):
        raise GeometryDomainError(f"need radii > 0, min_radius >= 0; got {radii.tolist()}, {min_s}")
    ratios, counts, kept, excluded = [], [], [], []
    for s in radii:
        if s < min_s:
            excluded.append(float(s))
            continue
        area = float(np.sum(tri_sublevel_fraction(r_corners, s) * fd.area))
        with np.errstate(over="ignore"):  # s**2 = inf past 1e154 makes the ratio 0
            ratios.append(area / s**2)
        counts.append(_component_count(imm, gf.r, s))
        kept.append(float(s))
    return DensityCurve(
        base_point=gf.base_p0,
        radii=np.asarray(kept),
        ratios=np.asarray(ratios),
        counts=np.asarray(counts, int),
        excluded=excluded,
        min_radius=min_s,
    )


def _component_count(imm, r_vals, s):
    """Connected components of the subgraph induced by the vertices with r < s."""
    inside = r_vals < s
    edges = imm.mesh.edges
    kept = edges[inside[edges[:, 0]] & inside[edges[:, 1]]]
    return component_count(np.count_nonzero(inside), (np.cumsum(inside) - 1)[kept])


# ---------------------------------------------------------------------------
# kernel-weighted density


def polynomial_kernel(a: float, b: float):
    """A C^2 bump supported on [a, b] with unit integral: x^3 (1-x)^3 scaled."""
    if not 0 < a < b:
        raise GeometryDomainError("kernel support must sit inside (0, inf)")
    norm = 140.0 / (b - a)  # 1 / integral of x^3 (1-x)^3

    def kernel(t):
        x = (np.asarray(t, float) - a) / (b - a)
        inside = (x > 0) & (x < 1)
        x = np.clip(x, 0.0, 1.0)
        return np.where(inside, norm * x**3 * (1.0 - x) ** 3, 0.0)

    return kernel


DEFAULT_KERNELS = {
    "half_to_three_half": (0.5, 1.5),
    "quarter_to_one": (0.25, 1.0),
}
THETA0_KERNEL = DEFAULT_KERNELS["half_to_three_half"]  # theta0_estimate's default support


def theta0_estimate(gf: GaugeFields, kernel=None, eta=None):
    """Kernel-weighted gauge density at the smallest resolvable scale, on the
    gauge fields of an immersion about its base point.

    ``eta`` defaults to :func:`resolvable_radius` of the immersion; on a
    :func:`gauge_ball` patch pass the whole immersion's, and keep the faces
    out to ``THETA0_KERNEL[1] * eta``, where the default kernel ends.  Returns
    (theta0, multiplicity_estimate, distance_to_integer, eta_used).
    """
    if kernel is None:
        kernel = polynomial_kernel(*THETA0_KERNEL)
    if eta is None:
        eta = resolvable_radius(gf.imm)
    rr = np.maximum(gf.face_r, 1e-300)
    vals = (eta / rr) * kernel(rr / eta) * gf.face_sigma_weight
    theta0 = float(np.sum(np.where(gf.face_ok, vals, 0.0) * gf.imm.face_data.area) / eta**2)
    mult = theta0 / (2.0 * np.pi)
    return theta0, mult, abs(mult - round(mult)), float(eta)


def smooth_gauge_bump(target, p0, radius, tilt=0.0):
    """A C^2 Hamiltonian supported in the gauge ball of the given radius.

    Built on the fourth power of the gauge, which is polynomial in the
    ambient coordinates, so the bump is smooth across the base point;
    ``tilt`` mixes in a linear factor to break radial symmetry.
    """
    geo = fields.geometry(target)
    p0 = geo.point(p0)
    r4cap = float(radius) ** 4

    def parts(points):
        points = np.atleast_2d(np.asarray(points, float))
        rho, phi, _ = geo.gauge_scalars(p0, points)
        r4 = rho**4 + 4.0 * phi**2
        core = np.maximum(0.0, 1.0 - r4 / r4cap)
        lin = 1.0 + tilt * (points[..., 1] - p0[1])
        return points, rho, phi, r4, core, lin

    def value(points):
        _, _, _, _, core, lin = parts(points)
        return core**3 * lin

    def grad(points):
        points, rho, phi, r4, core, lin = parts(points)
        grad_rho2, grad_phi = geo.gauge_gradients(p0, points)
        grad_r4 = 2.0 * rho[:, None] ** 2 * grad_rho2 + 8.0 * phi[:, None] * grad_phi
        out = (-3.0 * core**2 / r4cap * lin)[:, None] * grad_r4
        out[:, 1] += core**3 * tilt
        out[core <= 0.0] = 0.0
        return out

    return HamiltonianSpec(h=value, grad=grad)
