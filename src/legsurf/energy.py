"""Penalized area energy, exact first variation, constrained flow, descent.

The energy of an immersion is area plus ``eps^4 * integral (1 + |dT|^2_g)^2``
where T is the per-face unit Gauss 2-vector in frame components and its
gradient is estimated from neighbour-face differences with fixed
parameter-space weights.  Because those weights are constant, the discrete
energy is a smooth closed-form function of the vertex positions; the
gradient returned here is its exact differential (assembled in reverse),
and the directional first variation is that gradient paired with the field.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from numbers import Integral

import numpy as np

from .errors import (
    DegenerateFaceError,
    DegenerateFrameError,
    GeometryDomainError,
    LocalisationError,
    StageAbortedError,
    StepRejectedError,
)
from .immersion import cotangent_weights, legendrian_residual, wedge_rows_adjoint
from .mesh import DiscreteImmersion, seam_differences


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
    """Per-vertex covector, already tangent, so pairing projects the field to tangents."""

    covector: np.ndarray

    def pair(self, w):
        return float(np.sum(self.covector * w))


@dataclass
class HamiltonianSpec:
    """Scalar Hamiltonian with derivatives on the target.

    ``h`` and ``grad`` accept stacked ambient coordinates.
    """

    h: callable
    grad: callable


# ---------------------------------------------------------------------------
# assembler


class EnergyAssembler:
    """Energy, gradient and first variation at immersions of one mesh.

    It holds the mesh's triangles and the target geometry only.  The
    Gauss-map stencil is the mesh's (:attr:`SurfaceMesh.gauss_stencil`) and
    an iterate's Gauss gradients are its own FaceData's
    (:attr:`FaceData.gauss_gradients`), so the energy, gradient and first
    variation of one iterate share one evaluation, whoever asks for them.
    """

    def __init__(self, imm: DiscreteImmersion):
        self.tri = imm.mesh.triangles
        self.geometry = imm.geometry

    def energy(self, imm, eps):
        fd = imm.face_data
        quad = fd.gauss_gradients[2]
        area = float(np.sum(fd.area))
        penalty = float(eps**4 * np.sum((1.0 + quad) ** 2 * fd.area))
        log_term = np.log(1.0 / eps) if eps < 1.0 else 1.0
        return EnergyBreakdown(area, penalty, area + penalty, penalty * log_term)

    def first_variation(self, imm, eps, w_field):
        """Directional derivative along a vertex field, projected to tangents:
        the pairing of :meth:`gradient` with it."""
        w_field = self.geometry.tangent(imm.positions, np.asarray(w_field, float))
        return self.gradient(imm, eps).pair(w_field)

    def gradient(self, imm, eps) -> FirstVariation:
        """Exact differential of the discrete energy, projected to tangents.

        Reverse mode over :class:`FaceData`'s component-major rows.  The 2x2
        contractions with component rows are two-operand einsums over the
        contiguous face axis (faster than the same products written out
        entry by entry); the 2x2 products of per-face scalars are written
        out (:func:`_matmul2`)."""
        fd = imm.face_data
        a_list, aat, quad = fd.gauss_gradients
        ginv = fd.ginv.T  # (2, 2, F), symmetric
        s_area = 1.0 + eps**4 * (1.0 + quad) ** 2
        s_quad = eps**4 * 2.0 * (1.0 + quad) * fd.area

        # d|dT|^2/dA = 2 ginv A, then through the differencing stencil (its
        # row 2f + a is derivative a of face f) into per-face Gauss adjoints.
        a_bar = np.einsum("abf,ibf->iaf", (2.0 * s_quad) * ginv, a_list.T)
        k2, _, n_f = a_bar.shape
        t_bar = imm.mesh.gauss_stencil_t @ np.ascontiguousarray(a_bar.T).reshape(2 * n_f, k2)

        # Through the normalisation T = W / |W|:
        # W_bar = (T_bar - (T_bar . T) T) / |W| + s_area uv_area T.
        t = fd.gauss.T
        w_bar = np.ascontiguousarray(t_bar.T)
        w_bar /= fd.wnorm
        w_bar += (s_area * fd.uv_area - np.einsum("if,if->f", w_bar, t)) * t

        # Through the wedge W = du ^ dv and the metric g of P = (du, dv).  The
        # inverse-metric adjoint is G = -s_quad ginv (A A^T) ginv, and
        # g_ab = <P_a, P_b> gives P_bar += 2 G P (G is symmetric).
        partials = fd.partials
        p_bar = wedge_rows_adjoint(w_bar, *partials)
        g_bar = _matmul2(_matmul2(ginv, aat.T), ginv)
        g_bar *= -2.0 * s_quad
        p_bar += np.einsum("abf,bif->aif", g_bar, partials)

        # Through [du dv] = [e1 e2] minv: e_bar[b] = sum_a minv[:, b, a] P_bar[a].
        e1_bar, e2_bar = np.einsum("abf,aif->bif", fd.minv.T, p_bar)

        # Through the frame map of each edge onto its two end corners, then
        # onto the vertices one component at a time: the covector is the
        # stacked view of those rows, laid out like the positions.
        base = fd.base_pos
        b1_bar, d1_bar = self.geometry.frame_adjoint(base, fd.d1, e1_bar.T)
        b2_bar, d2_bar = self.geometry.frame_adjoint(base, fd.d2, e2_bar.T)
        corner_bar = np.empty((len(e1_bar), 3, n_f))
        corner_bar[:, 0] = (b1_bar + b2_bar - d1_bar - d2_bar).T
        corner_bar[:, 1], corner_bar[:, 2] = d1_bar.T, d2_bar.T
        positions = imm.positions
        corners = self.tri.T.ravel()
        grad = np.stack([np.bincount(corners, weights=rows.reshape(-1), minlength=len(positions))
                         for rows in corner_bar])
        return FirstVariation(covector=self.geometry.tangent(positions, grad.T))


def _matmul2(x, y):
    """Products of per-face 2x2 matrices, stacked as (2, 2, F), per entry."""
    out = np.empty_like(x)
    for a in range(2):
        for c in range(2):
            out[a, c] = x[a, 0] * y[0, c] + x[a, 1] * y[1, c]
    return out


# ---------------------------------------------------------------------------
# module-level operations


def energy(imm: DiscreteImmersion, eps: float) -> EnergyBreakdown:
    if not eps > 0:
        raise GeometryDomainError("eps must be positive")
    return EnergyAssembler(imm).energy(imm, eps)


def first_variation(imm: DiscreteImmersion, eps: float, w_field) -> float:
    return EnergyAssembler(imm).first_variation(imm, eps, w_field)


def gradient(imm: DiscreteImmersion, eps: float) -> FirstVariation:
    return EnergyAssembler(imm).gradient(imm, eps)


def hamiltonian_deformation(imm: DiscreteImmersion, spec: HamiltonianSpec):
    """The Hamiltonian field sampled at the vertices, tangent to the target."""
    p = imm.positions
    return imm.geometry.hamiltonian_field(spec.h(p), spec.grad(p), p)


# ---------------------------------------------------------------------------
# constrained flow


#: Gauss-Newton passes of a constraint restoration.
RESTORE_PASSES = 5


def restore_constraint(imm: DiscreteImmersion):
    """Gauss-Newton restoration of the per-edge Legendrian residuals, to the
    immersion's ``legendrian_tol`` within ``RESTORE_PASSES`` passes.

    Corrections move vertices along the Reeb direction, the one direction the
    contact form does not annihilate, so each edge residual is first-order
    controllable by its endpoints.  Moving vertex v to move(p_v, s_v R)
    changes r_e by c_e (s_tail - s_head), c = ``reeb_slope`` (the Reeb flow
    of both ends leaves r_e unchanged), so the Jacobian is diag(c) D with D
    the signed edge incidence (D^T: :meth:`SurfaceMesh.edge_divergence`).
    Its normal matrix D^T c^2 D + 1e-14 I is solved by the mesh's cached
    :attr:`SurfaceMesh.reeb_solver` where every c is 1 (always, on the flat
    target), by a fresh :meth:`SurfaceMesh.laplacian_solver` otherwise.
    The 1e-14 shift leaves the constant mode of the correction to rounding,
    so its mean is subtracted: an LU and an FFT solve then agree.  The
    edges' seam offsets are the mesh's cached
    :meth:`DiscreteImmersion.edge_offsets`; each pass's tail positions and
    edge differences are one :func:`~legsurf.mesh.seam_differences`, as in
    :meth:`DiscreteImmersion.edge_differences`.  The positions stay the
    (V, k) view of component rows throughout.

    Returns the restored immersion, the residual before and after, and the
    number of Gauss-Newton passes.
    """
    tol = imm.legendrian_tol
    m = imm.mesh
    geo = imm.geometry
    phi = imm.edge_offsets()

    def residual(positions):
        p_tail, delta = seam_differences(positions, m.edges, phi)
        r = geo.edge_residual(p_tail, delta)
        return r, p_tail, delta, float(np.max(np.abs(r))) if len(r) else 0.0

    positions = imm.positions
    r, p_tail, delta, res_max = residual(positions)
    before = res_max
    last_norm = np.inf
    passes = 0
    while passes < RESTORE_PASSES:
        r_norm = float(np.linalg.norm(r))
        if res_max <= tol or r_norm > 0.999 * last_norm:
            break  # done, or at the least-squares floor of vertical corrections
        last_norm = r_norm
        slopes = geo.reeb_slope(p_tail, delta)
        solver = (m.reeb_solver if np.all(slopes == 1.0)
                  else m.laplacian_solver(slopes * slopes, 1e-14))
        sol = solver.solve(-m.edge_divergence(slopes * r))
        sol -= np.mean(sol)
        positions = geo.move(positions, sol[:, None] * geo.reeb(positions))
        r, p_tail, delta, res_max = residual(positions)
        passes += 1
    if res_max > tol:
        raise StepRejectedError(
            f"constraint restoration stalled at {res_max:.3e} > {tol:.3e}",
            residual_before=before,
            residual_after=res_max,
        )
    return imm.with_positions(positions), before, res_max, passes


def flow_step(imm: DiscreteImmersion, w_field, tau: float):
    """Move vertices by tau * w, retract, and restore the Legendrian gate.

    Returns :func:`restore_constraint`'s (restored immersion, residual before,
    residual after, Gauss-Newton passes); a zero field returns
    (imm, r, r, 0) with r the residual of ``imm``.
    """
    if not tau > 0:
        raise GeometryDomainError("step size must be positive")
    w_field = np.asarray(w_field, float)
    if not w_field.any():
        r = legendrian_residual(imm).max
        return imm, r, r, 0
    return restore_constraint(imm.with_positions(imm.geometry.move(imm.positions, tau * w_field)))


# ---------------------------------------------------------------------------
# Hamiltonian projection of descent directions


def hamiltonian_map(imm: DiscreteImmersion):
    """The map B from a vertex scalar u to the normal Hamiltonian field.

    The normal parts of Hamiltonian deformations along a Legendrian surface
    form the family J grad^S(u) + vertical(2u), vertical(s) = (s / alpha(R)) R
    being the Reeb multiple with alpha-value s.  B u is that family in
    per-vertex frame components: the face-wise surface gradient of u,
    averaged onto each vertex with area weights (each face's third of its
    area over the vertex area, :attr:`FaceData.vertex_areas`), then
    J o horizontal at the vertex.  Returns the pair of functions (B, B^T):
    B takes u (V,) to a (V, k) field stored like the positions, the view of
    its (k, V) component rows, and B^T takes such a field to a vertex
    scalar.  The face gradients are combinations of
    :attr:`FaceData.partials`, component-major, and are spread onto the
    vertices one component at a time.
    """
    geo = imm.geometry
    fd = imm.face_data
    tri = imm.mesh.triangles.T  # (3, F): corner c of every face
    corners = tri.ravel()
    n_v = imm.mesh.n_vertices
    weight = (fd.area / 3.0) / fd.vertex_areas[tri]  # (3, F): face share at each corner

    # The hat function of corner c has parameter gradient hat_c minv, with
    # hat = [[-1, -1], [1, 0], [0, 1]], and surface gradient
    # gcoef[0, c] du + gcoef[1, c] dv, gcoef[a, c] = (hat_c minv ginv)_a.
    m_t, g = fd.minv.T, fd.ginv.T  # m_t[b, a] = minv[:, a, b]; ginv is symmetric
    gcoef = np.empty((2, 3, tri.shape[1]))
    for c in (1, 2):
        r0, r1 = m_t[:, c - 1]  # row c - 1 of minv
        gcoef[0, c] = r0 * g[0, 0] + r1 * g[1, 0]
        gcoef[1, c] = r0 * g[0, 1] + r1 * g[1, 1]
    gcoef[:, 0] = -(gcoef[:, 1] + gcoef[:, 2])
    partials = fd.partials  # (2, k, F): du, dv

    q = imm.positions
    vert = (2.0 / geo.alpha_reeb) * geo.reeb(q)

    # J o horizontal is applied row-wise; its transpose is -horizontal o J,
    # as horizontal is an orthogonal projection and J is antisymmetric.
    def b_map(u):
        face_grad = np.einsum("af,aif->if", np.einsum("acf,cf->af", gcoef, u[tri]), partials)
        avg = np.stack([np.bincount(corners, weights=(weight * row).reshape(-1), minlength=n_v)
                        for row in face_grad])
        return geo.j(geo.horizontal(q, avg.T)) + vert * u[:, None]

    def bt_map(y):
        z = -geo.horizontal(q, geo.j(y)).T  # (k, V)
        face_bar = np.einsum("cf,icf->if", weight, z[:, tri])
        src = np.einsum("acf,af->cf", gcoef, np.einsum("aif,if->af", partials, face_bar))
        reeb_part = np.add.reduce((vert * y).T)
        return np.bincount(corners, weights=src.reshape(-1), minlength=n_v) + reeb_part

    return b_map, bt_map


def projection_factor(imm: DiscreteImmersion):
    """A solver of the Hamiltonian projection's system at ``imm``.

    The area Hessian along Hamiltonian fields is a Dirichlet form in u (the
    pairing identity <dA, X_u> = 2 int <du, d beta>), so the cot stiffness
    plus scaled mass, 2 L + (-4 / alpha(R)) M, is a natural quasi-Newton
    preconditioner.  It is SPD, so any such factor, even one taken at an
    earlier mesh, gives a descent direction.  It is the mesh's
    :meth:`~legsurf.mesh.SurfaceMesh.laplacian_solver`: the cot weights vary
    even on the uniform Clifford grid, so it is a sparse LU factor.
    """
    weights, areas = cotangent_weights(imm)
    # |vertical(2)|^2 = 4 |R|^2 / alpha(R)^2 = -4 / alpha(R), as |R|^2 = -alpha(R).
    return imm.mesh.laplacian_solver(2.0 * weights, (-4.0 / imm.geometry.alpha_reeb) * areas)


def hamiltonian_project(imm: DiscreteImmersion, covector, factor):
    """Project the energy differential onto Hamiltonian fields, preconditioned.

    Solves A u = B^T cov~ with A the SPD system of :func:`projection_factor`,
    so -B u descends: pairing the covector against B u gives
    u^T A u >= 0.  ``factor`` is a solver of A from :func:`projection_factor`,
    possibly at an earlier mesh.  Returns u and the field B u in ambient
    components, laid out like the positions: the (V, k) view of component rows.
    """
    b_map, bt_map = hamiltonian_map(imm)
    geo = imm.geometry
    u = factor.solve(bt_map(geo.frame_covector(imm.positions, np.asarray(covector, float))))
    return u, geo.unframe(imm.positions, b_map(u))


# ---------------------------------------------------------------------------
# descent


#: Largest step a line search starts from.  Each search first tries twice the
#: step accepted before it (``tau_init`` at a stage's start), clipped to
#: [tau_min, TAU_MAX].  A trial that fails the Armijo test is retried at the
#: minimiser of the quadratic through E(0), the slope s and E(tau): the step
#: times -s tau / (2 (E(tau) - E(0) - s tau)), that ratio clamped to
#: [BACKTRACK_MIN, BACKTRACK_MAX] (Nocedal and Wright, Numerical
#: Optimization, 2nd ed., section 3.5).  A trial that raised, or whose
#: curvature term E(tau) - E(0) - s tau is not positive, is halved; with
#: armijo < 1 an Armijo failure leaves that term above (1 - armijo) |s| tau,
#: so only rounding reaches the second case.  No trial goes below ``tau_min``.
TAU_MAX = 1e3
BACKTRACK_MIN = 0.1
BACKTRACK_MAX = 0.5


@dataclass
class DescentOptions:
    tau_init: float = 1e-2
    tau_min: float = 1e-10
    armijo: float = 1e-4
    max_iters: int = 100
    tol_scale: float = 1e-3


@dataclass
class StageReport:
    eps: float
    iters: int
    energy: EnergyBreakdown
    grad_norm: float
    tol: float
    # Why the stage stopped: "tolerance" (the gradient norm reached tol),
    # "stationary" (the projected direction no longer descends) or
    # "max_iters" (neither, within max_iters iterations).
    stopped_by: str

    @property
    def hit_tolerance(self):
        return self.stopped_by != "max_iters"

    def to_json(self):
        return {
            "eps": self.eps,
            "iters": self.iters,
            **asdict(self.energy),
            "grad_norm": self.grad_norm,
            "tol": self.tol,
            "hit_tolerance": self.hit_tolerance,
            "stopped_by": self.stopped_by,
            "exp_bound_target": float(np.exp(-1.0 / self.eps**2)),
        }


@dataclass
class DescentResult:
    """A descent so far: last accepted iterate, step records, finished stages."""

    final: DiscreteImmersion
    records: list
    stages: list
    stopped_by_entropy: bool


def _grad_norm(imm, areas, w):
    wn = np.add.reduce(imm.geometry.frame(imm.positions, w).T ** 2)
    return float(np.sqrt(np.sum(areas * wn) / np.sum(areas)))


def descent_stage(result: DescentResult, assembler: EnergyAssembler, k: int, eps: float,
                  opts: DescentOptions) -> StageReport:
    """Stage ``k`` of :func:`descend`, at ``eps``, from ``result.final``.

    Armijo line searches (see ``TAU_MAX``) along Hamiltonian-projected
    negative gradients, until the projected gradient norm reaches
    max(1e-8, tol_scale * eps^2).  The projection's system
    (:func:`projection_factor`) is factored once, at the stage-start mesh,
    and the gradient norm is measured in that frozen metric, with the
    stage-start vertex areas.  The Armijo slope is the pairing of the
    gradient the projection used with the direction.  A trial step that
    fails the Armijo test is retried at the minimiser of the quadratic
    through the stage energy, the slope and the trial energy, clamped to
    [BACKTRACK_MIN, BACKTRACK_MAX] times the step (halved when that
    quadratic is not convex).  A trial step whose restoration stalls, or
    which collapses a face or a vertex frame, is retried at half the step.
    The search aborts when half the step falls below ``tau_min``.

    Each accepted step replaces ``result.final`` and appends its record,
    with its step ``tau``, the number of trials its search rejected
    (``backtracks``), and its restoration's Gauss-Newton passes
    (``restore_iters``) and residual before restoring
    (``residual_before_restore``), to ``result.records``; a
    ``StageAbortedError`` carries ``result`` as it stands.  Returns the
    stage's report.
    """
    tol = max(1e-8, opts.tol_scale * eps**2)
    current = result.final
    factor = projection_factor(current)
    areas = current.face_data.vertex_areas
    e_cur = assembler.energy(current, eps)
    tau = opts.tau_init
    for it in range(opts.max_iters + 1):  # it: steps accepted so far
        grad = assembler.gradient(current, eps)
        _, w_proj = hamiltonian_project(current, grad.covector, factor)
        gnorm = _grad_norm(current, areas, w_proj)
        if gnorm <= tol:
            stopped_by = "tolerance"
            break
        if it == opts.max_iters:
            stopped_by = "max_iters"
            break
        direction = -w_proj
        slope = grad.pair(direction)
        if slope >= 0:
            stopped_by = "stationary"  # projected direction no longer descends
            break
        tau = min(max(tau * 2.0, opts.tau_min), TAU_MAX)
        before = after = None
        backtracks = 0
        while True:
            shrink = 0.5
            try:
                candidate, before, after, passes = flow_step(current, direction, tau)
                e_new = assembler.energy(candidate, eps)
                if e_new.total <= e_cur.total + opts.armijo * tau * slope:
                    break
                curvature = e_new.total - e_cur.total - slope * tau
                if curvature > 0:
                    shrink = min(max(-slope * tau / (2.0 * curvature), BACKTRACK_MIN),
                                 BACKTRACK_MAX)
            except StepRejectedError as exc:
                before, after = exc.residual_before, exc.residual_after
            except (DegenerateFaceError, DegenerateFrameError):
                pass
            candidate = None  # frees its face state before the next trial
            if 0.5 * tau < opts.tau_min:
                raise StageAbortedError(
                    f"stage eps={eps}: no admissible step above tau_min",
                    diagnostics={
                        "eps": eps,
                        "iter": it + 1,
                        "grad_norm": gnorm,
                        "tau": tau,
                        "residual_before_restore": before,
                        "residual_after_restore": after,
                    },
                    result=result,
                )
            tau = max(shrink * tau, opts.tau_min)
            backtracks += 1
        result.final = current = candidate
        e_cur = e_new
        result.records.append(
            {
                "k": k,
                "iter": it + 1,
                "area": e_cur.area,
                "penalty": e_cur.penalty,
                "grad_norm": gnorm,
                "max_leg_residual": after,
                "residual_before_restore": before,
                "restore_iters": passes,
                "entropy_indicator": e_cur.entropy_indicator,
                "tau": tau,
                "backtracks": backtracks,
            }
        )
    return StageReport(
        eps=eps, iters=it, energy=e_cur, grad_norm=gnorm, tol=tol, stopped_by=stopped_by
    )


def descend(imm: DiscreteImmersion, schedule, opts: DescentOptions = None) -> DescentResult:
    """Constraint-preserving descent of the penalized energy over an eps ladder.

    One :func:`descent_stage` per eps of the non-empty, finite, positive,
    decreasing ``schedule``; the schedule stops early when the entropy
    indicator rises on two consecutive stages.  ``0 < tau_min <= TAU_MAX``,
    ``tau_init > 0``, ``0 < armijo < 1`` and an integer ``max_iters >= 0``
    are required (``GeometryDomainError`` otherwise): an ``armijo`` of 1 or
    more asks for more decrease than the slope predicts, so no stage could
    accept a step.  A stage without an admissible step raises
    ``StageAbortedError``, whose ``result`` is the descent up to its last
    accepted step.
    """
    opts = opts or DescentOptions()
    schedule = list(schedule)
    if not (schedule and all(0 < e < np.inf for e in schedule)
            and all(b < a for a, b in zip(schedule, schedule[1:]))):
        raise GeometryDomainError(
            f"eps schedule must be non-empty, finite, positive and decreasing, got {schedule!r}"
        )
    if not (opts.tau_init > 0 and 0 < opts.tau_min <= TAU_MAX):
        raise GeometryDomainError(
            f"need tau_init > 0 and 0 < tau_min <= {TAU_MAX:g}, "
            f"got tau_init={opts.tau_init!r}, tau_min={opts.tau_min!r}"
        )
    if not (isinstance(opts.max_iters, Integral) and opts.max_iters >= 0):
        raise GeometryDomainError(f"need an integer max_iters >= 0, got {opts.max_iters!r}")
    if not 0 < opts.armijo < 1:
        raise GeometryDomainError(f"need 0 < armijo < 1, got {opts.armijo!r}")
    # Iterates own their face state.  Starting from a new immersion at the
    # same (read-only) positions keeps the caller's one from holding a
    # FaceData for the whole descent.
    result = DescentResult(imm.with_positions(imm.positions), [], [], stopped_by_entropy=False)
    assembler = EnergyAssembler(result.final)
    entropy_rises = 0
    for k, eps in enumerate(schedule):
        stage = descent_stage(result, assembler, k, eps, opts)
        entropy = stage.energy.entropy_indicator
        if result.stages and entropy > result.stages[-1].energy.entropy_indicator:
            entropy_rises += 1
        else:
            entropy_rises = 0
        result.stages.append(stage)
        if entropy_rises >= 2:
            result.stopped_by_entropy = True
            break
    return result


# ---------------------------------------------------------------------------
# weak stationarity


def weak_stationarity_residual(imm: DiscreteImmersion, n_mult, spec: HamiltonianSpec, f_vals, lam):
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
    p = imm.positions
    h = spec.h(p)
    in_support = np.abs(h) > 0.0
    offending = np.flatnonzero(straddling & np.any(in_support[tri], axis=1))
    if offending.size:
        raise LocalisationError(
            f"face {offending[0]} straddles the cut level inside the Hamiltonian support",
            face_id=int(offending[0]),
        )
    w_field = imm.geometry.hamiltonian_field(h, spec.grad(p), p)
    fd = imm.face_data
    dw = fd.grad_scalar(imm.geometry.frame(p, w_field))
    pair = fd.pairing(dw, fd.partials.transpose(2, 0, 1))
    face_n = n_mult[tri].mean(axis=1)
    return float(np.sum(pair[included] * face_n[included] * fd.area[included]))
