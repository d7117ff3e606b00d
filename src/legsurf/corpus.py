"""Mesh generators for the test corpus.

These live with the harness so acceptance runs and CI share fixtures.  Every
family except the intentionally-degenerate cone produces a valid immersion.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from . import heisenberg as hs
from .errors import GeometryDomainError
from .mesh import DiscreteImmersion, SurfaceMesh
from .mesh import grid_triangles as _grid_triangles
from .polynomials import Polynomial, random_polynomial

def consistency_tol(h_param):
    """Legendrian tolerance tied to the midpoint rule's O(h^3) consistency.

    Flow steps drift the per-edge residual by about step * h^3, so this is the
    scale a restored mesh can actually hold; the factor leaves headroom for
    order-one curvature constants.
    """
    return max(1e-2 * h_param**3, 1e-11)


def _rows(rows):
    """Fresh (k, n) rows as the frozen (n, k) view that ``row_storage`` keeps."""
    rows.flags.writeable = False
    return rows.T


def _square_boundary_loop(n1, n2, offset=0):
    def vid(i, j):
        return offset + i * n2 + j

    loop = [vid(i, 0) for i in range(n1)]
    loop += [vid(n1 - 1, j) for j in range(1, n2)]
    loop += [vid(i, n2 - 1) for i in range(n1 - 2, -1, -1)]
    loop += [vid(0, j) for j in range(n2 - 2, 0, -1)]
    return loop


def flat_patch(n=16, extent=1.0, center=False):
    """Flat Legendrian square patch in the flat model: (0, x1, 0, x2, 0)."""
    lin = np.linspace(0.0, extent, n + 1)
    if center:
        lin = lin - extent / 2.0
    x1, x2 = np.meshgrid(lin, lin, indexing="ij")
    uv = np.stack([x1.ravel(), x2.ravel()])  # component rows
    pos = np.zeros((5, uv.shape[1]))
    pos[1], pos[3] = uv
    mesh = SurfaceMesh(
        triangles=_grid_triangles(n + 1, n + 1),
        n_vertices=(n + 1) ** 2,
        uv=_rows(uv),
        genus=0,
        boundary_loops=[_square_boundary_loop(n + 1, n + 1)],
    )
    return DiscreteImmersion(
        mesh=mesh, target="heisenberg", positions=_rows(pos),
        legendrian_tol=consistency_tol(extent / n),
    )


def clifford_lift(n=32, target="heisenberg", warp=0.0):
    """The Legendrian torus over the product of two unit circles.

    In the flat model the Legendrian coordinate has monodromy (close to 2 pi
    per direction); in the frame-pair target the circles sit in the two frame
    slots and the torus closes up exactly.  ``warp`` skews the parameter
    spacing (still sampling the same continuum surface); the uniform grid is
    so symmetric that several discrete residuals cancel to machine zero on
    it, which hides genuine consistency orders.
    """
    h = 2.0 * np.pi / n
    s = np.arange(n) * h
    if warp:
        s = s + (warp * h) * np.sin(s)
    ss, tt = np.meshgrid(s, s, indexing="ij")
    uv = np.stack([ss.ravel(), tt.ravel()])  # component rows
    tris = _grid_triangles(n, n, wrap1=True, wrap2=True)
    loops = [[i * n for i in range(n)], [j for j in range(n)]]
    if target == "heisenberg":
        grid = hs.LagrangianSampleGrid(
            n, n, h, h,
            np.stack([np.cos(ss), np.sin(ss), np.cos(tt), np.sin(tt)], axis=-1),
            (True, True),
        )
        # edge increments depend only on endpoint samples, so the lift is
        # valid for the warped spacing as well
        lift = hs.legendrian_lift(grid)
        pos = np.stack([lift.phi, np.cos(ss), np.sin(ss), np.cos(tt), np.sin(tt)])
        monodromy = lift.periods
    else:
        pos = np.zeros((8, n, n))  # component rows
        pos[0], pos[1], pos[6], pos[7] = np.cos(ss), np.sin(ss), np.cos(tt), np.sin(tt)
        monodromy = (0.0, 0.0)
    mesh = SurfaceMesh(
        triangles=tris,
        n_vertices=n * n,
        uv=_rows(uv),
        genus=1,
        uv_periods=(2.0 * np.pi, 2.0 * np.pi),
        generator_loops=loops,
    )
    imm = DiscreteImmersion(
        mesh=mesh,
        target=target,
        positions=_rows(pos.reshape(len(pos), -1)),
        legendrian_tol=consistency_tol(h),
        phi_monodromy=monodromy,
    )
    return imm


def double_sheet(n=16, extent=1.0):
    """Two flat Legendrian sheets through the origin meeting only there.

    The planes span(e1, e3) and span(e2, e4) of C^2 are both Lagrangian and
    intersect at the origin, so their lifts touch at gauge distance zero.
    """
    lin = np.linspace(-extent / 2.0, extent / 2.0, n + 1)
    x1, x2 = np.meshgrid(lin, lin, indexing="ij")
    uv_one = np.stack([x1.ravel(), x2.ravel()])  # component rows
    n_v = uv_one.shape[1]
    pos = np.zeros((5, 2 * n_v))
    pos[1, :n_v] = pos[2, n_v:] = uv_one[0]
    pos[3, :n_v] = pos[4, n_v:] = uv_one[1]
    tris = np.concatenate(
        [_grid_triangles(n + 1, n + 1).T, _grid_triangles(n + 1, n + 1, offset=n_v).T], axis=1
    )
    loops = [
        _square_boundary_loop(n + 1, n + 1),
        _square_boundary_loop(n + 1, n + 1, offset=n_v),
    ]
    mesh = SurfaceMesh(
        triangles=_rows(tris),
        n_vertices=2 * n_v,
        uv=_rows(np.concatenate([uv_one, uv_one], axis=1)),
        genus=0,
        boundary_loops=loops,
    )
    return DiscreteImmersion(mesh=mesh, target="heisenberg", positions=_rows(pos),
                             legendrian_tol=1e-10)


def cone_fixture():
    """A three-face fan about a valence-3 apex on the flat model.

    A valid Legendrian patch (every point has phi = y2 = y4 = 0, so alpha
    vanishes on every edge) that the stencil and layout tests use for a
    low-valence vertex.  Its family name ``reeb_orbit_tube_excluded`` is
    historical.
    """
    apex = np.array([0.0, 0.0, 0.0, 0.0, 0.0])
    ring = np.array(
        [
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, -0.5, 0.0, np.sqrt(3) / 2, 0.0],
            [0.0, -0.5, 0.0, -np.sqrt(3) / 2, 0.0],
        ]
    )
    pos = np.vstack([apex, ring])
    uv = np.array([[0.0, 0.0], [1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]])
    mesh = SurfaceMesh(
        triangles=[(0, 1, 2), (0, 2, 3), (0, 3, 1)],
        n_vertices=4,
        uv=uv,
        genus=0,
        boundary_loops=[[1, 2, 3]],
    )
    return DiscreteImmersion(mesh=mesh, target="heisenberg", positions=pos, legendrian_tol=1e-8)


def _gauge_bump_hamiltonian(rng, scale):
    """A smooth random polynomial Hamiltonian on the flat model.

    Independent of the Legendrian coordinate so that its flow commutes with
    the deck translation of lifted tori and the stored monodromy stays valid.
    """
    poly = random_polynomial(rng, 4, degree=3, n_terms=8, scale=scale)
    return Polynomial(poly.coeffs, np.pad(poly.exponents, ((0, 0), (1, 0))))


def flow_exact_hamiltonian(imm: DiscreteImmersion, poly, time, nsteps=64):
    """Transport vertex positions along a Hamiltonian flow with RK4 steps.

    The continuum flow preserves the Legendrian constraint exactly, so the
    image mesh samples an exact Legendrian surface; its discrete residual is
    pure discretisation error.  The state starts at the immersion's read-only
    positions and, like them, is the stacked view of component rows.
    """
    pos = imm.positions
    dt = time / nsteps
    geo = imm.geometry

    def vel(p):
        return geo.hamiltonian_field(*poly.value_and_grad(p), p)

    for _ in range(nsteps):
        k1 = vel(pos)
        k2 = vel(geo.move(pos, 0.5 * dt * k1))
        k3 = vel(geo.move(pos, 0.5 * dt * k2))
        k4 = vel(geo.move(pos, dt * k3))
        pos = geo.move(pos, dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
    return imm.with_positions(pos)


def perturbed_clifford(n=32, amplitude=1e-2, seed=0, target="heisenberg"):
    """Clifford lift transported a Hamiltonian-flow distance ~amplitude."""
    imm = clifford_lift(n, target=target)
    rng = np.random.default_rng(seed)
    poly = _gauge_bump_hamiltonian(rng, 1.0) if target == "heisenberg" else random_polynomial(
        rng, 8, degree=2, n_terms=8, scale=1.0
    )
    p = imm.positions
    speed = imm.geometry.hamiltonian_field(*poly.value_and_grad(p), p)
    vmax = float(np.max(np.linalg.norm(speed, axis=-1)))
    out = flow_exact_hamiltonian(imm, poly, amplitude / max(vmax, 1e-9), nsteps=16)
    from .immersion import legendrian_residual

    out.legendrian_tol = max(2.0 * legendrian_residual(out).max, imm.legendrian_tol)
    return out


#: Each corpus family's builder, by name.
FAMILIES = {
    "flat_patch": flat_patch,
    "clifford_lift": clifford_lift,
    "reeb_orbit_tube_excluded": cone_fixture,
    "perturbed_clifford": perturbed_clifford,
    "double_sheet": double_sheet,
}


def generate(family, **kw):
    """The corpus mesh ``family`` built by its :data:`FAMILIES` builder with
    keywords ``kw``; a resolution ``n`` must be an integer >= 1
    (GeometryDomainError otherwise)."""
    n = kw.get("n", 1)
    if not (isinstance(n, Integral) and n >= 1):
        raise GeometryDomainError(f"resolution must be an integer >= 1, got {n!r}")
    if family not in FAMILIES:
        raise ValueError(f"unknown corpus family {family!r}")
    return FAMILIES[family](**kw)
