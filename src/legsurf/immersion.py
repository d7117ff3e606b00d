"""Per-face and per-vertex geometry of discrete Legendrian immersions.

Tangent data is handled in frame components (see :mod:`legsurf.fields`), so
Euclidean formulas apply to both targets.  The Gauss map of a face is the
unit 2-vector of its frame partial derivatives; comparing it across faces
uses the global trivialisation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFaceError, GeometryDomainError
from .mesh import DiscreteImmersion, gather, parameter_inverse


def wedge_rows(x, y):
    """The (K2, F) coordinates of x ^ y from (k, F) rows x, y, in the pair
    basis i < j ordered by i, then j: x_i y_j - x_j y_i, one block of pairs
    per first index."""
    k = len(x)
    out = np.empty((k * (k - 1) // 2,) + x.shape[1:])
    scratch = np.empty((k - 1,) + x.shape[1:])
    p = 0
    for i in range(k - 1):
        block, tmp = out[p:p + k - 1 - i], scratch[:k - 1 - i]
        np.multiply(x[i], y[i + 1:], out=block)
        np.multiply(x[i + 1:], y[i], out=tmp)
        block -= tmp
        p += k - 1 - i
    return out


def wedge_rows_adjoint(w_bar, x, y):
    """The adjoint of :func:`wedge_rows` at (x, y) applied to w_bar (K2, F):
    with Wb the antisymmetric (k, k) matrix of w_bar, x_bar = Wb y and
    y_bar = -Wb x, returned as one (2, k, F) array, one block of pairs per
    first index."""
    k = len(x)
    out = np.zeros((2,) + x.shape)
    x_bar, y_bar = out
    scratch = np.empty((k - 1,) + x.shape[1:])
    p = 0
    for i in range(k - 1):
        block, tmp = w_bar[p:p + k - 1 - i], scratch[:k - 1 - i]  # the pairs (i, j > i)
        x_bar[i] += np.einsum("jf,jf->f", block, y[i + 1:])
        y_bar[i] -= np.einsum("jf,jf->f", block, x[i + 1:])
        x_bar[i + 1:] -= np.multiply(block, y[i], out=tmp)
        y_bar[i + 1:] += np.multiply(block, x[i], out=tmp)
        p += k - 1 - i
    return out


def _intrinsic_uv(imm: DiscreteImmersion):
    """(F, 3, 2) intrinsic per-face corner parameters from the current frame
    edge lengths: corner 0 at the origin, corner 1 on the first axis, as
    (2, 3, F) rows.  The corners are row gathers and the chords' lengths
    and product are sums over their component rows."""
    base, *others = (gather(imm.positions, corner) for corner in imm.mesh.triangles.T)
    e1, e2 = (imm.geometry.frame(base, other - base).T for other in others)
    l1 = np.linalg.norm(e1, axis=0)
    x2 = np.where(l1 > 0, np.add.reduce(e1 * e2) / np.maximum(l1, 1e-300), 0.0)
    uv = np.zeros((2, 3, len(l1)))  # uv[a, c]: component a of corner c
    uv[0, 1] = l1
    uv[0, 2] = x2
    uv[1, 2] = np.sqrt(np.maximum(np.add.reduce(e2 * e2) - x2**2, 0.0))
    return uv.T


def _block_gram(x, y):
    """x y^T of per-face 2 x K2 blocks stored component-major as (K2, 2, F),
    as a (2, 2, F) buffer, one entry at a time; for y = x the product is
    symmetric, and entry (1, 0) is a copy of entry (0, 1)."""
    out = np.empty((2, 2, x.shape[2]))
    for a in range(2):
        for b in range(2):
            if y is x and b < a:
                out[a, b] = out[b, a]
            else:
                out[a, b] = np.einsum("if,if->f", x[:, a], y[:, b])
    return out


class FaceData:
    """Struct-of-arrays face geometry for a whole immersion.

    From the corner positions, with corners 1, 2 moved into corner 0's
    branch: corner 0's position ``base_pos``, the ambient edge differences
    d1, d2 (corner 0 -> 1, 2) and their frame chords e1, e2, the frame
    partials du, dv, the metric g and its inverse, |W| = sqrt(det g) for the
    wedge W = du ^ dv, the unit Gauss vector W / |W| and the area
    |W| * uv_area.  The parameter constants minv and uv_area are the mesh's
    (:attr:`SurfaceMesh.face_uv`); a mesh without uv gets intrinsic per-face
    parameters from the current edge lengths.  The arrays are read-only and
    the object holds the mesh, not the immersion: an immersion keeps its own
    (:attr:`DiscreteImmersion.face_data`).  Raises DegenerateFaceError naming
    the first face with |W| <= 1e-12 trace(g), on a patch by its index in
    the unrestricted mesh (:attr:`SurfaceMesh.parent_faces`).

    Storage is component-major.  Each (F, ...) attribute is the transposed
    view of one C-contiguous buffer: (k, F) for base_pos, d1, d2, e1, e2, du
    and dv, (K2, F) for the Gauss vector and (2, 2, F) for g, ginv and minv,
    so ``fd.du.T[i]`` is component i of every face in one contiguous row;
    the corners are gathered row by row from the immersion's positions,
    stored the same way (:attr:`DiscreteImmersion.positions`).
    The face kernels (this build, :attr:`gauss_gradients`, the energy
    gradient and the Hamiltonian map) work on these rows, so NumPy's inner
    loop runs over the faces; on row-major (F, k) arrays it would run over
    k = 5 or 8 components, F times.  Transposing a (2, 2, F) buffer
    swaps the two matrix axes: ``fd.minv.T[b, a]`` is minv[:, a, b] (g and
    ginv are symmetric).  d1 and d2, e1 and e2, and du and dv are each two
    views of one (2, k, F) buffer (:attr:`partials` is du's and dv's).  The
    arrays agree with the row-major build to rounding.
    """

    def __init__(self, imm: DiscreteImmersion):
        m = self.mesh = imm.mesh
        geo = imm.geometry
        phi = None  # (3, F) Reeb-row seam offsets of the corners, when any is nonzero
        if m.uv is None:
            self.minv, self.uv_area = parameter_inverse(_intrinsic_uv(imm))
        else:
            self.minv, self.uv_area = m.face_uv[2:]
            phi = imm.corner_offsets()
        rows = imm.positions.T
        tri = m.triangles.T  # (3, F): corner c of every face
        base = np.take(rows, tri[0], axis=1)
        chords = np.empty((2,) + base.shape)  # d1 and d2, one (2, k, F) buffer
        for c in (1, 2):
            np.take(rows, tri[c], axis=1, out=chords[c - 1])
        if phi is not None:
            base[0] += phi[0]
            chords[:, 0] += phi[1:]
        chords -= base
        self.base_pos = base.T
        self.d1, self.d2 = chords.transpose(0, 2, 1)
        frames = geo.frame(self.base_pos, chords.transpose(0, 2, 1))
        self.e1, self.e2 = frames
        e1, e2 = frames.transpose(0, 2, 1)
        m_t = self.minv.T  # m_t[b, a] = minv[:, a, b]
        partials = np.empty((2,) + base.shape)  # du and dv, one (2, k, F) buffer
        for a, row in enumerate(partials):
            np.multiply(m_t[a, 0], e1, out=row)
            row += m_t[a, 1] * e2
        du, dv = partials
        self.du, self.dv = du.T, dv.T
        g11, g12, g22 = (np.einsum("if,if->f", x, y) for x, y in ((du, du), (du, dv), (dv, dv)))
        g = np.empty((2, 2, len(g11)))
        g[0, 0], g[0, 1], g[1, 0], g[1, 1] = g11, g12, g12, g22
        ginv = np.empty_like(g)
        ginv[0, 0], ginv[0, 1], ginv[1, 0], ginv[1, 1] = g22, -g12, -g12, g11
        with np.errstate(divide="ignore", invalid="ignore"):
            ginv /= g11 * g22 - g12 * g12
        self.g, self.ginv = g.T, ginv.T
        wedge = wedge_rows(du, dv)
        wnorm = self.wnorm = np.sqrt(np.maximum(np.einsum("if,if->f", wedge, wedge), 1e-300))
        wedge /= wnorm
        self.gauss = wedge.T
        self.area = self.uv_area * wnorm
        bad = np.flatnonzero(wnorm <= 1e-12 * np.maximum(g11 + g22, 1e-300))
        if bad.size:
            ids = m.parent_faces
            raise DegenerateFaceError(int(bad[0] if ids is None else ids[bad[0]]))
        partials.flags.writeable = False
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    @property
    def partials(self):
        """du and dv as the one read-only (2, k, F) buffer they are views of:
        ``partials[0]`` is ``du.T``."""
        return self.du.base

    @functools.cached_property
    def vertex_areas(self):
        """(V,) read-only barycentric vertex areas: a third of each face's area
        at each of its corners."""
        m = self.mesh
        out = np.bincount(
            m.triangles.T.ravel(), weights=np.tile(self.area / 3.0, 3), minlength=m.n_vertices
        )
        out.flags.writeable = False
        return out

    @functools.cached_property
    def gauss_gradients(self):
        """Read-only (A, P, |dT|^2_g), built on first use: the per-face
        parameter gradient A (F, 2, K2) of the Gauss field through the mesh's
        :attr:`SurfaceMesh.gauss_stencil`, its Gram matrix P = A A^T (F, 2, 2)
        and |dT|^2_g = sum(ginv * P) (F,).  None depends on eps.

        A gathers the Gauss rows at the stencil's slots and contracts them with
        its weights, in the order of the stencil matrix's product, with the
        same bits and no sparse matrix; A is (K2, 2, F) and P (2, 2, F), like g."""
        slots, weights = self.mesh.gauss_stencil
        a_rows = np.einsum("ajf,ijf->iaf", weights, np.take(self.gauss.T, slots, axis=1))
        aat = _block_gram(a_rows, a_rows)
        g = self.ginv.T
        quad = g[0, 0] * aat[0, 0] + 2.0 * g[0, 1] * aat[0, 1] + g[1, 1] * aat[1, 1]
        out = a_rows.T, aat.T, quad
        for arr in out:
            arr.flags.writeable = False
        return out

    def differential(self, d):
        """Per-face parameter derivatives (F, 2, ...) (d_u, d_v) of the corner
        differences ``d`` (F, 2, ...), corner 0 -> 1 and corner 0 -> 2:
        (d_u, d_v) = (d_1, d_2) minv."""
        return np.einsum("fia,fi...->fa...", self.minv, d)

    def grad_scalar(self, values):
        """Per-face (d_u s, d_v s) (F, 2, ...) of per-vertex values (V, ...)
        (seam-free)."""
        corners = values[self.mesh.triangles]
        return self.differential(corners[:, 1:] - corners[:, :1])

    def pairing(self, d_first, d_second):
        """<d s1, d s2>_g per face from per-face parameter gradients (F, 2, ...),
        summed over any trailing components."""
        n_f = len(d_first)
        return np.einsum("fai,fab,fbi->f", d_first.reshape(n_f, 2, -1), self.ginv,
                         d_second.reshape(n_f, 2, -1))


# ---------------------------------------------------------------------------
# Legendrian residual


@dataclass
class EdgeResiduals:
    values: np.ndarray  # per canonical edge, tail -> head
    max: float


def legendrian_residual(imm: DiscreteImmersion) -> EdgeResiduals:
    """Contact-form residual of every edge, evaluated at the midpoint retraction."""
    vals = imm.geometry.edge_residual(*imm.edge_differences())
    return EdgeResiduals(vals, float(np.max(np.abs(vals))) if vals.size else 0.0)


# ---------------------------------------------------------------------------
# Hopf differential


def hopf_differential(imm: DiscreteImmersion):
    """Per-face (|d_u|^2 - |d_v|^2)/4 - i (d_u . d_v)/2 in parameter coordinates."""
    if imm.mesh.uv is None:
        raise GeometryDomainError("hopf differential requires uv parameters")
    fd = imm.face_data
    return (fd.g[:, 0, 0] - fd.g[:, 1, 1]) / 4.0 - 1j * fd.g[:, 0, 1] / 2.0


# ---------------------------------------------------------------------------
# mean-curvature one-form, Lagrangian angle


def cotangent_weights(imm: DiscreteImmersion):
    """Per-edge cotangent weights and barycentric vertex areas
    (:attr:`FaceData.vertex_areas`) from the immersion's :class:`FaceData`.

    Corner k's angle sits between its chords to the two other corners and
    weights the opposite edge (local edge k).  A chord framed at its head is
    minus the chord framed at its tail, so with the face's chords e1, e2 from
    corner 0 and e3 from corner 1 to corner 2, corner 0's pair is (e1, e2),
    corner 1's (e3, -e1) and corner 2's (-e2, -e3).
    """
    m = imm.mesh
    fd = imm.face_data
    e1, e2 = fd.e1, fd.e2
    e3 = imm.geometry.frame(fd.base_pos + fd.d1, fd.d2 - fd.d1)
    sq1, sq2, sq3 = (np.sum(e * e, axis=-1) for e in (e1, e2, e3))
    dot = np.stack([np.sum(e1 * e2, axis=-1), -np.sum(e3 * e1, axis=-1), np.sum(e2 * e3, axis=-1)])
    cross_sq = np.stack([sq1 * sq2, sq3 * sq1, sq2 * sq3]) - dot**2
    half_cot = 0.5 * dot / np.sqrt(np.maximum(cross_sq, 1e-300))
    w = np.bincount(m.face_edges.T.ravel(), weights=half_cot.ravel(), minlength=len(m.edges))
    return w, fd.vertex_areas


def edge_chords(imm: DiscreteImmersion):
    """(E, k) frame chords of the canonical edges, framed at their tails.

    Framed at its head, an edge's chord is minus this one: on the frame
    manifold the frame map is the identity, and in the flat model
    omega0(d, d) = 0.
    """
    return imm.geometry.frame(*imm.edge_differences())


@dataclass
class MeanCurvatureForm:
    gamma: np.ndarray  # per canonical edge, oriented tail -> head
    curl: np.ndarray  # per face
    beta: np.ndarray  # per vertex, spanning-tree branch
    periods: list  # loop integrals of d beta over generator loops
    laplace_beta_residual: np.ndarray  # per vertex
    component_roots: list
    vertex_areas: np.ndarray


def mean_curvature_edges(imm: DiscreteImmersion):
    """gamma, the mean-curvature one-form on each canonical edge (tail ->
    head), and the cotangent weights and vertex areas of its cot-Laplacian,
    D^T of the weighted chords (:meth:`SurfaceMesh.edge_divergence`)."""
    m = imm.mesh
    weights, areas = cotangent_weights(imm)
    chords = edge_chords(imm)  # minus these framed at the heads
    # cot-Laplacian of the immersion per vertex, in frame components at the vertex
    lap = m.edge_divergence(weights[:, None] * chords) / areas[:, None]
    g_vec = imm.geometry.j(imm.geometry.horizontal(imm.positions, lap))
    gamma = -0.5 * np.sum((g_vec[m.edges[:, 0]] + g_vec[m.edges[:, 1]]) * chords, axis=-1)
    return gamma, weights, areas


def mean_curvature_one_form(imm: DiscreteImmersion) -> MeanCurvatureForm:
    """Edge samples of the mean-curvature one-form (:func:`mean_curvature_edges`)
    and the integrated angle.

    The angle beta satisfies d beta = gamma / 2; its Laplacian (assembled from
    the edge one-form, so branch jumps never enter) is the minimality defect.
    beta is summed along a breadth-first spanning tree of each component,
    rooted at its smallest vertex.
    """
    m = imm.mesh
    gamma, weights, areas = mean_curvature_edges(imm)

    # discrete curl: oriented boundary sum per face
    signed = m.face_edge_signs * gamma[m.face_edges]
    curl = signed[:, 0] + signed[:, 1] + signed[:, 2]

    beta, roots = _integrate_on_tree(m, 0.5 * gamma)

    periods = []
    for loop in m.generator_loops:
        a = np.asarray(loop, int)
        b = np.roll(a, -1)
        e = m.edge_ids(a, b)
        if np.any(e < 0):
            i = int(np.argmax(e < 0))
            raise GeometryDomainError(f"generator loop uses missing edge ({a[i]}, {b[i]})")
        periods.append(float(np.sum(np.where(a < b, 0.5, -0.5) * gamma[e])))

    lap_beta = m.edge_divergence(weights * 0.5 * gamma) / areas

    return MeanCurvatureForm(
        gamma=gamma,
        curl=curl,
        beta=beta,
        periods=periods,
        laplace_beta_residual=lap_beta,
        component_roots=roots,
        vertex_areas=areas,
    )


def _integrate_on_tree(m, edge_values):
    """Vertex values f with f[head] - f[tail] = edge_values along a breadth-first
    spanning tree of each component, and f = 0 at its root, the component's
    smallest vertex.  Returns (f, roots in ascending order)."""
    # Imported here: csgraph loads scipy.sparse.linalg and scipy.linalg, which
    # a command that integrates no beta never needs.
    from scipy.sparse.csgraph import breadth_first_order

    n_v = m.n_vertices
    parent = np.full(n_v, -1)
    roots = []
    while (unreached := np.flatnonzero(parent < 0)).size:
        root = int(unreached[0])
        order, pred = breadth_first_order(
            m.vertex_graph, root, directed=False, return_predecessors=True
        )
        parent[order] = pred[order]
        parent[root] = root
        roots.append(root)
    child = np.flatnonzero(parent != np.arange(n_v))
    step = np.zeros(n_v)
    step[child] = np.where(parent[child] < child, 1.0, -1.0) * edge_values[
        m.edge_ids(parent[child], child)
    ]
    # Pointer doubling: f[v] holds the steps from v up to (not including)
    # up[v]; each round doubles that path until it reaches the root.
    f, up = step, parent
    while np.any(up[up] != up):
        f = f + f[up]
        up = up[up]
    return f, roots
