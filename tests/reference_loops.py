"""Per-element loop and general-purpose versions of the package's kernels.

They are the implementations the package used before its stencils became
sparse operators and its 2x2 algebra closed-form (batched SVD, multi-operand
einsums, np.add.at scatters), before a polynomial and its gradient were
evaluated by one planned gather and contraction, the projection stiffness
was filled into a kept pattern, meshes were written through the C JSON
encoder, the mean-curvature one-form lost its Python spanning-tree walk and
edge dict, grid triangles were built by index arithmetic, the Gauss stencil
weights were written out in closed form, the first variation became the
gradient's pairing, the weak stationarity pairing became two FaceData
calls, FaceData gathered its corners with ``np.take`` and filled its
metrics in place, and
the face kernels (FaceData, the wedge, the energy gradient and the
Hamiltonian map) went from row-major (F, k) arrays to component-major rows,
and the frame target's pointwise kernels (the polar factorisation, the
tangent projection and the horizontal projection) went from row sums over
(..., 4) slices to component rows, kept here only as oracles for the
equivalence tests.  The lab's full-mesh bodies (the monotonicity balance,
the density analysis and the resolvable radius as they were before they
read only the faces inside their gauge ball) are kept as oracles for the
ball-local ones, and so is the deck-copy choice with one gauge evaluation
per copy.  The last section holds helpers that only
the tests call: the residual of an unrestored step, the frame target's Reeb
circle action and the complex structure of its Grassmannian.
"""

import json
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from legsurf import gauge_lab as gl
from legsurf import heisenberg as hs
from legsurf import stiefel as st
from legsurf.errors import GeometryDomainError, ResolutionError
from legsurf.immersion import (
    FaceData,
    MeanCurvatureForm,
    _intrinsic_uv,
    legendrian_residual,
)
from legsurf.mesh import parameter_inverse

_PAIR_CACHE = {}


def wedge_pairs(k):
    if k not in _PAIR_CACHE:
        _PAIR_CACHE[k] = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return _PAIR_CACHE[k]


def wedge_nd(x, y):
    """Coordinates of x ^ y, both (..., k), in the i<j pair basis."""
    pairs = wedge_pairs(x.shape[-1])
    return np.stack([x[..., i] * y[..., j] - x[..., j] * y[..., i] for i, j in pairs], axis=-1)


def mesh_adjacency(mesh):
    """Edges, face incidence, neighbours and boundary data, one face at a time."""
    tri = mesh.triangles
    raw = np.concatenate([tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]])
    edges, inverse = np.unique(np.sort(raw, axis=1), axis=0, return_inverse=True)
    face_edges = inverse.reshape(3, -1).T
    edge_faces = [[] for _ in range(len(edges))]
    for f in range(len(tri)):
        for k in range(3):
            edge_faces[face_edges[f, k]].append(f)
    face_neighbors = -np.ones((len(tri), 3), int)
    for f in range(len(tri)):
        for k in range(3):
            fs = edge_faces[face_edges[f, k]]
            if len(fs) == 2:
                face_neighbors[f, k] = fs[0] if fs[1] == f else fs[1]
    boundary_edge_mask = np.array([len(fs) == 1 for fs in edge_faces])
    vertex_neighbors = [set() for _ in range(mesh.n_vertices)]
    for a, b in edges:
        vertex_neighbors[a].add(int(b))
        vertex_neighbors[b].add(int(a))
    return dict(
        edges=edges, face_edges=face_edges, face_neighbors=face_neighbors,
        boundary_edge_mask=boundary_edge_mask, vertex_neighbors=vertex_neighbors,
    )


def repeated_directed_edge(mesh_triangles, n_vertices):
    """The first directed edge (tail, head), in face-major order, that an
    earlier corner pair of ``mesh_triangles`` already has; None when none
    repeats.  Found with ``np.unique`` of the directed keys."""
    tri = np.asarray(mesh_triangles, int)
    directed = (tri * n_vertices + np.roll(tri, -1, axis=1)).ravel()
    _, first, inverse = np.unique(directed, return_index=True, return_inverse=True)
    repeated = np.flatnonzero(first[inverse] != np.arange(len(directed)))
    if not repeated.size:
        return None
    f, k = divmod(int(repeated[0]), 3)
    return int(tri[f, k]), int(tri[f, (k + 1) % 3])


def wraps_shift(imm, wraps):
    """(..., dim) dense ambient seam shifts of the crossings ``wraps`` (..., 2):
    the Legendrian coordinate (coordinate 0) jumps by -(wraps . monodromy),
    and every other coordinate by 0."""
    out = np.zeros(np.shape(wraps)[:-1] + (imm.geometry.dim,))
    m0, m1 = imm.phi_monodromy
    out[..., 0] = -(wraps[..., 0] * m0 + wraps[..., 1] * m1)
    return out


def seam_shift(imm, tails, heads):
    """:func:`wraps_shift` moving the points at vertices ``heads`` into the
    branch of ``tails``."""
    m = imm.mesh
    if m.uv is None:
        return np.zeros(np.broadcast_shapes(np.shape(tails), np.shape(heads)) + (imm.geometry.dim,))
    return wraps_shift(imm, m.wraps(m.uv[tails], m.uv[heads]))


def components(mesh, vertex_neighbors):
    """Depth-first components, each listed from its smallest vertex."""
    seen = np.zeros(mesh.n_vertices, bool)
    out = []
    for start in range(mesh.n_vertices):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in vertex_neighbors[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        out.append(comp)
    return out


def stencil_weights(mesh):
    """Per-face neighbour lists and pinv differencing weights q_f (2, m)."""
    uv = mesh.face_uv[0]
    bary = uv.mean(axis=1)
    neighbors, qweights = [], []
    for f in range(len(mesh.triangles)):
        nbrs = [n for n in mesh.face_neighbors[f] if n >= 0]
        if not nbrs:
            neighbors.append(np.zeros(0, int))
            qweights.append(np.zeros((2, 0)))
            continue
        deltas = []
        for n in nbrs:
            d = bary[n] - bary[f]
            if mesh.uv_periods is not None:
                for axis in (0, 1):
                    p = mesh.uv_periods[axis]
                    if p:
                        d[axis] -= p * np.round(d[axis] / p)
            deltas.append(d)
        neighbors.append(np.asarray(nbrs, int))
        qweights.append(np.linalg.pinv(np.asarray(deltas)))
    return neighbors, qweights


def stencil_apply(neighbors, qweights, t):
    """(F, 2, K2) neighbour differences q_f @ (t[n_j] - t[f])."""
    out = np.zeros((len(t), 2, t.shape[1]))
    for f, (nbrs, q) in enumerate(zip(neighbors, qweights)):
        if len(nbrs):
            out[f] = q @ (t[nbrs] - t[f])
    return out


def stencil_adjoint(neighbors, qweights, a_bar):
    """(F, K2) adjoint of stencil_apply applied to a (F, 2, K2) array."""
    t_bar = np.zeros((len(a_bar), a_bar.shape[2]))
    for f, (nbrs, q) in enumerate(zip(neighbors, qweights)):
        if len(nbrs):
            d_bar = q.T @ a_bar[f]
            np.add.at(t_bar, nbrs, d_bar)
            t_bar[f] -= d_bar.sum(axis=0)
    return t_bar


def component_count(mesh, r_vals, s):
    """Union-find count of components of the subgraph where r < s."""
    inside = r_vals < s
    idx = np.where(inside)[0]
    if len(idx) == 0:
        return 0
    remap = -np.ones(mesh.n_vertices, int)
    remap[idx] = np.arange(len(idx))
    parent = np.arange(len(idx))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in mesh.edges:
        if inside[a] and inside[b]:
            ra, rb = find(remap[a]), find(remap[b])
            if ra != rb:
                parent[ra] = rb
    return len({find(i) for i in range(len(idx))})


def face_one_form(mesh, minv, edge_values):
    """Per-face one-form coefficients through a dict of directed edges."""
    tri = mesh.triangles
    edge_index = {}
    for e, (a, b) in enumerate(mesh.edges):
        edge_index[(int(a), int(b))] = (e, 1.0)
        edge_index[(int(b), int(a))] = (e, -1.0)
    d1 = np.zeros(len(tri))
    d2 = np.zeros(len(tri))
    for f in range(len(tri)):
        i, j, k = (int(x) for x in tri[f])
        e1, s1 = edge_index[(i, j)]
        e2, s2 = edge_index[(i, k)]
        d1[f] = s1 * edge_values[e1]
        d2[f] = s2 * edge_values[e2]
    return np.einsum("fij,fi->fj", minv, np.stack([d1, d2], axis=-1))


def polynomial_value(poly, x):
    """The polynomial evaluated with x ** exponents per term and variable."""
    x = np.asarray(x, float)
    powers = x[..., None, :] ** poly.exponents
    return np.sum(poly.coeffs * np.prod(powers, axis=-1), axis=-1)


def polynomial_grad(poly, x):
    x = np.asarray(x, float)
    out = np.zeros(x.shape)
    for i in range(poly.n_vars):
        e = poly.exponents[:, i]
        mask = e > 0
        if not np.any(mask):
            continue
        exps = poly.exponents[mask].copy()
        exps[:, i] -= 1
        powers = x[..., None, :] ** exps
        out[..., i] = np.sum(poly.coeffs[mask] * e[mask] * np.prod(powers, axis=-1), axis=-1)
    return out


def assert_polynomial_close(poly, x, value, grad):
    """value and grad within 1e-14 of polynomial_value and polynomial_grad at x,
    relative to the sums of the absolute terms (the rounding scale of any
    product and summation order), plus a few subnormal ulps for terms that
    underflow, where relative rounding bounds do not hold."""
    abs_poly = type(poly)(np.abs(poly.coeffs), poly.exponents)
    floor = 64 * np.finfo(float).smallest_subnormal
    for got, want, scale in (
        (value, polynomial_value(poly, x), polynomial_value(abs_poly, np.abs(x))),
        (grad, polynomial_grad(poly, x), polynomial_grad(abs_poly, np.abs(x))),
    ):
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(got - want) <= 1e-14 * scale + floor)


def stiffness_coo(imm, weights, areas):
    """The projection's 2 L + diag(-4 / alpha(R) areas) as a COO Laplacian plus a diagonal."""
    import scipy.sparse as sp

    m = imm.mesh
    n_v = m.n_vertices
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
    return (2.0 * lap + sp.diags((-4.0 / imm.geometry.alpha_reeb) * areas)).tocsc()


def save_json_dump(imm, path):
    """DiscreteImmersion.save through json.dump with per-element conversions."""
    data = imm.to_json()
    data["vertices"] = [[float(c) for c in row] for row in imm.positions]
    data["triangles"] = [[int(i) for i in row] for row in imm.mesh.triangles]
    if imm.mesh.uv is not None:
        data["uv"] = [[float(c) for c in row] for row in imm.mesh.uv]
    with open(path, "w") as f:
        json.dump(data, f, sort_keys=True)
        f.write("\n")


def hamiltonian_matrix(imm, fd):
    """The (V k, V) Hamiltonian map B as a sparse matrix, one COO block per corner pair."""
    import scipy.sparse as sp

    m = imm.mesh
    geo = imm.geometry
    tri = m.triangles
    n_v = m.n_vertices
    k = imm.positions.shape[1]
    wsum = np.zeros(n_v)
    for c in range(3):
        np.add.at(wsum, tri[:, c], fd.area)
    wsum = np.maximum(wsum, 1e-300)
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
            block = weight * geo.j(geo.horizontal(imm.positions[recv], gvecs[c_src]))
            for comp in range(k):
                rows.append(recv * k + comp)
                cols.append(tri[:, c_src])
                vals.append(block[:, comp])
    vert = (2.0 / geo.alpha_reeb) * geo.reeb(imm.positions)
    for comp in range(k):
        rows.append(np.arange(n_v) * k + comp)
        cols.append(np.arange(n_v))
        vals.append(vert[:, comp])
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_v * k, n_v),
    ).tocsr()


def retract_svd(a_raw, b_raw):
    """Polar retraction of raw 4x2 frames through a batched SVD: Q = U V^T."""
    m = np.stack([np.asarray(a_raw, float), np.asarray(b_raw, float)], axis=-1)
    u, _, vt = np.linalg.svd(m, full_matrices=False)
    q = u @ vt
    return q[..., 0], q[..., 1]


def frame_polar(a_raw, b_raw):
    """stiefel.polar_rows on (..., 4) columns, with every Gram entry and
    minor sum an ``np.sum`` over the last axis."""
    a = np.asarray(a_raw, float)
    b = np.asarray(b_raw, float)
    g11 = np.sum(a * a, axis=-1)
    g12 = np.sum(a * b, axis=-1)
    g22 = np.sum(b * b, axis=-1)
    sigma = np.sqrt(np.sum(st.wedge4(a, b) ** 2, axis=-1))
    trace = g11 + g22
    smax = np.sqrt(0.5 * (trace + np.sqrt((g11 - g22) ** 2 + 4.0 * g12 * g12)))
    if np.any(sigma <= 1e-13 * np.maximum(smax, 1.0) * smax):
        raise st.DegenerateFrameError("frame vectors are (numerically) linearly dependent")
    t = np.sqrt(trace + 2.0 * sigma)
    scale = 1.0 / (sigma * t)
    p11 = (g22 + sigma) * scale
    p12 = -g12 * scale
    p22 = (g11 + sigma) * scale
    qa = a * p11[..., None] + b * p12[..., None]
    qb = a * p12[..., None] + b * p22[..., None]
    return qa, qb, (p11, p12, p22), t


def frame_tangent(a, b, v, w):
    """The tangent projection (FrameTarget.tangent) on (..., 4) arrays, one
    ``np.sum`` per dot product."""
    c1 = np.sum(v * a, axis=-1)[..., None]
    c2 = np.sum(w * b, axis=-1)[..., None]
    c3 = 0.5 * (np.sum(v * b, axis=-1) + np.sum(w * a, axis=-1))[..., None]
    return v - c1 * a - c3 * b, w - c2 * b - c3 * a


def frame_horizontal(a, b, v, w):
    """The horizontal projection as the tangent projection followed by the
    removal of the Reeb component, X - (X.R / 2) R with R = (b, -a)."""
    v, w = frame_tangent(a, b, v, w)
    coef = 0.5 * (np.sum(v * b, axis=-1) - np.sum(w * a, axis=-1))[..., None]
    return v - coef * b, w + coef * a


def face_data_arrays(imm):
    """FaceData's arrays, with corners gathered by fancy indexing and moved by
    dense seam shifts (:func:`wraps_shift`), and g, ginv built from nested
    ``np.stack`` calls, keyed by attribute name."""
    m = imm.mesh
    corners = imm.positions[m.triangles]
    if m.uv is None:
        minv, uv_area = parameter_inverse(_intrinsic_uv(imm))
    else:
        uv, wraps = m.face_uv[:2]
        minv, uv_area = parameter_inverse(uv)
        if wraps is not None:  # None: no face crosses a seam
            corners += wraps_shift(imm, wraps)
    base = corners[:, 0]
    d1, d2 = corners[:, 1] - base, corners[:, 2] - base
    e1, e2 = imm.geometry.frame(base, d1), imm.geometry.frame(base, d2)
    du = minv[:, 0, 0, None] * e1 + minv[:, 1, 0, None] * e2
    dv = minv[:, 0, 1, None] * e1 + minv[:, 1, 1, None] * e2
    g11, g12, g22 = np.sum(du * du, axis=-1), np.sum(du * dv, axis=-1), np.sum(dv * dv, axis=-1)
    g = np.stack([np.stack([g11, g12], axis=-1), np.stack([g12, g22], axis=-1)], axis=-2)
    ginv = np.stack([np.stack([g22, -g12], axis=-1), np.stack([-g12, g11], axis=-1)], axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ginv /= (g11 * g22 - g12 * g12)[:, None, None]
    wedge = wedge_nd(du, dv)
    wnorm = np.sqrt(np.maximum(np.sum(wedge * wedge, axis=-1), 1e-300))
    return dict(minv=minv, uv_area=uv_area, base_pos=base, d1=d1, d2=d2, e1=e1, e2=e2,
                du=du, dv=dv, g=g, ginv=ginv, wnorm=wnorm, gauss=wedge / wnorm[:, None],
                area=uv_area * wnorm)


def gauss_gradients(fd):
    """Gauss-field parameter gradients and |dT|^2_g by a three-operand einsum."""
    t = fd.gauss
    a_list = (stencil_matrix(fd.mesh) @ t).reshape(len(t), 2, t.shape[1])
    quad = np.einsum("fab,fai,fbi->f", fd.ginv, a_list, a_list)
    return a_list, quad


def energy_gradient(asm, imm, eps):
    """EnergyAssembler.gradient with multi-operand einsums and np.add.at scatters,
    on the dense-shift arrays of :func:`face_data_arrays` rather than a FaceData."""
    positions = imm.positions
    fd = SimpleNamespace(mesh=imm.mesh, **face_data_arrays(imm))
    a_list, quad = gauss_gradients(fd)
    n_f = len(asm.tri)
    s_area = 1.0 + eps**4 * (1.0 + quad) ** 2
    s_quad = eps**4 * 2.0 * (1.0 + quad) * fd.area
    ginv = fd.ginv
    a_bar = 2.0 * s_quad[:, None, None] * np.einsum("fab,fbi->fai", ginv, a_list)
    aat = np.einsum("fai,fbi->fab", a_list, a_list)
    g_bar_mat = -np.einsum("f,fab,fbc,fcd->fad", s_quad, ginv, aat, ginv)
    t_bar = imm.mesh.gauss_stencil_t @ a_bar.reshape(2 * n_f, fd.gauss.shape[1])
    t = fd.gauss
    wnorm = fd.wnorm
    w_bar = (t_bar - np.sum(t_bar * t, axis=-1, keepdims=True) * t) / wnorm[:, None]
    w_bar += (s_area * fd.uv_area)[:, None] * t
    du, dv = fd.du, fd.dv
    du_bar = np.zeros_like(du)
    dv_bar = np.zeros_like(dv)
    pairs = np.asarray(wedge_pairs(positions.shape[1]), int)
    i_idx, j_idx = pairs[:, 0], pairs[:, 1]
    np.add.at(du_bar, (slice(None), i_idx), w_bar * dv[:, j_idx])
    np.add.at(du_bar, (slice(None), j_idx), -w_bar * dv[:, i_idx])
    np.add.at(dv_bar, (slice(None), j_idx), w_bar * du[:, i_idx])
    np.add.at(dv_bar, (slice(None), i_idx), -w_bar * du[:, j_idx])
    g11_bar = g_bar_mat[:, 0, 0]
    g12_bar = g_bar_mat[:, 0, 1] + g_bar_mat[:, 1, 0]
    g22_bar = g_bar_mat[:, 1, 1]
    du_bar += 2.0 * g11_bar[:, None] * du + g12_bar[:, None] * dv
    dv_bar += 2.0 * g22_bar[:, None] * dv + g12_bar[:, None] * du
    e1_bar = fd.minv[:, 0, 0, None] * du_bar + fd.minv[:, 0, 1, None] * dv_bar
    e2_bar = fd.minv[:, 1, 0, None] * du_bar + fd.minv[:, 1, 1, None] * dv_bar
    base = fd.base_pos
    b1_bar, d1_bar = asm.geometry.frame_adjoint(base, fd.d1, e1_bar)
    b2_bar, d2_bar = asm.geometry.frame_adjoint(base, fd.d2, e2_bar)
    corner_bar = np.stack([b1_bar + b2_bar - d1_bar - d2_bar, d1_bar, d2_bar], axis=1)
    grad = np.zeros_like(positions)
    np.add.at(grad, asm.tri, corner_bar)
    return asm.geometry.tangent(positions, grad)


def _frame_dot(geo, base, delta, base_dot, delta_dot):
    """Derivative of geo.frame(base, delta) along (base_dot, delta_dot): the
    identity on the frame manifold; in the flat model the Reeb component
    delta_0 - omega0(base, delta) also varies with the base."""
    if geo.name == "stiefel":
        return delta_dot
    c0 = (
        delta_dot[..., 0]
        - hs.omega0(base_dot[..., 1:], delta[..., 1:])
        - hs.omega0(base[..., 1:], delta_dot[..., 1:])
    )
    return np.concatenate([c0[..., None], delta_dot[..., 1:]], axis=-1)


def energy_first_variation(asm, imm, eps, w_field):
    """The directional derivative of the energy assembled forward, term by term
    from the metric, volume-form and Gauss-map variations, with the metric
    algebra as three-index einsums; an oracle independent of the gradient."""
    w_field = asm.geometry.tangent(imm.positions, np.asarray(w_field, float))
    fd = FaceData(imm)
    a_list, quad = gauss_gradients(fd)
    wc = w_field[asm.tri]
    base = fd.base_pos
    e1_dot = _frame_dot(asm.geometry, base, fd.d1, wc[:, 0], wc[:, 1] - wc[:, 0])
    e2_dot = _frame_dot(asm.geometry, base, fd.d2, wc[:, 0], wc[:, 2] - wc[:, 0])
    du_dot = fd.minv[:, 0, 0, None] * e1_dot + fd.minv[:, 1, 0, None] * e2_dot
    dv_dot = fd.minv[:, 0, 1, None] * e1_dot + fd.minv[:, 1, 1, None] * e2_dot
    du, dv = fd.du, fd.dv
    g11_dot = 2.0 * np.sum(du_dot * du, axis=-1)
    g12_dot = np.sum(du_dot * dv, axis=-1) + np.sum(du * dv_dot, axis=-1)
    g22_dot = 2.0 * np.sum(dv_dot * dv, axis=-1)
    w_dot = wedge_nd(du_dot, dv) + wedge_nd(du, dv_dot)
    t = fd.gauss
    wnorm_dot = np.sum(t * w_dot, axis=-1)
    area_dot = fd.uv_area * wnorm_dot
    t_dot = (w_dot - wnorm_dot[:, None] * t) / fd.wnorm[:, None]
    a_dot = (stencil_matrix(imm.mesh) @ t_dot).reshape(a_list.shape)
    ginv = fd.ginv
    g_dot = np.stack(
        [np.stack([g11_dot, g12_dot], axis=-1), np.stack([g12_dot, g22_dot], axis=-1)], axis=-2
    )
    ginv_dot = -np.einsum("fab,fbc,fcd->fad", ginv, g_dot, ginv)
    quad_dot = np.einsum("fab,fai,fbi->f", ginv_dot, a_list, a_list)
    quad_dot += 2.0 * np.einsum("fab,fai,fbi->f", ginv, a_dot, a_list)
    de = np.sum(area_dot)
    de += eps**4 * np.sum(
        2.0 * (1.0 + quad) * quad_dot * fd.area + (1.0 + quad) ** 2 * area_dot
    )
    return float(de)


def weak_stationarity_residual(imm, n_mult, spec, f_vals, lam):
    """energy.weak_stationarity_residual without its localisation check, with
    d_u w, d_v w and the pairing with (du, dv) written out term by term.
    Returns the residual and its scale, the sum of the absolute terms."""
    tri = imm.mesh.triangles
    included = (np.asarray(f_vals, float) > lam)[tri].sum(axis=1) >= 2
    p = imm.positions
    w_field = imm.geometry.hamiltonian_field(spec.h(p), spec.grad(p), p)
    fd = FaceData(imm)
    wc = imm.geometry.frame(p, w_field)[tri]
    dw1 = wc[:, 1] - wc[:, 0]
    dw2 = wc[:, 2] - wc[:, 0]
    dwu = fd.minv[:, 0, 0, None] * dw1 + fd.minv[:, 1, 0, None] * dw2
    dwv = fd.minv[:, 0, 1, None] * dw1 + fd.minv[:, 1, 1, None] * dw2
    pair = (
        fd.ginv[:, 0, 0] * np.sum(dwu * fd.du, axis=-1)
        + fd.ginv[:, 0, 1] * (np.sum(dwu * fd.dv, axis=-1) + np.sum(dwv * fd.du, axis=-1))
        + fd.ginv[:, 1, 1] * np.sum(dwv * fd.dv, axis=-1)
    )
    terms = (pair * np.asarray(n_mult, float)[tri].mean(axis=1) * fd.area)[included]
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def hamiltonian_operator(imm, fd):
    """The Hamiltonian map (B, B^T) on vertex-major (V, k) fields, its hat
    gradients from one three-operand einsum."""
    geo = imm.geometry
    tri = imm.mesh.triangles
    n_v, k = imm.positions.shape
    wsum = np.bincount(tri.T.ravel(), weights=np.tile(fd.area, 3), minlength=n_v)
    weight = fd.area[:, None] / np.maximum(wsum, 1e-300)[tri]
    hat_params = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    gcoef = np.einsum("fab,fib,ci->fca", fd.ginv, fd.minv, hat_params)
    gvecs = gcoef[..., 0, None] * fd.du[:, None] + gcoef[..., 1, None] * fd.dv[:, None]
    jh = geo.j(geo.horizontal(imm.positions[:, None], np.broadcast_to(np.eye(k), (n_v, k, k))))
    vert = (2.0 / geo.alpha_reeb) * geo.reeb(imm.positions)
    slots = (tri[..., None] * k + np.arange(k)).ravel()

    def b_map(u):
        face_grad = np.einsum("fck,fc->fk", gvecs, u[tri])
        spread = (weight[..., None] * face_grad[:, None]).ravel()
        avg = np.bincount(slots, weights=spread, minlength=n_v * k).reshape(n_v, k)
        return np.einsum("vi,vij->vj", avg, jh) + vert * u[:, None]

    def bt_map(y):
        z = np.einsum("vij,vj->vi", jh, y)
        face_bar = np.einsum("fc,fck->fk", weight, z[tri])
        src = np.einsum("fck,fk->fc", gvecs, face_bar)
        return np.bincount(tri.ravel(), weights=src.ravel(), minlength=n_v) + np.sum(vert * y, axis=1)

    return b_map, bt_map


def cotangent_weights(imm, fd):
    """Per-edge cotangent weights and barycentric vertex areas through np.add.at,
    framing both chords at each of the three corners (six frame maps per face)."""
    m = imm.mesh
    tri = m.triangles
    corners = imm.positions[tri] + seam_shift(imm, tri[:, [0]], tri)
    w = np.zeros(len(m.edges))
    for k in range(3):
        base = corners[:, k]
        a = imm.geometry.frame(base, corners[:, (k + 1) % 3] - base)
        b = imm.geometry.frame(base, corners[:, (k + 2) % 3] - base)
        dot = np.sum(a * b, axis=-1)
        cross_sq = np.sum(a * a, axis=-1) * np.sum(b * b, axis=-1) - dot**2
        np.add.at(w, m.face_edges[:, k], 0.5 * dot / np.sqrt(np.maximum(cross_sq, 1e-300)))
    areas = np.zeros(m.n_vertices)
    for k in range(3):
        np.add.at(areas, m.triangles[:, k], fd.area / 3.0)
    return w, areas


def frame_alpha(a, b, v, w):
    """alpha = a.W - b.V on (..., 4) arrays, one ``np.sum`` per dot product."""
    return np.sum(a * w, axis=-1) - np.sum(b * v, axis=-1)


def frame_reeb_slope(p_tail, delta):
    """FrameTarget.reeb_slope with S = Q^T M from an einsum and S^-1 from np.linalg.inv."""
    reeb = np.concatenate([p_tail[:, 4:], -p_tail[:, :4]], axis=1)
    mid = p_tail + 0.5 * delta
    qa, qb = retract_svd(mid[:, :4], mid[:, 4:])
    q = np.stack([qa, qb], axis=-1)
    dm = 0.5 * np.stack([reeb[:, :4], reeb[:, 4:]], axis=-1)
    s = np.einsum("eia,eib->eab", q, np.stack([mid[:, :4], mid[:, 4:]], axis=-1))
    qt_dm = np.einsum("eia,eib->eab", q, dm)
    w = (qt_dm[:, 0, 1] - qt_dm[:, 1, 0]) / (s[:, 0, 0] + s[:, 1, 1])
    normal = np.einsum(
        "eib,eba->eia", dm - np.einsum("eia,eab->eib", q, qt_dm), np.linalg.inv(s)
    )
    da = normal[..., 0] - w[:, None] * qb
    db = normal[..., 1] + w[:, None] * qa
    return (frame_alpha(da, db, delta[:, :4], delta[:, 4:])
            - frame_alpha(qa, qb, reeb[:, :4], reeb[:, 4:]))


def grid_triangles(n1, n2, wrap1=False, wrap2=False, offset=0):
    """Two triangles per grid cell, one cell at a time, as a list of tuples."""
    tris = []
    c1 = n1 if wrap1 else n1 - 1
    c2 = n2 if wrap2 else n2 - 1

    def vid(i, j):
        return offset + (i % n1) * n2 + (j % n2)

    for i in range(c1):
        for j in range(c2):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v11, v01 = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return tris


def incidence(m):
    """The (E, V) signed incidence D of the mesh's canonical edges: +1 at each
    edge's tail, -1 at its head."""
    n_e = len(m.edges)
    return sp.csr_matrix(
        (np.tile([1.0, -1.0], n_e), (np.repeat(np.arange(n_e), 2), m.edges.ravel())),
        shape=(n_e, m.n_vertices),
    )


def stencil_matrix(m):
    """The (2F, F) CSR matrix of the mesh's Gauss stencil tables
    (``SurfaceMesh.gauss_stencil``): row 2f + a holds weights[a, j, f] at
    column slots[j, f] for each of f's neighbours and f itself, in slot
    order; a face without neighbours has empty rows."""
    slots, weights = m.gauss_stencil
    n_f = slots.shape[1]
    n_nbrs = (m.face_neighbors >= 0).sum(axis=1)
    keep = np.arange(4) < (n_nbrs + (n_nbrs > 0))[:, None]  # (F, 4)
    rows = [(2 * f + a, slots[j, f], weights[a, j, f])
            for f in range(n_f) for a in range(2) for j in range(4) if keep[f, j]]
    indptr = np.searchsorted([r for r, _, _ in rows], np.arange(2 * n_f + 1))
    return sp.csr_matrix(([w for _, _, w in rows], [c for _, c, _ in rows], indptr),
                         shape=(2 * n_f, n_f))


def gauss_stencil_pinv(m, uv):
    """The (2F, F) Gauss-map stencil with every block's weights from np.linalg.pinv."""
    n_f = len(m.triangles)
    bary = uv.mean(axis=1)
    nbrs = m.face_neighbors
    has = nbrs >= 0
    delta = bary[np.where(has, nbrs, 0)] - bary[:, None, :]
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
        slots = np.argsort(~has[faces], axis=1, kind="stable")[:, :c]
        cols_c = np.take_along_axis(nbrs[faces], slots, axis=1)
        q = np.linalg.pinv(np.take_along_axis(delta[faces], slots[..., None], axis=1))
        row = 2 * faces[:, None] + np.arange(2)
        rows += [np.repeat(row, c, axis=1).ravel(), row.ravel()]
        cols += [np.broadcast_to(cols_c[:, None, :], q.shape).ravel(), np.repeat(faces, 2)]
        vals += [q.ravel(), -q.sum(axis=2).ravel()]
    if not rows:
        return sp.csr_matrix((2 * n_f, n_f))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(2 * n_f, n_f)
    )


def vertex_tangent_frames(imm, fd):
    """gauge_lab.vertex_tangent_frames with np.add.at scatters."""
    m = imm.mesh
    n_v = m.n_vertices
    k = imm.positions.shape[1]
    acc_u = np.zeros((n_v, k))
    acc_v = np.zeros((n_v, k))
    for c in range(3):
        np.add.at(acc_u, m.triangles[:, c], fd.area[:, None] * fd.du)
        np.add.at(acc_v, m.triangles[:, c], fd.area[:, None] * fd.dv)
    t1 = imm.geometry.horizontal(imm.positions, acc_u)
    n1 = np.linalg.norm(t1, axis=-1, keepdims=True)
    t1 = t1 / np.maximum(n1, 1e-300)
    t2 = imm.geometry.horizontal(imm.positions, acc_v)
    t2 = t2 - np.sum(t2 * t1, axis=-1, keepdims=True) * t1
    n2 = np.linalg.norm(t2, axis=-1, keepdims=True)
    t2 = t2 / np.maximum(n2, 1e-300)
    return t1, t2


def _edge_chords(imm):
    """Frame chords of every edge seen from its tail and from its head."""
    tails, heads = imm.mesh.edges[:, 0], imm.mesh.edges[:, 1]
    delta = imm.positions[heads] - imm.positions[tails] + seam_shift(imm, tails, heads)
    geo = imm.geometry
    return geo.frame(imm.positions[tails], delta), geo.frame(imm.positions[heads], -delta)


def mean_curvature_one_form(imm):
    """The mean-curvature one-form with a depth-first Python spanning-tree walk,
    a dict of edges for the generator loops and np.add.at scatters."""
    m = imm.mesh
    fd = FaceData(imm)
    weights, areas = cotangent_weights(imm, fd)
    tails, heads = m.edges[:, 0], m.edges[:, 1]
    chords_t, chords_h = _edge_chords(imm)
    lap = np.zeros((m.n_vertices, imm.positions.shape[1]))
    np.add.at(lap, tails, weights[:, None] * chords_t)
    np.add.at(lap, heads, weights[:, None] * chords_h)
    lap /= areas[:, None]
    g_vec = imm.geometry.j(imm.geometry.horizontal(imm.positions, lap))
    gamma = -0.5 * (
        np.sum(g_vec[tails] * chords_t, axis=-1) - np.sum(g_vec[heads] * chords_h, axis=-1)
    )

    curl = np.zeros(len(m.triangles))
    for k in range(3):
        a = m.triangles[:, (k + 1) % 3]
        e = m.face_edges[:, k]
        sign = np.where(m.edges[e, 0] == a, 1.0, -1.0)
        curl += sign * gamma[e]

    beta = np.zeros(m.n_vertices)
    roots = []
    visited = np.zeros(m.n_vertices, bool)
    adj = [[] for _ in range(m.n_vertices)]
    for e, (a, b) in enumerate(m.edges):
        adj[a].append((int(b), e, 1.0))
        adj[b].append((int(a), e, -1.0))
    for comp in components(m, mesh_adjacency(m)["vertex_neighbors"]):
        root = comp[0]
        roots.append(root)
        visited[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            for u, e, sign in adj[v]:
                if not visited[u]:
                    visited[u] = True
                    beta[u] = beta[v] + sign * 0.5 * gamma[e]
                    stack.append(u)

    edge_index = {(int(a), int(b)): e for e, (a, b) in enumerate(m.edges)}
    periods = []
    for loop in m.generator_loops:
        total = 0.0
        for i in range(len(loop)):
            a, b = loop[i], loop[(i + 1) % len(loop)]
            if (a, b) in edge_index:
                total += 0.5 * gamma[edge_index[(a, b)]]
            elif (b, a) in edge_index:
                total -= 0.5 * gamma[edge_index[(b, a)]]
            else:
                raise GeometryDomainError(f"generator loop uses missing edge ({a}, {b})")
        periods.append(float(total))

    lap_beta = np.zeros(m.n_vertices)
    np.add.at(lap_beta, tails, weights * 0.5 * gamma)
    np.add.at(lap_beta, heads, -weights * 0.5 * gamma)
    lap_beta /= areas
    return MeanCurvatureForm(
        gamma=gamma, curl=curl, beta=beta, periods=periods, laplace_beta_residual=lap_beta,
        component_roots=roots, vertex_areas=areas,
    )


# ---------------------------------------------------------------------------
# the lab on the whole mesh


def deck_positions(imm, p0):
    """The vertex positions moved to the deck copy nearest p0 in phi, and the
    copy per vertex, with the gauge evaluated once at every copy."""
    geo = imm.geometry
    pos = imm.positions
    wraps = np.array([(k1, k2) for k1 in (-1, 0, 1) for k2 in (-1, 0, 1)])
    offsets = imm.phi_offsets(wraps)
    branch = np.zeros(len(pos), int)
    if offsets is not None:
        decks = np.unique(-offsets)[:, None] * geo.reeb(p0)
        phis = np.stack([geo.gauge_scalars(p0, pos - d)[1] for d in decks], axis=1)
        branch = np.argmin(np.abs(phis), axis=1)
        pos = pos - decks[branch]
    return pos, branch


def gauge_ball_faces(imm, p0, radius, star=False):
    """The face mask of the gauge ball, from the gauge radii of
    :func:`deck_positions`."""
    r = imm.geometry.gauge_scalars(p0, deck_positions(imm, p0)[0])[2]
    tri = imm.mesh.triangles
    keep = np.any(r[tri] < radius, axis=1)
    if star:
        near = np.zeros(len(r), bool)
        near[tri[keep]] = True
        keep = np.any(near[tri], axis=1)
    return keep


def full_mesh_density(imm, p0, radii, min_radius=None):
    """``legsurf density``'s curve and theta0 from gauge fields of the whole
    immersion, with its resolvable radius as theta0's eta and the default cut."""
    gf = gl.gauge_fields(imm, p0)
    eta = gl.resolvable_radius(imm)
    curve = gl.density_curve(gf, radii, min_radius=eta if min_radius is None else min_radius)
    return curve, gl.theta0_estimate(gf, eta=eta)


def full_mesh_balance(imm, p0, r0, eta):
    """The truncated balance with every term summed over every face."""
    if not 0 < eta < r0:
        raise GeometryDomainError("need 0 < eta < r0")
    gf = gl.gauge_fields(imm, p0)
    fd = imm.face_data
    ok = gf.face_ok
    area = np.where(ok, fd.area, 0.0)
    rr = np.maximum(gf.face_r, 1e-300)

    in_annulus = (rr > eta) & (rr < 2 * r0) & ok
    n_annulus = int(np.count_nonzero(in_annulus))
    if n_annulus < gl.MIN_ANNULUS_FACES:
        raise ResolutionError(
            f"annulus eta < r < 2 r0 holds only {n_annulus} faces (< {gl.MIN_ANNULUS_FACES})"
        )

    dbeta = gl._face_one_form(imm, 0.5 * gl.mean_curvature_edges(imm)[0])
    h_vals = (gl.chi(gf.r / r0) - gl.chi(gf.r / eta)) * gf.arctan_sigma
    dh = fd.grad_scalar(np.where(gf.singular, 0.0, h_vals))
    pair_dh_dbeta = fd.pairing(dh, dbeta)

    grad_r_sq = fd.pairing(gf.face_grad_r, gf.face_grad_r)
    grad_at_sq = fd.pairing(gf.face_grad_arctan, gf.face_grad_arctan)
    cross = fd.pairing(gf.face_grad_r, gf.face_grad_arctan)
    tri = imm.mesh.triangles
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
    cr, ce = gl.chi_prime(xr), gl.chi_prime(xe)
    c2r, c2e = gl.chi_double_prime(xr), gl.chi_double_prime(xe)
    band = gl.chi(xr) - gl.chi(xe)

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
    return gl.MonotonicityReport(
        r0=r0, eta=eta, lhs_terms=lhs, rhs_terms=rhs, bookkeeping=bookkeeping,
        residual=residual, annulus_faces=n_annulus,
    )


# ---------------------------------------------------------------------------
# helpers only the tests call


def pre_restoration_residual(imm, w_field, tau):
    """Residual growth of a raw (unrestored) step; the order-in-tau witness."""
    moved = imm.with_positions(imm.geometry.move(imm.positions, tau * np.asarray(w_field)))
    base = legendrian_residual(imm).values
    after = legendrian_residual(moved).values
    return float(np.max(np.abs(after - base)))


def reeb_rotate_raw(a, b, theta):
    """The frame target's circle action (a, b) -> (cos a + sin b, -sin a + cos b)."""
    c, s = np.cos(theta), np.sin(theta)
    return c * a + s * b, -s * a + c * b


def sphere_product_j_raw(g_plus, g_minus, plus, minus):
    """Product complex structure on the two spheres, reversed on the second factor.

    ``g_plus``, ``g_minus`` are the base point from ``stiefel.hopf_project_raw``;
    ``plus``, ``minus`` are tangent coordinates as ``stiefel.hopf_push_raw``
    returns them.
    """
    bp = g_plus @ st._SIGMA_PLUS.T
    bm = g_minus @ st._SIGMA_MINUS.T
    return np.cross(bp, plus), -np.cross(bm, minus)
