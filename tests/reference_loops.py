"""Per-element loop versions of the sparse and vectorised kernels.

They are the implementations the package used before its stencils became
sparse operators, kept here only as oracles for the equivalence tests.
"""

import numpy as np


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
    boundary_vertices = set()
    for e, is_b in enumerate(boundary_edge_mask):
        if is_b:
            boundary_vertices.update(map(int, edges[e]))
    return dict(
        edges=edges, face_edges=face_edges, face_neighbors=face_neighbors,
        boundary_edge_mask=boundary_edge_mask, vertex_neighbors=vertex_neighbors,
        boundary_vertices=boundary_vertices,
    )


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
    uv, _ = mesh.corner_uv_local()
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
