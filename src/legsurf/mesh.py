"""Triangle meshes carrying vertex images in a contact target.

A :class:`SurfaceMesh` stores combinatorics plus optional per-vertex
parameters; a :class:`DiscreteImmersion` adds per-vertex target points.  For
toroidal parameter domains the parameters live on a fundamental domain and
faces crossing the seam are unwrapped locally; a Legendrian coordinate with
nonzero monodromy (the lift of a Lagrangian torus has one) is corrected per
crossing by the stored monodromy, so edge and face computations see the true
immersion rather than the branch jump.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace

import numpy as np

from . import fields
from .errors import GeometryDomainError


def _float_rows(values, shape, what):
    """``values`` as a float :func:`row_storage` of ``shape``; GeometryDomainError otherwise."""
    try:
        out = np.asarray(values, float)
    except ValueError:  # ragged rows
        out = None
    if out is None or out.shape != shape:
        got = "ragged rows" if out is None else f"shape {out.shape}"
        raise GeometryDomainError(f"{what} must have shape {shape}, got {got}")
    return row_storage(out)


def row_storage(values):
    """``values`` (n, ...) as the read-only transposed view of one C-contiguous
    (..., n) buffer, the package's layout.  A writable array is copied into
    it (never aliased, nor frozen); a read-only one already in it is kept."""
    if values.flags.writeable or not values.T.flags.c_contiguous:
        rows = np.array(values.T, order="C")
        rows.flags.writeable = False
        values = rows.T
    return values


def parameter_inverse(uv):
    """The inverse parameter-edge matrices minv (F, 2, 2) and the parameter
    areas (F,) of per-face corner parameters ``uv`` (F, 3, 2), read by rows.

    With M's columns the parameter edge vectors from corner 0, a face's frame
    partials are [du dv] = [e1 e2] minv, minv = M^-1.  minv is the
    transposed view of a C-contiguous (2, 2, F) buffer, component-major like
    :class:`~legsurf.immersion.FaceData`.  Raises GeometryDomainError naming
    the first face of non-positive orientation.
    """
    d1 = uv.T[:, 1] - uv.T[:, 0]  # uv.T[a, c]: component a of corner c
    d2 = uv.T[:, 2] - uv.T[:, 0]
    det_uv = d1[0] * d2[1] - d1[1] * d2[0]
    if np.any(det_uv <= 0):
        bad = int(np.argmin(det_uv))
        raise GeometryDomainError(f"face {bad} has non-positive parameter orientation")
    minv_t = np.empty((2, 2, len(det_uv)))  # minv_t[b, a] = minv[:, a, b]
    minv_t[0, 0] = d2[1]
    minv_t[1, 0] = -d2[0]
    minv_t[0, 1] = -d1[1]
    minv_t[1, 1] = d1[0]
    minv_t /= det_uv
    return minv_t.T, 0.5 * det_uv


#: Gram determinant, relative to the squared trace, below which a stencil block
#: counts as collinear.  The closed form's relative error is about
#: eps * trace^2 / det, so above the cut it stays near 1e-12.
COLLINEAR_GRAM = 1e-4


def _lsq_weights(delta):
    """Pseudo-inverses q[:, :, f] (2, c, n) of the (c, 2) blocks delta[:, :, f]
    of ``delta`` (2, c, n), stacked component-major.

    Each is (d^T d)^-1 d^T with the 2x2 inverse written out, so a zero row
    (a missing neighbour) gets a zero column.  A block whose Gram determinant
    is below ``COLLINEAR_GRAM`` times its squared trace (a single nonzero
    row, or collinear rows) goes to ``np.linalg.pinv``.
    """
    x, y = delta
    g11, g12, g22 = (x * x).sum(axis=0), (x * y).sum(axis=0), (y * y).sum(axis=0)
    det = g11 * g22 - g12 * g12
    collinear = det <= COLLINEAR_GRAM * (g11 + g22) ** 2
    q = np.stack([g22 * x - g12 * y, g11 * y - g12 * x])
    q /= np.where(collinear, 1.0, det)
    if np.any(collinear):
        q[:, :, collinear] = np.linalg.pinv(delta[:, :, collinear].T).transpose(1, 2, 0)
    return q


def gather(positions, index):
    """``positions[index]`` of stacked (V, k) vertex values at a 1-D ``index``,
    gathered row by row from ``positions.T``: the stacked view of one
    C-contiguous (k, len(index)) buffer, like :attr:`DiscreteImmersion.positions`."""
    return np.take(positions.T, index, axis=1).T


def component_count(n_vertices, edges):
    """The number of connected components of the graph on ``n_vertices``
    vertices with ``edges`` (E, 2), an isolated vertex counting as one.

    Each round hooks the larger root of every edge whose two roots differ
    onto the smaller (the least of them, by ``np.minimum.at``), then
    pointer-jumps until every vertex points at its root.  The next round
    takes only those edges, as the pairs of their roots (Shiloach and
    Vishkin, J. Algorithms 1982).  A vertex only ever points at a smaller
    one, so the forest has no cycle, and each round hooks at least one root:
    the count is exact."""
    root = np.arange(n_vertices)
    a, b = np.asarray(edges, int).reshape(-1, 2).T
    while True:
        ra, rb = root[a], root[b]
        differ = ra != rb
        if not differ.any():
            return int(np.count_nonzero(root == np.arange(n_vertices)))
        a, b = np.minimum(ra, rb)[differ], np.maximum(ra, rb)[differ]
        np.minimum.at(root, b, a)
        while not np.array_equal(jumped := root[root], root):
            root = jumped


def grid_triangles(n1, n2, wrap1=False, wrap2=False, offset=0):
    """Two positively oriented triangles per cell of an (n1, n2) vertex grid,
    vertex (i, j) numbered offset + i n2 + j and cells in row-major order:
    (F, 3), written as (3, F) corner rows (:func:`row_storage`'s layout)."""
    i, j = np.meshgrid(
        np.arange(n1 if wrap1 else n1 - 1), np.arange(n2 if wrap2 else n2 - 1), indexing="ij"
    )
    i, j = i.ravel(), j.ravel()

    def vid(a, b):
        return offset + (a % n1) * n2 + (b % n2)

    v00, v10, v11, v01 = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
    tri = np.empty((3, 2 * len(i)), int)
    tri[:, 0::2] = v00, v10, v11
    tri[:, 1::2] = v00, v11, v01
    tri.flags.writeable = False
    return tri.T


class GridSolver:
    """Solves A x = b for a ``matrix`` A that commutes with the translations
    of a periodic ``shape`` = (n1, n2) vertex grid (:attr:`SurfaceMesh.grid_shape`).

    Such an A is block circulant with circulant blocks: A x is the cyclic
    convolution of x with A's column at vertex 0, so the 2-D DFT diagonalises
    it, with that column's DFT as its symbol.  A symmetric A has a real
    symbol.  A solve is two real FFTs and a division, O(V log V) with no
    fill (Strang, Stud. Appl. Math. 1986; Chan and Ng, SIAM Rev. 1996).
    """

    def __init__(self, matrix, shape):
        self.shape = shape
        self.symbol = np.fft.rfft2(matrix[:, [0]].toarray().reshape(shape)).real

    def solve(self, b):
        x = np.fft.irfft2(np.fft.rfft2(np.reshape(b, self.shape)) / self.symbol, s=self.shape)
        return x.ravel()


def seam_differences(positions, edges, phi):
    """The tail positions along ``edges`` (tail, head) and the differences
    head - tail, with the Reeb-row offsets ``phi`` added to coordinate 0
    (None: none).  Both are :func:`gather` row gathers, the tails gathered
    once: stacked (E, k) views of C-contiguous (k, E) buffers."""
    tail = gather(positions, edges[:, 0])
    delta = gather(positions, edges[:, 1])
    delta -= tail
    if phi is not None:
        delta[:, 0] += phi
    return tail, delta


class SurfaceMesh:
    """Oriented manifold triangle mesh with optional parameter coordinates.

    ``triangles`` (F, 3), ``edges`` (E, 2) and ``uv`` (V, 2) are stored by
    :func:`row_storage`, like the positions: ``triangles.T[c]`` is corner c
    of every face, ``edges.T[0]`` every tail and ``uv.T[a]`` parameter a of
    every vertex, each one contiguous row; the seam wraps are built alike."""

    #: Each face's index in the unrestricted mesh, on a :meth:`DiscreteImmersion.restrict` patch.
    parent_faces = None

    def __init__(
        self,
        triangles,
        n_vertices,
        uv=None,
        genus=0,
        boundary_loops=(),
        uv_periods=None,
        generator_loops=(),
    ):
        self.triangles = row_storage(np.asarray(triangles, int).reshape(-1, 3))
        self.n_vertices = int(n_vertices)
        self.uv = None if uv is None else _float_rows(uv, (self.n_vertices, 2), "uv")
        self.genus = int(genus)
        self.boundary_loops = [list(map(int, loop)) for loop in boundary_loops]
        self.uv_periods = (None if uv_periods is None
                           else tuple(float(p or 0.0) for p in uv_periods))
        self.generator_loops = [list(map(int, loop)) for loop in generator_loops]
        for kind, index in (("triangle", self.triangles),
                            ("boundary loop", [v for loop in self.boundary_loops for v in loop]),
                            ("generator loop", [v for loop in self.generator_loops for v in loop])):
            index = np.asarray(index, int)
            if index.size and (index.min() < 0 or index.max() >= self.n_vertices):
                raise GeometryDomainError(f"{kind} index out of range")
        self._build_adjacency()
        self._validate()
        self._seam_offsets = {}  # kind: (monodromy, offsets) of DiscreteImmersion._mesh_offsets

    # -- construction ------------------------------------------------------

    def _build_adjacency(self):
        tri = self.triangles
        n_f, n_v = len(tri), self.n_vertices
        # Slot k * F + f is local edge k of face f (opposite corner k), directed
        # tail -> head along the face.  One stable sort of the undirected keys
        # a * V + b (a < b) lists the edges in (a, b) order, each edge's slots
        # together and in slot order.
        tails, heads = tri.T[[1, 2, 0]].ravel(), tri.T[[2, 0, 1]].ravel()
        keys = np.minimum(tails, heads) * n_v + np.maximum(tails, heads)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        starts = np.ones(len(keys), bool)
        starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
        first = np.flatnonzero(starts)
        counts = np.diff(first, append=len(keys))
        pair = first[counts == 2]
        s0, s1 = order[pair], order[pair + 1]
        # An edge on three faces, or whose two slots share a tail, repeats a
        # directed edge; np.unique finds the first one for the message.
        if np.any(counts > 2) or np.any(tails[s0] == tails[s1]):
            directed = (tri * n_v + np.roll(tri, -1, axis=1)).ravel()  # face-major
            _, at, inverse = np.unique(directed, return_index=True, return_inverse=True)
            f, k = divmod(int(np.argmax(at[inverse] != np.arange(len(directed)))), 3)
            e = (int(tri[f, k]), int(tri[f, (k + 1) % 3]))
            raise GeometryDomainError(f"directed edge {e} repeated: mesh not consistently oriented")
        self.edge_keys = keys = sorted_keys[first]  # edge e joins a < b with key a * V + b
        edges = np.stack(np.divmod(keys, n_v))  # (2, E): tails, heads; a fresh buffer
        edges.flags.writeable = False
        self.edges = edges.T
        inverse = np.empty(len(order), int)
        inverse[order] = np.repeat(np.arange(len(first)), counts)  # each slot's edge
        self.face_edges = inverse.reshape(3, -1).T  # face f, local edge k (opposite corner k)
        # +1 where local edge k runs along its canonical edge (tail < head), -1 against it.
        self.face_edge_signs = np.where(tails < heads, 1.0, -1.0).reshape(3, -1).T
        slot_nbr = -np.ones(3 * n_f, int)
        slot_nbr[s0] = s1 % n_f
        slot_nbr[s1] = s0 % n_f
        self.face_neighbors = slot_nbr.reshape(3, -1).T
        self.boundary_edge_mask = counts == 1

    def _validate(self):
        chi = self.n_vertices - len(self.edges) + len(self.triangles)
        n_comp = component_count(self.n_vertices, self.edges)
        expected = 2 * n_comp - 2 * self.genus - len(self.boundary_loops)
        if chi != expected:
            raise GeometryDomainError(
                f"Euler characteristic {chi} inconsistent with genus {self.genus}, "
                f"{n_comp} components and {len(self.boundary_loops)} boundary loops "
                f"(expected {expected})"
            )

    @functools.cached_property
    def vertex_graph(self):
        """(V, V) CSR matrix with a 1 at (tail, head) of each canonical edge,
        filled straight from the sorted edges on first use (importing
        ``scipy.sparse``): only beta's spanning tree reads it
        (:func:`~legsurf.immersion.mean_curvature_one_form`)."""
        import scipy.sparse as sp

        n_v = self.n_vertices
        indptr = np.searchsorted(self.edges[:, 0], np.arange(n_v + 1))
        return sp.csr_matrix((np.ones(len(self.edges)), self.edges[:, 1], indptr), shape=(n_v, n_v))

    def edge_ids(self, a, b):
        """Canonical edge index of each vertex pair (a, b), in either order;
        -1 where the mesh has no such edge."""
        a, b = np.asarray(a, int), np.asarray(b, int)
        keys = np.minimum(a, b) * self.n_vertices + np.maximum(a, b)
        e = np.minimum(np.searchsorted(self.edge_keys, keys), len(self.edge_keys) - 1)
        return np.where(self.edge_keys[e] == keys, e, -1)

    def edge_divergence(self, values):
        """D^T values, (V,) or (V, k), of edge ``values`` (E,) or (E, k), D the
        (E, V) signed incidence (+1 at each tail, -1 at each head), with no
        matrix: per component one ``np.bincount`` over the edges' (tail, head)
        pairs weighted (y, -y), adding in edge order as ``D.T @ values`` does."""
        values = np.asarray(values, float)
        ends, n_v = self.edges.ravel(), self.n_vertices
        out = [np.bincount(ends, np.stack([y, -y], axis=1).ravel(), minlength=n_v)
               for y in values.reshape(len(values), -1).T]
        return np.stack(out, axis=1).reshape((n_v,) + values.shape[1:])

    def stiffness(self, edge_weights, diagonal):
        """CSC matrix of sum_e w_e (1_tail - 1_head)(1_tail - 1_head)^T + diag(diagonal),
        the sparse sum of a COO Laplacian and the diagonal (an array, or one
        number for every vertex); it imports ``scipy.sparse``."""
        import scipy.sparse as sp

        n_v = self.n_vertices
        tails, heads = self.edges[:, 0], self.edges[:, 1]
        w = edge_weights
        lap = sp.coo_matrix(
            (
                np.concatenate([w, w, -w, -w]),
                (np.concatenate([tails, heads, tails, heads]),
                 np.concatenate([tails, heads, heads, tails])),
            ),
            shape=(n_v, n_v),
        ).tocsr()
        return (lap + sp.diags(np.broadcast_to(diagonal, n_v))).tocsc()

    def laplacian_solver(self, edge_weights, diagonal):
        """A solver of the :meth:`stiffness` matrix of ``edge_weights`` and
        ``diagonal``: on a :attr:`grid_shape` grid, where each of the two is
        constant, the matrix commutes with the grid's translations and the
        solver is its :class:`GridSolver`; otherwise it is the matrix's sparse
        LU factor, its columns ordered on the pattern of A + A^T (A is
        symmetric), and only that branch imports ``scipy.sparse.linalg`` (with
        ``scipy.linalg``).  Only ``descend`` solves, so no other command loads them."""
        matrix = self.stiffness(edge_weights, diagonal)
        if self.grid_shape is not None and np.ptp(edge_weights) == 0 and np.ptp(diagonal) == 0:
            return GridSolver(matrix, self.grid_shape)
        import scipy.sparse.linalg as spla

        return spla.splu(matrix, permc_spec="MMD_AT_PLUS_A")

    @functools.cached_property
    def reeb_solver(self):
        """The :meth:`laplacian_solver` of D^T D + 1e-14 I (D^T is
        :meth:`edge_divergence`): the constraint restoration's normal matrix at
        unit Reeb slopes (always, on the flat target), built on first use."""
        return self.laplacian_solver(np.ones(len(self.edges)), 1e-14)

    @functools.cached_property
    def grid_shape(self):
        """(n1, n2) when the triangles are those of :func:`grid_triangles`
        (n1, n2) wrapped both ways, n1 and n2 the lengths of the two generator
        loops; None otherwise, a relabelled grid included.  It is read from
        the mesh alone, so a saved and reloaded grid is one too."""
        if len(self.generator_loops) != 2:
            return None
        n1, n2 = map(len, self.generator_loops)
        if n1 * n2 != self.n_vertices:
            return None
        same = np.array_equal(self.triangles, grid_triangles(n1, n2, wrap1=True, wrap2=True))
        return (n1, n2) if same else None

    # -- parameter-domain unwrapping ----------------------------------------

    def wraps(self, uv_from, uv_to):
        """Integer period crossings (..., 2) taking ``uv_to`` into ``uv_from``'s
        chart, one periodic row ``uv.T[a]`` at a time into a read-only (2, ...) buffer."""
        rows_from, rows_to = np.asarray(uv_from, float).T, np.asarray(uv_to, float).T
        out = np.zeros(np.broadcast_shapes(rows_from.shape, rows_to.shape), int)
        for a, p in enumerate(self.uv_periods or ()):
            if p:
                out[a] = np.round((rows_to[a] - rows_from[a]) / p)
        out.flags.writeable = False
        return out.T

    @functools.cached_property
    def edge_wraps(self):
        """(E, 2) :meth:`wraps` taking each canonical edge's head into its
        tail's chart (zeros without uv), built on first use from the rows of
        ``uv`` and ``edges``."""
        uv = np.zeros((self.n_vertices, 2)) if self.uv is None else self.uv
        return self.wraps(*(gather(uv, ends) for ends in self.edges.T))

    @functools.cached_property
    def face_uv(self):
        """Read-only per-face parameter constants, built on first use: the
        (F, 3, 2) corner uv, corners 1 and 2 unwrapped into corner 0's chart,
        the (F, 3, 2) :meth:`wraps` removed from them (None when no face
        crosses a seam), and the minv (F, 2, 2) and parameter areas (F,) of
        :func:`parameter_inverse`, all component-major; GeometryDomainError
        without uv."""
        if self.uv is None:
            raise GeometryDomainError("mesh carries no uv parameters")
        uv = np.take(self.uv.T, self.triangles.T, axis=1)  # (2, 3, F): component, corner
        wraps = self.wraps(uv[:, :1].T, uv.T)
        for a, p in enumerate(self.uv_periods or ()):
            uv[a] -= wraps.T[a] * p
        out = (uv.T, wraps if wraps.any() else None, *parameter_inverse(uv.T))
        for arr in out:
            if arr is not None:
                arr.flags.writeable = False
        return out

    @functools.cached_property
    def gauss_stencil(self):
        """The Gauss-map gradient's differencing stencil, read-only (4, F) slots
        and (2, 4, F) weights built on first use; GeometryDomainError without uv.

        Face f with neighbours n_j (in face-edge order) gets the least-squares
        weights q_f = pinv(bary[n_j] - bary[f]) (see :func:`_lsq_weights`) of
        the barycentres of its unwrapped corners (:attr:`face_uv`), the
        parameter differences unwrapped across the seam.  Its slots are the
        n_j and f in ascending order, weighted q_f[a, j] and -sum_j q_f[a, j],
        so sum_j weights[a, j, f] t[slots[j, f]] = sum_j q_f[a, j] (t[n_j] - t[f]).
        A missing neighbour is a zero row of its block, so every face is
        solved at once, and a slot f of weight 0 after the others."""
        if self.uv is None:
            raise GeometryDomainError("the Gauss-map stencil requires uv parameters")
        n_f = len(self.triangles)
        uv = self.face_uv[0].T  # (2, 3, F)
        periods = self.uv_periods or (0.0, 0.0)
        nbrs = self.face_neighbors.T  # (3, F): neighbour slot j of face f
        has = nbrs >= 0
        delta = np.empty((2, 3, n_f))  # component-major parameter differences
        for a, d in enumerate(delta):
            bary = (uv[a, 0] + uv[a, 1] + uv[a, 2]) / 3.0
            np.subtract(bary[np.where(has, nbrs, 0)], bary, out=d)
            if periods[a]:
                d -= np.round(d / periods[a]) * periods[a]
            d[~has] = 0.0
        q = _lsq_weights(delta) * has
        cols = np.vstack([np.where(has, nbrs, n_f + np.arange(n_f)), np.arange(n_f)])
        order = np.argsort(cols, axis=0, kind="stable")  # a missing n_f + f sorts last
        slots = np.take_along_axis(cols, order, axis=0) % n_f
        vals = np.concatenate([q, -q.sum(axis=1, keepdims=True)], axis=1)  # (2, 4, F)
        weights = np.take_along_axis(vals, order[None], axis=1)
        slots.flags.writeable = weights.flags.writeable = False
        return slots, weights

    @functools.cached_property
    def gauss_stencil_t(self):
        """The CSR transpose of the (2F, F) :attr:`gauss_stencil` matrix (row 2f + a:
        weights[a, j, f] at column slots[j, f], for f and its neighbours only), built
        from the tables on first use for the adjoint; it imports ``scipy.sparse``."""
        import scipy.sparse as sp

        slots, weights = self.gauss_stencil
        n_nbrs = (self.face_neighbors >= 0).sum(axis=1)
        keep = np.repeat(np.arange(4) < (n_nbrs + (n_nbrs > 0))[:, None], 2, axis=0)  # (2F, 4)
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        data, cols = weights.transpose(2, 0, 1).reshape(-1, 4)[keep], np.repeat(slots.T, 2, 0)[keep]
        return sp.csr_matrix((data, cols, indptr), shape=(len(keep), len(n_nbrs))).T.tocsr()


@dataclass
class DiscreteImmersion:
    """A mesh with vertex images in one of the two targets.

    ``target`` is the target's name; ``geometry`` is its :class:`fields.Target`.
    ``positions`` is stored by :func:`row_storage`, like the mesh's arrays
    and :class:`~legsurf.immersion.FaceData`'s: the read-only (V, k)
    transposed view of one C-contiguous (k, V) buffer, so ``positions.T[i]``
    is coordinate i of every vertex in one contiguous row.  So the face
    state derived from it, :attr:`face_data`, is built once and kept.
    ``legendrian_tol``, the restoration's residual bound, must be finite and
    positive.
    """

    mesh: SurfaceMesh
    target: str
    positions: np.ndarray
    legendrian_tol: float = 1e-8
    phi_monodromy: tuple = (0.0, 0.0)

    def __post_init__(self):
        self.geometry = fields.geometry(self.target)
        self.positions = _float_rows(
            self.positions, (self.mesh.n_vertices, self.geometry.dim), "positions"
        )
        self.phi_monodromy = (float(self.phi_monodromy[0]), float(self.phi_monodromy[1]))
        if any(self.phi_monodromy) and not self.geometry.carries_monodromy:
            raise GeometryDomainError(
                f"phi_monodromy must be (0, 0) on the {self.target} target, "
                f"got {self.phi_monodromy}"
            )
        if not np.all(np.isfinite(self.positions)):
            raise GeometryDomainError("positions contain non-finite values")
        self.legendrian_tol = float(self.legendrian_tol)
        if not (np.isfinite(self.legendrian_tol) and self.legendrian_tol > 0):
            raise GeometryDomainError(
                f"legendrian_tol must be finite and positive, got {self.legendrian_tol!r}"
            )

    @functools.cached_property
    def face_data(self):
        """The immersion's :class:`~legsurf.immersion.FaceData`, built on first
        use; DegenerateFaceError names a collapsed face on every access."""
        from .immersion import FaceData  # immersion imports this module

        return FaceData(self)

    def with_positions(self, positions):
        return replace(self, positions=positions)

    def restrict(self, faces):
        """The sub-immersion on ``faces`` (indices or a boolean mask), in the
        order given: the vertices they use, renumbered in ascending order,
        with their positions and uv, and the same target, uv periods,
        monodromy and ``legendrian_tol``.

        A patch's topology is only what the Euler check needs: genus 0 and
        2c - (V - E + F) boundary loops for its c components, each loop an
        empty vertex list.  On faces of a manifold mesh that count is never
        negative, pinched vertices included.  Generator loops are dropped;
        ``mesh.parent_faces`` holds each face's index in the unrestricted
        mesh, which a collapsed face's DegenerateFaceError names.
        """
        m = self.mesh
        tri = m.triangles.T[:, faces]  # (3, F) rows
        used = np.zeros(m.n_vertices, bool)
        used[tri] = True
        verts = np.flatnonzero(used)
        renumber = np.cumsum(used) - 1
        edges = renumber[m.edges.T[:, np.unique(m.face_edges[faces])]]  # (2, E) rows
        n_comp = component_count(len(verts), edges.T)
        n_loops = 2 * n_comp - (len(verts) - edges.shape[1] + tri.shape[1])
        tri, rows = renumber[tri], np.take(self.positions.T, verts, axis=1)
        tri.flags.writeable = rows.flags.writeable = False  # fresh row gathers: kept, not copied
        mesh = SurfaceMesh(
            triangles=tri.T,
            n_vertices=len(verts),
            uv=None if m.uv is None else gather(m.uv, verts),
            boundary_loops=[[]] * n_loops,
            uv_periods=m.uv_periods,
        )
        ids = np.arange(len(m.triangles))[faces]
        mesh.parent_faces = ids if m.parent_faces is None else m.parent_faces[ids]
        return replace(self, mesh=mesh, positions=rows.T)

    # -- seam-corrected differences ------------------------------------------

    def phi_offsets(self, wraps):
        """The (...,) offsets of the Reeb row, coordinate 0, across the seam
        crossings ``wraps`` (..., 2): only the flat model carries monodromy,
        and no other row of its seam shift is nonzero.  None when all are
        zero: ``wraps`` None (no crossings) or no monodromy."""
        if wraps is None or not any(self.phi_monodromy):
            return None
        return self.geometry.seam_offset(wraps, self.phi_monodromy)

    def _mesh_offsets(self, kind, wraps):
        """:meth:`phi_offsets` of the mesh's seam crossings ``wraps`` of one
        ``kind``.  They are fixed along a descent, so the mesh keeps each
        kind's offsets for the last monodromy asked for."""
        cache = self.mesh._seam_offsets
        if kind not in cache or cache[kind][0] != self.phi_monodromy:
            cache[kind] = (self.phi_monodromy, self.phi_offsets(wraps))
        return cache[kind][1]

    def corner_offsets(self):
        """:meth:`phi_offsets` (3, F) of the face corners' wraps, or None, kept by the mesh."""
        phi = self._mesh_offsets("corners", self.mesh.face_uv[1])
        return None if phi is None else phi.T

    def edge_offsets(self):
        """:meth:`phi_offsets` (E,) of the mesh's :attr:`SurfaceMesh.edge_wraps`,
        or None, kept by the mesh."""
        return self._mesh_offsets("edges", self.mesh.edge_wraps)

    def edge_differences(self):
        """The tail positions along canonical edges and the seam-corrected
        coordinate differences head - tail: one :func:`seam_differences` with
        the :meth:`edge_offsets`."""
        return seam_differences(self.positions, self.mesh.edges, self.edge_offsets())

    # -- serialization --------------------------------------------------------

    def to_json(self):
        m = self.mesh
        data = {
            "target": self.target,
            "vertices": self.positions.tolist(),
            "triangles": m.triangles.tolist(),
            "genus": m.genus,
            "boundary_loops": m.boundary_loops,
            "legendrian_tol": self.legendrian_tol,
        }
        if m.uv is not None:
            data["uv"] = m.uv.tolist()
        if m.uv_periods is not None:
            data["uv_periods"] = list(m.uv_periods)
        if self.phi_monodromy != (0.0, 0.0):
            data["phi_monodromy"] = list(self.phi_monodromy)
        if m.generator_loops:
            data["generator_loops"] = m.generator_loops
        return data

    def save(self, path):
        with open(path, "w") as f:
            f.write(json.dumps(self.to_json(), sort_keys=True) + "\n")

    @staticmethod
    def from_json(data):
        """The immersion a mesh file holds; raises GeometryDomainError when its
        points are off the target (invariant defect above 1e-11) or an edge's
        Legendrian residual exceeds the file's ``legendrian_tol``."""
        vertices = data["vertices"]
        mesh = SurfaceMesh(
            triangles=data["triangles"],
            n_vertices=len(vertices),
            uv=data.get("uv"),
            genus=data.get("genus", 0),
            boundary_loops=data.get("boundary_loops", []),
            uv_periods=data.get("uv_periods"),
            generator_loops=data.get("generator_loops", []),
        )
        imm = DiscreteImmersion(
            mesh=mesh,
            target=data["target"],
            positions=vertices,
            legendrian_tol=float(data.get("legendrian_tol", 1e-8)),
            phi_monodromy=tuple(data.get("phi_monodromy", (0.0, 0.0))),
        )
        defect = imm.geometry.invariant_defect(imm.positions)
        if defect > 1e-11:
            raise GeometryDomainError(f"vertex frames violate target invariants: {defect:.2e}")
        from .immersion import legendrian_residual  # immersion imports this module
        worst = legendrian_residual(imm).max
        if worst > imm.legendrian_tol:
            raise GeometryDomainError(f"max edge Legendrian residual {worst:.3e} exceeds the "
                                      f"file's legendrian_tol {imm.legendrian_tol:.3e}")
        return imm
