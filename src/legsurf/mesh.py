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
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from . import fields
from .errors import GeometryDomainError


def _float_array(values, shape, what):
    """``values`` as a float array of ``shape``; GeometryDomainError names the shape otherwise."""
    try:
        out = np.asarray(values, float)
    except ValueError:  # ragged rows
        out = None
    if out is None or out.shape != shape:
        got = "ragged rows" if out is None else f"shape {out.shape}"
        raise GeometryDomainError(f"{what} must have shape {shape}, got {got}")
    return out


def parameter_inverse(uv):
    """The inverse parameter-edge matrices minv (F, 2, 2) and the parameter
    areas (F,) of per-face corner parameters ``uv`` (F, 3, 2).

    With M's columns the parameter edge vectors from corner 0, a face's frame
    partials are [du dv] = [e1 e2] minv, minv = M^-1.  minv is the
    transposed view of a C-contiguous (2, 2, F) buffer, component-major like
    :class:`~legsurf.immersion.FaceData`.  Raises GeometryDomainError naming
    the first face of non-positive orientation.
    """
    d1 = uv[:, 1] - uv[:, 0]
    d2 = uv[:, 2] - uv[:, 0]
    det_uv = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    if np.any(det_uv <= 0):
        bad = int(np.argmin(det_uv))
        raise GeometryDomainError(f"face {bad} has non-positive parameter orientation")
    minv_t = np.empty((2, 2, len(d1)))  # minv_t[b, a] = minv[:, a, b]
    minv_t[0, 0] = d2[:, 1]
    minv_t[1, 0] = -d2[:, 0]
    minv_t[0, 1] = -d1[:, 1]
    minv_t[1, 1] = d1[:, 0]
    minv_t /= det_uv
    return minv_t.T, 0.5 * det_uv


#: Gram determinant, relative to the squared trace, below which a stencil block
#: counts as collinear.  The closed form's relative error is about
#: eps * trace^2 / det, so above the cut it stays near 1e-12.
COLLINEAR_GRAM = 1e-4


def _lsq_weights(delta):
    """Pseudo-inverses (n, 2, c) of the (c, 2) blocks of ``delta`` (n, c, 2).

    Each is (d^T d)^-1 d^T with the 2x2 inverse written out.  A block whose
    Gram determinant is below ``COLLINEAR_GRAM`` times its squared trace (a
    single row, or collinear rows) goes to ``np.linalg.pinv``.
    """
    x, y = delta[..., 0], delta[..., 1]
    g11, g12, g22 = np.sum(x * x, axis=1), np.sum(x * y, axis=1), np.sum(y * y, axis=1)
    det = g11 * g22 - g12 * g12
    collinear = det <= COLLINEAR_GRAM * (g11 + g22) ** 2
    det = np.where(collinear, 1.0, det)[:, None]
    q = np.stack([(g22[:, None] * x - g12[:, None] * y) / det,
                  (g11[:, None] * y - g12[:, None] * x) / det], axis=1)
    if np.any(collinear):
        q[collinear] = np.linalg.pinv(delta[collinear])
    return q


class SurfaceMesh:
    """Oriented manifold triangle mesh with optional parameter coordinates."""

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
        self.triangles = np.asarray(triangles, int).reshape(-1, 3)
        self.n_vertices = int(n_vertices)
        self.uv = None if uv is None else _float_array(uv, (self.n_vertices, 2), "uv")
        self.genus = int(genus)
        self.boundary_loops = [list(map(int, loop)) for loop in boundary_loops]
        self.uv_periods = None if uv_periods is None else (
            float(uv_periods[0]) if uv_periods[0] else 0.0,
            float(uv_periods[1]) if uv_periods[1] else 0.0,
        )
        self.generator_loops = [list(map(int, loop)) for loop in generator_loops]
        for kind, index in (("triangle", self.triangles.ravel()),
                            ("boundary loop", [v for loop in self.boundary_loops for v in loop]),
                            ("generator loop", [v for loop in self.generator_loops for v in loop])):
            index = np.asarray(index, int)
            if index.size and (index.min() < 0 or index.max() >= self.n_vertices):
                raise GeometryDomainError(f"{kind} index out of range")
        self._build_adjacency()
        self._validate()
        self._restoration = None  # (edge slopes, factor) of the last restoration_factor call

    # -- construction ------------------------------------------------------

    def _build_adjacency(self):
        tri = self.triangles
        n_f, n_v = len(tri), self.n_vertices
        # Canonical undirected edges (lexicographic, as integer keys a * V + b)
        # and face->edge incidence; slot k * F + f is local edge k of face f.
        raw = np.concatenate([tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]])
        keys, inverse = np.unique(raw.min(axis=1) * n_v + raw.max(axis=1), return_inverse=True)
        self.edge_keys = keys  # sorted; edge e joins a < b with key a * V + b
        self.edges = np.stack([keys // n_v, keys % n_v], axis=1)
        self.face_edges = inverse.reshape(3, -1).T  # face f, local edge k (opposite corner k)
        self._edge_face_counts = np.bincount(inverse, minlength=len(keys))
        # An interior edge's two slots are adjacent once slots are sorted by edge.
        by_edge = np.argsort(inverse, kind="stable")
        first = np.cumsum(self._edge_face_counts) - self._edge_face_counts
        pair = first[self._edge_face_counts == 2]
        s0, s1 = by_edge[pair], by_edge[pair + 1]
        slot_nbr = -np.ones(3 * n_f, int)
        slot_nbr[s0] = s1 % n_f
        slot_nbr[s1] = s0 % n_f
        self.face_neighbors = slot_nbr.reshape(3, -1).T
        self.boundary_edge_mask = self._edge_face_counts == 1
        self.boundary_vertices = set(np.unique(self.edges[self.boundary_edge_mask]).tolist())

    def _validate(self):
        tri = self.triangles
        directed = (tri * self.n_vertices + np.roll(tri, -1, axis=1)).ravel()  # face-major
        _, first, inverse = np.unique(directed, return_index=True, return_inverse=True)
        repeated = np.flatnonzero(first[inverse] != np.arange(len(directed)))
        if repeated.size:
            f, k = divmod(int(repeated[0]), 3)
            e = (int(tri[f, k]), int(tri[f, (k + 1) % 3]))
            raise GeometryDomainError(f"directed edge {e} repeated: mesh not consistently oriented")
        # An edge on three or more faces repeats a directed edge, so it is caught above.
        chi = self.n_vertices - len(self.edges) + len(tri)
        n_comp, _ = connected_components(self.vertex_graph, directed=False)
        expected = 2 * n_comp - 2 * self.genus - len(self.boundary_loops)
        if chi != expected:
            raise GeometryDomainError(
                f"Euler characteristic {chi} inconsistent with genus {self.genus}, "
                f"{n_comp} components and {len(self.boundary_loops)} boundary loops "
                f"(expected {expected})"
            )

    @functools.cached_property
    def vertex_graph(self):
        """(V, V) CSR matrix with a 1 at (tail, head) of each canonical edge;
        ``vertex_graph + vertex_graph.T`` is the symmetric adjacency."""
        n_v = self.n_vertices
        return sp.csr_matrix(
            (np.ones(len(self.edges)), (self.edges[:, 0], self.edges[:, 1])), shape=(n_v, n_v)
        )

    def edge_ids(self, a, b):
        """Canonical edge index of each vertex pair (a, b), in either order;
        -1 where the mesh has no such edge."""
        a, b = np.asarray(a, int), np.asarray(b, int)
        keys = np.minimum(a, b) * self.n_vertices + np.maximum(a, b)
        e = np.minimum(np.searchsorted(self.edge_keys, keys), len(self.edge_keys) - 1)
        return np.where(self.edge_keys[e] == keys, e, -1)

    @functools.cached_property
    def edge_incidence(self):
        """(E, V) signed incidence D: +1 at each edge's tail, -1 at its head."""
        n_e = len(self.edges)
        return sp.csr_matrix(
            (np.tile([1.0, -1.0], n_e), (np.repeat(np.arange(n_e), 2), self.edges.ravel())),
            shape=(n_e, self.n_vertices),
        )

    def stiffness(self, edge_weights, diagonal):
        """CSC matrix of sum_e w_e (1_tail - 1_head)(1_tail - 1_head)^T + diag(diagonal),
        the sparse sum of a COO Laplacian and the diagonal."""
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
        return (lap + sp.diags(diagonal)).tocsc()

    def restoration_factor(self, slopes):
        """LU factor of D^T diag(slopes^2) D + 1e-14 I, D the :attr:`edge_incidence`.

        The factor of the last call is kept and reused while ``slopes`` is
        bitwise unchanged.
        """
        cached = self._restoration
        if cached is None or not np.array_equal(cached[0], slopes):
            d = self.edge_incidence
            normal = d.T @ sp.diags(slopes * slopes) @ d + 1e-14 * sp.identity(self.n_vertices)
            cached = self._restoration = (
                slopes.copy(), spla.splu(normal.tocsc(), permc_spec="MMD_AT_PLUS_A")
            )
        return cached[1]

    # -- parameter-domain unwrapping ----------------------------------------

    def wraps(self, uv_from, uv_to):
        """Integer period crossings taking uv_to into uv_from's chart."""
        if self.uv_periods is None:
            return np.zeros(np.shape(uv_to), int) if np.ndim(uv_to) else 0
        d = np.asarray(uv_to, float) - np.asarray(uv_from, float)
        w = np.zeros_like(d)
        for axis in (0, 1):
            p = self.uv_periods[axis]
            if p:
                w[..., axis] = np.round(d[..., axis] / p)
        return w.astype(int)

    @functools.cached_property
    def edge_wraps(self):
        """(E, 2) read-only :meth:`wraps` taking each canonical edge's head into
        its tail's chart (zeros without uv), built on first use."""
        tails, heads = self.edges[:, 0], self.edges[:, 1]
        if self.uv is None:
            out = np.zeros((len(self.edges), 2), int)
        else:
            out = self.wraps(self.uv[tails], self.uv[heads])
        out.flags.writeable = False
        return out

    def corner_uv_local(self):
        """(F, 3, 2) per-face uv with corners 1, 2 unwrapped into corner 0's chart,
        and the matching (F, 3, 2) integer wraps that were removed."""
        if self.uv is None:
            raise GeometryDomainError("mesh carries no uv parameters")
        uv = self.uv[self.triangles]  # (F, 3, 2)
        wraps = np.zeros_like(uv)
        if self.uv_periods is not None:
            base = uv[:, [0], :]
            w = self.wraps(np.broadcast_to(base, uv.shape), uv)
            periods = np.array([self.uv_periods[0] or 0.0, self.uv_periods[1] or 0.0])
            uv = uv - w * periods
            wraps = w
        return uv, wraps.astype(int)

    @functools.cached_property
    def face_uv(self):
        """Read-only per-face parameter constants, built on first use: the
        (F, 3, 2) wraps of :meth:`corner_uv_local` and the minv (F, 2, 2) and
        parameter areas (F,) of :func:`parameter_inverse`."""
        uv, wraps = self.corner_uv_local()
        out = (wraps, *parameter_inverse(uv))
        for arr in out:
            arr.flags.writeable = False
        return out

    @functools.cached_property
    def gauss_stencil(self):
        """The (2F, F) CSR neighbour-differencing stencil D of the Gauss-map
        gradient, built on first use; GeometryDomainError without uv.

        Face f with neighbours n_j (in face-edge order) gets the least-squares
        weights q_f = pinv(bary[n_j] - bary[f]) (see :func:`_lsq_weights`) of
        its :meth:`corner_uv_local` barycentres, the parameter differences
        unwrapped across the seam; row 2f + a holds q_f[a, j] at column n_j and
        -sum_j q_f[a, j] at column f, so
        (D @ t)[2f + a] = sum_j q_f[a, j] (t[n_j] - t[f]).
        Faces without neighbours get empty rows.
        """
        if self.uv is None:
            raise GeometryDomainError("the Gauss-map stencil requires uv parameters")
        n_f = len(self.triangles)
        bary = self.corner_uv_local()[0].mean(axis=1)
        nbrs = self.face_neighbors
        has = nbrs >= 0
        nbr_bary = bary[np.where(has, nbrs, 0)]
        delta = nbr_bary - bary[:, None, :]  # (F, 3, 2)
        if self.uv_periods is not None:
            delta -= self.wraps(bary[:, None, :], nbr_bary) * self.uv_periods
        count = has.sum(axis=1)
        rows, cols, vals = [], [], []
        for c in (1, 2, 3):
            faces = np.where(count == c)[0]
            if not faces.size:
                continue
            slots = np.argsort(~has[faces], axis=1, kind="stable")[:, :c]  # keep edge order
            cols_c = np.take_along_axis(nbrs[faces], slots, axis=1)  # (n, c)
            q = _lsq_weights(np.take_along_axis(delta[faces], slots[..., None], axis=1))  # (n, 2, c)
            row = 2 * faces[:, None] + np.arange(2)  # (n, 2)
            rows += [np.repeat(row, c, axis=1).ravel(), row.ravel()]
            cols += [np.broadcast_to(cols_c[:, None, :], q.shape).ravel(), np.repeat(faces, 2)]
            vals += [q.ravel(), -q.sum(axis=2).ravel()]
        if not rows:
            return sp.csr_matrix((2 * n_f, n_f))
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(2 * n_f, n_f)
        )

    @functools.cached_property
    def gauss_stencil_t(self):
        """The CSR transpose of :attr:`gauss_stencil`, built on first use."""
        return self.gauss_stencil.T.tocsr()

    def components(self):
        """Connected components as ascending vertex-index lists, ordered by smallest vertex."""
        n_comp, labels = connected_components(self.vertex_graph, directed=False)
        by_label = np.argsort(labels, kind="stable")
        sizes = np.bincount(labels, minlength=n_comp)
        ends = np.cumsum(sizes)
        comps = [by_label[end - size:end].tolist() for size, end in zip(sizes, ends)]
        return sorted(comps, key=lambda c: c[0])


@dataclass
class DiscreteImmersion:
    """A mesh with vertex images in one of the two targets.

    ``target`` is the target's name; ``geometry`` is its :class:`fields.Target`.
    ``positions`` is read-only (a writable array passed in is copied), so the
    face state derived from it, :attr:`face_data`, is built once and kept.
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
        positions = _float_array(
            self.positions, (self.mesh.n_vertices, self.geometry.dim), "positions"
        )
        if positions.flags.writeable:  # never alias, nor freeze, the caller's array
            positions = positions.copy()
            positions.flags.writeable = False
        self.positions = positions
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
        return DiscreteImmersion(
            mesh=self.mesh,
            target=self.target,
            positions=positions,
            legendrian_tol=self.legendrian_tol,
            phi_monodromy=self.phi_monodromy,
        )

    # -- seam-corrected differences ------------------------------------------

    def seam_shift(self, tails, heads):
        """Ambient offsets moving the points at vertices ``heads`` into the branch of ``tails``."""
        m = self.mesh
        if m.uv is None:
            wraps = np.zeros(np.shape(heads) + (2,), int)
        else:
            wraps = m.wraps(m.uv[tails], m.uv[heads])
        return self.geometry.seam_shift(wraps, self.phi_monodromy)

    def edge_shift(self):
        """:meth:`seam_shift` of the canonical edges (tail -> head), from the
        mesh's cached :attr:`SurfaceMesh.edge_wraps`."""
        return self.geometry.seam_shift(self.mesh.edge_wraps, self.phi_monodromy)

    def edge_vectors(self):
        """Seam-corrected coordinate differences along canonical edges (tail -> head)."""
        tails, heads = self.mesh.edges[:, 0], self.mesh.edges[:, 1]
        return self.positions[heads] - self.positions[tails] + self.edge_shift()

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
        points are off the target (invariant defect above 1e-11)."""
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
        return imm
