"""The ball-local lab: sub-immersions, the deck copies and gauge balls of one
gauge pass, and the density, theta0 and truncated balance evaluated on them,
each against its oracle."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import reference_loops as ref
from legsurf import cli, corpus, gauge_lab as gl
from legsurf.errors import DegenerateFaceError, ResolutionError
from legsurf.immersion import edge_chords

MESHES = {
    "flat_patch": lambda: corpus.flat_patch(32),
    "double_sheet": lambda: corpus.double_sheet(32),
    "clifford_flat": lambda: corpus.clifford_lift(64, warp=0.3),
    "clifford_frame": lambda: corpus.clifford_lift(64, target="stiefel", warp=0.3),
    "perturbed_clifford": lambda: corpus.perturbed_clifford(32, seed=3),
}


@functools.lru_cache(maxsize=None)
def mesh(name):
    return MESHES[name]()


def base_point(imm, vertex, lift):
    """Vertex ``vertex`` of ``imm`` moved by ``lift`` along the Reeb field."""
    q = imm.positions[vertex % imm.mesh.n_vertices]
    return imm.geometry.move(q, lift * imm.geometry.reeb(q))


def assert_close(got, want, rel=1e-12, scale=0.0):
    assert abs(got - want) <= rel * max(abs(want), scale), (got, want)


def density_on_ball(imm, p0, radii, eta):
    """``legsurf density``'s evaluation: gauge fields on the gauge ball out to
    the largest radius or theta0's kernel, with the whole mesh's ``eta``."""
    radius = max(max(radii), gl.THETA0_KERNEL[1] * eta)
    gf = gl.gauge_fields(gl.gauge_ball(imm, p0, radius), p0)
    return gl.density_curve(gf, radii, min_radius=eta), gl.theta0_estimate(gf, eta=eta)


def assert_lab_matches_oracle(imm, p0, radius, evaluate_on=None):
    """Density ratios, component counts, theta0, the annulus count and the
    twelve balance terms about p0 agree with the full-mesh oracles.

    The balance runs at r0 = radius / 2 and eta = r0 / 4, the density at
    radius / 2, 3 radius / 4 and radius.  ``evaluate_on`` is the immersion
    the ball-local side is handed (default ``imm``)."""
    local = imm if evaluate_on is None else evaluate_on
    radii = [0.5 * radius, 0.75 * radius, radius]
    curve, theta = density_on_ball(local, p0, radii, gl.resolvable_radius(imm))
    want_curve, want_theta = ref.full_mesh_density(imm, p0, radii)
    assert curve.excluded == want_curve.excluded
    assert curve.min_radius == want_curve.min_radius
    assert np.array_equal(curve.radii, want_curve.radii)
    assert np.array_equal(curve.counts, want_curve.counts)
    for got, want in zip(curve.ratios, want_curve.ratios):
        assert_close(got, want)
    assert theta[3] == want_theta[3]  # the same eta
    assert_close(theta[0], want_theta[0])

    r0 = 0.5 * radius
    try:
        want = ref.full_mesh_balance(imm, p0, r0, 0.25 * r0)
    except ResolutionError as exc:
        with pytest.raises(ResolutionError, match=str(exc).replace("(", r"\(").replace(")", r"\)")):
            gl.monotonicity_balance(local, p0, r0, 0.25 * r0)
        return
    got = gl.monotonicity_balance(local, p0, r0, 0.25 * r0)
    assert got.annulus_faces == want.annulus_faces
    terms = {**want.lhs_terms, **want.rhs_terms}
    scale = max(abs(v) for v in terms.values())
    for side in ("lhs_terms", "rhs_terms", "bookkeeping"):
        for key, value in getattr(want, side).items():
            # dh_dbeta is rounding noise on the Clifford lift: compare it
            # against the balance's scale.
            assert_close(getattr(got, side)[key], value,
                         scale=scale if key == "dh_dbeta" else 0.0)
    # The residual is lhs - rhs: its rounding is on the scale of the terms.
    assert_close(got.residual, want.residual, scale=scale)


@settings(max_examples=30, deadline=None)
@given(name=hst.sampled_from(sorted(MESHES)), vertex=hst.integers(0, 10**6),
       radius=hst.floats(0.05, 1.6), lift=hst.sampled_from([0.0, 0.02, 0.1]))
@example(name="clifford_flat", vertex=0, radius=0.6, lift=0.0)  # seam base points
@example(name="clifford_flat", vertex=64 * 64 - 1, radius=0.6, lift=0.0)
@example(name="clifford_frame", vertex=0, radius=0.6, lift=0.0)
@example(name="clifford_frame", vertex=64 * 64 - 1, radius=0.6, lift=0.0)
@example(name="clifford_flat", vertex=0, radius=20.0, lift=0.0)  # the ball is the mesh
@example(name="perturbed_clifford", vertex=17, radius=20.0, lift=0.0)
@example(name="flat_patch", vertex=500, radius=0.5, lift=100.0)  # an empty ball
@example(name="double_sheet", vertex=149465, radius=0.26171875, lift=0.02)  # residual 4.5e-12 rel
def test_ball_local_lab_matches_full_mesh(name, vertex, radius, lift):
    imm = mesh(name)
    assert_lab_matches_oracle(imm, base_point(imm, vertex, lift), radius)


def pinched_vertices(imm):
    """Vertices whose faces form more than one fan: a face count above the
    count of incident interior edges by two or more."""
    m = imm.mesh
    faces = np.bincount(m.triangles.ravel(), minlength=m.n_vertices)
    interior = np.bincount(m.edges[~m.boundary_edge_mask].ravel(), minlength=m.n_vertices)
    return np.flatnonzero(faces - interior >= 2)


def ball_faces(imm, p0, radius, star=False):
    """The parent's face mask of :func:`gauge_lab.gauge_ball`, from the
    gauge radii of :func:`gauge_lab.gauge_fields` on the whole mesh."""
    tri = imm.mesh.triangles
    keep = np.any(gl.gauge_fields(imm, p0).r[tri] < radius, axis=1)
    if star:
        near = np.zeros(imm.mesh.n_vertices, bool)
        near[tri[keep]] = True
        keep = np.any(near[tri], axis=1)
    return keep


@pytest.mark.parametrize("name, vertex, radius", [("clifford_flat", 2080, 0.6),
                                                  ("perturbed_clifford", 528, 1.0)])
def test_pinched_selection_matches_full_mesh(name, vertex, radius):
    # The balance's ball with its one-ring, plus one outside face that
    # touches it at a single vertex: a patch with a pinched vertex, which
    # the lab evaluates like the whole mesh.
    imm = mesh(name)
    p0 = imm.positions[vertex]
    keep = ball_faces(imm, p0, radius, star=True)
    used = np.zeros(imm.mesh.n_vertices, bool)
    used[imm.mesh.triangles[keep]] = True
    touching = np.flatnonzero(~keep & (used[imm.mesh.triangles].sum(axis=1) == 1))
    keep[touching[0]] = True
    patch = imm.restrict(keep)
    assert pinched_vertices(patch).size == 1
    assert_lab_matches_oracle(imm, p0, radius, evaluate_on=patch)


class TestRestrict:
    def test_face_data_is_the_parents(self):
        imm = mesh("clifford_flat")
        faces = np.arange(100, 900, 3)
        sub = imm.restrict(faces)
        assert (sub.target, sub.phi_monodromy, sub.legendrian_tol) == (
            imm.target, imm.phi_monodromy, imm.legendrian_tol)
        assert sub.mesh.uv_periods == imm.mesh.uv_periods
        verts = np.unique(imm.mesh.triangles[faces])
        assert np.array_equal(verts[sub.mesh.triangles], imm.mesh.triangles[faces])
        assert np.array_equal(sub.positions, imm.positions[verts])
        for attr in ("area", "du", "dv", "gauss"):
            assert np.allclose(getattr(sub.face_data, attr), getattr(imm.face_data, attr)[faces],
                               rtol=1e-14, atol=1e-15)

    def test_euler_count_of_patches(self):
        imm = mesh("clifford_flat")
        whole = imm.restrict(np.ones(len(imm.mesh.triangles), bool))
        assert len(whole.mesh.boundary_loops) == 2  # a torus counts 2c - chi = 2
        empty = imm.restrict(np.zeros(len(imm.mesh.triangles), bool))
        assert empty.mesh.n_vertices == 0 and empty.face_data.area.size == 0

    def test_collapsed_face_is_named_by_its_mesh_index(self):
        fp = corpus.flat_patch(32)
        pos = fp.positions.copy()
        face = 1000
        a, b, c = fp.mesh.triangles[face]
        pos[c] = pos[a] + 0.5 * (pos[b] - pos[a])
        imm = fp.with_positions(pos)
        ball = gl.gauge_ball(imm, pos[a], 0.2)
        inner = gl.gauge_ball(ball, pos[a], 0.1)  # a patch of a patch
        assert inner.mesh.n_vertices < ball.mesh.n_vertices < imm.mesh.n_vertices
        for patch in (ball, inner):
            with pytest.raises(DegenerateFaceError) as exc:
                patch.face_data
            assert exc.value.face_id == face

    def test_empty_ball_evaluates_to_zero(self):
        imm = mesh("flat_patch")
        p0 = base_point(imm, 0, 100.0)
        ball = gl.gauge_ball(imm, p0, 1.0, star=True)
        assert ball.mesh.n_vertices == 0
        curve = gl.density_curve(gl.gauge_fields(ball, p0), [1.0], min_radius=0.1)
        assert curve.ratios.tolist() == [0.0] and curve.counts.tolist() == [0]


class TestGaugeBall:
    def test_whole_mesh_ball_is_the_immersion(self):
        imm = mesh("perturbed_clifford")
        assert gl.gauge_ball(imm, imm.positions[5], 50.0) is imm

    @pytest.mark.parametrize("star", [False, True])
    def test_ball_faces(self, star):
        imm = mesh("clifford_frame")
        p0 = imm.positions[2080]
        keep = ball_faces(imm, p0, 0.6, star=star)
        ball = gl.gauge_ball(imm, p0, 0.6, star=star)
        assert np.array_equal(ball.face_data.area, imm.restrict(keep).face_data.area)
        assert 0 < keep.sum() < len(keep)
        # With the one-ring every vertex of a face in the ball keeps its full
        # star: 6 faces on the torus grid.
        faces = np.bincount(imm.mesh.triangles[keep].ravel(), minlength=imm.mesh.n_vertices)
        inner = np.unique(imm.mesh.triangles[ball_faces(imm, p0, 0.6)])
        assert np.all(faces[inner] == 6) == star


@pytest.mark.parametrize("n", [32, 128])
def test_density_csv_keeps_the_whole_mesh_eta(n, tmp_path, capsys):
    # The theta0 line and the excluded radii of density.csv are the
    # whole mesh's: eta is the full immersion's resolvable radius, not the
    # gauge ball's median edge.
    assert cli.main(["density", "--family", "flat_patch", "--resolution", str(n),
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "density.csv").read_text().splitlines()
    theta_line = next(line for line in lines if line.startswith("# theta0"))
    excluded = next(line for line in lines if line.startswith("# excluded radii"))
    imm = corpus.flat_patch(n)
    p0 = cli._base_point(imm, {"base_point": "center"})
    curve, (theta0, mult, _, eta) = ref.full_mesh_density(imm, p0, [0.05, 0.075, 0.1])
    _, theta_got, _, mult_got, _, eta_got = theta_line[2:].split()
    assert float(eta_got) == eta
    assert excluded == f"# excluded radii {curve.excluded}"
    assert_close(float(theta_got), theta0)
    assert_close(float(mult_got), mult)


@pytest.mark.parametrize("make", [
    lambda: corpus.flat_patch(24),
    lambda: corpus.double_sheet(16),
    lambda: corpus.clifford_lift(24),
    lambda: corpus.clifford_lift(24, warp=0.3),
    lambda: corpus.clifford_lift(24, target="stiefel", warp=0.3),
    lambda: corpus.perturbed_clifford(16, seed=3),
    lambda: corpus.perturbed_clifford(12, seed=1, target="stiefel"),
])
def test_resolvable_radius_is_three_median_chord_lengths(make):
    imm = make()
    lengths = np.linalg.norm(np.ascontiguousarray(edge_chords(imm)), axis=-1)
    assert gl.resolvable_radius(imm) == pytest.approx(3.0 * np.median(lengths), rel=1e-15)


# ---------------------------------------------------------------------------
# deck copies from one gauge pass

DECK_MESHES = {
    **{f"clifford_{n}_warp_{warp}": functools.partial(corpus.clifford_lift, n, warp=warp)
       for n in (16, 24, 48) for warp in (0.0, 0.3)},
    "perturbed_clifford": lambda: corpus.perturbed_clifford(24, seed=5),
}
DECK_WRAPS = np.array([(k1, k2) for k1 in (-1, 0, 1) for k2 in (-1, 0, 1)])


@functools.lru_cache(maxsize=None)
def deck_mesh(name):
    return DECK_MESHES[name]()


def seam_examples(test):
    # Vertices 0 and n^2 - 1 (-1, as base_point reads vertices modulo the
    # vertex count) sit on the seam of every lift.
    for name in DECK_MESHES:
        for vertex in (0, -1):
            test = example(name=name, vertex=vertex, radius=0.6, lift=0.0)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(name=hst.sampled_from(sorted(DECK_MESHES)), vertex=hst.integers(0, 10**6),
       radius=hst.floats(0.05, 4.0), lift=hst.floats(-4.0, 4.0))
@seam_examples
def test_one_gauge_pass_picks_the_oracle_copies(name, vertex, radius, lift):
    # The same copy per vertex as one gauge evaluation per copy, bitwise the
    # same positions, and the same gauge ball with and without its one-ring.
    imm = deck_mesh(name)
    p0 = base_point(imm, vertex, lift)
    pos, branch = gl._deck_positions(imm, p0)
    want_pos, want_branch = ref.deck_positions(imm, p0)
    assert np.array_equal(branch, want_branch)
    assert pos.tobytes() == want_pos.tobytes()
    n_faces = len(imm.mesh.triangles)
    for star in (False, True):
        ball = gl.gauge_ball(imm, p0, radius, star=star)
        got = np.arange(n_faces) if ball is imm else ball.mesh.parent_faces
        assert np.array_equal(got, np.flatnonzero(ref.gauge_ball_faces(imm, p0, radius, star)))


def test_near_ties_are_settled_at_the_copies():
    # phi - s rounds unlike phi of the moved point: from vertex 14 of the
    # uniform n=16 lift the nearest s by phi - s alone is another copy than
    # the oracle's for a vertex midway between two copies.
    imm = deck_mesh("clifford_16_warp_0.0")
    p0 = imm.positions[14]
    phi = imm.geometry.gauge_scalars(p0, imm.positions)[1]
    shifts = np.unique(-imm.phi_offsets(DECK_WRAPS))
    by_difference = np.argmin(np.abs(phi[:, None] - shifts), axis=1)
    want = ref.deck_positions(imm, p0)[1]
    assert np.any(by_difference != want)
    assert np.array_equal(gl._deck_positions(imm, p0)[1], want)
