import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapfem import (
    DeconstructedDomain,
    PointLocator,
    SimplicialMesh,
    generate_annulus,
    generate_segment,
    load_mesh,
)
from overlapfem.geometry import (
    _BLOCK_CHECKS,
    CONTAINMENT_TOL,
    _contained,
    locate_points,
    other_coverage_counts,
    simplex_coordinates,
)
from reference import (
    GeometryError,
    PointLocatorGather,
    barycentric_coordinates,
    boundary_facets,
    brute_force_locate,
    generate_disk,
    kuhn_box,
    traced_transient,
)

DATA = Path(__file__).parent / "data"


class TestBarycentricCoordinates:
    def test_corners_and_centroid(self):
        tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(
            barycentric_coordinates(tri, [0.0, 0.0]), [1, 0, 0], atol=1e-14
        )
        np.testing.assert_allclose(
            barycentric_coordinates(tri, tri.mean(axis=0)),
            [1 / 3, 1 / 3, 1 / 3],
            atol=1e-14,
        )

    def test_reconstructs_point_and_sums_to_one(self):
        rng = np.random.default_rng(7)
        tri = rng.normal(size=(4, 3))
        for p in rng.normal(size=(20, 3)):
            c = barycentric_coordinates(tri, p)
            assert c.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(c @ tri, p, atol=1e-12)

    def test_degenerate_simplex(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(GeometryError):
            barycentric_coordinates(tri, [0.5, 0.0])


def random_points(mesh, count, seed):
    rng = np.random.default_rng(seed)
    lo = mesh.vertices.min(axis=0) - 0.2
    hi = mesh.vertices.max(axis=0) + 0.2
    return lo + (hi - lo) * rng.random((count, mesh.dim))


@pytest.mark.parametrize(
    "mesh",
    [
        generate_annulus(1.0, 2.0, 3, 17),
        generate_disk(1.3, 4, 11, 0.3),
        generate_segment(-0.5, 2.0, 23),
        load_mesh((DATA / "box_a.dmesh").read_text()),
    ],
    ids=["annulus", "disk", "segment", "box"],
)
class TestPointLocation:
    def test_tree_matches_brute_force(self, mesh):
        tree = PointLocator(mesh)
        pts = random_points(mesh, 10000, 11)
        found = locate_points(tree, pts)
        for p, t in zip(pts[::37], found[::37]):
            assert t == brute_force_locate(mesh, p)
        # full vectorized-vs-brute sweep on simplex ids
        ref_ids = np.array([brute_force_locate(mesh, p) for p in pts[:500]])
        np.testing.assert_array_equal(found[:500], ref_ids)

    def test_vertices_are_located(self, mesh):
        tree = PointLocator(mesh)
        found = locate_points(tree, mesh.vertices)
        assert (found >= 0).all()

    def test_batch_coordinates_match_scalar(self, mesh):
        tree = PointLocator(mesh)
        pts = random_points(mesh, 2000, 3)
        found = locate_points(tree, pts)
        hit = found >= 0
        coords = simplex_coordinates(mesh, pts[hit], found[hit])
        for p, t, c in list(zip(pts[hit], found[hit], coords))[::29]:
            expected = barycentric_coordinates(mesh.vertices[mesh.simplices[t]], p)
            np.testing.assert_allclose(c, expected, atol=1e-10)


def assert_matches_oracle(mesh, pts):
    """Vectorized location equals :func:`brute_force_locate` point by point."""
    found = locate_points(PointLocator(mesh), pts)
    np.testing.assert_array_equal(found, [brute_force_locate(mesh, p) for p in pts])


def facet_midpoints(mesh):
    """Midpoints of every facet of every simplex (shared facets repeat)."""
    faces = [mesh.simplices[:, list(f)] for f in combinations(range(mesh.dim + 1), mesh.dim)]
    return np.concatenate([mesh.vertices[f].mean(axis=1) for f in faces])


def near_tolerance_points(mesh, rng):
    """Vertices and facet midpoints, each moved by +-0.5, 1 or 2 x CONTAINMENT_TOL
    x the local element extent in a random direction: points whose smallest
    coordinate sits near -CONTAINMENT_TOL in some simplex."""
    d1 = mesh.dim + 1
    extent = np.ptp(mesh.vertices[mesh.simplices], axis=1).max(axis=1)
    vertex_extent = np.zeros(mesh.num_vertices)
    np.maximum.at(vertex_extent, mesh.simplices.ravel(), np.repeat(extent, d1))
    base = np.concatenate([mesh.vertices, facet_midpoints(mesh)])
    size = np.concatenate([vertex_extent, np.tile(extent, d1)])
    size *= rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=len(base)) * CONTAINMENT_TOL
    direction = rng.normal(size=base.shape)
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return base + size[:, None] * direction


class TestContainmentTolerance:
    def test_slightly_outside_point_is_kept(self):
        mesh = generate_segment(0.0, 1.0, 5)
        tree = PointLocator(mesh)
        tol = CONTAINMENT_TOL
        # the tolerance acts on barycentric coordinates: physical slack on the
        # first element (length 1/4) is tol / 4
        assert locate_points(tree, np.array([[-tol / 8]]))[0] >= 0
        assert locate_points(tree, np.array([[-1e-3]]))[0] == -1

    # The slack is barycentric: on elements longer than one unit it reaches
    # farther than the same number in physical units.
    def test_long_segment_matches_brute_force(self):
        mesh = generate_segment(0.0, 100.0, 3)
        tol = CONTAINMENT_TOL
        assert brute_force_locate(mesh, np.array([-tol * 25])) >= 0
        assert_matches_oracle(mesh, np.array([[-tol * 25]]))

    def test_large_disk_facet_midpoints_match_brute_force(self):
        mesh = generate_disk(50.0, 2, 7)
        mid = mesh.vertices[np.array(sorted(boundary_facets(mesh)))].mean(axis=1)
        outside = mid * (1.0 + 10.0 * CONTAINMENT_TOL / 50.0)
        assert_matches_oracle(mesh, outside)

    @pytest.mark.parametrize("scale", [1e-9, 1e-7, 1e-5, 1e-3, 1.0, 1e3, 1e5])
    def test_own_vertices_located_at_any_scale(self, scale):
        # A slack tied to the mesh size falls under rounding error on tiny meshes.
        box = load_mesh((DATA / "box_a.dmesh").read_text())
        q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)))
        mesh = SimplicialMesh(3, scale * box.vertices @ q.T, box.simplices)
        assert (locate_points(PointLocator(mesh), mesh.vertices) >= 0).all()
        assert_matches_oracle(mesh, mesh.vertices)

    def test_point_on_the_tolerance_matches_oracle(self):
        # Simplex 2's smallest coordinate here is -1.00000175e-10 by the inverse
        # edge matrices and -9.99999466e-11 by a LAPACK solve, so a locator and
        # an oracle that used one formula each disagreed (3 against 2).
        box = load_mesh((DATA / "box_a.dmesh").read_text())
        q = np.array([[-0.7023211144349404, -0.6432670082532531, 0.3048813020041938],
                      [0.5769562233825771, -0.7652459251982606, -0.28551740799392944],
                      [0.416973102872328, -0.02462173958856949, 0.9085852747104454]])
        shift = np.array([32.83013155758621, -20.70278969281809, 41.325321550435476])
        mesh = SimplicialMesh(3, 26.488599249685254 * box.vertices @ q.T + shift, box.simplices)
        p = np.array([[25.395780241143036, -26.172919575848997, 46.95995386075345]])
        assert locate_points(PointLocator(mesh), p)[0] == 3
        assert_matches_oracle(mesh, p)


MESHES = st.one_of(
    st.builds(
        generate_annulus,
        st.floats(0.1, 10.0),
        st.floats(10.5, 60.0),
        st.integers(1, 3),
        st.integers(3, 12),
        st.floats(0.0, 1.0),
    ),
    st.builds(
        generate_disk,
        st.floats(0.01, 60.0),
        st.integers(1, 3),
        st.integers(3, 12),
        st.floats(0.0, 1.0),
        st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
    ),
    st.builds(lambda a, length, n: generate_segment(a, a + length, n),
              st.floats(-50.0, 50.0), st.floats(0.01, 200.0), st.integers(2, 12)),
)


@settings(max_examples=40)
@given(mesh=MESHES, seed=st.integers(0, 2**32 - 1))
def test_locator_matches_brute_force_property(mesh, seed):
    # Vertices and facet midpoints lie in several closed simplices, so they
    # exercise the lowest-index tie-break.
    pts = np.concatenate([random_points(mesh, 40, seed), mesh.vertices, facet_midpoints(mesh),
                          near_tolerance_points(mesh, np.random.default_rng(seed))])
    assert_matches_oracle(mesh, pts)


class TestCoverage:
    def test_duplicated_mesh_counts_two(self):
        mesh = generate_disk(1.0, 3, 10)
        dom = DeconstructedDomain([mesh, generate_disk(1.0, 3, 10)])
        inner = 0.5 * mesh.vertices[mesh.simplices].mean(axis=1)
        counts = other_coverage_counts(dom, None, inner)
        assert (counts == 2).all()

    def test_vector_matches_scalar(self):
        # The reference counts the meshes in which the oracle finds each point.
        segments = [generate_segment(0.0, 0.7, 9), generate_segment(0.3, 1.0, 8)]
        annuli = [generate_annulus(1.0, 1.6, 2, 12), generate_annulus(1.4, 2.0, 2, 12, 0.1)]
        annulus_pts = np.concatenate([random_points(annuli[0], 150, 2),
                                      random_points(annuli[1], 150, 3),
                                      annuli[0].vertices, annuli[1].vertices])
        for meshes, pts in ((segments, np.linspace(-0.1, 1.1, 101)[:, None]),
                            (annuli, annulus_pts)):
            counts = other_coverage_counts(DeconstructedDomain(meshes), None, pts)
            expected = [sum(brute_force_locate(m, p) >= 0 for m in meshes) for p in pts]
            np.testing.assert_array_equal(counts, expected)


class TestGridLocator:
    def test_one_long_element_keeps_candidates_local(self):
        # 20,000 elements on [0, 1] plus one 99-unit element: a search radius
        # set by the largest element would pair every point with every small one.
        x = np.r_[np.linspace(0.0, 1.0, 20001), 100.0][:, None]
        mesh = SimplicialMesh(1, x, np.column_stack([np.arange(20001), np.arange(1, 20002)]))
        tree = PointLocator(mesh)
        pts = np.random.default_rng(5).random((2000, 1))
        pi, _ = tree.candidates(pts, tree.cells(pts))
        assert len(pi) < 10 * len(pts)
        found = locate_points(tree, pts)
        assert (found >= 0).all()
        # The oracle scans simplices in order, so take points up to x = 0.05.
        near = pts[pts[:, 0] < 0.05][:10]
        assert_matches_oracle(mesh, np.r_[near, [[0.0], [1.0], [50.0], [100.5]]])

    @settings(max_examples=20)
    @given(exponent=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_affine_box_matches_brute_force_property(self, exponent, seed):
        box = load_mesh((DATA / "box_a.dmesh").read_text())
        rng = np.random.default_rng(seed)
        scale = 10.0**exponent
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        linear = scale * q * rng.uniform(0.5, 2.0, size=3)
        mesh = SimplicialMesh(3, box.vertices @ linear.T + scale * rng.uniform(-10, 10, size=3),
                              box.simplices)
        lo, hi = mesh.bbox()
        around = lo + (hi - lo) * rng.uniform(-0.2, 1.2, size=(40, 3))
        assert_matches_oracle(mesh, np.concatenate([around, mesh.vertices, facet_midpoints(mesh),
                                                    near_tolerance_points(mesh, rng)]))

    def test_solves_do_not_import_scipy_spatial(self):
        script = (
            "import sys\n"
            "from overlapfem import DeconstructedDomain, QuadratureSpec, assemble_global,"
            " constrained_modes, generate_annulus, solve_poisson\n"
            "from overlapfem.solver import coupling_for_mode\n"
            "dom = DeconstructedDomain([generate_annulus(1.0, 1.6, 2, 12),"
            " generate_annulus(1.4, 2.0, 2, 12, 0.1)], [(0, 0, 0.0)])\n"
            "quad = QuadratureSpec.corner_average()\n"
            "solve_poisson(dom, quad)\n"
            "L, M = assemble_global(dom, quad)\n"
            "constrained_modes(L, M, coupling_for_mode(dom, 'boundary_only')[1], 3)\n"
            "assert 'scipy.spatial' not in sys.modules\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        subprocess.run([sys.executable, "-c", script], check=True, cwd=src, timeout=120)


def assert_same_grid(mesh):
    """The locator's grid equals the gather reference's bit for bit."""
    tree, ref = PointLocator(mesh), PointLocatorGather(mesh)
    for name in ("lo", "hi", "origin", "bins", "bin_size", "bin_start"):
        got, want = getattr(tree, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.flags.c_contiguous, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert tree.cell == ref.cell
    assert tree.shape == ref.shape


class TestGridMatchesGatherReference:
    @pytest.mark.parametrize(
        "mesh",
        [
            generate_segment(-3.0, 7.0, 200),
            generate_annulus(5.0 / 4.0, 2.0, 50, 576, np.pi / 576),
            kuhn_box(6),
        ],
        ids=["segment", "annulus", "kuhn_box"],
    )
    def test_same_grid(self, mesh):
        assert_same_grid(mesh)

    @settings(max_examples=30)
    @given(mesh=MESHES)
    def test_same_grid_property(self, mesh):
        assert_same_grid(mesh)


def test_locator_build_transient_is_bounded():
    # On an 8^3 Kuhn box, the grid build's transient was 3.9 times the bytes
    # the locator keeps with the (t, d+1, d) gather and allocating
    # expressions, and is 1.7 times with the (d, d+1, t) gather and the
    # in-place padding and expansion.
    mesh = kuhn_box(8)
    tree, transient = traced_transient(lambda: PointLocator(mesh))
    kept = sum(getattr(tree, name).nbytes
               for name in ("lo", "hi", "bins", "bin_size", "bin_start"))
    assert transient <= 2.5 * kept


def test_containment_check_transient_is_bounded():
    # Pairs are checked _BLOCK_CHECKS at a time, so four blocks of pairs need
    # no more memory at the peak than one.
    mesh = kuhn_box(8)
    n = 4 * _BLOCK_CHECKS
    rng = np.random.default_rng(2)
    pts, simplices = rng.random((n, 3)), rng.integers(0, mesh.num_simplices, n)
    _, one = traced_transient(lambda: _contained(mesh, pts[:_BLOCK_CHECKS], simplices[:_BLOCK_CHECKS]))
    _, four = traced_transient(lambda: _contained(mesh, pts, simplices))
    assert four <= 1.05 * one
