import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapfem import (
    DeconstructedDomain,
    QuadratureSpec,
    SimplicialMesh,
    adjusted_volumes,
    assemble_global,
    generate_annulus,
    generate_segment,
    load_mesh,
    lumped_mass_matrix,
    stiffness_matrix,
)
from overlapfem import fem, geometry
from overlapfem.fem import _element_points, quadrature_rule
from overlapfem.geometry import locate_points, other_coverage_counts
from reference import (
    generate_disk,
    gradient_matrix,
    kuhn_box,
    other_coverage_counts_per_point,
    stiffness_matrix_coo,
    traced_transient,
)
from test_geometry import MESHES, near_tolerance_points

DATA = Path(__file__).parent / "data"


def monomial_integral_triangle(a, b):
    # int over the unit triangle x,y>=0, x+y<=1 of x^a y^b = a! b! / (a+b+2)!
    return (
        math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
    )


class TestQuadratureSpec:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpec("midpoint")

    def test_monte_carlo_has_no_fixed_rule(self):
        with pytest.raises(ValueError, match="monte_carlo has no fixed rule"):
            quadrature_rule(QuadratureSpec.monte_carlo(), 2)

    def test_symmetric_point_counts(self):
        with pytest.raises(ValueError):
            QuadratureSpec.symmetric(7)
        for n in (1, 4, 10):
            assert QuadratureSpec.symmetric(n).n_points == n

    def test_rules_are_normalized(self):
        for dim in (1, 2, 3):
            for spec in (
                QuadratureSpec.corner_average(),
                QuadratureSpec.barycenter(),
                QuadratureSpec.symmetric(4),
                QuadratureSpec.symmetric(10),
            ):
                w, pts = quadrature_rule(spec, dim)
                assert w.sum() == pytest.approx(1.0, abs=1e-12)
                assert (w > 0).all()
                np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n_points,degree", [(4, 2), (10, 3)])
    def test_symmetric_triangle_degree(self, n_points, degree):
        w, bary = quadrature_rule(QuadratureSpec.symmetric(n_points), 2)
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pts = bary @ corners
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                got = 0.5 * (w * pts[:, 0] ** a * pts[:, 1] ** b).sum()
                assert got == pytest.approx(
                    monomial_integral_triangle(a, b), abs=1e-14
                ), (a, b)


class TestGradientMatrix:
    @pytest.mark.parametrize(
        "mesh",
        [generate_segment(0.0, 2.0, 7), generate_annulus(1.0, 2.0, 2, 9)],
        ids=["1d", "2d"],
    )
    def test_affine_fields_have_exact_gradients(self, mesh):
        rng = np.random.default_rng(5)
        g = rng.normal(size=mesh.dim)
        u = mesh.vertices @ g + 0.3
        G = gradient_matrix(mesh)
        grads = (G @ u).reshape(mesh.num_simplices, mesh.dim)
        np.testing.assert_allclose(grads, np.tile(g, (mesh.num_simplices, 1)), atol=1e-12)


class TestAdjustedVolumes:
    def test_single_mesh_is_plain_measures(self):
        mesh = generate_disk(1.0, 3, 12)
        dom = DeconstructedDomain([mesh])
        np.testing.assert_allclose(
            adjusted_volumes(dom, 0, QuadratureSpec.corner_average()),
            mesh.measures,
            rtol=1e-14,
        )

    def test_duplicated_mesh_halves(self):
        mesh = generate_disk(1.0, 3, 12)
        dom = DeconstructedDomain([mesh, generate_disk(1.0, 3, 12)])
        for spec in (QuadratureSpec.corner_average(), QuadratureSpec.symmetric(4)):
            np.testing.assert_allclose(
                adjusted_volumes(dom, 0, spec),
                0.5 * mesh.measures,
                rtol=1e-12,
            )

    def test_monte_carlo_is_seed_deterministic(self):
        a = generate_segment(0.0, 0.7, 9)
        b = generate_segment(0.3, 1.0, 8)
        dom = DeconstructedDomain([a, b])
        one = adjusted_volumes(dom, 0, QuadratureSpec.monte_carlo(50, 3))
        two = adjusted_volumes(dom, 0, QuadratureSpec.monte_carlo(50, 3))
        other = adjusted_volumes(dom, 0, QuadratureSpec.monte_carlo(50, 4))
        np.testing.assert_array_equal(one, two)
        assert not np.array_equal(one, other)

    def test_partition_of_unity_total(self):
        # Overlapping segments: adjusted volumes sum to the union length.
        a = generate_segment(0.0, 0.75, 13)
        b = generate_segment(0.25, 1.0, 13)
        dom = DeconstructedDomain([a, b])
        total = sum(
            adjusted_volumes(dom, k, QuadratureSpec.corner_average()).sum()
            for k in range(2)
        )
        # 0.25 and 0.75 are element midpoints of the other mesh, so corner
        # sampling integrates the coverage jump exactly.
        assert total == pytest.approx(1.0, abs=1e-12)

    # K identical copies cover every quadrature point K times, the copy it
    # belongs to included, so each copy carries 1/K of the single mesh.
    @settings(max_examples=30)
    @given(mesh=MESHES, copies=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_copies_sum_to_single_mesh_measure(self, mesh, copies, seed):
        dom = DeconstructedDomain([mesh] * copies)
        measure = mesh.measures.sum()
        for spec in (
            QuadratureSpec.corner_average(),
            QuadratureSpec.barycenter(),
            QuadratureSpec.symmetric(4),
            QuadratureSpec.symmetric(10),
            QuadratureSpec.monte_carlo(5, seed),
        ):
            total = sum(adjusted_volumes(dom, k, spec).sum() for k in range(copies))
            assert total == pytest.approx(measure, rel=1e-12)


COVERAGE_RULES = (
    QuadratureSpec.corner_average(),
    QuadratureSpec.barycenter(),
    QuadratureSpec.symmetric(4),
    QuadratureSpec.symmetric(10),
    QuadratureSpec.monte_carlo(8, 5),
)


@st.composite
def coverage_domains(draw):
    """Two or three subdomains: Kuhn boxes at x offsets that are multiples of
    1/8, so the grids match where 1/8 is a multiple of 1/n and cut elements
    otherwise; or a ``MESHES`` mesh and copies of it, each shifted by nothing
    (the same grid) or by a fraction of the mesh's extent."""
    count = draw(st.integers(2, 3))
    if draw(st.booleans()):
        n = draw(st.sampled_from([2, 4]))
        return [kuhn_box(n, draw(st.sampled_from([0.0, 0.125, 0.25, 0.5]))) for _ in range(count)]
    mesh = draw(MESHES)
    extent = np.ptp(mesh.vertices, axis=0).max()
    shifts = draw(st.lists(st.sampled_from([0.0, 0.1, 0.37]), min_size=count - 1,
                           max_size=count - 1))
    return [mesh] + [SimplicialMesh(mesh.dim, mesh.vertices + f * extent, mesh.simplices)
                     for f in shifts]


def element_groups_near_tolerance(mesh, rng):
    """``near_tolerance_points`` of ``mesh`` grouped by its simplices, as
    (t, d+1, d) arrays: the moved corners, and the moved facet midpoints."""
    near = near_tolerance_points(mesh, rng)
    corners, mids = near[: mesh.num_vertices], near[mesh.num_vertices:]
    return [corners[mesh.simplices],
            mids.reshape(mesh.dim + 1, mesh.num_simplices, mesh.dim).transpose(1, 0, 2)]


class TestGroupedCoverage:
    """``other_coverage_counts`` on (t, q, d) points: one search per element,
    then a containment check of its q points against the simplex found."""

    @settings(max_examples=25, deadline=None)
    @given(meshes=coverage_domains(), seed=st.integers(0, 2**32 - 1))
    def test_counts_match_per_point_oracle(self, meshes, seed):
        dom = DeconstructedDomain(meshes)
        calls = []

        def recorded(domain, k, points):
            calls.append((k, points))
            return other_coverage_counts(domain, k, points)

        # The points each rule samples: nudged corners and interior points.
        with mock.patch.object(fem, "other_coverage_counts", recorded):
            for spec in COVERAGE_RULES:
                for k in range(len(meshes)):
                    adjusted_volumes(dom, k, spec)
        # Points within a few CONTAINMENT_TOL of another mesh's facets.
        rng = np.random.default_rng(seed)
        for b, mesh in enumerate(meshes):
            calls.extend((k, points) for points in element_groups_near_tolerance(mesh, rng)
                         for k in range(len(meshes)) if k != b)
        for k, points in calls:
            counts = other_coverage_counts(dom, k, points)
            assert counts.shape == points.shape[:-1]
            expected = other_coverage_counts_per_point(dom, k, points.reshape(-1, dom.dim))
            np.testing.assert_array_equal(counts.ravel(), expected)

    def test_one_search_per_element_plus_failed_checks(self):
        # Box 1 covers x >= 0.5 of box 0 with the same grid. There each element
        # of box 0 lies in one element of box 1, and its nudged corners pass
        # the check against it. The elements at x < 0.5 find no simplex, and
        # their q corners are searched point by point.
        a = kuhn_box(8)
        dom = DeconstructedDomain([a, kuhn_box(8, 0.5)])
        t, q = a.num_simplices, 4
        outside = int((a.vertices[a.simplices].mean(axis=1)[:, 0] < 0.5).sum())
        sizes = []

        def counted(tree, points):
            sizes.append(len(points))
            return locate_points(tree, points)

        with mock.patch.object(geometry, "locate_points", counted):
            adjusted_volumes(dom, 0, QuadratureSpec.corner_average())
            assert sizes == [t, q * outside]  # q t = 12,288 points before
            sizes.clear()
            # One point per element: one search each, never a second.
            adjusted_volumes(dom, 0, QuadratureSpec.barycenter())
            assert sizes == [t]

    def test_grouped_transient_is_bounded(self):
        # On the box pair above, the grouped count's transient is 1.8 MB
        # (corner_average) and 2.8 MB (symmetric 10), against 3.9 and 4.5 MB
        # for one locate_points search of every point.
        a = kuhn_box(8)
        dom = DeconstructedDomain([a, kuhn_box(8, 0.5)])
        tree = dom.locators[1]
        for spec in (QuadratureSpec.corner_average(), QuadratureSpec.symmetric(10)):
            pts = _element_points(a, quadrature_rule(spec, 3)[1])
            _, grouped = traced_transient(lambda: other_coverage_counts(dom, 0, pts))
            _, per_point = traced_transient(lambda: locate_points(tree, pts.reshape(-1, 3)))
            assert grouped <= per_point

    def test_monte_carlo_blocks_equal_one_draw(self, monkeypatch):
        a = generate_annulus(1.0, 1.6, 2, 12)
        dom = DeconstructedDomain([a, generate_annulus(1.4, 2.0, 2, 12, 0.1)])
        t, s = a.num_simplices, 30
        spec = QuadratureSpec.monte_carlo(s, 7)
        whole = adjusted_volumes(dom, 0, spec)
        # One (t, s) draw, counted point by point.
        bary = np.random.default_rng(7).dirichlet(np.ones(3), size=(t, s))
        pts = np.einsum("tsj,tjd->tsd", bary, a.vertices[a.simplices]).reshape(-1, 2)
        cov = 1 + other_coverage_counts_per_point(dom, 0, pts).reshape(t, s)
        np.testing.assert_array_equal(whole, a.measures * (1.0 / cov).mean(axis=1))
        # One element per block, then 29 and 19 elements.
        for block in (s, 29 * s + 1):
            monkeypatch.setattr(fem, "_SAMPLE_BLOCK", block)
            np.testing.assert_array_equal(adjusted_volumes(dom, 0, spec), whole)


class TestAssembly:
    def test_stiffness_annihilates_constants(self):
        mesh = generate_annulus(1.0, 2.0, 3, 11)
        dom = DeconstructedDomain([mesh])
        a = adjusted_volumes(dom, 0, QuadratureSpec.corner_average())
        L = stiffness_matrix(mesh, a)
        assert np.abs(L @ np.ones(mesh.num_vertices)).max() < 1e-12
        dense = L.toarray()
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)
        assert np.linalg.eigvalsh(dense).min() > -1e-10

    def test_mass_total_matches_volumes(self):
        mesh = generate_disk(1.0, 3, 12)
        dom = DeconstructedDomain([mesh])
        a = adjusted_volumes(dom, 0, QuadratureSpec.corner_average())
        M = lumped_mass_matrix(mesh, a)
        assert M.diagonal().sum() == pytest.approx(a.sum(), rel=1e-14)

    def test_negative_volume_rejected(self):
        mesh = generate_segment(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            stiffness_matrix(mesh, np.array([1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("assemble", [stiffness_matrix, lumped_mass_matrix])
    def test_wrong_volume_count_rejected(self, assemble):
        mesh = generate_segment(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="adjusted volumes have wrong length"):
            assemble(mesh, np.ones(mesh.num_simplices - 1))

    def test_global_blocks(self):
        a = generate_segment(0.0, 0.7, 6)
        b = generate_segment(0.3, 1.0, 5)
        dom = DeconstructedDomain([a, b])
        L, M = assemble_global(dom, QuadratureSpec.corner_average())
        assert L.shape == (11, 11)
        np.testing.assert_array_equal(dom.offsets, [0, 6, 11])
        # off-diagonal blocks are empty
        assert abs(L[:6, 6:]).sum() == 0
        assert np.abs(L @ np.ones(11)).max() < 1e-12


def product_stiffness(mesh, a):
    """The sparse product G^T diag(a) G, the reference for the element-matrix sum."""
    G = gradient_matrix(mesh)
    return (G.T @ sp.diags(np.repeat(a, mesh.dim)) @ G).tocsr()


class TestStiffnessElementMatrices:
    @pytest.mark.parametrize(
        "mesh",
        [load_mesh((DATA / "box_a.dmesh").read_text()), generate_segment(-0.5, 2.0, 23)],
        ids=["box", "segment"],
    )
    def test_same_pattern_as_product(self, mesh):
        a = np.random.default_rng(2).uniform(0.5, 1.0, mesh.num_simplices)
        L, ref = stiffness_matrix(mesh, a), product_stiffness(mesh, a)
        np.testing.assert_array_equal(L.indptr, ref.indptr)
        np.testing.assert_array_equal(L.indices, ref.indices)
        np.testing.assert_allclose(L.data, ref.data, rtol=0, atol=1e-14 * np.abs(ref.data).max())

    def test_annulus_values_match_product(self):
        mesh = generate_annulus(1.0, 2.0, 6, 40, 0.1)
        a = np.random.default_rng(3).uniform(0.5, 1.0, mesh.num_simplices)
        L, ref = stiffness_matrix(mesh, a), product_stiffness(mesh, a)
        assert abs(L - ref).max() <= 1e-14 * np.abs(ref.data).max()
        assert L.has_canonical_format
        assert (L.data != 0).all()


def assert_same_csr(mesh, seed):
    """The stiffness matrix equals the int64-index COO reference bit for bit."""
    a = np.random.default_rng(seed).uniform(0.5, 1.0, mesh.num_simplices)
    L, ref = stiffness_matrix(mesh, a), stiffness_matrix_coo(mesh, a)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(L, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


class TestStiffnessMatchesCooReference:
    @pytest.mark.parametrize(
        "mesh",
        [
            generate_segment(-3.0, 7.0, 200),
            generate_annulus(5.0 / 4.0, 2.0, 50, 576, math.pi / 576),
            kuhn_box(6),
        ],
        ids=["segment", "annulus", "kuhn_box"],
    )
    def test_same_csr(self, mesh):
        assert_same_csr(mesh, 4)

    @settings(max_examples=30)
    @given(mesh=MESHES, seed=st.integers(0, 2**32 - 1))
    def test_same_csr_property(self, mesh, seed):
        assert_same_csr(mesh, seed)


def test_stiffness_transient_is_bounded():
    # On an 8^3 Kuhn box, assembly's transient was 42 times the bytes of the
    # CSR it returns with int64 COO indices, and is 24 times with int32 ones
    # and the hat gradients freed first.
    mesh = kuhn_box(8)
    mesh.edge_inverses  # cached on the mesh, so not counted
    a = mesh.measures.copy()
    L, transient = traced_transient(lambda: stiffness_matrix(mesh, a))
    assert transient <= 32 * (L.data.nbytes + L.indices.nbytes + L.indptr.nbytes)


def test_element_points_transient_is_bounded():
    # On a 16^3 Kuhn box with the corner rule, forming the nudged points out
    # of place left a transient of 2.28 times their bytes; formed in place,
    # with the corners freed once the centroid is taken, it is 1.28 times.
    mesh = kuhn_box(16)
    _, bary = quadrature_rule(QuadratureSpec.corner_average(), 3)
    pts, transient = traced_transient(lambda: _element_points(mesh, bary))
    assert transient <= 1.5 * pts.nbytes
