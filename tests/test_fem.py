import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapfem import (
    DeconstructedDomain,
    QuadratureSpec,
    adjusted_volumes,
    assemble_global,
    generate_annulus,
    generate_disk,
    generate_segment,
    gradient_matrix,
    load_mesh,
    lumped_mass_matrix,
    stiffness_matrix,
)
from overlapfem.fem import quadrature_rule
from overlapfem.mesh import simplex_measures
from test_geometry import MESHES

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
            simplex_measures(mesh),
            rtol=1e-14,
        )

    def test_duplicated_mesh_halves(self):
        mesh = generate_disk(1.0, 3, 12)
        dom = DeconstructedDomain([mesh, generate_disk(1.0, 3, 12)])
        for spec in (QuadratureSpec.corner_average(), QuadratureSpec.symmetric(4)):
            np.testing.assert_allclose(
                adjusted_volumes(dom, 0, spec),
                0.5 * simplex_measures(mesh),
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
        measure = simplex_measures(mesh).sum()
        for spec in (
            QuadratureSpec.corner_average(),
            QuadratureSpec.barycenter(),
            QuadratureSpec.symmetric(4),
            QuadratureSpec.symmetric(10),
            QuadratureSpec.monte_carlo(5, seed),
        ):
            total = sum(adjusted_volumes(dom, k, spec).sum() for k in range(copies))
            assert total == pytest.approx(measure, rel=1e-12)


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

    def test_global_blocks(self):
        a = generate_segment(0.0, 0.7, 6)
        b = generate_segment(0.3, 1.0, 5)
        dom = DeconstructedDomain([a, b])
        L, M, offsets = assemble_global(dom, QuadratureSpec.corner_average())
        assert L.shape == (11, 11)
        np.testing.assert_array_equal(offsets, [0, 6, 11])
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
