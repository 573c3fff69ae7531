import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapfem import (
    DeconstructedDomain,
    SimplicialMesh,
    all_vertex_constraints,
    boundary_only_constraints,
    constraint_matrix,
    constraints_to_csv,
    generate_annulus,
    generate_segment,
    thin_constraints,
)
from reference import bbox_diagonal
from test_geometry import MESHES


def segment_pair(n=9):
    a = generate_segment(0.0, 0.7, n)
    b = generate_segment(0.3, 1.0, n)
    return DeconstructedDomain([a, b])


def matrix_of(dom, cs):
    return constraint_matrix(cs, dom.offsets)


class TestConstraintConstruction:
    def test_boundary_only_targets_boundary_vertices(self):
        dom = segment_pair(9)
        cs = boundary_only_constraints(dom)
        # one overlapped boundary vertex per mesh: 0.7 in B and 0.3 in A
        assert sorted(map(tuple, cs.target.tolist())) == [(0, 8), (1, 0)]

    def test_all_vertices_covers_overlap(self):
        dom = segment_pair(9)
        cs = all_vertex_constraints(dom)
        for a, mesh in enumerate(dom.subdomains):
            lo, hi = 0.3, 0.7
            inside = {
                v
                for v in range(mesh.num_vertices)
                if lo - 1e-12 <= mesh.vertices[v, 0] <= hi + 1e-12
            }
            assert set(cs.target[cs.target[:, 0] == a, 1].tolist()) == inside

    def test_pinned_targets_are_skipped(self):
        a = generate_segment(0.0, 0.7, 9)
        b = generate_segment(0.3, 1.0, 9)
        dom = DeconstructedDomain([a, b], [(0, 8, 1.0)])
        cs = boundary_only_constraints(dom)
        assert sorted(map(tuple, cs.target.tolist())) == [(1, 0)]

    def test_coefficients_sum_to_one_exactly(self):
        dom = DeconstructedDomain(
            [generate_annulus(1.0, 1.6, 2, 13), generate_annulus(1.4, 2.0, 2, 15, 0.1)]
        )
        cs = all_vertex_constraints(dom)
        assert len(cs)
        for coefficients in cs.coefficients:
            total = 0.0
            for c in coefficients:
                total += c
            assert total == 1.0


class TestPrecision:
    @pytest.mark.parametrize("builder", [all_vertex_constraints, boundary_only_constraints])
    def test_constant_and_linear_precision(self, builder):
        dom = DeconstructedDomain(
            [generate_annulus(1.0, 1.6, 2, 13), generate_annulus(1.4, 2.0, 2, 15, 0.1)]
        )
        C = matrix_of(dom, builder(dom))
        X = dom.stacked_vertices()
        assert np.abs(C @ np.ones(dom.total_vertices)).max() == 0.0
        for d in range(dom.dim):
            assert np.abs(C @ X[:, d]).max() <= 1e-10

    @settings(max_examples=40)
    @given(
        mesh=MESHES,
        shift=st.floats(0.05, 0.5),
        scale=st.floats(0.7, 1.3),
        builder=st.sampled_from([all_vertex_constraints, boundary_only_constraints]),
    )
    def test_rows_sum_to_one_and_reproduce_linears_property(self, mesh, shift, scale, builder):
        # The second mesh is the first one scaled about its low corner and
        # moved along its bounding-box diagonal, so the two overlap.
        lo, hi = mesh.bbox()
        moved = lo + scale * (mesh.vertices - lo) + shift * (hi - lo)
        dom = DeconstructedDomain([mesh, SimplicialMesh(mesh.dim, moved, mesh.simplices)])
        cs = builder(dom)
        for coefficients in cs.coefficients:
            assert coefficients.sum() == 1.0
        C = matrix_of(dom, cs)
        X = dom.stacked_vertices()
        for d in range(dom.dim):
            assert np.abs(C @ X[:, d]).max(initial=0.0) <= 1e-12 * bbox_diagonal(dom)


def row_fields(cs, r):
    """Row r of a constraint set: target, anchor, anchor vertices, coefficients."""
    return (
        tuple(int(x) for x in cs.target[r]),
        tuple(int(x) for x in cs.anchor[r]),
        cs.anchor_vertices[r],
        cs.coefficients[r],
    )


def constraint_matrix_loop(cs, offsets, N):
    m = len(cs)
    rows, cols, vals = [], [], []
    for r in range(m):
        (a, i), (b, _), anchor_vertices, coefficients = row_fields(cs, r)
        rows.append(r)
        cols.append(int(offsets[a]) + int(i))
        vals.append(1.0)
        for j, c in zip(anchor_vertices, coefficients):
            rows.append(r)
            cols.append(int(offsets[b]) + int(j))
            vals.append(-float(c))
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, N))


def thin_constraints_loop(cs):
    """Dict-based thinning: the input indices of the kept rows, by ascending target.

    A (subdomain, vertex) scores the number of rows involving it as target or
    anchor vertex; a row scores the mean over its involved vertices, and the
    least (score, anchor subdomain, anchor simplex, input index) wins.
    """
    m = len(cs)

    def involved(r):
        (a, i), (b, _), anchor_vertices, _ = row_fields(cs, r)
        return [(a, i)] + [(b, int(j)) for j in anchor_vertices]

    vertex_score = {}
    for r in range(m):
        for key in involved(r):
            vertex_score[key] = vertex_score.get(key, 0) + 1
    best = {}
    for r in range(m):
        keys = involved(r)
        score = sum(vertex_score[k] for k in keys) / len(keys)
        target, anchor, _, _ = row_fields(cs, r)
        rank = (score, anchor[0], anchor[1], r)
        if target not in best or rank < best[target][0]:
            best[target] = (rank, r)
    return [best[t][1] for t in sorted(best)]


class TestConstraintMatrix:
    @pytest.mark.parametrize("kind", ["all_vertices", "thinned", "empty"])
    def test_matches_loop(self, kind):
        meshes = [
            generate_annulus(1.0, 1.6, 2, 13),
            generate_annulus(1.4, 2.0, 2, 15, 0.1),
            generate_annulus(1.2, 1.8, 3, 11, 0.05),
        ]
        dom = DeconstructedDomain(meshes)
        if kind == "all_vertices":
            cs = all_vertex_constraints(dom)
        elif kind == "thinned":
            cs = thin_constraints(boundary_only_constraints(dom))
        else:
            cs = all_vertex_constraints(DeconstructedDomain(meshes[:1]))
        got = matrix_of(dom, cs)
        ref = constraint_matrix_loop(cs, dom.offsets, dom.total_vertices)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        np.testing.assert_array_equal(got.indptr, ref.indptr)
        np.testing.assert_array_equal(got.indices, ref.indices)
        np.testing.assert_array_equal(got.data, ref.data)


class TestThinning:
    def test_requires_boundary_only_mode(self):
        dom = segment_pair()
        with pytest.raises(ValueError):
            thin_constraints(all_vertex_constraints(dom))

    def test_one_row_per_target(self):
        meshes = [
            generate_segment(0.0, 0.6, 13),
            generate_segment(0.2, 0.8, 13),
            generate_segment(0.4, 1.0, 13),
        ]
        dom = DeconstructedDomain(meshes)
        cs = boundary_only_constraints(dom)
        thin = thin_constraints(cs)
        targets = set(map(tuple, cs.target.tolist()))
        assert sorted(map(tuple, thin.target.tolist())) == sorted(targets)
        assert len(thin) < len(cs)
        inputs = np.column_stack([cs.target, cs.anchor, cs.anchor_vertices, cs.coefficients])
        kept = np.column_stack([thin.target, thin.anchor, thin.anchor_vertices, thin.coefficients])
        assert all((inputs == row).all(axis=1).any() for row in kept)

    @settings(max_examples=40)
    @given(
        mesh=MESHES,
        moves=st.lists(
            st.tuples(st.floats(0.05, 0.5), st.floats(0.7, 1.3)), min_size=2, max_size=2
        ),
    )
    def test_matches_loop_property(self, mesh, moves):
        # Three overlapping meshes: the drawn one and two copies, each scaled
        # about its low corner and moved along its bounding-box diagonal.
        lo, hi = mesh.bbox()
        copies = [
            SimplicialMesh(mesh.dim, lo + scale * (mesh.vertices - lo) + shift * (hi - lo),
                           mesh.simplices)
            for shift, scale in moves
        ]
        cs = boundary_only_constraints(DeconstructedDomain([mesh, *copies]))
        thin = thin_constraints(cs)
        kept = thin_constraints_loop(cs)
        assert len(thin) == len(kept)
        for r, s in enumerate(kept):
            got, ref = row_fields(thin, r), row_fields(cs, s)
            assert got[:2] == ref[:2]
            np.testing.assert_array_equal(got[2], ref[2])
            np.testing.assert_array_equal(got[3], ref[3])

    def test_empty_set(self):
        one_mesh = DeconstructedDomain([generate_segment(0.0, 1.0, 9)])
        thin = thin_constraints(boundary_only_constraints(one_mesh))
        assert len(thin) == 0 and thin.mode == "boundary_only_thinned"
        assert constraints_to_csv(thin) == (
            "target_subdomain,target_vertex,anchor_subdomain,anchor_simplex\n"
        )

    def test_two_subdomains_unchanged_count(self):
        dom = segment_pair()
        cs = boundary_only_constraints(dom)
        thin = thin_constraints(cs)
        assert len(thin) == len(cs)


class TestCsv:
    def test_header_and_rows(self):
        dom = segment_pair()
        cs = boundary_only_constraints(dom)
        text = constraints_to_csv(cs)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "target_subdomain,target_vertex,anchor_subdomain,anchor_simplex,c0,c1"
        )
        assert len(lines) == 1 + len(cs)
        fields = lines[1].split(",")
        assert len(fields) == 6
        assert float(fields[4]) + float(fields[5]) == pytest.approx(1.0)
