import math
import re
from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapfem import (
    DeconstructedDomain,
    MeshError,
    ParseError,
    PointLocator,
    QuadratureSpec,
    SimplicialMesh,
    assemble_global,
    boundary_vertices,
    generate_annulus,
    generate_segment,
    load_mesh,
    save_mesh,
    solve_poisson,
)
from overlapfem import mesh as mesh_module
from overlapfem.mesh import _adjugates, _polar_grid_triangles, _read_blocks, _read_tokens
from overlapfem.solver import coupling_for_mode
from reference import boundary_facets, generate_disk, submesh
from test_geometry import MESHES


def inscribed_ring_area(r_in, r_out, n_t):
    # Area between two regular n_t-gons inscribed in circles of the two radii.
    return 0.5 * n_t * math.sin(2.0 * math.pi / n_t) * (r_out**2 - r_in**2)


class TestSimplicialMesh:
    def test_counts_and_dim(self):
        mesh = generate_segment(0.0, 1.0, 5)
        assert mesh.dim == 1
        assert mesh.num_vertices == 5
        assert mesh.num_simplices == 4

    def test_negative_orientation_is_fixed(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        mesh = SimplicialMesh(2, verts, np.array([[0, 2, 1]]))
        assert mesh.measures[0] == pytest.approx(0.5)

    def test_degenerate_simplex_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(MeshError):
            SimplicialMesh(2, verts, np.array([[0, 1, 2]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, bad]])
        with pytest.raises(MeshError):
            SimplicialMesh(2, verts, np.array([[0, 1, 2]]))
        with pytest.raises(MeshError):
            load_mesh("DIM 1\nVERTICES 2\n0\n%r\nSIMPLICES 1\n0 1\n" % bad)

    def test_index_out_of_range_rejected(self):
        verts = np.array([[0.0], [1.0]])
        with pytest.raises(MeshError):
            SimplicialMesh(1, verts, np.array([[0, 2]]))

    @pytest.mark.parametrize(
        "dim, vertices, simplices, message",
        [
            (4, [[0.0] * 4] * 5, [[0, 1, 2, 3, 4]], "dim must be 1, 2 or 3"),
            (2, [[0.0, 0.0, 0.0]] * 3, [[0, 1, 2]], r"vertices must have shape \(n, 2\)"),
            (2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1]],
             r"simplices must have shape \(t, 3\)"),
            (1, [[0.0], [1.0]], np.empty((0, 2), dtype=int), "mesh has no simplices"),
            (1, [[0.0], [1.0], [2.0]], [[0, 1]], "vertex 2 is not referenced by any simplex"),
        ],
        ids=["dim", "vertex_shape", "simplex_shape", "no_simplices", "unreferenced_vertex"],
    )
    def test_malformed_arrays_rejected(self, dim, vertices, simplices, message):
        with pytest.raises(MeshError, match=message):
            SimplicialMesh(dim, np.array(vertices), np.array(simplices))


class TestGenerators:
    def test_segment_measures_sum_to_length(self):
        mesh = generate_segment(-1.0, 3.0, 17)
        assert mesh.measures.sum() == pytest.approx(4.0, abs=1e-14)

    def test_segment_boundary(self):
        mesh = generate_segment(0.0, 1.0, 9)
        assert boundary_vertices(mesh) == {0, 8}

    def test_annulus_counts(self):
        mesh = generate_annulus(1.0, 2.0, 3, 12)
        assert mesh.num_vertices == 4 * 12
        assert mesh.num_simplices == 2 * 3 * 12

    def test_annulus_area(self):
        mesh = generate_annulus(1.0, 2.0, 3, 40)
        assert mesh.measures.sum() == pytest.approx(
            inscribed_ring_area(1.0, 2.0, 40), rel=1e-12
        )

    def test_annulus_boundary_is_inner_and_outer_ring(self):
        n_r, n_t = 3, 12
        mesh = generate_annulus(1.0, 2.0, n_r, n_t)
        radii = np.linalg.norm(mesh.vertices, axis=1)
        expected = {v for v in range(mesh.num_vertices)
                    if radii[v] < 1.0 + 1e-12 or radii[v] > 2.0 - 1e-12}
        assert boundary_vertices(mesh) == expected

    def test_disk_area_and_boundary(self):
        mesh = generate_disk(2.0, 4, 20)
        assert mesh.measures.sum() == pytest.approx(
            inscribed_ring_area(0.0, 2.0, 20), rel=1e-12
        )
        radii = np.linalg.norm(mesh.vertices, axis=1)
        assert boundary_vertices(mesh) == {
            v for v in range(mesh.num_vertices) if radii[v] > 2.0 - 1e-12
        }

    def test_disk_center_offset(self):
        mesh = generate_disk(1.0, 2, 8, center=(3.0, -1.0))
        assert np.allclose(mesh.vertices.mean(axis=0), [3.0, -1.0], atol=0.2)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: generate_segment(0.0, 1.0, 1), "at least 2 vertices"),
            (lambda: generate_segment(1.0, 1.0, 5), "need a < b"),
            (lambda: generate_annulus(2.0, 1.0, 2, 8), "need 0 < r_in < r_out"),
            (lambda: generate_annulus(1.0, 2.0, 0, 8), "need n_r >= 1 and n_t >= 3"),
            (lambda: generate_annulus(1.0, 2.0, 2, 2), "need n_r >= 1 and n_t >= 3"),
            (lambda: generate_disk(0.0, 2, 8), "radius must be positive"),
            (lambda: generate_disk(1.0, 2, 2), "need n_r >= 1 and n_t >= 3"),
            (lambda: submesh(generate_disk(1.0, 2, 8), []), "submesh selection is empty"),
        ],
        ids=["segment_n", "segment_order", "annulus_radii", "annulus_n_r", "annulus_n_t",
             "disk_radius", "disk_n_t", "submesh_empty"],
    )
    def test_bad_arguments_rejected(self, make, message):
        with pytest.raises(MeshError, match=message):
            make()


class TestBoundaryFacets:
    def test_two_triangle_square(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        mesh = SimplicialMesh(2, verts, np.array([[0, 1, 2], [0, 2, 3]]))
        assert sorted(boundary_facets(mesh)) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_segment_facets(self):
        mesh = generate_segment(0.0, 1.0, 4)
        assert sorted(boundary_facets(mesh)) == [(0,), (3,)]

    def test_matches_brute_force_on_disk(self):
        mesh = generate_disk(1.0, 3, 9)
        counts = {}
        for tri in mesh.simplices:
            for i in range(3):
                facet = tuple(sorted(np.delete(tri, i)))
                counts[facet] = counts.get(facet, 0) + 1
        expected = sorted(f for f, c in counts.items() if c == 1)
        assert sorted(boundary_facets(mesh)) == expected

    @settings(max_examples=40)
    @given(mesh=MESHES)
    def test_matches_counter_property(self, mesh):
        counts = Counter(
            tuple(sorted(int(v) for v in facet))
            for simplex in mesh.simplices
            for facet in combinations(simplex, mesh.dim)
        )
        expected = sorted(f for f, c in counts.items() if c == 1)
        facets = boundary_facets(mesh)
        assert facets == expected
        assert all(type(v) is int for f in facets for v in f)
        assert boundary_vertices(mesh) == {v for f in expected for v in f}


class TestSubmesh:
    def test_reindex_preserves_measures(self):
        mesh = generate_disk(1.0, 3, 9)
        keep = np.arange(0, mesh.num_simplices, 2)
        sub = submesh(mesh, keep)
        assert sub.num_simplices == len(keep)
        np.testing.assert_allclose(
            sub.measures, mesh.measures[keep]
        )


def polar_grid_loop(n_r, n_t):
    tris = []
    for i in range(n_r):
        for j in range(n_t):
            v00 = i * n_t + j
            v01 = i * n_t + (j + 1) % n_t
            v10 = (i + 1) * n_t + j
            v11 = (i + 1) * n_t + (j + 1) % n_t
            tris.append((v00, v11, v10))
            tris.append((v00, v01, v11))
    return np.array(tris, dtype=np.int64).reshape(-1, 3)


def disk_loop(radius, n_r, n_t, theta_offset, center):
    cx, cy = center
    theta = theta_offset + 2 * np.pi * np.arange(n_t) / n_t
    verts = [(cx, cy)]
    for i in range(1, n_r + 1):
        r = radius * i / n_r
        for t in theta:
            verts.append((cx + r * np.cos(t), cy + r * np.sin(t)))
    tris = [(0, 1 + j, 1 + (j + 1) % n_t) for j in range(n_t)]
    tris.extend((1 + polar_grid_loop(n_r - 1, n_t)).tolist())
    return SimplicialMesh(2, np.array(verts), np.array(tris, dtype=np.int64))


class TestGeneratorsMatchLoops:
    @pytest.mark.parametrize("n_r,n_t", [(1, 3), (2, 5), (3, 17), (7, 4)])
    def test_polar_grid_and_disk(self, n_r, n_t):
        tris = _polar_grid_triangles(n_r, n_t)
        assert tris.dtype == np.int64
        np.testing.assert_array_equal(tris, polar_grid_loop(n_r, n_t))
        for args in [(1.3, n_r, n_t, 0.0, (0.0, 0.0)), (50.0, n_r, n_t, 0.7, (3, -1.5))]:
            disk, ref = generate_disk(*args), disk_loop(*args)
            np.testing.assert_array_equal(disk.vertices, ref.vertices)
            np.testing.assert_array_equal(disk.simplices, ref.simplices)


class TestDmeshFormat:
    def test_round_trip(self):
        mesh = generate_annulus(1.0, 2.0, 2, 7)
        again = load_mesh(save_mesh(mesh))
        assert again.dim == mesh.dim
        np.testing.assert_array_equal(again.vertices, mesh.vertices)
        np.testing.assert_array_equal(again.simplices, mesh.simplices)

    @settings(max_examples=40)
    @given(mesh=MESHES, scale=st.floats(1e-6, 1e6))
    def test_round_trip_property(self, mesh, scale):
        mesh = SimplicialMesh(mesh.dim, scale * mesh.vertices, mesh.simplices)
        again = load_mesh(save_mesh(mesh))
        assert again.dim == mesh.dim
        np.testing.assert_array_equal(again.vertices, mesh.vertices)
        np.testing.assert_array_equal(again.simplices, mesh.simplices)

    def test_parse_errors_carry_line_numbers(self):
        good = save_mesh(generate_segment(0.0, 1.0, 3))
        with pytest.raises(ParseError):
            load_mesh("NOT_A_HEADER\n")
        broken = good.replace("VERTICES 3", "VERTICES 4")
        with pytest.raises(ParseError):
            load_mesh(broken)
        with pytest.raises(ParseError):
            load_mesh(good + "extra\n")
        with pytest.raises(MeshError):
            load_mesh("DIM 1\nVERTICES 2\n0\n1\nSIMPLICES 1\n0 5\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("DIM 1\nVERTICES 2\n0\n1\nSIMPLICES 1\n0\n", "line 6: unexpected end of file"),
            ("DIM 0\nVERTICES 2\n0\n1\nSIMPLICES 1\n0 1\n", "line 1: DIM must be >= 1, got 0"),
            ("DIM 1\nVERTICES 0\nSIMPLICES 1\n0 1\n", "line 2: vertex count must be >= 1, got 0"),
        ],
        ids=["end_of_file", "dim", "vertex_count"],
    )
    def test_token_parser_errors(self, text, message):
        with pytest.raises(ParseError, match=message):
            load_mesh(text)

    def test_comments_are_ignored(self):
        plain = save_mesh(generate_disk(1.0, 2, 5))
        lines = plain.splitlines()
        simplices = next(i for i, line in enumerate(lines) if line.startswith("SIMPLICES"))
        lines[0] += "  # header line"
        lines[2] += " # inside the vertex block"
        lines.insert(simplices + 2, "# inside the simplex block")
        commented = "\n".join(lines) + "\n"
        mesh, again = load_mesh(plain), load_mesh(commented)
        assert again.dim == mesh.dim
        np.testing.assert_array_equal(again.vertices, mesh.vertices)
        np.testing.assert_array_equal(again.simplices, mesh.simplices)


class TestDeconstructedDomain:
    def test_offsets_and_global_index(self):
        a = generate_segment(0.0, 1.0, 4)
        b = generate_segment(0.5, 1.5, 6)
        dom = DeconstructedDomain([a, b], [(1, 5, -0.5), (0, 0, 2)])
        np.testing.assert_array_equal(dom.offsets, [0, 4, 10])
        assert dom.total_vertices == 10
        assert dom.pins == [(9, -0.5), (0, 2.0)]
        assert dom.stacked_vertices().shape == (10, 1)

    def test_no_subdomains_rejected(self):
        with pytest.raises(MeshError, match="at least one subdomain"):
            DeconstructedDomain([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(MeshError):
            DeconstructedDomain(
                [generate_segment(0.0, 1.0, 3), generate_disk(1.0, 2, 6)]
            )

    def test_dirichlet_must_be_boundary_vertex(self):
        a = generate_segment(0.0, 1.0, 5)
        DeconstructedDomain([a], [(0, 0, 1.0), (0, 4, 0.0)])
        with pytest.raises(MeshError):
            DeconstructedDomain([a], [(0, 2, 1.0)])
        with pytest.raises(MeshError):
            DeconstructedDomain([a], [(1, 0, 1.0)])

    def test_vertex_pinned_twice_rejected(self):
        a = generate_segment(0.0, 1.0, 5)
        for pins in ([(0, 0, 1.0), (0, 0, 2.0)], [(0, 4, 0.0), (0, 0, 1.0), (0, 4, 0.0)]):
            with pytest.raises(MeshError, match="pinned twice"):
                DeconstructedDomain([a], pins)

    def test_boundary_vertex_sets_are_computed_once(self):
        meshes = [generate_annulus(1.0, 1.6, 2, 9), generate_disk(1.0, 3, 8)]
        dom = DeconstructedDomain(meshes, [(0, 0, 1.0)])
        assert dom.boundary_vertex_sets == [boundary_vertices(m) for m in meshes]
        assert dom.boundary_vertex_sets is dom.boundary_vertex_sets

    def test_locators_are_built_once(self, monkeypatch):
        built = []
        init = PointLocator.__init__

        def counting_init(locator, mesh):
            built.append(mesh)
            init(locator, mesh)

        monkeypatch.setattr(PointLocator, "__init__", counting_init)
        meshes = [generate_segment(0.0, 0.7, 9), generate_segment(0.3, 1.0, 8)]
        dom = DeconstructedDomain(meshes, [(0, 0, 0.0), (1, 7, 0.0)])
        quad = QuadratureSpec.corner_average()
        solve_poisson(dom, quad)
        assemble_global(dom, quad)
        coupling_for_mode(dom, "all_vertices")
        assert len(built) == 2
        assert dom.locators is dom.locators


def random_simplices(dim, seed, exponent, count=8):
    """``count`` disjoint simplices with edge matrices I + U (|U| small, so
    condition number at most 7), randomly oriented, under a random rotation,
    stretch by 0.5-2 per axis, scale 10^exponent and shift."""
    rng = np.random.default_rng(seed)
    edges = np.eye(dim) + rng.uniform(-0.25, 0.25, size=(count, dim, dim))
    corners = np.concatenate([np.zeros((count, 1, dim)), edges], axis=1)
    corners += rng.uniform(-5.0, 5.0, size=(count, 1, dim))
    corners = np.array([c[rng.permutation(dim + 1)] for c in corners])
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    scale = 10.0**exponent
    linear = scale * q * rng.uniform(0.5, 2.0, size=dim)
    vertices = corners.reshape(-1, dim) @ linear.T + scale * rng.uniform(-10, 10, size=dim)
    return SimplicialMesh(dim, vertices, np.arange(count * (dim + 1)).reshape(count, dim + 1))


class TestClosedFormGeometry:
    @settings(max_examples=60)
    @given(dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), exponent=st.floats(-6.0, 6.0))
    def test_matches_lapack_property(self, dim, seed, exponent):
        mesh = random_simplices(dim, seed, exponent)
        edges = mesh.edges()
        det = np.linalg.det(edges)
        assert (det > 0).all()  # construction oriented every simplex
        np.testing.assert_allclose(mesh.measures, det / math.factorial(dim), rtol=1e-12)
        inv = np.linalg.inv(np.swapaxes(edges, 1, 2))
        err = np.abs(mesh.edge_inverses - inv).max(axis=(1, 2))
        assert (err <= 1e-12 * np.abs(inv).max(axis=(1, 2))).all()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_adjugate_pass_unless_flipped(self, dim):
        # The adjugates of the orientation check become the inverse edge
        # matrices; only the flipped simplices' are formed again.
        def expected_inverses(mesh):
            return _adjugates(mesh.edges()) / (math.factorial(dim) * mesh.measures[:, None, None])

        adjugates = mock.Mock(side_effect=_adjugates)
        with mock.patch.object(mesh_module, "_adjugates", adjugates):
            mesh = random_simplices(dim, seed=dim, exponent=0.0)
        input_order = np.arange(mesh.simplices.size).reshape(mesh.simplices.shape)
        assert (mesh.simplices != input_order).any()  # randomly oriented: some were flipped
        assert adjugates.call_count == 2
        assert len(adjugates.call_args_list[1].args[0]) < mesh.num_simplices
        assert mesh.edge_inverses.tobytes() == expected_inverses(mesh).tobytes()
        if dim == 2:  # a generated annulus comes counter-clockwise: nothing to flip
            adjugates.reset_mock()
            with mock.patch.object(mesh_module, "_adjugates", adjugates):
                mesh = generate_annulus(1.0, 2.0, 4, 24)
            assert adjugates.call_count == 1
            assert mesh.edge_inverses.tobytes() == expected_inverses(mesh).tobytes()

    def test_measures_are_read_only_and_inverses_cached(self):
        mesh = generate_disk(1.0, 3, 8)
        with pytest.raises(ValueError):
            mesh.measures[0] = 1.0
        assert mesh.edge_inverses is mesh.edge_inverses


def parse_outcome(parse, text):
    """The parsed arrays, or the ParseError text."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


# Tokens the two readers must not tell apart: plain numbers, forms Python and
# numpy read differently, and malformed or out-of-range ones.
ODD_TOKENS = ["7", "+3", "-0", "007", "1.5", "1e3", "1E-3", ".5", "5.", "-.5e+2", "1_000",
              "nan(1)", "nan", "inf", "1e", "e5", "+-1", "1-2", "-", "+", ".", "1.2.3", "0x10",
              "9223372036854775807", "9223372036854775808", "-9223372036854775809",
              "1" * 19, "1e400", "SIMPLICES", "VERTICES", "\u0661", "\xa0", "", "\n", "\t1"]
ODD_SPACES = [" ", "\n", "\t", "\r\n", "\x0b", "\x0c", "\xa0", "\x1c", "\u2003", "", "  \n  "]


class TestDmeshArrayParse:
    @settings(max_examples=200)
    @given(mesh=MESHES, data=st.data())
    def test_blocks_match_tokens_property(self, mesh, data):
        parts = re.split(r"(\s+)", save_mesh(mesh))  # tokens at even positions
        for _ in range(data.draw(st.integers(0, 2))):
            i = data.draw(st.integers(0, len(parts) - 1))
            odd = ODD_TOKENS if i % 2 == 0 else ODD_SPACES
            parts[i] = data.draw(st.sampled_from(odd))
        text = "".join(parts)
        slow = parse_outcome(_read_tokens, text)
        fast = _read_blocks(text)
        if fast is not None:
            assert not isinstance(slow, str), slow
            assert fast[0] == slow[0]
            for a, b in zip(fast[1:], slow[1:]):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    def test_plain_text_takes_the_array_path(self):
        mesh = generate_annulus(1.0, 2.0, 3, 11)
        dim, vertices, simplices = _read_blocks(save_mesh(mesh))
        assert dim == 2
        np.testing.assert_array_equal(vertices, mesh.vertices)
        np.testing.assert_array_equal(simplices, mesh.simplices)

    def test_glued_keyword_takes_the_token_parser(self):
        text = "DIM 1\nVERTICES 2\n0\n1SIMPLICES 1\n0 1\n"
        assert _read_blocks(text) is None
        with pytest.raises(ParseError, match="line 4: expected number for vertex 1 coordinate"):
            load_mesh(text)

    def test_count_past_the_int_digit_limit_is_a_parse_error(self):
        text = "DIM 1\nVERTICES %s\n0\n1\nSIMPLICES 1\n0 1\n" % ("9" * 5000)
        assert _read_blocks(text) is None
        with pytest.raises(ParseError, match="line 2: expected integer vertex count"):
            load_mesh(text)

    @pytest.mark.parametrize("index", ["9223372036854775808", "-9223372036854775809"])
    def test_out_of_range_index_is_a_parse_error(self, index):
        text = "DIM 1\nVERTICES 2\n0\n1\nSIMPLICES 1\n0 %s\n" % index
        assert _read_blocks(text) is None
        with pytest.raises(ParseError, match="line 6: simplex 0 index %s" % index):
            _read_tokens(text)
        with pytest.raises(ParseError, match="line 6: simplex 0 index %s" % index):
            load_mesh(text)
