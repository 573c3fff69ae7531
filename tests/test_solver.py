from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.sparse.linalg import splu
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapfem import (
    DeconstructedDomain,
    ExperimentConfig,
    QuadratureSpec,
    SimplicialMesh,
    SolverError,
    assemble_global,
    boundary_vertices,
    build_scenario,
    constrained_modes,
    generate_annulus,
    generate_segment,
    implicit_step,
    load_mesh,
    run_penalty_sweep,
    solve_bilaplace,
    solve_bilaplace_convex,
    solve_kkt,
    solve_poisson,
)
from overlapfem import harness, solver
from overlapfem.solver import BILAPLACE_COUPLINGS, coupling_for_mode
from test_geometry import MESHES

QUAD = QuadratureSpec.corner_average()
DATA = Path(__file__).parent / "data"


class TestSolveKkt:
    def test_hand_computed_qp(self):
        # min u1^2 + u2^2 - 2 u1 - 4 u2  s.t. u1 + u2 = 1  ->  u = (0, 1)
        Q = sp.diags([2.0, 2.0])
        b = np.array([2.0, 4.0])
        A = sp.csr_matrix(np.array([[1.0, 1.0]]))
        rep = solve_kkt(Q, b, A, np.array([1.0]))
        np.testing.assert_allclose(rep.u, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(rep.multipliers, [2.0], atol=1e-12)
        assert rep.constraint_residual < 1e-12
        assert rep.stationarity_residual < 1e-10

    def test_fixed_values_are_substituted(self):
        Q = sp.diags([2.0, 2.0, 2.0])
        rep = solve_kkt(Q, np.array([0.0, 0.0, 6.0]), fixed=[(0, 5.0)])
        np.testing.assert_allclose(rep.u, [5.0, 0.0, 3.0], atol=1e-12)

    def test_duplicate_fixed_index_rejected(self):
        with pytest.raises(SolverError):
            solve_kkt(sp.eye(2), fixed=[(0, 1.0), (0, 2.0)])

    @pytest.mark.parametrize("index", [-1, 2])
    def test_fixed_index_out_of_range_rejected(self, index):
        with pytest.raises(SolverError, match="fixed index out of range"):
            solve_kkt(sp.eye(2), fixed=[(index, 1.0)])

    def test_redundant_consistent_rows_are_tolerated(self):
        Q = sp.diags([2.0, 2.0])
        b = np.array([2.0, 4.0])
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]))
        rep = solve_kkt(Q, b, A, np.array([1.0, 1.0, 2.0]))
        np.testing.assert_allclose(rep.u, [0.0, 1.0], atol=1e-9)

    def test_reciprocal_rows_match_a_single_row(self):
        Q = sp.diags([2.0, 2.0])
        b = np.array([2.0, 4.0])
        one = solve_kkt(Q, b, sp.csr_matrix(np.array([[1.0, -1.0]])))
        two = solve_kkt(Q, b, sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]])))
        np.testing.assert_allclose(two.u, one.u, rtol=0.0, atol=1e-12)

    def test_reciprocal_rows_factorize_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda K, **kwargs: calls.append(K) or splu(K, **kwargs))
        A = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        rep = solve_kkt(sp.diags([2.0, 2.0]), np.array([2.0, 4.0]), A)
        assert len(calls) == 1
        assert rep.dropped_rows == 1
        assert len(rep.multipliers) == 2 and rep.multipliers[1] == 0.0

    def test_inconsistent_rows_rejected(self):
        Q = sp.diags([2.0, 2.0])
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolverError):
            solve_kkt(Q, None, A, np.array([1.0, 2.0]))

    def test_infeasible_fixed_and_constraint(self):
        Q = sp.diags([2.0, 2.0])
        A = sp.csr_matrix(np.array([[1.0, 0.0]]))
        with pytest.raises(SolverError):
            solve_kkt(Q, None, A, np.array([3.0]), fixed=[(0, 1.0)])


def distinct_rows_loop(A):
    """Reference for solver._distinct_rows: one bytes key per row."""
    A = sp.csr_matrix(A, copy=True)
    A.eliminate_zeros()
    A.sort_indices()
    seen = set()
    keep = []
    for r in range(A.shape[0]):
        lo, hi = A.indptr[r], A.indptr[r + 1]
        vals = A.data[lo:hi]
        if vals.size and vals[0] < 0:
            vals = -vals
        key = (A.indices[lo:hi].tobytes(), vals.tobytes())
        if key not in seen:
            seen.add(key)
            keep.append(r)
    return np.array(keep, dtype=np.int64)


class TestDistinctRows:
    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 40), n=st.integers(1, 8))
    def test_matches_loop_property(self, seed, m, n):
        # Each row is new, a copy or a negated copy of an earlier row, in
        # shuffled column order and with explicit zeros stored in free columns.
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(m):
            kind = rng.integers(4) if rows else 0
            if kind < 2:
                cols = rng.choice(n, rng.integers(0, n + 1), replace=False)
                vals = rng.choice([-1.0, -0.5, 0.25, 1.0, 1.0 / 3.0], len(cols))
                row = dict(zip(cols.tolist(), vals.tolist()))
            else:
                row = dict(rows[rng.integers(len(rows))])
                if kind == 3:
                    row = {j: -v for j, v in row.items()}
            for j in set(range(n)) - set(row):
                if rng.random() < 0.2:
                    row[j] = 0.0
            rows.append(row)
        indptr = np.cumsum([0] + [len(row) for row in rows])
        order = [rng.permutation(list(row)) for row in rows]
        indices = np.concatenate([[]] + order).astype(np.int32)
        data = np.concatenate([[]] + [[row[j] for j in o] for row, o in zip(rows, order)])
        A = sp.csr_matrix((data, indices, indptr), shape=(m, n))
        np.testing.assert_array_equal(solver._distinct_rows(A), distinct_rows_loop(A))


class TestPoisson:
    def test_single_segment_is_nodally_exact(self):
        n = 21
        dom = DeconstructedDomain(
            [generate_segment(0.0, 1.0, n)], [(0, 0, 0.0), (0, n - 1, 0.0)]
        )
        rep = solve_poisson(dom, QUAD, mode="none", rhs=1.0)
        s = dom.stacked_vertices()[:, 0]
        np.testing.assert_allclose(rep.u, s * (1 - s) / 2, atol=1e-13)

    def test_two_segments_boundary_only(self):
        n = 41
        a = generate_segment(0.0, 2.0 / 3.0, n)
        b = generate_segment(1.0 / 3.0, 1.0, n)
        dom = DeconstructedDomain([a, b], [(0, 0, 0.0), (1, n - 1, 0.0)])
        rep = solve_poisson(dom, QUAD, mode="boundary_only", rhs=1.0)
        s = dom.stacked_vertices()[:, 0]
        assert np.abs(rep.u - s * (1 - s) / 2).max() < 2e-4
        assert rep.constraint_residual < 1e-10

    @pytest.mark.parametrize("solve", [solve_poisson, solve_bilaplace, solve_bilaplace_convex])
    def test_per_vertex_load_of_wrong_length_rejected(self, solve):
        dom = DeconstructedDomain([generate_segment(0.0, 1.0, 5)], [(0, 0, 0.0), (0, 4, 0.0)])
        cases = [(np.ones(4), "per-vertex load must have length 5"),
                 (np.nan, "load must be finite"),
                 (np.array([0.0, 1.0, np.nan, 1.0, 0.0]), "load must be finite")]
        for load, message in cases:
            with pytest.raises(ValueError, match=message):
                solve(dom, QUAD, **{"rhs" if solve is solve_poisson else "load": load})

    def test_unknown_mode_rejected(self):
        dom = DeconstructedDomain([generate_segment(0.0, 1.0, 5)])
        with pytest.raises(ValueError):
            solve_poisson(dom, QUAD, mode="sideways")


class TestImplicitStep:
    def test_conserves_lumped_mass_without_dirichlet(self):
        a = generate_segment(0.0, 0.7, 15)
        b = generate_segment(0.3, 1.0, 14)
        dom = DeconstructedDomain([a, b])
        L, M = assemble_global(dom, QUAD)
        rng = np.random.default_rng(2)
        u0 = rng.normal(size=dom.total_vertices)
        rep = implicit_step(dom, QUAD, "none", 0.05, u0)
        before = float(np.ones(dom.total_vertices) @ (M @ u0))
        after = float(np.ones(dom.total_vertices) @ (M @ rep.u))
        assert after == pytest.approx(before, rel=1e-10)

    def test_nonpositive_alpha_rejected(self):
        dom = DeconstructedDomain([generate_segment(0.0, 1.0, 5)])
        for alpha in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="alpha must be positive and finite"):
                implicit_step(dom, QUAD, "none", alpha, np.zeros(5))


class TestBilaplace:
    def quartic_domain(self, n):
        a = generate_segment(0.0, 2.0 / 3.0, n)
        b = generate_segment(1.0 / 3.0, 1.0, n)
        return DeconstructedDomain([a, b], [(0, 0, 0.0), (1, n - 1, 0.0)])

    def test_high_order_matches_quartic(self):
        n = 80
        dom = self.quartic_domain(n)
        rep = solve_bilaplace(dom, QUAD, "high_order", load=24.0)
        s = dom.stacked_vertices()[:, 0]
        exact = s**4 - 2 * s**3 + s
        assert np.abs(rep.u - exact).max() < 1e-3

    def test_low_order_needs_1d(self):
        dom = DeconstructedDomain(
            [generate_annulus(1.0, 1.6, 2, 9), generate_annulus(1.4, 2.0, 2, 9)]
        )
        with pytest.raises(SolverError):
            solve_bilaplace(dom, QUAD, "low_order")

    def test_low_order_rows_match_slopes(self):
        # Subdomain k carries u = slope[k] x, so each row reads the target
        # subdomain's slope minus the anchor subdomain's.
        meshes = [generate_segment(0.0, 0.6, 7), generate_segment(0.2, 0.8, 10),
                  generate_segment(0.4, 1.0, 5)]
        dom = DeconstructedDomain(meshes)
        cs, _ = coupling_for_mode(dom, "boundary_only")
        slope = np.array([1.0, 2.0, 5.0])
        u = np.concatenate([k * m.vertices[:, 0] for k, m in zip(slope, meshes)])
        rows = solver._low_order_rows(dom, cs)
        assert rows.shape == (len(cs), dom.total_vertices)
        expected = slope[cs.target[:, 0]] - slope[cs.anchor[:, 0]]
        np.testing.assert_allclose(rows @ u, expected, rtol=0, atol=1e-12)

    def test_unknown_coupling_rejected(self):
        dom = self.quartic_domain(10)
        with pytest.raises(SolverError):
            solve_bilaplace(dom, QUAD, "medium_order")

    def test_convex_solver_agrees(self):
        dom = self.quartic_domain(30)
        kkt = solve_bilaplace(dom, QUAD, "high_order", load=24.0)
        convex = solve_bilaplace_convex(dom, QUAD, load=24.0)
        scale = np.abs(kkt.u).max()
        assert np.abs(kkt.u - convex.u).max() <= 1e-8 * scale
        np.testing.assert_allclose(convex.z, kkt.z, atol=1e-6 * scale)


class TestConstrainedModes:
    def test_segment_neumann_spectrum(self):
        n = 61
        dom = DeconstructedDomain([generate_segment(0.0, 1.0, n)])
        L, M = assemble_global(dom, QUAD)
        pairs = constrained_modes(L, M, None, 4)
        values = np.array([v for v, _ in pairs])
        exact = (np.pi * np.arange(4)) ** 2
        assert abs(values[0]) < 1e-8
        np.testing.assert_allclose(values[1:], exact[1:], rtol=1e-2)
        # eigenvectors satisfy L v = lambda M v
        for val, vec in pairs:
            assert np.abs(L @ vec - val * (M @ vec)).max() < 1e-8

    def test_constraints_remove_nullspace(self):
        n = 31
        dom = DeconstructedDomain([generate_segment(0.0, 1.0, n)])
        L, M = assemble_global(dom, QUAD)
        A = sp.csr_matrix((np.ones(1), ([0], [0])), shape=(1, n))
        values = [v for v, _ in constrained_modes(L, M, A, 3)]
        assert values[0] > 1.0  # constant mode suppressed

    def test_no_freedom_left(self):
        dom = DeconstructedDomain([generate_segment(0.0, 1.0, 4)])
        L, M = assemble_global(dom, QUAD)
        with pytest.raises(SolverError):
            constrained_modes(L, M, sp.eye(4, format="csr"), 2)

    def test_too_few_degrees_of_freedom(self):
        # 6 vertices and 3 unit rows leave 3 degrees of freedom: at most 2 modes.
        dom = DeconstructedDomain([generate_segment(0.0, 1.0, 6)])
        L, M = assemble_global(dom, QUAD)
        A = sp.eye(3, 6, format="csr")
        assert len(constrained_modes(L, M, A, 2)) == 2
        for k in (3, 10):
            with pytest.raises(SolverError):
                constrained_modes(L, M, A, k)

    def test_eigensolver_failure_is_a_solver_error(self, monkeypatch):
        # One restart is too few for 10 modes of 400 vertices: ARPACK stops unconverged.
        dom = DeconstructedDomain([generate_segment(0.0, 1.0, 400)])
        L, M = assemble_global(dom, QUAD)
        eigsh = scipy.sparse.linalg.eigsh
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lambda *a, **kw: eigsh(*a, maxiter=1, **kw))
        with pytest.raises(SolverError, match="eigensolver failed"):
            constrained_modes(L, M, None, 10)

    @staticmethod
    def scaled_annulus_modes(s):
        meshes = [generate_annulus(1.0, 13 / 8, 5, 72), generate_annulus(5 / 4, 2.0, 8, 72, np.pi / 72)]
        dom = DeconstructedDomain([SimplicialMesh(2, s * m.vertices, m.simplices) for m in meshes])
        L, M = assemble_global(dom, QUAD)
        _, A = coupling_for_mode(dom, "boundary_only")
        return s**2 * np.array([v for v, _ in constrained_modes(L, M, A, 10)])

    def test_modes_are_scale_invariant(self):
        reference = self.scaled_annulus_modes(1.0)
        for s in (1e-3, 1.0, 1e3):
            values = self.scaled_annulus_modes(s)
            assert abs(values[0]) <= 1e-8, s
            np.testing.assert_allclose(values[1:], reference[1:], rtol=1e-9, err_msg=str(s))


class TestCouplingForMode:
    def test_none_mode_is_empty(self):
        dom = DeconstructedDomain([generate_segment(0.0, 1.0, 5)])
        cs, A = coupling_for_mode(dom, "none")
        assert cs is None and A.shape == (0, 5)

    @pytest.mark.parametrize("coupling", BILAPLACE_COUPLINGS)
    def test_bilaplace_couplings_take_the_boundary_only_rows(self, coupling):
        dom = DeconstructedDomain([generate_annulus(1.0, 1.6, 3, 12),
                                   generate_annulus(1.4, 2.0, 3, 12, 0.2)])
        cs_ref, A_ref = coupling_for_mode(dom, "boundary_only")
        cs, A = coupling_for_mode(dom, coupling)
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(A, name), getattr(A_ref, name))
        np.testing.assert_array_equal(cs.target, cs_ref.target)

    def test_unknown_mode(self):
        dom = DeconstructedDomain([generate_segment(0.0, 1.0, 5)])
        with pytest.raises(ValueError):
            coupling_for_mode(dom, "psychic")


def pinned_segments(n=21):
    a = generate_segment(0.0, 2.0 / 3.0, n)
    b = generate_segment(1.0 / 3.0, 1.0, n)
    return DeconstructedDomain([a, b], [(0, 0, 0.0), (1, n - 1, 0.0)])


def pinned_annuli():
    config = ExperimentConfig("annulus2d_poisson", coupling="all_vertices")
    return build_scenario(config, 1).domain


def pinned_boxes():
    boxes = [load_mesh((DATA / name).read_text()) for name in ("box_a.dmesh", "box_b.dmesh")]
    pins = [
        (s, v, 0.5 * s - 0.25)
        for s, mesh in enumerate(boxes)
        for v in sorted(boundary_vertices(mesh))
        if mesh.vertices[v, 2] == 0.0
    ]
    return DeconstructedDomain(boxes, pins)


DEFINITE_FIXTURES = {
    "segments": (pinned_segments, "boundary_only"),
    "annuli": (pinned_annuli, "all_vertices"),
    "boxes": (pinned_boxes, "boundary_only"),
}


def saddle_reference(domain, mode, form, rhs):
    """solve_kkt on the same form, load, rows and pins: the saddle factorization's answer."""
    L, M = assemble_global(domain, QUAD)
    _, A = coupling_for_mode(domain, mode)
    return solve_kkt(form(L, M), M @ rhs, A, fixed=domain.pins)


def assert_close(u, reference):
    assert np.abs(u - reference).max() <= 1e-9 * np.abs(reference).max()


def assert_path(report, mode):
    """all_vertices targets are anchor vertices of other rows: the saddle
    factorization runs, quasi-definite as Q's diagonal is positive."""
    if mode == "all_vertices":
        assert report.path == "saddle_qd" and report.iterations == 0
    else:
        assert report.path == "substitution_cg" and report.iterations > 0


class TestSolvePaths:
    @pytest.mark.parametrize("name", sorted(DEFINITE_FIXTURES))
    def test_pinned_poisson_matches_saddle_qd(self, name):
        build, mode = DEFINITE_FIXTURES[name]
        domain = build()
        rhs = np.ones(domain.total_vertices)
        rep = solve_poisson(domain, QUAD, mode, rhs=1.0)
        ref = saddle_reference(domain, mode, lambda L, M: L, rhs)
        assert_path(rep, mode)
        assert ref.path == "saddle_qd" and ref.iterations == 0
        assert_close(rep.u, ref.u)
        assert rep.constraint_residual <= 1e-9
        assert rep.stationarity_residual <= 1e-8

    @pytest.mark.parametrize("name", sorted(DEFINITE_FIXTURES))
    def test_implicit_step_matches_saddle_qd(self, name):
        build, mode = DEFINITE_FIXTURES[name]
        domain = build()
        u0 = np.sin(np.arange(domain.total_vertices))
        rep = implicit_step(domain, QUAD, mode, 0.01, u0)
        ref = saddle_reference(domain, mode, lambda L, M: M + 0.01 * L, u0)
        assert_path(rep, mode)
        assert_close(rep.u, ref.u)

    def test_no_rows_take_substitution_cg(self):
        rep = solve_poisson(pinned_segments(), QUAD, "none")
        assert rep.path == "substitution_cg" and rep.iterations > 0

    def test_floating_subdomain_takes_saddle_qd(self):
        # The middle segment holds no Dirichlet vertex. The right end of the
        # first segment and the left end of the last are each the target of
        # two rows, so those rows have no pivot of their own.
        n = 31
        meshes = [generate_segment(lo, lo + 0.6, n) for lo in (0.0, 0.2, 0.4)]
        domain = DeconstructedDomain(meshes, [(0, 0, 0.0), (2, n - 1, 0.0)])
        rep = solve_poisson(domain, QUAD, "boundary_only")
        assert rep.path == "saddle_qd" and rep.iterations == 0
        s = domain.stacked_vertices()[:, 0]
        assert np.abs(rep.u - s * (1 - s) / 2).max() < 1e-3

    def test_floating_subdomain_with_pivots_substitutes(self):
        # The second segment holds no Dirichlet vertex; the row that targets
        # its left end fixes its constant. -u'' = 1, u(0) = 0, u'(1) = 0.
        n = 61
        meshes = [generate_segment(0.0, 0.7, n), generate_segment(0.3, 1.0, n)]
        domain = DeconstructedDomain(meshes, [(0, 0, 0.0)])
        rep = solve_poisson(domain, QUAD, "boundary_only")
        ref = saddle_reference(domain, "boundary_only", lambda L, M: L,
                               np.ones(domain.total_vertices))
        assert rep.path == "substitution_cg" and rep.iterations > 0
        assert_close(rep.u, ref.u)
        np.testing.assert_allclose(rep.multipliers, ref.multipliers, rtol=1e-9, atol=1e-12)
        s = domain.stacked_vertices()[:, 0]
        assert np.abs(rep.u - s * (1 - s / 2)).max() < 1e-3

    @settings(max_examples=40)
    @given(
        mesh=MESHES,
        moves=st.lists(
            st.tuples(st.floats(0.05, 0.5), st.floats(0.7, 1.3)), min_size=1, max_size=2,
            unique=True,
        ),
        alpha=st.sampled_from([None, 1e-3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_saddle_lu_property(self, mesh, moves, alpha, seed):
        # The drawn mesh and one or two copies, each scaled about its low
        # corner and moved along its bounding-box diagonal; every mesh has
        # its lowest-index boundary vertex pinned.
        lo, hi = mesh.bbox()
        copies = [
            SimplicialMesh(mesh.dim, lo + scale * (mesh.vertices - lo) + shift * (hi - lo),
                           mesh.simplices)
            for shift, scale in moves
        ]
        rng = np.random.default_rng(seed)
        pin = min(boundary_vertices(mesh))
        domain = DeconstructedDomain(
            [mesh, *copies], [(k, pin, rng.uniform(-1.0, 1.0)) for k in range(len(moves) + 1)]
        )
        rhs = rng.uniform(-1.0, 1.0, domain.total_vertices)
        if alpha is None:
            rep = solve_poisson(domain, QUAD, "boundary_only", rhs)
            ref = saddle_reference(domain, "boundary_only", lambda L, M: L, rhs)
        else:
            rep = implicit_step(domain, QUAD, "boundary_only", alpha, rhs)
            ref = saddle_reference(domain, "boundary_only", lambda L, M: M + alpha * L, rhs)
        assert_close(rep.u, ref.u)

    def test_coincident_copies_take_saddle_qd(self):
        # Under all_vertices the rows u_a - u_b, u_a - u_c, u_b - u_c at each
        # interior vertex are distinct but dependent, and share their columns.
        n = 11
        domain = DeconstructedDomain(
            [generate_segment(0.0, 1.0, n) for _ in range(3)],
            [(k, v, 0.0) for k in range(3) for v in (0, n - 1)],
        )
        rep = solve_poisson(domain, QUAD, "all_vertices")
        assert rep.path == "saddle_qd"
        s = domain.stacked_vertices()[:, 0]
        np.testing.assert_allclose(rep.u, s * (1 - s) / 2, atol=1e-12)

    def test_bilaplace_takes_saddle_lu_and_penalty_takes_saddle_qd(self, monkeypatch):
        domain = pinned_segments()
        assert solve_bilaplace(domain, QUAD, "high_order", load=24.0).path == "saddle_lu"
        assert solve_bilaplace_convex(domain, QUAD, load=24.0).path == "saddle_lu"
        paths = []

        def recording(*args, **kwargs):
            report = solve_kkt(*args, **kwargs)
            paths.append(report.path)
            return report

        monkeypatch.setattr(harness, "solve_kkt", recording)
        config = ExperimentConfig("seg1d_poisson", resolutions=(11, 21), penalty_weights=(1.0, 10.0))
        run_penalty_sweep(config)
        assert paths == ["saddle_qd", "saddle_qd"]

    def test_unconverged_substitution_cg_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "CG_MAX_ITERATIONS", 1)
        with pytest.raises(SolverError, match="substitution_cg did not converge in 1 iterations"):
            solve_poisson(pinned_boxes(), QUAD, "boundary_only")


class TestJacobiCg:
    """The substitution core's CG against scipy.sparse.linalg.cg with the
    same Jacobi preconditioner: the same iteration count, and the same w up
    to rounding (the arithmetic is the same, but is not pinned to the bit)."""

    @staticmethod
    def assert_matches_scipy(K, rhs):
        steps = []
        expected, info = scipy.sparse.linalg.cg(K, rhs, rtol=solver.CG_RTOL,
                                                M=sp.diags(1.0 / K.diagonal()),
                                                callback=steps.append)
        w, iterations = solver._jacobi_cg(K, rhs)
        assert info == 0 and iterations == len(steps) > 0
        assert np.linalg.norm(w - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_matches_scipy_on_the_annulus(self, monkeypatch):
        systems = []
        jacobi_cg = solver._jacobi_cg
        monkeypatch.setattr(solver, "_jacobi_cg",
                            lambda K, rhs: systems.append((K, rhs)) or jacobi_cg(K, rhs))
        domain = build_scenario(ExperimentConfig("annulus2d_poisson"), 2).domain
        solve_poisson(domain, QUAD, "boundary_only")
        [(K, rhs)] = systems
        self.assert_matches_scipy(K, rhs)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), density=st.floats(0.02, 0.3))
    def test_matches_scipy_property(self, seed, n, density):
        # A sparse SPD matrix under a symmetric diagonal scaling, which the
        # Jacobi preconditioner undoes.
        rng = np.random.default_rng(seed)
        G = rng.uniform(-1.0, 1.0, (n, n)) * (rng.random((n, n)) < density)
        scale = np.exp(rng.uniform(-3.0, 3.0, n))
        K = sp.csc_matrix(scale[:, None] * (G @ G.T + np.eye(n)) * scale)
        self.assert_matches_scipy(K, rng.uniform(-1.0, 1.0, n))

    def test_zero_right_hand_side_takes_no_step(self):
        # Zero load and zero Dirichlet values: w = 0 after no iteration, as in cg.
        domain = build_scenario(ExperimentConfig("annulus2d_poisson"), 1).domain
        rep = solve_poisson(domain, QUAD, "boundary_only", rhs=0.0)
        assert rep.path == "substitution_cg" and rep.iterations == 0
        assert not rep.u.any()


def random_qp(seed, n, zero_block):
    """(Q, b, A, c, fixed) of a random QP whose rows include repeats and
    negations of earlier rows, with c = A u* for a point u* that meets the
    fixed values.

    Q is positive definite, and the new rows are sparse, some of them
    combinations of two earlier rows, so that rows can be dependent. With
    zero_block, Q is zero on its trailing k rows and columns (k at most
    n / 6), which are never fixed, and the new rows are dense, at least 2k of
    them and no more than the free values. The saddle matrix is then
    nonsingular and well conditioned: SuperLU's partial-pivoting LU of an
    exactly singular one can crash the process.
    """
    rng = np.random.default_rng(seed)
    G = rng.uniform(-1.0, 1.0, (n, n))
    Q = G @ G.T + np.eye(n)
    k = int(rng.integers(1, max(1, n // 6) + 1)) if zero_block else 0
    Q[n - k :] = 0.0
    Q[:, n - k :] = 0.0
    pinned = rng.choice(n - k, rng.integers(0, (n - k) // 2 + 1), replace=False)
    if zero_block:
        rows = list(rng.uniform(-1.0, 1.0, (max(2 * k, (n - len(pinned)) // 2), n)))
    else:
        # Small integers keep the combinations exactly dependent.
        weights = [-2.0, -1.0, 1.0, 2.0]
        new = []
        for _ in range(rng.integers(1, n + 1)):
            if new and rng.random() < 0.3:
                new.append(rng.choice(weights, 2) @ np.array(new)[rng.integers(len(new), size=2)])
            else:
                new.append(np.zeros(n))
                cols = rng.choice(n, rng.integers(1, min(n, 3) + 1), replace=False)
                new[-1][cols] = rng.choice(weights, len(cols))
        rows = new
    copies = rng.integers(len(rows), size=rng.integers(0, len(rows) + 1))
    rows += [rng.choice([-1.0, 1.0]) * rows[i] for i in copies]
    A = np.vstack(rows)
    u_star = rng.uniform(-1.0, 1.0, n)
    fixed = [(int(i), float(u_star[i])) for i in pinned]
    return sp.csr_matrix(Q), rng.uniform(-1.0, 1.0, n), sp.csr_matrix(A), A @ u_star, fixed


def dense_kkt_u(Q, b, A, c, fixed):
    """u of the KKT system with fixed values as extra rows, by np.linalg.lstsq."""
    F = np.eye(Q.shape[0])[[i for i, _ in fixed]]
    C = np.vstack([A.toarray(), F])
    K = np.block([[Q.toarray(), C.T], [C, np.zeros((len(C), len(C)))]])
    rhs = np.concatenate([b, c, [v for _, v in fixed]])
    return np.linalg.lstsq(K, rhs, rcond=None)[0][: Q.shape[0]]


def annulus_saddle(m):
    """solve_poisson on annulus2d_poisson at multiplier m with all_vertices rows,
    and the saddle matrix and right-hand side of its free values and distinct
    rows, built here: (report, K, rhs, free, u with the fixed values set)."""
    config = ExperimentConfig("annulus2d_poisson", coupling="all_vertices")
    domain = build_scenario(config, m).domain
    report = solve_poisson(domain, QUAD, "all_vertices")
    L, M = assemble_global(domain, QUAD)
    _, A = coupling_for_mode(domain, "all_vertices")
    pinned, values = (np.array(column) for column in zip(*domain.pins))
    pinned = pinned.astype(int)
    free = np.ones(domain.total_vertices, dtype=bool)
    free[pinned] = False
    Af = A[:, free]
    keep = solver._distinct_rows(Af)
    K = sp.bmat([[L[free][:, free], Af[keep].T], [Af[keep], None]], format="csc")
    b = M @ np.ones(domain.total_vertices) - L[:, pinned] @ values
    rhs = np.concatenate([b[free], -(A[:, pinned] @ values)[keep]])
    u = np.zeros(domain.total_vertices)
    u[pinned] = values
    return report, K, rhs, free, u


class TestQuasiDefinite:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30))
    @pytest.mark.parametrize("zero_block", [False, True])
    def test_matches_dense_kkt_property(self, zero_block, seed, n):
        # A zero on Q's diagonal keeps the partial-pivoting LU and its eps retry.
        Q, b, A, c, fixed = random_qp(seed, n, zero_block)
        rep = solve_kkt(Q, b, A, c, fixed=fixed)
        if zero_block:
            assert rep.path.startswith("saddle_lu")
        else:
            assert rep.path == "saddle_qd"
        assert_close(rep.u, dense_kkt_u(Q, b, A, c, fixed))

    def test_factor_fill_at_most_half_of_colamd(self):
        # At m = 2: 282,958 stored entries against 605,556 (nnz(L) + nnz(U):
        # 235,344 against 565,401).
        rep, K, _, _, _ = annulus_saddle(2)
        assert rep.path == "saddle_qd"
        assert K.nnz <= rep.factor_nnz <= 0.5 * splu(K).nnz

    def test_matches_colamd_lu(self):
        rep, K, rhs, free, u = annulus_saddle(4)
        lu = splu(K)
        x = lu.solve(rhs)
        x += lu.solve(rhs - K @ x)
        u[free] = x[: free.sum()]
        assert rep.path == "saddle_qd"
        assert_close(rep.u, u)

    def test_stalled_refinement_falls_back_to_lu(self):
        # At 320 vertices per segment, eps is no longer small against the
        # smallest eigenvalue of A Q^-1 A^T: a refinement step does not halve
        # the residual, and the partial-pivoting LU takes over.
        config = ExperimentConfig("seg1d_poisson", coupling="all_vertices")
        domain = build_scenario(config, 320).domain
        rep = solve_poisson(domain, QUAD, "all_vertices")
        assert rep.path == "saddle_lu"
        assert rep.constraint_residual <= 1e-12 and rep.stationarity_residual <= 1e-12

    def test_refinement_takes_every_contracting_step(self):
        # At 160 vertices per segment the quasi-definite solve refines 12
        # times; the last step raises the max-norm residual (1.05e-14 to
        # 1.08e-14) yet lowers the probe's affine-fit residual from 2.19e-10
        # to 4.22e-11. Refinement keeps it.
        config = ExperimentConfig("seg1d_poisson", coupling="all_vertices", resolutions=(20, 160))
        assert harness.locking_probe(config)[-1].linear_fit_residual <= 1e-10

    def test_substitution_reports_no_fill(self):
        assert solve_poisson(pinned_segments(), QUAD, "boundary_only").factor_nnz == 0
