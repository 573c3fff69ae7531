from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

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
from overlapfem.solver import coupling_for_mode

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
        splu = solver.spla.splu
        monkeypatch.setattr(solver.spla, "splu", lambda K: calls.append(K) or splu(K))
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

    def test_unknown_mode_rejected(self):
        dom = DeconstructedDomain([generate_segment(0.0, 1.0, 5)])
        with pytest.raises(ValueError):
            solve_poisson(dom, QUAD, mode="sideways")


class TestImplicitStep:
    def test_conserves_lumped_mass_without_dirichlet(self):
        a = generate_segment(0.0, 0.7, 15)
        b = generate_segment(0.3, 1.0, 14)
        dom = DeconstructedDomain([a, b])
        L, M, _ = assemble_global(dom, QUAD)
        rng = np.random.default_rng(2)
        u0 = rng.normal(size=dom.total_vertices)
        rep = implicit_step(dom, QUAD, "none", 0.05, u0)
        before = float(np.ones(dom.total_vertices) @ (M @ u0))
        after = float(np.ones(dom.total_vertices) @ (M @ rep.u))
        assert after == pytest.approx(before, rel=1e-10)

    def test_nonpositive_alpha_rejected(self):
        dom = DeconstructedDomain([generate_segment(0.0, 1.0, 5)])
        with pytest.raises(ValueError):
            implicit_step(dom, QUAD, "none", 0.0, np.zeros(5))


class TestBilaplace:
    def quartic_domain(self, n):
        a = generate_segment(0.0, 2.0 / 3.0, n)
        b = generate_segment(1.0 / 3.0, 1.0, n)
        dom = DeconstructedDomain(
            [a, b], [(0, 0, 0.0), (1, n - 1, 0.0)]
        )
        return dom, ((0, 0, 0.0), (1, n - 1, 0.0))

    def test_high_order_matches_quartic(self):
        n = 80
        dom, z_pins = self.quartic_domain(n)
        rep = solve_bilaplace(dom, QUAD, "high_order", z_pins, load=24.0)
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
        dom, _ = self.quartic_domain(10)
        with pytest.raises(SolverError):
            solve_bilaplace(dom, QUAD, "medium_order")

    def test_convex_solver_agrees(self):
        dom, z_pins = self.quartic_domain(30)
        kkt = solve_bilaplace(dom, QUAD, "high_order", z_pins, load=24.0)
        convex = solve_bilaplace_convex(dom, QUAD, z_pins, load=24.0)
        scale = np.abs(kkt.u).max()
        assert np.abs(kkt.u - convex.u).max() <= 1e-8 * scale
        np.testing.assert_allclose(convex.z, kkt.z, atol=1e-6 * scale)


class TestConstrainedModes:
    def test_segment_neumann_spectrum(self):
        n = 61
        dom = DeconstructedDomain([generate_segment(0.0, 1.0, n)])
        L, M, _ = assemble_global(dom, QUAD)
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
        L, M, _ = assemble_global(dom, QUAD)
        A = sp.csr_matrix((np.ones(1), ([0], [0])), shape=(1, n))
        values = [v for v, _ in constrained_modes(L, M, A, 3)]
        assert values[0] > 1.0  # constant mode suppressed

    def test_no_freedom_left(self):
        dom = DeconstructedDomain([generate_segment(0.0, 1.0, 4)])
        L, M, _ = assemble_global(dom, QUAD)
        with pytest.raises(SolverError):
            constrained_modes(L, M, sp.eye(4, format="csr"), 2)

    def test_too_few_degrees_of_freedom(self):
        # 6 vertices and 3 unit rows leave 3 degrees of freedom: at most 2 modes.
        dom = DeconstructedDomain([generate_segment(0.0, 1.0, 6)])
        L, M, _ = assemble_global(dom, QUAD)
        A = sp.eye(3, 6, format="csr")
        assert len(constrained_modes(L, M, A, 2)) == 2
        for k in (3, 10):
            with pytest.raises(SolverError):
                constrained_modes(L, M, A, k)

    @staticmethod
    def scaled_annulus_modes(s):
        meshes = [generate_annulus(1.0, 13 / 8, 5, 72), generate_annulus(5 / 4, 2.0, 8, 72, np.pi / 72)]
        dom = DeconstructedDomain([SimplicialMesh(2, s * m.vertices, m.simplices) for m in meshes])
        L, M, _ = assemble_global(dom, QUAD)
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
    """solve_kkt on the same form, load, rows and pins: the saddle LU answer."""
    L, M, _ = assemble_global(domain, QUAD)
    _, A = coupling_for_mode(domain, mode)
    return solve_kkt(form(L, M), M @ rhs, A, fixed=solver._dirichlet_fixed(domain))


def assert_close(u, reference):
    assert np.abs(u - reference).max() <= 1e-9 * np.abs(reference).max()


class TestSolvePaths:
    @pytest.mark.parametrize("name", sorted(DEFINITE_FIXTURES))
    def test_pinned_poisson_takes_dual_cg(self, name):
        build, mode = DEFINITE_FIXTURES[name]
        domain = build()
        rhs = np.ones(domain.total_vertices)
        rep = solve_poisson(domain, QUAD, mode, rhs=1.0)
        ref = saddle_reference(domain, mode, lambda L, M: L, rhs)
        assert rep.path == "dual_cg" and rep.iterations > 0
        assert ref.path == "saddle_lu" and ref.iterations == 0
        assert_close(rep.u, ref.u)
        assert rep.constraint_residual <= 1e-9
        assert rep.stationarity_residual <= 1e-8

    @pytest.mark.parametrize("name", sorted(DEFINITE_FIXTURES))
    def test_implicit_step_takes_dual_cg(self, name):
        build, mode = DEFINITE_FIXTURES[name]
        domain = build()
        u0 = np.sin(np.arange(domain.total_vertices))
        rep = implicit_step(domain, QUAD, mode, 0.01, u0)
        ref = saddle_reference(domain, mode, lambda L, M: M + 0.01 * L, u0)
        assert rep.path == "dual_cg" and rep.iterations > 0
        assert_close(rep.u, ref.u)

    def test_no_rows_skip_cg(self):
        rep = solve_poisson(pinned_segments(), QUAD, "none")
        assert rep.path == "dual_cg" and rep.iterations == 0

    def test_floating_subdomain_takes_saddle_lu(self):
        # The middle segment holds no Dirichlet vertex: L is singular on it.
        n = 31
        meshes = [generate_segment(lo, lo + 0.6, n) for lo in (0.0, 0.2, 0.4)]
        domain = DeconstructedDomain(meshes, [(0, 0, 0.0), (2, n - 1, 0.0)])
        rep = solve_poisson(domain, QUAD, "boundary_only")
        assert rep.path.startswith("saddle_lu") and rep.iterations == 0
        s = domain.stacked_vertices()[:, 0]
        assert np.abs(rep.u - s * (1 - s) / 2).max() < 1e-3

    def test_coincident_copies_take_saddle_lu(self):
        # Under all_vertices the rows u_a - u_b, u_a - u_c, u_b - u_c at each
        # interior vertex are distinct but dependent, so A A^T is singular.
        n = 11
        domain = DeconstructedDomain(
            [generate_segment(0.0, 1.0, n) for _ in range(3)],
            [(k, v, 0.0) for k in range(3) for v in (0, n - 1)],
        )
        rep = solve_poisson(domain, QUAD, "all_vertices")
        assert rep.path.startswith("saddle_lu")
        s = domain.stacked_vertices()[:, 0]
        np.testing.assert_allclose(rep.u, s * (1 - s) / 2, atol=1e-12)

    def test_bilaplace_penalty_and_direct_solves_take_saddle_lu(self, monkeypatch):
        domain = pinned_segments()
        z_pins = ((0, 0, 0.0), (1, 20, 0.0))
        assert solve_bilaplace(domain, QUAD, "high_order", z_pins, load=24.0).path == "saddle_lu"
        assert solve_bilaplace_convex(domain, QUAD, z_pins, load=24.0).path == "saddle_lu"
        paths = []

        def recording(*args, **kwargs):
            report = solve_kkt(*args, **kwargs)
            paths.append(report.path)
            return report

        monkeypatch.setattr(harness, "solve_kkt", recording)
        config = ExperimentConfig("seg1d_poisson", resolutions=(11, 21), penalty_weights=(1.0, 10.0))
        run_penalty_sweep(config)
        assert paths == ["saddle_lu", "saddle_lu"]

    def test_unconverged_dual_cg_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "DUAL_CG_MAX_ITERATIONS", 1)
        with pytest.raises(SolverError, match="dual_cg did not converge in 1 iterations"):
            solve_poisson(pinned_annuli(), QUAD, "all_vertices")
