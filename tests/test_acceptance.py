"""End-to-end behavior checks: convergence, locking, thinning, quadrature, modes."""

from pathlib import Path

import numpy as np
import pytest

from overlapfem import (
    DeconstructedDomain,
    ExperimentConfig,
    QuadratureSpec,
    adjusted_volumes,
    assemble_global,
    boundary_only_constraints,
    boundary_vertices,
    build_scenario,
    constrained_modes,
    generate_annulus,
    generate_segment,
    implicit_step,
    load_mesh,
    locking_probe,
    run_convergence,
    run_modes,
    solve_bilaplace,
    solve_bilaplace_convex,
    solve_poisson,
    thin_constraints,
)
from overlapfem import harness
from overlapfem.solver import coupling_for_mode
from reference import generate_disk, submesh

DATA = Path(__file__).parent / "data"
QUAD = QuadratureSpec.corner_average()


def box_mesh(name):
    return load_mesh((DATA / ("%s.dmesh" % name)).read_text())


def errors_of(rows):
    assert all(r["solve_status"] == "ok" for r in rows)
    return [r["error_linf"] for r in rows]


def orders_of(rows):
    return [r["observed_order"] for r in rows[1:]]


@pytest.fixture(scope="module")
def annulus_laplace_rows():
    return {
        mode: run_convergence(ExperimentConfig("annulus2d_laplace", coupling=mode))
        for mode in ("boundary_only", "all_vertices")
    }


@pytest.fixture(scope="module")
def annulus_poisson_rows():
    return {
        mode: run_convergence(ExperimentConfig("annulus2d_poisson", coupling=mode))
        for mode in ("boundary_only", "all_vertices")
    }


class TestSegmentPoissonConvergence:
    def test_boundary_only_second_order(self):
        rows = run_convergence(ExperimentConfig("seg1d_poisson"))
        errors_of(rows)
        assert rows[-1]["observed_order"] >= 1.8


class TestSegmentPoissonLocking:
    def test_all_vertices_stagnates(self):
        cfg = ExperimentConfig("seg1d_poisson", coupling="all_vertices")
        errors = errors_of(run_convergence(cfg))
        assert errors[-1] >= 0.5 * errors[0]

    def test_overlap_residual_is_linear_at_every_resolution(self):
        cfg = ExperimentConfig("seg1d_poisson", coupling="all_vertices")
        for report in locking_probe(cfg):
            assert report.linear_fit_residual <= 1e-8


class TestAnnulusLaplaceConvergence:
    @pytest.mark.parametrize("mode", ["boundary_only", "all_vertices"])
    def test_order_at_least_1_5(self, annulus_laplace_rows, mode):
        rows = annulus_laplace_rows[mode]
        errors_of(rows)
        orders = orders_of(rows)
        assert len(orders) == 3
        assert min(orders) >= 1.5


class TestAnnulusPoissonDichotomy:
    def test_boundary_only_converges(self, annulus_poisson_rows):
        rows = annulus_poisson_rows["boundary_only"]
        errors_of(rows)
        assert min(orders_of(rows)) >= 1.5

    def test_all_vertices_stagnates(self, annulus_poisson_rows):
        errors = errors_of(annulus_poisson_rows["all_vertices"])
        assert errors[-1] >= 0.3 * errors[0]


class TestConstraintPrecision:
    @pytest.mark.parametrize("mode", ["boundary_only", "all_vertices"])
    def test_two_annuli(self, mode):
        domain = build_scenario(ExperimentConfig("annulus2d_laplace"), 1).domain
        self.check(domain, mode)

    @pytest.mark.parametrize("mode", ["boundary_only", "all_vertices"])
    def test_overlapping_boxes(self, mode):
        domain = DeconstructedDomain([box_mesh("box_a"), box_mesh("box_b")])
        self.check(domain, mode)

    @staticmethod
    def check(domain, mode):
        _, C = coupling_for_mode(domain, mode)
        assert C.shape[0] > 0
        X = domain.stacked_vertices()
        assert np.abs(C @ np.ones(domain.total_vertices)).max() == 0.0
        for d in range(domain.dim):
            assert np.abs(C @ X[:, d]).max() <= 1e-10


class TestThinning:
    @pytest.mark.parametrize(
        "meshes",
        [
            [
                generate_segment(0.0, 0.6, 13),
                generate_segment(0.2, 0.8, 13),
                generate_segment(0.4, 1.0, 13),
            ],
            [
                generate_disk(1.0, 4, 16, 0.0, (0.0, 0.0)),
                generate_disk(1.0, 5, 18, 0.05, (0.9, 0.0)),
                generate_disk(1.0, 4, 17, 0.1, (0.45, 0.7)),
            ],
        ],
        ids=["segments", "disks"],
    )
    def test_one_row_per_constrained_vertex(self, meshes):
        domain = DeconstructedDomain(meshes)
        pairwise = boundary_only_constraints(domain)
        thinned = thin_constraints(pairwise)
        targets = set(map(tuple, pairwise.target.tolist()))
        assert sorted(map(tuple, thinned.target.tolist())) == sorted(targets)
        # some vertex had several candidate rows, so thinning strictly shrinks
        assert len(pairwise) > len(targets)
        assert len(thinned) < len(pairwise)


class TestThreeSegments:
    @pytest.mark.parametrize("n", [43, 85])
    def test_boundary_only_is_nodally_exact(self, n):
        # -u'' = 1 with u = 0 at x = 0 and x = 1. The free ends 0.6 and 0.3
        # lie in both other segments and get two rows each, 0.2 and 0.8 one.
        meshes = [generate_segment(0.0, 0.6, n), generate_segment(0.3, 1.0, n),
                  generate_segment(0.2, 0.8, n)]
        domain = DeconstructedDomain(meshes, [(0, 0, 0.0), (1, n - 1, 0.0)])
        report = solve_poisson(domain, QUAD, "boundary_only")
        x = domain.stacked_vertices()[:, 0]
        assert np.abs(report.u - x * (1 - x) / 2).max() <= 1e-12
        assert len(report.constraints) == 6 and report.path == "saddle_qd"
        assert len(thin_constraints(report.constraints)) == 4


def three_annuli(m):
    """The annulus2d_poisson problem on three annuli, with the circles r = 1
    (A) and r = 2 (B) pinned to 0. All three have ring spacing 1/(8m), so
    every circle lies on a ring line of every mesh that contains it, and
    [5/4, 13/8] is covered three times."""
    n_t = 72 * m
    a = generate_annulus(1.0, 13.0 / 8.0, 5 * m, n_t)
    b = generate_annulus(5.0 / 4.0, 2.0, 6 * m, n_t, np.pi / n_t)
    c = generate_annulus(9.0 / 8.0, 15.0 / 8.0, 6 * m, n_t, np.pi / (2 * n_t))
    pins = [(0, v, 0.0) for v in range(n_t)]
    pins += [(1, v, 0.0) for v in range(b.num_vertices - n_t, b.num_vertices)]
    scenario = build_scenario(ExperimentConfig("annulus2d_poisson"), m)
    return DeconstructedDomain([a, b, c], pins), scenario.f, scenario.reference


class TestThreeAnnuli:
    @staticmethod
    def sweep(mode, resolutions):
        h, errors = [], []
        for m in resolutions:
            domain, f, reference = three_annuli(m)
            report = solve_poisson(domain, QuadratureSpec.barycenter(), mode, rhs=f)
            h.append(max(harness.max_circumradius(mesh) for mesh in domain.subdomains))
            errors.append(np.abs(report.u - reference(domain.stacked_vertices())).max())
        return np.array(h), np.array(errors)

    def test_boundary_only_second_order(self):
        # Measured: 8.07e-4, 1.93e-4 and 4.74e-5, orders 2.06 and 2.03.
        h, errors = self.sweep("boundary_only", (1, 2, 4))
        orders = np.log(errors[:-1] / errors[1:]) / np.log(h[:-1] / h[1:])
        assert orders.min() >= 1.8

    def test_all_vertices_stagnates(self):
        # Measured: 7.16e-2 and 7.19e-2. At m = 1 the solve is infeasible.
        _, errors = self.sweep("all_vertices", (2, 4))
        assert errors[1] >= 0.9 * errors[0]


class TestBilaplaceCouplings:
    def test_high_order_converges(self):
        rows = run_convergence(ExperimentConfig("seg1d_bilaplace"))
        errors_of(rows)
        assert rows[-1]["observed_order"] >= 1.5

    @staticmethod
    def jumps_at_inner_boundary(coupling):
        cfg = ExperimentConfig(
            "seg1d_bilaplace", coupling=coupling, resolutions=(20, 40, 80)
        )
        out = []
        for report in locking_probe(cfg):
            jump = [j for _, _, pos, j in report.jumps if abs(pos - 1 / 3) < 1e-9]
            assert len(jump) == 1
            out.append(jump[0])
        return out

    def test_value_only_jump_does_not_decrease(self):
        jumps = self.jumps_at_inner_boundary("value_only")
        for coarse, fine in zip(jumps, jumps[1:]):
            assert fine >= coarse - 1e-12

    def test_high_order_jump_halves(self):
        jumps = self.jumps_at_inner_boundary("high_order")
        for coarse, fine in zip(jumps, jumps[1:]):
            assert coarse >= 2.0 * fine

    def test_low_order_matches_slopes_but_stagnates(self):
        # The slope rows hold at the inner boundary, yet u locks: the error
        # stays near 0.19 as h halves.
        jumps = self.jumps_at_inner_boundary("low_order")
        assert max(jumps) <= 1e-12
        rows = run_convergence(
            ExperimentConfig("seg1d_bilaplace", coupling="low_order", resolutions=(20, 40, 80))
        )
        errors = errors_of(rows)
        assert min(errors) >= 0.1
        assert errors[-1] >= 0.9 * errors[0]


def bilaplace_configurations():
    n = 21
    seg = DeconstructedDomain(
        [generate_segment(0.0, 2.0 / 3.0, n), generate_segment(1.0 / 3.0, 1.0, n)],
        [(0, 0, 0.0), (1, n - 1, 0.0)],
    )

    dup = DeconstructedDomain(
        [generate_segment(0.0, 1.0, n), generate_segment(0.0, 1.0, n)],
        [(s, v, 0.0) for s in (0, 1) for v in (0, n - 1)],
    )

    box_a, box_b = box_mesh("box_a"), box_mesh("box_b")

    def floor_pins(mesh, s):
        return [
            (s, v, 0.0)
            for v in sorted(boundary_vertices(mesh))
            if mesh.vertices[v, 2] == 0.0
        ]

    boxes = DeconstructedDomain([box_a, box_b], floor_pins(box_a, 0) + floor_pins(box_b, 1))
    return [
        ("segments", seg, 24.0),
        ("duplicated", dup, 24.0),
        ("boxes", boxes, 1.0),
    ]


class TestConvexEquivalence:
    @pytest.mark.parametrize(
        "name,domain,load",
        bilaplace_configurations(),
        ids=[c[0] for c in bilaplace_configurations()],
    )
    def test_kkt_matches_convex(self, name, domain, load):
        kkt = solve_bilaplace(domain, QUAD, "high_order", load=load)
        convex = solve_bilaplace_convex(domain, QUAD, load=load)
        scale = np.abs(kkt.u).max()
        assert scale > 0
        assert np.abs(kkt.u - convex.u).max() <= 1e-8 * scale


class TestSimplySupported:
    """Both bi-Laplace solvers pin z = laplace(u) to 0 wherever u is pinned."""

    @pytest.mark.parametrize("name", ["segments", "boxes"])
    def test_z_is_zero_where_u_is_pinned(self, name):
        [(_, domain, load)] = [c for c in bilaplace_configurations() if c[0] == name]
        pinned = [g for g, _ in domain.pins]
        for solve in (solve_bilaplace, solve_bilaplace_convex):
            z = solve(domain, QUAD, load=load).z
            assert (z[pinned] == 0.0).all(), solve.__name__


class TestBilaplaceRowReduction:
    """Reciprocal rows at coincident vertices are dropped; the rest are kept."""

    def test_dropped_and_kept_rows(self):
        oracle = TestDuplicatedMeshOracle()
        make_box, box_pins = oracle.cases()[1]
        _, dup_box = oracle.single_and_duplicated(make_box, box_pins)
        expected = {"segments": (2, 0), "duplicated": (0, 0), "boxes": (22, 10),
                    "duplicated_box": (34, 17)}
        configurations = bilaplace_configurations()
        configurations.append(("duplicated_box", dup_box, 1.0))
        for name, domain, load in configurations:
            kkt = solve_bilaplace(domain, QUAD, "high_order", load=load)
            convex = solve_bilaplace_convex(domain, QUAD, load=load)
            rows, dropped = expected[name]
            assert (len(kkt.constraints), kkt.dropped_rows) == (rows, dropped), name
            assert len(convex.multipliers) == rows - dropped, name
            assert convex.dropped_rows == dropped, name


class TestDuplicatedMeshOracle:
    @staticmethod
    def single_and_duplicated(make_mesh, pins):
        single = DeconstructedDomain([make_mesh()], [(0, v, val) for v, val in pins])
        duplicated = DeconstructedDomain(
            [make_mesh(), make_mesh()],
            [(s, v, val) for s in (0, 1) for v, val in pins],
        )
        return single, duplicated

    @staticmethod
    def split_error(duplicated, u_single, u_dup):
        scale = max(np.abs(u_single).max(), 1e-300)
        n = len(u_single)
        return max(np.abs(u_dup[:n] - u_single).max(), np.abs(u_dup[n:] - u_single).max()) / scale

    def cases(self):
        n = 21
        seg = lambda: generate_segment(0.0, 1.0, n)
        seg_pins = [(0, 0.0), (n - 1, 0.0)]
        box = lambda: box_mesh("box_a")
        mesh = box()
        box_pins = [
            (v, 0.0)
            for v in sorted(boundary_vertices(mesh))
            if mesh.vertices[v, 2] == 0.0
        ]
        return [(seg, seg_pins), (box, box_pins)]

    def test_poisson_heat_and_bilaplace_match(self):
        for make_mesh, pins in self.cases():
            single, dup = self.single_and_duplicated(make_mesh, pins)
            one = solve_poisson(single, QUAD, mode="none", rhs=1.0)
            two = solve_poisson(dup, QUAD, mode="boundary_only", rhs=1.0)
            assert self.split_error(dup, one.u, two.u) <= 1e-9

            rng = np.random.default_rng(0)
            u0 = rng.normal(size=single.total_vertices)
            one = implicit_step(single, QUAD, "none", 0.05, u0)
            two = implicit_step(
                dup, QUAD, "boundary_only", 0.05, np.concatenate([u0, u0])
            )
            assert self.split_error(dup, one.u, two.u) <= 1e-9

            one = solve_bilaplace(single, QUAD, "high_order", load=1.0)
            two = solve_bilaplace(dup, QUAD, "high_order", load=1.0)
            assert self.split_error(dup, one.u, two.u) <= 1e-9

    def test_total_adjusted_volume_is_preserved(self):
        for make_mesh, pins in self.cases():
            single, dup = self.single_and_duplicated(make_mesh, pins)
            v_single = adjusted_volumes(single, 0, QUAD).sum()
            v_dup = sum(adjusted_volumes(dup, k, QUAD).sum() for k in range(2))
            assert abs(v_dup - v_single) <= 1e-12


class TestQuadratureAccuracy:
    def test_union_area_accuracy_ordering(self):
        domain = DeconstructedDomain(
            [
                generate_annulus(1.0, 1.7, 2, 512),
                generate_annulus(1.4, 2.0, 2, 512, 0.003),
            ]
        )
        truth = 3.0 * np.pi

        def union_error(spec):
            total = sum(
                adjusted_volumes(domain, k, spec).sum() for k in range(2)
            )
            return abs(total - truth)

        err_corner = union_error(QuadratureSpec.corner_average())
        err_10 = union_error(QuadratureSpec.symmetric(10))
        err_mc = union_error(QuadratureSpec.monte_carlo(100, 0))
        assert err_10 <= err_corner
        assert err_mc <= 5.0 * err_10


class TestEigenmodeAgreement:
    def test_half_disks_match_single_disk(self):
        disk = generate_disk(1.0, 6, 24)
        parent_b = generate_disk(1.0, 7, 26, 0.11)
        cent_a = disk.vertices[disk.simplices].mean(axis=1)
        cent_b = parent_b.vertices[parent_b.simplices].mean(axis=1)
        upper = submesh(disk, np.nonzero(cent_a[:, 1] >= -0.15)[0])
        lower = submesh(parent_b, np.nonzero(cent_b[:, 1] <= 0.15)[0])

        def first_modes(domain, mode):
            L, M = assemble_global(domain, QUAD)
            _, A = coupling_for_mode(domain, mode)
            return np.array([v for v, _ in constrained_modes(L, M, A, 10)])

        single = first_modes(DeconstructedDomain([disk]), "none")
        split = first_modes(DeconstructedDomain([upper, lower]), "boundary_only")
        # first eigenvalue is the zero (constant) mode on both sides
        assert abs(single[0]) < 1e-8 and abs(split[0]) < 1e-8
        rel = np.abs(split[1:] - single[1:]) / np.abs(single[1:])
        assert rel.max() <= 0.05


class TestDefaultConfigModes:
    """`modes` on the default annulus config (N = 52,992) runs on the sparse eigensolver."""

    # Neumann eigenvalues of -laplace on 1 <= r <= 2, the union of the two
    # annuli: k^2 for the Bessel roots k of J'_n(k) Y'_n(2k) - J'_n(2k) Y'_n(k),
    # computed as in perfbench/reference.py. Angular orders n = 1, 2, 3, 4
    # (each twice), then n = 5.
    NEUMANN = [0.458784, 0.458784, 1.797214, 1.797214, 3.915955, 3.915955,
               6.695746, 6.695746, 10.045372]

    def test_default_annulus_modes(self):
        values = run_modes(ExperimentConfig("annulus2d_poisson"))
        assert abs(values[0]) <= 1e-8
        np.testing.assert_allclose(values[1:10], self.NEUMANN, rtol=1e-3)


class TestBoxMeshIngestion:
    def test_meshes_are_valid_overlapping_boxes(self):
        a, b = box_mesh("box_a"), box_mesh("box_b")
        assert a.dim == b.dim == 3
        domain = DeconstructedDomain([a, b])
        total = sum(adjusted_volumes(domain, k, QUAD).sum() for k in range(2))
        assert total == pytest.approx(1.5, abs=1e-12)
