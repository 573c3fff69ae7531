import math
import re
from pathlib import Path

import numpy as np
import pytest

from overlapfem import (
    ConfigError,
    ExperimentConfig,
    QuadratureSpec,
    SimplicialMesh,
    build_scenario,
    generate_annulus,
    generate_segment,
    locking_probe,
    parse_config,
    run_convergence,
    run_modes,
    run_penalty_sweep,
    save_mesh,
)
from overlapfem import harness, solver
from overlapfem.cli import main
from overlapfem.harness import (
    CONVERGENCE_HEADER,
    convergence_csv,
    max_circumradius,
    penalty_csv,
    probe_csv,
    run_constraints,
    run_solve,
    solution_csv,
)


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("scenario = seg1d_poisson\n")
        assert cfg.coupling == "boundary_only"
        assert cfg.resolutions == (20, 40, 80, 160)
        assert cfg.quadrature.scheme == "corner_average"

    def test_dt_is_not_a_key(self):
        with pytest.raises(ConfigError):
            parse_config("scenario = seg1d_poisson\ndt = 0.1\n")

    def test_annulus_defaults(self):
        cfg = parse_config("scenario = annulus2d_laplace\n")
        assert cfg.resolutions == (1, 2, 4, 8)
        assert cfg.quadrature.scheme == "barycenter"

    def test_bilaplace_default_coupling(self):
        cfg = parse_config("scenario = seg1d_bilaplace\n")
        assert cfg.coupling == "high_order"

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# experiment\n\nscenario = seg1d_poisson  # inline\nf = 2.5\n"
        )
        assert cfg.f == 2.5

    def test_quadrature_variants(self):
        cfg = parse_config(
            "scenario = seg1d_poisson\nquadrature = symmetric\nn_points = 4\n"
        )
        assert cfg.quadrature == QuadratureSpec.symmetric(4)
        cfg = parse_config(
            "scenario = seg1d_poisson\nquadrature = monte_carlo\n"
            "samples_per_element = 64\nseed = 9\n"
        )
        assert cfg.quadrature == QuadratureSpec.monte_carlo(64, 9)

    def test_quadrature_sub_keys_default_to_the_spec(self):
        # A config names the scheme and its fields as QuadratureSpec does.
        for scheme, sub_keys in [("corner_average", {}), ("barycenter", {}),
                                 ("symmetric", {}), ("symmetric", {"n_points": 4}),
                                 ("monte_carlo", {}), ("monte_carlo", {"seed": 3}),
                                 ("monte_carlo", {"samples_per_element": 64, "seed": 9})]:
            text = "scenario = seg1d_poisson\nquadrature = %s\n" % scheme
            text += "".join("%s = %d\n" % item for item in sub_keys.items())
            assert parse_config(text).quadrature == QuadratureSpec(scheme, **sub_keys)

    def test_schemes_list_the_fields_they_read(self):
        spec_fields = {"n_points", "samples_per_element", "seed"}
        for scheme, keys in QuadratureSpec.SCHEME_FIELDS.items():
            assert set(keys) <= spec_fields and set(keys) <= set(harness._KEYS)
            for key in spec_fields - set(keys):
                with pytest.raises(ConfigError, match="%s requires the matching" % key):
                    parse_config("scenario = seg1d_poisson\nquadrature = %s\n%s = 4\n"
                                 % (scheme, key))

    def test_every_key_names_its_field(self):
        # Each scenario with every key it reads: the parsed config equals the
        # one built from the same names as fields.
        common = {"resolutions": "3,5", "f": "3", "num_modes": "4", "output": "out.csv",
                  "quadrature": "monte_carlo", "samples_per_element": "7", "seed": "2"}
        scenario_values = {"mesh_files": "a.dmesh,b.dmesh", "dirichlet": "0:0:1.5,1:4:-2"}
        for scenario, spec in harness._SCENARIOS.items():
            keys = dict(common, scenario=scenario, coupling=harness._COUPLINGS[spec.kind][0])
            keys.update((key, scenario_values.get(key, "0.25")) for key in spec.keys)
            if spec.kind == "poisson":
                keys["penalty_weights"] = "0.5,2"
            text = "".join("%s = %s\n" % item for item in keys.items())
            fields = {key: harness._KEYS[key](value) for key, value in keys.items()}
            fields["quadrature"] = QuadratureSpec(
                "monte_carlo", samples_per_element=fields.pop("samples_per_element"),
                seed=fields.pop("seed"),
            )
            assert parse_config(text) == ExperimentConfig(**fields), scenario

    def test_penalty_and_modes_keys(self):
        cfg = parse_config(
            "scenario = seg1d_poisson\npenalty_weights = 0.1,1,10\nnum_modes = 6\n"
        )
        assert cfg.penalty_weights == (0.1, 1.0, 10.0)
        assert cfg.num_modes == 6

    @pytest.mark.parametrize(
        "text",
        [
            "coupling = none\n",  # missing scenario
            "scenario = warp_drive\n",
            "scenario = seg1d_poisson\nscenario = seg1d_poisson\n",
            "scenario = seg1d_poisson\nflux = 3\n",
            "scenario = seg1d_poisson\nresolutions = 40,20\n",
            "scenario = seg1d_poisson\nresolutions = 40\n",
            "scenario = seg1d_poisson\nf = fast\n",
            "scenario = seg1d_poisson\nquadrature = trapezoid\n",
            "scenario = seg1d_poisson\nn_points = 4\n",
            "scenario = seg1d_poisson\ncoupling = high_order\n",
            "scenario = seg1d_poisson\ncoupling = boundary_only_thinned\n",
            "scenario = seg1d_bilaplace\ncoupling = all_vertices\n",
            "scenario = custom\n",
            "scenario with no equals sign\n",
            "scenario = seg1d_poisson\nnum_modes = 0\n",
            "scenario = custom\nmesh_files = a.dmesh,b.dmesh\ndirichlet = 0:0\n",
            "scenario = seg1d_poisson\nquadrature = symmetric\nn_points = 3\n",
        ],
    )
    def test_rejects_bad_configs(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize(
        "text",
        [
            "scenario = seg1d_poisson\nf = nan\n",
            "scenario = seg1d_poisson\nf = inf\n",
            "scenario = annulus2d_laplace\nf = 0\ndirichlet_inner = nan\n",
            "scenario = seg1d_poisson\npenalty_weights = 1,-inf\n",
            "scenario = seg1d_poisson\ndirichlet = 0:0:nan\n",
        ],
    )
    def test_rejects_non_finite_numbers(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize("weights", ["-5,0", "0", "1,-0.5"])
    def test_rejects_non_positive_penalty_weights(self, tmp_path, capsys, weights):
        text = "scenario = seg1d_poisson\nresolutions = 10,20\npenalty_weights = %s\n" % weights
        with pytest.raises(ConfigError, match="penalty_weights must be positive"):
            parse_config(text)
        out = tmp_path / "table.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text + "output = %s\n" % out)
        assert main(["converge", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_annulus_laplace_rejects_a_load_when_built(self):
        with pytest.raises(ConfigError, match="requires f = 0"):
            run_convergence(ExperimentConfig("annulus2d_laplace", f=1.0))

    def test_relative_paths_resolve_against_base_dir(self, tmp_path):
        text = "scenario = seg1d_poisson\noutput = out.csv\n"
        assert parse_config(text).output == "out.csv"
        assert parse_config(text, base_dir="runs").output == str(Path("runs", "out.csv"))
        absolute = tmp_path / "out.csv"
        text = "scenario = seg1d_poisson\noutput = %s\n" % absolute
        assert parse_config(text, base_dir="runs").output == str(absolute)

    @pytest.mark.parametrize(
        "scenario, line",
        [
            ("seg1d_bilaplace", "dirichlet_left = 5"),
            ("seg1d_poisson", "dirichlet = 0:0:3"),
            ("seg1d_poisson", "mesh_files = x.dmesh"),
            ("seg1d_poisson", "dirichlet_inner = 4"),
            ("duplicated_mesh", "dirichlet_outer = 1"),
            ("annulus2d_laplace", "dirichlet_right = 1"),
            ("annulus2d_poisson", "dirichlet_inner = 0"),
        ],
    )
    def test_rejects_keys_the_scenario_does_not_read(self, tmp_path, capsys, scenario, line):
        res = "1,2" if scenario.startswith("annulus") else "10,20"
        text = "scenario = %s\nresolutions = %s\n%s\n" % (scenario, res, line)
        with pytest.raises(ConfigError, match="does not read"):
            parse_config(text)
        out = tmp_path / "table.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text + "output = %s\n" % out)
        assert main(["converge", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()


class TestBuildScenario:
    def test_segment_geometry(self):
        sc = build_scenario(ExperimentConfig("seg1d_poisson"), 20)
        assert len(sc.domain.subdomains) == 2
        assert sc.domain.subdomains[0].vertices[-1, 0] == pytest.approx(2 / 3)
        assert sc.domain.subdomains[1].vertices[0, 0] == pytest.approx(1 / 3)
        s = sc.domain.stacked_vertices()
        np.testing.assert_allclose(
            sc.reference(s), s[:, 0] * (1 - s[:, 0]) / 2, atol=1e-15
        )

    def test_annulus_dirichlet_rings(self):
        sc = build_scenario(ExperimentConfig("annulus2d_laplace"), 1)
        for sub, vert, val in sc.domain.dirichlet:
            r = np.linalg.norm(sc.domain.subdomains[sub].vertices[vert])
            assert (val, round(r, 12)) in ((0.0, 1.0), (1.0, 2.0))

    def test_annulus_reference_midpoint(self):
        sc = build_scenario(ExperimentConfig("annulus2d_poisson"), 1)
        val = sc.reference(np.array([[1.5, 0.0]]))[0]
        assert val == pytest.approx(
            (1.5**2 - 1) / 4 - 3 / (4 * math.log(2)) * math.log(1.5)
        )
        assert val == pytest.approx(-0.126222, abs=5e-6)

    def test_custom_dirichlet_field_is_the_config_key(self, tmp_path):
        for name, (a, b) in {"a": (0.0, 0.7), "b": (0.3, 1.0)}.items():
            (tmp_path / (name + ".dmesh")).write_text(save_mesh(generate_segment(a, b, 6)))
        text = "scenario = custom\nmesh_files = a.dmesh,b.dmesh\ndirichlet = 0:0:0.5,1:5:-1\n"
        parsed = build_scenario(parse_config(text, base_dir=tmp_path), 1).domain
        paths = (str(tmp_path / "a.dmesh"), str(tmp_path / "b.dmesh"))
        config = ExperimentConfig("custom", mesh_files=paths, dirichlet=((0, 0, 0.5), (1, 5, -1.0)))
        built = build_scenario(config, 1).domain
        assert built.dirichlet == parsed.dirichlet == [(0, 0, 0.5), (1, 5, -1.0)]
        for mine, theirs in zip(built.subdomains, parsed.subdomains, strict=True):
            np.testing.assert_array_equal(mine.vertices, theirs.vertices)
            np.testing.assert_array_equal(mine.simplices, theirs.simplices)

    def test_custom_requires_readable_meshes(self, tmp_path):
        path = tmp_path / "a.dmesh"
        path.write_text(save_mesh(generate_segment(0.0, 0.7, 5)))
        cfg = ExperimentConfig(
            "custom", mesh_files=(str(path), str(tmp_path / "missing.dmesh"))
        )
        with pytest.raises(ConfigError):
            build_scenario(cfg, 1)


# Every built-in scenario with a closed form, each key it reads set away from
# its default, at two small resolutions.
FENCE = [
    ("seg1d_poisson", (10, 20), {"f": 3.0, "dirichlet_left": 0.25, "dirichlet_right": -0.75}),
    ("seg1d_bilaplace", (10, 20), {"f": 12.0}),
    ("annulus2d_laplace", (1, 2), {"dirichlet_inner": 0.5, "dirichlet_outer": -1.5}),
    ("annulus2d_poisson", (1, 2), {"f": 2.0}),
    ("duplicated_mesh", (10, 20), {"f": 3.0, "dirichlet_left": 0.25, "dirichlet_right": -0.75}),
]


@pytest.mark.parametrize("scenario, resolutions, keys", FENCE, ids=[c[0] for c in FENCE])
class TestScenarioFence:
    def test_reference_matches_pins(self, scenario, resolutions, keys):
        cfg = ExperimentConfig(scenario, resolutions=resolutions, **keys)
        for resolution in resolutions:
            sc = build_scenario(cfg, resolution)
            assert sc.f == keys.get("f", sc.f)
            pins = sc.domain.dirichlet
            assert pins
            pts = np.array([sc.domain.subdomains[s].vertices[v] for s, v, _ in pins])
            np.testing.assert_allclose(
                sc.reference(pts), [val for *_, val in pins], rtol=0, atol=1e-12
            )
            for name, value in keys.items():
                if name != "f":
                    assert value in [val for *_, val in pins]
            # A bi-Laplace reference is simply supported: its Laplacian, by a
            # central difference, is 0 wherever u is pinned.
            if sc.kind == "bilaplace":
                for x in pts[:, 0]:
                    u = sc.reference(x + np.array([[-1e-4], [0.0], [1e-4]]))
                    assert (u[0] - 2 * u[1] + u[2]) / 1e-8 == pytest.approx(0.0, abs=1e-6)

    def test_convergence_rows_ok(self, scenario, resolutions, keys):
        rows = run_convergence(ExperimentConfig(scenario, resolutions=resolutions, **keys))
        assert [r["solve_status"] for r in rows] == ["ok", "ok"]
        assert all(np.isfinite(r["error_linf"]) for r in rows)


def test_readme_scenario_table_matches_harness():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| scenario | default `f` |", 1)[1].splitlines()[2:]
    rows = {}
    for line in table:
        if not line.startswith("|"):
            break
        name, *cells = [c.strip() for c in line.strip("|").split("|")]
        rows[name.strip("`")] = cells
    assert set(rows) == set(harness._SCENARIOS)
    for name, (f, coupling, quadrature, resolutions, keys) in rows.items():
        spec = harness._SCENARIOS[name]
        cfg = ExperimentConfig(name, mesh_files=("a", "b") if name == "custom" else ())
        assert float(f) == spec.f
        assert coupling == "`%s`" % cfg.coupling
        assert quadrature == "`%s`" % cfg.quadrature.scheme
        assert tuple(int(n) for n in resolutions.split(",")) == cfg.resolutions
        assert tuple(re.findall(r"`(\w+)`", keys)) == spec.keys


def test_readme_coupling_comment_lists_the_modes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    first, *rest = readme.split("\ncoupling = ", 1)[1].splitlines()
    comment = [first.split("#", 1)[1]]
    for line in rest:
        if not line.lstrip().startswith("#"):
            break
        comment.append(line.split("#", 1)[1])
    poisson, bilaplace = " ".join(comment).split("for seg1d_bilaplace:")
    assert re.findall(r"\w+", poisson) == list(solver.COUPLING_MODES)
    assert re.findall(r"\w+", bilaplace) == list(solver.BILAPLACE_COUPLINGS)


class TestMaxCircumradius:
    def test_uniform_segment(self):
        mesh = generate_segment(0.0, 1.0, 11)
        assert max_circumradius(mesh) == pytest.approx(0.05)

    def test_right_triangle(self):
        verts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        mesh = SimplicialMesh(2, verts, np.array([[0, 1, 2]]))
        assert max_circumradius(mesh) == pytest.approx(2.5)

    def test_regular_tetrahedron(self):
        verts = np.array(
            [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
        )
        mesh = SimplicialMesh(3, verts, np.array([[0, 1, 2, 3]]))
        # edge a = 2*sqrt(2); R = a * sqrt(3/8) = sqrt(3)
        assert max_circumradius(mesh) == pytest.approx(math.sqrt(3.0))


class TestRunConvergence:
    def test_row_shape_and_monotone_errors(self):
        cfg = ExperimentConfig("seg1d_poisson", resolutions=(10, 20, 40))
        rows = run_convergence(cfg)
        assert [r["n_total"] for r in rows] == [20, 40, 80]
        assert rows[0]["observed_order"] is None
        assert all(r["solve_status"] == "ok" for r in rows)
        assert rows[2]["error_linf"] < rows[0]["error_linf"]
        assert all(r["constraint_rows"] == 2 for r in rows)

    def test_zero_previous_error_leaves_order_blank(self, monkeypatch):
        # log(0 / e) is undefined: an exact solve at one resolution must not
        # crash the sweep when the next resolution's error is positive.
        errors = iter([0.0, 1e-3])
        monkeypatch.setattr(harness, "_linf_error", lambda scenario, report: next(errors))
        rows = run_convergence(ExperimentConfig("seg1d_poisson", resolutions=(20, 40)))
        assert [r["error_linf"] for r in rows] == [0.0, 1e-3]
        assert [r["observed_order"] for r in rows] == [None, None]
        assert convergence_csv(rows).splitlines()[2].split(",")[3] == ""

    def test_custom_has_no_reference(self, tmp_path):
        for name, (a, b) in {"a": (0.0, 0.7), "b": (0.3, 1.0)}.items():
            (tmp_path / (name + ".dmesh")).write_text(
                save_mesh(generate_segment(a, b, 6))
            )
        cfg = parse_config(
            "scenario = custom\nmesh_files = a.dmesh,b.dmesh\nresolutions = 1,2\n",
            base_dir=tmp_path,
        )
        with pytest.raises(ConfigError):
            run_convergence(cfg)

    def test_csv_is_bit_reproducible(self):
        cfg = ExperimentConfig("seg1d_poisson", resolutions=(10, 20))
        one = convergence_csv(run_convergence(cfg))
        two = convergence_csv(run_convergence(cfg))
        assert one == two
        assert one.splitlines()[0] == CONVERGENCE_HEADER
        assert one.splitlines()[0] == (
            "h,n_total,error_linf,observed_order,constraint_rows,solve_status"
        )


class TestLockingProbe:
    def test_locked_configuration(self):
        cfg = ExperimentConfig(
            "seg1d_poisson", coupling="all_vertices", resolutions=(10, 20)
        )
        reports = locking_probe(cfg)
        assert len(reports) == 2
        for rep in reports:
            assert rep.linear_fit_residual <= 1e-8
            assert len(rep.jumps) == 2

    def test_jump_positions_are_overlap_boundaries(self):
        cfg = ExperimentConfig("seg1d_poisson", resolutions=(10, 20))
        rep = locking_probe(cfg)[0]
        positions = sorted(pos for _, _, pos, _ in rep.jumps)
        np.testing.assert_allclose(positions, [1 / 3, 2 / 3], atol=1e-12)

    def test_probe_csv_shape(self):
        cfg = ExperimentConfig("seg1d_poisson", resolutions=(10, 20))
        text = probe_csv(locking_probe(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == "h,n_total,linear_fit_residual,max_derivative_jump"
        assert len(lines) == 3


class TestPenaltySweep:
    def test_error_drops_with_large_weight(self):
        cfg = ExperimentConfig(
            "seg1d_poisson",
            resolutions=(10, 20),
            penalty_weights=(1e-3, 1e3),
        )
        rows = run_penalty_sweep(cfg)
        assert [w for w, _ in rows] == [1e-3, 1e3]
        assert rows[1][1] < rows[0][1]
        text = penalty_csv(rows)
        assert text.splitlines()[0] == "omega,error_linf"

    def test_requires_weights(self):
        with pytest.raises(ConfigError):
            run_penalty_sweep(ExperimentConfig("seg1d_poisson", resolutions=(10, 20)))


class TestOtherRunners:
    def test_run_modes_count(self):
        cfg = ExperimentConfig("seg1d_poisson", resolutions=(10, 20), num_modes=5)
        values = run_modes(cfg)
        assert len(values) == 5
        assert values == sorted(values)

    def test_run_constraints_mode(self):
        cfg = ExperimentConfig("seg1d_poisson", resolutions=(10, 20))
        cs = run_constraints(cfg)
        assert len(cs) == 2
        with pytest.raises(ConfigError):
            run_constraints(
                ExperimentConfig("seg1d_poisson", coupling="none", resolutions=(10, 20))
            )

    def test_solution_csv_layout(self):
        cfg = ExperimentConfig("seg1d_poisson", resolutions=(5, 10))
        domain, report = run_solve(cfg)
        lines = solution_csv(domain, report).strip().split("\n")
        assert lines[0] == "subdomain,vertex,x,u"
        assert len(lines) == 1 + domain.total_vertices


class TestCli:
    def test_converge_writes_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "scenario = seg1d_poisson\nresolutions = 10,20\noutput = %s\n" % out
        )
        assert main(["converge", str(cfg)]) == 0
        assert out.read_text().splitlines()[0] == CONVERGENCE_HEADER

    def test_penalty_sidecar(self, tmp_path):
        out = tmp_path / "table.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "scenario = seg1d_poisson\nresolutions = 10,20\n"
            "penalty_weights = 0.1,10\noutput = %s\n" % out
        )
        assert main(["converge", str(cfg)]) == 0
        sidecar = tmp_path / "table.csv.penalty.csv"
        assert sidecar.read_text().splitlines()[0] == "omega,error_linf"

    def test_relative_output_lands_next_to_config(self, tmp_path, monkeypatch):
        (tmp_path / "cfgdir").mkdir()
        (tmp_path / "elsewhere").mkdir()
        (tmp_path / "cfgdir" / "o.cfg").write_text(
            "scenario = seg1d_poisson\nresolutions = 10,20\noutput = out.csv\n"
        )
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert main(["converge", "../cfgdir/o.cfg"]) == 0
        assert (tmp_path / "cfgdir" / "out.csv").read_text().startswith(CONVERGENCE_HEADER)
        assert list((tmp_path / "elsewhere").iterdir()) == []

    @pytest.mark.parametrize("pins", ["0:0:1,0:0:2", "0:0:1,0:0:1"])
    def test_vertex_pinned_twice_is_config_error(self, tmp_path, capsys, pins):
        data = Path(__file__).parent / "data"
        out = tmp_path / "u.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "scenario = custom\nmesh_files = %s,%s\ndirichlet = %s\noutput = %s\n"
            % (data / "box_a.dmesh", data / "box_b.dmesh", pins, out)
        )
        assert main(["solve", str(cfg)]) == 1
        assert "pinned twice" in capsys.readouterr().err
        assert not out.exists()

    def test_probe_solve_modes_constraints(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario = seg1d_poisson\nresolutions = 10,20\n")
        for command, header in [
            ("probe", "h,n_total,linear_fit_residual,max_derivative_jump"),
            ("modes", "mode,eigenvalue"),
            ("constraints", "target_subdomain,target_vertex"),
            ("solve", "subdomain,vertex,x,u"),
        ]:
            assert main([command, str(cfg)]) == 0
            assert capsys.readouterr().out.startswith(header)

    def test_penalty_on_bilaplace_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "scenario = seg1d_bilaplace\nresolutions = 10,20\n"
            "penalty_weights = 0.1,10\noutput = %s\n" % out
        )
        assert main(["converge", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario = warp_drive\n")
        assert main(["converge", str(cfg)]) == 1
        assert main(["converge", str(tmp_path / "absent.cfg")]) == 1

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"scenario = seg1d_poisson\n# \xff\xfe\n")
        assert main(["converge", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config") and str(cfg) in err

    def test_non_utf8_mesh_file_is_config_error(self, tmp_path, capsys):
        (tmp_path / "a.dmesh").write_bytes(b"DIM 1\n\xff\n")
        (tmp_path / "b.dmesh").write_text(save_mesh(generate_segment(0.0, 1.0, 3)))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario = custom\nmesh_files = a.dmesh,b.dmesh\nresolutions = 1,2\n")
        assert main(["solve", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read mesh") and "a.dmesh" in err

    def test_output_in_missing_directory_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "absent" / "table.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario = seg1d_poisson\nresolutions = 10,20\noutput = %s\n" % out)
        assert main(["converge", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output") and str(out) in err

    def test_non_finite_input_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario = seg1d_poisson\nresolutions = 10,20\nf = nan\n")
        assert main(["converge", str(cfg)]) == 1
        (tmp_path / "a.dmesh").write_text("DIM 1\nVERTICES 2\n0\nnan\nSIMPLICES 1\n0 1\n")
        (tmp_path / "b.dmesh").write_text(save_mesh(generate_segment(0.0, 1.0, 3)))
        cfg.write_text("scenario = custom\nmesh_files = a.dmesh,b.dmesh\nresolutions = 1,2\n")
        assert main(["solve", str(cfg)]) == 1

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        # pure-Neumann custom domain with a constant load: singular system
        for name, (a, b) in {"a": (0.0, 0.7), "b": (0.3, 1.0)}.items():
            (tmp_path / (name + ".dmesh")).write_text(
                save_mesh(generate_segment(a, b, 6))
            )
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario = custom\nmesh_files = a.dmesh,b.dmesh\nresolutions = 1,2\n")
        assert main(["solve", str(cfg)]) == 2

    def test_unconverged_substitution_cg_exit_code(self, tmp_path, capsys, monkeypatch):
        # One pin per annulus, boundary-only rows: the substitution path.
        (tmp_path / "a.dmesh").write_text(save_mesh(generate_annulus(1.0, 1.6, 6, 9)))
        (tmp_path / "b.dmesh").write_text(save_mesh(generate_annulus(1.4, 2.0, 6, 9, 0.1)))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "scenario = custom\nmesh_files = a.dmesh,b.dmesh\nresolutions = 1,2\n"
            "dirichlet = 0:0:0.0,1:54:0.0\n"
        )
        assert main(["solve", str(cfg)]) == 0
        monkeypatch.setattr(solver, "CG_MAX_ITERATIONS", 1)
        assert main(["solve", str(cfg)]) == 2
        assert "substitution_cg did not converge in 1 iterations" in capsys.readouterr().err

    def test_converge_records_failed_resolutions(self, tmp_path, capsys, monkeypatch):
        # substitution_cg takes 18, 38 and 78 iterations at these resolutions.
        out = tmp_path / "table.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario = seg1d_poisson\nresolutions = 20,40,80\noutput = %s\n" % out)
        monkeypatch.setattr(solver, "CG_MAX_ITERATIONS", 25)
        assert main(["converge", str(cfg)]) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        assert header == CONVERGENCE_HEADER.split(",")
        assert len(rows) == 3
        assert rows[0][-1] == "ok" and float(rows[0][2]) > 0
        for row in rows[1:]:
            assert row[2:] == ["", "", "0", "failed: substitution_cg did not converge in 25 iterations"]
        monkeypatch.setattr(solver, "CG_MAX_ITERATIONS", 1)
        assert main(["converge", str(cfg)]) == 2
        assert "solver failure: every resolution failed" in capsys.readouterr().err

    def test_too_many_modes_exit_code(self, tmp_path, capsys):
        # 12 vertices and 2 boundary-only rows leave 10 degrees of freedom.
        for name, (a, b) in {"a": (0.0, 0.7), "b": (0.3, 1.0)}.items():
            (tmp_path / (name + ".dmesh")).write_text(save_mesh(generate_segment(a, b, 6)))
        cfg = tmp_path / "exp.cfg"
        config = "scenario = custom\nmesh_files = a.dmesh,b.dmesh\nresolutions = 1,2\n"
        cfg.write_text(config + "num_modes = 9\n")
        assert main(["modes", str(cfg)]) == 0
        cfg.write_text(config + "num_modes = 10\n")
        assert main(["modes", str(cfg)]) == 2


class TestCliExitCodes:
    @staticmethod
    def two_segments(tmp_path, extra):
        # 12 vertices and 2 boundary-only rows leave 10 degrees of freedom.
        for name, (a, b) in {"a": (0.0, 0.7), "b": (0.3, 1.0)}.items():
            (tmp_path / (name + ".dmesh")).write_text(save_mesh(generate_segment(a, b, 6)))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario = custom\nmesh_files = a.dmesh,b.dmesh\nresolutions = 1,2\n" + extra)
        return cfg

    @pytest.mark.parametrize("num_modes", [10, 11])
    def test_modes_beyond_free_dimension(self, tmp_path, capsys, num_modes):
        cfg = self.two_segments(tmp_path, "num_modes = %d\n" % num_modes)
        assert main(["modes", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver failure:")

    def test_converge_writes_its_table_before_every_resolution_failed(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario = seg1d_poisson\nresolutions = 20,40,80\n")
        monkeypatch.setattr(solver, "CG_MAX_ITERATIONS", 1)
        assert main(["converge", str(cfg)]) == 2
        captured = capsys.readouterr()
        header, *rows = captured.out.splitlines()
        assert header == CONVERGENCE_HEADER and len(rows) == 3
        assert all(row.endswith("failed: substitution_cg did not converge in 1 iterations")
                   for row in rows)
        assert captured.err == "solver failure: every resolution failed\n"

    @pytest.mark.parametrize(
        "keys", ["samples_per_element = 0", "samples_per_element = -3", "seed = -1"]
    )
    def test_bad_monte_carlo_parameters_are_config_errors(self, tmp_path, capsys, keys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario = seg1d_poisson\nresolutions = 10,20\n"
                       "quadrature = monte_carlo\n%s\n" % keys)
        assert main(["converge", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: monte_carlo needs samples_per_element >= 1 and seed >= 0\n"
        )

    def test_probe_without_overlap_is_a_config_error(self, tmp_path, capsys):
        for name, (a, b) in {"a": (0.0, 0.4), "b": (0.6, 1.0)}.items():
            (tmp_path / (name + ".dmesh")).write_text(save_mesh(generate_segment(a, b, 6)))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario = custom\nmesh_files = a.dmesh,b.dmesh\nresolutions = 1,2\n"
                       "dirichlet = 0:0:0.0,1:5:0.0\n")
        assert main(["probe", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: scenario has no overlap vertices to probe\n"

    def test_converge_prints_the_penalty_table_after_its_own(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario = seg1d_poisson\nresolutions = 10,20\npenalty_weights = 0.1,10\n")
        assert main(["converge", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CONVERGENCE_HEADER and len(lines) == 6
        assert lines[3] == "omega,error_linf"
        assert [float(line.split(",")[0]) for line in lines[4:]] == [0.1, 10.0]
