"""Experiment harness: declarative configs, convergence sweeps, probes, CSV output."""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fem import QuadratureSpec, assemble_global
from .geometry import locate_point, other_coverage_counts
from .mesh import (
    DeconstructedDomain,
    MeshError,
    generate_annulus,
    generate_segment,
    load_mesh,
)
from .solver import (
    BILAPLACE_COUPLINGS,
    COUPLING_MODES,
    SolverError,
    _dirichlet_fixed,
    constrained_modes,
    coupling_for_mode,
    solve_bilaplace,
    solve_kkt,
    solve_poisson,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ProbeReport",
    "parse_config",
    "load_config",
    "build_scenario",
    "max_circumradius",
    "run_convergence",
    "convergence_csv",
    "locking_probe",
    "probe_csv",
    "run_penalty_sweep",
    "penalty_csv",
    "run_modes",
    "modes_csv",
    "run_solve",
    "solution_csv",
    "CONVERGENCE_HEADER",
]

SCENARIOS = (
    "seg1d_poisson",
    "seg1d_bilaplace",
    "annulus2d_laplace",
    "annulus2d_poisson",
    "duplicated_mesh",
    "custom",
)

CONVERGENCE_HEADER = "h,n_total,error_linf,observed_order,constraint_rows,solve_status"
PROBE_HEADER = "h,n_total,linear_fit_residual,max_derivative_jump"
PENALTY_HEADER = "omega,error_linf"
MODES_HEADER = "mode,eigenvalue"

# Default resolution sweeps: vertices per segment mesh, or the annulus
# refinement multiplier m (ring/sector counts scale linearly with m).
_SEGMENT_RESOLUTIONS = (20, 40, 80, 160)
_ANNULUS_RESOLUTIONS = (1, 2, 4, 8)

_LN2 = math.log(2.0)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment (scenario, discretization, output).

    ``resolutions`` is strictly increasing with at least two entries: vertex
    counts per mesh for the 1D scenarios, the refinement multiplier for the
    annulus scenarios. PDE parameters default per scenario when None.
    """

    scenario: str
    coupling: str = None
    quadrature: QuadratureSpec = None
    resolutions: tuple = None
    f: float = None
    dirichlet_left: float = None
    dirichlet_right: float = None
    dirichlet_inner: float = None
    dirichlet_outer: float = None
    dirichlet_triples: tuple = ()
    mesh_files: tuple = ()
    penalty_weights: tuple = ()
    num_modes: int = 10
    output: str = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError("unknown scenario %r" % (self.scenario,))
        if self.coupling is None:
            self.coupling = (
                "high_order" if self.scenario == "seg1d_bilaplace" else "boundary_only"
            )
        allowed = (
            BILAPLACE_COUPLINGS if self.scenario == "seg1d_bilaplace" else COUPLING_MODES
        )
        if self.coupling not in allowed:
            raise ConfigError(
                "coupling %r is not valid for scenario %s"
                % (self.coupling, self.scenario)
            )
        if self.quadrature is None:
            # Corner sampling integrates 1/coverage exactly when the overlap
            # boundary bisects an element, as in the segment scenarios; the
            # annulus scenarios prefer the cheaper single-point rule.
            self.quadrature = (
                QuadratureSpec.barycenter()
                if self.scenario.startswith("annulus")
                else QuadratureSpec.corner_average()
            )
        if self.resolutions is None:
            self.resolutions = (
                _ANNULUS_RESOLUTIONS
                if self.scenario.startswith("annulus")
                else _SEGMENT_RESOLUTIONS
            )
        self.resolutions = tuple(int(n) for n in self.resolutions)
        if len(self.resolutions) < 2:
            raise ConfigError("resolution list needs at least two entries")
        if any(b <= a for a, b in zip(self.resolutions, self.resolutions[1:])):
            raise ConfigError("resolution list must be strictly increasing")
        if self.scenario == "custom" and len(self.mesh_files) < 2:
            raise ConfigError("custom scenario needs at least two mesh files")
        if self.num_modes < 1:
            raise ConfigError("num_modes must be positive")


_QUAD_SCHEMES = ("corner_average", "barycenter", "symmetric", "monte_carlo")

_CONFIG_KEYS = (
    "scenario",
    "coupling",
    "quadrature",
    "n_points",
    "samples_per_element",
    "seed",
    "resolutions",
    "f",
    "dirichlet_left",
    "dirichlet_right",
    "dirichlet_inner",
    "dirichlet_outer",
    "dirichlet",
    "mesh_files",
    "penalty_weights",
    "num_modes",
    "output",
)


def _parse_float(key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError("%s: expected a number, got %r" % (key, raw)) from None
    if not math.isfinite(value):
        raise ConfigError("%s: expected a finite number, got %r" % (key, raw))
    return value


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError("%s: expected an integer, got %r" % (key, raw)) from None


def _parse_triples(raw):
    out = []
    for item in raw.split(","):
        parts = item.split(":")
        if len(parts) != 3:
            raise ConfigError(
                "dirichlet: expected subdomain:vertex:value triples, got %r" % item
            )
        out.append(
            (_parse_int("dirichlet", parts[0]), _parse_int("dirichlet", parts[1]),
             _parse_float("dirichlet", parts[2]))
        )
    return tuple(out)


def parse_config(text, base_dir=None):
    """Parse ``key = value`` experiment text into an :class:`ExperimentConfig`.

    Blank lines and ``#`` comments are ignored. List values are
    comma-separated. ``mesh_files`` paths are resolved against ``base_dir``.
    """
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value" % lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        if key in raw:
            raise ConfigError("line %d: duplicate key %r" % (lineno, key))
        raw[key] = value
    if "scenario" not in raw:
        raise ConfigError("missing required key: scenario")

    kwargs = {"scenario": raw.pop("scenario")}
    if "coupling" in raw:
        kwargs["coupling"] = raw.pop("coupling")
    if "quadrature" in raw:
        scheme = raw.pop("quadrature")
        if scheme not in _QUAD_SCHEMES:
            raise ConfigError("unknown quadrature scheme %r" % (scheme,))
        try:
            if scheme == "symmetric":
                kwargs["quadrature"] = QuadratureSpec.symmetric(
                    _parse_int("n_points", raw.pop("n_points", "10"))
                )
            elif scheme == "monte_carlo":
                kwargs["quadrature"] = QuadratureSpec.monte_carlo(
                    _parse_int(
                        "samples_per_element", raw.pop("samples_per_element", "100")
                    ),
                    _parse_int("seed", raw.pop("seed", "0")),
                )
            else:
                kwargs["quadrature"] = QuadratureSpec(scheme)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if "resolutions" in raw:
        kwargs["resolutions"] = tuple(
            _parse_int("resolutions", v) for v in raw.pop("resolutions").split(",")
        )
    for key in ("f", "dirichlet_left", "dirichlet_right", "dirichlet_inner",
                "dirichlet_outer"):
        if key in raw:
            kwargs[key] = _parse_float(key, raw.pop(key))
    if "dirichlet" in raw:
        kwargs["dirichlet_triples"] = _parse_triples(raw.pop("dirichlet"))
    if "mesh_files" in raw:
        base = Path(base_dir) if base_dir is not None else Path(".")
        kwargs["mesh_files"] = tuple(
            str((base / p.strip())) for p in raw.pop("mesh_files").split(",")
        )
    if "penalty_weights" in raw:
        kwargs["penalty_weights"] = tuple(
            _parse_float("penalty_weights", v)
            for v in raw.pop("penalty_weights").split(",")
        )
    if "num_modes" in raw:
        kwargs["num_modes"] = _parse_int("num_modes", raw.pop("num_modes"))
    if "output" in raw:
        kwargs["output"] = raw.pop("output")
    for key in ("n_points", "samples_per_element", "seed"):
        if key in raw:
            raise ConfigError("%s requires the matching quadrature scheme" % key)
    return ExperimentConfig(**kwargs)


def load_config(path):
    """Read and parse a config file; relative mesh paths resolve next to it."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from None
    return parse_config(text, base_dir=path.parent)


@dataclass
class Scenario:
    """One concrete experiment instance at a fixed resolution."""

    domain: DeconstructedDomain
    kind: str  # "poisson" or "bilaplace"
    f: float
    reference: object = None  # maps (n, d) vertex coordinates to exact values
    z_pins: tuple = ()


def _segment_pair(n, bc_left, bc_right):
    a = generate_segment(0.0, 2.0 / 3.0, n)
    b = generate_segment(1.0 / 3.0, 1.0, n)
    dirichlet = [(0, 0, bc_left), (1, n - 1, bc_right)]
    return DeconstructedDomain([a, b], dirichlet)


def _annulus_ring(n_t, ring):
    return range(ring * n_t, (ring + 1) * n_t)


def build_scenario(config, resolution):
    """Materialize ``config.scenario`` at one resolution as domain + reference."""
    f = config.f
    if config.scenario == "seg1d_poisson":
        n = resolution
        f = 1.0 if f is None else f
        uL = config.dirichlet_left or 0.0
        uR = config.dirichlet_right or 0.0
        domain = _segment_pair(n, uL, uR)

        def reference(pts, f=f, uL=uL, uR=uR):
            s = pts[:, 0]
            return f * s * (1.0 - s) / 2.0 + uL + (uR - uL) * s

        return Scenario(domain, "poisson", f, reference)

    if config.scenario == "seg1d_bilaplace":
        n = resolution
        f = 24.0 if f is None else f
        domain = _segment_pair(n, 0.0, 0.0)
        z_pins = ((0, 0, 0.0), (1, n - 1, 0.0))

        def reference(pts, f=f):
            s = pts[:, 0]
            return (f / 24.0) * (s**4 - 2.0 * s**3 + s)

        return Scenario(domain, "bilaplace", f, reference, z_pins)

    if config.scenario == "annulus2d_laplace":
        m = resolution
        f = 0.0 if f is None else f
        if f != 0.0:
            raise ConfigError("annulus2d_laplace requires f = 0")
        uin = 0.0 if config.dirichlet_inner is None else config.dirichlet_inner
        uout = 1.0 if config.dirichlet_outer is None else config.dirichlet_outer
        n_t = 74 * m
        a = generate_annulus(1.0, 32.0 / 17.0, 5 * m, n_t)
        b = generate_annulus(26.0 / 17.0, 2.0, 4 * m, n_t)
        dirichlet = [(0, v, uin) for v in _annulus_ring(n_t, 0)]
        dirichlet += [(1, v, uout) for v in _annulus_ring(n_t, 4 * m)]
        domain = DeconstructedDomain([a, b], dirichlet)

        def reference(pts, uin=uin, uout=uout):
            r = np.linalg.norm(pts, axis=1)
            return uin + (uout - uin) * np.log(r) / _LN2

        return Scenario(domain, "poisson", f, reference)

    if config.scenario == "annulus2d_poisson":
        m = resolution
        f = -1.0 if f is None else f
        if config.dirichlet_inner not in (None, 0.0) or config.dirichlet_outer not in (
            None,
            0.0,
        ):
            raise ConfigError("annulus2d_poisson requires homogeneous Dirichlet data")
        n_t = 72 * m
        a = generate_annulus(1.0, 13.0 / 8.0, 5 * m, n_t)
        b = generate_annulus(5.0 / 4.0, 2.0, 2 * (3 * m + 1), n_t, math.pi / n_t)
        dirichlet = [(0, v, 0.0) for v in _annulus_ring(n_t, 0)]
        dirichlet += [(1, v, 0.0) for v in _annulus_ring(n_t, 2 * (3 * m + 1))]
        domain = DeconstructedDomain([a, b], dirichlet)

        def reference(pts, f=f):
            r = np.linalg.norm(pts, axis=1)
            return -f * (r**2 - 1.0) / 4.0 + (3.0 * f / (4.0 * _LN2)) * np.log(r)

        return Scenario(domain, "poisson", f, reference)

    if config.scenario == "duplicated_mesh":
        n = resolution
        f = 1.0 if f is None else f
        uL = config.dirichlet_left or 0.0
        uR = config.dirichlet_right or 0.0
        a = generate_segment(0.0, 1.0, n)
        b = generate_segment(0.0, 1.0, n)
        dirichlet = [(s, v, val) for s in (0, 1) for v, val in ((0, uL), (n - 1, uR))]
        domain = DeconstructedDomain([a, b], dirichlet)

        def reference(pts, f=f, uL=uL, uR=uR):
            s = pts[:, 0]
            return f * s * (1.0 - s) / 2.0 + uL + (uR - uL) * s

        return Scenario(domain, "poisson", f, reference)

    # custom: user meshes, no closed-form reference
    meshes = []
    for path in config.mesh_files:
        try:
            meshes.append(load_mesh(Path(path).read_text()))
        except OSError as exc:
            raise ConfigError("cannot read mesh %s: %s" % (path, exc)) from None
        except MeshError as exc:
            raise ConfigError("bad mesh %s: %s" % (path, exc)) from None
    f = 1.0 if f is None else f
    domain = DeconstructedDomain(meshes, list(config.dirichlet_triples))
    return Scenario(domain, "poisson", f, None)


def max_circumradius(mesh):
    """Largest element circumradius; the mesh size h reported in sweeps."""
    corners = mesh.vertices[mesh.simplices]
    edges = corners[:, 1:, :] - corners[:, :1, :]  # (t, d, d)
    rhs = 0.5 * (edges**2).sum(axis=2)
    try:
        # circumcenter relative to corner 0
        centers = np.linalg.solve(edges, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        raise MeshError("degenerate simplex in circumradius computation") from None
    return float(np.linalg.norm(centers, axis=1).max())


def _solve_scenario(scenario, config):
    if scenario.kind == "bilaplace":
        return solve_bilaplace(
            scenario.domain,
            config.quadrature,
            coupling=config.coupling,
            dirichlet_laplacians=scenario.z_pins,
            load=scenario.f,
        )
    return solve_poisson(scenario.domain, config.quadrature, mode=config.coupling, rhs=scenario.f)


def _linf_error(scenario, report):
    exact = scenario.reference(scenario.domain.stacked_vertices())
    return float(np.abs(report.u - exact).max())


def run_convergence(config):
    """Solve the scenario at every resolution and tabulate L-infinity errors.

    Returns one dict per resolution with keys ``h``, ``n_total``,
    ``error_linf``, ``observed_order``, ``constraint_rows`` and
    ``solve_status``. The observed order between consecutive rows is
    log(e_prev / e_cur) / log(h_prev / h_cur); solver failures are recorded
    in ``solve_status`` and the sweep continues.
    """
    if config.scenario == "custom":
        raise ConfigError("custom scenarios have no closed-form reference")
    rows = []
    prev = None
    for resolution in config.resolutions:
        scenario = build_scenario(config, resolution)
        h = max(max_circumradius(m) for m in scenario.domain.subdomains)
        row = {
            "h": h,
            "n_total": scenario.domain.total_vertices,
            "error_linf": None,
            "observed_order": None,
            "constraint_rows": 0,
            "solve_status": "ok",
        }
        try:
            report = _solve_scenario(scenario, config)
        except SolverError as exc:
            row["solve_status"] = "failed: %s" % exc
        else:
            if report.constraints is not None:
                row["constraint_rows"] = len(report.constraints.rows)
            row["error_linf"] = _linf_error(scenario, report)
            if prev is not None and row["error_linf"] > 0:
                row["observed_order"] = math.log(
                    prev["error_linf"] / row["error_linf"]
                ) / math.log(prev["h"] / h)
            prev = row
        rows.append(row)
    return rows


def _fmt(value, spec="%.17g"):
    return "" if value is None else spec % value


def convergence_csv(rows):
    """Render :func:`run_convergence` rows as deterministic CSV text."""
    lines = [CONVERGENCE_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    _fmt(r["h"]),
                    str(r["n_total"]),
                    _fmt(r["error_linf"]),
                    _fmt(r["observed_order"], "%.6g"),
                    str(r["constraint_rows"]),
                    r["solve_status"].replace(",", ";"),
                ]
            )
        )
    return "\n".join(lines) + "\n"


@dataclass
class ProbeReport:
    """Locking probe result at one resolution."""

    h: float
    n_total: int
    linear_fit_residual: float
    jumps: list  # (subdomain, vertex, position, |slope jump|) per overlap boundary vertex


def _overlap_vertex_indices(domain):
    """Global indices and coordinates of vertices covered by another subdomain."""
    idx, coords = [], []
    for a, mesh in enumerate(domain.subdomains):
        pts = mesh.vertices
        which = np.nonzero(other_coverage_counts(domain, a, pts) > 0)[0]
        idx.append(which + int(domain.offsets[a]))
        coords.append(pts[which])
    return np.concatenate(idx), np.concatenate(coords)


def _one_sided_slope(mesh, values, vertex):
    incident = np.nonzero((mesh.simplices == vertex).any(axis=1))[0]
    i0, i1 = mesh.simplices[int(incident[0])]
    return float(
        (values[i1] - values[i0]) / (mesh.vertices[i1, 0] - mesh.vertices[i0, 0])
    )


def _derivative_jumps(domain, report):
    """1D slope mismatch at each subdomain-boundary vertex inside another mesh."""
    jumps = []
    for a, mesh_a in enumerate(domain.subdomains):
        ua = report.subdomain_values(a)
        for v in sorted(domain.boundary_vertex_sets[a]):
            p = mesh_a.vertices[v]
            for b, mesh_b in enumerate(domain.subdomains):
                if b == a:
                    continue
                loc = locate_point(domain.locators[b], p)
                if loc is None:
                    continue
                ub = report.subdomain_values(b)
                i0, i1 = mesh_b.simplices[loc.simplex]
                other = float(
                    (ub[i1] - ub[i0]) / (mesh_b.vertices[i1, 0] - mesh_b.vertices[i0, 0])
                )
                own = _one_sided_slope(mesh_a, ua, v)
                jumps.append((a, int(v), float(p[0]), abs(own - other)))
    return jumps


def locking_probe(config):
    """Affine-fit residual over pooled overlap vertices, per resolution.

    Fits the best affine function (least squares over the vertex coordinates)
    to the solution restricted to overlap vertices of all subdomains and
    reports the maximum residual divided by the full solution range. For 1D
    scenarios the report also carries the first-derivative jump at each
    subdomain-boundary vertex lying inside another mesh.
    """
    reports = []
    for resolution in config.resolutions:
        scenario = build_scenario(config, resolution)
        domain = scenario.domain
        report = _solve_scenario(scenario, config)
        idx, coords = _overlap_vertex_indices(domain)
        if idx.size == 0:
            raise ConfigError("scenario has no overlap vertices to probe")
        values = report.u[idx]
        X = np.column_stack([np.ones(len(coords)), coords])
        fit, *_ = np.linalg.lstsq(X, values, rcond=None)
        resid = float(np.abs(values - X @ fit).max())
        span = float(report.u.max() - report.u.min())
        jumps = _derivative_jumps(domain, report) if domain.dim == 1 else []
        reports.append(
            ProbeReport(
                h=max(max_circumradius(m) for m in domain.subdomains),
                n_total=domain.total_vertices,
                linear_fit_residual=resid / max(span, 1e-300),
                jumps=jumps,
            )
        )
    return reports


def probe_csv(reports):
    """Render :func:`locking_probe` reports as CSV text."""
    lines = [PROBE_HEADER]
    for r in reports:
        jump = max((j for *_, j in r.jumps), default=None)
        lines.append(
            ",".join(
                [
                    _fmt(r.h),
                    str(r.n_total),
                    _fmt(r.linear_fit_residual),
                    _fmt(jump),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def run_penalty_sweep(config):
    """Error versus penalty weight at the finest resolution.

    Replaces hard coupling rows C with a quadratic penalty: minimize the
    Dirichlet energy plus omega * ||C u||^2, i.e. solve
    (L + 2 omega C^T C) u = M f with Dirichlet values substituted. Returns
    (omega, error_linf) pairs in config order.
    """
    if not config.penalty_weights:
        raise ConfigError("penalty_weights is empty")
    if config.scenario == "custom":
        raise ConfigError("custom scenarios have no closed-form reference")
    scenario = build_scenario(config, config.resolutions[-1])
    domain = scenario.domain
    L, M, _ = assemble_global(domain, config.quadrature)
    _, C = coupling_for_mode(domain, config.coupling)
    b = M @ np.full(domain.total_vertices, scenario.f)
    fixed = _dirichlet_fixed(domain)
    exact = scenario.reference(domain.stacked_vertices())
    rows = []
    for omega in config.penalty_weights:
        Q = L + 2.0 * float(omega) * (C.T @ C)
        report = solve_kkt(Q, b, fixed=fixed)
        rows.append((float(omega), float(np.abs(report.u - exact).max())))
    return rows


def penalty_csv(rows):
    lines = [PENALTY_HEADER]
    for omega, err in rows:
        lines.append("%s,%s" % (_fmt(omega), _fmt(err)))
    return "\n".join(lines) + "\n"


def run_modes(config):
    """First ``num_modes`` constrained eigenvalues at the finest resolution."""
    scenario = build_scenario(config, config.resolutions[-1])
    domain = scenario.domain
    L, M, _ = assemble_global(domain, config.quadrature)
    mode = config.coupling if config.coupling in COUPLING_MODES else "boundary_only"
    _, A = coupling_for_mode(domain, mode)
    pairs = constrained_modes(L, M, A, config.num_modes)
    return [val for val, _ in pairs]


def modes_csv(values):
    lines = [MODES_HEADER]
    for i, val in enumerate(values):
        lines.append("%d,%s" % (i, _fmt(val)))
    return "\n".join(lines) + "\n"


def run_constraints(config):
    """Constraint set of the coarsest resolution under the config's coupling."""
    scenario = build_scenario(config, config.resolutions[0])
    mode = config.coupling if config.coupling in COUPLING_MODES else "boundary_only"
    if mode == "none":
        raise ConfigError("coupling mode none has no constraint set")
    cs, _ = coupling_for_mode(scenario.domain, mode)
    return cs


def run_solve(config):
    """Solve at the finest resolution, returning (domain, SolveReport)."""
    scenario = build_scenario(config, config.resolutions[-1])
    return scenario.domain, _solve_scenario(scenario, config)


def solution_csv(domain, report):
    """Solution dump: ``subdomain,vertex,x[,y[,z]],u`` per vertex."""
    header = "subdomain,vertex," + ",".join("xyz"[: domain.dim]) + ",u"
    lines = [header]
    for s, mesh in enumerate(domain.subdomains):
        u = report.subdomain_values(s)
        for v in range(mesh.num_vertices):
            coords = ",".join("%.17g" % c for c in mesh.vertices[v])
            lines.append("%d,%d,%s,%.17g" % (s, v, coords, u[v]))
    return "\n".join(lines) + "\n"
