"""Experiment harness: declarative configs, convergence sweeps, probes, CSV output."""

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .fem import QuadratureSpec, assemble_global
from .geometry import locate_points, other_coverage_counts
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
    "run_constraints",
    "run_solve",
    "solution_csv",
    "CONVERGENCE_HEADER",
]

CONVERGENCE_HEADER = "h,n_total,error_linf,observed_order,constraint_rows,solve_status"

# Default (quadrature, resolutions). Corner sampling integrates 1/coverage
# exactly when the overlap boundary bisects an element, as in the segment
# scenarios; the annulus scenarios prefer the cheaper single-point rule. The
# annulus resolution m scales the ring and sector counts linearly.
_SEGMENT = (QuadratureSpec.corner_average(), (20, 40, 80, 160))
_ANNULUS = (QuadratureSpec.barycenter(), (1, 2, 4, 8))

# Per equation kind: the default coupling and the couplings it accepts.
_COUPLINGS = {
    "poisson": ("boundary_only", COUPLING_MODES),
    "bilaplace": ("high_order", BILAPLACE_COUPLINGS),
}

_LN2 = math.log(2.0)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment (scenario, discretization, output).

    ``resolutions`` is strictly increasing with at least two entries: vertex
    counts per mesh for the 1D scenarios, the refinement multiplier for the
    annulus scenarios. PDE parameters default per scenario when None.
    Dirichlet data or mesh files that the scenario does not read are rejected.
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
    dirichlet: tuple = ()
    mesh_files: tuple = ()
    penalty_weights: tuple = ()
    num_modes: int = 10
    output: str = None

    def __post_init__(self):
        spec = _SCENARIOS.get(self.scenario)
        if spec is None:
            raise ConfigError("unknown scenario %r" % (self.scenario,))
        default_coupling, allowed = _COUPLINGS[spec.kind]
        if self.coupling is None:
            self.coupling = default_coupling
        if self.coupling not in allowed:
            raise ConfigError(
                "coupling %r is not valid for scenario %s"
                % (self.coupling, self.scenario)
            )
        if self.quadrature is None:
            self.quadrature = spec.defaults[0]
        if self.resolutions is None:
            self.resolutions = spec.defaults[1]
        self.resolutions = tuple(int(n) for n in self.resolutions)
        if len(self.resolutions) < 2:
            raise ConfigError("resolution list needs at least two entries")
        if any(b <= a for a, b in zip(self.resolutions, self.resolutions[1:])):
            raise ConfigError("resolution list must be strictly increasing")
        for key in _SCENARIO_KEYS:
            if key not in spec.keys and getattr(self, key) not in (None, ()):
                raise ConfigError("scenario %s does not read %s" % (self.scenario, key))
        if "mesh_files" in spec.keys and len(self.mesh_files) < 2:
            raise ConfigError("%s scenario needs at least two mesh files" % self.scenario)
        if self.penalty_weights and spec.kind != "poisson":
            raise ConfigError("penalty_weights needs a Poisson scenario")
        if any(w <= 0 for w in self.penalty_weights):
            raise ConfigError("penalty_weights must be positive")
        if self.num_modes < 1:
            raise ConfigError("num_modes must be positive")


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("expected a finite number, got %r" % raw)
    return value


def _triple(raw):
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError("expected subdomain:vertex:value triples, got %r" % raw)
    return int(parts[0]), int(parts[1]), _finite(parts[2])


def _listed(parse):
    return lambda raw: tuple(parse(item.strip()) for item in raw.split(","))


# Config key -> parser. Each key names an ExperimentConfig field, except the
# quadrature sub-keys, which name the QuadratureSpec fields of their scheme.
_KEYS = {
    "scenario": str,
    "coupling": str,
    "quadrature": str,
    "n_points": int,
    "samples_per_element": int,
    "seed": int,
    "resolutions": _listed(int),
    "f": _finite,
    "dirichlet_left": _finite,
    "dirichlet_right": _finite,
    "dirichlet_inner": _finite,
    "dirichlet_outer": _finite,
    "dirichlet": _listed(_triple),
    "mesh_files": _listed(str),
    "penalty_weights": _listed(_finite),
    "num_modes": int,
    "output": str,
}


def parse_config(text, base_dir=None):
    """Parse ``key = value`` experiment text into an :class:`ExperimentConfig`.

    Blank lines and ``#`` comments are ignored. List values are
    comma-separated. Relative ``mesh_files`` and ``output`` paths resolve against ``base_dir``.
    """
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value" % lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        if key in values:
            raise ConfigError("line %d: duplicate key %r" % (lineno, key))
        try:
            values[key] = _KEYS[key](value.strip())
        except ValueError as exc:
            raise ConfigError("line %d: %s: %s" % (lineno, key, exc)) from None
    if "scenario" not in values:
        raise ConfigError("missing required key: scenario")
    if "quadrature" in values:
        keys = QuadratureSpec.SCHEME_FIELDS.get(values["quadrature"], ())
        try:
            values["quadrature"] = QuadratureSpec(
                values["quadrature"], **{k: values.pop(k) for k in keys if k in values}
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    base = Path(base_dir or ".")
    if "mesh_files" in values:
        values["mesh_files"] = tuple(str(base / p) for p in values["mesh_files"])
    if "output" in values:
        values["output"] = str(base / values["output"])
    names = {field.name for field in fields(ExperimentConfig)}
    for key in values:
        if key not in names:
            raise ConfigError("%s requires the matching quadrature scheme" % key)
    return ExperimentConfig(**values)


def load_config(path):
    """Read and parse a config file; relative mesh and output paths resolve next to it."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from None
    return parse_config(text, base_dir=path.parent)


@dataclass
class Scenario:
    """One concrete experiment instance at a fixed resolution."""

    domain: DeconstructedDomain
    kind: str  # "poisson" or "bilaplace"
    f: float
    reference: object = None  # maps (n, d) vertex coordinates to exact values


def _pinned_pair(a, b, k, u_first, u_last):
    """Meshes a and b, the first k vertices of a pinned to u_first, the last k of b to u_last."""
    nb = b.num_vertices
    dirichlet = [(0, v, u_first) for v in range(k)]
    dirichlet += [(1, v, u_last) for v in range(nb - k, nb)]
    return DeconstructedDomain([a, b], dirichlet)


def _segment_pair(n, u_left, u_right):
    a = generate_segment(0.0, 2.0 / 3.0, n)
    b = generate_segment(1.0 / 3.0, 1.0, n)
    return _pinned_pair(a, b, 1, u_left, u_right)


def _parabola(f, uL, uR):
    """Reference solution of -u'' = f on [0, 1] with u(0) = uL, u(1) = uR."""

    def reference(pts):
        s = pts[:, 0]
        return f * s * (1.0 - s) / 2.0 + uL + (uR - uL) * s

    return reference


def _seg1d_poisson(config, n, f):
    uL = config.dirichlet_left or 0.0
    uR = config.dirichlet_right or 0.0
    return _segment_pair(n, uL, uR), _parabola(f, uL, uR)


def _seg1d_bilaplace(config, n, f):
    def reference(pts):
        s = pts[:, 0]
        return (f / 24.0) * (s**4 - 2.0 * s**3 + s)

    return _segment_pair(n, 0.0, 0.0), reference


def _annulus2d_laplace(config, m, f):
    if f != 0.0:
        raise ConfigError("annulus2d_laplace requires f = 0")
    uin = 0.0 if config.dirichlet_inner is None else config.dirichlet_inner
    uout = 1.0 if config.dirichlet_outer is None else config.dirichlet_outer
    n_t = 74 * m
    a = generate_annulus(1.0, 32.0 / 17.0, 5 * m, n_t)
    b = generate_annulus(26.0 / 17.0, 2.0, 4 * m, n_t)

    def reference(pts):
        r = np.linalg.norm(pts, axis=1)
        return uin + (uout - uin) * np.log(r) / _LN2

    return _pinned_pair(a, b, n_t, uin, uout), reference


def _annulus2d_poisson(config, m, f):
    n_t = 72 * m
    a = generate_annulus(1.0, 13.0 / 8.0, 5 * m, n_t)
    b = generate_annulus(5.0 / 4.0, 2.0, 2 * (3 * m + 1), n_t, math.pi / n_t)

    def reference(pts):
        r = np.linalg.norm(pts, axis=1)
        return -f * (r**2 - 1.0) / 4.0 + (3.0 * f / (4.0 * _LN2)) * np.log(r)

    return _pinned_pair(a, b, n_t, 0.0, 0.0), reference


def _duplicated_mesh(config, n, f):
    uL = config.dirichlet_left or 0.0
    uR = config.dirichlet_right or 0.0
    meshes = [generate_segment(0.0, 1.0, n) for _ in range(2)]
    dirichlet = [(s, v, val) for s in (0, 1) for v, val in ((0, uL), (n - 1, uR))]
    return DeconstructedDomain(meshes, dirichlet), _parabola(f, uL, uR)


def _custom(config, resolution, f):
    """User meshes, no closed-form reference."""
    meshes = []
    for path in config.mesh_files:
        try:
            meshes.append(load_mesh(Path(path).read_text()))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("cannot read mesh %s: %s" % (path, exc)) from None
        except MeshError as exc:
            raise ConfigError("bad mesh %s: %s" % (path, exc)) from None
    return DeconstructedDomain(meshes, list(config.dirichlet)), None


# A built-in scenario: build(config, resolution, f) returns the domain and the
# reference (None without a closed form); f is the default load, kind
# "poisson" or "bilaplace", defaults _SEGMENT or _ANNULUS, and keys the
# scenario keys that build reads.
_ScenarioSpec = namedtuple("_ScenarioSpec", "build f kind defaults keys", defaults=((),))
_ENDS = ("dirichlet_left", "dirichlet_right")
_RINGS = ("dirichlet_inner", "dirichlet_outer")
_SCENARIOS = {
    "seg1d_poisson": _ScenarioSpec(_seg1d_poisson, 1.0, "poisson", _SEGMENT, _ENDS),
    "seg1d_bilaplace": _ScenarioSpec(_seg1d_bilaplace, 24.0, "bilaplace", _SEGMENT),
    "annulus2d_laplace": _ScenarioSpec(_annulus2d_laplace, 0.0, "poisson", _ANNULUS, _RINGS),
    "annulus2d_poisson": _ScenarioSpec(_annulus2d_poisson, -1.0, "poisson", _ANNULUS),
    "duplicated_mesh": _ScenarioSpec(_duplicated_mesh, 1.0, "poisson", _SEGMENT, _ENDS),
    "custom": _ScenarioSpec(_custom, 1.0, "poisson", _SEGMENT, ("dirichlet", "mesh_files")),
}
_SCENARIO_KEYS = tuple(dict.fromkeys(k for spec in _SCENARIOS.values() for k in spec.keys))


def build_scenario(config, resolution):
    """Materialize ``config.scenario`` at one resolution as domain + reference."""
    spec = _SCENARIOS[config.scenario]
    f = spec.f if config.f is None else config.f
    domain, reference = spec.build(config, resolution, f)
    return Scenario(domain, spec.kind, f, reference)


def _with_reference(config, resolution):
    scenario = build_scenario(config, resolution)
    if scenario.reference is None:
        raise ConfigError("scenario %s has no closed-form reference" % config.scenario)
    return scenario


def max_circumradius(mesh):
    """Largest element circumradius; the mesh size h reported in sweeps."""
    # The circumcenter c, relative to corner 0, solves e_j . c = |e_j|^2 / 2
    # for each edge e_j; the edge rows are the transposed edge matrix.
    rhs = 0.5 * (mesh.edges() ** 2).sum(axis=2)
    centers = np.einsum("tji,tj->ti", mesh.edge_inverses, rhs)
    return float(np.linalg.norm(centers, axis=1).max())


def _solve_scenario(scenario, config):
    if scenario.kind == "bilaplace":
        return solve_bilaplace(
            scenario.domain, config.quadrature, coupling=config.coupling, load=scenario.f
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
    log(e_prev / e_cur) / log(h_prev / h_cur) when both errors are positive
    (else None); solver failures are recorded in ``solve_status`` and the
    sweep continues.
    """
    rows = []
    prev = None
    for resolution in config.resolutions:
        scenario = _with_reference(config, resolution)
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
            row["constraint_rows"] = len(report.constraints or ())
            row["error_linf"] = _linf_error(scenario, report)
            if prev is not None and prev["error_linf"] > 0 and row["error_linf"] > 0:
                row["observed_order"] = math.log(
                    prev["error_linf"] / row["error_linf"]
                ) / math.log(prev["h"] / h)
            prev = row
        rows.append(row)
    return rows


def _fmt(value, spec="%.17g"):
    return "" if value is None else spec % value


def _csv(header, rows):
    """CSV text: the header line, then one line per row of field strings."""
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


def convergence_csv(rows):
    """Render :func:`run_convergence` rows as deterministic CSV text."""
    return _csv(CONVERGENCE_HEADER, (
        [_fmt(r["h"]), str(r["n_total"]), _fmt(r["error_linf"]),
         _fmt(r["observed_order"], "%.6g"), str(r["constraint_rows"]),
         r["solve_status"].replace(",", ";")]
        for r in rows
    ))


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


def _slope(mesh, values, simplex):
    i0, i1 = mesh.simplices[simplex]
    return float(
        (values[i1] - values[i0]) / (mesh.vertices[i1, 0] - mesh.vertices[i0, 0])
    )


def _derivative_jumps(domain, report):
    """1D slope mismatch at each subdomain-boundary vertex inside another mesh."""
    jumps = []
    for a, mesh_a in enumerate(domain.subdomains):
        ua = report.subdomain_values(a)
        verts = sorted(domain.boundary_vertex_sets[a])
        points = mesh_a.vertices[verts]
        others = [b for b in range(len(domain.subdomains)) if b != a]
        found = [locate_points(domain.locators[b], points) for b in others]
        for i, v in enumerate(verts):
            incident = np.nonzero((mesh_a.simplices == v).any(axis=1))[0]
            own = _slope(mesh_a, ua, int(incident[0]))
            for b, simplices in zip(others, found):
                if simplices[i] < 0:
                    continue
                other = _slope(domain.subdomains[b], report.subdomain_values(b), int(simplices[i]))
                jumps.append((a, int(v), float(points[i, 0]), abs(own - other)))
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
    return _csv("h,n_total,linear_fit_residual,max_derivative_jump", (
        [_fmt(r.h), str(r.n_total), _fmt(r.linear_fit_residual),
         _fmt(max((j for *_, j in r.jumps), default=None))]
        for r in reports
    ))


def run_penalty_sweep(config):
    """Error versus penalty weight at the finest resolution.

    Replaces hard coupling rows C with a quadratic penalty: minimize the
    Dirichlet energy plus omega * ||C u||^2, i.e. solve
    (L + 2 omega C^T C) u = M f with Dirichlet values substituted. Returns
    (omega, error_linf) pairs in config order.
    """
    if not config.penalty_weights:
        raise ConfigError("penalty_weights is empty")
    scenario = _with_reference(config, config.resolutions[-1])
    domain = scenario.domain
    L, M = assemble_global(domain, config.quadrature)
    _, C = coupling_for_mode(domain, config.coupling)
    b = M @ np.full(domain.total_vertices, scenario.f)
    rows = []
    for omega in config.penalty_weights:
        Q = L + 2.0 * float(omega) * (C.T @ C)
        report = solve_kkt(Q, b, fixed=domain.pins)
        rows.append((float(omega), _linf_error(scenario, report)))
    return rows


def penalty_csv(rows):
    return _csv("omega,error_linf", ((_fmt(omega), _fmt(err)) for omega, err in rows))


def run_modes(config):
    """First ``num_modes`` constrained eigenvalues at the finest resolution."""
    scenario = build_scenario(config, config.resolutions[-1])
    domain = scenario.domain
    L, M = assemble_global(domain, config.quadrature)
    _, A = coupling_for_mode(domain, config.coupling)
    pairs = constrained_modes(L, M, A, config.num_modes)
    return [val for val, _ in pairs]


def modes_csv(values):
    return _csv("mode,eigenvalue", (("%d" % i, _fmt(val)) for i, val in enumerate(values)))


def run_constraints(config):
    """Constraint set of the coarsest resolution under the config's coupling."""
    if config.coupling == "none":
        raise ConfigError("coupling mode none has no constraint set")
    scenario = build_scenario(config, config.resolutions[0])
    cs, _ = coupling_for_mode(scenario.domain, config.coupling)
    return cs


def run_solve(config):
    """Solve at the finest resolution, returning (domain, SolveReport)."""
    scenario = build_scenario(config, config.resolutions[-1])
    return scenario.domain, _solve_scenario(scenario, config)


def solution_csv(domain, report):
    """Solution dump: ``subdomain,vertex,x[,y[,z]],u`` per vertex."""
    row = "%d,%d" + ",%.17g" * (domain.dim + 1)
    lines = ["subdomain,vertex," + ",".join("xyz"[: domain.dim]) + ",u"]
    for s, mesh in enumerate(domain.subdomains):
        for v, (x, u) in enumerate(zip(mesh.vertices.tolist(), report.subdomain_values(s).tolist())):
            lines.append(row % (s, v, *x, u))
    return "\n".join(lines) + "\n"
