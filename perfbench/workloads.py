"""The benchmark's workloads: inputs drawn from a seed, CLI commands, output checks.

Each workload is a function (rng, workdir, tiny) -> list of Command. It
writes its config files (and, for the boxes, its DMESH files)
into a work directory and lists the ``overlapfem`` CLI commands to run there.
Every command carries the checks its CSV output must pass; a check compares
the output against values from ``reference.py`` and raises
:class:`CheckError` when they disagree.
"""

import math
from dataclasses import dataclass

import numpy as np

import boxmesh
import reference

CONVERGE_HEADER = "h,n_total,error_linf,observed_order,constraint_rows,solve_status"
PROBE_HEADER = "h,n_total,linear_fit_residual,max_derivative_jump"
MODES_HEADER = "mode,eigenvalue"
SOLUTION_HEADER = "subdomain,vertex,x,y,z,u"

# Acceptance thresholds (see README.md for the values measured against them).
POISSON_MIN_ORDER = 1.8  # boundary-only coupling is second order
LAPLACE_MIN_ORDER = 1.5
LOCKING_MAX_RESIDUAL = 1e-9  # all-vertices coupling locks to an affine function
ZERO_MODE_MAX = 1e-8
MODES_REL_TOL = 0.02
BOX_REL_TOL = 1e-9
# Reported orders carry 6 significant digits.
ORDER_REPORT_TOL = 1e-5

NUM_MODES = 10
BOX_CELLS = 16  # cells per unit length; a power of two keeps coordinates exact
BOX_CELLS_TINY = 4


class CheckError(Exception):
    """A CLI output that disagrees with the reference."""


@dataclass(frozen=True)
class Check:
    name: str
    verify: object  # callable(csv_text) raising CheckError


@dataclass(frozen=True)
class Command:
    verb: str  # CLI subcommand
    config: str  # config file name in the work directory
    output: str  # CSV file the config sends the output to
    checks: tuple


# ---------------------------------------------------------------------------
# CSV reading


def _table(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckError("header %r, expected %r" % (lines[:1], header))
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(rows):
        if len(row) != width:
            raise CheckError("row %d has %d fields, expected %d" % (i, len(row), width))
    return rows


def _num(field):
    try:
        return float(field)
    except ValueError:
        raise CheckError("expected a number, got %r" % field) from None


def _column(rows, i):
    return [_num(r[i]) for r in rows]


# ---------------------------------------------------------------------------
# Checks


def _converge_checks(resolutions, vertices, min_order):
    def rows_ok(text):
        rows = _table(text, CONVERGE_HEADER)
        if len(rows) != len(resolutions):
            raise CheckError("%d rows for %d resolutions" % (len(rows), len(resolutions)))
        failed = [r[5] for r in rows if r[5] != "ok"]
        if failed:
            raise CheckError("solve_status not ok: %s" % failed)

    def n_total(text):
        got = [int(_num(r[1])) for r in _table(text, CONVERGE_HEADER)]
        want = [vertices(m) for m in resolutions]
        if got != want:
            raise CheckError("n_total %s, generator formula gives %s" % (got, want))

    def order(text):
        rows = _table(text, CONVERGE_HEADER)
        h, err = _column(rows, 0), _column(rows, 2)
        if len(rows) < 2 or min(err) <= 0:
            raise CheckError("need two or more positive errors, got %s" % err)
        mine = [
            math.log(err[i - 1] / err[i]) / math.log(h[i - 1] / h[i])
            for i in range(1, len(rows))
        ]
        for got, want in zip(_column(rows[1:], 3), mine):
            if abs(got - want) > ORDER_REPORT_TOL * abs(want):
                raise CheckError("reported order %r, errors give %r" % (got, want))
        if min(mine[-2:]) < min_order:
            raise CheckError("observed orders %s below %g" % (mine[-2:], min_order))

    return (
        Check("converge.rows_ok", rows_ok),
        Check("converge.n_total", n_total),
        Check("converge.order", order),
    )


def _probe_checks(resolutions, vertices):
    def n_total(text):
        got = [int(_num(r[1])) for r in _table(text, PROBE_HEADER)]
        want = [vertices(m) for m in resolutions]
        if got != want:
            raise CheckError("n_total %s, generator formula gives %s" % (got, want))

    def locking(text):
        resid = _column(_table(text, PROBE_HEADER), 2)
        if len(resid) != len(resolutions) or max(resid) > LOCKING_MAX_RESIDUAL:
            raise CheckError("affine-fit residuals %s exceed %g" % (resid, LOCKING_MAX_RESIDUAL))

    return (Check("probe.n_total", n_total), Check("probe.locking", locking))


def _modes_checks(count):
    ref = reference.annulus_neumann_eigenvalues(count)

    def eigenvalues(text):
        rows = _table(text, MODES_HEADER)
        if [r[0] for r in rows] != [str(i) for i in range(count)]:
            raise CheckError("mode indices %s, expected 0..%d" % ([r[0] for r in rows], count - 1))
        return _column(rows, 1)

    def rows_ok(text):
        eigenvalues(text)

    def zero_mode(text):
        lam0 = eigenvalues(text)[0]
        if abs(lam0) > ZERO_MODE_MAX:
            raise CheckError("constant mode eigenvalue %r" % lam0)

    def against_bessel(text):
        lam = eigenvalues(text)
        rel = [abs(a - b) / b for a, b in zip(lam[1:], ref[1:])]
        if max(rel) > MODES_REL_TOL:
            raise CheckError("eigenvalues %s differ from Bessel roots %s" % (lam, ref))

    def sorted_ok(text):
        lam = eigenvalues(text)
        if any(b < a for a, b in zip(lam, lam[1:])):
            raise CheckError("eigenvalues not nondecreasing: %s" % lam)

    return (
        Check("modes.rows_ok", rows_ok),
        Check("modes.zero_mode", zero_mode),
        Check("modes.bessel", against_bessel),
        Check("modes.sorted", sorted_ok),
    )


def _solution_checks(boxes, pins, f, a, b):
    """``boxes``: vertex arrays per subdomain; ``pins``: {(sub, vertex): value}."""
    want = np.vstack(
        [np.column_stack([np.full(len(v), s), np.arange(len(v)), v]) for s, v in enumerate(boxes)]
    )

    def values(text):
        try:
            data = np.array(_table(text, SOLUTION_HEADER), dtype=float)
        except ValueError as exc:
            raise CheckError(str(exc)) from None
        if data.shape != (len(want), 6) or not np.array_equal(data[:, :5], want):
            raise CheckError(
                "rows do not list the %d vertices in subdomain, vertex order" % len(want)
            )
        return data

    def rows_ok(text):
        values(text)

    def dirichlet(text):
        data = values(text)
        offsets = np.cumsum([0] + [len(v) for v in boxes])
        for (s, v), val in pins.items():
            got = data[offsets[s] + v, 5]
            if got != val:
                raise CheckError("pinned vertex %d of subdomain %d has %r, not %r" % (v, s, got, val))

    def profile(text):
        data = values(text)
        u = data[:, 5]
        err = np.abs(u - reference.box_profile(data[:, 2], f, a, b)).max()
        if err > BOX_REL_TOL * np.abs(u).max():
            raise CheckError("max |u - closed form| = %.3g, max |u| = %.3g" % (err, np.abs(u).max()))

    return (
        Check("solve.rows_ok", rows_ok),
        Check("solve.dirichlet", dirichlet),
        Check("solve.profile", profile),
    )


# ---------------------------------------------------------------------------
# Inputs


def _signed(rng):
    """A load or data value away from zero, so errors and profiles stay resolvable."""
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)


def _write_config(workdir, name, output, **keys):
    lines = ["%s = %s" % (key, value) for key, value in keys.items()]
    lines.append("output = %s" % output)
    (workdir / name).write_text("\n".join(lines) + "\n")


def _resolutions(values):
    return ",".join(str(m) for m in values)


def _annulus_poisson(rng, workdir, tiny):
    f = _signed(rng)
    sweep = (1, 2) if tiny else (1, 2, 4, 8)
    probe = (1, 2) if tiny else (1, 2, 4)
    _write_config(
        workdir, "converge.cfg", "converge.csv", scenario="annulus2d_poisson",
        coupling="boundary_only", resolutions=_resolutions(sweep), f=repr(f),
    )
    _write_config(
        workdir, "probe.cfg", "probe.csv", scenario="annulus2d_poisson",
        coupling="all_vertices", resolutions=_resolutions(probe), f=repr(f),
    )
    return [
        Command("converge", "converge.cfg", "converge.csv",
                _converge_checks(sweep, reference.annulus_poisson_vertices, POISSON_MIN_ORDER)),
        Command("probe", "probe.cfg", "probe.csv",
                _probe_checks(probe, reference.annulus_poisson_vertices)),
    ]


def _annulus_laplace_redundant(rng, workdir, tiny):
    inner = rng.uniform(-1.0, 1.0)
    outer = inner + _signed(rng)
    sweep = (1, 2)  # already the smallest sweep the config accepts
    _write_config(
        workdir, "converge.cfg", "converge.csv", scenario="annulus2d_laplace",
        coupling="all_vertices", resolutions=_resolutions(sweep),
        dirichlet_inner=repr(inner), dirichlet_outer=repr(outer),
    )
    return [
        Command("converge", "converge.cfg", "converge.csv",
                _converge_checks(sweep, reference.annulus_laplace_vertices, LAPLACE_MIN_ORDER)),
    ]


def _annulus_modes(rng, workdir, tiny):
    # The eigenproblem has no data to draw; the seed leaves it unchanged.
    _write_config(
        workdir, "modes.cfg", "modes.csv", scenario="annulus2d_poisson",
        resolutions="1,2", num_modes=NUM_MODES,
    )
    return [Command("modes", "modes.cfg", "modes.csv", _modes_checks(NUM_MODES))]


def _box3d_ingest(rng, workdir, tiny):
    f = _signed(rng)
    a = rng.uniform(-1.0, 1.0)
    b = rng.uniform(-1.0, 1.0)
    n = BOX_CELLS_TINY if tiny else BOX_CELLS
    boxes = []
    for name, x0 in (("box_a.dmesh", 0.0), ("box_b.dmesh", 0.5)):
        vertices, tets = boxmesh.cube_arrays(x0, n)
        (workdir / name).write_text(boxmesh.dmesh_text(vertices, tets))
        boxes.append(vertices)
    pins = {(0, int(v)): a for v in np.nonzero(boxes[0][:, 0] == 0.0)[0]}
    pins.update({(1, int(v)): b for v in np.nonzero(boxes[1][:, 0] == 1.5)[0]})
    _write_config(
        workdir, "solve.cfg", "solve.csv", scenario="custom",
        mesh_files="box_a.dmesh,box_b.dmesh", f=repr(f),
        dirichlet=",".join("%d:%d:%r" % (s, v, val) for (s, v), val in pins.items()),
    )
    return [Command("solve", "solve.cfg", "solve.csv", _solution_checks(boxes, pins, f, a, b))]


# Why each workload: BENCHMARK.json and README.md.
WORKLOADS = {
    "annulus-poisson": _annulus_poisson,
    "annulus-laplace-redundant": _annulus_laplace_redundant,
    "annulus-modes": _annulus_modes,
    "box3d-ingest": _box3d_ingest,
}

# BLAS threads, and CPUs, per workload. The dense lstsq and eigh run twice as
# fast on two threads. The other two workloads spend their time in the
# interpreter and in single-threaded SuperLU; a second thread would only spin
# on the other CPU, which slows the interpreter thread (README.md, "BLAS
# threads"). Their wall_s is scaled by the measured interpreter speed.
THREADS = {
    "annulus-poisson": 1,
    "annulus-laplace-redundant": 2,
    "annulus-modes": 2,
    "box3d-ingest": 1,
}
