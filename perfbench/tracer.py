"""Traced CLI runs: span every public overlapfem function, then fold spans into layer metrics.

``python3 tracer.py SPANS_JSON VERB CONFIG`` runs ``overlapfem.cli.main([VERB,
CONFIG])`` in this process after rebinding every function listed in a layer
module's ``__all__`` to a timing wrapper, in every ``overlapfem`` module
namespace that holds it, so calls between modules are timed too. Spans
(name, start, end, parent) and counters stay in memory and are written to
SPANS_JSON when the command ends. ``src/`` is not modified.

:func:`layer_metrics` turns the span files of one round into the per-layer
metrics; each time is self time, a span's duration minus its child spans.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("mesh", "geometry", "fem", "coupling", "solver", "harness")

# Self time of these functions, summed, gives each timed metric.
TIMED = {
    # A mesh is either parsed from DMESH text or generated; each workload uses one.
    "mesh.construct_s": ("mesh.load_mesh", "mesh.generate_segment", "mesh.generate_annulus",
                         "mesh.generate_disk"),
    "mesh.boundary_s": ("mesh.boundary_vertices", "mesh.boundary_facets"),
    "geometry.build_trees_s": ("geometry.build_trees",),
    "geometry.locate_points_s": ("geometry.locate_points", "geometry.locate_point"),
    "fem.adjusted_volumes_s": ("fem.adjusted_volumes",),
    "fem.stiffness_s": ("fem.stiffness_matrix", "fem.lumped_mass_matrix", "fem.gradient_matrix"),
    "fem.assemble_s": ("fem.assemble_global",),
    "coupling.constraint_rows_s": ("coupling.all_vertex_constraints",
                                   "coupling.boundary_only_constraints",
                                   "coupling.thin_constraints"),
    "coupling.constraint_matrix_s": ("coupling.constraint_matrix",),
    # The constrained solve or the eigensolve; each workload runs one of them.
    "solver.linalg_s": ("solver.solve_kkt", "solver.constrained_modes"),
    "harness.build_scenario_s": ("harness.build_scenario",),
    "harness.csv_s": ("harness.convergence_csv", "harness.probe_csv", "harness.penalty_csv",
                      "harness.modes_csv", "harness.solution_csv"),
}

COUNTED = ("mesh.bytes_read", "geometry.trees_built", "geometry.points_queried",
           "fem.nnz_L", "coupling.rows", "solver.kkt_order", "solver.dropped_rows",
           "harness.csv_bytes")


def _count_load_mesh(counts, args, result):
    counts["mesh.bytes_read"] += len(args["text"].encode())


def _count_build_trees(counts, args, result):
    counts["geometry.trees_built"] += len(result)


def _count_locate_points(counts, args, result):
    counts["geometry.points_queried"] += len(result)
    counts["geometry.points_found"] += int((result >= 0).sum())


def _count_locate_point(counts, args, result):
    counts["geometry.points_queried"] += 1
    counts["geometry.points_found"] += result is not None


def _count_assemble(counts, args, result):
    counts["fem.nnz_L"] += result[0].nnz


def _count_constraint_matrix(counts, args, result):
    counts["coupling.rows"] += result.shape[0]


def _count_solve_kkt(counts, args, result):
    A = args.get("A")
    counts["solver.kkt_order"] += args["Q"].shape[0] + (0 if A is None else A.shape[0])
    counts["solver.dropped_rows"] += result.dropped_rows


def _count_csv(counts, args, result):
    counts["harness.csv_bytes"] += len(result.encode())


COUNTERS = {
    "mesh.load_mesh": _count_load_mesh,
    "geometry.build_trees": _count_build_trees,
    "geometry.locate_points": _count_locate_points,
    "geometry.locate_point": _count_locate_point,
    "fem.assemble_global": _count_assemble,
    "coupling.constraint_matrix": _count_constraint_matrix,
    "solver.solve_kkt": _count_solve_kkt,
    **{name: _count_csv for name in TIMED["harness.csv_s"]},
}


class Tracer:
    """Spans as [name, start, end, parent index] plus named counters, in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                counter(self.counts, bound.arguments, result)
            return result

        return traced


def install(tracer):
    """Rebind every public function of the layer modules to a traced wrapper."""
    import overlapfem.cli  # noqa: F401  (loads every overlapfem module)

    wrapped = {}
    for layer in LAYERS:
        module = sys.modules["overlapfem." + layer]
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                wrapped[fn] = tracer.wrap("%s.%s" % (layer, attr), fn)
    for name, module in list(sys.modules.items()):
        if name == "overlapfem" or name.startswith("overlapfem."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])


def self_times(spans):
    """Total self time per span name."""
    children = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    out = defaultdict(float)
    for (name, start, end, _), child in zip(spans, children):
        out[name] += (end - start) - child
    return out


def layer_metrics(documents):
    """Per-layer metrics of one round as {name: (value, unit)}, from the span
    files of its traced commands."""
    selfs = defaultdict(float)
    counts = Counter()
    for doc in documents:
        for name, seconds in self_times(doc["spans"]).items():
            selfs[name] += seconds
        counts.update(doc["counts"])
    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".self_s"] = (
            sum(s for name, s in selfs.items() if name.startswith(layer + ".")), "s"
        )
    for metric, names in TIMED.items():
        metrics[metric] = (sum(selfs[name] for name in names), "s")
    for metric in COUNTED:
        metrics[metric] = (counts[metric], "count")
    found, queried = counts["geometry.points_found"], counts["geometry.points_queried"]
    metrics["geometry.hit_ratio"] = (found / max(queried, 1), "ratio")
    return metrics


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from overlapfem import cli

    code = tracer.wrap("cli.main", cli.main)(cli_args)
    Path(spans_path).write_text(
        json.dumps({"spans": tracer.spans, "counts": dict(tracer.counts)})
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
