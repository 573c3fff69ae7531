"""Self-test of the benchmark; exits 0 when every part holds.

    python3 perfbench/selftest.py      (from the root of an overlapfem checkout)

For every workload at its tiny size it runs an untraced and a traced round,
which must produce identical CSV files that pass every check. It then shows
that each check rejects a perturbed copy of its output, and that the metrics
``run.py`` reports are exactly those named in ``BENCHMARK.json``. The laplace
and modes workloads have no smaller size than their full one (the config
needs two resolutions, and the eigensolve uses the finer), so they take most
of the time.
"""

import json
import random
import shutil
import sys
from pathlib import Path

import run
from workloads import THREADS, WORKLOADS, CheckError


def _edit(text, row, column, fn):
    """Apply ``fn`` to one CSV field (row 0 is the first data row, -1 the last)."""
    lines = text.splitlines()
    row = row + 1 if row >= 0 else row
    fields = lines[row].split(",")
    fields[column] = fn(fields[column])
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _drop_row(text, row):
    lines = text.splitlines()
    del lines[row + 1 if row >= 0 else row]
    return "\n".join(lines) + "\n"


def _scale_eigenvalues(text, factor):
    for row in range(1, len(text.splitlines()) - 1):
        text = _edit(text, row, 1, lambda v: repr(float(v) * factor))
    return text


def _swap_eigenvalues(text, i, j):
    lines = text.splitlines()
    vi, vj = lines[i + 1].split(",")[1], lines[j + 1].split(",")[1]
    text = _edit(text, i, 1, lambda _: vj)
    return _edit(text, j, 1, lambda _: vi)


def _shift(delta):
    return lambda v: repr(float(v) + delta)


# One perturbed output per check; each must be rejected by that check.
PERTURB = {
    "converge.rows_ok": lambda t: _edit(t, -1, 5, lambda _: "failed: singular KKT system"),
    "converge.n_total": lambda t: _edit(t, 0, 1, lambda v: str(int(v) + 1)),
    "converge.order": lambda t: _edit(t, -1, 2, lambda v: repr(float(v) * 1.5)),
    "probe.n_total": lambda t: _edit(t, -1, 1, lambda v: str(int(v) - 1)),
    "probe.locking": lambda t: _edit(t, 0, 2, lambda _: "1e-6"),
    "modes.rows_ok": lambda t: _drop_row(t, -1),
    "modes.zero_mode": lambda t: _edit(t, 0, 1, lambda _: "1e-6"),
    "modes.bessel": lambda t: _scale_eigenvalues(t, 1.05),
    "modes.sorted": lambda t: _swap_eigenvalues(t, 3, 5),
    "solve.rows_ok": lambda t: _drop_row(t, len(t.splitlines()) // 2),
    # Row 0 is vertex 0 of the first box, on the pinned face x = 0.
    "solve.dirichlet": lambda t: _edit(t, 0, 5, _shift(1e-6)),
    "solve.profile": lambda t: _edit(t, len(t.splitlines()) // 3, 5, _shift(1e-6)),
}


def _rejects(check, text):
    try:
        check.verify(text)
    except CheckError:
        return True
    return False


def _declared(section):
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main():
    root = Path.cwd()
    problems = []
    for name, prepare in WORKLOADS.items():
        env = run.child_env(root, run.use_cpus(THREADS[name]))
        workdir = root / run.WORK_DIR / "selftest" / name
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        commands = prepare(random.Random(0), workdir, tiny=True)
        bench = run.Run(workdir, commands, env)
        layers = run.per_layer(bench, 0)
        if name == "box3d-ingest":
            e2e = run.end_to_end(bench, root, 0, THREADS[name] == 1)
            if {k: u for k, (_, u) in e2e.items()} != _declared("end_to_end"):
                problems.append("end-to-end metrics differ from BENCHMARK.json")
        if {k: u for k, (_, u) in layers.items()} != _declared("per_layer"):
            problems.append("per-layer metrics differ from BENCHMARK.json")
        if bench.failed:
            problems.append("%s: %d of %d operations failed" % (name, bench.failed, bench.attempted))
        for cmd in commands:
            text = (workdir / cmd.output).read_text()
            for check in cmd.checks:
                if check.name not in PERTURB:
                    problems.append("%s has no perturbation" % check.name)
                elif not _rejects(check, PERTURB[check.name](text)):
                    problems.append("%s accepts a perturbed output" % check.name)
        print("%s: %d operations, %d failed" % (name, bench.attempted, bench.failed))
    for problem in problems:
        print("PROBLEM: %s" % problem)
    print("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
