import ast
import gc
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import overlapfem
from overlapfem import cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(overlapfem.__path__))

# Exported names with no caller in the library, each a documented entry point.
ENTRY_POINTS = (
    "save_mesh",  # writes the DMESH text that load_mesh reads
    "thin_constraints",  # tier-1 claim: thinning leaves one row per constrained vertex
    "implicit_step",  # heat and wave steps; the duplicated-mesh oracle checks the heat step
    "solve_bilaplace_convex",  # tier-1 claim: the convex QP agrees with the KKT solve
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # Tools that wrap every public function look each __all__ name up.
    module = importlib.import_module("overlapfem." + name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _exports(body):
    """The names listed in a module's ``__all__`` (empty if it has none)."""
    for stmt in body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return ast.literal_eval(stmt.value)
    return []


def test_every_exported_function_has_a_library_caller():
    # Helpers that only tests call belong in tests/reference.py. A caller is a
    # name or an attribute in code outside the definition itself; a string
    # does not count ("submesh" in an error message would not).
    files = sorted(Path(overlapfem.__file__).parent.glob("*.py"))
    modules = [ast.parse(p.read_text()).body for p in files if p.name != "__init__.py"]
    statements = [stmt for body in modules for stmt in body]
    used = [{node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(stmt)
             if isinstance(node, (ast.Name, ast.Attribute))} for stmt in statements]
    uncalled = []
    for body in modules:
        checked = set(_exports(body)) - set(ENTRY_POINTS)
        for stmt in body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name in checked
                    and not any(stmt.name in names for other, names in zip(statements, used)
                                if other is not stmt)):
                uncalled.append(stmt.name)
    assert uncalled == []


# Run in a fresh interpreter: import scipy.sparse, then overlapfem, solve the
# two test boxes with boundary-only rows (every row substitutes), then run an
# all-vertices converge (rows share pivots: a saddle factorization). After
# each step, print whether the factorization and eigensolver stack has been
# imported. A SciPy whose scipy.sparse imports csgraph eagerly (csgraph
# imports scipy.sparse.linalg) loads the stack with scipy.sparse itself;
# recent releases load csgraph and linalg on first attribute access.
FOOTPRINT = """
import json, sys
stacks = ("scipy.sparse.linalg", "scipy.linalg")
loaded = lambda: [name in sys.modules for name in stacks]
import scipy.sparse
steps = [loaded()]
import overlapfem
from overlapfem.cli import main
steps.append(loaded())
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0
    steps.append(loaded())
print(json.dumps(steps))
"""


def test_substitution_commands_do_not_load_the_factorization_stack(tmp_path):
    data = Path(__file__).parent / "data"
    solve, converge = tmp_path / "solve.cfg", tmp_path / "converge.cfg"
    solve.write_text(
        "scenario = custom\nmesh_files = %s,%s\ndirichlet = 0:0:1,1:0:2\noutput = %s\n"
        % (data / "box_a.dmesh", data / "box_b.dmesh", tmp_path / "u.csv")
    )
    converge.write_text(
        "scenario = seg1d_poisson\ncoupling = all_vertices\nresolutions = 10,20\n"
        "output = %s\n" % (tmp_path / "converge.csv")
    )
    env = dict(os.environ, PYTHONPATH=str(Path(overlapfem.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", FOOTPRINT,
         json.dumps([["solve", str(solve)], ["converge", str(converge)]])],
        capture_output=True, text=True, env=env, check=True,
    )
    sparse, imported, solved, converged = json.loads(run.stdout)
    assert converged == [True, True]
    # The package and a substitution solve load nothing beyond what
    # scipy.sparse itself loads.
    assert imported == solved == sparse
    if all(sparse):
        pytest.skip("this SciPy's scipy.sparse already imports scipy.sparse.linalg")


# Run the CLI's __main__ block in a fresh interpreter, as `python -m
# overlapfem.cli` does, and print its exit status and how many objects the
# process entry froze.
ENTRY = """
import gc, runpy, sys
sys.argv = ["overlapfem"] + sys.argv[1:]
try:
    runpy.run_module("overlapfem.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, gc.get_freeze_count())
"""


def test_process_entry_freezes_the_heap_after_main(tmp_path, capsys):
    data = Path(__file__).parent / "data"
    good, bad, out = tmp_path / "solve.cfg", tmp_path / "bad.cfg", tmp_path / "u.csv"
    good.write_text(
        "scenario = custom\nmesh_files = %s,%s\ndirichlet = 0:0:1,1:0:2\noutput = %s\n"
        % (data / "box_a.dmesh", data / "box_b.dmesh", out)
    )
    bad.write_text("scenario = custom\nmesh_files = %s\n" % (data / "box_a.dmesh"))
    env = dict(os.environ, PYTHONPATH=str(Path(overlapfem.__file__).parents[1]))

    def entry(config):
        run = subprocess.run([sys.executable, "-c", ENTRY, "solve", str(config)],
                             capture_output=True, text=True, env=env, timeout=120)
        status, frozen = map(int, run.stdout.split())
        return status, frozen, run.stderr

    status, frozen, stderr = entry(good)
    assert (status, stderr) == (0, "")
    assert frozen > 0
    fresh = out.read_bytes()
    out.unlink()
    before = gc.get_freeze_count()
    assert cli.main(["solve", str(good)]) == 0
    assert gc.get_freeze_count() == before  # main itself leaves the collector alone
    assert out.read_bytes() == fresh

    status, _, stderr = entry(bad)
    assert cli.main(["solve", str(bad)]) == status == 1
    assert capsys.readouterr().err == stderr != ""

    # The installed script runs the same entry as the __main__ block.
    (script,) = re.findall(r'^overlapfem = "overlapfem\.cli:(\w+)"$',
                           (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(),
                           re.M)
    tree = ast.parse(Path(cli.__file__).read_text())
    (block,) = [stmt for stmt in tree.body if isinstance(stmt, ast.If)
                and ast.unparse(stmt.test) == "__name__ == '__main__'"]
    called = [node.func.id for node in ast.walk(block)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert called == [script]


def test_readme_python_blocks_run():
    # The README example calls the public API; it runs as written.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
