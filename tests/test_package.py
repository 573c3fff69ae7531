import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import overlapfem

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
