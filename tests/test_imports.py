"""Every name a package module imports is used in that module.

No linter runs on this code, so an import left behind by a deletion would
stay unnoticed. ``__init__`` is left out: its imports are the public API.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gpcpd"

# names imported on purpose without a use in the module, with the reason
ALLOWED = {
    "stage2": {
        "least_squares_min_norm": "perfbench/tracer.py wraps gpcpd.stage2.least_squares_min_norm",
        "null_space_basis": "perfbench/tracer.py wraps gpcpd.stage2.null_space_basis",
    },
}

MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def imported_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def used_names(tree: ast.Module) -> set:
    # annotations are expressions too (no quoted annotation names an import here)
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_module_is_checked():
    assert "stage2" in MODULES and "__init__" not in MODULES
    assert set(ALLOWED) <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    unused = imported_names(tree) - used_names(tree) - set(ALLOWED.get(module, {}))
    assert not unused, f"gpcpd/{module}.py imports names it never uses: {sorted(unused)}"


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_allowed_imports_are_imported(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert set(ALLOWED[module]) <= imported_names(tree) - used_names(tree)
