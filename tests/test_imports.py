"""Each module of the package reads every name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diffop"

# (module, name) imported but never read, each with the reason it stays
KEPT = {
    ("parsing", "factor_exact"): "perfbench's span parsing.factor_exact looks the function up there",
}


def _imported(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _read(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_module_reads_every_name_it_imports(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    unused = _imported(tree) - _read(tree)
    kept = {name for mod, name in KEPT if mod == module}
    assert kept <= _imported(tree), f"stale entries in KEPT for {module}"
    assert unused - kept == set(), f"{module} imports names it never reads"
