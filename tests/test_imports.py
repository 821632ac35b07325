"""Each module of the package reads every name it imports, and a text
command starts without the standard library modules it does not need."""

import ast
import os
import subprocess
import sys
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


# Each costs a fresh process several milliseconds to import: dataclasses pulls
# in inspect, ast, dis and tokenize, and json is needed only for JSON.
COLD_START_EXCLUDED = ("dataclasses", "inspect", "json")


def test_text_commands_start_without_dataclasses_inspect_or_json():
    script = (
        "import sys\n"
        "from diffop.cli import main\n"
        "codes = [main(['kernel', '--op', 'D^2+1']), main(['solve', '--op', 'D^2+1', '--rhs', 'x*sin(x)'])]\n"
        f"print(codes, sorted(set({COLD_START_EXCLUDED!r}) & set(sys.modules)))\n"
    )
    # -S keeps the start-up hooks of site-packages out of the module count
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["cos(x)", "sin(x)", "-1/4*(x^2*cos(x) - x*sin(x))", "[0, 0] []"]
