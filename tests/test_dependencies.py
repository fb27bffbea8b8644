"""The runtime stays numpy-only: the package imports nothing else and declares nothing else."""
import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "manimax"}


def imported_modules(path: Path) -> set[str]:
    """Top-level names of every absolute import in a source file, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "manimax").glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_stdlib_and_numpy(path):
    assert imported_modules(path) - ALLOWED == set()


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == ["numpy>=2.2"]
