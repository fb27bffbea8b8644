"""Every scalar argument goes through one rule: ``manifolds._count`` and ``manifolds._real``
are the only places in the package that test a value for being a bool."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HELPERS = {("manifolds.py", "_count"), ("manifolds.py", "_real")}


def bool_checks(source: str, filename: str) -> list[tuple[str, str]]:
    """(file, enclosing function) of every ``isinstance(<x>, bool)`` call, also
    with bool inside a tuple of types; module-level calls name the function ''."""
    found = []

    def visit(node: ast.AST, func: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", func))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "isinstance"
                    and len(child.args) == 2):
                types = child.args[1].elts if isinstance(child.args[1], ast.Tuple) else [child.args[1]]
                if any(isinstance(t, ast.Name) and t.id == "bool" for t in types):
                    found.append((filename, func))
            visit(child, func)

    visit(ast.parse(source, filename), "")
    return found


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "manimax").glob("*.py")), ids=lambda p: p.name)
def test_only_the_two_helpers_test_for_bool(path):
    assert set(bool_checks(path.read_text(encoding="utf-8"), path.name)) <= HELPERS


def test_both_helpers_are_where_the_rule_lives():
    path = ROOT / "src" / "manimax" / "manifolds.py"
    assert set(bool_checks(path.read_text(encoding="utf-8"), path.name)) == HELPERS


@pytest.mark.parametrize("snippet", [
    "def check(v):\n    if isinstance(v, bool):\n        raise ValueError\n",
    "def check(v):\n    return not isinstance(v, (int, bool))\n",
    "ok = isinstance(3, bool)\n",
    "class C:\n    def f(self, v):\n        return [isinstance(v, bool) for _ in ()]\n",
])
def test_a_bool_check_outside_the_helpers_is_flagged(snippet):
    assert bool_checks(snippet, "solvers.py")
    assert not set(bool_checks(snippet, "solvers.py")) <= HELPERS
