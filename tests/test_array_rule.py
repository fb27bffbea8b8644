"""Every array argument goes through one rule: ``manifolds._floats`` is the only place in the
package that converts a value to float64 with ``np.asarray`` or ``np.array``."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HELPER = ("manifolds.py", "_floats")
CONVERTERS = {"array", "asarray", "asanyarray", "ascontiguousarray"}


def _is_float64(node: ast.AST) -> bool:
    """``np.float64``, ``np.double``, ``float`` or the text "float64"."""
    return ((isinstance(node, ast.Attribute) and node.attr in ("float64", "double"))
            or (isinstance(node, ast.Name) and node.id == "float")
            or (isinstance(node, ast.Constant) and node.value in ("float64", "f8", "double")))


def float64_conversions(source: str, filename: str) -> list[tuple[str, str]]:
    """(file, enclosing function) of every ``np.<converter>(..., dtype=<float64>)`` call, the
    dtype given by keyword or as the second argument; module-level calls name the function ''."""
    found = []

    def visit(node: ast.AST, func: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", func))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in CONVERTERS):
                dtypes = [k.value for k in child.keywords if k.arg == "dtype"] + child.args[1:2]
                if any(_is_float64(d) for d in dtypes):
                    found.append((filename, func))
            visit(child, func)

    visit(ast.parse(source, filename), "")
    return found


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "manimax").glob("*.py")), ids=lambda p: p.name)
def test_only_the_helper_converts_to_float64(path):
    assert set(float64_conversions(path.read_text(encoding="utf-8"), path.name)) <= {HELPER}


def test_the_helper_is_where_the_rule_lives():
    path = ROOT / "src" / "manimax" / "manifolds.py"
    assert set(float64_conversions(path.read_text(encoding="utf-8"), path.name)) == {HELPER}


@pytest.mark.parametrize("snippet", [
    "def load(v):\n    return np.asarray(v, dtype=np.float64)\n",
    "def load(v):\n    return np.array(v, dtype=np.float64, copy=True).reshape(-1)\n",
    "def load(v):\n    return np.asarray(v, np.float64)\n",
    "def load(v):\n    return numpy.array(v, dtype=float)\n",
    "ts = np.asarray([p[0] for p in pairs], dtype='float64')\n",
    "class C:\n    def f(self, v):\n        return [np.ascontiguousarray(v, dtype=np.double) for _ in ()]\n",
])
def test_a_float64_conversion_outside_the_helper_is_flagged(snippet):
    assert float64_conversions(snippet, "problems.py")
    assert not set(float64_conversions(snippet, "problems.py")) <= {HELPER}


def test_other_dtypes_are_not_conversions_of_arguments():
    # The wire formats write little-endian bytes, and batches hold integer indices.
    snippet = "def f(p, i):\n    return np.ascontiguousarray(p, dtype='<f8'), np.asarray(i, dtype=np.int64)\n"
    assert float64_conversions(snippet, "problems.py") == []
