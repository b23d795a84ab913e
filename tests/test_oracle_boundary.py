"""The brute-force oracles live in ``higgsstrata.oracles`` and nowhere else.

No answer module may import from ``oracles``, so the answer path never runs
an oracle, and every oracle the package exports is defined there, so a test
that compares a fast route with its oracle compares two separate routes.
The package sources are parsed, never imported.
"""

from __future__ import annotations

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "higgsstrata"
# Every oracle name that ``higgsstrata`` exports.
EXPORTED_ORACLES = {
    "hull_contains_origin",
    "min_norm_point_by_faces",
    "nilpotent_commutant_dim_dense_oracle",
    "unipotent_stabilizer_dim_dense_oracle",
}


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


def _imports_oracles(node: ast.AST) -> bool:
    """Whether the node imports ``higgsstrata.oracles`` or a name from it."""
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level and not module:  # from . import oracles
            return any(alias.name == "oracles" for alias in node.names)
        return module in ("oracles", "higgsstrata.oracles") or module.startswith("higgsstrata.oracles.")
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[:2] == ["higgsstrata", "oracles"] for alias in node.names)
    return False


def test_no_answer_module_imports_the_oracles():
    answer_modules = [p.name for p in sorted(PACKAGE.glob("*.py")) if p.name not in ("oracles.py", "__init__.py")]
    offenders = [
        f"{name}:{node.lineno}"
        for name in answer_modules
        for node in ast.walk(_tree(name))
        if _imports_oracles(node)
    ]
    assert "linalg.py" in answer_modules and not offenders, f"answer modules import the oracles: {offenders}"


def test_exported_oracles_are_defined_in_the_oracles_module():
    # A name bound by a top-level def or class of oracles.py has
    # __module__ == "higgsstrata.oracles"; one it imports does not.
    defined = {
        node.name
        for node in _tree("oracles.py").body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    sources = {}
    for node in _tree("__init__.py").body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                sources[alias.asname or alias.name] = (node.level, node.module)
    for name in sorted(EXPORTED_ORACLES):
        assert sources.get(name) == (1, "oracles"), f"{name} is not exported from .oracles"
        assert name in defined, f"{name} is not defined in oracles.py"
    # and no answer module keeps a second copy of any oracle
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in ("oracles.py", "__init__.py"):
            tops = {node.name for node in _tree(path.name).body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            assert not tops & defined, f"{path.name} defines {sorted(tops & defined)}"
