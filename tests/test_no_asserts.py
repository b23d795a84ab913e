"""Certificates and input checks in the package are real checks that raise.

An ``assert`` is stripped by ``python -O``, so none may guard a result.  The
package sources are parsed, never imported.
"""

from __future__ import annotations

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "higgsstrata"


def test_package_has_no_assert():
    sources = sorted(PACKAGE.glob("*.py"))
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert sources and not asserts, f"assert statements in the package: {asserts}"
