"""Every package name the benchmark traces or imports still resolves.

``bench/spans.py`` patches functions by name and ``bench/*.py`` import from
the package, so a rename or deletion here would otherwise surface only when
the benchmark runs.  The bench sources are parsed, never imported or edited.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
# tuple constant in spans.py -> package module whose functions it names
TRACED_TUPLES = {"POINT_MODEL": "point_model", "MINNORM": "minnorm", "LINALG": "linalg"}


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _traced_names() -> list[str]:
    """Dotted package paths of every function ``spans.py`` patches by name."""
    names = []
    for node in ast.walk(_tree("spans.py")):
        if not (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)):
            continue
        target = node.targets[0].id
        if target in TRACED_TUPLES:
            names += [f"{TRACED_TUPLES[target]}.{name}" for name in ast.literal_eval(node.value)]
        elif target == "ECHELON_ADD":
            names.append(ast.literal_eval(node.value))
        elif target == "targets" and isinstance(node.value, ast.List):
            # literal (layer, name) pairs such as ("strat_report", "assemble")
            names += [".".join(pair) for pair in ast.literal_eval(node.value)]
    return names


def _imported_names() -> list[str]:
    """``module:name`` for every ``from higgsstrata... import name`` under bench/."""
    names = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("higgsstrata"):
                names += [f"{node.module}:{alias.name}" for alias in node.names]
    return names


def _resolves(module: str, path: str, function: bool) -> bool:
    try:
        obj = importlib.import_module(module)
        for part in path.split("."):
            if not hasattr(obj, part) and inspect.ismodule(obj):
                importlib.import_module(f"{obj.__name__}.{part}")
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return False
    return inspect.isfunction(obj) or not function


def test_traced_names_resolve():
    traced = _traced_names()
    for name in ("point_model.membership", "linalg.EchelonAccumulator.add", "strat_report.assemble"):
        assert name in traced
    missing = [
        dotted for dotted in traced
        if not _resolves("higgsstrata." + dotted.split(".", 1)[0], dotted.split(".", 1)[1], True)
    ]
    assert not missing


def test_imported_names_resolve():
    imported = _imported_names()
    assert "higgsstrata:enumerate_coordinate_indices" in imported
    missing = [entry for entry in imported if not _resolves(*entry.split(":"), False)]
    assert not missing
