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
    # the package re-exports lazily, each name from the submodule its
    # ``_SOURCES`` map gives, and imports no submodule itself
    init = _tree("__init__.py").body
    (table,) = [node.value for node in init if isinstance(node, ast.Assign) and _name(node.targets[0]) == "_SOURCES"]
    sources = {name: module for module, names in ast.literal_eval(table).items() for name in names}
    assert not [node for node in init if isinstance(node, (ast.Import, ast.ImportFrom))]
    for name in sorted(EXPORTED_ORACLES):
        assert sources.get(name) == "oracles", f"{name} is not exported from .oracles"
        assert name in defined, f"{name} is not defined in oracles.py"
    # and no answer module keeps a second copy of any oracle
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in ("oracles.py", "__init__.py"):
            tops = {node.name for node in _tree(path.name).body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            assert not tops & defined, f"{path.name} defines {sorted(tops & defined)}"


# The tables the dense stabiliser oracle differentiates, and the rules that read them.
TABLE_NAMES = {"_factor_values", "_table", "_tables", "_support", "_first_reads", "_entry_keys"}


def _name(node: ast.AST) -> str | None:
    """The identifier a Name or an Attribute names, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _reached(tree: ast.Module, root: str) -> dict[str, ast.FunctionDef]:
    """The functions and methods of a module that ``root`` reaches, root included,
    following every name or attribute that names one of them."""
    defs = {}
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        defs.update((f.name, f) for f in body if isinstance(f, ast.FunctionDef))
    reached, todo = {}, [root]
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached[name] = defs[name]
            todo += map(_name, ast.walk(defs[name]))
    return reached


def test_the_stabilizer_reads_no_cofactor_table():
    # so that the dense oracle, which differentiates those tables, is a second route
    reached = _reached(_tree("point_model.py"), "unipotent_stabilizer_dim")
    offenders = sorted(
        f"{name}: {_name(n)}" for name, fn in reached.items() for n in ast.walk(fn) if _name(n) in TABLE_NAMES
    )
    assert {"_live_families", "_invariance_nullity"} <= set(reached) and not offenders, offenders


def test_the_adapt_step_runs_no_elimination():
    # so that the elimination route to each factor's adapted basis, the oracle, is a second route
    tree = _tree("point_model.py")
    reached = {**_reached(tree, "_adapted_factors"), **_reached(tree, "from_higgs_data")}
    offenders = sorted(
        f"{name}: {_name(n)}" for name, fn in reached.items() for n in ast.walk(fn)
        if _name(n) in ("EchelonAccumulator", "adapted_flag_basis")
    )
    (factor,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Factor"]
    forms = {f.name: f for f in factor.body if isinstance(f, ast.FunctionDef)}
    assert reached["_adapted"] is forms["_adapted"], "the adapt step is Factor's"
    assert {"_gauged", "_image_dims"} <= set(reached) and not offenders, offenders
