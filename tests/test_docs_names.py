"""README names only what the package defines."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = {path.stem for path in (ROOT / "src" / "higgsstrata").glob("*.py")} - {"__init__"}
# `module.name` or `higgsstrata.module.name`, maybe followed by a call's arguments
NAME = re.compile(r"(?:higgsstrata\.)?(\w+)((?:\.[A-Za-z_]\w*)+)")


def _named(text: str) -> list[tuple[str, str]]:
    """The (module, dotted name) of every backticked span that starts with a
    name in one of the package's modules, in order of first appearance."""
    found = (NAME.match(span) for span in re.findall(r"`([^`\n]+)`", text))
    return list(dict.fromkeys((m[1], m[2][1:]) for m in found if m and m[1] in MODULES))


def _missing(module: str, name: str) -> str | None:
    """The first part of the dotted name that the module does not define, or None."""
    obj = importlib.import_module(f"higgsstrata.{module}")
    for part in name.split("."):
        if not hasattr(obj, part):
            return part
        obj = getattr(obj, part)
    return None


README_NAMES = _named((ROOT / "README.md").read_text(encoding="utf-8"))


def test_readme_names_some_attributes():
    # so that a pattern that matches nothing cannot pass the check below
    assert len(README_NAMES) >= 2


@pytest.mark.parametrize("module,name", README_NAMES, ids=[f"{m}.{n}" for m, n in README_NAMES])
def test_readme_name_exists(module, name):
    assert _missing(module, name) is None, f"README names {module}.{name}, which is not defined"


def test_a_missing_name_is_caught():
    text = "`point_model.no_such_helper`, `higgsstrata.linalg.ratio(x)`, `ModelPoint`, `ROADMAP.md`, `bench/run.py`"
    assert _named(text) == [("point_model", "no_such_helper"), ("linalg", "ratio")]
    assert _missing("point_model", "no_such_helper") == "no_such_helper"
    assert _missing("point_model", "ModelPoint.no_such_method") == "no_such_method"
    assert _missing("linalg", "ratio") is None
