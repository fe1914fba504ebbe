"""Cheap guard for the demo scripts: every name they import from the package
must exist, so removing a public name cannot silently break a demo.  The
demos themselves are not run here."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    missing = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ico_cqed"
        for alias in node.names
        if not hasattr(importlib.import_module(node.module), alias.name)
    ]
    assert not missing, f"{demo.name} imports names that do not exist: {missing}"
