"""Guards for the demo scripts.  Every name a demo imports from the package
must exist, so removing a public name cannot silently break a demo.  The
fast demos also run end to end in a subprocess; demo 05 drives the matrix
oracle's evolve against the closed forms."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FAST_DEMOS = (
    "01_series_photon_statistics.py",
    "02_bell_pair_from_superposed_order.py",
    "03_entropy_series_vs_superposed.py",
    "04_inversion_plateaus.py",
    "05_closed_form_vs_matrix_oracle.py",
)


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


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_fast_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
