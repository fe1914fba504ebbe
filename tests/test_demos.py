"""Guards for the demo scripts and the README's quick start.  Every name a
demo imports from the package must exist, so removing a public name cannot
silently break a demo.  The fast demos also run end to end and must print
exactly what tests/data/demo_stdout.json pins: one as a script in a
subprocess, the entry-point path, and the others in process as __main__,
which spares an interpreter start and a numpy import each; demo 05 drives
the matrix oracle's evolve against the closed forms.  The README's quick
start runs as written and prints what its comments state."""

import ast
import importlib
import json
import os
import re
import runpy
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
#: The fast demo run as a script in a fresh interpreter.
SCRIPT_DEMO = "02_bell_pair_from_superposed_order.py"
PINNED_STDOUT = json.loads((ROOT / "tests" / "data" / "demo_stdout.json").read_text())


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
def test_fast_demo_runs(name, capsys):
    if name != SCRIPT_DEMO:
        runpy.run_path(str(ROOT / "demos" / name), run_name="__main__")
        assert capsys.readouterr().out == PINNED_STDOUT[name]
        return
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
    assert done.stdout == PINNED_STDOUT[name]


def test_readme_quick_start_prints_what_its_comments_state(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    # the other block is verify's draw recipe, which tests/test_verify.py runs
    assert len(blocks) == 2
    (quick_start,) = [block for block in blocks if "def verify_draw(" not in block]
    exec(compile(quick_start, "README.md", "exec"), {})
    prob, _, entropy = capsys.readouterr().out.splitlines()
    assert abs(float(prob) - 1.0) <= 1e-12      # 1.0: atom exits ground
    assert abs(float(entropy) - 0.5) <= 1e-12   # 0.5: maximally entangled
