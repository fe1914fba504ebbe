"""The benchmark under bench/ reaches into the package by name.

``bench/spans.py`` wraps fixed functions and classes of the modules in its
TARGETS table, and ``bench/workloads.py`` calls others to run and check its
operations.  Removing or renaming one of them breaks the benchmark, so
these tests install the tracer against the package, look up every package
name the workloads use, and run one input of every workload through its op
and its output check.  Nothing under bench/ is changed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_against_the_package():
    spans = load_bench_module("spans")
    mods = {name: importlib.import_module(f"ico_cqed.{name}") for name in spans.MODULES}
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    to_csv = mods["sweep"].Table.to_csv
    tracer = spans.Tracer()
    tracer.install()
    try:
        for home, attr, _ in spans.TARGETS:
            original = before[home][attr]
            if not isinstance(original, type):
                assert getattr(mods[home], attr).__wrapped__ is original, f"{home}.{attr}"
        assert mods["sweep"].Table.to_csv.__wrapped__ is to_csv
    finally:
        tracer.uninstall()
    for name, mod in mods.items():
        assert vars(mod).keys() == before[name].keys()
        assert all(vars(mod)[k] is v for k, v in before[name].items()), name
    assert mods["sweep"].Table.to_csv is to_csv


def _package_names(tree):
    """(dotted name, object) for every package name workloads.py uses: its
    imports from ico_cqed and each attribute chain on an imported module."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ico_cqed"):
            owner = importlib.import_module(node.module)
            for alias in node.names:
                yield f"{node.module}.{alias.name}", owner, alias.name
                value = getattr(owner, alias.name, None)
                if isinstance(value, type(owner)):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            owner = modules[node.id]
            path = node.id
            for attr in reversed(chain):
                yield f"{path}.{attr}", owner, attr
                owner, path = getattr(owner, attr, None), f"{path}.{attr}"
                if owner is None:
                    break


def test_workload_names_exist():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    used = list(_package_names(tree))
    missing = sorted({name for name, owner, attr in used if not hasattr(owner, attr)})
    assert not missing, f"bench/workloads.py uses names the package lacks: {missing}"
    names = {name for name, _, _ in used}
    assert {"engine.general_postselect", "oracle.evolve", "sweep.run_sweep"} <= names


WORKLOADS = load_bench_module("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_input_of_each_workload_passes_its_check(name, tmp_path):
    wl = WORKLOADS[name](1, tmp_path)
    inp = wl.pass_inputs(0)[0]
    assert wl.check(inp, wl.run(inp), {}) is None


def test_traced_verify_op_records_every_parameter_draw(tmp_path):
    # run_verification makes all its draws in one Generator.random call: the
    # traced layer sees no random_params call and one SystemParams, the
    # report's worst_params, and the report counts the draws
    spans = load_bench_module("spans")
    wl = WORKLOADS["verify"](1, tmp_path)
    inp = wl.pass_inputs(0)[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        report, _ = tracer.run_op(0, wl.run, inp)
    finally:
        tracer.uninstall()
    assert wl.check(inp, report, {}) is None
    names = [tracer.names[i] for i in tracer.name_of]
    assert report.draws == wl.draws == 200
    assert names.count("verify.random_params") == 0
    assert names.count("states.SystemParams") == 1
    assert names.count("verify.run_verification") == 1
