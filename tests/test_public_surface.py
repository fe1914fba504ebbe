"""The package's public surface: ``ico_cqed.__all__`` is pinned, so a name
cannot leak in (a helper import) or drop out unnoticed.  A ledger says who
holds each public name and each public member of a public class: the files
outside the tests whose code reads it, or why it stays without one.  The
README's refused-inputs and fast-path tables name only what exists, and
every functools cache in src/ has a fast-path row."""

import ast
import dataclasses
import functools
import importlib
import pkgutil
import re
from pathlib import Path
from types import ModuleType

import pytest

import ico_cqed

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "AtomFieldKet",
    "AtomLevel",
    "AtomicInversion",
    "BranchEntropy",
    "CavityOrder",
    "ConfigError",
    "ControlProbabilityColumn",
    "DegenerateBranchError",
    "FIGURE_PRESETS",
    "FieldsKet",
    "FigurePreset",
    "FlavorMismatchError",
    "FullKet",
    "ImpossiblePostselectionError",
    "KetProbability",
    "MIN_OUTCOME_PROBABILITY",
    "PRUNE_EPSILON",
    "PureState",
    "SweepConfig",
    "SystemParams",
    "Table",
    "TruncationOverflowError",
    "TruncationWindow",
    "VerifyReport",
    "__version__",
    "bell_resonance_gT",
    "bell_state",
    "coeffs_c",
    "coeffs_s",
    "condition_on_atom",
    "config_from_dict",
    "evolve",
    "figure_meta",
    "figure_table",
    "general_postselect",
    "grid_points",
    "hadamard_control",
    "jc_propagator",
    "ket_probability",
    "linear_entropy",
    "measure_control",
    "random_params",
    "reduced_cavity0",
    "run_sweep",
    "run_verification",
    "schrodinger_phase",
    "sigma_z_expectation",
    "state_after_both",
    "sweep_meta",
]


def test_all_is_the_pinned_list():
    assert sorted(ico_cqed.__all__) == PUBLIC_NAMES
    assert len(ico_cqed.__all__) == len(set(ico_cqed.__all__))


def test_every_public_name_resolves_and_star_import_binds_exactly_them():
    assert all(hasattr(ico_cqed, name) for name in ico_cqed.__all__)
    namespace: dict = {}
    exec("from ico_cqed import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES


def test_no_public_attribute_is_left_out_of_all():
    public = {
        name
        for name, value in vars(ico_cqed).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public <= set(ico_cqed.__all__)


# ---------------------------------------------------------------- caller ledger


def surface() -> list[str]:
    """Every name in __all__, and Class.member for each public attribute that a
    class in __all__ defines itself, less its dataclass fields and enum members."""
    entries = list(ico_cqed.__all__)
    for name in ico_cqed.__all__:
        cls = getattr(ico_cqed, name)
        if isinstance(cls, type):
            fields = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
            hidden = {*fields, *getattr(cls, "__members__", ())}
            entries += [f"{name}.{attr}" for attr in vars(cls)
                        if not attr.startswith("_") and attr not in hidden]
    return entries


@functools.cache
def code_words(file: str) -> tuple[frozenset, frozenset]:
    """(names, attributes) the code of a file reads, README.md's being its Python
    blocks; a string constant counts as both, as a name looked up by getattr
    does.  Comments, definitions and a docstring, never a name, do not."""
    text = (ROOT / file).read_text()
    if file == "README.md":
        text = "\n".join(re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S))
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
            attrs.add(node.value)
    return frozenset(names), frozenset(attrs)


def reads(file: str, entry: str) -> bool:
    """Whether the code of file reads the name, or for Class.member the attribute."""
    names, attrs = code_words(file)
    owner, _, member = entry.rpartition(".")
    return member in attrs if owner else entry in names | attrs


#: The files a caller may live in: the package (less the __init__ that
#: re-exports every name), the demos, the benchmark and the README's blocks.
CALLER_FILES = sorted(
    str(path.relative_to(ROOT))
    for folder in ("src", "demos", "bench")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
) + ["README.md"]

#: Each entry of surface() and who holds it: the caller files whose code reads
#: it, or a one-line reason to keep it without one.
LEDGER = {
    "__version__": ("src/ico_cqed/sweep.py", "bench/run.py"),
    "AtomFieldKet": (
        "src/ico_cqed/engine.py", "src/ico_cqed/observables.py", "src/ico_cqed/oracle.py",
        "src/ico_cqed/states.py", "src/ico_cqed/sweep.py", "bench/workloads.py",
    ),
    "AtomicInversion": ("src/ico_cqed/sweep.py", "demos/04_inversion_plateaus.py"),
    "AtomicInversion.column_id": ("src/ico_cqed/sweep.py",),
    "AtomicInversion.kind": ("src/ico_cqed/sweep.py",),
    "AtomLevel": (
        "src/ico_cqed/engine.py", "src/ico_cqed/observables.py", "src/ico_cqed/oracle.py",
        "src/ico_cqed/states.py", "src/ico_cqed/sweep.py", "demos/01_series_photon_statistics.py",
        "demos/02_bell_pair_from_superposed_order.py", "demos/03_entropy_series_vs_superposed.py",
        "bench/workloads.py", "README.md",
    ),
    "AtomLevel.from_label": ("src/ico_cqed/sweep.py", "bench/workloads.py"),
    "AtomLevel.label": (
        "src/ico_cqed/observables.py", "src/ico_cqed/sweep.py",
        "demos/01_series_photon_statistics.py", "demos/05_closed_form_vs_matrix_oracle.py",
    ),
    "bell_resonance_gT": ("src/ico_cqed/engine.py", "demos/02_bell_pair_from_superposed_order.py"),
    "bell_state": ("demos/02_bell_pair_from_superposed_order.py",),
    "BranchEntropy": ("src/ico_cqed/sweep.py", "demos/03_entropy_series_vs_superposed.py"),
    "BranchEntropy.column_id": ("src/ico_cqed/sweep.py",),
    "BranchEntropy.kind": ("src/ico_cqed/sweep.py",),
    "CavityOrder": ("src/ico_cqed/engine.py", "demos/01_series_photon_statistics.py"),
    "coeffs_c": ("src/ico_cqed/engine.py", "bench/spans.py"),
    "coeffs_s": ("bench/spans.py",),
    "condition_on_atom": (
        "demos/02_bell_pair_from_superposed_order.py", "bench/spans.py", "README.md",
    ),
    "config_from_dict": ("src/ico_cqed/cli.py", "bench/spans.py", "bench/workloads.py"),
    "ConfigError": ("src/ico_cqed/cli.py", "src/ico_cqed/sweep.py"),
    "ControlProbabilityColumn": ("src/ico_cqed/sweep.py",),
    "ControlProbabilityColumn.column_id": ("src/ico_cqed/sweep.py",),
    "ControlProbabilityColumn.kind": ("src/ico_cqed/sweep.py",),
    "DegenerateBranchError": (
        "src/ico_cqed/engine.py", "demos/02_bell_pair_from_superposed_order.py",
    ),
    "evolve": ("demos/05_closed_form_vs_matrix_oracle.py", "bench/spans.py", "bench/workloads.py"),
    "FieldsKet": (
        "src/ico_cqed/engine.py", "src/ico_cqed/observables.py", "src/ico_cqed/states.py",
    ),
    "figure_meta": ("src/ico_cqed/cli.py",),
    "FIGURE_PRESETS": (
        "src/ico_cqed/cli.py", "src/ico_cqed/sweep.py", "bench/capture_reference.py",
        "bench/workloads.py",
    ),
    "figure_table": ("src/ico_cqed/cli.py", "bench/capture_reference.py", "bench/spans.py"),
    "FigurePreset": ("src/ico_cqed/sweep.py",),
    "FlavorMismatchError": ("src/ico_cqed/observables.py", "src/ico_cqed/states.py"),
    "FullKet": ("src/ico_cqed/oracle.py", "src/ico_cqed/states.py"),
    "general_postselect": (
        "demos/02_bell_pair_from_superposed_order.py", "demos/05_closed_form_vs_matrix_oracle.py",
        "bench/spans.py", "bench/workloads.py", "README.md",
    ),
    "grid_points": ("bench/workloads.py",),
    "hadamard_control": (
        "demos/05_closed_form_vs_matrix_oracle.py", "bench/spans.py", "bench/workloads.py",
    ),
    "ImpossiblePostselectionError": (
        "src/ico_cqed/engine.py", "src/ico_cqed/observables.py", "src/ico_cqed/oracle.py",
        "src/ico_cqed/verify.py", "bench/workloads.py",
    ),
    "jc_propagator": ("bench/spans.py",),
    "ket_probability": ("bench/spans.py",),
    "KetProbability": ("src/ico_cqed/sweep.py", "demos/01_series_photon_statistics.py"),
    "KetProbability.column_id": ("src/ico_cqed/sweep.py",),
    "KetProbability.kind": ("src/ico_cqed/sweep.py",),
    "linear_entropy": (
        "demos/02_bell_pair_from_superposed_order.py", "bench/spans.py", "README.md",
    ),
    "measure_control": (
        "demos/05_closed_form_vs_matrix_oracle.py", "bench/spans.py", "bench/workloads.py",
    ),
    "MIN_OUTCOME_PROBABILITY": (
        "src/ico_cqed/engine.py", "src/ico_cqed/observables.py", "src/ico_cqed/oracle.py",
        "src/ico_cqed/states.py", "src/ico_cqed/sweep.py", "src/ico_cqed/verify.py",
    ),
    "PRUNE_EPSILON": ("src/ico_cqed/states.py",),
    "PureState": (
        "src/ico_cqed/engine.py", "src/ico_cqed/observables.py", "src/ico_cqed/oracle.py",
        "src/ico_cqed/states.py", "bench/spans.py",
    ),
    "PureState.amplitude": (
        "src/ico_cqed/observables.py", "demos/05_closed_form_vs_matrix_oracle.py",
        "bench/workloads.py",
    ),
    "PureState.flavor": ("src/ico_cqed/states.py",),
    "PureState.items": (
        "src/ico_cqed/observables.py", "demos/02_bell_pair_from_superposed_order.py",
        "bench/workloads.py", "README.md",
    ),
    "PureState.kets": (
        "src/ico_cqed/observables.py", "demos/01_series_photon_statistics.py",
        "demos/02_bell_pair_from_superposed_order.py", "demos/05_closed_form_vs_matrix_oracle.py",
        "bench/workloads.py",
    ),
    "PureState.norm": (
        "public: the norm of a state, its one measure of weight; no caller outside PureState, "
        "whose refusal of an overflowing squared norm reads it"
    ),
    "random_params": ("demos/05_closed_form_vs_matrix_oracle.py", "bench/spans.py"),
    "reduced_cavity0": (
        "demos/02_bell_pair_from_superposed_order.py", "bench/spans.py", "README.md",
    ),
    "run_sweep": (
        "src/ico_cqed/cli.py", "src/ico_cqed/sweep.py", "demos/01_series_photon_statistics.py",
        "demos/03_entropy_series_vs_superposed.py", "demos/04_inversion_plateaus.py",
        "bench/spans.py", "bench/workloads.py",
    ),
    "run_verification": (
        "src/ico_cqed/cli.py", "demos/05_closed_form_vs_matrix_oracle.py", "bench/spans.py",
        "bench/workloads.py",
    ),
    "schrodinger_phase": (
        "demos/05_closed_form_vs_matrix_oracle.py", "bench/spans.py", "bench/workloads.py",
    ),
    "sigma_z_expectation": ("bench/spans.py",),
    "state_after_both": ("demos/01_series_photon_statistics.py", "bench/spans.py"),
    "sweep_meta": ("src/ico_cqed/cli.py",),
    "SweepConfig": (
        "src/ico_cqed/sweep.py", "demos/01_series_photon_statistics.py",
        "demos/03_entropy_series_vs_superposed.py", "demos/04_inversion_plateaus.py",
    ),
    "SweepConfig.to_dict": ("src/ico_cqed/sweep.py",),
    "SystemParams": (
        "src/ico_cqed/engine.py", "src/ico_cqed/oracle.py", "src/ico_cqed/states.py",
        "src/ico_cqed/verify.py", "demos/01_series_photon_statistics.py",
        "demos/02_bell_pair_from_superposed_order.py", "bench/spans.py", "bench/workloads.py",
        "README.md",
    ),
    "SystemParams.gT": (
        "src/ico_cqed/sweep.py", "demos/05_closed_form_vs_matrix_oracle.py", "bench/workloads.py",
    ),
    "Table": ("src/ico_cqed/cli.py", "src/ico_cqed/sweep.py", "bench/spans.py"),
    "Table.rows": ("bench/run.py", "bench/workloads.py"),
    "Table.to_csv": (
        "src/ico_cqed/cli.py", "bench/capture_reference.py", "bench/spans.py",
        "bench/workloads.py",
    ),
    "TruncationOverflowError": ("src/ico_cqed/oracle.py",),
    "TruncationWindow": (
        "src/ico_cqed/oracle.py", "demos/05_closed_form_vs_matrix_oracle.py", "bench/workloads.py",
    ),
    "TruncationWindow.atom_field_dim": ("src/ico_cqed/oracle.py", "bench/run.py"),
    "TruncationWindow.for_params": (
        "demos/05_closed_form_vs_matrix_oracle.py", "bench/workloads.py",
    ),
    "TruncationWindow.levels": ("src/ico_cqed/oracle.py",),
    "VerifyReport": ("src/ico_cqed/verify.py",),
    "VerifyReport.lines": (
        "src/ico_cqed/cli.py", "demos/05_closed_form_vs_matrix_oracle.py", "bench/workloads.py",
    ),
    "VerifyReport.passed": ("src/ico_cqed/cli.py", "src/ico_cqed/verify.py", "bench/workloads.py"),
}


def test_the_ledger_has_one_entry_for_each_public_name_and_member():
    entries = surface()
    assert len(entries) == len(set(entries))
    assert sorted(set(entries) - LEDGER.keys()) == [], "public, but not in the ledger"
    assert sorted(LEDGER.keys() - set(entries)) == [], "in the ledger, but not public"


@pytest.mark.parametrize("entry", sorted(LEDGER))
def test_each_ledger_entry_names_callers_that_read_it_or_a_reason(entry):
    holders = LEDGER[entry]
    if isinstance(holders, str):
        assert holders.strip() and "\n" not in holders
        return
    assert holders and set(holders) <= set(CALLER_FILES), "not a caller file"
    assert [file for file in holders if not reads(file, entry)] == [], "no longer read there"


# ---------------------------------------------------------------- README's refused inputs


def refused_input_entry_points() -> list[str]:
    """The names in the first column of README's refused-inputs table, less the CLI's."""
    header = "| Entry point | Field | Accepted | Message on refusal |\n"
    rows = (ROOT / "README.md").read_text().split(header, 1)[1].splitlines()[1:]
    names = []
    for row in rows:
        if not row.startswith("|"):
            break
        names += [name for name in re.findall(r"`([^`]+)`", row.split("|")[1])
                  if not name.startswith("ico-cqed ")]
    return names


def test_the_refused_inputs_table_is_found():
    assert "SystemParams" in refused_input_entry_points()


@pytest.mark.parametrize("name", sorted(set(refused_input_entry_points())))
def test_each_refused_input_entry_point_exists(name):
    # a name of ico_cqed (a module among them) or of one of its modules, then
    # its attributes in turn
    head, *rest = name.split(".")
    modules = [importlib.import_module(f"ico_cqed.{info.name}")
               for info in pkgutil.iter_modules(ico_cqed.__path__)]
    owner = next((m for m in [ico_cqed, *modules] if hasattr(m, head)), None)
    assert owner is not None, f"{head} is not a name of ico_cqed or of its modules"
    value = getattr(owner, head)
    for attr in rest:
        assert hasattr(value, attr), f"{name}: no {attr}"
        value = getattr(value, attr)


# ---------------------------------------------------------------- README's fast paths


def fast_path_places() -> list[str]:
    """The names in the "Where" column of README's fast-path table, each a
    module of ico_cqed and then attributes."""
    header = "| Fast path | Where | Paid for by | Removed, VARIANT / PARENT |\n"
    rows = (ROOT / "README.md").read_text().split(header, 1)[1].splitlines()[1:]
    return [name for row in rows[: [r.startswith("|") for r in rows].index(False)]
            for name in re.findall(r"`([^`]+)`", row.split("|")[2])]


def test_the_fast_path_table_is_found():
    assert "cli.build_parser" in fast_path_places()


@pytest.mark.parametrize("name", fast_path_places())
def test_each_fast_path_place_resolves(name):
    module, *attrs = name.split(".")
    value = importlib.import_module(f"ico_cqed.{module}")
    for attr in attrs:
        assert hasattr(value, attr), f"{name}: no {attr}"
        value = getattr(value, attr)


def test_every_cache_in_src_has_a_fast_path_row():
    cached = {f"{info.name}.{name}"
              for info in pkgutil.iter_modules(ico_cqed.__path__)
              for name, value in vars(importlib.import_module(f"ico_cqed.{info.name}")).items()
              if hasattr(value, "cache_info")
              and value.__module__ == f"ico_cqed.{info.name}"}
    assert cached == {"oracle._atom_field_ket", "oracle._full_kets", "cli.build_parser"}
    assert cached <= set(fast_path_places())
