"""The package's public surface: ``ico_cqed.__all__`` is pinned, so a name
cannot leak in (a helper import) or drop out unnoticed."""

from types import ModuleType

import ico_cqed

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
