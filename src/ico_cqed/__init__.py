"""Two-cavity, two-level-atom simulator with a coherently controlled
traversal order.

The closed forms in ``engine`` give every state in one shot; ``oracle``
rebuilds the same dynamics by brute-force matrix propagation over a
truncated Fock space and exists purely to keep the closed forms honest.
``observables`` turns states into probabilities, reduced density matrices,
linear entropies, and inversions; ``sweep`` and ``cli`` drive reproducible
parameter scans.
"""

from ._version import __version__
from .engine import (
    CavityOrder,
    bell_resonance_gT,
    bell_state,
    coeffs_c,
    coeffs_s,
    general_postselect,
    ico_postselected_state,
    state_after_both,
)
from .errors import (
    ConfigError,
    DegenerateBranchError,
    FlavorMismatchError,
    ImpossiblePostselectionError,
    TruncationOverflowError,
)
from .observables import (
    FieldDensityMatrix,
    condition_on_atom,
    ket_probability,
    linear_entropy,
    reduced_cavity0,
    sigma_z_expectation,
    sigma_z_ico,
    sigma_z_series,
)
from .oracle import (
    TruncationWindow,
    evolve,
    hadamard_control,
    jc_propagator,
    measure_control,
    schrodinger_phase,
)
from .states import (
    MIN_OUTCOME_PROBABILITY,
    PRUNE_EPSILON,
    AtomFieldKet,
    AtomLevel,
    FieldsKet,
    FullKet,
    PureState,
    SystemParams,
)
from .sweep import (
    FIGURE_PRESETS,
    AtomicInversion,
    BranchEntropy,
    ControlProbabilityColumn,
    FigurePreset,
    KetProbability,
    SweepConfig,
    Table,
    config_from_dict,
    figure_meta,
    figure_table,
    grid_points,
    run_sweep,
    sweep_meta,
)
from .verify import VerifyReport, random_params, run_verification

__all__ = [
    "__version__",
    "AtomFieldKet",
    "AtomLevel",
    "AtomicInversion",
    "BranchEntropy",
    "CavityOrder",
    "ConfigError",
    "ControlProbabilityColumn",
    "DegenerateBranchError",
    "FIGURE_PRESETS",
    "FieldDensityMatrix",
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
    "ico_postselected_state",
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
    "sigma_z_ico",
    "sigma_z_series",
    "state_after_both",
    "sweep_meta",
]
