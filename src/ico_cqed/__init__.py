"""Two-cavity, two-level-atom simulator with a coherently controlled
traversal order.

The closed forms in ``engine`` give every state in one shot; ``oracle``
rebuilds the same dynamics by brute-force matrix propagation over a
truncated Fock space and exists purely to keep the closed forms honest.
``observables`` turns states into probabilities, reduced density matrices,
linear entropies, and inversions; ``sweep`` and ``cli`` drive reproducible
parameter scans.
"""

import types as _types

from ._version import __version__
from .engine import (
    CavityOrder,
    bell_resonance_gT,
    bell_state,
    coeffs_c,
    coeffs_s,
    general_postselect,
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
    condition_on_atom,
    ket_probability,
    linear_entropy,
    reduced_cavity0,
    sigma_z_expectation,
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

# Every public name once: what the imports above bind, less the submodules
# they bind beside it and the private names.
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
