"""Preset rows against the matrix oracle.

The first row and 20 seeded rows of every preset sweep are rebuilt through
oracle.evolve -> hadamard_control -> measure_control, the PureState views
of the oracle's recombine -> condition chain that verify also runs.  The
observables are computed here with numpy, not through ico_cqed.observables,
so the kernel and the observable column functions that write the preset
CSVs are both checked against code they share nothing with.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from ico_cqed import (
    FIGURE_PRESETS,
    MIN_OUTCOME_PROBABILITY,
    AtomicInversion,
    ControlProbabilityColumn,
    ImpossiblePostselectionError,
    KetProbability,
    SystemParams,
    TruncationWindow,
    evolve,
    hadamard_control,
    measure_control,
    run_sweep,
)
from helpers import E

ROWS = 20
TOL = 1e-9


def oracle_outcome(cfg, gt):
    """The conditional atom-field amplitudes keyed by (atom, n, m), or None
    where the scenario's control outcome is refused, and its probability."""
    p = SystemParams(g=1.0, T=gt, theta=cfg.theta, varphi=cfg.varphi,
                     xi=cfg.xi, chi=cfg.chi, n=cfg.n, m=cfg.m)
    window = TruncationWindow.for_params(p)
    j = 0 if cfg.scenario in ("series_C0C1", "ico_j0") else 1
    if cfg.scenario.startswith("series"):
        # a definite order is the control-j branch alone
        full = evolve(replace(p, theta=j * math.pi / 2, varphi=0.0), 2 * gt, window)
    else:
        full = hadamard_control(evolve(p, 2 * gt, window))
    try:
        state, prob = measure_control(full, j)
    except ImpossiblePostselectionError as err:
        return None, err.probability
    return {(k.atom, k.n, k.m): a for k, a in state.items()}, prob


def oracle_cell(q, amps, prob):
    if isinstance(q, ControlProbabilityColumn):
        return prob
    if amps is None:
        return None
    if isinstance(q, KetProbability):
        return abs(amps.get((q.atom, q.n, q.m), 0.0)) ** 2
    if isinstance(q, AtomicInversion):
        return sum((1.0 if atom is E else -1.0) * abs(a) ** 2 for (atom, _, _), a in amps.items())
    branch = {(n, m): a for (atom, n, m), a in amps.items() if atom is q.atom_branch}
    weight = sum(abs(a) ** 2 for a in branch.values())
    if weight < MIN_OUTCOME_PROBABILITY:
        return None
    ns = sorted({n for n, _ in branch})
    ms = sorted({m for _, m in branch})
    psi = np.zeros((len(ns), len(ms)), dtype=complex)
    for (n, m), a in branch.items():
        psi[ns.index(n), ms.index(m)] = a / math.sqrt(weight)
    rho = psi @ psi.conj().T
    return 1.0 - float(np.sum(np.abs(rho) ** 2))


@pytest.mark.parametrize("index,figure_id", list(enumerate(sorted(FIGURE_PRESETS))))
def test_preset_rows_match_oracle(index, figure_id):
    for cfg in FIGURE_PRESETS[figure_id].sweeps:
        table = run_sweep(cfg)
        rng = np.random.default_rng([1313, index])
        picked = [0] + sorted(rng.choice(np.arange(1, len(table.rows)), ROWS, replace=False))
        for i in picked:
            gt, *cells = table.rows[i]
            amps, prob = oracle_outcome(cfg, gt)
            for q, v in zip(cfg.quantities, cells):
                o = oracle_cell(q, amps, prob)
                where = f"{cfg.scenario} row {i} {q.column_id}: {v!r} vs oracle {o!r}"
                assert (v is None) == (o is None), where
                if v is not None:
                    assert abs(v - o) <= TOL, where
