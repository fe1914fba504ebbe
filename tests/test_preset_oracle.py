"""Every preset cell against the matrix oracle.

Each preset sweep is rebuilt through the oracle's batched chain: the
1,001 grid points of a sweep evolve as one batch in oracle._evolve_branches,
then recombine -> condition, the chain that verify and the PureState views
also run.  The observables are computed here with numpy, not through
ico_cqed.observables, so the kernel and the observable column functions that
write the preset CSVs are both checked against code they share nothing with.
"""

import math

import numpy as np
import pytest

from ico_cqed import (
    FIGURE_PRESETS,
    MIN_OUTCOME_PROBABILITY,
    AtomicInversion,
    ControlProbabilityColumn,
    KetProbability,
    SystemParams,
    TruncationWindow,
    run_sweep,
)
from ico_cqed.oracle import _evolve_branches, condition, recombine

TOL = 1e-9


def oracle_outcomes(cfg, grid):
    """The window, the conditional amplitudes as (atom, n, m, point) on it,
    zero where the scenario's control outcome is refused, and the outcome
    probability per point."""
    j = 0 if cfg.scenario in ("series_C0C1", "ico_j0") else 1
    series = cfg.scenario.startswith("series")
    # a definite order is the control-j branch alone
    theta, varphi = (j * math.pi / 2, 0.0) if series else (cfg.theta, cfg.varphi)
    draws = [(SystemParams(g=1.0, T=gt, theta=theta, varphi=varphi, xi=cfg.xi, chi=cfg.chi,
                           n=cfg.n, m=cfg.m), 2 * gt) for gt in grid]
    w = TruncationWindow.for_params(draws[0][0])
    branches = _evolve_branches(draws, w)
    amps, probs = condition(branches if series else recombine(branches), j)
    return w, amps.reshape(2, w.levels, w.levels, len(grid)), np.array(probs)


def oracle_column(q, w, amps, probs):
    """One column of cells; NaN marks an empty cell."""
    if isinstance(q, ControlProbabilityColumn):
        return probs
    population = amps.real**2 + amps.imag**2
    empty = probs < MIN_OUTCOME_PROBABILITY
    if isinstance(q, KetProbability):
        inside = q.n <= w.n_max and q.m <= w.n_max
        cells = population[q.atom, q.n, q.m] if inside else np.zeros(len(probs))
    elif isinstance(q, AtomicInversion):
        cells = population[0].sum(axis=(0, 1)) - population[1].sum(axis=(0, 1))
    else:
        weight = population[q.atom_branch].sum(axis=(0, 1))
        empty |= weight < MIN_OUTCOME_PROBABILITY
        psi = amps[q.atom_branch] / np.sqrt(np.where(empty, 1.0, weight))
        rho = np.einsum("nmp,kmp->nkp", psi, psi.conj())
        cells = 1.0 - (np.abs(rho) ** 2).sum(axis=(0, 1))
    return np.where(empty, np.nan, cells)


@pytest.mark.parametrize("index,figure_id", list(enumerate(sorted(FIGURE_PRESETS))))
def test_preset_rows_match_oracle(index, figure_id):
    for cfg in FIGURE_PRESETS[figure_id].sweeps:
        table = run_sweep(cfg)
        grid = [row[0] for row in table.rows]
        assert len(grid) == 1001
        w, amps, probs = oracle_outcomes(cfg, grid)
        for k, q in enumerate(cfg.quantities):
            column = oracle_column(q, w, amps, probs)
            for i, (row, o) in enumerate(zip(table.rows, column.tolist())):
                v = row[1 + k]
                where = f"{cfg.scenario} row {i} {q.column_id}: {v!r} vs oracle {o!r}"
                assert (v is None) == math.isnan(o), where
                if v is not None:
                    assert abs(v - o) <= TOL, where
