"""Every preset cell, and the cells of sweeps at the boundaries, against the
matrix oracle.

Each sweep is rebuilt through the oracle's batched chain
(helpers.oracle_outcomes): the grid points of a sweep evolve as one batch in
oracle._evolve_branches, from a draw table built from the grid without a
SystemParams per point, and are put back on the sweep's window, then
recombine -> condition, the chain that verify and the PureState views also
run.  The observables are computed with numpy (helpers.oracle_column), not
through ico_cqed.observables, so the kernel and the observable column
functions that write the CSVs are both checked against code they share
nothing with.  The boundary sweeps are also run through the CLI and their
CSV read back.
"""

import json
import math

import pytest

from ico_cqed import FIGURE_PRESETS, MIN_OUTCOME_PROBABILITY, config_from_dict, run_sweep
from ico_cqed.cli import main
from helpers import oracle_column, oracle_outcomes

TOL = 1e-9

#: Every quantity kind, for n = 1 and m = 2.
ALL_KINDS = [{"kind": "ket_prob", "atom": "e", "n": 1, "m": 2},
             {"kind": "ket_prob", "atom": "g", "n": 1, "m": 3},
             {"kind": "ket_prob", "atom": "g", "n": 2, "m": 2},
             {"kind": "sigma_z"}, {"kind": "entropy", "atom_branch": "e"},
             {"kind": "entropy", "atom_branch": "g"}]

#: The gT at which the ico_j1 outcome of an excited atom, n = 1 and m = 2, and
#: the balanced control preparation has probability MIN_OUTCOME_PROBABILITY.
THRESHOLD_GT = 0.00086944193362793


def assert_cells_match_oracle(cfg, rows):
    """Each cell of rows, a sweep's (gT, cells...) rows, equals the oracle's
    within TOL, and is empty exactly where the oracle's is."""
    grid = [row[0] for row in rows]
    w, amps, probs = oracle_outcomes(cfg, grid)
    for k, q in enumerate(cfg.quantities):
        column = oracle_column(q, w, amps, probs)
        for i, (row, o) in enumerate(zip(rows, column.tolist(), strict=True)):
            v = row[1 + k]
            where = f"{cfg.scenario} row {i} {q.column_id}: {v!r} vs oracle {o!r}"
            assert (v is None) == math.isnan(o), where
            if v is not None:
                assert abs(v - o) <= TOL, where


def assert_sweep_matches_oracle(data, tmp_path):
    """The sweep of the JSON config data, as run_sweep returns it and as the
    CLI writes it, read back, cell by cell against the oracle; returns the
    table."""
    cfg = config_from_dict(data)
    table = run_sweep(cfg)
    assert_cells_match_oracle(cfg, table.rows)
    config, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    config.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    header, *lines = out.read_text().splitlines()
    assert header == ",".join(table.columns)  # a ket_prob id holds commas itself
    read_back = [tuple(float(c) if c else None for c in line.split(",")) for line in lines]
    assert_cells_match_oracle(cfg, read_back)
    return table


@pytest.mark.parametrize("index,figure_id", list(enumerate(sorted(FIGURE_PRESETS))))
def test_preset_rows_match_oracle(index, figure_id):
    for cfg in FIGURE_PRESETS[figure_id].sweeps:
        table = run_sweep(cfg)
        assert len(table.rows) == 1001
        assert_cells_match_oracle(cfg, table.rows)


@pytest.mark.parametrize("side", [1, -1])
def test_control_probability_beside_the_refusal_threshold(tmp_path, side):
    # five points each just above (1) or just below (-1) the threshold, the
    # probability within 2.1 % of it: above, every conditional cell is
    # filled from a residual of norm 1e-6; below, every one is empty
    start, stop = sorted(THRESHOLD_GT * (1 + side * shift) for shift in (1e-3, 5e-3))
    data = {"scenario": "ico_j1", "quantities": [*ALL_KINDS, {"kind": "control_prob"}],
            "n": 1, "m": 2, "gT_start": start, "gT_step": THRESHOLD_GT * 1e-3, "gT_stop": stop}
    table = assert_sweep_matches_oracle(data, tmp_path)
    *conditional, probabilities = table.cells[1:]
    assert len(probabilities) == 5
    for p in probabilities:
        assert 1.0 < (p / MIN_OUTCOME_PROBABILITY) ** side < 1.021
    assert all((cell is None) == (side < 0) for column in conditional for cell in column)


def test_an_entropy_branch_of_zero_weight_is_empty(tmp_path):
    # an excited atom in two empty cavities: the ground branch has no weight
    # at gT = 0 and, its amplitude sin(gT) below PRUNE_EPSILON, at gT = pi
    data = {"scenario": "series_C0C1", "quantities": ALL_KINDS[3:], "gT_start": 0.0,
            "gT_step": math.pi / 8, "gT_stop": math.pi}
    table = assert_sweep_matches_oracle(data, tmp_path)
    ground = table.cells[-1]
    assert ground[0] is None and ground[-1] is None
    assert all(cell is not None for cell in ground[1:-1])


@pytest.mark.parametrize("scenario", ["series_C1C0", "ico_j0", "ico_j1"])
def test_a_ground_state_atom_at_xi_pi_over_2(tmp_path, scenario):
    # xi = pi/2 exactly: cos(xi) = 6.1e-17, below PRUNE_EPSILON, leaves the
    # oracle no excited preparation while the closed forms carry it
    quantities = [*ALL_KINDS, {"kind": "control_prob"}] if scenario.startswith("ico") else ALL_KINDS
    data = {"scenario": scenario, "quantities": quantities, "n": 1, "m": 2, "xi": math.pi / 2,
            "chi": 1.1, "theta": 0.7, "varphi": 2.3, "gT_start": 0.0, "gT_step": 0.05,
            "gT_stop": 5.0}
    table = assert_sweep_matches_oracle(data, tmp_path)
    assert len(table.rows) == 101
