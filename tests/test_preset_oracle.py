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
nothing with.  The boundary sweeps, and generated sweep configs that start
from the 40 seeded ones, are also run through the CLI and their CSV read
back.
"""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ico_cqed import FIGURE_PRESETS, MIN_OUTCOME_PROBABILITY, config_from_dict, run_sweep
from ico_cqed.cli import main
from ico_cqed.sweep import SCENARIOS
from helpers import SEEDED_SWEEPS, oracle_column, oracle_outcomes, seeded_sweep_config

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
            # the message is formatted only for a failing cell
            if (v is None) != math.isnan(o) or v is not None and not abs(v - o) <= TOL:
                pytest.fail(f"{cfg.scenario} row {i} {q.column_id}: {v!r} vs oracle {o!r}")


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


LEVEL = st.sampled_from("eg")
#: Each angle over its full range: theta and xi in [0, pi/2], varphi and chi in [0, 2 pi).
ANGLES = {"theta": st.floats(0.0, math.pi / 2), "xi": st.floats(0.0, math.pi / 2),
          "varphi": st.floats(0.0, 2 * math.pi, exclude_max=True),
          "chi": st.floats(0.0, 2 * math.pi, exclude_max=True)}


@st.composite
def sweep_data(draw) -> dict:
    """A valid sweep config as JSON data: any scenario, n, m <= 8, one to
    seven columns of every kind (a ket_prob within two photons of (n, m),
    some unreachable), every angle over its full range, and a grid of at
    most 200 points with gT <= 30."""
    scenario = draw(st.sampled_from(SCENARIOS))
    n, m = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    kinds = [st.builds(lambda a, dn, dm: {"kind": "ket_prob", "atom": a, "n": max(n + dn, 0),
                                          "m": max(m + dm, 0)},
                       LEVEL, st.integers(-2, 2), st.integers(-2, 2)),
             st.just({"kind": "sigma_z"}),
             st.builds(lambda a: {"kind": "entropy", "atom_branch": a}, LEVEL)]
    if scenario.startswith("ico"):
        kinds.append(st.just({"kind": "control_prob"}))
    start = draw(st.floats(0.0, 30.0))
    points = draw(st.integers(1, 200))
    step = draw(st.floats(1e-3, max(30.0 - start, 1e-3)))
    return {"scenario": scenario, "quantities": draw(st.lists(st.one_of(kinds), min_size=1,
                                                              max_size=7)),
            "n": n, "m": m, **{name: draw(angle) for name, angle in ANGLES.items()},
            "omega_t": draw(st.floats(-10.0, 10.0)), "gT_start": start, "gT_step": step,
            "gT_stop": min(start + (points - 1) * step, 30.0)}


def _seeded_examples(test):
    for index in range(SEEDED_SWEEPS):
        test = example(data=seeded_sweep_config(index))(test)
    return test


@settings(max_examples=20)
@_seeded_examples
@given(data=sweep_data())
def test_generated_sweep_matches_oracle(tmp_path_factory, data):
    # every cell of run_sweep and of the CLI CSV against the oracle, the 40
    # seeded sweeps first
    table = assert_sweep_matches_oracle(data, tmp_path_factory.getbasetemp())
    assert len(table.rows) <= 200
