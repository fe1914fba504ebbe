"""The array sweep against the scalar PureState path, cell by cell.

``run_sweep`` evaluates a whole g*T grid at once through
``engine.grid_amplitudes``, the kernel that also serves
``state_after_both`` and ``general_postselect``.  The reference below
rebuilds every row one grid point at a time from the scalar closed forms
in ``helpers`` and the scalar observables, the way sweeps were computed
before they were vectorised.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from ico_cqed import (
    FIGURE_PRESETS,
    MIN_OUTCOME_PROBABILITY,
    AtomFieldKet,
    AtomicInversion,
    BranchEntropy,
    CavityOrder,
    ControlProbabilityColumn,
    ImpossiblePostselectionError,
    KetProbability,
    SweepConfig,
    SystemParams,
    condition_on_atom,
    grid_points,
    ket_probability,
    linear_entropy,
    reduced_cavity0,
    run_sweep,
    sigma_z_expectation,
)
from ico_cqed import engine
from ico_cqed.engine import OFFSETS, grid_amplitudes, measurement_phase, reachable_kets
from ico_cqed.sweep import SCENARIOS
from helpers import E, G, scalar_postselect, scalar_state_after_both

TOL = 1e-12


def reference_cell(q, state, control_prob):
    if isinstance(q, ControlProbabilityColumn):
        return control_prob
    if state is None:
        return None
    if isinstance(q, KetProbability):
        return ket_probability(state, AtomFieldKet(q.atom, q.n, q.m))
    if isinstance(q, AtomicInversion):
        return sigma_z_expectation(state)
    try:
        fields, _ = condition_on_atom(state, q.atom_branch)
    except ImpossiblePostselectionError:
        return None
    return linear_entropy(reduced_cavity0(fields))


def reference_rows(cfg):
    """One scalar PureState pipeline per grid point."""
    rows = []
    for gt in grid_points(cfg):
        p = SystemParams(
            g=1.0, T=gt, theta=cfg.theta, varphi=cfg.varphi,
            xi=cfg.xi, chi=cfg.chi, n=cfg.n, m=cfg.m,
        )
        control_prob = None
        if cfg.scenario == "series_C0C1":
            state = scalar_state_after_both(CavityOrder.C0_THEN_C1, p, p.T)
        elif cfg.scenario == "series_C1C0":
            state = scalar_state_after_both(CavityOrder.C1_THEN_C0, p, p.T)
        else:
            j = 0 if cfg.scenario == "ico_j0" else 1
            try:
                state, control_prob = scalar_postselect(j, p, cfg.omega_t)
            except ImpossiblePostselectionError as exc:
                state, control_prob = None, exc.probability
        rows.append((gt,) + tuple(reference_cell(q, state, control_prob) for q in cfg.quantities))
    return rows


def assert_matches_reference(cfg):
    table = run_sweep(cfg)
    ref = reference_rows(cfg)
    assert len(table.rows) == len(ref)
    for i, (row, ref_row) in enumerate(zip(table.rows, ref)):
        assert row[0] == ref_row[0]
        for q, v, r in zip(cfg.quantities, row[1:], ref_row[1:]):
            where = f"row {i} {q.column_id}: {v!r} vs {r!r}"
            assert (v is None) == (r is None), where
            if v is not None:
                assert abs(v - r) <= TOL, where
            if isinstance(q, KetProbability):
                # Both paths prune the same amplitudes, so exact zeros agree.
                assert (v == 0.0) == (r == 0.0), where
    return table


@pytest.mark.parametrize("figure_id", sorted(FIGURE_PRESETS))
def test_preset_sweeps_match_scalar_path(figure_id):
    for cfg in FIGURE_PRESETS[figure_id].sweeps:
        assert_matches_reference(cfg)


# Kets reachable from (n, m), plus one that never is.
_KET_OFFSETS = (
    (E, 0, 0), (E, -1, 0), (E, 1, -1), (G, 0, 1), (G, 1, 0), (G, 0, 0), (G, 1, -1), (E, 2, 0),
)


def general_config(index):
    """Seeded custom sweep: scenario cycles through all four, angles and
    the measurement phase are random, n and m lie in 0..8.  Index 3 is the
    balanced ico_j1 sweep whose control-1 outcome is refused at gT = 0."""
    rng = np.random.default_rng([2509, index])
    scenario = SCENARIOS[index % 4]
    n, m = (int(v) for v in rng.integers(0, 9, size=2))
    offsets = [_KET_OFFSETS[i] for i in rng.choice(len(_KET_OFFSETS), 3, replace=False)]
    quantities = [
        KetProbability(atom, n + dn, m + dm)
        for atom, dn, dm in offsets
        if n + dn >= 0 and m + dm >= 0
    ]
    quantities += [AtomicInversion(), BranchEntropy(E), BranchEntropy(G)]
    if scenario.startswith("ico"):
        quantities.insert(0, ControlProbabilityColumn())
    angles = {
        "theta": float(rng.uniform(0.0, math.pi / 2)),
        "varphi": float(rng.uniform(0.0, 2 * math.pi)),
        "xi": float(rng.uniform(0.0, math.pi / 2)),
        "chi": float(rng.uniform(0.0, 2 * math.pi)),
    }
    if index == 3:
        angles.update(theta=math.pi / 4, varphi=0.0)
    return SweepConfig(
        scenario,
        tuple(quantities),
        n=n,
        m=m,
        omega_t=float(rng.uniform(0.0, 2 * math.pi)),
        gT_start=0.0,
        gT_stop=10.0,
        gT_step=0.05,
        **angles,
    )


@pytest.mark.parametrize("index", range(24))
def test_general_sweeps_match_scalar_path(index):
    cfg = general_config(index)
    table = assert_matches_reference(cfg)
    if index == 3:
        assert cfg.scenario == "ico_j1"
        assert table.rows[0][2:] == (None,) * (len(cfg.quantities) - 1)


@pytest.mark.parametrize(
    "scenario,prep",
    [
        ("ico_j0", {"theta": 0.0}),
        ("ico_j1", {"theta": math.pi / 2, "varphi": 1.0}),
        ("ico_j1", {"theta": math.pi / 4, "xi": math.pi / 2, "n": 3, "m": 3}),
        ("series_C1C0", {"xi": math.pi / 2, "chi": 2.0, "n": 0, "m": 2}),
    ],
)
def test_edge_preparations_match_scalar_path(scenario, prep):
    quantities = (KetProbability(G, 0, 0), AtomicInversion(), BranchEntropy(E), BranchEntropy(G))
    if scenario.startswith("ico"):
        quantities = (ControlProbabilityColumn(),) + quantities
    cfg = SweepConfig(scenario, quantities, gT_stop=7.0, gT_step=0.07, **prep)
    assert_matches_reference(cfg)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cells_are_plain_floats_or_none(scenario):
    # numpy scalars would print as 'np.float64(...)' in the CSV.
    quantities = (KetProbability(E, 1, 1), KetProbability(G, 5, 5), AtomicInversion(),
                  BranchEntropy(E), BranchEntropy(G))
    if scenario.startswith("ico"):
        quantities = (ControlProbabilityColumn(),) + quantities
    table = run_sweep(SweepConfig(scenario, quantities, n=1, m=1, gT_stop=3.0, gT_step=0.5))
    cells = [v for row in table.rows for v in row]
    assert None in cells
    assert all(v is None or type(v) is float for v in cells)


def test_slots_of_negative_occupation_kets_are_exactly_zero():
    # a slot whose ket would hold -1 photons carries the sine of a zero
    # doublet rate, so is 0.0 itself before any pruning, not merely below
    # PRUNE_EPSILON: n = 0 and m = 0, both orders, array and scalar forms
    rng = np.random.default_rng(29)
    size = 40
    g = rng.uniform(0.5, 2.0, size)
    t_first = rng.uniform(0.0, 10.0, size) / g
    t_second = t_first * rng.uniform(0.0, 1.0, size)
    xi, chi = rng.uniform(0.0, math.pi / 2, size), rng.uniform(0.0, 2 * math.pi, size)
    ce, se = np.cos(xi), np.exp(1j * chi) * np.sin(xi)
    fills = [(0, 0)] + [(0, k) for k in range(1, 6)] + [(k, 0) for k in range(1, 6)]
    checked = 0
    for n, m in fills:
        rates_n, rates_m = ((g * np.sqrt(k + 1.0), g * np.sqrt(float(k))) for k in (n, m))
        orders = ((engine._LAYOUT_FIRST_C0, rates_n, rates_m),
                  (engine._LAYOUT_FIRST_C1, rates_m, rates_n))
        for layout, first, second in orders:
            slots = engine._slot_amplitudes(np, first, second, t_first, t_second, ce, se)
            points = [
                engine._slot_amplitudes(math, (first[0][i], first[1][i]),
                                        (second[0][i], second[1][i]), t_first[i],
                                        t_second[i], ce[i], se[i])
                for i in range(0, size, 8)
            ]
            for s, (_, dn, dm) in enumerate(layout):
                if n + dn < 0 or m + dm < 0:
                    assert (slots[s] == 0.0).all()
                    assert all(point[s] == 0.0 for point in points)
                    checked += 1
    assert checked == 2 * 4 + 10 * 2 * 2


def test_entropy_cells_are_never_negative():
    # At gT = 0 both branches are pure, and rounding puts their purity an
    # ulp above 1 on the array path and on the scalar one.
    cfg = SweepConfig(
        "ico_j1",
        (BranchEntropy(E), BranchEntropy(G)),
        n=8,
        m=1,
        theta=0.495759013096559,
        varphi=3.806751394051166,
        xi=1.5088417069616182,
        chi=3.007030236600728,
        omega_t=3.8388260514082466,
        gT_stop=1.0,
        gT_step=0.1,
    )
    for rows in (run_sweep(cfg).rows, reference_rows(cfg)):
        cells = [v for row in rows for v in row[1:]]
        assert None not in cells
        assert min(cells) >= 0.0


@pytest.mark.parametrize("n, m", [(0, 0), (2, 0), (1, 3), (4, 4)])
def test_kernel_per_point_arrays_match_scalar_path(n, m):
    # every argument of grid_amplitudes varies from point to point, the
    # second transit included; series columns are compared with the scalar
    # branch, ico columns after measurement_phase with scalar_postselect
    rng = np.random.default_rng([7, n, m])
    size = 40
    g = rng.uniform(0.5, 2.0, size)
    t_first = rng.uniform(0.0, 10.0, size) / g
    t_second = t_first * rng.uniform(0.0, 1.0, size)
    angles = {
        "xi": rng.uniform(0.0, math.pi / 2, size),
        "chi": rng.uniform(0.0, 2 * math.pi, size),
        "theta": rng.uniform(0.0, math.pi / 2, size),
        "varphi": rng.uniform(0.0, 2 * math.pi, size),
    }
    omega_t = rng.uniform(0.0, 20.0, size)
    for scenario in SCENARIOS:
        ico = scenario.startswith("ico")
        amps, prob = grid_amplitudes(
            scenario, n, m, g=g, t_first=t_first, t_second=t_first if ico else t_second,
            **angles,
        )
        if ico:
            amps = measurement_phase(n, m, amps, omega_t)
        rows, basis = reachable_kets(n, m)
        assert [OFFSETS[r] for r in rows] == [(k.atom, k.n - n, k.m - m) for k in basis]
        assert amps.shape == (len(OFFSETS), size)
        assert not np.delete(amps, rows, axis=0).any()
        for i in range(size):
            p = SystemParams(g=g[i], T=t_first[i], n=n, m=m, **{k: v[i] for k, v in angles.items()})
            if ico:
                state, ref_prob = scalar_postselect(int(scenario[-1]), p, omega_t[i])
                assert abs(prob[i] - ref_prob) <= 1e-15
            else:
                order = CavityOrder.C0_THEN_C1 if scenario == "series_C0C1" else CavityOrder.C1_THEN_C0
                state = scalar_state_after_both(order, p, t_second[i])
            column = dict(zip(basis, amps[rows, i].tolist()))
            assert {k for k, a in column.items() if a} == set(state.kets())
            assert max(abs(column[k] - a) for k, a in state.items()) <= 1e-15


def test_kernel_mixes_photon_numbers_per_point():
    # n and m vary from point to point as well: each column is the bits of a
    # call at that point's scalar (n, m), phase included, on the rows that
    # point reaches, and exactly 0 on the others; point 0 is the balanced
    # control at gT = 0, whose outcome 1 is refused
    rng = np.random.default_rng(23)
    size = 60
    n, m = rng.integers(0, 5, size), rng.integers(0, 5, size)
    g = rng.uniform(0.5, 2.0, size)
    t_first = rng.uniform(0.0, 10.0, size) / g
    t_second = t_first * rng.uniform(0.0, 1.0, size)
    angles = {
        "xi": rng.uniform(0.0, math.pi / 2, size),
        "chi": rng.uniform(0.0, 2 * math.pi, size),
        "theta": rng.uniform(0.0, math.pi / 2, size),
        "varphi": rng.uniform(0.0, 2 * math.pi, size),
    }
    t_first[0] = t_second[0] = 0.0
    angles["theta"][0], angles["varphi"][0] = math.pi / 4, 0.0
    omega_t = rng.uniform(0.0, 20.0, size)
    negative = np.array([(n + dn < 0) | (m + dm < 0) for _, dn, dm in OFFSETS])
    assert negative.any(axis=1).sum() == 6 and not negative.all(axis=1).any()
    refused = 0
    for scenario in SCENARIOS:
        amps, prob = grid_amplitudes(scenario, n, m, g=g, t_first=t_first,
                                     t_second=t_second, **angles)
        assert amps.shape == (len(OFFSETS), size)
        phased = measurement_phase(n, m, amps, omega_t)
        assert not amps[negative].any()
        for i in range(size):
            point = {name: v[i] for name, v in angles.items()}
            one, prob_one = grid_amplitudes(
                scenario, int(n[i]), int(m[i]), g=g[i], t_first=t_first[i],
                t_second=t_second[i], **point,
            )
            rows_one, _ = reachable_kets(int(n[i]), int(m[i]))
            assert one.shape == (len(OFFSETS), 1)
            assert one[rows_one, 0].tobytes() == amps[rows_one, i].tobytes()
            assert not np.delete(amps[:, i], rows_one).any()
            assert not np.delete(one[:, 0], rows_one).any()
            assert (prob is None) == (prob_one is None)
            if prob is not None:
                assert prob_one.tolist() == [prob[i]]
                refused += prob[i] < MIN_OUTCOME_PROBABILITY
            one = measurement_phase(int(n[i]), int(m[i]), one, omega_t[i])
            assert one[rows_one, 0].tobytes() == phased[rows_one, i].tobytes()
            assert not np.delete(phased[:, i], rows_one).any()
    assert refused == 1


@pytest.mark.parametrize("index", range(8))
def test_cells_do_not_depend_on_the_rest_of_the_grid(index):
    # a one-point sweep gives the bits of the same point inside a longer grid
    cfg = general_config(index)
    start = cfg.gT_start + 17 * cfg.gT_step
    alone = run_sweep(replace(cfg, gT_start=start, gT_stop=start))
    longer = run_sweep(replace(cfg, gT_start=start, gT_stop=start + 20 * cfg.gT_step))
    assert alone.rows[0] == longer.rows[0]
