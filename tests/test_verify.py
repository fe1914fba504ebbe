"""run_verification: input validation, the worst-draw record, the grouped
closed-form evaluation, and the array chain it runs against the public
PureState chain of the oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ico_cqed import (
    AtomFieldKet,
    ImpossiblePostselectionError,
    PureState,
    SystemParams,
    TruncationWindow,
    evolve,
    general_postselect,
    hadamard_control,
    measure_control,
    run_verification,
    schrodinger_phase,
)
from ico_cqed.verify import (
    _amplitude_deviation,
    _closed_forms,
    _compare_draw,
    _conditional,
    _recombined,
    random_params,
)
from helpers import G, max_amp_diff


def window_vector(w, state):
    vec = np.zeros(w.atom_field_dim, dtype=complex)
    for ket, amp in state.items():
        vec[w.index(ket.atom, ket.n, ket.m)] = amp
    return vec


def seeded_draws(seed, count):
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        p = random_params(rng)
        draws.append((p, p.T1 + p.T + float(rng.uniform(0.0, 2.0))))
    # a doublet rotated by k*pi/2 leaves amplitudes of about 1e-16 that the
    # pruning of the evolved branches drops
    for _ in range(count // 3):
        p = random_params(rng)
        k = int(rng.integers(1, 5))
        rate = math.sqrt(max(1, int(rng.choice([p.n, p.m, p.n + 1, p.m + 1]))))
        resonant = replace(p, T=k * math.pi / (2 * p.g * rate), T1=None)
        draws.append((resonant, resonant.T1 + resonant.T))
    # balanced control at gT = 0 and at gT = 3e-5: outcome 1 is exactly
    # impossible in the first and rounding noise in the second
    for T in (0.0, 3e-5):
        p = SystemParams(g=1.0, T=T, theta=math.pi / 4, omega=1.3)
        draws.append((p, p.T1 + p.T + 0.5))
    return draws


def test_array_chain_equals_public_chain():
    refused = 0
    for p, t in seeded_draws(11, 150):
        w = TruncationWindow.for_params(p)
        mixed = hadamard_control(evolve(p, t, w))
        recombined = _recombined(p, t, w)
        for j in (0, 1):
            try:
                state, prob = measure_control(mixed, j)
            except ImpossiblePostselectionError as err:
                with pytest.raises(ImpossiblePostselectionError) as mine:
                    _conditional(recombined, j, p, t, w)
                assert mine.value.probability == err.probability
                refused += 1
                continue
            numeric, prob_numeric = _conditional(recombined, j, p, t, w)
            assert abs(prob_numeric - prob) <= 1e-15
            expected = window_vector(w, schrodinger_phase(state, p.omega, t))
            assert np.max(np.abs(numeric - expected)) <= 1e-15
            # the same pruning: identical support
            assert np.array_equal(numeric != 0, expected != 0)
    assert refused == 2


def test_analytic_ket_outside_window_counts_as_deviation():
    # a closed form that put weight beyond the window must not alias onto
    # another index of the numeric vector
    w = TruncationWindow(3)
    numeric = np.zeros(w.atom_field_dim, dtype=complex)
    numeric[w.index(G, 1, 0)] = 0.5
    # (g, 0, n_max + 1) would land on the flat index of (g, 1, 0)
    with pytest.raises(ValueError, match="^m must lie in 0..3"):
        w.index(G, 0, w.n_max + 1)
    ghost = (AtomFieldKet(G, 0, w.n_max + 1),)
    assert _amplitude_deviation(ghost, np.array([0.5 + 0j]), numeric, w) == 0.5


def test_grouped_closed_forms_equal_one_draw_calls():
    # verify evaluates the closed forms once per (n, m) group; each draw's
    # columns must be the bits a call for that draw alone gives, which is
    # also what general_postselect returns
    draws = seeded_draws(5, 240)
    grouped = _closed_forms(draws)
    assert len({(p.n, p.m) for p, _ in draws}) == 25
    refused = 0
    for (p, t), closed in zip(draws, grouped):
        alone = _closed_forms([(p, t)])[0]
        for j, (basis, column, prob) in enumerate(closed):
            assert alone[j][0] == basis and alone[j][2] == prob
            assert alone[j][1].tobytes() == column.tobytes()
            try:
                state, prob_gp = general_postselect(j, p, p.omega * t)
            except ImpossiblePostselectionError as err:
                assert err.probability == prob and not column.any()
                refused += 1
                continue
            assert prob_gp == prob
            assert state == PureState(dict(zip(basis, column.tolist())))
    assert refused >= 2


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"seed": 1.5, "draws": 3}, "seed"),
        ({"seed": True, "draws": 3}, "seed"),
        ({"seed": -1, "draws": 3}, "seed"),
        ({"seed": 1, "draws": True}, "draws"),
        ({"seed": 1, "draws": 2.5}, "draws"),
        ({"seed": 1, "draws": 0}, "draws"),
        ({"seed": 1, "draws": 3, "tolerance": math.nan}, "tolerance"),
        ({"seed": 1, "draws": 3, "tolerance": math.inf}, "tolerance"),
        ({"seed": 1, "draws": 3, "tolerance": -1e-9}, "tolerance"),
    ],
)
def test_run_verification_rejects_bad_input(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field}: "):
        run_verification(**kwargs)


def test_pass_report_prints_no_worst_draw():
    report = run_verification(seed=1, draws=20)
    assert report.passed
    assert report.worst_params is not None
    assert not any(line.startswith("worst draw") for line in report.lines())
    assert report.lines()[-1] == "PASS at tolerance 1.0e-09"


def test_failed_report_replays_worst_draw():
    report = run_verification(seed=3, draws=40, tolerance=0)
    assert not report.passed
    assert 0 <= report.worst_draw < 40
    lines = report.lines()
    assert lines[-3] == "FAIL at tolerance 0.0e+00"
    assert lines[-2] == (
        f"worst draw: {report.worst_draw} (control outcome {report.worst_outcome}, "
        f"t = {report.worst_time!r})"
    )
    assert lines[-1] == f"worst draw params: {report.worst_params!r}"
    # rebuild the draw from the printed report alone
    p = eval(lines[-1].removeprefix("worst draw params: "), {"SystemParams": SystemParams})
    t = float(lines[-2].rpartition("t = ")[2].rstrip(")"))
    assert p == report.worst_params and t == report.worst_time
    # the named draw is the first with the largest deviation of the run
    rng = np.random.default_rng(3)
    per_draw = []
    for _ in range(40):
        q = random_params(rng)
        t_q = q.T1 + q.T + float(rng.uniform(0.0, 2.0))
        rows = _compare_draw(q, t_q, _closed_forms([(q, t_q)])[0])
        per_draw.append(max(dev for _, _, _, dev in rows))
    assert max(per_draw) == report.max_amplitude_deviation
    assert per_draw.index(max(per_draw)) == report.worst_draw
    deviations = {j: dev for j, _, _, dev in _compare_draw(p, t, _closed_forms([(p, t)])[0])}
    assert deviations[report.worst_outcome] == report.max_amplitude_deviation
    # and through the public PureState chain
    j = report.worst_outcome
    analytic, _ = general_postselect(j, p, p.omega * t)
    mixed = hadamard_control(evolve(p, t, TruncationWindow.for_params(p)))
    numeric = schrodinger_phase(measure_control(mixed, j)[0], p.omega, t)
    assert abs(max_amp_diff(analytic, numeric) - report.max_amplitude_deviation) <= 1e-15
