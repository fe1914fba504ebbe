"""run_verification: input validation, the pinned reports, the draw stream,
the closed-form and oracle evaluation of draws of mixed (n, m) in one batch
per chunk, the reduction of its (2, N) arrays, and the oracle chain it runs
(recombine -> condition -> phase) batched over draws, with the PureState
views of that chain, against the ket-by-ket dict reference in helpers."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ico_cqed import (
    MIN_OUTCOME_PROBABILITY,
    ImpossiblePostselectionError,
    PureState,
    SystemParams,
    TruncationOverflowError,
    TruncationWindow,
    evolve,
    general_postselect,
    hadamard_control,
    measure_control,
    run_verification,
    schrodinger_phase,
)
from ico_cqed import oracle, verify
from ico_cqed.cli import main
from ico_cqed.engine import OFFSETS, reachable_kets
from ico_cqed.oracle import _evolve_branches, basis_excitations, condition, phase, recombine
from ico_cqed.verify import (
    MAX_DRAWS,
    _amplitude_deviation,
    _closed_forms,
    _compare,
    random_params,
)
from helpers import (
    E,
    G,
    max_amp_diff,
    reference_draw,
    reference_hadamard_control,
    reference_measure_control,
    reference_schrodinger_phase,
    window_groups,
)

#: repr(run_verification(seed, draws, tolerance=0)) under "seed,draws" and
#: the output of ico-cqed verify --draws 200 under each seed, as the
#: grouped evaluation that preceded the one batch per chunk printed them.
PINNED = json.loads((Path(__file__).parent / "data" / "verify_reports.json").read_text())


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


def wide_draws(seed, count):
    """Draws like random_params whose larger photon number cycles through 4,
    10 and 20, as the benchmark's oracle_wide workload makes them."""
    rng = np.random.default_rng(seed)
    draws = []
    for k in range(count):
        larger = (4, 10, 20)[k % 3]
        other = int(rng.integers(0, larger + 1))
        n, m = (larger, other) if rng.random() < 0.5 else (other, larger)
        p = replace(random_params(rng), n=n, m=m)
        draws.append((p, p.T1 + p.T + float(rng.uniform(0.0, 2.0))))
    return draws


def photon_numbers(draws):
    return np.array([(p.n, p.m) for p, _ in draws]).T


def tight_rows(p, wide):
    """The rows of the wider window that hold the kets of p's own tight
    window, in the tight window's order."""
    w = TruncationWindow.for_params(p)
    levels = range(w.levels)
    return [wide.index(atom, n, m) for atom in (E, G) for n in levels for m in levels]


def matrix_chain(group, w):
    """The oracle chain on a batch of draws on one window: per outcome j,
    the phased conditional window vectors (atom_field_dim, N) and the N
    probabilities."""
    rows = recombine(_evolve_branches(group, w))
    omega, times = [p.omega for p, _ in group], [t for _, t in group]
    out = []
    for j in (0, 1):
        state, prob = condition(rows, j)
        out.append((phase(state, omega, times, basis_excitations(w)), prob))
    return out


def test_chain_and_views_equal_dict_reference():
    # exact: the batched chain on window vectors and its PureState views give
    # the bits, the refusals and the probabilities of the dict reference
    refused = 0
    for w, group in window_groups(seeded_draws(11, 150) + wide_draws(7, 60)):
        batched = matrix_chain(group, w)
        for col, (p, t) in enumerate(group):
            full = evolve(p, t, w)
            mixed = hadamard_control(full)
            assert mixed == reference_hadamard_control(full)
            for j, (numeric, probs) in enumerate(batched):
                try:
                    expected, prob = reference_measure_control(mixed, j)
                except ImpossiblePostselectionError as err:
                    with pytest.raises(ImpossiblePostselectionError) as mine:
                        measure_control(mixed, j)
                    assert mine.value.probability == err.probability == probs[col]
                    assert not numeric[:, col].any()
                    refused += 1
                    continue
                state, prob_view = measure_control(mixed, j)
                assert state == expected and prob_view == prob == probs[col]
                phased = reference_schrodinger_phase(expected, p.omega, t)
                assert schrodinger_phase(state, p.omega, t) == phased
                assert np.array_equal(numeric[:, col], window_vector(w, phased))
    assert refused == 2


def test_batching_changes_no_bits():
    # draws of all 25 (n, m) evolve as one batch on the window of the
    # largest: on the kets of its own tight window each column is the bits
    # of the draw run alone there, and it is exactly 0 on every other ket;
    # the refused outcome 1 at gT = 0 and 3e-5 shares the batch with
    # accepted ones
    draws = seeded_draws(5, 240)
    assert len(set(map(tuple, photon_numbers(draws).T.tolist()))) == 25
    wide = TruncationWindow(max(max(p.n, p.m) for p, _ in draws) + 2)
    branches = _evolve_branches(draws, wide)
    batched = matrix_chain(draws, wide)
    compared = _compare(draws)
    refused = 0
    for col, (p, t) in enumerate(draws):
        w = TruncationWindow.for_params(p)
        rows = tight_rows(p, wide)
        elsewhere = np.ones(wide.atom_field_dim, dtype=bool)
        elsewhere[rows] = False
        assert branches[:, rows, col].tobytes() == _evolve_branches([(p, t)], w)[:, :, 0].tobytes()
        assert not branches[:, elsewhere, col].any()
        for (numeric, probs), (one, prob_one) in zip(batched, matrix_chain([(p, t)], w)):
            assert numeric[rows, col].tobytes() == one[:, 0].tobytes()
            assert not numeric[elsewhere, col].any()
            assert probs[col] == prob_one[0]
            refused += prob_one[0] < MIN_OUTCOME_PROBABILITY
        for batch, one in zip(compared, _compare([(p, t)])):
            assert batch[:, col].tolist() == one[:, 0].tolist()
    assert refused >= 2


def test_leak_at_a_small_draws_guard_row_is_refused_in_a_wide_window(monkeypatch):
    # the guard rows of the n = 1, m = 0 draw start at 3, inside the window
    # of n_max = 6 that its batch with the n = 4, m = 2 draw needs: a leak
    # there is refused, though the window's own top row stays empty
    small, large = SystemParams(g=1.0, T=1.0, n=1, m=0), SystemParams(g=1.0, T=1.0, n=4, m=2)
    draws = [(large, large.T1 + large.T), (small, small.T1 + small.T)]
    wide = TruncationWindow(6)
    rotate = oracle._rotate

    def leaky(x, cavity, t, g, w):
        out = rotate(x, cavity, t, g, w)
        out[w.index(E, 3, 0), 1] += 0.1
        return out

    _evolve_branches(draws, wide)
    monkeypatch.setattr(oracle, "_rotate", leaky)
    with pytest.raises(TruncationOverflowError):
        _evolve_branches(draws, wide)
    with pytest.raises(TruncationOverflowError):
        _compare(draws)


def test_analytic_ket_outside_window_counts_as_deviation():
    # a closed form that put weight beyond the window must not alias onto
    # another index of the numeric vector, and counts in full in each column
    w = TruncationWindow(3)
    numeric = np.zeros((w.atom_field_dim, 2), dtype=complex)
    numeric[w.index(G, 1, 0)] = 0.25, 0.75
    # (g, 0, n_max + 1) would land on the flat index of (g, 1, 0)
    with pytest.raises(ValueError, match="^m: must lie in 0..3, got 4$"):
        w.index(G, 0, w.n_max + 1)
    rows = np.arange(len(OFFSETS))
    analytic = np.zeros((len(OFFSETS), 2), dtype=complex)
    analytic[OFFSETS.index((G, 0, +1))] = 0.5
    n, m = np.zeros(2, dtype=int), np.full(2, w.n_max)
    assert _amplitude_deviation(rows, n, m, analytic, numeric, w).tolist() == [0.5, 0.75]


def test_grouped_closed_forms_equal_one_draw_calls():
    # verify evaluates the closed forms of draws of mixed (n, m) in one
    # call per outcome; each draw's columns must be the bits a call for
    # that draw alone gives, which is also what general_postselect returns;
    # a row a draw does not reach is 0 in its column
    draws = seeded_draws(5, 240)
    n, m = photon_numbers(draws)
    rows, amps, probs = _closed_forms(draws, n, m)
    assert rows.tolist() == list(range(len(OFFSETS)))
    assert [a.shape for a in amps] == [(len(OFFSETS), len(draws))] * 2
    assert probs.shape == (2, len(draws))
    refused = 0
    for col, (p, t) in enumerate(draws):
        rows_one, one, prob_one = _closed_forms([(p, t)], np.array([p.n]), np.array([p.m]))
        assert prob_one.tolist() == probs[:, [col]].tolist()
        for j in (0, 1):
            assert one[j][:, 0].tobytes() == amps[j][rows_one, col].tobytes()
            assert not np.delete(amps[j][:, col], rows_one).any()
            prob = float(probs[j, col])
            try:
                state, prob_gp = general_postselect(j, p, p.omega * t)
            except ImpossiblePostselectionError as err:
                assert err.probability == prob and not amps[j][:, col].any()
                refused += 1
                continue
            assert prob_gp == prob
            column = amps[j][rows_one, col].tolist()
            assert state == PureState(dict(zip(reachable_kets(p.n, p.m), column)))
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


def test_draws_beyond_max_are_refused_before_drawing(monkeypatch, capsys):
    # refused by the input check: no parameter is drawn, nothing is allocated
    def no_draws(rng):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(verify, "random_params", no_draws)
    with pytest.raises(ValueError, match=f"^draws: must lie in 1..{MAX_DRAWS}, got {MAX_DRAWS + 1}$"):
        run_verification(seed=1, draws=MAX_DRAWS + 1)
    assert main(["verify", "--draws", str(MAX_DRAWS + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"ico-cqed: draws: must lie in 1..{MAX_DRAWS}, got")


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
        analytic, _, deviation = _compare([(q, t_q)])
        per_draw.append(deviation[analytic >= MIN_OUTCOME_PROBABILITY].max())
    assert max(per_draw) == report.max_amplitude_deviation
    assert per_draw.index(max(per_draw)) == report.worst_draw == 35
    _, _, deviation = _compare([(p, t)])
    assert deviation[report.worst_outcome, 0] == report.max_amplitude_deviation
    # and through the public PureState chain
    j = report.worst_outcome
    analytic, _ = general_postselect(j, p, p.omega * t)
    mixed = hadamard_control(evolve(p, t, TruncationWindow.for_params(p)))
    numeric = schrodinger_phase(measure_control(mixed, j)[0], p.omega, t)
    assert abs(max_amp_diff(analytic, numeric) - report.max_amplitude_deviation) <= 1e-15


def test_reduction_counts_compared_outcomes_and_names_first_worst(monkeypatch):
    # Fixed draws, each measured at T1 + T + u with one u: the balanced
    # control at gT = 0 and 3e-5 refuses outcome 1, and draw 1 comes again
    # as draw 4, so the two share the largest deviation bit for bit.
    rng = np.random.default_rng(17)
    picks = [random_params(rng) for _ in range(5)]
    top, plain, other = picks[0], picks[3], picks[4]
    balanced = [SystemParams(g=1.0, T=T, theta=math.pi / 4, omega=1.3) for T in (0.0, 3e-5)]
    fixed = [balanced[0], top, plain, other, top, balanced[1]]
    state = np.random.default_rng(0).bit_generator.state
    u = float(np.random.default_rng(0).uniform(0.0, 2.0))

    def next_fixed(rng, draws=iter(fixed)):
        rng.bit_generator.state = state
        return next(draws)

    monkeypatch.setattr(verify, "random_params", next_fixed)
    report = run_verification(seed=1, draws=len(fixed), tolerance=0)
    analytic, numeric, deviation = (
        np.concatenate(side, axis=1)
        for side in zip(*(_compare([(p, p.T1 + p.T + u)]) for p in fixed))
    )
    compared = analytic >= MIN_OUTCOME_PROBABILITY
    assert compared.tolist() == [[True] * 6, [False, True, True, True, True, False]]
    assert report.skipped_outcomes == 2
    assert report.max_probability_deviation == np.abs(analytic - numeric)[compared].max()
    residual = np.abs(analytic[0] + analytic[1] - 1.0)
    # the refused draw at gT = 3e-5 has the largest residual: it must not count
    assert residual[5] > residual[1:5].max() == report.max_probability_sum_deviation
    largest = deviation[compared].max()
    assert deviation[:, 1].tolist() == deviation[:, 4].tolist()
    others = compared.copy()
    others[:, [1, 4]] = False
    assert deviation[:, 1].max() == largest > deviation[others].max()
    assert (report.worst_draw, report.max_amplitude_deviation) == (1, largest)
    assert report.worst_outcome == int(np.argmax(deviation[:, 1]))
    assert (report.worst_params, report.worst_time) == (top, top.T1 + top.T + u)


def test_reports_equal_the_pinned_ones(capsys):
    for key, expected in PINNED["reprs"].items():
        seed, draws = map(int, key.split(","))
        assert repr(run_verification(seed, draws, tolerance=0)) == expected, key
    for seed, expected in PINNED["cli"].items():
        assert main(["verify", "--draws", "200", "--seed", seed]) == expected["exit"]
        assert capsys.readouterr().out == expected["stdout"], seed


def test_draws_follow_the_scalar_reference_stream(monkeypatch):
    # random_params and the time draw of run_verification give the draws of
    # eleven scalar calls plus one, bit for bit
    compared = []

    def recording(drawn):
        compared.extend(drawn)
        return _compare(drawn)

    monkeypatch.setattr(verify, "_compare", recording)
    for seed in range(30):
        compared.clear()
        run_verification(seed, 200)
        rng = np.random.default_rng(seed)
        assert compared == [reference_draw(rng) for _ in range(200)], seed


def test_chunk_seam_changes_no_report(monkeypatch):
    # chunks of 7 draws, the last of 4, give the report of one chunk
    default = repr(run_verification(5, 200, tolerance=0))
    sizes = []

    def recording(drawn):
        sizes.append(len(drawn))
        return _compare(drawn)

    monkeypatch.setattr(verify, "_compare", recording)
    monkeypatch.setattr(verify, "_CHUNK", 7)
    assert repr(run_verification(5, 200, tolerance=0)) == default
    assert sizes == [7] * 28 + [4]
