"""run_verification: input validation, the pinned reports, the draw stream,
the closed-form and oracle evaluation of draws of mixed (n, m) in one batch
per chunk, the reduction of its (2, N) arrays, and the oracle chain it runs
(recombine -> condition -> phase) batched over draws, with the PureState
views of that chain, against the ket-by-ket dict reference in helpers."""

import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ico_cqed import (
    MIN_OUTCOME_PROBABILITY,
    AtomFieldKet,
    AtomLevel,
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
from ico_cqed.oracle import _evolve_branches, condition, phase, recombine
from ico_cqed.verify import (
    MAX_DRAWS,
    _amplitude_deviation,
    _closed_forms,
    _compare,
    _draw_table,
    random_params,
)
from helpers import (
    E,
    G,
    draw_table,
    full_window_branches,
    leaky_rotate,
    max_amp_diff,
    readme_verify_draw,
    reference_hadamard_control,
    reference_measure_control,
    reference_schrodinger_phase,
    window_branches,
    window_groups,
    window_index,
)

#: repr(run_verification(seed, draws, tolerance=0)) under "seed,draws" and
#: the output of ico-cqed verify --draws 200 under each seed, on the draws
#: of one Generator.random call per run (_draw_table).
PINNED = json.loads((Path(__file__).parent / "data" / "verify_reports.json").read_text())


def window_vector(w, state):
    vec = np.zeros(w.atom_field_dim, dtype=complex)
    for ket, amp in state.items():
        vec[window_index(w, ket.atom, ket.n, ket.m)] = amp
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


def tight_rows(p, wide):
    """The rows of the wider window that hold the kets of p's own tight
    window, in the tight window's order."""
    w = TruncationWindow.for_params(p)
    levels = range(w.levels)
    return [window_index(wide, atom, n, m) for atom in (E, G) for n in levels for m in levels]


def matrix_chain(group, w):
    """The oracle chain on a batch of (params, time) draws on one window, run
    on their draw table: per outcome j, the phased conditional window
    vectors (atom_field_dim, N) and the N probabilities."""
    table = draw_table(group)
    rows = recombine(window_branches(table, w))
    atom, n, m = np.indices((2, w.levels, w.levels)).reshape(3, -1, 1)
    out = []
    for j in (0, 1):
        state, prob = condition(rows, j)
        out.append((phase(state, table["omega"] * table["t"], 1 - atom + n + m), prob))
    return out


def compare(draws):
    """verify._compare on the draw table of (params, time) draws."""
    return _compare(draw_table(draws))


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
    # draws of all 25 (n, m) evolve as one batch, indexed on the window of
    # the largest: on the kets of its own tight window each column is the
    # bits of the draw run alone there, and it is exactly 0 on every other ket;
    # the refused outcome 1 at gT = 0 and 3e-5 shares the batch with
    # accepted ones
    draws = seeded_draws(5, 240)
    table = draw_table(draws)
    assert len(set(zip(table["n"].tolist(), table["m"].tolist()))) == 25
    wide = TruncationWindow(max(max(p.n, p.m) for p, _ in draws) + 2)
    branches = window_branches(table, wide)
    batched = matrix_chain(draws, wide)
    compared = compare(draws)
    refused = 0
    for col, (p, t) in enumerate(draws):
        w = TruncationWindow.for_params(p)
        rows = tight_rows(p, wide)
        elsewhere = np.ones(wide.atom_field_dim, dtype=bool)
        elsewhere[rows] = False
        alone = window_branches(draw_table([(p, t)]), w)
        assert branches[:, rows, col].tobytes() == alone[:, :, 0].tobytes()
        assert not branches[:, elsewhere, col].any()
        for (numeric, probs), (one, prob_one) in zip(batched, matrix_chain([(p, t)], w)):
            assert numeric[rows, col].tobytes() == one[:, 0].tobytes()
            assert not numeric[elsewhere, col].any()
            assert probs[col] == prob_one[0]
            refused += prob_one[0] < MIN_OUTCOME_PROBABILITY
        for batch, one in zip(compared, compare([(p, t)])):
            assert batch[:, col].tolist() == one[:, 0].tolist()
    assert refused >= 2


def test_compact_support_keeps_the_kets_each_draw_populates():
    # per column: the kets, as (atom, n, m), that the full-window evolution
    # populates, in AtomFieldKet order, then distinct kets it leaves at
    # exactly 0 up to the chunk's longest support, and that evolution's bits
    # on them; in one chunk of mixed (n, m) and in batches of one tight
    # window, on a window that holds every draw's local window
    draws = seeded_draws(5, 60)
    padded = 0
    for group in [draws, *(group for _, group in window_groups(draws))]:
        table = draw_table(group)
        w = TruncationWindow(max(4, max(max(p.n, p.m) for p, _ in group) + 2))
        branches = full_window_branches(table, w)
        kets, compact = _evolve_branches(table)
        populated = branches.any(axis=0)
        counts = populated.sum(axis=0)
        assert kets.shape == (3, *compact.shape[1:]) == (3, counts.max(), len(group))
        for col, count in enumerate(counts):
            rests = [AtomFieldKet(AtomLevel(a), n, m) for a, n, m in kets[:, :, col].T.tolist()]
            rows = [window_index(w, ket.atom, ket.n, ket.m) for ket in rests]
            assert rests[:count] == sorted(rests[:count])
            assert rows[:count] == np.flatnonzero(populated[:, col]).tolist()
            assert len(set(rests)) == len(rests)
            assert not populated[rows[count:], col].any() and not compact[:, count:, col].any()
            assert compact[:, :, col].tobytes() == branches[:, rows, col].tobytes()
        padded += counts.min() < len(kets[0])
    assert padded


def test_leak_at_a_small_draws_guard_row_is_refused_in_a_wide_window(monkeypatch):
    # the guard rows of the n = 1, m = 0 draw start at 3, which the n = 4,
    # m = 2 draw in its batch populates: a leak there is refused, though it
    # lies well inside the window of n_max = 6 that the batch would need
    small, large = SystemParams(g=1.0, T=1.0, n=1, m=0), SystemParams(g=1.0, T=1.0, n=4, m=2)
    draws = draw_table([(large, large.T1 + large.T), (small, small.T1 + small.T)])
    _evolve_branches(draws)
    monkeypatch.setattr(oracle, "_rotate", leaky_rotate(draws, [(1, 0, (E, 3, 0), 0.1)]))
    with pytest.raises(TruncationOverflowError):
        _evolve_branches(draws)
    with pytest.raises(TruncationOverflowError):
        _compare(draws)


def test_outcome_only_the_matrix_side_refuses_is_raised_draw_major(monkeypatch):
    # the matrix side refuses outcome 1 of draw 2 and outcome 0 of draw 3,
    # which the closed forms accept: the first in draw order is raised
    rng = np.random.default_rng(5)
    table = draw_table((p, p.T1 + p.T) for p in (random_params(rng) for _ in range(4)))
    _, probs = _closed_forms(table)
    assert (probs >= MIN_OUTCOME_PROBABILITY).all()
    refuse = {1: 2, 0: 3}  # outcome -> draw
    matrix_condition = oracle.condition

    def refusing(rows, j):
        state, prob = matrix_condition(rows, j)
        state[:, refuse[j]] = 0.0
        prob[refuse[j]] = 0.0
        return state, prob

    monkeypatch.setattr(oracle, "condition", refusing)
    with pytest.raises(ImpossiblePostselectionError,
                       match="^control outcome 1 has probability 0.000e[+]00$") as err:
        _compare(table)
    assert err.value.probability == 0.0


def test_analytic_ket_outside_window_counts_as_deviation():
    # a closed-form ket with no entry on the same (atom, n, m) counts in full
    # in each column, and an entry on another ket is not its partner: not
    # |g, 1, 0>, where |g, 0, 4> would land as a flat index on the window of
    # n_max 3, nor |e, 0, 4>; an entry on |g, 0, 4> itself is
    w = TruncationWindow(3)
    numeric = np.zeros((2, 1, 2), dtype=complex)
    numeric[:, 0] = 0.25, 0.75
    analytic = np.zeros((2, len(OFFSETS), 2), dtype=complex)
    analytic[:, OFFSETS.index((G, 0, +1))] = 0.5
    n, m = np.zeros(2, dtype=int), np.full(2, w.n_max)
    for ket, deviation in (((G, 1, 0), [0.5, 0.75]), ((E, 0, 4), [0.5, 0.75]),
                           ((G, 0, 4), [0.25, 0.25])):
        kets = np.array([ket, ket]).T[:, None]
        assert _amplitude_deviation(n, m, analytic, kets, numeric).tolist() == [deviation] * 2


def test_leak_onto_a_ket_the_closed_forms_do_not_reach_is_the_deviation(monkeypatch):
    # a matrix side that puts amplitude on |e, 2, 1> in the n = 1, m = 0
    # draw, a ket inside the window, below that draw's guard rows (n + 2 and
    # m + 2 and up) and out of reach of the closed forms from (1, 0), whose
    # excitations it does not conserve: in a chunk of mixed
    # (n, m) the leaked ket joins the draw's compact support, the draw's
    # deviation is exactly its magnitude, and every other draw compares as
    # before
    rng = np.random.default_rng(3)
    draws = []
    for n, m in ((4, 2), (1, 0), (0, 3), (2, 2)):
        p = replace(random_params(rng), n=n, m=m)
        draws.append((p, p.T1 + p.T))
    table, wide, column = draw_table(draws), TruncationWindow(6), 1
    leaked = window_index(wide, E, 2, 1)
    assert (E, 2 - 1, 1 - 0) not in OFFSETS
    clean = _compare(table)
    assert (clean[0] >= 1e-3).all() and (clean[2] < 1e-9).all()
    monkeypatch.setattr(oracle, "_rotate", leaky_rotate(table, [(column, 0, (E, 2, 1), 1e-3)]))
    kets, _ = _evolve_branches(table)
    assert [E, 2, 1] in kets[:, :, column].T.tolist()
    dirty = _compare(table)
    magnitude = [abs(complex(numeric[leaked, column])) for numeric, _ in matrix_chain(draws, wide)]
    assert min(magnitude) > 1e-4
    assert dirty[2][:, column].tolist() == magnitude
    others = [c for c in range(len(draws)) if c != column]
    for before, after in zip(clean, dirty):
        assert after[:, others].tolist() == before[:, others].tolist()


def test_grouped_closed_forms_equal_one_draw_calls():
    # verify evaluates the closed forms of draws of mixed (n, m) in one
    # call per outcome; each draw's columns must be the bits a call for
    # that draw alone gives, which is also what general_postselect returns;
    # a row a draw does not reach is 0 in its column
    draws = seeded_draws(5, 240)
    amps, probs = _closed_forms(draw_table(draws))
    assert [a.shape for a in amps] == [(len(OFFSETS), len(draws))] * 2
    assert probs.shape == (2, len(draws))
    refused = 0
    for col, (p, t) in enumerate(draws):
        one, prob_one = _closed_forms(draw_table([(p, t)]))
        rows_one, kets = reachable_kets(p.n, p.m)
        assert prob_one.tolist() == probs[:, [col]].tolist()
        for j in (0, 1):
            assert one[j].shape == (len(OFFSETS), 1)
            assert one[j][rows_one, 0].tobytes() == amps[j][rows_one, col].tobytes()
            assert not np.delete(amps[j][:, col], rows_one).any()
            assert not np.delete(one[j][:, 0], rows_one).any()
            prob = float(probs[j, col])
            try:
                state, prob_gp = general_postselect(j, p, p.omega * t)
            except ImpossiblePostselectionError as err:
                assert err.probability == prob and not amps[j][:, col].any()
                refused += 1
                continue
            assert prob_gp == prob
            column = amps[j][rows_one, col].tolist()
            assert state == PureState(dict(zip(kets, column)))
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
    def no_draws(seed, draws):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(verify, "_draw_table", no_draws)
    with pytest.raises(ValueError, match=f"^draws: must lie in 1..{MAX_DRAWS}, got {MAX_DRAWS + 1}$"):
        run_verification(seed=1, draws=MAX_DRAWS + 1)
    assert main(["verify", "--draws", str(MAX_DRAWS + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"ico-cqed: draws: must lie in 1..{MAX_DRAWS}, got")


def test_memory_per_draw_stays_as_stated(monkeypatch):
    # MAX_DRAWS' comment: a tracemalloc peak of about 0.19 KB per draw plus
    # under 1 MB for one chunk, the draw table being the only copy of the
    # draws.  Checked at a lower cap, so that the test allocates little: the
    # run at the cap stays under 250 B per draw, and so does what each draw
    # adds over a run of a quarter of the cap.
    cap = 1024
    monkeypatch.setattr(verify, "MAX_DRAWS", cap)
    run_verification(1, 64)  # the package's caches are not the run's memory
    peaks = {}
    for draws in (cap // 4, cap):
        tracemalloc.start()
        run_verification(1, draws)
        peaks[draws] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[cap] <= 250 * cap + 1_000_000
    assert peaks[cap] - peaks[cap // 4] <= 250 * (cap - cap // 4)
    with pytest.raises(ValueError, match=f"^draws: must lie in 1..{cap}, got {cap + 1}$"):
        run_verification(1, cap + 1)


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
    # and from the seed and its index alone, through the README's recipe
    verify_draw = readme_verify_draw()
    assert verify_draw(3, report.worst_draw) == (p, t)
    # the named draw is the first with the largest deviation of the run
    per_draw = []
    for i in range(40):
        analytic, _, deviation = compare([verify_draw(3, i)])
        per_draw.append(deviation[analytic >= MIN_OUTCOME_PROBABILITY].max())
    assert max(per_draw) == report.max_amplitude_deviation
    assert per_draw.index(max(per_draw)) == report.worst_draw == 21
    _, _, deviation = compare([(p, t)])
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
    u = float(np.random.default_rng(0).uniform(0.0, 2.0))

    def fixed_table(seed, draws):
        assert (seed, draws) == (1, len(fixed))
        return draw_table((p, p.T1 + p.T + u) for p in fixed)

    monkeypatch.setattr(verify, "_draw_table", fixed_table)
    report = run_verification(seed=1, draws=len(fixed), tolerance=0)
    analytic, numeric, deviation = (
        np.concatenate(side, axis=1)
        for side in zip(*(compare([(p, p.T1 + p.T + u)]) for p in fixed))
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
    # the README's recipe, one draw at a time in Python floats, gives the
    # draws of the run bit for bit, and the chunks' tables hold them in
    # order; draw i is the same in a run of any length
    verify_draw = readme_verify_draw()
    compared = []

    def recording(table):
        compared.append(table)
        return _compare(table)

    monkeypatch.setattr(verify, "_compare", recording)
    for seed in range(30):
        compared.clear()
        run_verification(seed, 200)
        expected = draw_table(verify_draw(seed, i) for i in range(200))
        assert [list(table) for table in compared] == [list(oracle._COLUMNS)] * 2
        for name, column in expected.items():
            drawn = np.concatenate([table[name] for table in compared])
            assert drawn.dtype == column.dtype and drawn.tobytes() == column.tobytes(), (seed, name)
    for seed in (0, 1, 2**70):
        short, long = _draw_table(seed, 64), _draw_table(seed, 65)
        assert list(short) == list(long) == list(oracle._COLUMNS)
        for name, column in short.items():
            assert column.flags.c_contiguous and long[name].flags.c_contiguous, name
            assert column.dtype == long[name].dtype, name
            assert column.tobytes() == long[name][:64].tobytes(), (seed, name)


def test_decoding_memory_per_draw_stays_as_stated():
    # MAX_DRAWS' comment, for the draw table alone: the (draws, 12) uniforms
    # and their transposed copy, 192 B a draw, are the peak, under 250 B per
    # draw at 16,384 draws
    draws = 16_384
    _draw_table(1, 64)
    tracemalloc.start()
    table = _draw_table(1, draws)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(table["t"]) == draws
    assert peak <= 250 * draws


def test_numpy_trigonometry_equals_math_bit_for_bit():
    # The oracle evaluates its angles with np.cos and np.sin where it used
    # math.cos and math.sin; its bits, and so the pinned reports, rest on the
    # two agreeing.  Checked on every angle the oracle takes in the pinned
    # verify runs (the preparation angles, and each doublet's (g*sqrt(k+1))*t
    # for k up to 5, as n, m <= 4) and on seeded angles in [0, 500), which
    # hold those of the oracle_wide benchmark's windows.
    runs = {}
    for key in PINNED["reprs"]:
        seed, draws = map(int, key.split(","))
        runs[seed] = max(draws, runs.get(seed, 0))
    angles = [np.random.default_rng(2024).uniform(0.0, 500.0, 20_000)]
    for seed, draws in runs.items():
        table = _draw_table(seed, draws)
        rates = np.sqrt(np.arange(1.0, 7.0))[:, None] * table["g"]
        for start in (table["T0"], table["T1"]):
            clipped = np.minimum(np.maximum(table["t"] - start, 0.0), table["T"])
            angles.append((rates * clipped).ravel())
        angles += [table[name] for name in ("xi", "chi", "theta", "varphi")]
    angles = np.concatenate(angles)
    for name, fast, exact in (("cos", np.cos, math.cos), ("sin", np.sin, math.sin)):
        differ = fast(angles) != np.array([exact(a) for a in angles.tolist()])
        assert not differ.any(), (
            f"np.{name} differs from math.{name} on {differ.sum()} of {differ.size} angles, "
            f"first at {float(angles[differ][0])!r}: the oracle's bits rest on their "
            f"equality, so on this host oracle._rotate and oracle._evolve_branches need "
            f"math.cos and math.sin back"
        )


def test_chunk_seam_changes_no_report(monkeypatch):
    # chunks of 7 draws, the last of 4, give the report of one chunk
    default = repr(run_verification(5, 200, tolerance=0))
    sizes = []

    def recording(table):
        sizes.append({len(column) for column in table.values()})
        return _compare(table)

    monkeypatch.setattr(verify, "_compare", recording)
    monkeypatch.setattr(verify, "_CHUNK", 7)
    assert repr(run_verification(5, 200, tolerance=0)) == default
    assert sizes == [{7}] * 28 + [{4}]
