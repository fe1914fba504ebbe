"""run_verification: input validation, the worst-draw record, the grouped
closed-form and oracle evaluation, the reduction of its (2, N) arrays, and
the oracle chain it runs (recombine -> condition -> phase) batched over
draws, with the PureState views of that chain, against the ket-by-ket dict
reference in helpers."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ico_cqed import (
    MIN_OUTCOME_PROBABILITY,
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
from ico_cqed import verify
from ico_cqed.cli import main
from ico_cqed.oracle import _evolve_branches, basis_excitations, condition, phase, recombine
from ico_cqed.verify import (
    MAX_DRAWS,
    _amplitude_deviation,
    _closed_forms,
    _compare_group,
    random_params,
)
from helpers import (
    G,
    max_amp_diff,
    reference_hadamard_control,
    reference_measure_control,
    reference_schrodinger_phase,
    window_groups,
)


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


def nm_groups(draws):
    """The draws grouped by (n, m), as run_verification groups them."""
    groups = {}
    for p, t in draws:
        groups.setdefault((p.n, p.m), []).append((p, t))
    return list(groups.values())


def matrix_chain(group, w):
    """The oracle chain on a batch of draws that share the window: per
    outcome j, the phased conditional window vectors (atom_field_dim, N)
    and the N probabilities."""
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
    # a draw run alone (N = 1) gets exactly the amplitudes, probabilities and
    # refusals it gets inside its (n, m) group; the (0, 0) group mixes the
    # refused outcome 1 at gT = 0 and 3e-5 with accepted ones
    groups = nm_groups(seeded_draws(5, 240))
    assert len(groups) == 25
    refused = mixed = 0
    for group in groups:
        w = TruncationWindow.for_params(group[0][0])
        batched = matrix_chain(group, w)
        compared = _compare_group(group)
        refused_here = set()
        for col, draw in enumerate(group):
            alone = matrix_chain([draw], w)
            for j, ((numeric, probs), (one, prob_one)) in enumerate(zip(batched, alone)):
                assert numeric[:, col].tobytes() == one[:, 0].tobytes()
                assert probs[col] == prob_one[0]
                if prob_one[0] < MIN_OUTCOME_PROBABILITY:
                    assert not one.any()
                    refused_here.add((col, j))
            for grouped, one in zip(compared, _compare_group([draw])):
                assert grouped[:, col].tolist() == one[:, 0].tolist()
        refused += len(refused_here)
        mixed += 0 < len(refused_here) < 2 * len(group)
    assert refused >= 2 and mixed >= 1


def test_analytic_ket_outside_window_counts_as_deviation():
    # a closed form that put weight beyond the window must not alias onto
    # another index of the numeric vector, and counts in full in each column
    w = TruncationWindow(3)
    numeric = np.zeros((w.atom_field_dim, 2), dtype=complex)
    numeric[w.index(G, 1, 0)] = 0.25, 0.75
    # (g, 0, n_max + 1) would land on the flat index of (g, 1, 0)
    with pytest.raises(ValueError, match="^m must lie in 0..3"):
        w.index(G, 0, w.n_max + 1)
    ghost = (AtomFieldKet(G, 0, w.n_max + 1),)
    deviation = _amplitude_deviation(ghost, np.array([[0.5 + 0j, 0.5]]), numeric, w)
    assert deviation.tolist() == [0.5, 0.75]


def test_grouped_closed_forms_equal_one_draw_calls():
    # verify evaluates the closed forms once per (n, m) group; each draw's
    # columns must be the bits a call for that draw alone gives, which is
    # also what general_postselect returns
    groups = nm_groups(seeded_draws(5, 240))
    assert len(groups) == 25
    refused = 0
    for group in groups:
        basis, amps, probs = _closed_forms(group)
        assert amps.shape == (len(basis), 2, len(group)) and probs.shape == (2, len(group))
        for col, (p, t) in enumerate(group):
            basis_one, one, prob_one = _closed_forms([(p, t)])
            assert basis_one == basis and prob_one.tolist() == probs[:, [col]].tolist()
            assert one[:, :, 0].tobytes() == amps[:, :, col].tobytes()
            for j in (0, 1):
                column, prob = amps[:, j, col], float(probs[j, col])
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


def test_draws_beyond_max_are_refused_before_drawing(monkeypatch, capsys):
    # refused by the input check: no parameter is drawn, nothing is allocated
    def no_draws(rng):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(verify, "random_params", no_draws)
    with pytest.raises(ValueError, match=f"^draws: must be <= MAX_DRAWS = {MAX_DRAWS}"):
        run_verification(seed=1, draws=MAX_DRAWS + 1)
    assert main(["verify", "--draws", str(MAX_DRAWS + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("ico-cqed: draws: must be <=")


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
        analytic, _, deviation = _compare_group([(q, t_q)])
        per_draw.append(deviation[analytic >= MIN_OUTCOME_PROBABILITY].max())
    assert max(per_draw) == report.max_amplitude_deviation
    assert per_draw.index(max(per_draw)) == report.worst_draw == 35
    _, _, deviation = _compare_group([(p, t)])
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
        for side in zip(*(_compare_group([(p, p.T1 + p.T + u)]) for p in fixed))
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
