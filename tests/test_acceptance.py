"""End-to-end acceptance checks.

One test per criterion; each prints a PASS line with the measured number so
a -s run reads as a report.  Tolerances are fixed here, not tuned at runtime.
"""

import math

import numpy as np

from ico_cqed import (
    AtomFieldKet,
    AtomicInversion,
    BranchEntropy,
    CavityOrder,
    ControlProbabilityColumn,
    ImpossiblePostselectionError,
    KetProbability,
    SweepConfig,
    TruncationWindow,
    condition_on_atom,
    evolve,
    ico_postselected_state,
    ket_probability,
    linear_entropy,
    reduced_cavity0,
    run_sweep,
    run_verification,
    sigma_z_ico,
    sigma_z_series,
    state_after_both,
)
from ico_cqed.states import FieldsKet, PureState
from ico_cqed.verify import random_params
from helpers import E, G, balanced, excitation_distribution, params


def series(gt, **kw):
    p = params(gt, **kw)
    return state_after_both(CavityOrder.C0_THEN_C1, p, p.T)


def scan(scenario, quantities, n=0, m=0, start=0.0, stop=10.0, step=0.01):
    """run_sweep over g*T = start, start + step, ..., stop (g = 1, balanced
    control): the gT column and one column per quantity, None where the
    conditioning outcome is impossible."""
    cfg = SweepConfig(scenario, tuple(quantities), n=n, m=m,
                      gT_start=start, gT_stop=stop, gT_step=step)
    return list(zip(*run_sweep(cfg).rows))


def test_criterion_01_series_revival():
    value = ket_probability(series(math.pi), AtomFieldKet(E, 0, 0))
    assert abs(value - 1.0) <= 1e-12
    print(f"[PASS] criterion 1: P(e,0,0) at gT=pi is {value!r} (within 1e-12 of 1)")


def test_criterion_02_series_deterministic_emission():
    value = ket_probability(series(math.pi / 2), AtomFieldKet(G, 1, 0))
    assert abs(value - 1.0) <= 1e-12
    print(f"[PASS] criterion 2: P(g,1,0) at gT=pi/2 is {value!r} (within 1e-12 of 1)")


def test_criterion_03_second_cavity_emission_cap():
    for nm in (0, 5):
        _, probs = scan("series_C0C1", [KetProbability(G, nm, nm + 1)], n=nm, m=nm, step=0.001)
        best = max(probs)
        assert 0.24 <= best <= 0.26
        print(f"[PASS] criterion 3: n=m={nm} max P(g,{nm},{nm + 1}) = {best:.6f} in [0.24, 0.26]")


def test_criterion_04_photon_interchange():
    _, probs = scan("series_C0C1", [KetProbability(E, 6, 4)], n=5, m=5, stop=30.0, step=0.001)
    best = max(probs)
    assert best >= 0.95
    # with empty cavities the interchange ket does not exist: the excited
    # slice never leaves the initial ket, which therefore holds all the
    # excited probability (1 + sigma_z) / 2
    _, initial, inversion = scan(
        "series_C0C1", [KetProbability(E, 0, 0), AtomicInversion()], stop=30.0, step=0.1
    )
    assert all(abs(p - 0.5 * (1.0 + z)) <= 1e-12 for p, z in zip(initial, inversion))
    print(f"[PASS] criterion 4: n=m=5 max P(e,6,4) = {best:.6f} >= 0.95; identically 0 for n=m=0")


def test_criterion_05_unequal_fill_emission():
    _, probs = scan("series_C0C1", [KetProbability(G, 4, 6)], n=4, m=5, stop=30.0, step=0.001)
    best = max(probs)
    assert best >= 0.95
    print(f"[PASS] criterion 5: n=4, m=5 max P(g,4,6) = {best:.6f} >= 0.95")


def test_criterion_06_ico_bell_generation():
    p = balanced(math.pi / 2)
    st = ico_postselected_state(0, p, 0.0)
    fields, prob = condition_on_atom(st, G)
    assert abs(prob - 1.0) <= 1e-12
    bell = PureState({FieldsKet(0, 1): 1 / math.sqrt(2), FieldsKet(1, 0): 1 / math.sqrt(2)})
    overlap = sum(fields.amplitude(k).conjugate() * bell.amplitude(k) for k in bell.kets())
    assert abs(abs(overlap) - 1.0) <= 1e-12
    entropy = linear_entropy(reduced_cavity0(fields))
    assert abs(entropy - 0.5) <= 1e-12
    print(
        f"[PASS] criterion 6: ground probability {prob!r}, Bell overlap "
        f"{abs(overlap)!r}, S_L {entropy!r}"
    )


def test_criterion_07_constant_ground_branch_entropy():
    worst = 0.0
    for nm in (0, 1, 2, 5):
        _, entropy, inversion = scan(
            "ico_j0", [BranchEntropy(G), AtomicInversion()], n=nm, m=nm, start=0.01
        )
        for s_l, z in zip(entropy, inversion):
            # skip an impossible or nearly impossible ground branch, of
            # probability (1 - sigma_z) / 2
            if s_l is None or 0.5 * (1.0 - z) <= 1e-6:
                continue
            worst = max(worst, abs(s_l - 0.5))
    assert worst <= 1e-9
    print(f"[PASS] criterion 7: worst |S_L(ground) - 1/2| over n=m in {{0,1,2,5}} is {worst:.2e}")


def test_criterion_08_excited_branch_entropy_advantage():
    _, ico = scan("ico_j0", [BranchEntropy(E)], n=1, m=1, stop=20.0, step=0.001)
    _, ser = scan("series_C0C1", [BranchEntropy(E)], n=1, m=1, stop=20.0, step=0.001)
    best_ico = max((v for v in ico if v is not None), default=0.0)
    worst_series = max((v for v in ser if v is not None), default=0.0)
    assert best_ico >= 0.65
    assert worst_series <= 0.5 + 1e-12
    print(
        f"[PASS] criterion 8: max ICO S_L(e) = {best_ico:.6f} >= 0.65, "
        f"series capped at {worst_series:.6f} <= 0.5"
    )


def test_criterion_09_series_zero_entanglement_vs_ico():
    _, ser = scan("series_C0C1", [BranchEntropy(E)], n=3, m=0)
    _, ico = scan("ico_j0", [BranchEntropy(E)], n=3, m=0)
    worst_series = max((abs(v) for v in ser if v is not None), default=0.0)
    best_ico = max((v for v in ico if v is not None), default=0.0)
    assert worst_series <= 1e-12
    assert best_ico > 0.4
    print(
        f"[PASS] criterion 9: series S_L(e) stays at {worst_series:.2e}, "
        f"ICO reaches {best_ico:.4f} > 0.4"
    )


def test_criterion_10_rabi_formulas_match_states():
    # the grid of np.linspace(0, 10, 1000)
    step = 10.0 / 999
    worst_series = 0.0
    worst_ico = 0.0
    for n, m in ((0, 0), (1, 1), (0, 1)):
        gts, inversion = scan("series_C0C1", [AtomicInversion()], n=n, m=m, step=step)
        for gt, direct in zip(gts, inversion):
            worst_series = max(worst_series, abs(sigma_z_series(params(gt, n=n, m=m)) - direct))
        gts, control, inversion = scan(
            "ico_j0", [ControlProbabilityColumn(), AtomicInversion()], n=n, m=m, step=step
        )
        for gt, prob, direct in zip(gts, control, inversion):
            if prob > 1e-10:
                worst_ico = max(worst_ico, abs(sigma_z_ico(balanced(gt, n=n, m=m)) - direct))
    assert worst_series <= 1e-12
    assert worst_ico <= 1e-12
    spot_series = sigma_z_series(params(math.pi / 2))
    spot_ico = sigma_z_ico(balanced(math.pi / 2))
    assert abs(spot_series + 1.0) <= 1e-12
    assert abs(spot_ico + 1.0) <= 1e-12
    print(
        f"[PASS] criterion 10: formula vs state deviations {worst_series:.2e} (series) "
        f"and {worst_ico:.2e} (ICO); both spot values -1 at gT=pi/2"
    )


def test_criterion_11_oracle_equivalence():
    report = run_verification(seed=2, draws=200)
    assert report.passed
    assert report.max_amplitude_deviation <= 1e-9
    assert report.max_probability_deviation <= 1e-9
    assert report.max_probability_sum_deviation <= 1e-12
    print(
        f"[PASS] criterion 11: 200 draws, max amplitude dev "
        f"{report.max_amplitude_deviation:.2e}, max probability dev "
        f"{report.max_probability_deviation:.2e}, outcome sums off by "
        f"{report.max_probability_sum_deviation:.2e}"
    )


def test_criterion_12_conservation_suite():
    rng = np.random.default_rng(12)
    worst_norm = 0.0
    worst_dist = 0.0
    for _ in range(20):
        p = random_params(rng)
        w = TruncationWindow.for_params(p)
        reference = excitation_distribution(evolve(p, 0.0, w))
        for t in rng.uniform(0.0, p.T1 + p.T + 1.0, 20):
            st = evolve(p, float(t), w)
            worst_norm = max(worst_norm, abs(st.norm() - 1.0))
            dist = excitation_distribution(st)
            keys = set(reference) | set(dist)
            worst_dist = max(
                worst_dist,
                max(abs(dist.get(k, 0.0) - reference.get(k, 0.0)) for k in keys),
            )
    assert worst_norm <= 1e-10
    assert worst_dist <= 1e-10
    print(
        f"[PASS] criterion 12: norm drift {worst_norm:.2e}, excitation "
        f"distribution drift {worst_dist:.2e} over 20 draws x 20 times"
    )


def test_criterion_13_entropy_time_independence():
    rng = np.random.default_rng(13)
    worst = 0.0
    checked = 0
    for _ in range(20):
        p = balanced(
            float(rng.uniform(0.0, 10.0)),
            xi=float(rng.uniform(0.0, math.pi / 2)),
            chi=float(rng.uniform(0.0, 2 * math.pi)),
            n=int(rng.integers(0, 5)),
            m=int(rng.integers(0, 5)),
        )
        for branch in (E, G):
            values = []
            for omega_t in (0.0, 1.3, 7.9):
                st = ico_postselected_state(0, p, omega_t)
                try:
                    fields, _ = condition_on_atom(st, branch)
                except ImpossiblePostselectionError:
                    break
                values.append(linear_entropy(reduced_cavity0(fields)))
            if len(values) == 3:
                checked += 1
                worst = max(worst, max(abs(v - values[0]) for v in values[1:]))
    assert checked > 0
    assert worst <= 1e-12
    print(
        f"[PASS] criterion 13: entropies at omega*t in {{0, 1.3, 7.9}} agree to "
        f"{worst:.2e} across {checked} branch draws"
    )


def test_criterion_14_ico_plateau():
    # Plateau = a gT window of width >= 0.3 whose total variation is < 0.02.
    # The superposed-order curve must contain one over which the definite-order
    # curve shows no plateau at all (the two flatten together at the shared
    # inversion minima, so the comparison is made over the same window).
    step = 0.01
    width_points = int(round(0.3 / step))
    gts = [step * i for i in range(1001)]
    ico = [sigma_z_ico(balanced(gt)) for gt in gts]
    ser = [sigma_z_series(params(gt)) for gt in gts]

    def window_tv(values, start):
        return sum(
            abs(values[k + 1] - values[k]) for k in range(start, start + width_points)
        )

    starts = range(len(gts) - width_points)
    ico_flat = [s for s in starts if window_tv(ico, s) < 0.02]
    assert ico_flat, "no plateau found in the superposed-order curve"
    series_flat = {s for s in starts if window_tv(ser, s) < 0.02}
    # a plateau interval of the ICO curve no part of which is flat in series
    isolated = [
        s
        for s in ico_flat
        if not any(
            other in series_flat
            for other in range(max(0, s - width_points), min(len(gts) - width_points, s + width_points + 1))
        )
    ]
    assert isolated, "every ICO plateau coincides with a series-flat window"
    best = min(isolated, key=lambda s: window_tv(ico, s))
    print(
        f"[PASS] criterion 14: ICO plateau on gT in "
        f"[{gts[best]:.2f}, {gts[best + width_points]:.2f}] with TV "
        f"{window_tv(ico, best):.2e}; series TV there {window_tv(ser, best):.3f} >= 0.02"
    )
