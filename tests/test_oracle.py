import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from ico_cqed import (
    AtomFieldKet,
    CavityOrder,
    FlavorMismatchError,
    FullKet,
    ImpossiblePostselectionError,
    PureState,
    SystemParams,
    TruncationOverflowError,
    TruncationWindow,
    evolve,
    general_postselect,
    hadamard_control,
    jc_generator,
    jc_propagator,
    measure_control,
    schrodinger_phase,
    state_after_both,
)
from ico_cqed import oracle
from ico_cqed.oracle import MAX_N_MAX, _evolve_branches, _guard_population
from ico_cqed.verify import random_params
from helpers import (
    E,
    G,
    excitation_distribution,
    initial_atom_field_state,
    max_amp_diff,
    window_groups,
)


def full_state_vector(w, state):
    vec = np.zeros(2 * w.atom_field_dim, dtype=complex)
    for ket, amp in state.items():
        rest = ket.rest
        vec[ket.control * w.atom_field_dim + w.index(rest.atom, rest.n, rest.m)] = amp
    return vec


# ---------------------------------------------------------------- generator


@pytest.mark.parametrize(
    "n, m, message",
    [(0, 4, "m: must lie in 0..3, got 4"), (4, 0, "n: must lie in 0..3, got 4"),
     (-1, 0, "n: must lie in 0..3, got -1"), (0, -1, "m: must lie in 0..3, got -1")],
    ids=["0-4-m must lie in 0..3, got 4", "4-0-n must lie in 0..3, got 4",
         "-1-0-n must lie in 0..3, got -1", "0--1-m must lie in 0..3, got -1"],
)
def test_window_index_refuses_occupation_outside_window(n, m, message):
    # (g, 0, 4) would otherwise alias the flat index of (g, 1, 0)
    w = TruncationWindow(3)
    with pytest.raises(ValueError, match=f"^{message}$"):
        w.index(G, n, m)
    assert w.index(G, 3, 3) == w.atom_field_dim - 1
    assert np.unravel_index(w.index(G, 1, 0), (2, w.levels, w.levels)) == (G, 1, 0)


def test_window_is_capped_before_anything_is_allocated(monkeypatch):
    # the cap is checked in the constructor: no array is built on refusal
    def no_arrays(*args, **kwargs):
        raise AssertionError("an array was allocated")

    for name in ("zeros", "empty", "eye"):
        monkeypatch.setattr(oracle.np, name, no_arrays)
    assert TruncationWindow(MAX_N_MAX).atom_field_dim == 2 * (MAX_N_MAX + 1) ** 2
    message = f"^n_max: must lie in 1..{MAX_N_MAX}, got {MAX_N_MAX + 1}$"
    with pytest.raises(ValueError, match=message):
        TruncationWindow(MAX_N_MAX + 1)
    # a draw too large for any window is refused at its window
    p = SystemParams(g=1.0, T=1.0, n=MAX_N_MAX - 1)
    with pytest.raises(ValueError, match=message):
        evolve(p, 1.0, TruncationWindow.for_params(p))
    # the docstring's cost of jc_propagator at the cap: 505 MB
    assert 16 * TruncationWindow(MAX_N_MAX).atom_field_dim ** 2 == 504_990_784
    assert MAX_N_MAX >= 22  # the largest window the oracle_wide benchmark uses


def test_generator_single_excitation_element():
    w = TruncationWindow(3)
    g = 1.7
    h = jc_generator(0, g, w)
    assert h[w.index(G, 1, 0), w.index(E, 0, 0)] == g
    h1 = jc_generator(1, g, w)
    assert h1[w.index(G, 0, 1), w.index(E, 0, 0)] == g


def test_generator_annihilates_ground_vacuum():
    w = TruncationWindow(3)
    h = jc_generator(0, 1.0, w)
    idx = w.index(G, 0, 0)
    assert not h[idx, :].any()
    assert not h[:, idx].any()


def test_generator_doublet_eigenvalues():
    w = TruncationWindow(2)
    g = 0.9
    h = jc_generator(0, g, w)
    pair = [w.index(E, 0, 0), w.index(G, 1, 0)]
    block = h[np.ix_(pair, pair)]
    assert np.allclose(np.linalg.eigvalsh(block), [-g, g], atol=1e-14)


def test_generator_hermitian_and_sector_block_diagonal():
    w = TruncationWindow(4)
    for cavity in (0, 1):
        h = jc_generator(cavity, 1.3, w)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14
        atom, n, m = np.unravel_index(np.arange(w.atom_field_dim), (2, w.levels, w.levels))
        excitations = 1 - atom + n + m
        for i, j in zip(*np.nonzero(h)):
            assert excitations[i] == excitations[j]


# ---------------------------------------------------------------- propagator


def test_propagator_identity_at_zero_time():
    w = TruncationWindow(3)
    assert np.allclose(jc_propagator(0, 0.0, 1.0, w), np.eye(w.atom_field_dim))


def test_propagator_vacuum_rabi_quarter_period():
    w = TruncationWindow(2)
    u = jc_propagator(0, math.pi / 2, 1.0, w)
    vec = np.zeros(w.atom_field_dim, dtype=complex)
    vec[w.index(E, 0, 0)] = 1.0
    out = u @ vec
    assert abs(out[w.index(G, 1, 0)] - (-1j)) < 1e-14
    assert abs(np.linalg.norm(out) - 1.0) < 1e-14


def test_propagator_ground_vacuum_invariant(rng):
    w = TruncationWindow(2)
    for t in rng.uniform(0, 10, 5):
        u = jc_propagator(1, float(t), 1.0, w)
        vec = np.zeros(w.atom_field_dim, dtype=complex)
        vec[w.index(G, 0, 0)] = 1.0
        assert np.allclose(u @ vec, vec, atol=1e-14)


def test_propagator_unitary(rng):
    w = TruncationWindow(5)
    for cavity in (0, 1):
        for t in rng.uniform(0, 20, 5):
            u = jc_propagator(cavity, float(t), 1.4, w)
            assert np.max(np.abs(u.conj().T @ u - np.eye(w.atom_field_dim))) < 1e-10


def test_propagator_matches_matrix_exponential(rng):
    # dressed-rotation assembly vs a generic expm of the generator
    w = TruncationWindow(4)
    for cavity in (0, 1):
        for _ in range(3):
            t = float(rng.uniform(0, 8))
            g = float(rng.uniform(0.3, 2.0))
            u = jc_propagator(cavity, t, g, w)
            u_ref = scipy.linalg.expm(-1j * t * jc_generator(cavity, g, w))
            assert np.max(np.abs(u - u_ref)) < 1e-10


# ---------------------------------------------------------------- piecewise evolution


def test_evolve_identity_before_entry():
    p = SystemParams(g=1.0, T=2.0, T0=1.0, T1=4.0, theta=0.7, xi=0.3, chi=0.2)
    w = TruncationWindow.for_params(p)
    st = evolve(p, 0.5, w)
    init = initial_atom_field_state(p)
    expect = PureState(
        {
            FullKet(0, k): math.cos(p.theta) * a
            for k, a in init.items()
        }
        | {
            FullKet(1, k): math.sin(p.theta) * a
            for k, a in init.items()
        }
    )
    assert max_amp_diff(st, expect) < 1e-12


@pytest.mark.parametrize("theta,order,control", [(0.0, CavityOrder.C0_THEN_C1, 0), (math.pi / 2, CavityOrder.C1_THEN_C0, 1)])
def test_evolve_definite_order_matches_closed_form(rng, theta, order, control):
    for _ in range(5):
        p = SystemParams(
            g=float(rng.uniform(0.5, 2.0)),
            T=float(rng.uniform(0.0, 5.0)),
            theta=theta,
            xi=float(rng.uniform(0, math.pi / 2)),
            chi=float(rng.uniform(0, 2 * math.pi)),
            n=int(rng.integers(0, 4)),
            m=int(rng.integers(0, 4)),
        )
        w = TruncationWindow.for_params(p)
        st = evolve(p, p.T1 + p.T, w)
        target = state_after_both(order, p, p.T)
        assert all(k.control == control for k in st.kets())
        dev = max(
            abs(st.amplitude(FullKet(control, k)) - target.amplitude(k))
            for k in target.kets()
        )
        assert dev < 1e-10


def test_evolve_conserves_norm_and_excitations(rng):
    p = random_params(rng)
    w = TruncationWindow.for_params(p)
    reference = excitation_distribution(evolve(p, 0.0, w))
    for t in rng.uniform(0, p.T1 + p.T + 1.0, 8):
        st = evolve(p, float(t), w)
        assert abs(st.norm() - 1.0) < 1e-10
        dist = excitation_distribution(st)
        assert set(dist) <= set(reference)
        for k, v in reference.items():
            assert abs(dist.get(k, 0.0) - v) < 1e-10


def test_evolve_depends_only_on_durations(rng):
    base = random_params(rng)
    st_ref = evolve(base, base.T1 + base.T, TruncationWindow.for_params(base))
    for _ in range(3):
        t0 = float(rng.uniform(0, 3))
        shifted = replace(base, T0=t0, T1=t0 + base.T + float(rng.uniform(0, 3)))
        st = evolve(shifted, shifted.T1 + shifted.T, TruncationWindow.for_params(shifted))
        assert max_amp_diff(st, st_ref) < 1e-10


def dense_schedule(p, t, w):
    """Per-branch unitaries as products of dense propagators, phase by phase:
    identity before entry, the first cavity's propagator inside the first
    transit, frozen in the gap, then the second cavity's propagator times
    the first's."""
    if t < p.T0:
        u = np.eye(w.atom_field_dim, dtype=complex)
        return u, u
    if t <= p.T0 + p.T:
        dt = t - p.T0
        return jc_propagator(0, dt, p.g, w), jc_propagator(1, dt, p.g, w)
    u0, u1 = jc_propagator(0, p.T, p.g, w), jc_propagator(1, p.T, p.g, w)
    if t < p.T1:
        return u0, u1
    dt = min(t - p.T1, p.T)
    return jc_propagator(1, dt, p.g, w) @ u0, jc_propagator(0, dt, p.g, w) @ u1


def dense_reference_vector(p, t, w):
    psi0 = np.zeros(w.atom_field_dim, dtype=complex)
    psi0[w.index(E, p.n, p.m)] = math.cos(p.xi)
    psi0[w.index(G, p.n, p.m)] = np.exp(1j * p.chi) * math.sin(p.xi)
    u0, u1 = dense_schedule(p, t, w)
    return np.concatenate(
        [math.cos(p.theta) * (u0 @ psi0), np.exp(1j * p.varphi) * math.sin(p.theta) * (u1 @ psi0)]
    )


def test_evolve_matches_dense_schedule_in_every_phase(rng):
    for _ in range(6):
        base = random_params(rng)
        p = replace(base, T1=base.T0 + base.T + float(rng.uniform(0.5, 2.0)))
        w = TruncationWindow.for_params(p)
        phases = [(0.0, p.T0), (p.T0, p.T0 + p.T), (p.T0 + p.T, p.T1), (p.T1, p.T1 + p.T),
                  (p.T1 + p.T, p.T1 + p.T + 2.0)]
        times = [float(rng.uniform(lo, hi)) for lo, hi in phases]
        times += [p.T0, p.T0 + p.T, p.T1, p.T1 + p.T]
        for t in times:
            vec = full_state_vector(w, evolve(p, t, w))
            dev = np.max(np.abs(vec - dense_reference_vector(p, t, w)))
            assert dev < 1e-12, f"t = {t!r}: {dev:.3e}"


def test_engine_matches_oracle_on_wide_envelope():
    # n, m up to 50 and gT up to 1e3: windows up to dimension 5,618, where
    # one dense unitary would take about 0.5 GB.
    rng = np.random.default_rng(4)
    for _ in range(60):
        g = float(rng.uniform(0.5, 2.0))
        transit = float(rng.uniform(0.0, 1e3)) / g
        entry = float(rng.uniform(0.0, 2.0))
        p = SystemParams(
            g=g,
            T=transit,
            omega=float(rng.uniform(0.2, 3.0)),
            theta=float(rng.uniform(0.0, math.pi / 2)),
            varphi=float(rng.uniform(0.0, 2 * math.pi)),
            xi=float(rng.uniform(0.0, math.pi / 2)),
            chi=float(rng.uniform(0.0, 2 * math.pi)),
            n=int(rng.integers(0, 51)),
            m=int(rng.integers(0, 51)),
            T0=entry,
            T1=entry + transit + float(rng.uniform(0.0, 2.0)),
        )
        t = p.T1 + p.T + float(rng.uniform(0.0, 2.0))
        mixed = hadamard_control(evolve(p, t, TruncationWindow.for_params(p)))
        probs = []
        for j in (0, 1):
            analytic, prob_analytic = general_postselect(j, p, p.omega * t)
            numeric, prob_numeric = measure_control(mixed, j)
            numeric = schrodinger_phase(numeric, p.omega, t)
            assert abs(prob_analytic - prob_numeric) < 1e-9
            assert max_amp_diff(analytic, numeric) < 1e-9
            probs.append(prob_numeric)
        assert abs(sum(probs) - 1.0) < 1e-9


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_is_refused(t):
    p = SystemParams(g=1.0, T=1.0, n=1, m=0)
    w = TruncationWindow.for_params(p)
    with pytest.raises(ValueError, match="^t: must be finite"):
        evolve(p, t, w)
    with pytest.raises(ValueError, match="^t: must be finite"):
        jc_propagator(0, t, 1.0, w)


def test_evolve_window_validation():
    p = SystemParams(g=1.0, T=1.0, n=3, m=1)
    with pytest.raises(ValueError):
        evolve(p, 1.0, TruncationWindow(4))  # needs max(n, m) + 2 = 5


def test_guard_population_trips_overflow_check():
    # one column per leak, plus a clean column: each column is summed alone,
    # from its own guard row up; the last two leak below the window's top
    w = TruncationWindow(3)
    leaks = ((0, (E, 3, 0)), (1, (G, 0, 3)), (1, (E, 3, 3)), (0, (G, 2, 1)), (1, (E, 0, 2)))
    tops = np.array([3, 3, 3, 2, 2, 3])
    branches = np.zeros((2, w.atom_field_dim, len(leaks) + 1), dtype=complex)
    for column, (control, ket) in enumerate(leaks):
        branches[control, w.index(*ket), column] = 0.6j
        branches[1 - control, w.index(E, 1, 0), column] = 0.8
    branches[0, w.index(E, 2, 2), len(leaks)] = 1.0
    expected = [0.36] * len(leaks) + [0.0]
    assert _guard_population(branches, tops, w).tolist() == pytest.approx(expected, abs=1e-15)
    assert _guard_population(branches, tops, w)[-1] == 0.0
    # the same leaks below the top row are no leaks for draws whose top is 3
    assert _guard_population(branches, np.full(6, 3), w)[3:].tolist() == [0.0] * 3


def test_evolve_refuses_guard_row_leak(monkeypatch):
    # a rotation that moved weight onto the guard row must trip evolve
    p = SystemParams(g=1.0, T=1.0, n=1, m=0)
    w = TruncationWindow.for_params(p)

    def leaky(x, cavity, t, g, w):
        out = x.copy()
        out[w.index(E, w.n_max, 0)] += x[w.index(E, 1, 0)]
        out[w.index(E, 1, 0)] = 0.0
        return out

    monkeypatch.setattr(oracle, "_rotate", leaky)
    with pytest.raises(TruncationOverflowError):
        evolve(p, p.T1 + p.T, w)


def test_evolve_guard_rows_stay_empty(rng):
    # every draw on its own tight window, the guard row right above the
    # reachable rows: alone, batched with the draws that share the window,
    # and all together on the window of the largest, each draw from its own
    # guard row up
    draws = [(p, p.T1 + 0.5 * p.T) for p in (random_params(rng) for _ in range(20))]
    tops = np.array([max(p.n, p.m) + 2 for p, _ in draws])
    for (p, t), top in zip(draws, tops):
        w = TruncationWindow.for_params(p)
        assert max(_guard_population(_evolve_branches([(p, t)], w), top, w)) < 1e-12
    groups = window_groups(draws)
    assert max(len(group) for _, group in groups) > 1
    for w, group in groups:
        assert max(_guard_population(_evolve_branches(group, w), w.n_max, w)) < 1e-12
    wide = TruncationWindow(int(tops.max()))
    assert len(set(tops.tolist())) > 1
    assert max(_guard_population(_evolve_branches(draws, wide), tops, wide)) < 1e-12


def test_evolve_refuses_a_guard_row_leak_in_one_column(monkeypatch):
    # a batch is refused when a single draw leaks, whichever column it is in
    p = SystemParams(g=1.0, T=1.0, n=1, m=0)
    w = TruncationWindow.for_params(p)
    draws = [(p, p.T1 + p.T)] * 3
    rotate = oracle._rotate

    def leaky_in(column):
        def leaky(x, cavity, t, g, w):
            out = rotate(x, cavity, t, g, w)
            out[w.index(E, w.n_max, 0), column] += 0.1
            return out
        return leaky

    assert max(_guard_population(_evolve_branches(draws, w), w.n_max, w)) == 0.0
    for column in range(len(draws)):
        monkeypatch.setattr(oracle, "_rotate", leaky_in(column))
        with pytest.raises(TruncationOverflowError):
            _evolve_branches(draws, w)


# ---------------------------------------------------------------- recombination and measurement


def test_hadamard_product_state():
    psi = AtomFieldKet(E, 1, 0)
    st = PureState({FullKet(0, psi): 1.0})
    out = hadamard_control(st)
    assert abs(out.amplitude(FullKet(0, psi)) - 1 / math.sqrt(2)) < 1e-14
    assert abs(out.amplitude(FullKet(1, psi)) - 1 / math.sqrt(2)) < 1e-14


def test_hadamard_is_involution(rng):
    p = random_params(rng)
    w = TruncationWindow.for_params(p)
    st = evolve(p, p.T1 + p.T, w)
    assert max_amp_diff(hadamard_control(hadamard_control(st)), st) < 1e-14


def test_hadamard_requires_full_flavor():
    with pytest.raises(FlavorMismatchError):
        hadamard_control(PureState({AtomFieldKet(E, 0, 0): 1.0}))


def test_measure_control_product_state():
    psi = AtomFieldKet(G, 2, 1)
    st = PureState({FullKet(0, psi): 1.0})
    conditional, prob = measure_control(st, 0)
    assert prob == 1.0
    assert conditional.kets() == [psi]
    with pytest.raises(ImpossiblePostselectionError):
        measure_control(st, 1)


@pytest.mark.parametrize("j", [True, False, 1.0, 0.0, 2, -1, "1"])
def test_measure_control_rejects_non_int_outcome(j):
    st = PureState({FullKet(1, AtomFieldKet(G, 2, 1)): 1.0})
    message = f"control outcome: must be 0 or 1, got {j!r}"
    with pytest.raises(ValueError) as oracle_err:
        measure_control(st, j)
    assert str(oracle_err.value) == message
    with pytest.raises(ValueError) as engine_err:
        general_postselect(j, SystemParams(g=1.0, T=1.0))
    assert str(engine_err.value) == message


def test_measure_after_recombination_splits_evenly():
    p = SystemParams(g=1.0, T=math.pi / 2, theta=math.pi / 4)
    w = TruncationWindow.for_params(p)
    mixed = hadamard_control(evolve(p, p.T1 + p.T, w))
    for j in (0, 1):
        _, prob = measure_control(mixed, j)
        assert abs(prob - 0.5) < 1e-12


def test_schrodinger_phase_examples():
    st = PureState({AtomFieldKet(G, 0, 0): 1.0})
    assert schrodinger_phase(st, 1.0, 0.0) == st
    # zero excitations pick up exp(+i*omega*t/2)
    out = schrodinger_phase(st, 1.0, math.pi)
    assert abs(out.amplitude(AtomFieldKet(G, 0, 0)) - 1j) < 1e-14
    # equal-excitation kets keep their relative phase
    pair = PureState(
        {AtomFieldKet(E, 1, 1): 1 / math.sqrt(2), AtomFieldKet(G, 1, 2): 1 / math.sqrt(2)}
    )
    out = schrodinger_phase(pair, 0.7, 1.9)
    ratio_before = pair.amplitude(AtomFieldKet(E, 1, 1)) / pair.amplitude(AtomFieldKet(G, 1, 2))
    ratio_after = out.amplitude(AtomFieldKet(E, 1, 1)) / out.amplitude(AtomFieldKet(G, 1, 2))
    assert abs(ratio_before - ratio_after) < 1e-14
    assert abs(out.norm() - 1.0) < 1e-14


def test_schrodinger_phase_rejects_fields_only():
    from ico_cqed import FieldsKet

    with pytest.raises(FlavorMismatchError):
        schrodinger_phase(PureState({FieldsKet(0, 0): 1.0}), 1.0, 1.0)


def test_schrodinger_phase_rejects_a_full_flavor_state():
    full = evolve(SystemParams(g=1.0, T=1.0, theta=0.5), 1.0, TruncationWindow(2))
    with pytest.raises(FlavorMismatchError, match="^schrodinger_phase requires an atom-field"):
        schrodinger_phase(full, 1.0, 1.0)


@pytest.mark.parametrize("omega,t,field", [(math.nan, 1.0, "omega"), (1.0, math.inf, "t"),
                                           (-math.inf, 0.5, "omega")])
def test_schrodinger_phase_rejects_non_finite_phase(omega, t, field):
    st = PureState({AtomFieldKet(E, 0, 0): 1.0})
    with pytest.raises(ValueError, match=f"^{field}: must be finite"):
        schrodinger_phase(st, omega, t)


def test_phase_refuses_an_overflowing_angle():
    # omega and t are finite, their product is not
    for state in (PureState({AtomFieldKet(E, 0, 0): 1.0}), PureState()):
        with pytest.raises(ValueError, match=r"^omega \* t: must be finite, got inf"):
            schrodinger_phase(state, 1e308, 10.0)
    with pytest.raises(ValueError, match=r"^omega \* t: must be finite, got -inf"):
        oracle.phase(np.ones((1, 1), dtype=complex), (-1e308,), (10.0,), np.array([1]))


def test_phase_refuses_an_overflowing_phase_argument():
    # omega * t is finite, omega * t * (excitations - 1/2) is not
    argument = r"^omega \* t \* \(excitations - 1/2\): must be finite, got "
    with pytest.raises(ValueError, match=argument + "inf"):
        oracle.phase(np.ones((1, 1), dtype=complex), (1e308,), (1.0,), np.array([3]))
    # one overflowing column refuses the batch; the others alone are fine
    amps = np.ones((2, 3), dtype=complex)
    omega, t = (1.0, -1e308, 2.0), (1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=argument + "-inf"):
        oracle.phase(amps, omega, t, np.array([0, 3]))
    assert np.isfinite(oracle.phase(amps[:, ::2], omega[::2], t[::2], np.array([0, 3]))).all()
    # three excitations: 2.5 * 1e308 overflows, -0.5 * 1e308 at none does not
    with pytest.raises(ValueError, match=argument + "inf"):
        schrodinger_phase(PureState({AtomFieldKet(E, 1, 1): 1.0}), 1e308, 1.0)
    ground = PureState({AtomFieldKet(G, 0, 0): 1.0})
    phased = schrodinger_phase(ground, 1e308, 1.0).amplitude(AtomFieldKet(G, 0, 0))
    assert abs(phased) == pytest.approx(1.0, abs=1e-15)


def test_phase_names_the_first_failing_column_and_its_first_field():
    # a NaN omega in column 3 of 5 and an overflowing omega * t in another:
    # the error names the field that fails first in the first failing column
    amps = np.ones((2, 5), dtype=complex)
    excitations = np.array([0, 3])
    omega, t = [1.0, 2.0, 0.5, math.nan, 1.5], [1.0] * 5
    for column, message in ((1, r"omega \* t: must be finite, got inf"),
                            (4, "omega: must be finite, got nan")):
        t_over = list(t)
        t_over[column] = 1e308
        omega_over = list(omega)
        omega_over[column] = 10.0
        with pytest.raises(ValueError, match=f"^{message}$"):
            oracle.phase(amps, omega_over, t_over, excitations)
    # the same per column: omega before t before their products
    with pytest.raises(ValueError, match="^t: must be finite, got nan$"):
        oracle.phase(amps[:, :1], [1e308], [math.nan], excitations)
