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
from ico_cqed.oracle import _evolve_branches, _guard_population
from ico_cqed.verify import random_params
from helpers import E, G, excitation_distribution, initial_atom_field_state, max_amp_diff


def full_state_vector(w, state):
    vec = np.zeros(2 * w.atom_field_dim, dtype=complex)
    for ket, amp in state.items():
        vec[ket.control * w.atom_field_dim + w.index(ket.atom, ket.n, ket.m)] = amp
    return vec


# ---------------------------------------------------------------- generator


@pytest.mark.parametrize(
    "n, m, message",
    [(0, 4, "m must lie in 0..3, got 4"), (4, 0, "n must lie in 0..3, got 4"),
     (-1, 0, "n must lie in 0..3, got -1"), (0, -1, "m must lie in 0..3, got -1")],
)
def test_window_index_refuses_occupation_outside_window(n, m, message):
    # (g, 0, 4) would otherwise alias the flat index of (g, 1, 0)
    w = TruncationWindow(3)
    with pytest.raises(ValueError, match=f"^{message}$"):
        w.index(G, n, m)
    assert w.index(G, 3, 3) == w.atom_field_dim - 1
    assert w.decode(w.index(G, 1, 0)) == (G, 1, 0)


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
        for i in range(w.atom_field_dim):
            for j in range(w.atom_field_dim):
                if h[i, j] != 0:
                    ai, ni, mi = w.decode(i)
                    aj, nj, mj = w.decode(j)
                    assert ai.excitation + ni + mi == aj.excitation + nj + mj


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
    with pytest.raises(ValueError, match="^t must be finite"):
        evolve(p, t, w)
    with pytest.raises(ValueError, match="^t must be finite"):
        jc_propagator(0, t, 1.0, w)


def test_evolve_window_validation():
    p = SystemParams(g=1.0, T=1.0, n=3, m=1)
    with pytest.raises(ValueError):
        evolve(p, 1.0, TruncationWindow(4))  # needs max(n, m) + 2 = 5


def test_guard_population_trips_overflow_check():
    w = TruncationWindow(3)
    for control, ket in ((0, (E, 3, 0)), (1, (G, 0, 3)), (1, (E, 3, 3))):
        leaked = np.zeros((2, w.atom_field_dim), dtype=complex)
        leaked[control, w.index(*ket)] = 0.6j
        leaked[1 - control, w.index(E, 1, 0)] = 0.8
        assert _guard_population(leaked, w) == pytest.approx(0.36, abs=1e-15)
    clean = np.zeros((2, w.atom_field_dim), dtype=complex)
    clean[0, w.index(E, 2, 2)] = 1.0
    assert _guard_population(clean, w) == 0.0


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
    for _ in range(5):
        p = random_params(rng)
        w = TruncationWindow.for_params(p)
        branches = _evolve_branches(p, p.T1 + 0.5 * p.T, w)
        assert _guard_population(branches, w) < 1e-12


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
    message = f"control outcome must be 0 or 1, got {j!r}"
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


@pytest.mark.parametrize("omega,t,field", [(math.nan, 1.0, "omega"), (1.0, math.inf, "t"),
                                           (-math.inf, 0.5, "omega")])
def test_schrodinger_phase_rejects_non_finite_phase(omega, t, field):
    st = PureState({AtomFieldKet(E, 0, 0): 1.0})
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        schrodinger_phase(st, omega, t)
