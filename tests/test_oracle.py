import math
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg

from ico_cqed import (
    AtomFieldKet,
    CavityOrder,
    FieldsKet,
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
    jc_propagator,
    measure_control,
    schrodinger_phase,
    state_after_both,
)
from ico_cqed import oracle, verify
from ico_cqed.oracle import MAX_N_MAX, _evolve_branches
from ico_cqed.verify import random_params
from helpers import (
    E,
    G,
    draw_table,
    excitation_distribution,
    full_window_branches,
    grid_table,
    initial_atom_field_state,
    jc_generator,
    leaky_rotate,
    max_amp_diff,
    reference_hadamard_control,
    window_branches,
    window_groups,
    window_index,
)


def evolve_branches(draws):
    """_evolve_branches on the draw table of (params, time) draws: the (3, K,
    N) kets, as (atom, n, m), and the (2, K, N) branches on them."""
    return _evolve_branches(draw_table(draws))


def entry_amplitude(kets, branches, control, ket, column):
    """The amplitude of one column's control branch on its one entry |atom, n, m>."""
    (entry,) = np.flatnonzero((kets[:, :, column].T == ket).all(axis=1))
    return branches[control, entry, column]


def full_state_vector(w, state):
    vec = np.zeros(2 * w.atom_field_dim, dtype=complex)
    for ket, amp in state.items():
        rest = ket.rest
        vec[ket.control * w.atom_field_dim + window_index(w, rest.atom, rest.n, rest.m)] = amp
    return vec


# ---------------------------------------------------------------- window and dense generator


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
    assert h[window_index(w, G, 1, 0), window_index(w, E, 0, 0)] == g
    h1 = jc_generator(1, g, w)
    assert h1[window_index(w, G, 0, 1), window_index(w, E, 0, 0)] == g


def test_generator_annihilates_ground_vacuum():
    w = TruncationWindow(3)
    h = jc_generator(0, 1.0, w)
    idx = window_index(w, G, 0, 0)
    assert not h[idx, :].any()
    assert not h[:, idx].any()


def test_generator_doublet_eigenvalues():
    w = TruncationWindow(2)
    g = 0.9
    h = jc_generator(0, g, w)
    pair = [window_index(w, E, 0, 0), window_index(w, G, 1, 0)]
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
    vec[window_index(w, E, 0, 0)] = 1.0
    out = u @ vec
    assert abs(out[window_index(w, G, 1, 0)] - (-1j)) < 1e-14
    assert abs(np.linalg.norm(out) - 1.0) < 1e-14


def test_propagator_ground_vacuum_invariant(rng):
    w = TruncationWindow(2)
    for t in rng.uniform(0, 10, 5):
        u = jc_propagator(1, float(t), 1.0, w)
        vec = np.zeros(w.atom_field_dim, dtype=complex)
        vec[window_index(w, G, 0, 0)] = 1.0
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
    psi0[window_index(w, E, p.n, p.m)] = math.cos(p.xi)
    psi0[window_index(w, G, p.n, p.m)] = np.exp(1j * p.chi) * math.sin(p.xi)
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


def test_draw_table_holds_every_field_and_the_time(rng):
    # one C-contiguous column per SystemParams field plus t, each the values
    # of the draws in order; n and m as ints
    draws = [(p, p.T1 + 0.5) for p in (random_params(rng) for _ in range(5))]
    table = draw_table(draws)
    names = [f.name for f in fields(SystemParams)]
    assert list(table) == [*names, "t"]
    for name in names:
        assert table[name].tolist() == [getattr(p, name) for p, _ in draws], name
    assert table["t"].tolist() == [t for _, t in draws]
    assert table["n"].dtype == table["m"].dtype == int
    assert all(column.dtype == float for name, column in table.items() if name not in ("n", "m"))
    assert all(column.flags.c_contiguous and len(column) == 5 for column in table.values())


def test_grid_table_equals_the_draw_table_of_its_params():
    # the test-side table builder gives the columns draw_table gives for the
    # SystemParams the grid stands for, bit for bit
    grid = np.linspace(0.0, 9.0, 7)
    table = grid_table(2 * grid, g=1.3, T=grid, theta=0.7, xi=0.2, chi=1.1, n=3, m=1)
    expected = draw_table([(SystemParams(g=1.3, T=gt, theta=0.7, xi=0.2, chi=1.1, n=3, m=1), 2 * gt)
                           for gt in grid.tolist()])
    assert table.keys() == expected.keys()
    for name, column in expected.items():
        assert table[name].dtype == column.dtype
        assert table[name].tobytes() == column.tobytes(), name


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_is_refused(t):
    p = SystemParams(g=1.0, T=1.0, n=1, m=0)
    w = TruncationWindow.for_params(p)
    with pytest.raises(ValueError, match="^t: must be finite"):
        evolve(p, t, w)
    with pytest.raises(ValueError, match="^t: must be finite"):
        jc_propagator(0, t, 1.0, w)


def test_a_window_that_is_not_one_is_refused_by_type():
    # it used to escape as an AttributeError on w.n_max
    p = SystemParams(g=1.0, T=1.0)
    for call in (lambda w: evolve(p, 1.0, w), lambda w: jc_propagator(0, 1.0, 1.0, w)):
        for junk in ("abc", 4, None):
            with pytest.raises(TypeError, match=f"^w: must be a TruncationWindow, got {junk!r}$"):
                call(junk)


def test_evolve_window_validation():
    p = SystemParams(g=1.0, T=1.0, n=3, m=1)
    with pytest.raises(ValueError):
        evolve(p, 1.0, TruncationWindow(4))  # needs max(n, m) + 2 = 5


def test_evolve_window_sets_only_its_refusal():
    # the window names no ket: every window from max(n, m) + 2 up gives the
    # same state, and one level fewer is refused
    rng = np.random.default_rng(24)
    for _ in range(8):
        n, m = (int(k) for k in rng.integers(0, 21, size=2))
        p = replace(random_params(rng), n=n, m=m)
        t = float(rng.uniform(0.0, p.T1 + p.T + 1.0))
        top = max(n, m) + 2
        state = evolve(p, t, TruncationWindow(top))
        assert len(state) > 1
        for n_max in range(top + 1, MAX_N_MAX + 1):
            assert evolve(p, t, TruncationWindow(n_max)) == state
        message = rf"^n_max: must be >= max\(n, m\) \+ 2 = {top}, got {top - 1}$"
        with pytest.raises(ValueError, match=message):
            evolve(p, t, TruncationWindow(top - 1))


def test_guard_population_trips_overflow_check(monkeypatch):
    # one column per leak, plus a clean column: each column is checked and
    # summed alone, on its own guard rows, every occupation of a mode at k + 2
    # and up or k - 2 and down; a leak of 0.6j in either branch weighs
    # 0.36 / 2, as theta = pi/4, and draws of three (n, m) share the batch
    picks = ((1, 0), (1, 0), (1, 0), (3, 2), (3, 2), (2, 2))
    draws = [(p, p.T1 + p.T) for p in (SystemParams(g=1.0, T=1.0, theta=math.pi / 4, n=n, m=m)
                                       for n, m in picks)]
    table, w = draw_table(draws), TruncationWindow(5)
    leaks = (
        (0, (E, 3, 0)),  # mode 0 at n + 2
        (1, (G, 0, 2)),  # mode 1, the smaller, at m + 2
        (1, (E, 4, 4)),  # the top of both modes' local windows
        (0, (G, 1, 2)),  # mode 0 at n - 2, the bottom of its local window
        (1, (E, 3, 0)),  # mode 1 at m - 2, occupation 0
    )
    _evolve_branches(table)
    for column, (control, ket) in enumerate(leaks):
        monkeypatch.setattr(oracle, "_rotate", leaky_rotate(table, [(column, control, ket, 0.6j)]))
        with pytest.raises(TruncationOverflowError, match="^guard-row population 1.800e-01$"):
            _evolve_branches(table)
    # two leaks in one column add up; of two leaking columns the first is named
    both = [(2, 0, (E, 3, 0), 0.6j), (2, 1, (G, 1, 3), 0.6j)]
    monkeypatch.setattr(oracle, "_rotate", leaky_rotate(table, both))
    with pytest.raises(TruncationOverflowError, match="^guard-row population 3.600e-01$"):
        _evolve_branches(table)
    two = [(4, 0, (E, 1, 0), 0.6j), (1, 0, (E, 4, 0), 0.2j)]
    monkeypatch.setattr(oracle, "_rotate", leaky_rotate(table, two))
    with pytest.raises(TruncationOverflowError, match="^guard-row population 2.000e-02$"):
        _evolve_branches(table)
    # any population trips it, however small: a rotation leaves a guard row
    # at exactly 0, so even 1.41e-15 (2e-15 weighed), above PRUNE_EPSILON, counts
    monkeypatch.setattr(oracle, "_rotate", leaky_rotate(table, [(5, 1, (E, 4, 2), 2e-15)]))
    with pytest.raises(TruncationOverflowError, match="^guard-row population 2.000e-30$"):
        _evolve_branches(table)
    # the same leaks one occupation nearer each draw's own (n, m) are no
    # leaks: the kets join the compact support
    inner = [(0, 0, (E, 2, 0), 0.6j), (1, 1, (G, 0, 1), 0.6j), (2, 1, (E, 2, 1), 0.6j),
             (3, 0, (G, 2, 2), 0.6j), (4, 1, (E, 3, 1), 0.6j)]
    monkeypatch.setattr(oracle, "_rotate", leaky_rotate(table, inner))
    kets, dirty = _evolve_branches(table)
    for column, control, ket, _ in inner:
        assert abs(entry_amplitude(kets, dirty, control, ket, column)) > 0.4


def test_evolve_refuses_guard_row_leak(monkeypatch):
    # a rotation that moved weight onto the guard row must trip evolve
    p = SystemParams(g=1.0, T=1.0, n=1, m=0)
    w = TruncationWindow.for_params(p)

    def leaky(x, cavity, diag, off, w):
        out = x.copy()
        out[window_index(w, E, w.n_max, 0)] += x[window_index(w, E, 1, 0)]
        out[window_index(w, E, 1, 0)] = 0.0
        return out

    monkeypatch.setattr(oracle, "_rotate", leaky)
    with pytest.raises(TruncationOverflowError):
        evolve(p, p.T1 + p.T, w)


def test_evolve_refuses_a_leak_onto_occupation_k_minus_2(monkeypatch):
    # n = 3: mode 0's local window starts at occupation 1 = n - 2, a guard
    # row that a rotation into |g, 0, m> would have left unchecked
    p = SystemParams(g=1.0, T=1.0, xi=0.4, n=3, m=1)
    t = p.T1 + p.T
    evolve(p, t, TruncationWindow.for_params(p))
    table = draw_table([(p, t)])
    monkeypatch.setattr(oracle, "_rotate", leaky_rotate(table, [(0, 0, (G, 1, 1), 1e-3)]))
    with pytest.raises(TruncationOverflowError, match="^guard-row population 1.000e-06$"):
        evolve(p, t, TruncationWindow.for_params(p))


def test_evolve_refuses_a_leak_onto_k_plus_2_of_the_smaller_mode(monkeypatch):
    # m = 1 guards occupation 3 of mode 1, below n + 2 = 6, the guard row of
    # the larger mode and of the window
    p = SystemParams(g=1.0, T=1.0, n=4, m=1)
    t = p.T1 + p.T
    table = draw_table([(p, t)])
    monkeypatch.setattr(oracle, "_rotate", leaky_rotate(table, [(0, 0, (E, 4, 3), 1e-3)]))
    with pytest.raises(TruncationOverflowError, match="^guard-row population 1.000e-06$"):
        evolve(p, t, TruncationWindow.for_params(p))


def assert_within_reach(draws):
    """The kets each draw populates, from its own (n, m), are one photon or
    none away in each mode."""
    (_, kn, km), branches = evolve_branches(draws)
    populated = branches.any(axis=0)
    n, m = np.array([(p.n, p.m) for p, _ in draws]).T
    assert (abs(kn - n)[populated] <= 1).all() and (abs(km - m)[populated] <= 1).all()


def test_evolve_guard_rows_stay_empty(rng):
    # every draw alone, batched with the draws that share its tight window,
    # and all together with draws of other windows, each draw populating
    # nothing at or beyond its guard rows
    draws = [(p, p.T1 + 0.5 * p.T) for p in (random_params(rng) for _ in range(20))]
    tops = np.array([max(p.n, p.m) + 2 for p, _ in draws])
    for draw in draws:
        assert_within_reach([draw])
    groups = window_groups(draws)
    assert max(len(group) for _, group in groups) > 1
    for _, group in groups:
        assert_within_reach(group)
    assert len(set(tops.tolist())) > 1
    assert_within_reach(draws)


def test_evolve_refuses_a_guard_row_leak_in_one_column(monkeypatch):
    # a batch is refused when a single draw leaks, whichever column it is in
    p = SystemParams(g=1.0, T=1.0, n=1, m=0)
    w = TruncationWindow.for_params(p)
    draws = [(p, p.T1 + p.T)] * 3
    table = draw_table(draws)
    assert_within_reach(draws)
    for column in range(len(draws)):
        leaks = [(column, 0, (E, w.n_max, 0), 0.1)]
        monkeypatch.setattr(oracle, "_rotate", leaky_rotate(table, leaks))
        with pytest.raises(TruncationOverflowError):
            _evolve_branches(table)


def test_local_windows_give_the_full_window_bits():
    # each draw evolved on its own five levels per mode gives, on every ket
    # it populates, the bits of the evolution on all of the window, and
    # nothing elsewhere: mixed (n, m) up to 50 in one batch, at times before,
    # inside and after the transits
    rng = np.random.default_rng(23)
    for larger in (2, 6, 20, 50):
        draws = []
        for _ in range(24):
            n, m = (int(k) for k in rng.integers(0, larger + 1, size=2))
            p = replace(random_params(rng), n=n, m=m)
            draws.append((p, float(rng.uniform(0.0, p.T1 + p.T + 1.0))))
        table = draw_table(draws)
        assert len(set(zip(table["n"].tolist(), table["m"].tolist()))) > 1
        w = TruncationWindow(int(max(table["n"].max(), table["m"].max())) + 2)
        assert window_branches(table, w).tobytes() == full_window_branches(table, w).tobytes()


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


ORACLE_VIEWS = {
    "hadamard_control": (hadamard_control, "a full-flavor state"),
    "measure_control": (lambda s: measure_control(s, 0), "a full-flavor state"),
    "schrodinger_phase": (lambda s: schrodinger_phase(s, 1.0, 1.0), "an atom-field state"),
}


@pytest.mark.parametrize("name", ORACLE_VIEWS)
@pytest.mark.parametrize("junk", ["abc", None, {}, PureState({FieldsKet(0, 1): 1.0})],
                         ids=["str", "None", "dict", "fields state"])
def test_oracle_views_refuse_a_non_state(name, junk):
    # a non-state used to raise AttributeError on its missing flavor
    view, wanted = ORACLE_VIEWS[name]
    with pytest.raises(FlavorMismatchError, match=f"^{name} requires {wanted}, got "):
        view(junk)


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


def test_schrodinger_phase_refuses_an_overflowing_angle():
    # omega and t are finite, their product is not
    for state in (PureState({AtomFieldKet(E, 0, 0): 1.0}), PureState()):
        with pytest.raises(ValueError, match=r"^omega \* t: must be finite, got inf"):
            schrodinger_phase(state, 1e308, 10.0)
    with pytest.raises(ValueError, match=r"^omega \* t: must be finite, got -inf"):
        schrodinger_phase(PureState({AtomFieldKet(G, 2, 0): 1.0}), -1e308, 10.0)


def test_schrodinger_phase_refuses_an_overflowing_phase_argument():
    # omega * t is finite, omega * t * (excitations - 1/2) is not: three
    # excitations, 2.5 * 1e308, overflow, -0.5 * 1e308 at none does not
    argument = r"^omega \* t \* \(excitations - 1/2\): must be finite, got "
    with pytest.raises(ValueError, match=argument + "inf"):
        schrodinger_phase(PureState({AtomFieldKet(E, 1, 1): 1.0}), 1e308, 1.0)
    with pytest.raises(ValueError, match=argument + "-inf"):
        schrodinger_phase(PureState({AtomFieldKet(G, 0, 0): 0.6, AtomFieldKet(G, 2, 1): 0.8}),
                          -1e308, 1.0)
    ground = PureState({AtomFieldKet(G, 0, 0): 1.0})
    phased = schrodinger_phase(ground, 1e308, 1.0).amplitude(AtomFieldKet(G, 0, 0))
    assert abs(phased) == pytest.approx(1.0, abs=1e-15)


def test_phase_of_columns_equals_a_call_per_column():
    # each column is phased with its own omega * t and excitations: 60
    # excitations in column 1 move no bit of column 0, and excitations one
    # per row are every column's
    amps = np.ones((2, 2), dtype=complex)
    omega_t, excitations = np.array([1e307, 1.0]), np.array([[1, 1], [1, 60]])
    both = oracle.phase(amps, omega_t, excitations)
    for c in (0, 1):
        alone = oracle.phase(amps[:, c:c + 1], omega_t[c:c + 1], excitations[:, c:c + 1])
        assert np.ascontiguousarray(both[:, c:c + 1]).tobytes() == alone.tobytes()
    amps, omega_t = np.ones((2, 3), dtype=complex), np.array([1.0, -1e307, 2.0])
    per_row = oracle.phase(amps, omega_t, np.array([[0], [3]]))
    per_entry = oracle.phase(amps, omega_t, np.array([[0, 0, 0], [3, 3, 3]]))
    assert np.isfinite(per_row).all() and per_row.tobytes() == per_entry.tobytes()


def test_phase_over_leading_axes_equals_a_call_per_leading_index():
    # (2, K, N) amplitudes phase as two (K, N) calls, bit for bit, with
    # excitations per entry or per row, and one float omega_t as the same
    # value in every column
    rng = np.random.default_rng(24)
    amps = rng.normal(size=(2, 6, 5)) + 1j * rng.normal(size=(2, 6, 5))
    amps[0, 2, 1] = amps[1, 0, 4] = 1e-17  # pruned
    excitations = rng.integers(0, 9, size=(6, 5))
    omega_t = rng.uniform(0.2, 3.2, 5) * rng.uniform(0.0, 30.0, 5)
    for per in (excitations, excitations[:, :1]):
        both = oracle.phase(amps, omega_t, per)
        assert both.shape == amps.shape and not both[0, 2, 1] and not both[1, 0, 4]
        assert both.tobytes() == np.array([oracle.phase(a, omega_t, per) for a in amps]).tobytes()
        shared = oracle.phase(amps, float(omega_t[2]), per)
        assert shared.tobytes() == oracle.phase(amps, np.full(5, omega_t[2]), per).tobytes()


def test_verify_bounds_the_phase_argument():
    # phase checks nothing, as verify's draws bound its argument: omega below
    # 3, t = T0 + 2T + two gaps below 2 each with T = gT / g, and each mode of
    # a ket on its draw's local window at most k + 2 for k <= 4 photons
    high = verify._LOW + verify._SPAN
    omega, gT, T0, g = high[3], high[1], high[2], verify._LOW[0]
    t = T0 + 2 * (gT / g) + 2.0 + 2.0
    k = 4  # verify draws n and m as int(5 * u) with u < 1
    top = k - min(k, 2) + oracle._LOCAL.n_max  # a mode's largest local occupation
    assert top == k + 2
    bound = omega * t * (1 + 2 * top - 0.5)
    assert bound < 2000
    # and the draws of a run stay within it, kets and padding included
    table = verify._draw_table(3, 200)
    assert table["n"].max() <= k and table["m"].max() <= k
    assert (table["omega"] < omega).all() and (table["t"] < t).all()
    kets, _ = _evolve_branches(table)
    excitations = 1 - kets[0] + kets[1] + kets[2]
    assert excitations.max() <= 1 + 2 * top
    assert (table["omega"] * table["t"] * (excitations - 0.5)).max() < bound


# ---------------------------------------------------------------- stored order and ket caches


def amplitude_bits(state: PureState) -> bytes:
    return np.array([amp for _, amp in state.items()], dtype=complex).tobytes()


def reordered(state: PureState) -> list[PureState]:
    """state, and the same state built from its sorted items forwards, backwards
    and shuffled: equal states whose kets are stored in other orders."""
    items = state.items()
    shuffled = [items[i] for i in np.random.default_rng(len(items)).permutation(len(items))]
    return [state, *(PureState(dict(order)) for order in (items, items[::-1], shuffled))]


def assert_one_result(results):
    """Equal results: states ==, with the same kets and bitwise equal
    amplitudes, and equal probabilities; or one refusal text."""
    first = results[0]
    for other in results[1:]:
        assert type(other) is type(first)
        if isinstance(first, BaseException):
            assert str(other) == str(first)
            continue
        state, other_state = (first, other) if isinstance(first, PureState) else (first[0], other[0])
        assert other_state == state and other_state.kets() == state.kets()
        assert amplitude_bits(other_state) == amplitude_bits(state)
        if not isinstance(first, PureState):
            assert other[1] == first[1]


def outcome(j):
    """measure_control(·, j) as a value: its result, or the refusal it raises."""
    def measured(state):
        try:
            return measure_control(state, j)
        except ImpossiblePostselectionError as err:
            return err
    return measured


def test_views_ignore_the_order_a_state_is_stored_in():
    rng = np.random.default_rng(2025)
    for _ in range(12):
        p = replace(random_params(rng), n=int(rng.integers(0, 21)), m=int(rng.integers(0, 21)))
        t = p.T1 + p.T + float(rng.uniform(0.0, 2.0))
        w = TruncationWindow.for_params(p)
        # with theta 0 only the control-0 branch is populated: outcome 1 is refused
        unmixed = evolve(replace(p, theta=0.0), t, w)
        assert isinstance(outcome(1)(unmixed), ImpossiblePostselectionError)
        for j in (0, 1):
            assert_one_result([outcome(j)(s) for s in reordered(unmixed)])
        mixed = [hadamard_control(s) for s in reordered(evolve(p, t, w))]
        assert_one_result(mixed)
        for j in (0, 1):
            measured = [outcome(j)(s) for s in reordered(mixed[0])]
            assert_one_result(measured)
            if isinstance(measured[0], tuple):
                phased = [schrodinger_phase(s, p.omega, t) for s in reordered(measured[0][0])]
                assert_one_result(phased)


def later_views(state: PureState, p: SystemParams, t: float) -> list:
    """The results of the views that can follow a state: for a full-flavor one
    hadamard_control and measure_control of each outcome, then schrodinger_phase
    of each measured state; for an atom-field one schrodinger_phase."""
    if state.flavor is AtomFieldKet:
        return [schrodinger_phase(state, p.omega, t)]
    results = [hadamard_control(state)]
    for j in (0, 1):
        results.append(outcome(j)(state))
        if isinstance(results[-1], tuple):
            results.append(schrodinger_phase(results[-1][0], p.omega, t))
    return results


def kept_bits(state: PureState) -> tuple:
    """The kets and the bytes of the arrays a view kept on a state."""
    kets, rows = state._arrays
    return list(kets), rows.shape, rows.tobytes()


@pytest.mark.parametrize("larger", [4, 10, 20])
def test_each_view_reads_back_the_arrays_it_kept(larger):
    # each view's output, read back from the arrays it keeps, and the same
    # state rebuilt from its items, read from the dict, give bit for bit the
    # same results through every later view, refusals included; no view
    # writes to the arrays it reads
    rng = np.random.default_rng(larger)
    for _ in range(4):
        other = int(rng.integers(0, larger + 1))
        n, m = (larger, other) if rng.random() < 0.5 else (other, larger)
        p = replace(random_params(rng), n=n, m=m)
        t = p.T1 + p.T + float(rng.uniform(0.0, 2.0))
        w = TruncationWindow.for_params(p)
        evolved = [evolve(p, t, w), evolve(replace(p, theta=0.0), t, w)]
        mixed = [hadamard_control(s) for s in evolved]
        full = [*evolved, *mixed, hadamard_control(mixed[0])]
        measured = [r[0] for r in (outcome(j)(s) for s in full for j in (0, 1))
                    if isinstance(r, tuple)]
        for state in full + measured:
            before = kept_bits(state)
            rebuilt = PureState(dict(state.items()))
            assert rebuilt._arrays is None
            for got, want in zip(later_views(state, p, t), later_views(rebuilt, p, t),
                                 strict=True):
                assert_one_result([want, got])
            assert kept_bits(state) == before


def test_a_kept_zero_moves_no_bound_of_the_phase_check():
    # outcome 1 keeps a zero on |e,1,1> (3 excitations) beside |g,0,0>: at
    # omega * t = 1e308 the state's own kets pass phase's check, as they do
    # when the state is rebuilt without the zero; at 3e308 both refuse alike
    e11, g00 = AtomFieldKet(E, 1, 1), AtomFieldKet(G, 0, 0)
    state = PureState({FullKet(0, e11): 0.6, FullKet(1, e11): 0.6,
                       FullKet(0, g00): 0.8, FullKet(1, g00): -0.8})
    measured, _ = measure_control(hadamard_control(state), 1)
    assert measured._arrays[0] == [e11, g00] and measured.kets() == [g00]
    rebuilt = PureState(dict(measured.items()))
    for omega in (1e308, 3e308):
        def phased(s):
            try:
                return schrodinger_phase(s, omega, 1.0)
            except ValueError as err:
                return err
        assert_one_result([phased(rebuilt), phased(measured)])


def test_an_empty_full_state_keeps_no_arrays():
    # hadamard_control of the empty state is empty, of no flavor, so it also
    # passes schrodinger_phase's flavor check: it must be read as a dict
    empty = hadamard_control(PureState())
    assert empty == PureState() and empty.flavor is None and empty._arrays is None
    assert schrodinger_phase(empty, 1.0, 1.0) == PureState()


def test_ket_caches_stay_within_their_bound():
    # a state of more distinct atom-field kets than either cache holds, both
    # controls populated: _full_kets holds the pair of FullKets of one of them
    rng = np.random.default_rng(7)
    rests = [AtomFieldKet(a, n, m) for a in (E, G) for n in range(50) for m in range(50)]
    kets = [FullKet(c, rest) for c in (0, 1) for rest in rests]
    for cached in (oracle._full_kets, oracle._atom_field_ket):
        assert len(rests) > cached.cache_info().maxsize
    state = PureState(dict(zip(kets, (rng.normal(size=len(kets)) + 0.5j).tolist())))
    for part in (state, PureState(dict(state.items()[: len(kets) // 3])), state):
        assert hadamard_control(part) == reference_hadamard_control(part)
        info = oracle._full_kets.cache_info()
        assert 0 < info.currsize <= info.maxsize
    for a, n, m in np.ndindex(2, 50, 50):
        assert oracle._atom_field_ket(a, n, m) == AtomFieldKet((E, G)[a], n, m)
        info = oracle._atom_field_ket.cache_info()
        assert info.currsize <= info.maxsize
