import cmath
import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ico_cqed import (
    MIN_OUTCOME_PROBABILITY,
    AtomFieldKet,
    CavityOrder,
    DegenerateBranchError,
    FieldsKet,
    ImpossiblePostselectionError,
    PureState,
    SystemParams,
    TruncationWindow,
    bell_resonance_gT,
    bell_state,
    coeffs_c,
    coeffs_s,
    condition_on_atom,
    evolve,
    gamma,
    general_postselect,
    hadamard_control,
    ico_postselected_state,
    measure_control,
    state_after_both,
)
from helpers import (
    E,
    G,
    balanced,
    balanced_control_probability,
    initial_atom_field_state,
    inner_product,
    max_amp_diff,
    overlap_orders,
    params,
    scale_and_add,
    scalar_postselect,
    scalar_state_after_both,
)


def random_engine_params(rng, balanced_control=False, **overrides):
    kwargs = dict(
        gt=float(rng.uniform(0.0, 10.0)),
        xi=float(rng.uniform(0.0, math.pi / 2)),
        chi=float(rng.uniform(0.0, 2 * math.pi)),
        n=int(rng.integers(0, 5)),
        m=int(rng.integers(0, 5)),
    )
    kwargs.update(overrides)
    return balanced(**kwargs) if balanced_control else params(**kwargs)


def ten_term_postselected_state(j, p, omega_t):
    """The paper's closed form for the control-j conditional state under the
    balanced preparation, with the global phase exp(-i*omega_t*(n+m+1/2))
    dropped: ten terms built from the two orders' coefficient sets."""
    c1, c2, c3, c4, c5, c6, c7, c8 = coeffs_c(p, p.T)
    s1, s2, s3, s4, s5, s6, s7, s8 = coeffs_s(p, p.T)
    sign = 1.0 if j == 0 else -1.0
    eit = cmath.exp(1j * omega_t)
    scale = 1.0 / (2.0 * math.sqrt(balanced_control_probability(j, p)))
    # The excitation sector n+m+1 carries no interior phase, the sector n+m
    # (reachable only for an atom not prepared purely excited) exp(i*omega_t).
    terms = (
        (c1 + sign * s1, E, 0, 0),
        (c6, E, +1, -1),
        (sign * s6, E, -1, +1),
        (eit * (c2 + sign * s5), E, -1, 0),
        (eit * (c5 + sign * s2), E, 0, -1),
        (eit * (c7 + sign * s7), G, 0, 0),
        (eit * c4, G, -1, +1),
        (eit * sign * s4, G, +1, -1),
        (c3 + sign * s8, G, 0, +1),
        (c8 + sign * s3, G, +1, 0),
    )
    amps = {}
    for amp, atom, dn, dm in terms:
        n, m = p.n + dn, p.m + dm
        if n < 0 or m < 0:
            assert abs(amp) < 1e-30  # each such term carries a zero sin factor
            continue
        amps[AtomFieldKet(atom, n, m)] = amp * scale
    return PureState(amps)


def four_state_postselect(j, p, omega_t):
    """Postselection composed from four PureStates: both scalar order
    branches, scale_and_add with the recombination weights, then normalise
    and phase ket by ket."""
    first = scalar_state_after_both(CavityOrder.C0_THEN_C1, p, p.T)
    second = scalar_state_after_both(CavityOrder.C1_THEN_C0, p, p.T)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    w0 = math.cos(p.theta) * inv_sqrt2
    w1 = (-1.0 if j else 1.0) * cmath.exp(1j * p.varphi) * math.sin(p.theta) * inv_sqrt2
    residual = scale_and_add(w0, first, w1, second)
    prob = residual.squared_norm()
    if prob < MIN_OUTCOME_PROBABILITY:
        raise ImpossiblePostselectionError(f"control outcome {j}", prob)
    scale = 1.0 / math.sqrt(prob)
    amps = {
        ket: amp * scale * cmath.exp(-1j * omega_t * (ket.excitations - 0.5))
        for ket, amp in residual.items()
    }
    return PureState(amps), prob


def postselect_outcome(route, j, p, omega_t):
    """(state or None when refused, probability) of one postselection route."""
    try:
        return route(j, p, omega_t)
    except ImpossiblePostselectionError as err:
        return None, err.probability


def assert_near_reference(outcome, reference):
    """The kernel against a scalar reference: the same refusals and the same
    support, probabilities and amplitudes within 1e-15 (numpy sums and
    multiplies in another order, so last bits move)."""
    (state, prob), (ref_state, ref_prob) = outcome, reference
    assert abs(prob - ref_prob) <= 1e-15
    assert (state is None) == (ref_state is None)
    if state is not None:
        assert state.kets() == ref_state.kets()
        assert max_amp_diff(state, ref_state) <= 1e-15


# ---------------------------------------------------------------- gamma


def test_gamma_values():
    assert gamma(0, 1.0) == 1.0
    assert gamma(-1, 5.0) == 0.0
    assert gamma(3, 1.0) == 2.0


def test_gamma_domain():
    with pytest.raises(ValueError):
        gamma(-2, 1.0)


# ---------------------------------------------------------------- slot amplitudes


def test_coeffs_only_last_slot_survives_at_quarter_period():
    p = params(math.pi / 2)
    for values in (coeffs_c(p, p.T), coeffs_s(p, p.T)):
        for v in values[:7]:
            assert abs(v) < 1e-15
        assert abs(values[7] - (-1j)) < 1e-15


def test_coeffs_no_interaction():
    p = params(0.0)
    for coeffs in (coeffs_c(p, 0.0), coeffs_s(p, 0.0)):
        assert coeffs[0] == 1.0
        assert all(v == 0 for v in coeffs[1:])


def test_coeffs_ground_start_kills_cos_slots():
    p = params(1.3, xi=math.pi / 2, chi=0.0, n=0, m=2)
    c1, c2, c3, c4, _, c6, _, c8 = coeffs_c(p, p.T)
    # sin(gamma_{-1} T) = 0 exactly
    assert c2 == 0 and c4 == 0
    # cos(pi/2) underflows below the prune scale rather than to exact zero
    for v in (c1, c3, c6, c8):
        assert abs(v) < 1e-15


def test_coeffs_unit_sum(rng):
    for _ in range(50):
        p = random_engine_params(rng)
        tau = float(rng.uniform(0.0, p.T)) if p.T > 0 else 0.0
        for coeffs in (coeffs_c(p, tau), coeffs_s(p, tau)):
            assert abs(math.fsum(abs(c) ** 2 for c in coeffs) - 1.0) < 1e-12


def test_coeffs_s_matches_explicit_formulas(rng):
    # spot-check the mirrored set against hand-written expressions
    for _ in range(20):
        p = random_engine_params(rng)
        tau = float(rng.uniform(0.0, p.T)) if p.T > 0 else 0.0
        s = coeffs_s(p, tau)
        g = p.g
        s1 = math.cos(p.xi) * math.cos(gamma(p.m, g) * p.T) * math.cos(gamma(p.n, g) * tau)
        s6 = -math.cos(p.xi) * math.sin(gamma(p.m, g) * p.T) * math.sin(gamma(p.n - 1, g) * tau)
        s8 = -1j * math.cos(p.xi) * math.sin(gamma(p.m, g) * p.T) * math.cos(gamma(p.n - 1, g) * tau)
        s7 = (
            cmath.exp(1j * p.chi)
            * math.sin(p.xi)
            * math.cos(gamma(p.m - 1, g) * p.T)
            * math.cos(gamma(p.n - 1, g) * tau)
        )
        assert abs(s[0] - s1) < 1e-14
        assert abs(s[5] - s6) < 1e-14
        assert abs(s[7] - s8) < 1e-14
        assert abs(s[6] - s7) < 1e-14


def test_coeffs_coincide_for_equal_fill(rng):
    for _ in range(20):
        nm = int(rng.integers(0, 5))
        p = random_engine_params(rng, n=nm, m=nm)
        tau = float(rng.uniform(0.0, p.T)) if p.T > 0 else 0.0
        assert coeffs_c(p, tau) == coeffs_s(p, tau)


def test_coeffs_tau_domain():
    p = params(1.0)
    with pytest.raises(ValueError):
        coeffs_c(p, -0.1)
    with pytest.raises(ValueError):
        coeffs_c(p, 1.5)


# ---------------------------------------------------------------- evolved states


def test_state_after_both_deterministic_emission():
    p = params(math.pi / 2)
    st = state_after_both(CavityOrder.C0_THEN_C1, p, p.T)
    assert st.kets() == [AtomFieldKet(G, 1, 0)]
    assert abs(st.amplitude(AtomFieldKet(G, 1, 0)) - (-1j)) < 1e-14


def test_state_after_both_revival():
    p = params(math.pi)
    st = state_after_both(CavityOrder.C0_THEN_C1, p, p.T)
    assert st.kets() == [AtomFieldKet(E, 0, 0)]
    amp = st.amplitude(AtomFieldKet(E, 0, 0))
    assert abs(abs(amp) - 1.0) < 1e-14


def test_state_after_both_identity_at_zero_time(rng):
    for _ in range(5):
        p = random_engine_params(rng, gt=0.0)
        for order in CavityOrder:
            st = state_after_both(order, p, 0.0)
            assert max_amp_diff(st, initial_atom_field_state(p)) < 1e-15


def test_state_after_both_normalized(rng):
    for _ in range(30):
        p = random_engine_params(rng)
        tau = float(rng.uniform(0.0, p.T)) if p.T > 0 else 0.0
        for order in CavityOrder:
            assert state_after_both(order, p, tau).is_normalized(1e-12)


def test_state_after_both_excitation_sector(rng):
    # excited start populates the (n+m+1) sector, ground start the (n+m) one
    for xi, offset in ((0.0, 1), (math.pi / 2, 0)):
        for _ in range(10):
            p = random_engine_params(rng, xi=xi)
            st = state_after_both(CavityOrder.C0_THEN_C1, p, p.T)
            assert all(k.excitations == p.n + p.m + offset for k in st.kets())


def test_state_after_both_swap_symmetry(rng):
    # exchanging the initial fills and the traversal order mirrors the labels
    for _ in range(20):
        p = random_engine_params(rng)
        swapped = replace(p, n=p.m, m=p.n)
        a = state_after_both(CavityOrder.C0_THEN_C1, p, p.T)
        b = state_after_both(CavityOrder.C1_THEN_C0, swapped, swapped.T)
        for ket, amp in a.items():
            assert abs(amp - b.amplitude(AtomFieldKet(ket.atom, ket.m, ket.n))) < 1e-14


# ---------------------------------------------------------------- overlap and outcome probabilities


def test_overlap_orders_no_interaction():
    assert abs(overlap_orders(params(0.0)) - 1.0) < 1e-15


def test_overlap_orders_vanishes_at_quarter_period():
    assert abs(overlap_orders(params(math.pi / 2))) < 1e-12


def test_overlap_orders_matches_inner_product(rng):
    # the reference overlap of tests/helpers against the two kernel branches,
    # and the balanced P(0) = (1 + Re<psi_C0C1|psi_C1C0>) / 2 of
    # general_postselect
    for _ in range(30):
        p = random_engine_params(rng, balanced_control=True)
        first = state_after_both(CavityOrder.C0_THEN_C1, p, p.T)
        second = state_after_both(CavityOrder.C1_THEN_C0, p, p.T)
        overlap = inner_product(first, second)
        assert abs(overlap_orders(p) - overlap) < 1e-12
        assert abs(overlap) <= 1 + 1e-12
        p0 = postselect_outcome(general_postselect, 0, p, 0.0)[1]
        assert abs(p0 - 0.5 * (1.0 + overlap.real)) < 1e-12


def test_control_probabilities_sum_to_exactly_one(rng):
    # general_postselect normalizes each outcome's residual on its own, so
    # P(0) + P(1) = 1 holds to a few ulps, not bit for bit
    for _ in range(30):
        p = random_engine_params(rng, balanced_control=True)
        probs = [postselect_outcome(general_postselect, j, p, 0.0)[1] for j in (0, 1)]
        assert abs(probs[0] + probs[1] - 1.0) <= 1e-15


def test_control_probability_values():
    # no interaction: both orders leave the initial state, so control
    # outcome 1 cannot occur; at gT = pi/2 the two branches are orthogonal
    p = balanced(0.0)
    assert abs(general_postselect(0, p)[1] - 1.0) <= 1e-15
    with pytest.raises(ImpossiblePostselectionError):
        general_postselect(1, p)
    p = balanced(math.pi / 2)
    for j in (0, 1):
        assert abs(general_postselect(j, p)[1] - 0.5) < 1e-12


# ---------------------------------------------------------------- postselected states


def test_postselected_bell_point():
    st = ico_postselected_state(0, balanced(math.pi / 2), 0.0)
    target = -1j / math.sqrt(2)
    assert abs(st.amplitude(AtomFieldKet(G, 0, 1)) - target) < 1e-12
    assert abs(st.amplitude(AtomFieldKet(G, 1, 0)) - target) < 1e-12
    assert st.is_normalized(1e-12)


def test_postselected_no_interaction():
    p = balanced(0.0, n=1, m=2)
    st = ico_postselected_state(0, p, 0.0)
    assert st.kets() == [AtomFieldKet(E, 1, 2)]
    with pytest.raises(ImpossiblePostselectionError):
        ico_postselected_state(1, p, 0.0)


def test_postselected_normalized_and_t_invariant_support(rng):
    for _ in range(20):
        p = random_engine_params(rng, balanced_control=True)
        for j in (0, 1):
            try:
                st0 = ico_postselected_state(j, p, 0.0)
            except ImpossiblePostselectionError:
                continue
            assert st0.is_normalized(1e-12)
            st1 = ico_postselected_state(j, p, 4.2)
            # the interior phase rotates amplitudes but moves no weight
            assert sorted(st0.kets()) == sorted(st1.kets())
            for k in st0.kets():
                assert abs(abs(st0.amplitude(k)) - abs(st1.amplitude(k))) < 1e-14


def test_postselected_requires_balanced_preparation():
    with pytest.raises(ValueError):
        ico_postselected_state(0, params(1.0, theta=0.0), 0.0)


def test_postselection_matches_ten_term_form(rng):
    # ico_postselected_state equals the paper's form, general_postselect the
    # same form with the dropped global phase reattached; compare away from
    # near-degenerate outcomes where conditional amplitudes lose precision
    for _ in range(25):
        p = random_engine_params(rng, balanced_control=True)
        omega_t = float(rng.uniform(0.0, 8.0))
        for j in (0, 1):
            prob = balanced_control_probability(j, p)
            if prob < 1e-3:
                continue
            reference = ten_term_postselected_state(j, p, omega_t)
            assert max_amp_diff(ico_postselected_state(j, p, omega_t), reference) < 1e-12
            general, general_prob = general_postselect(j, p, omega_t)
            assert abs(general_prob - prob) < 1e-12
            glob = cmath.exp(-1j * omega_t * (p.n + p.m + 0.5))
            rotated = PureState({k: glob * a for k, a in reference.items()})
            assert max_amp_diff(rotated, general) < 1e-12


def test_rounding_noise_outcome_is_refused_on_every_route():
    # P(1) is rounding noise here (about 1e-16): every route must refuse it
    # instead of renormalizing the noise into a state
    p = SystemParams(g=1.0, T=3e-5, theta=math.pi / 4)
    mixed = hadamard_control(evolve(p, p.T1 + p.T, TruncationWindow.for_params(p)))
    for route in (
        lambda: ico_postselected_state(1, p),
        lambda: general_postselect(1, p),
        lambda: measure_control(mixed, 1),
    ):
        with pytest.raises(ImpossiblePostselectionError) as err:
            route()
        assert err.value.probability < MIN_OUTCOME_PROBABILITY


def test_general_postselect_definite_order():
    p = params(1.7, theta=0.0, n=1, m=2)
    st, prob = general_postselect(0, p, 0.0)
    assert abs(prob - 0.5) < 1e-12
    assert max_amp_diff(st, state_after_both(CavityOrder.C0_THEN_C1, p, p.T)) < 1e-12


def test_general_postselect_swapped_definite_order():
    p = params(0.0, theta=math.pi / 2, n=2, m=1)
    st, prob = general_postselect(1, p, 0.0)
    assert abs(prob - 0.5) < 1e-12
    assert abs(abs(st.amplitude(AtomFieldKet(E, 2, 1))) - 1.0) < 1e-12


def test_general_postselect_probabilities_sum_to_one(rng):
    for _ in range(20):
        p = random_engine_params(rng)
        total = 0.0
        for j in (0, 1):
            try:
                _, prob = general_postselect(j, p, 0.0)
            except ImpossiblePostselectionError:
                continue
            total += prob
        assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("omega_t", [math.nan, math.inf, -math.inf])
def test_non_finite_measurement_phase_is_refused(omega_t):
    # refused where it enters, naming the field, before any amplitude is formed
    for route in (general_postselect, ico_postselected_state):
        with pytest.raises(ValueError, match="^omega_t: must be finite"):
            route(0, balanced(1.0), omega_t)


def test_overflowing_measurement_phase_is_refused():
    # finite omega_t whose argument overflows on the ket with n + m + 1 = 4
    # excitations: refused with no numpy warning, which fails the run
    p = SystemParams(g=1, T=1, n=2, m=1, xi=0.3, theta=0.5)
    for route, q in ((general_postselect, p), (ico_postselected_state, balanced(1.0, n=2, m=1))):
        with pytest.raises(ValueError, match=r"^omega_t: must be finite, as must omega_t \* \(n"):
            route(0, q, 1e308)
    # 0.5 * 1e308 and 3.5 * 1e307 stay finite
    assert general_postselect(0, replace(p, n=0, m=0), 1e308)[1] > 0
    assert general_postselect(0, p, 1e307)[1] > 0


def test_general_postselect_equals_four_state_composition(rng):
    cases = []
    for _ in range(300):
        p = random_engine_params(rng, theta=float(rng.uniform(0.0, math.pi / 2)),
                                 varphi=float(rng.uniform(0.0, 2 * math.pi)))
        cases.append((p, float(rng.uniform(0.0, 20.0))))
    # at g*T*sqrt(n+1) = k*pi/2 some slots are cos(k*pi/2), below the prune
    # scale but not 0: branch pruning then decides the last bits
    for n in range(4):
        for k in (1, 2, 3):
            gt = k * math.pi / (2.0 * math.sqrt(n + 1))
            p = random_engine_params(rng, gt=gt, n=n, theta=float(rng.uniform(0.0, math.pi / 2)),
                                     varphi=float(rng.uniform(0.0, 2 * math.pi)))
            cases += [(p, 0.0), (replace(p, n=p.m, m=p.n), 0.0), (replace(p, xi=math.pi / 2), 0.0)]
    # control outcome 1 refused: both orders leave the same state at gT = 0
    # and at the vacuum revival gT = pi, rounding noise at gT = 3e-5; then
    # the two definite orders
    cases += [(balanced(0.0, n=2, m=1), 0.3), (balanced(math.pi), 0.7), (balanced(3e-5), 1.1),
              (params(1.7, theta=0.0, n=1, m=3), 2.0), (params(0.0, theta=math.pi / 2), 0.0)]
    refused = 0
    for p, omega_t in cases:
        for j in (0, 1):
            reference = postselect_outcome(four_state_postselect, j, p, omega_t)
            # the scalar dict path rounds exactly as the composition does
            assert postselect_outcome(scalar_postselect, j, p, omega_t) == reference
            assert_near_reference(postselect_outcome(general_postselect, j, p, omega_t), reference)
            refused += reference[0] is None
    assert refused >= 3


_angles = dict(
    theta=st.floats(0.0, math.pi / 2),
    varphi=st.floats(0.0, 2 * math.pi, exclude_max=True),
    xi=st.floats(0.0, math.pi / 2),
    chi=st.floats(0.0, 2 * math.pi, exclude_max=True),
)
postselect_params = st.builds(
    lambda gT, g, **kw: SystemParams(g=g, T=gT / g, **kw),
    gT=st.floats(0.0, 10.0),
    g=st.floats(0.5, 2.0),
    n=st.integers(0, 6),
    m=st.integers(0, 6),
    **_angles,
)
property_settings = settings(max_examples=150)


@property_settings
@given(p=postselect_params, omega_t=st.floats(0.0, 20.0))
def test_postselect_properties(p, omega_t):
    # normalised states, P(0) + P(1) = 1, support only in the sectors n+m
    # (atom starting ground) and n+m+1 (atom starting excited)
    outcomes = [postselect_outcome(general_postselect, j, p, omega_t) for j in (0, 1)]
    assert abs(outcomes[0][1] + outcomes[1][1] - 1.0) <= 1e-12
    for j, outcome in enumerate(outcomes):
        assert_near_reference(outcome, postselect_outcome(scalar_postselect, j, p, omega_t))
    for state, prob in outcomes:
        if state is None:
            assert prob < MIN_OUTCOME_PROBABILITY
            continue
        assert state.is_normalized(1e-12)
        assert {k.excitations for k in state.kets()} <= {p.n + p.m, p.n + p.m + 1}


@property_settings
@given(p=postselect_params, omega_t=st.floats(0.0, 20.0))
def test_postselect_order_swap_symmetry(p, omega_t):
    # exchanging the fills n <-> m together with the order amplitudes
    # (theta -> pi/2 - theta, varphi -> -varphi) mirrors the conditional state
    # up to the global factor +-exp(i varphi)
    swapped = replace(p, n=p.m, m=p.n, theta=math.pi / 2 - p.theta,
                      varphi=(2 * math.pi - p.varphi) % (2 * math.pi))
    for j in (0, 1):
        state, prob = postselect_outcome(general_postselect, j, p, omega_t)
        mirror, prob_mirror = postselect_outcome(general_postselect, j, swapped, omega_t)
        assert abs(prob - prob_mirror) <= 1e-12
        if min(prob, prob_mirror) < 1e-6:
            continue  # conditional amplitudes of a near-impossible outcome carry noise
        factor = (-1.0 if j else 1.0) * cmath.exp(1j * p.varphi)
        mirrored = PureState({AtomFieldKet(k.atom, k.m, k.n): factor * a for k, a in mirror.items()})
        assert max_amp_diff(state, mirrored) <= 1e-12


# ---------------------------------------------------------------- entangled field pairs


def test_bell_state_ground_vacuum():
    st = bell_state(G, 0, 1)
    target = -1j / math.sqrt(2)
    assert abs(st.amplitude(FieldsKet(0, 1)) - target) < 1e-15
    assert abs(st.amplitude(FieldsKet(1, 0)) - target) < 1e-15


def test_bell_state_excited_degenerate():
    with pytest.raises(DegenerateBranchError):
        bell_state(E, 0, 1)


def test_bell_state_excited_one_photon():
    st = bell_state(E, 1, 1)
    a = st.amplitude(FieldsKet(2, 0))
    b = st.amplitude(FieldsKet(0, 2))
    assert abs(a - b) < 1e-15
    assert abs(abs(a) - 1 / math.sqrt(2)) < 1e-15


def test_bell_state_validation():
    with pytest.raises(ValueError):
        bell_state(G, -1, 1)
    with pytest.raises(ValueError):
        bell_state(G, 0, 0)


@pytest.mark.parametrize(
    "n,resonance,message",
    [pytest.param(-1, 1, "n: must lie in 0..9007199254740991, got -1", id="-1-1-n"),
     pytest.param(1.0, 1, "n: must be an integer, got 1.0", id="1.0-1-n"),
     pytest.param(True, 1, "n: must be an integer, got True", id="True-1-n"),
     pytest.param(0, 0, "resonance: must be >= 1, got 0", id="0-0-resonance"),
     pytest.param(0, -2, "resonance: must be >= 1, got -2", id="0--2-resonance"),
     pytest.param(2, 1.5, "resonance: must be an integer, got 1.5", id="2-1.5-resonance"),
     pytest.param(2**53, 1, "n: must lie in 0..9007199254740991, got 9007199254740992",
                  id="9007199254740992-1-n")],
)
def test_bell_resonance_gT_validation(n, resonance, message):
    # the same checks as bell_state: n = -1 used to divide by zero and
    # resonance = 0 to return a negative time
    for call in (lambda: bell_resonance_gT(n, resonance), lambda: bell_state(G, n, resonance)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("branch,n", [(G, 0), (G, 1), (G, 3), (E, 1), (E, 2)])
@pytest.mark.parametrize("resonance", [1, 2, 3])
def test_bell_state_matches_conditioned_slice(branch, n, resonance):
    p = balanced(bell_resonance_gT(n, resonance), n=n, m=n)
    st = ico_postselected_state(0, p, 0.0)
    fields, _ = condition_on_atom(st, branch)
    assert max_amp_diff(fields, bell_state(branch, n, resonance)) < 1e-12
