import cmath
import math

import numpy as np
import pytest

from ico_cqed import (
    AtomFieldKet,
    CavityOrder,
    FieldDensityMatrix,
    FieldsKet,
    FlavorMismatchError,
    FullKet,
    ImpossiblePostselectionError,
    PureState,
    coeffs_c,
    coeffs_s,
    condition_on_atom,
    gamma,
    ico_postselected_state,
    ket_probability,
    linear_entropy,
    reduced_cavity0,
    sigma_z_expectation,
    sigma_z_ico,
    sigma_z_series,
    state_after_both,
)
from helpers import E, G, balanced, balanced_control_probability, params, sigma_z_ico_reference


def swap_modes(fields: PureState) -> PureState:
    return PureState({FieldsKet(k.m, k.n): a for k, a in fields.items()})


def series_state(gt, **kw):
    p = params(gt, **kw)
    return state_after_both(CavityOrder.C0_THEN_C1, p, p.T)


# ---------------------------------------------------------------- probabilities


def test_ket_probability_series_landmarks():
    assert abs(ket_probability(series_state(math.pi), AtomFieldKet(E, 0, 0)) - 1.0) < 1e-12
    assert abs(ket_probability(series_state(math.pi / 2), AtomFieldKet(G, 1, 0)) - 1.0) < 1e-12


def test_ket_probability_sums_to_one(rng):
    for _ in range(10):
        st = series_state(float(rng.uniform(0, 10)), n=2, m=3)
        total = sum(ket_probability(st, k) for k in st.kets())
        assert abs(total - 1.0) < 1e-12


def test_ket_probability_flavor_guard():
    with pytest.raises(FlavorMismatchError):
        ket_probability(series_state(1.0), FieldsKet(0, 0))


def test_sigma_z_expectation_takes_atom_field_states_only():
    full = PureState({FullKet(0, AtomFieldKet(E, 0, 0)): 0.6,
                      FullKet(1, AtomFieldKet(G, 1, 0)): 0.8})
    with pytest.raises(FlavorMismatchError, match="^sigma_z_expectation requires an atom-field"):
        sigma_z_expectation(full)
    with pytest.raises(FlavorMismatchError):
        sigma_z_expectation(PureState({FieldsKet(0, 0): 1.0}))
    assert sigma_z_expectation(PureState()) == 0.0


# ---------------------------------------------------------------- atom conditioning


def test_condition_on_atom_bell_point():
    st = ico_postselected_state(0, balanced(math.pi / 2), 0.0)
    fields, prob = condition_on_atom(st, G)
    assert abs(prob - 1.0) < 1e-12
    bell = PureState({FieldsKet(0, 1): 1 / math.sqrt(2), FieldsKet(1, 0): 1 / math.sqrt(2)})
    # equal up to the global phase carried by the conditioned slice
    overlap = sum(
        fields.amplitude(k).conjugate() * bell.amplitude(k) for k in bell.kets()
    )
    assert abs(abs(overlap) - 1.0) < 1e-12


def test_condition_on_atom_series_slices(rng):
    # the excited slice keeps the no-emission and photon-interchange kets,
    # the ground slice the two one-emission kets, with the expected weights
    for _ in range(10):
        gt = float(rng.uniform(0.3, 9.7))
        p = params(gt, n=1, m=1)
        st = state_after_both(CavityOrder.C0_THEN_C1, p, p.T)
        cn = math.cos(gamma(1, 1.0) * gt)
        sn = math.sin(gamma(1, 1.0) * gt)
        cm1 = math.cos(gamma(0, 1.0) * gt)
        sm1 = math.sin(gamma(0, 1.0) * gt)
        try:
            fields_e, prob_e = condition_on_atom(st, E)
        except ImpossiblePostselectionError:
            continue
        n_e_sq = (cn * cn) ** 2 + (sn * sm1) ** 2
        assert abs(prob_e - n_e_sq) < 1e-12
        assert abs(abs(fields_e.amplitude(FieldsKet(1, 1))) - abs(cn * cn) / math.sqrt(n_e_sq)) < 1e-12
        assert abs(abs(fields_e.amplitude(FieldsKet(2, 0))) - abs(sn * sm1) / math.sqrt(n_e_sq)) < 1e-12
        fields_g, prob_g = condition_on_atom(st, G)
        assert abs(prob_e + prob_g - 1.0) < 1e-12
        assert set(fields_g.kets()) <= {FieldsKet(1, 2), FieldsKet(2, 1)}


def test_condition_on_atom_product_state():
    psi = PureState({AtomFieldKet(E, 2, 3): 1.0})
    fields, prob = condition_on_atom(psi, E)
    assert prob == 1.0
    assert fields.kets() == [FieldsKet(2, 3)]
    with pytest.raises(ImpossiblePostselectionError, match="^atom level g has probability") as err:
        condition_on_atom(psi, G)
    assert err.value.probability == 0.0


# ---------------------------------------------------------------- reduced density matrices


def test_reduced_product_state_is_rank_one():
    rho = reduced_cavity0(PureState({FieldsKet(3, 5): 1.0}))
    assert rho.offset == 3
    assert rho.dim == 1
    assert rho.elements[0, 0] == 1.0
    assert linear_entropy(rho) < 1e-15


def test_reduced_bell_is_maximally_mixed():
    bell = PureState({FieldsKet(0, 1): 1 / math.sqrt(2), FieldsKet(1, 0): 1 / math.sqrt(2)})
    rho = reduced_cavity0(bell)
    assert np.allclose(rho.elements, np.diag([0.5, 0.5]), atol=1e-14)
    assert abs(linear_entropy(rho) - 0.5) < 1e-14


def test_reduced_series_excited_slice_is_diagonal(rng):
    for _ in range(10):
        gt = float(rng.uniform(0.3, 9.7))
        st = series_state(gt, n=1, m=1)
        try:
            fields, _ = condition_on_atom(st, E)
        except ImpossiblePostselectionError:
            continue
        rho = reduced_cavity0(fields)
        cn = math.cos(math.sqrt(2) * gt) ** 4
        sn = math.sin(math.sqrt(2) * gt) ** 2 * math.sin(gt) ** 2
        weights = np.array([cn, sn]) / (cn + sn)
        # weights attach to photon numbers n and n+1 in the first mode
        assert np.allclose(rho.elements, np.diag(weights), atol=1e-12)


def _ico_reduced_reference(p, omega_t, branch):
    """Transcribed 3x3 reduced matrices for the conditional states, with the
    one off-diagonal term fixed to keep the matrix Hermitian."""
    c1, c2, c3, c4, c5, c6, c7, c8 = coeffs_c(p, p.T)
    s1, s2, s3, s4, s5, s6, s7, s8 = coeffs_s(p, p.T)
    eit = cmath.exp(1j * omega_t)
    if branch is E:
        amps = {
            (0, 2): c1 + s1,
            (1, 1): c6,
            (-1, 3): s6,
            (-1, 2): eit * (c2 + s5),
            (0, 1): eit * (c5 + s2),
        }
        nsq = sum(abs(v) ** 2 for v in amps.values())
        rho = np.zeros((3, 3), dtype=complex)
        rho[2, 2] = abs(c6) ** 2
        rho[2, 1] = cmath.exp(-1j * omega_t) * c6 * (c5 + s2).conjugate()
        rho[1, 2] = cmath.exp(1j * omega_t) * c6.conjugate() * (c5 + s2)
        rho[1, 1] = abs(c1 + s1) ** 2 + abs(c5 + s2) ** 2
        rho[1, 0] = cmath.exp(-1j * omega_t) * (c1 + s1) * (c2 + s5).conjugate()
        rho[0, 1] = cmath.exp(1j * omega_t) * (c1 + s1).conjugate() * (c2 + s5)
        rho[0, 0] = abs(c2 + s5) ** 2 + abs(s6) ** 2
        return rho / nsq
    amps = {
        (0, 2): eit * (c7 + s7),
        (-1, 3): eit * c4,
        (1, 1): eit * s4,
        (0, 3): c3 + s8,
        (1, 2): c8 + s3,
    }
    nsq = sum(abs(v) ** 2 for v in amps.values())
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = abs(c4) ** 2
    rho[0, 1] = cmath.exp(1j * omega_t) * c4 * (c3 + s8).conjugate()
    rho[1, 0] = cmath.exp(-1j * omega_t) * c4.conjugate() * (c3 + s8)
    rho[1, 1] = abs(c3 + s8) ** 2 + abs(c7 + s7) ** 2
    rho[1, 2] = cmath.exp(1j * omega_t) * (c7 + s7) * (c8 + s3).conjugate()
    rho[2, 1] = cmath.exp(-1j * omega_t) * (c7 + s7).conjugate() * (c8 + s3)
    rho[2, 2] = abs(c8 + s3) ** 2 + abs(s4) ** 2
    return rho / nsq


@pytest.mark.parametrize("branch", [E, G])
def test_reduced_ico_matches_transcribed_matrices(rng, branch):
    # general atom preparation so every off-diagonal term is exercised
    for _ in range(8):
        p = balanced(
            float(rng.uniform(0.3, 9.7)),
            xi=float(rng.uniform(0.2, 1.3)),
            chi=float(rng.uniform(0, 2 * math.pi)),
            n=2,
            m=2,
        )
        omega_t = float(rng.uniform(0, 7))
        st = ico_postselected_state(0, p, omega_t)
        try:
            fields, _ = condition_on_atom(st, branch)
        except ImpossiblePostselectionError:
            continue
        rho = reduced_cavity0(fields)
        assert rho.offset == 1
        ref = _ico_reduced_reference(p, omega_t, branch)
        assert np.max(np.abs(rho.elements - ref)) < 1e-12


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        FieldDensityMatrix(0, np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        FieldDensityMatrix(0, np.diag([0.5, 0.4]))  # trace short of one
    with pytest.raises(ValueError):
        FieldDensityMatrix(0, np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative weight


def test_linear_entropy_values():
    assert linear_entropy(FieldDensityMatrix(0, np.diag([1.0]))) == 0.0
    assert abs(linear_entropy(FieldDensityMatrix(0, np.diag([0.5, 0.5]))) - 0.5) < 1e-15
    third = np.diag([1 / 3] * 3)
    assert abs(linear_entropy(FieldDensityMatrix(0, third)) - 2 / 3) < 1e-15


def test_entropy_report_bounds():
    # the first-mode entropy stays under the support-dimension cap
    # 1 - 1/min(d0, d1)
    cases = (
        (ico_postselected_state(0, balanced(1.3, n=1, m=1), 0.0), 2 / 3),
        (series_state(1.3, n=1, m=1), 0.5),
    )
    for st, cap in cases:
        fields, _ = condition_on_atom(st, E)
        d0 = len({k.n for k in fields.kets()})
        d1 = len({k.m for k in fields.kets()})
        bound = 1.0 - 1.0 / min(d0, d1)
        assert bound == pytest.approx(cap)
        assert 0.0 <= linear_entropy(reduced_cavity0(fields)) <= bound + 1e-12


# ---------------------------------------------------------------- entropy properties


def test_series_entropy_capped_at_half(rng):
    for _ in range(25):
        st = series_state(float(rng.uniform(0, 10)), n=int(rng.integers(0, 4)), m=int(rng.integers(0, 4)))
        for branch in (E, G):
            try:
                fields, _ = condition_on_atom(st, branch)
            except ImpossiblePostselectionError:
                continue
            assert linear_entropy(reduced_cavity0(fields)) <= 0.5 + 1e-12


def test_ico_entropy_capped_at_two_thirds(rng):
    for _ in range(25):
        p = balanced(float(rng.uniform(0, 10)), n=int(rng.integers(0, 4)), m=int(rng.integers(0, 4)))
        st = ico_postselected_state(0, p, 0.0)
        for branch in (E, G):
            try:
                fields, _ = condition_on_atom(st, branch)
            except ImpossiblePostselectionError:
                continue
            assert linear_entropy(reduced_cavity0(fields)) <= 2 / 3 + 1e-12


def test_ico_ground_entropy_constant_for_equal_fill(rng):
    for nm in (0, 1, 2):
        for gt in rng.uniform(0.05, 10, 15):
            p = balanced(float(gt), n=nm, m=nm)
            st = ico_postselected_state(0, p, 0.0)
            try:
                fields, prob = condition_on_atom(st, G)
            except ImpossiblePostselectionError:
                continue
            if prob > 1e-6:
                assert abs(linear_entropy(reduced_cavity0(fields)) - 0.5) < 1e-9


def test_entropy_same_whichever_mode_is_traced(rng):
    for _ in range(10):
        p = balanced(float(rng.uniform(0.2, 9.8)), n=1, m=2, xi=0.5, chi=1.0)
        st = ico_postselected_state(0, p, 1.3)
        for branch in (E, G):
            try:
                fields, _ = condition_on_atom(st, branch)
            except ImpossiblePostselectionError:
                continue
            s0 = linear_entropy(reduced_cavity0(fields))
            s1 = linear_entropy(reduced_cavity0(swap_modes(fields)))
            assert abs(s0 - s1) < 1e-12


def test_entropy_independent_of_measurement_time(rng):
    for _ in range(10):
        p = balanced(
            float(rng.uniform(0.2, 9.8)),
            xi=float(rng.uniform(0, math.pi / 2)),
            chi=float(rng.uniform(0, 2 * math.pi)),
            n=int(rng.integers(0, 4)),
            m=int(rng.integers(0, 4)),
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
            for v in values[1:]:
                assert abs(v - values[0]) < 1e-12


def test_series_zero_entanglement_case(rng):
    # initial fill (n, 0) with an excited atom leaves the excited slice pure
    for gt in rng.uniform(0.1, 10, 10):
        st = series_state(float(gt), n=3, m=0)
        try:
            fields, _ = condition_on_atom(st, E)
        except ImpossiblePostselectionError:
            continue
        assert abs(linear_entropy(reduced_cavity0(fields))) < 1e-12


# ---------------------------------------------------------------- inversions and excitations


def test_sigma_z_series_landmarks():
    assert sigma_z_series(params(0.0)) == 1.0
    assert abs(sigma_z_series(params(math.pi / 2)) - (-1.0)) < 1e-12
    assert abs(sigma_z_series(params(math.pi)) - 1.0) < 1e-12


def test_sigma_z_series_matches_direct_expectation(rng):
    for _ in range(20):
        p = params(float(rng.uniform(0, 10)), n=int(rng.integers(0, 4)), m=int(rng.integers(0, 4)))
        direct = sigma_z_expectation(state_after_both(CavityOrder.C0_THEN_C1, p, p.T))
        assert abs(sigma_z_series(p) - direct) < 1e-12


def test_sigma_z_series_requires_excited_atom():
    with pytest.raises(ValueError):
        sigma_z_series(params(1.0, xi=0.3))


def test_sigma_z_ico_landmarks():
    assert sigma_z_ico(balanced(0.0)) == 1.0
    assert abs(sigma_z_ico(balanced(math.pi / 2)) - (-1.0)) < 1e-12


def test_sigma_z_ico_matches_direct_expectation(rng):
    # against the state at another measurement time and against the paper's
    # coefficient algebra kept in tests/helpers
    for _ in range(20):
        p = balanced(float(rng.uniform(0, 10)), n=int(rng.integers(0, 4)), m=int(rng.integers(0, 4)))
        if balanced_control_probability(0, p) < 1e-6:
            continue
        direct = sigma_z_expectation(ico_postselected_state(0, p, float(rng.uniform(0, 5))))
        assert abs(sigma_z_ico(p) - direct) < 1e-12
        assert abs(sigma_z_ico(p) - sigma_z_ico_reference(p)) < 1e-12


def test_sigma_z_ico_requires_excited_atom_and_balance():
    with pytest.raises(ValueError):
        sigma_z_ico(balanced(1.0, xi=0.2))
    with pytest.raises(ValueError):
        sigma_z_ico(params(1.0, theta=0.1))


def test_excitation_expectation_conserved(rng):
    for gt in rng.uniform(0, 10, 10):
        st = series_state(float(gt), n=1, m=1)
        mean = math.fsum(abs(a) ** 2 * k.excitations for k, a in st.items())
        assert abs(mean - 3.0) < 1e-12
