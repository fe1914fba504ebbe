import math

import pytest

from ico_cqed import (
    AtomFieldKet,
    AtomLevel,
    CavityOrder,
    FieldsKet,
    FlavorMismatchError,
    FullKet,
    PureState,
    SystemParams,
    general_postselect,
    state_after_both,
)
from helpers import E, G, inner_product, max_amp_diff, params, scale_and_add


def test_atom_level_ordering_and_labels():
    assert AtomLevel.EXCITED < AtomLevel.GROUND
    assert AtomLevel.EXCITED.label == "e"
    assert AtomLevel.GROUND.label == "g"
    assert AtomLevel.from_label("e") is AtomLevel.EXCITED
    assert AtomLevel.EXCITED.excitation == 1
    assert AtomLevel.GROUND.excitation == 0
    with pytest.raises(ValueError):
        AtomLevel.from_label("x")


def test_negative_occupation_kets_rejected():
    with pytest.raises(ValueError):
        AtomFieldKet(E, -1, 0)
    with pytest.raises(ValueError):
        FieldsKet(0, -2)
    with pytest.raises(ValueError):
        FullKet(2, AtomFieldKet(E, 0, 0))


def test_ket_ordering_is_control_atom_n_m():
    full = [
        FullKet(1, AtomFieldKet(E, 0, 0)),
        FullKet(0, AtomFieldKet(G, 0, 0)),
        FullKet(0, AtomFieldKet(E, 1, 0)),
        FullKet(0, AtomFieldKet(E, 0, 2)),
        FullKet(0, AtomFieldKet(E, 0, 1)),
    ]
    assert sorted(full) == [
        FullKet(0, AtomFieldKet(E, 0, 1)),
        FullKet(0, AtomFieldKet(E, 0, 2)),
        FullKet(0, AtomFieldKet(E, 1, 0)),
        FullKet(0, AtomFieldKet(G, 0, 0)),
        FullKet(1, AtomFieldKet(E, 0, 0)),
    ]
    atom_field = [AtomFieldKet(G, 0, 1), AtomFieldKet(E, 2, 0), AtomFieldKet(G, 0, 0),
                  AtomFieldKet(E, 0, 3), AtomFieldKet(E, 1, 5)]
    fields = [FieldsKet(2, 0), FieldsKet(0, 7), FieldsKet(1, 1), FieldsKet(0, 2)]
    # PureState.kets() and items() give the dataclass order of every flavor
    for kets in (full, atom_field, fields):
        state = PureState({ket: 1.0 + i for i, ket in enumerate(kets)})
        assert state.kets() == sorted(kets)
        assert state.items() == [(ket, 1.0 + kets.index(ket)) for ket in sorted(kets)]


def test_full_ket_is_a_control_bit_on_an_atom_field_ket():
    # the atom level and photon numbers are read through rest alone
    ket = FullKet(1, AtomFieldKet(G, 2, 3))
    assert (ket.control, ket.rest) == (1, AtomFieldKet(G, 2, 3))
    for member in ("atom", "n", "m", "excitations"):
        assert not hasattr(ket, member)
    assert not hasattr(FieldsKet(2, 3), "excitations")
    assert AtomFieldKet(E, 2, 3).excitations == 6


def test_prune_and_finiteness():
    st = PureState({AtomFieldKet(E, 0, 0): 1.0, AtomFieldKet(G, 0, 0): 1e-16})
    assert st.kets() == [AtomFieldKet(E, 0, 0)]
    with pytest.raises(ValueError):
        PureState({AtomFieldKet(E, 0, 0): complex("nan")})
    with pytest.raises(ValueError):
        PureState({AtomFieldKet(E, 0, 0): complex("inf")})


def test_mixed_flavors_rejected():
    with pytest.raises(FlavorMismatchError):
        PureState({AtomFieldKet(E, 0, 0): 1.0, FieldsKet(0, 0): 1.0})


def test_inner_product_normalization_and_orthogonality():
    psi = PureState({AtomFieldKet(E, 0, 0): 0.6, AtomFieldKet(G, 1, 0): 0.8j})
    assert abs(inner_product(psi, psi) - 1.0) < 1e-15
    a = PureState({AtomFieldKet(E, 0, 0): 1.0})
    b = PureState({AtomFieldKet(G, 1, 0): 1.0})
    assert inner_product(a, b) == 0


def test_inner_product_order_branches_orthogonal_at_quarter_period():
    p = params(math.pi / 2)
    first = state_after_both(CavityOrder.C0_THEN_C1, p, p.T)
    second = state_after_both(CavityOrder.C1_THEN_C0, p, p.T)
    assert abs(inner_product(first, second)) < 1e-12


def test_inner_product_conjugate_symmetric(rng):
    for _ in range(20):
        kets = [AtomFieldKet(E, int(n), int(m)) for n, m in rng.integers(0, 3, (4, 2))]
        a = PureState({k: complex(*rng.normal(size=2)) for k in kets})
        b = PureState({k: complex(*rng.normal(size=2)) for k in kets[1:]})
        lhs = inner_product(a, b)
        rhs = inner_product(b, a).conjugate()
        assert abs(lhs - rhs) < 1e-12


def test_norm_basics():
    assert PureState().norm() == 0.0
    assert PureState({FieldsKet(0, 0): 1.0}).norm() == 1.0
    bell = PureState({FieldsKet(0, 1): 1 / math.sqrt(2), FieldsKet(1, 0): 1 / math.sqrt(2)})
    assert abs(bell.norm() - 1.0) < 1e-15


def test_scale_and_add_identity_and_cancellation():
    psi = PureState({AtomFieldKet(E, 0, 0): 0.6, AtomFieldKet(G, 1, 0): 0.8})
    phi = PureState({AtomFieldKet(G, 0, 1): 1.0})
    assert scale_and_add(1.0, psi, 0.0, phi) == psi
    assert len(scale_and_add(1.0, psi, -1.0, psi)) == 0
    with pytest.raises(FlavorMismatchError):
        scale_and_add(1.0, psi, 1.0, PureState({FieldsKet(0, 0): 1.0}))


def test_scale_and_add_combines_order_branches():
    # At g*T = pi/2 each order branch is a lone one-photon emission ket, so
    # their half-sum renormalizes to -i/sqrt(2) on both kets.
    p = params(math.pi / 2)
    first = state_after_both(CavityOrder.C0_THEN_C1, p, p.T)
    second = state_after_both(CavityOrder.C1_THEN_C0, p, p.T)
    combo = scale_and_add(0.5, first, 0.5, second).normalized()
    target = -1j / math.sqrt(2)
    assert abs(combo.amplitude(AtomFieldKet(G, 1, 0)) - target) < 1e-12
    assert abs(combo.amplitude(AtomFieldKet(G, 0, 1)) - target) < 1e-12


def test_linearity_distributes_over_inner_product(rng):
    kets = [AtomFieldKet(E, int(n), int(m)) for n, m in rng.integers(0, 3, (5, 2))]
    for _ in range(20):
        a = PureState({k: complex(*rng.normal(size=2)) for k in kets[:3]})
        b = PureState({k: complex(*rng.normal(size=2)) for k in kets[2:]})
        c = PureState({k: complex(*rng.normal(size=2)) for k in kets})
        alpha = complex(*rng.normal(size=2))
        beta = complex(*rng.normal(size=2))
        lhs = inner_product(c, scale_and_add(alpha, a, beta, b))
        rhs = alpha * inner_product(c, a) + beta * inner_product(c, b)
        assert abs(lhs - rhs) < 1e-12


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(g=0.0, T=1.0)
    with pytest.raises(ValueError):
        SystemParams(g=1.0, T=-0.5)
    with pytest.raises(ValueError):
        SystemParams(g=1.0, T=1.0, theta=2.0)
    with pytest.raises(ValueError):
        SystemParams(g=1.0, T=1.0, varphi=7.0)
    with pytest.raises(ValueError):
        SystemParams(g=1.0, T=1.0, n=-1)
    with pytest.raises(ValueError):
        SystemParams(g=1.0, T=1.0, T0=1.0, T1=1.5)  # T0 + T > T1
    with pytest.raises(ValueError, match=r"^g\*T: must be finite"):
        SystemParams(g=1e300, T=1e10)  # both finite, the product is not
    for field in ("n", "m"):
        for huge in (2**53, 10**400):
            with pytest.raises(ValueError, match=rf"^{field}: must lie in 0\.\.{2**53 - 1}, got "):
                SystemParams(g=1.0, T=1.0, **{field: huge})
        assert getattr(SystemParams(g=1.0, T=1.0, **{field: 2**53 - 1}), field) == 2**53 - 1
    p = SystemParams(g=2.0, T=3.0, T0=1.0)
    assert p.T1 == 4.0  # defaults to back-to-back transits
    assert p.gT == 6.0


def test_system_params_stores_reals_as_floats():
    p = SystemParams(g=2, T=3, omega=1, theta=1, varphi=0, xi=0, chi=6, n=1, m=2, T0=1, T1=5)
    reals = ("g", "T", "omega", "theta", "varphi", "xi", "chi", "T0", "T1")
    assert all(type(getattr(p, name)) is float for name in reals)
    assert (p.g, p.T, p.T1, p.chi) == (2.0, 3.0, 5.0, 6.0)
    assert type(p.n) is int and type(p.m) is int
    assert type(SystemParams(g=1, T=2).T1) is float
    assert repr(SystemParams(g=1, T=2)) == (
        "SystemParams(g=1.0, T=2.0, omega=1.0, theta=0.0, varphi=0.0, xi=0.0, chi=0.0, "
        "n=0, m=0, T0=0.0, T1=2.0)"
    )
    assert SystemParams(g=1, T=2) == SystemParams(g=1.0, T=2.0)


def test_huge_int_couplings_and_times_compute():
    # an int of 2**64 used to reach numpy as an object array and raise a
    # bare TypeError; stored as a float it computes as the float does
    state, prob = general_postselect(0, SystemParams(g=2**64, T=1.0, theta=0.7))
    assert (state, prob) == general_postselect(0, SystemParams(g=2.0**64, T=1.0, theta=0.7))
    assert 0.0 < prob <= 1.0
    order = CavityOrder.C0_THEN_C1
    state = state_after_both(order, SystemParams(g=1.0, T=2**64), 0.5)
    assert state == state_after_both(order, SystemParams(g=1.0, T=2.0**64), 0.5)
    assert abs(state.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("field", ["g", "T", "omega", "T0", "T1"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_system_params_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=rf"^{field}: must be finite"):
        SystemParams(**{"g": 1.0, "T": 1.0, field: value})


def test_states_are_value_objects():
    psi = PureState({AtomFieldKet(E, 0, 0): 1.0})
    same = PureState({AtomFieldKet(E, 0, 0): 1.0})
    assert psi == same
    assert max_amp_diff(psi, same) == 0.0
