import copy
import dataclasses
import math
import pickle

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
from ico_cqed.states import pruned_state
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


def test_full_ket_refuses_a_rest_that_is_not_an_atom_field_ket():
    with pytest.raises(ValueError, match="^rest: must be an AtomFieldKet, got 'x'$"):
        FullKet(0, "x")


def test_pure_state_refuses_a_key_that_is_not_a_ket():
    with pytest.raises(TypeError, match="^not a ket: 'x'$"):
        PureState({"x": 1.0})


def test_prune_and_finiteness():
    st = PureState({AtomFieldKet(E, 0, 0): 1.0, AtomFieldKet(G, 0, 0): 1e-16})
    assert st.kets() == [AtomFieldKet(E, 0, 0)]
    with pytest.raises(ValueError):
        PureState({AtomFieldKet(E, 0, 0): complex("nan")})
    with pytest.raises(ValueError):
        PureState({AtomFieldKet(E, 0, 0): complex("inf")})


#: repr of AtomFieldKet(E, 0, 0) and AtomFieldKet(G, 1, 2), as refusals print them
E00 = "AtomFieldKet(atom=<AtomLevel.EXCITED: 0>, n=0, m=0)"
G12 = "AtomFieldKet(atom=<AtomLevel.GROUND: 1>, n=1, m=2)"


def refusal(amplitudes) -> BaseException:
    """The exception PureState(amplitudes) raises."""
    with pytest.raises(Exception) as err:
        PureState(amplitudes)
    return err.value


@pytest.mark.parametrize("amplitudes, error, text", [
    ({("x", 1): 1.0}, TypeError, "not a ket: ('x', 1)"),
    ({AtomFieldKet(E, 0, 0): 1.0, 3: 1.0}, TypeError, "not a ket: 3"),
    ({AtomFieldKet(E, 0, 0): 1e-16, "x": 1.0}, TypeError, "not a ket: 'x'"),
    ({AtomFieldKet(E, 0, 0): 1.0, "x": complex("nan")}, TypeError, "not a ket: 'x'"),
    ({AtomFieldKet(E, 0, 0): 1.0, FieldsKet(0, 0): 1.0}, FlavorMismatchError,
     "mixed ket flavors AtomFieldKet and FieldsKet"),
    ({FieldsKet(0, 0): 1.0, AtomFieldKet(E, 0, 0): 1.0}, FlavorMismatchError,
     "mixed ket flavors FieldsKet and AtomFieldKet"),
    ({FullKet(1, AtomFieldKet(E, 0, 0)): 1.0, AtomFieldKet(E, 0, 0): 1.0}, FlavorMismatchError,
     "mixed ket flavors FullKet and AtomFieldKet"),
    # a pruned ket still sets the flavor, and the flavor is checked before the amplitude
    ({AtomFieldKet(E, 0, 0): 1e-16, FieldsKet(0, 0): 1.0}, FlavorMismatchError,
     "mixed ket flavors AtomFieldKet and FieldsKet"),
    ({AtomFieldKet(E, 0, 0): 1.0, FieldsKet(0, 0): complex("nan")}, FlavorMismatchError,
     "mixed ket flavors AtomFieldKet and FieldsKet"),
    ({AtomFieldKet(E, 0, 0): complex("nan"), FieldsKet(0, 0): 1.0}, ValueError,
     f"non-finite amplitude (nan+0j) on {E00}"),
    ({AtomFieldKet(E, 0, 0): float("nan")}, ValueError, f"non-finite amplitude (nan+0j) on {E00}"),
    ({AtomFieldKet(E, 0, 0): math.inf}, ValueError, f"non-finite amplitude (inf+0j) on {E00}"),
    ({AtomFieldKet(E, 0, 0): -math.inf}, ValueError, f"non-finite amplitude (-inf+0j) on {E00}"),
    ({AtomFieldKet(E, 0, 0): complex(math.inf, math.nan)}, ValueError,
     f"non-finite amplitude (inf+nanj) on {E00}"),
    ({AtomFieldKet(E, 0, 0): complex(0.0, -math.inf)}, ValueError,
     f"non-finite amplitude -infj on {E00}"),
    # a NaN is never pruned, even beside a magnitude below PRUNE_EPSILON
    ({AtomFieldKet(E, 0, 0): complex(1e-16, math.nan)}, ValueError,
     f"non-finite amplitude (1e-16+nanj) on {E00}"),
    ({AtomFieldKet(E, 0, 0): 1e-16, AtomFieldKet(G, 1, 2): complex("nan")}, ValueError,
     f"non-finite amplitude (nan+0j) on {G12}"),
    ({AtomFieldKet(E, 0, 0): 1e-16, AtomFieldKet(G, 1, 2): -math.inf}, ValueError,
     f"non-finite amplitude (-inf+0j) on {G12}"),
    ({AtomFieldKet(E, 0, 0): 1e-16, AtomFieldKet(G, 1, 2): complex(math.inf, math.nan)},
     ValueError, f"non-finite amplitude (inf+nanj) on {G12}"),
    # finite parts whose magnitude overflows a float
    ({AtomFieldKet(E, 0, 0): 1.3e308 * (1 + 1j)}, ValueError,
     f"amplitude (1.3e+308+1.3e+308j) on {E00}: its magnitude overflows a float"),
    ({AtomFieldKet(E, 0, 0): 1.0, AtomFieldKet(G, 1, 2): complex(-1.7e308, -1e308)}, ValueError,
     f"amplitude (-1.7e+308-1e+308j) on {G12}: its magnitude overflows a float"),
])
def test_pure_state_refusals_keep_their_type_text_and_precedence(amplitudes, error, text):
    err = refusal(amplitudes)
    assert type(err) is error
    assert str(err) == text


def test_pure_state_keeps_a_huge_finite_amplitude_and_prunes_a_tiny_one():
    huge = PureState({AtomFieldKet(E, 0, 0): 1e308 + 1e308j, AtomFieldKet(G, 1, 2): 1e-16})
    assert huge.items() == [(AtomFieldKet(E, 0, 0), 1e308 + 1e308j)]
    assert huge.flavor is AtomFieldKet
    tiny = PureState({AtomFieldKet(E, 0, 0): 1e-16, AtomFieldKet(G, 1, 2): -1e-16j})
    assert len(tiny) == 0 and tiny.flavor is None and tiny == PureState()


def built(build):
    """build() as a value: the state it returns, or the refusal it raises."""
    try:
        return build()
    except (TypeError, ValueError) as err:
        return err


def stored(state: PureState) -> list:
    """The kets of a state in the order it stores them, each with its amplitude's bits."""
    return [(ket, amp.real.hex(), amp.imag.hex()) for ket, amp in state._amps.items()]


@pytest.mark.parametrize("amps", [
    [1.0 + 0j, complex("nan")],
    [0.5j, complex(0.0, math.inf)],
    [0.6 + 0j, complex(-math.inf, 1.0), complex("nan")],
    # finite parts, but a magnitude overflows a float
    [0.6 + 0j, 1.3e308 + 1.3e308j],
    # each magnitude finite, their sum not: PureState builds the state
    [1e308 + 0j, 1e308 + 0j],
    # zeros and the smallest magnitude prune_amplitudes keeps
    [0j, 0.6 + 0.8j, complex(-0.0, 0.0), 1e-15 + 0j, complex(0.0, -1e-15)],
    [0j, complex(-0.0, -0.0)],
    [],
], ids=["nan", "inf", "inf-then-nan", "magnitude-overflow", "sum-overflow", "zeros", "all-zero",
        "none"])
@pytest.mark.parametrize("flavor", [AtomFieldKet, FullKet])
def test_pruned_state_gives_what_pure_state_gives(amps, flavor):
    rests = [AtomFieldKet(E, n, 1) for n in range(len(amps))]
    kets = rests if flavor is AtomFieldKet else [FullKet(n % 2, k) for n, k in enumerate(rests)]
    arrays = (kets, amps)
    fast = built(lambda: pruned_state(kets, amps, arrays))
    slow = built(lambda: PureState(dict(zip(kets, amps))))
    assert type(fast) is type(slow)
    if isinstance(slow, Exception):
        assert str(fast) == str(slow)
        return
    assert stored(fast) == stored(slow) and fast == slow
    assert fast.flavor is slow.flavor and slow._arrays is None
    # only a state built in the one check keeps the arrays, and only if it has a flavor
    assert fast._arrays is (arrays if fast and math.isfinite(sum(map(abs, amps))) else None)


KET_FIELDS = {AtomFieldKet: ("atom", "n", "m"), FullKet: ("control", "rest")}
#: a value of each flavor's last field that none of the kets below holds
OTHER = {AtomFieldKet: 5, FullKet: AtomFieldKet(G, 4, 4)}


@pytest.mark.parametrize("ket", [AtomFieldKet(E, 2, 3), AtomFieldKet(G, 0, 7),
                                 FullKet(1, AtomFieldKet(G, 2, 3)),
                                 FullKet(0, AtomFieldKet(E, 0, 0))], ids=repr)
def test_ket_hash_is_the_hash_of_its_fields(ket):
    names = KET_FIELDS[type(ket)]
    assert tuple(f.name for f in dataclasses.fields(ket)) == names
    values = tuple(getattr(ket, name) for name in names)
    assert hash(ket) == hash(values)
    # built afresh, copied, replaced or pickled: equal, and hashing equal
    rebuilt = type(ket)(*values)
    assert rebuilt is not ket
    for twin in (rebuilt, dataclasses.replace(ket), copy.copy(ket), copy.deepcopy(ket),
                 pickle.loads(pickle.dumps(ket))):
        assert type(twin) is type(ket)
        assert twin == ket and hash(twin) == hash(ket)
        assert repr(twin) == repr(ket)
        assert {twin: 1}[ket] == 1
    # a replaced field hashes anew
    changed = dataclasses.replace(ket, **{names[-1]: OTHER[type(ket)]})
    assert changed != ket and hash(changed) == hash((*values[:-1], OTHER[type(ket)]))


def test_ket_repr_and_order_are_those_of_the_dataclass():
    assert repr(AtomFieldKet(E, 2, 3)) == "AtomFieldKet(atom=<AtomLevel.EXCITED: 0>, n=2, m=3)"
    assert repr(FullKet(1, AtomFieldKet(G, 2, 3))) == (
        "FullKet(control=1, rest=AtomFieldKet(atom=<AtomLevel.GROUND: 1>, n=2, m=3))")
    kets = [AtomFieldKet(a, n, m) for a in (G, E) for n in (3, 0, 1) for m in (2, 0)]
    assert sorted(kets) == sorted(kets, key=lambda k: (k.atom, k.n, k.m))
    full = [FullKet(c, k) for k in kets for c in (1, 0)]
    assert sorted(full) == sorted(full, key=lambda k: (k.control, k.rest.atom, k.rest.n, k.rest.m))


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
    with pytest.raises(ValueError, match="^cannot normalize the zero state$"):
        PureState().normalized()
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
    # a state is never equal to a value of another type
    assert PureState() != "x"
    assert PureState().__eq__("x") is NotImplemented
