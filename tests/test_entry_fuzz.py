"""Every public entry point that takes a scalar input either accepts it or
refuses it with a ValueError whose message starts with the field's name.

Each field is drawn well-formed or as junk: bools, strings, None, lists,
complex numbers, NaN, the infinities and ints of magnitude 2**53 and up.
A call whose fields are all well-formed must succeed.  No grid is run, and
every draw count and window stays at or below the defaults."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ico_cqed import (
    AtomFieldKet,
    AtomicInversion,
    AtomLevel,
    BranchEntropy,
    CavityOrder,
    KetProbability,
    PureState,
    SweepConfig,
    SystemParams,
    TruncationWindow,
    bell_resonance_gT,
    condition_on_atom,
    config_from_dict,
    evolve,
    general_postselect,
    run_verification,
    schrodinger_phase,
    state_after_both,
)
from ico_cqed.oracle import MAX_N_MAX
from helpers import E, G

JUNK = st.one_of(
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(-2, 2), max_size=2),
    st.complex_numbers(max_magnitude=10.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(min_value=2**53),
    st.integers(max_value=-(2**53)),
)


def reals(low, high):
    """Floats in [low, high] and the ints there, which are reals as well."""
    return st.one_of(st.floats(low, high), st.integers(math.ceil(low), math.floor(high)))


ANGLES = {
    "theta": reals(0.0, math.pi / 2),
    "varphi": reals(0.0, 6.28),
    "xi": reals(0.0, math.pi / 2),
    "chi": reals(0.0, 6.28),
}
PHOTONS = {"n": st.integers(0, 3), "m": st.integers(0, 3)}
# A fixed draw for the calls that fuzz one time or phase input: both control
# outcomes are possible, and the tight window is n_max 3.
P = SystemParams(g=1.0, T=1.0, theta=math.pi / 4, xi=0.3, n=1, m=0)
STATE = PureState({AtomFieldKet(E, 1, 0): 0.6, AtomFieldKet(G, 0, 1): 0.8j})

SWEEP_FIELDS = {
    **PHOTONS,
    **ANGLES,
    "gT_start": reals(0.0, 1.0),
    "gT_stop": reals(5.0, 10.0),
    "gT_step": reals(0.01, 1.0),
    "omega_t": reals(-20.0, 20.0),
}
FLOAT_FIELDS = ("xi", "chi", "theta", "varphi", "gT_start", "gT_stop", "gT_step", "omega_t")


def _sweep_config(**kw):
    cfg = SweepConfig(**kw)
    assert all(type(getattr(cfg, name)) is float for name in FLOAT_FIELDS)
    assert isinstance(cfg.quantities, tuple)
    hash(cfg)
    return cfg


# name -> (call, well-formed value per field, names a refusal may start with
# beyond the fields: the relations between inputs and per-entry names)
TARGETS = {
    "SystemParams": (
        SystemParams,
        {"g": reals(0.1, 3.0), "T": reals(0.0, 3.0), "omega": reals(0.1, 3.0), **ANGLES,
         **PHOTONS, "T0": reals(0.0, 2.0), "T1": st.just(None)},
        {"g*T"},
    ),
    "SweepConfig": (
        _sweep_config,
        {"scenario": st.sampled_from(["series_C0C1", "ico_j0"]),
         "quantities": st.just((AtomicInversion(),)), **SWEEP_FIELDS},
        {"quantities[0]"},
    ),
    "config_from_dict": (
        lambda **kw: config_from_dict({"scenario": "ico_j1", "quantities": [{"kind": "sigma_z"}],
                                       **kw}),
        SWEEP_FIELDS,
        set(),
    ),
    "KetProbability": (
        KetProbability, {"atom": st.sampled_from(AtomLevel), **PHOTONS}, set()
    ),
    "BranchEntropy": (BranchEntropy, {"atom_branch": st.sampled_from(AtomLevel)}, set()),
    "TruncationWindow": (TruncationWindow, {"n_max": st.integers(1, MAX_N_MAX)}, set()),
    "run_verification": (
        run_verification,
        {"seed": st.integers(0, 2**80), "draws": st.integers(1, 3),
         "tolerance": reals(0.0, 1.0)},
        set(),
    ),
    "state_after_both": (
        lambda tau: state_after_both(CavityOrder.C1_THEN_C0, P, tau), {"tau": reals(0.0, 1.0)},
        set(),
    ),
    "general_postselect": (
        lambda omega_t: general_postselect(0, P, omega_t), {"omega_t": reals(-20.0, 20.0)},
        set(),
    ),
    "evolve": (
        lambda t: evolve(P, t, TruncationWindow.for_params(P)), {"t": reals(0.0, 5.0)}, set()
    ),
    "condition_on_atom": (
        lambda **kw: condition_on_atom(STATE, kw["atom level"]),
        {"atom level": st.sampled_from(AtomLevel)},
        set(),
    ),
    "schrodinger_phase": (
        lambda omega, t: schrodinger_phase(STATE, omega, t),
        {"omega": reals(-5.0, 5.0), "t": reals(-5.0, 5.0)},
        {"omega * t", "omega * t * (excitations - 1/2)"},
    ),
    "bell_resonance_gT": (
        bell_resonance_gT, {"n": st.integers(0, 10), "resonance": st.integers(1, 5)}, set()
    ),
}


@pytest.mark.parametrize("target", sorted(TARGETS))
@settings(max_examples=60)
@given(data=st.data())
def test_entry_point_accepts_or_names_the_field(target, data):
    call, well_formed, extra_names = TARGETS[target]
    kwargs, junk = {}, []
    for field, strategy in well_formed.items():
        if data.draw(st.booleans(), label=f"{field} is junk"):
            junk.append(field)
            kwargs[field] = data.draw(JUNK, label=field)
        else:
            kwargs[field] = data.draw(strategy, label=field)
    try:
        call(**kwargs)
    except ValueError as exc:
        name = str(exc).split(": ", 1)[0]
        assert junk, f"well-formed input refused: {exc}"
        assert name in set(well_formed) | extra_names, f"{target} refused {exc!r}"


@pytest.mark.parametrize(
    "call, message",
    [
        # bools used to pass as reals
        (lambda: SystemParams(g=True, T=1.0), "g: must be a real number, got True"),
        (lambda: evolve(P, True, TruncationWindow.for_params(P)),
         "t: must be a real number, got True"),
        (lambda: SweepConfig("ico_j0", (AtomicInversion(),), gT_step=True),
         "gT_step: must be a real number, got True"),
        # non-numbers used to escape as a TypeError that named no field
        (lambda: SystemParams(g="1", T=1.0), "g: must be a real number, got '1'"),
        (lambda: SweepConfig("ico_j0", (AtomicInversion(),), theta="x"),
         "theta: must be a real number, got 'x'"),
        (lambda: state_after_both(CavityOrder.C0_THEN_C1, P, "0.5"),
         "tau: must be a real number, got '0.5'"),
        (lambda: run_verification(1, 1, "x"), "tolerance: must be a real number, got 'x'"),
        # an atom label used to escape as an AttributeError
        (lambda: condition_on_atom(STATE, "e"), "atom level: must be an AtomLevel, got 'e'"),
        # beyond the largest float
        (lambda: SystemParams(g=1.0, T=10**400), "T: must be finite, got a 1329-bit integer"),
        (lambda: bell_resonance_gT(2**53, 1), f"n: must lie in 0..{2**53 - 1}, got {2**53}"),
    ],
)
def test_refusal_names_the_field(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_huge_seed_still_runs():
    # the 2**53 bound is for photon numbers only
    assert run_verification(2**70, 1).passed
