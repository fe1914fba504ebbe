"""Closed-form evolution through both cavities and the order-superposition protocol.

Everything in this module is an explicit function of eight per-order
transition amplitudes; no matrices are built.  The independent matrix
propagator lives in ``oracle`` and shares none of these expressions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace
from enum import Enum

import numpy as np

from .errors import DegenerateBranchError, ImpossiblePostselectionError
from .states import (
    MIN_OUTCOME_PROBABILITY,
    PHOTON_LIMIT,
    AtomFieldKet,
    AtomLevel,
    FieldsKet,
    PureState,
    SystemParams,
    check_outcome,
    check_params,
    check_real,
    check_whole,
    normalize_columns,
    prune_amplitudes,
)

_E = AtomLevel.EXCITED
_G = AtomLevel.GROUND


class CavityOrder(Enum):
    """Which cavity the atom crosses first; its value names the matching series scenario."""

    C0_THEN_C1 = "series_C0C1"
    C1_THEN_C0 = "series_C1C0"


def _rotations(lib, rates: tuple, t) -> tuple:
    """The doublet rotations of one cavity after time t in it, as
    (cos, sin) of (g*sqrt(k + 1)) * t, then of (g*sqrt(k)) * t, for rates
    (g*sqrt(k + 1), g*sqrt(k)) at k photons.  ``lib`` supplies cos and sin:
    ``math`` for scalars, ``numpy`` for arrays, so coeffs_c and
    grid_amplitudes share these formulas.  Each angle is rounded as
    (g*sqrt(k + 1)) * t: math.sqrt and numpy's sqrt both round correctly."""
    x, x1 = rates[0] * t, rates[1] * t
    return lib.cos(x), lib.sin(x), lib.cos(x1), lib.sin(x1)


def _slot_amplitudes(first: tuple, second: tuple, ce, se) -> tuple:
    """The eight slot amplitudes of one order, from the _rotations of the
    cavity crossed first (n photons) and of the one crossed second (m
    photons), for an atom prepared as ce|e> + se|g>."""
    cos_n, sin_n, cos_n1, sin_n1 = first
    cos_m, sin_m, cos_m1, sin_m1 = second
    ice, ise = -1j * ce, -1j * se
    return (
        ce * cos_n * cos_m,
        ise * sin_n1 * cos_m,
        ice * cos_n * sin_m,
        -se * sin_n1 * sin_m,
        ise * cos_n1 * sin_m1,
        -ce * sin_n * sin_m1,
        se * cos_n1 * cos_m1,
        ice * sin_n * cos_m1,
    )


def coeffs_c(p: SystemParams, tau: float) -> tuple:
    """The eight slot amplitudes after time T in the first cavity (n
    photons) followed by time tau in the second cavity (m photons).

    The sin(xi) slots vanish exactly for an atom prepared excited, and every
    slot attached to a negative-occupation ket carries a sin factor with a
    zero rate, so it vanishes as well.
    """
    check_params(p)
    check_real(tau, "tau", 0.0, p.T, "[]")
    ce, se = math.cos(p.xi), cmath.exp(1j * p.chi) * math.sin(p.xi)
    rates_n, rates_m = ((p.g * math.sqrt(k + 1), p.g * math.sqrt(k)) for k in (p.n, p.m))
    return _slot_amplitudes(_rotations(math, rates_n, p.T), _rotations(math, rates_m, tau), ce, se)


def coeffs_s(p: SystemParams, tau: float) -> tuple:
    """Mirror of coeffs_c for the opposite order: n and m exchange roles."""
    check_params(p)
    return coeffs_c(replace(p, n=p.m, m=p.n), tau)


# Basis layout per order: (atom level, photon shift in the first mode,
# photon shift in the second mode) of each slot, relative to the initial (n, m).
# The C1-first order is the C0-first one with the two modes exchanged.
_LAYOUT_FIRST_C0 = (
    (_E, 0, 0), (_E, -1, 0), (_G, 0, +1), (_G, -1, +1),
    (_E, 0, -1), (_E, +1, -1), (_G, 0, 0), (_G, +1, 0),
)
_LAYOUT_FIRST_C1 = tuple((atom, dm, dn) for atom, dn, dm in _LAYOUT_FIRST_C0)
#: The ten offsets both orders reach, the basis of grid_amplitudes.  Sorted,
#: they name the kets at any fixed (n, m) in AtomFieldKet order.
OFFSETS = tuple(sorted(set(_LAYOUT_FIRST_C0) | set(_LAYOUT_FIRST_C1)))
_SLOTS_FIRST_C0, _SLOTS_FIRST_C1 = (
    [OFFSETS.index(o) for o in layout] for layout in (_LAYOUT_FIRST_C0, _LAYOUT_FIRST_C1)
)
# Each offset's atom level and its two photon shifts, and its atom excitation
# plus photon shift, as (10, 1) columns.
_ATOM, _DN, _DM = np.array(OFFSETS).T[:, :, None]
_EXCITATIONS = 1 - _ATOM + _DN + _DM


def _one_point(scenario: str, p: SystemParams, tau: float) -> tuple:
    """grid_amplitudes at the single point p, with time tau in the second cavity."""
    return grid_amplitudes(scenario, p.n, p.m, g=p.g, t_first=p.T, t_second=tau,
                           xi=p.xi, chi=p.chi, theta=p.theta, varphi=p.varphi)


def reachable_kets(n: int, m: int) -> tuple[tuple[int, ...], tuple[AtomFieldKet, ...]]:
    """The rows of grid_amplitudes that both orders reach from one (n, m),
    as indices into OFFSETS, and their kets, at most ten, sorted."""
    reached = [(r, AtomFieldKet(a, n + dn, m + dm))
               for r, (a, dn, dm) in enumerate(OFFSETS) if n + dn >= 0 and m + dm >= 0]
    rows, kets = zip(*reached)
    return rows, kets


def _point_state(p: SystemParams, amps: np.ndarray) -> PureState:
    """The one column of a one-point call at p's (n, m) as a PureState."""
    rows, kets = reachable_kets(p.n, p.m)
    column = amps[:, 0].tolist()
    return PureState({ket: column[r] for r, ket in zip(rows, kets)})


def state_after_both(order: CavityOrder, p: SystemParams, tau: float) -> PureState:
    """Atom-field state once the atom has spent time T in its first cavity
    and time tau inside its second, for the given traversal order: one
    point of grid_amplitudes."""
    check_params(p)
    if not isinstance(order, CavityOrder):
        raise TypeError(f"order: must be a CavityOrder, got {order!r}")
    check_real(tau, "tau", 0.0, p.T, "[]")
    amps, _ = _one_point(order.value, p, tau)
    return _point_state(p, amps)


def general_postselect(
    j: int, p: SystemParams, omega_t: float = 0.0
) -> tuple[PureState, float]:
    """Condition on control outcome j for arbitrary preparation angles.

    Builds the two order branches weighted cos(theta) and e^{i varphi}
    sin(theta), recombines them on the control, projects onto |j>, and
    applies the full per-ket phase exp(-i*omega_t*(excitations - 1/2)).
    Returns the normalized conditional atom-field state and the outcome
    probability: one point of grid_amplitudes and measurement_phase.  An
    outcome with probability below MIN_OUTCOME_PROBABILITY raises
    ImpossiblePostselectionError, which carries the refused probability; a
    non-finite omega_t, or one whose phase argument overflows, raises
    ValueError.
    """
    check_params(p)
    check_outcome(j)
    # The ket (e, n, m) has the most excitations, n + m + 1; its argument is
    # rounded as measurement_phase rounds it.
    omega_t = check_real(omega_t, "omega_t")
    if not math.isfinite(omega_t * (float(p.n + p.m + 1) - 0.5)):
        raise ValueError(
            f"omega_t: must be finite, as must omega_t * (n + m + 1/2), got omega_t={omega_t}"
        )
    amps, prob = _one_point(("ico_j0", "ico_j1")[j], p, p.T)
    if prob[0] < MIN_OUTCOME_PROBABILITY:
        raise ImpossiblePostselectionError(f"control outcome {j}", float(prob[0]))
    return _point_state(p, measurement_phase(p.n, p.m, amps, omega_t)), float(prob[0])


def grid_amplitudes(
    scenario: str, n, m, *, g, t_first, t_second, xi, chi, theta, varphi
) -> tuple[np.ndarray, np.ndarray | None]:
    """A scenario's atom-field state at N points in one array pass; the
    closed forms behind every state, sweep and verify draw.

    ``scenario`` is series_C0C1 or series_C1C0 (definite orders) or ico_j0
    or ico_j1 (superposed order, control outcome j).  The initial photon
    numbers n and m, the coupling g, the times t_first and t_second spent in
    the first and the second cavity crossed and the angles xi, chi, theta,
    varphi are arrays of length N, or scalars, which are broadcast.

    Returns a (len(OFFSETS), N) array of amplitudes, row r on the ket
    OFFSETS[r] away from the point's (n, m), and, for the ico scenarios, the
    control outcome probability per point (None for the series).  A point
    has 0 on every row whose ket would hold a negative photon number; the
    others are reachable_kets(n, m) at its (n, m).  A column whose
    probability is below MIN_OUTCOME_PROBABILITY is refused and zero; the
    others are normalized.  Amplitudes below PRUNE_EPSILON are zeroed in the
    order branches, the recombined state and the normalized state.  A column
    does not depend on the other points of the call.  measurement_phase
    applies the measurement phase, which is left out here.
    """
    branches = _branches(scenario, n, m, g, t_first, t_second, xi, chi, theta, varphi)
    if scenario.startswith("series"):
        return branches[0], None
    return _ico_outcome(*branches, {"ico_j0": 0, "ico_j1": 1}[scenario])


def _branches(scenario: str, n, m, g, t_first, t_second, xi, chi, theta, varphi) -> tuple:
    """The (len(OFFSETS), N) order branches a scenario is built from, each
    pruned, with the arguments of grid_amplitudes: a series scenario's one
    branch, or for any other (ico_j0, ico_j1 or just "ico") the superposed
    order's two, weighted as control outcome 0 takes them once the control
    is recombined (Hadamard) for measurement: the C0-first branch times
    cos(theta)/sqrt(2), the C1-first one times e^{i varphi} sin(theta)/sqrt(2).
    Outcome 1 takes the second with the opposite sign."""
    # checked before the conversion below, which copies a scalar time
    one_time = t_first is t_second
    # Scalars stay of length 1, so a fixed angle costs one evaluation; the
    # photon numbers, below 2**53, are exact as floats.
    n, m, g, t_first, t_second, xi, chi, theta, varphi = (
        np.array(x, dtype=float, copy=None, ndmin=1)
        for x in (n, m, g, t_first, t_second, xi, chi, theta, varphi)
    )
    rates_n, rates_m = ((g * np.sqrt(k + 1.0), g * np.sqrt(k)) for k in (n, m))
    size = np.broadcast(n, m, g, t_first, t_second, xi, chi, theta, varphi).size
    ce, se = np.cos(xi), np.exp(1j * chi) * np.sin(xi)

    def rotations(rates_first, rates_second) -> tuple:
        return _rotations(np, rates_first, t_first), _rotations(np, rates_second, t_second)

    def branch(first, second, slot_offsets: list) -> np.ndarray:
        amps = np.zeros((len(OFFSETS), size), dtype=complex)
        for offset, slot in zip(slot_offsets, _slot_amplitudes(first, second, ce, se)):
            amps[offset] = slot
        return prune_amplitudes(amps)

    if scenario == "series_C1C0":
        return (branch(*rotations(rates_m, rates_n), _SLOTS_FIRST_C1),)
    c0_first = rotations(rates_n, rates_m)
    if scenario == "series_C0C1":
        return (branch(*c0_first, _SLOTS_FIRST_C0),)
    # The C1-first order spends t_first in the m cavity and t_second in the
    # n one: with one time for both (run_sweep, verify), the C0-first
    # rotations swapped.
    c1_first = c0_first[::-1] if one_time else rotations(rates_m, rates_n)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    w0 = np.cos(theta) * inv_sqrt2
    w1 = np.exp(1j * varphi) * np.sin(theta) * inv_sqrt2
    return (w0 * branch(*c0_first, _SLOTS_FIRST_C0),
            w1 * branch(*c1_first, _SLOTS_FIRST_C1))


def _ico_outcome(first: np.ndarray, second: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Control outcome j of the two weighted ico branches of _branches, as
    grid_amplitudes returns it: their sum (j = 0) or difference (j = 1),
    formed in first, which it overwrites, pruned, then normalized per
    column.  Negation is exact, so the difference rounds as a sum with the
    second weight negated would."""
    (np.subtract if j else np.add)(first, second, out=first)
    return normalize_columns(prune_amplitudes(first))


def measurement_phase(n, m, amps: np.ndarray, omega_t) -> np.ndarray:
    """grid_amplitudes' (..., len(OFFSETS), N) amplitudes from photon
    numbers n and m times exp(-i*omega_t*(excitations - 1/2)) ket by ket,
    the same factor over the leading axes, pruned; n, m and omega_t (mode
    frequency times measurement time) are scalars or one value per column."""
    excitations = _EXCITATIONS + (n + m)
    phase = np.exp(-1j * np.asarray(omega_t, dtype=float) * (excitations - 0.5))
    return prune_amplitudes(amps * phase)


def bell_resonance_gT(n: int, resonance: int) -> float:
    """Interaction time, as g*T, at which the equal-fill case n = m collapses
    each atom-conditioned branch to a two-ket entangled field state.  n must
    be an int in 0..2**53 - 2, as bell_state's kets reach n + 1, and
    resonance an int in 1..2**52; otherwise a ValueError names the field."""
    check_whole(n, "n", 0, PHOTON_LIMIT - 1)
    check_whole(resonance, "resonance", 1, 2**52 + 1)  # 2 * resonance - 1 stays exact
    return (2 * resonance - 1) * math.pi / (2.0 * math.sqrt(n + 1))


def bell_state(atom_branch: AtomLevel, n: int, resonance: int) -> PureState:
    """Two-mode entangled field state left behind when, on top of the
    control-0 outcome, the atom is measured in ``atom_branch``.

    Assumes equal initial fill (m = n) and g*T = bell_resonance_gT(n,
    resonance) with ``resonance`` a positive integer.  The ground branch
    pairs |n, n+1> with |n+1, n>; the excited branch pairs |n+1, n-1> with
    |n-1, n+1> and exists only for n >= 1.  Taking the integer index instead
    of g*T avoids float-equality checks on the resonance condition.
    """
    if not isinstance(atom_branch, AtomLevel):
        raise ValueError(f"atom_branch: must be an AtomLevel, got {atom_branch!r}")
    # Rotation angle g*sqrt(n)*T of the doublet below the initial fill.
    arg = bell_resonance_gT(n, resonance) * math.sqrt(n)
    parity = -1.0 if resonance % 2 else 1.0
    if atom_branch is _E:
        if n == 0:
            raise DegenerateBranchError(
                "the excited branch has zero amplitude for n = 0"
            )
        amp: complex = parity * math.sin(arg)
        kets = (FieldsKet(n + 1, n - 1), FieldsKet(n - 1, n + 1))
    else:
        amp = 1j * parity * math.cos(arg)
        kets = (FieldsKet(n, n + 1), FieldsKet(n + 1, n))
    # normalized before PureState prunes: |amp| falls below PRUNE_EPSILON at
    # large n; the norm is PureState.norm's, fsum of two equal terms
    amp /= math.sqrt(2.0 * (amp.real * amp.real + amp.imag * amp.imag))
    return PureState({kets[0]: amp, kets[1]: amp})
