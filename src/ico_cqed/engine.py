"""Closed-form evolution through both cavities and the order-superposition protocol.

Everything in this module is an explicit function of eight per-order
transition amplitudes; no matrices are built.  The independent matrix
propagator lives in ``oracle`` and shares none of these expressions.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import replace
from enum import Enum
from types import MappingProxyType

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
    check_real,
    check_whole,
    normalize_columns,
    prune_amplitudes,
)

_E = AtomLevel.EXCITED
_G = AtomLevel.GROUND
_ANGLE_ATOL = 1e-12


class CavityOrder(Enum):
    """Which cavity the atom crosses first."""

    C0_THEN_C1 = "C0_then_C1"
    C1_THEN_C0 = "C1_then_C0"


def gamma(k: int, g: float) -> float:
    """Doublet rotation rate g*sqrt(k+1); k = -1 gives exactly 0."""
    check_whole(k, "k", -1)
    return g * math.sqrt(k + 1)


def _slot_amplitudes(lib, g, roots_n: tuple, roots_m: tuple, t_first, t_second, ce, se) -> tuple:
    """The eight slot amplitudes of one order: time t_first in the first
    cavity (n photons), then t_second in the second (m photons), for an atom
    prepared as ce|e> + se|g>; roots_n is (sqrt(n + 1), sqrt(n)), roots_m
    the same for m.  ``lib`` supplies cos and sin: ``math`` for scalars,
    ``numpy`` for arrays, so coeffs_c and grid_amplitudes share these
    formulas.  Each angle is rounded as gamma(k, g) * t: math.sqrt and
    numpy's sqrt both round correctly."""
    x_n, x_n1 = g * roots_n[0] * t_first, g * roots_n[1] * t_first
    x_m, x_m1 = g * roots_m[0] * t_second, g * roots_m[1] * t_second
    cos_n, sin_n = lib.cos(x_n), lib.sin(x_n)
    cos_n1, sin_n1 = lib.cos(x_n1), lib.sin(x_n1)
    cos_m, sin_m = lib.cos(x_m), lib.sin(x_m)
    cos_m1, sin_m1 = lib.cos(x_m1), lib.sin(x_m1)
    return (
        ce * cos_n * cos_m,
        -1j * se * sin_n1 * cos_m,
        -1j * ce * cos_n * sin_m,
        -se * sin_n1 * sin_m,
        -1j * se * cos_n1 * sin_m1,
        -ce * sin_n * sin_m1,
        se * cos_n1 * cos_m1,
        -1j * ce * sin_n * cos_m1,
    )


def coeffs_c(p: SystemParams, tau: float) -> tuple:
    """The eight slot amplitudes after time T in the first cavity (n
    photons) followed by time tau in the second cavity (m photons).

    The sin(xi) slots vanish exactly for an atom prepared excited, and every
    slot attached to a negative-occupation ket carries a sin factor with a
    zero rate, so it vanishes as well.
    """
    check_real(tau, "tau", 0.0, p.T, "[]")
    ce, se = math.cos(p.xi), cmath.exp(1j * p.chi) * math.sin(p.xi)
    roots_n, roots_m = ((math.sqrt(k + 1), math.sqrt(k)) for k in (p.n, p.m))
    return _slot_amplitudes(math, p.g, roots_n, roots_m, p.T, tau, ce, se)


def coeffs_s(p: SystemParams, tau: float) -> tuple:
    """Mirror of coeffs_c for the opposite order: n and m exchange roles."""
    return coeffs_c(replace(p, n=p.m, m=p.n), tau)


# Basis layout per order: (atom level, photon shift in the first mode,
# photon shift in the second mode) of each slot, relative to the initial (n, m).
_LAYOUT_FIRST_C0 = (
    (_E, 0, 0), (_E, -1, 0), (_G, 0, +1), (_G, -1, +1),
    (_E, 0, -1), (_E, +1, -1), (_G, 0, 0), (_G, +1, 0),
)
_LAYOUT_FIRST_C1 = (
    (_E, 0, 0), (_E, 0, -1), (_G, +1, 0), (_G, +1, -1),
    (_E, -1, 0), (_E, -1, +1), (_G, 0, 0), (_G, 0, +1),
)
#: The ten offsets both orders reach, the basis of grid_amplitudes.  Sorted,
#: they name the kets at any fixed (n, m) in AtomFieldKet order.
OFFSETS = tuple(sorted(set(_LAYOUT_FIRST_C0) | set(_LAYOUT_FIRST_C1)))
_SLOTS_FIRST_C0, _SLOTS_FIRST_C1 = (
    [OFFSETS.index(o) for o in layout] for layout in (_LAYOUT_FIRST_C0, _LAYOUT_FIRST_C1)
)
# Each offset's atom excitation plus photon shift, and its two shifts, as columns.
_EXCITATIONS, _DN, _DM = (
    np.array([[1 - atom + dn + dm, dn, dm] for atom, dn, dm in OFFSETS]).T[:, :, None]
)

_SERIES = {CavityOrder.C0_THEN_C1: "series_C0C1", CavityOrder.C1_THEN_C0: "series_C1C0"}


def _one_point(scenario: str, p: SystemParams, tau: float) -> tuple:
    """grid_amplitudes at the single point p, with time tau in the second cavity."""
    return grid_amplitudes(scenario, p.n, p.m, g=p.g, t_first=p.T, t_second=tau,
                           xi=p.xi, chi=p.chi, theta=p.theta, varphi=p.varphi)


def _layout(n: np.ndarray, m: np.ndarray) -> tuple:
    """What grid_amplitudes needs of photon numbers n and m, arrays of 1 or
    N values: (sqrt(n + 1), sqrt(n)) and the same for m; where each offset's
    ket would hold a negative photon number, as a (10, 1 or N) mask; the
    rows (the offsets some point reaches), the row of each such offset, and
    whether each offset is missed anywhere."""
    negative = (n + _DN < 0) | (m + _DM < 0)
    rows = np.flatnonzero(~negative.all(axis=1))
    return (
        (np.sqrt(n + 1), np.sqrt(n)), (np.sqrt(m + 1), np.sqrt(m)), negative,
        rows, dict(zip(rows.tolist(), range(len(rows)))), negative.any(axis=1).tolist(),
    )


@functools.lru_cache(maxsize=32)
def _point_layout(n: int, m: int) -> tuple:
    """_layout at one (n, m), which every sweep and one-point call shares,
    and the kets its rows name there; read-only."""
    roots_n, roots_m, negative, rows, row_of, missed = _layout(np.array([n]), np.array([m]))
    for array in (*roots_n, *roots_m, negative, rows):
        array.flags.writeable = False
    kets = tuple(AtomFieldKet(a, n + dn, m + dm) for a, dn, dm in (OFFSETS[r] for r in rows))
    return roots_n, roots_m, negative, rows, MappingProxyType(row_of), tuple(missed), kets


def reachable_kets(n: int, m: int) -> tuple[AtomFieldKet, ...]:
    """The sorted basis of the at most ten kets both orders reach from
    (n, m): the kets of grid_amplitudes' rows at that one (n, m)."""
    return _point_layout(n, m)[-1]


def state_after_both(order: CavityOrder, p: SystemParams, tau: float) -> PureState:
    """Atom-field state once the atom has spent time T in its first cavity
    and time tau inside its second, for the given traversal order: one
    point of grid_amplitudes."""
    if order not in _SERIES:
        raise TypeError(f"order must be a CavityOrder, got {order!r}")
    check_real(tau, "tau", 0.0, p.T, "[]")
    _, amps, _ = _one_point(_SERIES[order], p, tau)
    return PureState(dict(zip(reachable_kets(p.n, p.m), amps[:, 0].tolist())))


def ico_postselected_state(j: int, p: SystemParams, omega_t: float = 0.0) -> PureState:
    """Atom-field state conditioned on control outcome j (balanced preparation).

    This is general_postselect with the physically irrelevant global phase
    exp(-i*omega_t*(n+m+1/2)) removed: the excitation sector n+m+1 carries no
    phase, and the sector n+m (reachable only for an atom not prepared purely
    excited) keeps the relative factor exp(i*omega_t), with omega_t equal to
    the mode frequency times the measurement time.
    """
    if abs(p.theta - math.pi / 4) > _ANGLE_ATOL or abs(p.varphi) > _ANGLE_ATOL:
        raise ValueError(
            "the balanced control preparation (theta = pi/4, varphi = 0) is "
            f"required; use general_postselect for theta={p.theta}, varphi={p.varphi}"
        )
    state, _ = general_postselect(j, p, omega_t)
    unwind = cmath.exp(1j * omega_t * (p.n + p.m + 0.5))
    return PureState({ket: amp * unwind for ket, amp in state.items()})


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
    check_outcome(j)
    # The ket (e, n, m) has the most excitations, n + m + 1; its argument is
    # rounded as measurement_phase rounds it.
    omega_t = check_real(omega_t, "omega_t")
    if not math.isfinite(omega_t * (float(p.n + p.m + 1) - 0.5)):
        raise ValueError(
            f"omega_t: must be finite, as must omega_t * (n + m + 1/2), got omega_t={omega_t}"
        )
    rows, amps, prob = _one_point(("ico_j0", "ico_j1")[j], p, p.T)
    if prob[0] < MIN_OUTCOME_PROBABILITY:
        raise ImpossiblePostselectionError(f"control outcome {j}", float(prob[0]))
    phased = measurement_phase(rows, p.n, p.m, amps, omega_t)
    return PureState(dict(zip(reachable_kets(p.n, p.m), phased[:, 0].tolist()))), float(prob[0])


def grid_amplitudes(
    scenario: str, n, m, *, g, t_first, t_second, xi, chi, theta, varphi
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """A scenario's atom-field state at N points in one array pass; the
    closed forms behind every state, sweep and verify draw.

    ``scenario`` is series_C0C1 or series_C1C0 (definite orders) or ico_j0
    or ico_j1 (superposed order, control outcome j).  The initial photon
    numbers n and m, the coupling g, the times t_first and t_second spent in
    the first and the second cavity crossed and the angles xi, chi, theta,
    varphi are arrays of length N, or scalars, which are broadcast.

    Returns the rows, indices into OFFSETS of the at most ten offsets that
    some point reaches, a (K, N) array of amplitudes, row r on the ket
    OFFSETS[rows[r]] away from the point's (n, m), and, for the ico
    scenarios, the control outcome probability per point (None for the
    series).  At one (n, m) the rows name reachable_kets(n, m); a point
    that would put a negative photon number on a row's ket has 0 there.  A
    column whose probability is below MIN_OUTCOME_PROBABILITY is refused
    and zero; the others are normalized.  Amplitudes below PRUNE_EPSILON are
    zeroed in the order branches, the recombined state and the normalized
    state.  A column does not depend on the other points of the call.
    measurement_phase applies the measurement phase, which is left out here.
    """
    if isinstance(n, int) and isinstance(m, int):
        roots_n, roots_m, negative, rows, row_of, missed, _ = _point_layout(n, m)
    else:
        roots_n, roots_m, negative, rows, row_of, missed = _layout(*np.atleast_1d(n, m))
    # Scalars stay of length 1, so a fixed angle costs one evaluation.
    g, t_first, t_second, xi, chi, theta, varphi = np.atleast_1d(
        g, t_first, t_second, xi, chi, theta, varphi
    )
    size = np.broadcast(negative[0], g, t_first, t_second, xi, chi, theta, varphi).size
    ce, se = np.cos(xi), np.exp(1j * chi) * np.sin(xi)

    def branch(roots_first, roots_second, slot_offsets: list) -> np.ndarray:
        # the roots of the photon numbers of the cavity crossed first and
        # of the one crossed second, as coeffs_c and coeffs_s pass them
        slots = _slot_amplitudes(np, g, roots_first, roots_second, t_first, t_second, ce, se)
        amps = np.zeros((len(rows), size), dtype=complex)
        for offset, slot in zip(slot_offsets, slots):
            # it has a zero-rate sin factor where its ket's photon number
            # would be negative, so is 0 there
            if missed[offset] and np.any(slot, where=negative[offset]):
                raise AssertionError(f"negative-occupation ket at offset {OFFSETS[offset]}")
            if offset in row_of:
                amps[row_of[offset]] = slot
        return prune_amplitudes(amps)

    if scenario == "series_C0C1":
        return rows, branch(roots_n, roots_m, _SLOTS_FIRST_C0), None
    if scenario == "series_C1C0":
        return rows, branch(roots_m, roots_n, _SLOTS_FIRST_C1), None
    # Weights of the C0-first and C1-first branches in the control-j
    # component once the control is recombined (Hadamard) for measurement.
    sign = {"ico_j0": 1.0, "ico_j1": -1.0}[scenario]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    w0 = np.cos(theta) * inv_sqrt2
    w1 = sign * np.exp(1j * varphi) * np.sin(theta) * inv_sqrt2
    residual = prune_amplitudes(
        w0 * branch(roots_n, roots_m, _SLOTS_FIRST_C0)
        + w1 * branch(roots_m, roots_n, _SLOTS_FIRST_C1)
    )
    return (rows, *normalize_columns(residual))


def measurement_phase(rows: np.ndarray, n, m, amps: np.ndarray, omega_t) -> np.ndarray:
    """grid_amplitudes' (K, N) amplitudes on its rows from photon numbers n
    and m times exp(-i*omega_t*(excitations - 1/2)) ket by ket, pruned; n, m
    and omega_t (mode frequency times measurement time) are scalars or one
    value per column."""
    excitations = _EXCITATIONS[rows] + (n + m)
    phase = np.exp(-1j * np.asarray(omega_t, dtype=float) * (excitations - 0.5))
    return prune_amplitudes(amps * phase)


def bell_resonance_gT(n: int, resonance: int) -> float:
    """Interaction time, as g*T, at which the equal-fill case n = m collapses
    each atom-conditioned branch to a two-ket entangled field state.  n must
    be an int in 0..2**53 - 1 and resonance an int >= 1; otherwise a
    ValueError names the field."""
    check_whole(n, "n", 0, PHOTON_LIMIT)
    check_whole(resonance, "resonance", 1)
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
    return PureState({kets[0]: amp, kets[1]: amp}).normalized()
