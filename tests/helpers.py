"""Shared helpers for the test suite, among them the scalar references the
closed-form kernel (engine.grid_amplitudes) is checked against."""

import cmath
import math

from ico_cqed import (
    MIN_OUTCOME_PROBABILITY,
    PRUNE_EPSILON,
    AtomFieldKet,
    AtomLevel,
    CavityOrder,
    ImpossiblePostselectionError,
    PureState,
    SystemParams,
    coeffs_c,
    coeffs_s,
)
from ico_cqed.states import check_outcome

E = AtomLevel.EXCITED
G = AtomLevel.GROUND


def params(gt, **overrides):
    """SystemParams with g = 1 so that T equals the dimensionless g*T."""
    return SystemParams(g=1.0, T=gt, **overrides)


def balanced(gt, **overrides):
    """Maximally indefinite control preparation."""
    return params(gt, theta=math.pi / 4, **overrides)


def max_amp_diff(a: PureState, b: PureState) -> float:
    kets = set(a.kets()) | set(b.kets())
    return max((abs(a.amplitude(k) - b.amplitude(k)) for k in kets), default=0.0)


def phase_aligned_diff(a: PureState, b: PureState) -> float:
    """max_amp_diff after rotating b by the global phase that matches its
    largest-amplitude ket to a."""
    anchor = max(b.kets(), key=lambda k: abs(b.amplitude(k)))
    ref = a.amplitude(anchor)
    if ref == 0:
        return max_amp_diff(a, b)
    factor = ref / b.amplitude(anchor)
    factor /= abs(factor)
    rotated = PureState({k: factor * amp for k, amp in b.items()})
    return max_amp_diff(a, rotated)


def excitation_distribution(state: PureState) -> dict:
    """Probability per excitation number, for conservation checks."""
    dist: dict = {}
    for ket, amp in state.items():
        w = amp.real * amp.real + amp.imag * amp.imag
        dist[ket.excitations] = dist.get(ket.excitations, 0.0) + w
    return dist


def inner_product(a: PureState, b: PureState) -> complex:
    """Hermitian inner product: sum over shared kets of conj(a_k) * b_k."""
    common = set(a.kets()) & set(b.kets())
    return sum((a.amplitude(k).conjugate() * b.amplitude(k) for k in common), 0j)


def scale_and_add(alpha: complex, a: PureState, beta: complex, b: PureState) -> PureState:
    """Amplitude-wise alpha*a + beta*b; the result is pruned as usual."""
    out = {k: alpha * amp for k, amp in a.items()}
    for k, amp in b.items():
        out[k] = out.get(k, 0j) + beta * amp
    return PureState(out)


def initial_atom_field_state(p: SystemParams) -> PureState:
    """Atom-field part of the initial state: cos(xi)|e,n,m> + e^{i chi} sin(xi)|g,n,m>."""
    return PureState(
        {
            AtomFieldKet.excited(p.n, p.m): math.cos(p.xi),
            AtomFieldKet.ground(p.n, p.m): cmath.exp(1j * p.chi) * math.sin(p.xi),
        }
    )


# ---------------------------------------------------------------- scalar closed forms

# Basis ket of each coefficient slot, as (atom level, photon shift in cavity
# 0, photon shift in cavity 1) relative to the initial (n, m).
_SLOT_KETS = {
    CavityOrder.C0_THEN_C1: (
        (E, 0, 0), (E, -1, 0), (G, 0, +1), (G, -1, +1),
        (E, 0, -1), (E, +1, -1), (G, 0, 0), (G, +1, 0),
    ),
    CavityOrder.C1_THEN_C0: (
        (E, 0, 0), (E, 0, -1), (G, +1, 0), (G, +1, -1),
        (E, -1, 0), (E, -1, +1), (G, 0, 0), (G, 0, +1),
    ),
}


def scalar_order_branch(order: CavityOrder, p: SystemParams, tau: float) -> dict:
    """One order's atom-field amplitudes keyed by (atom, n, m), one point at
    a time on Python scalars: time T in the first cavity, tau in the second,
    amplitudes below PRUNE_EPSILON dropped, negative-occupation kets dropped
    once their amplitude is checked to vanish."""
    coeffs = coeffs_c(p, tau) if order is CavityOrder.C0_THEN_C1 else coeffs_s(p, tau)
    amps = {}
    for amp, (atom, dn, dm) in zip(coeffs.as_tuple(), _SLOT_KETS[order]):
        amp, n, m = complex(amp), p.n + dn, p.m + dm
        if n < 0 or m < 0:
            assert abs(amp) <= 1e-30, f"negative-occupation ket ({atom.label},{n},{m})"
        elif abs(amp) >= PRUNE_EPSILON:
            amps[atom, n, m] = amp
    return amps


def scalar_state_after_both(order: CavityOrder, p: SystemParams, tau: float) -> PureState:
    """Scalar reference for engine.state_after_both."""
    return PureState(
        {AtomFieldKet(*key): amp for key, amp in scalar_order_branch(order, p, tau).items()}
    )


def scalar_postselect(j: int, p: SystemParams, omega_t: float = 0.0):
    """Scalar reference for engine.general_postselect: both order branches
    summed in one dict with the control weights, pruned, normalised by the
    math.fsum probability and phased ket by ket."""
    check_outcome(j)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    w0 = math.cos(p.theta) * inv_sqrt2
    w1 = (-1.0 if j else 1.0) * cmath.exp(1j * p.varphi) * math.sin(p.theta) * inv_sqrt2
    residual = {
        key: w0 * amp
        for key, amp in scalar_order_branch(CavityOrder.C0_THEN_C1, p, p.T).items()
    }
    for key, amp in scalar_order_branch(CavityOrder.C1_THEN_C0, p, p.T).items():
        residual[key] = residual.get(key, 0j) + w1 * amp
    residual = {key: amp for key, amp in residual.items() if abs(amp) >= PRUNE_EPSILON}
    prob = math.fsum(a.real * a.real + a.imag * a.imag for a in residual.values())
    if prob < MIN_OUTCOME_PROBABILITY:
        raise ImpossiblePostselectionError(f"control outcome {j}", prob)
    scale = 1.0 / math.sqrt(prob)
    amps = {}
    for (atom, n, m), amp in residual.items():
        phase = cmath.exp(-1j * omega_t * (atom.excitation + n + m - 0.5))
        amps[AtomFieldKet(atom, n, m)] = amp * scale * phase
    return PureState(amps), prob
