"""Shared helpers for the test suite, among them the scalar references the
closed-form kernel (engine.grid_amplitudes) is checked against, the
balanced-control formulas built on the slot amplitudes (the order overlap,
P(j) and the conditional inversion) and the ket-by-ket dict reference for
the oracle's recombine -> condition -> phase chain, and the scalar draws
of verify's parameter stream."""

import cmath
import math

from ico_cqed import (
    MIN_OUTCOME_PROBABILITY,
    PRUNE_EPSILON,
    AtomFieldKet,
    AtomLevel,
    CavityOrder,
    FullKet,
    ImpossiblePostselectionError,
    PureState,
    SystemParams,
    TruncationWindow,
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


def window_groups(draws):
    """(params, t) draws grouped by their tight window, TruncationWindow.for_params;
    one batch may mix several (n, m)."""
    groups = {}
    for p, t in draws:
        groups.setdefault(TruncationWindow.for_params(p), []).append((p, t))
    return groups.items()


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
    """Probability per excitation number, for conservation checks; a
    full-flavor ket counts the excitations of its atom-field ket."""
    dist: dict = {}
    for ket, amp in state.items():
        w = amp.real * amp.real + amp.imag * amp.imag
        excitations = getattr(ket, "rest", ket).excitations
        dist[excitations] = dist.get(excitations, 0.0) + w
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
            AtomFieldKet(E, p.n, p.m): math.cos(p.xi),
            AtomFieldKet(G, p.n, p.m): cmath.exp(1j * p.chi) * math.sin(p.xi),
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
    for amp, (atom, dn, dm) in zip(coeffs, _SLOT_KETS[order]):
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


# ---------------------------------------------------------------- balanced-control closed forms


def overlap_orders(p: SystemParams) -> complex:
    """<psi_C0C1|psi_C1C0> at tau = T from the two orders' slot amplitudes:
    only six ket pairs are shared between the two expansions."""
    c1, c2, c3, _, c5, _, c7, c8 = coeffs_c(p, p.T)
    s1, s2, s3, _, s5, _, s7, s8 = coeffs_s(p, p.T)
    pairs = ((c1, s1), (c2, s5), (c3, s8), (c5, s2), (c7, s7), (c8, s3))
    return sum((complex(a).conjugate() * b for a, b in pairs), 0j)


def balanced_control_probability(j: int, p: SystemParams) -> float:
    """P(j) = (1 +- Re overlap) / 2 for the balanced control preparation
    (theta = pi/4, varphi = 0); the two outcomes sum to exactly 1."""
    check_outcome(j)
    p0 = 0.5 * (1.0 + overlap_orders(p).real)
    return p0 if j == 0 else 1.0 - p0


def sigma_z_ico_reference(p: SystemParams) -> float:
    """The paper's inversion of the control-0 conditional state for an atom
    prepared excited (xi = 0) and the balanced control preparation, from the
    slot amplitudes of both orders."""
    assert p.xi == 0.0
    n0_sq = balanced_control_probability(0, p)
    if n0_sq < MIN_OUTCOME_PROBABILITY:
        raise ImpossiblePostselectionError("control outcome 0", n0_sq)
    c1, _, c3, _, _, c6, _, c8 = coeffs_c(p, p.T)
    s1, _, s3, _, _, s6, _, s8 = coeffs_s(p, p.T)

    def sq(z: complex) -> float:
        z = complex(z)
        return z.real * z.real + z.imag * z.imag

    numerator = sq(c1 + s1) + sq(c6) + sq(s6) - sq(c3 + s8) - sq(c8 + s3)
    return numerator / (4.0 * n0_sq)


# ---------------------------------------------------------------- dict oracle chain


def reference_hadamard_control(s: PureState) -> PureState:
    """Dict reference for oracle.hadamard_control: each ket's half amplitude
    added to both control outcomes, ket by ket in the sorted order."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    amps: dict = {}
    for ket, amp in s.items():
        half = amp * inv_sqrt2
        k0, k1 = FullKet(0, ket.rest), FullKet(1, ket.rest)
        amps[k0] = amps.get(k0, 0j) + half
        amps[k1] = amps.get(k1, 0j) + (half if ket.control == 0 else -half)
    return PureState(amps)


def reference_measure_control(s: PureState, j: int):
    """Dict reference for oracle.measure_control: the control-j kets, the
    math.fsum probability, refusal below MIN_OUTCOME_PROBABILITY."""
    picked = {ket.rest: amp for ket, amp in s.items() if ket.control == j}
    prob = math.fsum(a.real * a.real + a.imag * a.imag for a in picked.values())
    if prob < MIN_OUTCOME_PROBABILITY:
        raise ImpossiblePostselectionError(f"control outcome {j}", prob)
    scale = 1.0 / math.sqrt(prob)
    return PureState({k: a * scale for k, a in picked.items()}), prob


def reference_schrodinger_phase(s: PureState, omega: float, t: float) -> PureState:
    """Dict reference for oracle.schrodinger_phase: cmath.exp ket by ket."""
    return PureState(
        {
            ket: amp * cmath.exp(-1j * omega * t * (ket.excitations - 0.5))
            for ket, amp in s.items()
        }
    )


# ---------------------------------------------------------------- verify's draw stream


def reference_draw(rng):
    """One (params, measurement time) draw of ico-cqed verify as eleven
    scalar Generator.uniform/integers calls for the parameters and one more
    for the time: the stream verify.random_params and run_verification must
    reproduce."""
    g = float(rng.uniform(0.5, 2.0))
    transit = float(rng.uniform(0.0, 10.0)) / g
    entry = float(rng.uniform(0.0, 2.0))
    p = SystemParams(
        g=g,
        T=transit,
        omega=float(rng.uniform(0.2, 3.0)),
        theta=float(rng.uniform(0.0, math.pi / 2)),
        varphi=float(rng.uniform(0.0, 2 * math.pi)),
        xi=float(rng.uniform(0.0, math.pi / 2)),
        chi=float(rng.uniform(0.0, 2 * math.pi)),
        n=int(rng.integers(0, 5)),
        m=int(rng.integers(0, 5)),
        T0=entry,
        T1=entry + transit + float(rng.uniform(0.0, 2.0)),
    )
    return p, p.T1 + p.T + float(rng.uniform(0.0, 2.0))
