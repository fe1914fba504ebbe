"""Brute-force matrix propagator over a truncated two-mode Fock space.

This module rebuilds the dynamics from the interaction Hamiltonian and the
piecewise transit schedule alone.  It shares no formulas with ``engine``
and serves as the independent verification path: the closed forms and this
propagator must agree to rounding error or one of them is wrong.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FlavorMismatchError,
    ImpossiblePostselectionError,
    TruncationOverflowError,
)
from .states import (
    MIN_OUTCOME_PROBABILITY,
    AtomFieldKet,
    AtomLevel,
    FieldsKet,
    FullKet,
    PureState,
    SystemParams,
    check_outcome,
    prune_amplitudes,
)

_E = AtomLevel.EXCITED
_G = AtomLevel.GROUND


@dataclass(frozen=True)
class TruncationWindow:
    """Retained Fock levels 0..n_max for each cavity mode.

    A transit adds at most one photon per cavity, so a window with
    n_max >= max(initial n, initial m) + 2 keeps a guard row that must stay
    unpopulated; any leakage there indicates a bug, not a tight truncation.
    """

    n_max: int

    def __post_init__(self) -> None:
        if isinstance(self.n_max, bool) or not isinstance(self.n_max, int) or self.n_max < 1:
            raise ValueError(f"n_max must be a positive integer, got {self.n_max!r}")

    @classmethod
    def for_params(cls, p: SystemParams) -> "TruncationWindow":
        return cls(max(p.n, p.m) + 2)

    @property
    def levels(self) -> int:
        return self.n_max + 1

    @property
    def atom_field_dim(self) -> int:
        return 2 * self.levels * self.levels

    def index(self, atom: AtomLevel, n: int, m: int) -> int:
        """Position of |atom, n, m> on the window's basis; an occupation
        outside 0..n_max is refused, since it would alias another ket."""
        for name, value in (("n", n), ("m", m)):
            if not 0 <= value <= self.n_max:
                raise ValueError(f"{name} must lie in 0..{self.n_max}, got {value}")
        return _flat_index(self, atom, n, m)

    def decode(self, i: int) -> tuple[AtomLevel, int, int]:
        m = i % self.levels
        i //= self.levels
        return AtomLevel(i // self.levels), i % self.levels, m


def _flat_index(w: TruncationWindow, atom: AtomLevel, n, m):
    """TruncationWindow.index without the range check; n and m may be arrays."""
    return (int(atom) * w.levels + n) * w.levels + m


def _check_cavity(cavity: int) -> None:
    if cavity not in (0, 1):
        raise ValueError(f"cavity must be 0 or 1, got {cavity!r}")


def _check_time(t: float) -> None:
    # The chained comparison also rejects NaN, which fails every comparison.
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")


def jc_generator(cavity: int, g: float, w: TruncationWindow) -> np.ndarray:
    """Interaction matrix g(a_j^dag sigma_- + sigma_+ a_j) on the ordered
    atom x mode0 x mode1 basis (hbar = 1)."""
    _check_cavity(cavity)
    h = np.zeros((w.atom_field_dim, w.atom_field_dim), dtype=complex)
    for k in range(w.n_max):
        coupling = g * math.sqrt(k + 1)
        for spectator in range(w.levels):
            if cavity == 0:
                row, col = w.index(_G, k + 1, spectator), w.index(_E, k, spectator)
            else:
                row, col = w.index(_G, spectator, k + 1), w.index(_E, spectator, k)
            h[row, col] = coupling
            h[col, row] = coupling
    return h


@functools.lru_cache(maxsize=64)
def _doublets(cavity: int, w: TruncationWindow) -> tuple[np.ndarray, np.ndarray]:
    """Indices of |e,k> and |g,k+1> in the active mode for every doublet,
    k-major with the spectator mode's occupation inner; read-only."""
    k, spectator = np.divmod(np.arange(w.n_max * w.levels), w.levels)
    if cavity == 0:
        pairs = _flat_index(w, _E, k, spectator), _flat_index(w, _G, k + 1, spectator)
    else:
        pairs = _flat_index(w, _E, spectator, k), _flat_index(w, _G, spectator, k + 1)
    for indices in pairs:
        indices.flags.writeable = False
    return pairs


def _rotate(x: np.ndarray, cavity: int, t: float, g: float, w: TruncationWindow) -> np.ndarray:
    """exp(-i t H_int) of one cavity applied to the leading axis of ``x``, as
    the doublet rotations described in jc_propagator."""
    i_e, i_g = _doublets(cavity, w)
    angles = [g * math.sqrt(j + 1) * t for j in range(w.n_max)]
    shape = (-1,) + (1,) * (x.ndim - 1)
    diag = np.array([math.cos(a) for a in angles]).repeat(w.levels).reshape(shape)
    off = -1j * np.array([math.sin(a) for a in angles]).repeat(w.levels).reshape(shape)
    out = x.copy()
    out[i_e] = diag * x[i_e] + off * x[i_g]
    out[i_g] = off * x[i_e] + diag * x[i_g]
    return out


def jc_propagator(cavity: int, t: float, g: float, w: TruncationWindow) -> np.ndarray:
    """Unitary exp(-i t H_int) assembled from the resonant doublet rotations.

    Each pair {|e,k>, |g,k+1>} of the active mode rotates by the angle
    g*sqrt(k+1)*t; |g,0> and the truncated top excited row stay put.  Tests
    cross-check this construction against a dense matrix exponential of
    jc_generator, keeping the two derivations independent.
    """
    _check_cavity(cavity)
    _check_time(t)
    return _rotate(np.eye(w.atom_field_dim, dtype=complex), cavity, t, g, w)


def _guard_population(branches: np.ndarray, w: TruncationWindow) -> float:
    """Probability on the guard Fock row n_max of either mode."""
    amps = branches.reshape(-1, w.levels, w.levels)
    guard = np.concatenate((amps[:, w.n_max, :], amps[:, : w.n_max, w.n_max]), axis=None)
    return math.fsum((guard.real**2 + guard.imag**2).tolist())


def _evolve_branches(p: SystemParams, t: float, w: TruncationWindow) -> np.ndarray:
    """The two control branches of evolve's state as a (2, atom_field_dim)
    array on the window's basis, weights included and amplitudes below
    PRUNE_EPSILON zeroed; same checks and errors as evolve."""
    _check_time(t)
    if w.n_max < max(p.n, p.m) + 2:
        raise ValueError(
            f"window too small: need n_max >= max(n, m) + 2 = {max(p.n, p.m) + 2}, "
            f"got {w.n_max}"
        )
    psi0 = np.zeros(w.atom_field_dim, dtype=complex)
    psi0[w.index(_E, p.n, p.m)] = math.cos(p.xi)
    psi0[w.index(_G, p.n, p.m)] = cmath.exp(1j * p.chi) * math.sin(p.xi)
    # T1 >= T0 + T, so the second transit starts after the first has ended;
    # before, between and after the transits a rotation by 0 is the identity.
    first = min(max(t - p.T0, 0.0), p.T)
    second = min(max(t - p.T1, 0.0), p.T)
    weights = (math.cos(p.theta), cmath.exp(1j * p.varphi) * math.sin(p.theta))
    branches = np.empty((2, w.atom_field_dim), dtype=complex)
    for control, weight in enumerate(weights):
        vec = _rotate(psi0, control, first, p.g, w)
        branches[control] = weight * _rotate(vec, 1 - control, second, p.g, w)
    prune_amplitudes(branches)
    leak = _guard_population(branches, w)
    if leak >= 1e-12:
        raise TruncationOverflowError(f"guard-row population {leak:.3e}")
    return branches


def evolve(p: SystemParams, t: float, w: TruncationWindow) -> PureState:
    """Full interaction-picture state (control x atom x fields) at time t.

    The control-0 branch meets cavity 0 first, the control-1 branch cavity 1
    first.  Raises TruncationOverflowError if probability shows up in the
    guard Fock rows, which an adequate window makes impossible.
    """
    branches = _evolve_branches(p, t, w)
    amps: dict[FullKet, complex] = {}
    for control, i in zip(*np.nonzero(branches)):
        atom, n, m = w.decode(int(i))
        amps[FullKet(int(control), AtomFieldKet(atom, n, m))] = complex(branches[control, i])
    return PureState(amps)


def hadamard_control(s: PureState) -> PureState:
    """Balanced recombination |j>_c -> (|0>_c + (-1)^j |1>_c)/sqrt(2); applying
    it twice restores the input."""
    if s.flavor is not FullKet and s.flavor is not None:
        raise FlavorMismatchError("hadamard_control requires a full-flavor state")
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    amps: dict[FullKet, complex] = {}
    for ket, amp in s.items():
        half = amp * inv_sqrt2
        k0, k1 = FullKet(0, ket.rest), FullKet(1, ket.rest)
        amps[k0] = amps.get(k0, 0j) + half
        amps[k1] = amps.get(k1, 0j) + (half if ket.control == 0 else -half)
    return PureState(amps)


def measure_control(s: PureState, j: int) -> tuple[PureState, float]:
    """Project the control onto |j> and renormalize.

    Returns the conditional atom-field state and the Born probability of the
    outcome, assuming the input is normalized.
    """
    check_outcome(j)
    if s.flavor is not FullKet and s.flavor is not None:
        raise FlavorMismatchError("measure_control requires a full-flavor state")
    picked = {ket.rest: amp for ket, amp in s.items() if ket.control == j}
    prob = math.fsum(a.real * a.real + a.imag * a.imag for a in picked.values())
    if prob < MIN_OUTCOME_PROBABILITY:
        raise ImpossiblePostselectionError(f"control outcome {j}", prob)
    scale = 1.0 / math.sqrt(prob)
    return PureState({k: a * scale for k, a in picked.items()}), prob


def schrodinger_phase(s: PureState, omega: float, t: float) -> PureState:
    """Reattach the free-evolution phase exp(-i*omega*t*(excitations - 1/2))
    ket by ket; norm-preserving, and trivial within one excitation sector.
    A non-finite omega or t raises ValueError."""
    for name, value in (("omega", omega), ("t", t)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if s.flavor is FieldsKet:
        raise FlavorMismatchError(
            "schrodinger_phase needs kets that carry the atom level"
        )
    return PureState(
        {
            ket: amp * cmath.exp(-1j * omega * t * (ket.excitations - 0.5))
            for ket, amp in s.items()
        }
    )
