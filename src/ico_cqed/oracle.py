"""Brute-force matrix propagator over a truncated two-mode Fock space.

This module rebuilds the dynamics from the interaction Hamiltonian and the
piecewise transit schedule alone.  It shares no formulas with ``engine``
and serves as the independent verification path: the closed forms and this
propagator must agree to rounding error or one of them is wrong.

The evolution and the measured control run as one array chain,
_evolve_branches -> recombine -> condition -> phase, batched over draws:
the last axis holds one column per draw, and a column does not depend on
the others.  verify runs it once per (n, m) group of draws on window
vectors; evolve, hadamard_control, measure_control and schrodinger_phase
run it with one column, on the compact support of a PureState.
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
_LEVELS = (_E, _G)


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
        return (int(atom) * self.levels + n) * self.levels + m


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
def _rates(n_max: int) -> tuple[float, ...]:
    """sqrt(k+1) for the doublets k = 0..n_max-1 of a mode."""
    return tuple(math.sqrt(k + 1) for k in range(n_max))


def _rotate(x: np.ndarray, cavity: int, t, g, w: TruncationWindow) -> np.ndarray:
    """exp(-i t H_int) of one cavity applied to each column of ``x``, of shape
    (atom_field_dim, N), as the doublet rotations described in jc_propagator.
    t and g are sequences of N values, column c rotating for time t[c] at
    coupling g[c], or of one value that every column shares."""
    k = w.n_max
    # angles (n_max, N), each (g * sqrt(k+1)) * t
    angles = [rate * g_c * t_c for rate in _rates(k) for g_c, t_c in zip(g, t)]
    diag = np.array([math.cos(a) for a in angles], dtype=complex).reshape(k, 1, -1)
    off = -1j * np.array([math.sin(a) for a in angles]).reshape(k, 1, -1)
    out = x.copy()
    # x as (atom, active mode, spectator mode, N): the doublet k pairs |e>
    # at occupation k of the active mode with |g> at k+1.
    x4, out4 = x.reshape(2, w.levels, w.levels, -1), out.reshape(2, w.levels, w.levels, -1)
    if cavity == 0:
        # A doublet's rows are contiguous over the spectator mode; factors
        # repeated over it make each product below one flat loop.
        diag, off = diag.repeat(w.levels, axis=1), off.repeat(w.levels, axis=1)
    else:
        x4, out4 = x4.swapaxes(1, 2), out4.swapaxes(1, 2)
    out4[0, :k] = diag * x4[0, :k] + off * x4[1, 1:]
    out4[1, 1:] = off * x4[0, :k] + diag * x4[1, 1:]
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
    return _rotate(np.eye(w.atom_field_dim, dtype=complex), cavity, (t,), (g,), w)


def _guard_population(branches: np.ndarray, w: TruncationWindow) -> list[float]:
    """Probability on the guard Fock row n_max of either mode, per column of
    (2, atom_field_dim, N) branches."""
    amps = branches.reshape(-1, w.levels, w.levels, branches.shape[-1])
    guard = np.concatenate((amps[:, w.n_max], amps[:, : w.n_max, w.n_max]), axis=1)
    population = (guard.real**2 + guard.imag**2).reshape(-1, branches.shape[-1])
    return [math.fsum(column) for column in population.T.tolist()]


def _evolve_branches(draws: list[tuple[SystemParams, float]], w: TruncationWindow) -> np.ndarray:
    """The two control branches of evolve's state for N (params, time) draws
    that share the window, as a (2, atom_field_dim, N) array on its basis,
    weights included and amplitudes below PRUNE_EPSILON zeroed; every draw
    gets evolve's checks and errors, and its column does not depend on the
    other draws."""
    for p, t in draws:
        _check_time(t)
        if w.n_max < max(p.n, p.m) + 2:
            raise ValueError(
                f"window too small: need n_max >= max(n, m) + 2 = {max(p.n, p.m) + 2}, "
                f"got {w.n_max}"
            )
    # The control-1 branch, cavity 1 first, is the control-0 branch of the
    # preparation with the two modes exchanged.  So both branches run as 2N
    # columns through cavity 0 and then cavity 1, and the modes of the last
    # N are exchanged back: two rotations per batch, not four.
    size = len(draws)
    psi0 = np.zeros((w.atom_field_dim, 2 * size), dtype=complex)
    for column, (p, _) in enumerate(draws):
        prepared = ((_E, math.cos(p.xi)), (_G, cmath.exp(1j * p.chi) * math.sin(p.xi)))
        for col, n, m in ((column, p.n, p.m), (size + column, p.m, p.n)):
            for level, amp in prepared:
                psi0[w.index(level, n, m), col] = amp
    # T1 >= T0 + T, so the second transit starts after the first has ended;
    # before, between and after the transits a rotation by 0 is the identity.
    first = [min(max(t - p.T0, 0.0), p.T) for p, t in draws] * 2
    second = [min(max(t - p.T1, 0.0), p.T) for p, t in draws] * 2
    g = [p.g for p, _ in draws] * 2
    vec = _rotate(_rotate(psi0, 0, first, g, w), 1, second, g, w)
    exchanged = vec[:, size:].reshape(2, w.levels, w.levels, size).swapaxes(1, 2)
    branches = np.empty((2, w.atom_field_dim, size), dtype=complex)
    branches[0] = np.array([math.cos(p.theta) for p, _ in draws]) * vec[:, :size]
    branches[1] = np.array(
        [cmath.exp(1j * p.varphi) * math.sin(p.theta) for p, _ in draws]
    ) * exchanged.reshape(w.atom_field_dim, size)
    prune_amplitudes(branches)
    for leak in _guard_population(branches, w):
        if leak >= 1e-12:
            raise TruncationOverflowError(f"guard-row population {leak:.3e}")
    return branches


def evolve(p: SystemParams, t: float, w: TruncationWindow) -> PureState:
    """Full interaction-picture state (control x atom x fields) at time t.

    The control-0 branch meets cavity 0 first, the control-1 branch cavity 1
    first.  Raises TruncationOverflowError if probability shows up in the
    guard Fock rows, which an adequate window makes impossible.
    """
    branches = _evolve_branches([(p, t)], w)[:, :, 0]
    columns = np.flatnonzero(branches.any(axis=0))
    kets = np.unravel_index(columns, (2, w.levels, w.levels))
    rests = [AtomFieldKet(_LEVELS[a], n, m) for a, n, m in zip(*(k.tolist() for k in kets))]
    return _full_state(rests, branches[:, columns])


def recombine(branches: np.ndarray) -> np.ndarray:
    """Balanced recombination |c> -> (|0> + (-1)^c |1>)/sqrt(2) of (2, K, ...)
    control rows, pruned; row c of the input holds the control-c component,
    row j of the output the outcome-j one.  It is its own inverse."""
    half = branches * (1.0 / math.sqrt(2.0))
    return prune_amplitudes(np.stack((half[0] + half[1], half[0] - half[1])))


def condition(rows: np.ndarray, j: int) -> tuple[np.ndarray, list[float]]:
    """Row j (0 or 1) of (2, K, N) control rows, normalized per column: each
    of the N columns renormalized and pruned, and its Born probability.  A
    column whose probability is below MIN_OUTCOME_PROBABILITY is refused and
    comes back as zeros."""
    row = rows[j]
    flat = row.ravel()
    population = (flat.real**2 + flat.imag**2).reshape(row.shape)
    probs = [math.fsum(column) for column in population.T.tolist()]
    scale = np.array([1.0 / math.sqrt(q) if q >= MIN_OUTCOME_PROBABILITY else 0.0 for q in probs])
    return prune_amplitudes(row * scale), probs


def phase(amps: np.ndarray, omega, t, excitations: np.ndarray) -> np.ndarray:
    """(K, N) amplitudes times exp(-i*omega*t*(excitations - 1/2)), pruned:
    column c at frequency omega[c] and time t[c], excitations being each
    ket's atom excitation plus photon number, an integer >= 0.  A non-finite
    omega, t, omega * t or omega * t * (excitations - 1/2) raises
    ValueError."""
    shifted = excitations - 0.5
    # the largest |excitations - 1/2|: omega * t * top rounds as the largest
    # entry of the column's argument, so it overflows exactly when one does
    top = float(np.maximum.reduce(excitations, initial=1)) - 0.5
    for omega_c, t_c in zip(omega, t):
        for name, value in (("omega", omega_c), ("t", t_c), ("omega * t", omega_c * t_c),
                            ("omega * t * (excitations - 1/2)", omega_c * t_c * top)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
    rate = np.array([-1j * omega_c * t_c for omega_c, t_c in zip(omega, t)])
    # elementwise on flat views: numpy's one-dimensional loops cost less
    factor = np.exp(rate * shifted[:, None]).ravel()
    flat = amps.ravel()
    # The product written out rounds as Python's complex product does;
    # numpy's complex multiply may fuse the multiply-adds.
    phased = np.empty_like(flat)
    phased.real = flat.real * factor.real - flat.imag * factor.imag
    phased.imag = flat.real * factor.imag + flat.imag * factor.real
    return prune_amplitudes(phased).reshape(amps.shape)


@functools.lru_cache(maxsize=16)
def basis_excitations(w: TruncationWindow) -> np.ndarray:
    """Atom excitation plus photon number of every window index; read-only."""
    atom, n, m = np.indices((2, w.levels, w.levels)).reshape(3, -1)
    excitations = 1 - atom + n + m
    excitations.flags.writeable = False
    return excitations


def _control_rows(s: PureState, caller: str) -> tuple[list[AtomFieldKet], np.ndarray]:
    """The atom-field kets of a full-flavor state and its (2, K) control rows."""
    if s.flavor is not FullKet and s.flavor is not None:
        raise FlavorMismatchError(f"{caller} requires a full-flavor state")
    column: dict[AtomFieldKet, int] = {}
    rows = np.zeros((2, len(s)), dtype=complex)
    for ket, amp in s.items():
        rows[ket.control, column.setdefault(ket.rest, len(column))] = amp
    return list(column), rows[:, : len(column)]


def _full_state(rests: list[AtomFieldKet], rows: np.ndarray) -> PureState:
    """The full-flavor state with amplitude rows[c, i] on |c>|rests[i]>."""
    return PureState({FullKet(c, rest): amp for c, row in enumerate(rows.tolist())
                      for rest, amp in zip(rests, row) if amp})


def hadamard_control(s: PureState) -> PureState:
    """recombine on a full-flavor state; applying it twice restores the input."""
    rests, rows = _control_rows(s, "hadamard_control")
    return _full_state(rests, recombine(rows))


def measure_control(s: PureState, j: int) -> tuple[PureState, float]:
    """condition on a full-flavor state; j must be the int 0 or 1, and a
    refused outcome raises ImpossiblePostselectionError."""
    check_outcome(j)
    rests, rows = _control_rows(s, "measure_control")
    row, (prob,) = condition(rows[:, :, None], j)
    if prob < MIN_OUTCOME_PROBABILITY:
        raise ImpossiblePostselectionError(f"control outcome {j}", prob)
    return PureState(dict(zip(rests, row[:, 0].tolist()))), prob


def schrodinger_phase(s: PureState, omega: float, t: float) -> PureState:
    """phase on a state whose kets carry the atom level; norm-preserving."""
    if s.flavor is FieldsKet:
        raise FlavorMismatchError("schrodinger_phase needs kets that carry the atom level")
    items = s.items()
    kets = [k for k, _ in items]
    amps = np.array([a for _, a in items], dtype=complex)[:, None]
    phased = phase(amps, (omega,), (t,), np.array([k.excitations for k in kets]))
    return PureState(dict(zip(kets, phased[:, 0].tolist())))
