"""Brute-force matrix propagator over a truncated two-mode Fock space.

This module rebuilds the dynamics from the interaction Hamiltonian and the
piecewise transit schedule alone.  It shares no formulas with ``engine``
and serves as the independent verification path: the closed forms and this
propagator must agree to rounding error or one of them is wrong.

The evolution and the measured control run as one array chain,
_evolve_branches -> recombine -> condition -> phase, batched over draws:
the last axis holds one column per draw, and a column does not depend on
the others.  verify runs it once per chunk of draws, whatever their
(n, m), on the window vectors of the largest; evolve, hadamard_control,
measure_control and schrodinger_phase run it with one column, on the
compact support of a PureState.
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
    FullKet,
    PureState,
    SystemParams,
    check_outcome,
    check_real,
    check_whole,
    prune_amplitudes,
)

_E = AtomLevel.EXCITED
_G = AtomLevel.GROUND
_LEVELS = (_E, _G)

#: Largest TruncationWindow n_max: room for photon numbers up to 50 and a guard row.
MAX_N_MAX = 52


@dataclass(frozen=True)
class TruncationWindow:
    """Retained Fock levels 0..n_max for each cavity mode.

    A transit adds at most one photon per cavity, so a window with
    n_max >= max(initial n, initial m) + 2 keeps a guard row that must stay
    unpopulated; any leakage there indicates a bug, not a tight truncation.
    n_max must be an int in 1..MAX_N_MAX.  jc_propagator and jc_generator
    build a dense complex matrix of side atom_field_dim = 2 * (n_max + 1)**2:
    76 MB at n_max 32 (dim 2,178), 505 MB at MAX_N_MAX (dim 5,618).
    """

    n_max: int

    def __post_init__(self) -> None:
        check_whole(self.n_max, "n_max", 1, MAX_N_MAX + 1)

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
        check_whole(n, "n", 0, self.levels)
        check_whole(m, "m", 0, self.levels)
        return self.flat_index(int(atom), n, m)

    def flat_index(self, atom, n, m):
        """index without its checks, elementwise on arrays: atom 0 is excited."""
        return (atom * self.levels + n) * self.levels + m


def jc_generator(cavity: int, g: float, w: TruncationWindow) -> np.ndarray:
    """Interaction matrix g(a_j^dag sigma_- + sigma_+ a_j) on the ordered
    atom x mode0 x mode1 basis (hbar = 1)."""
    check_whole(cavity, "cavity", 0, 2)
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
    """exp(-i t H_int) of one cavity applied in place to each column of
    ``x``, a C-contiguous (atom_field_dim, N) array, as the doublet
    rotations described in jc_propagator; returns x.  t and g are sequences
    of N values, column c rotating for time t[c] at coupling g[c]; of N / 2
    values, one per draw whose columns c and c + N / 2 both rotate for
    t[c]; or of one value that every column shares."""
    k = w.n_max
    # angles (n_max, 1, len(t)), each (g * sqrt(k+1)) * t
    angles = [rate * g_c * t_c for rate in _rates(k) for g_c, t_c in zip(g, t)]
    diag = np.array([math.cos(a) for a in angles], dtype=complex).reshape(k, 1, -1)
    off = -1j * np.array([math.sin(a) for a in angles]).reshape(k, 1, -1)
    if 2 * diag.shape[-1] == x.shape[-1]:
        # each draw's angles, evaluated once, for both its columns: factors
        # as wide as x keep the products below flat loops
        diag, off = np.concatenate((diag, diag), axis=2), np.concatenate((off, off), axis=2)
    # x as (atom, active mode, spectator mode, N): the doublet k pairs |e>
    # at occupation k of the active mode with |g> at k+1.
    x4 = x.reshape(2, w.levels, w.levels, -1)
    if cavity == 0:
        # A doublet's rows are contiguous over the spectator mode; factors
        # repeated over it make each product below one flat loop.
        diag, off = diag.repeat(w.levels, axis=1), off.repeat(w.levels, axis=1)
    else:
        x4 = x4.swapaxes(1, 2)
    excited, ground = x4[0, :k], x4[1, 1:]
    # (e, g) -> (diag * e + off * g, off * e + diag * g), each product with
    # its operands in this order and each sum of two rounded as written;
    # |g, 0> and the top |e> row stay put
    rotated = diag * excited
    rotated += off * ground
    np.multiply(diag, ground, out=ground)
    ground += off * excited
    excited[...] = rotated
    return x


def jc_propagator(cavity: int, t: float, g: float, w: TruncationWindow) -> np.ndarray:
    """Unitary exp(-i t H_int) assembled from the resonant doublet rotations.

    Each pair {|e,k>, |g,k+1>} of the active mode rotates by the angle
    g*sqrt(k+1)*t; |g,0> and the truncated top excited row stay put.  Tests
    cross-check this construction against a dense matrix exponential of
    jc_generator, keeping the two derivations independent.
    """
    check_whole(cavity, "cavity", 0, 2)
    check_real(t, "t", 0.0)
    return _rotate(np.eye(w.atom_field_dim, dtype=complex), cavity, (t,), (g,), w)


@functools.lru_cache(maxsize=16)
def _basis(w: TruncationWindow) -> np.ndarray:
    """The (atom, n, m) of every window index as a (3, atom_field_dim) table,
    atom 0 being excited; read-only."""
    table = np.indices((2, w.levels, w.levels)).reshape(3, -1)
    table.flags.writeable = False
    return table


def _guard_population(branches: np.ndarray, tops, w: TruncationWindow) -> np.ndarray:
    """Probability per column of (2, atom_field_dim, N) branches on the kets
    with a photon number at or beyond the column's guard row tops[c]."""
    population = branches.real * branches.real
    population += branches.imag * branches.imag
    _, n, m = _basis(w)
    return (population * (np.maximum(n, m)[:, None] >= tops)).sum(axis=(0, 1))


def _evolve_branches(draws: list[tuple[SystemParams, float]], w: TruncationWindow) -> np.ndarray:
    """The two control branches of evolve's state for N (params, time) draws
    on one window, as a (2, atom_field_dim, N) array on its basis, weights
    included and amplitudes below PRUNE_EPSILON zeroed.  The draws may
    differ in (n, m); the window must fit the largest.  Every draw gets
    evolve's checks and errors on its own guard rows, max(n, m) + 2 and up,
    and its column does not depend on the other draws."""
    params = [p for p, _ in draws]
    times = [check_real(t, "t", 0.0) for _, t in draws]
    tops = [max(p.n, p.m) + 2 for p in params]
    if w.n_max < max(tops, default=0):
        raise ValueError(f"n_max: must be >= max(n, m) + 2 = {max(tops)}, got {w.n_max}")
    # The control-1 branch, cavity 1 first, is the control-0 branch of the
    # preparation with the two modes exchanged.  So both branches run as 2N
    # columns through cavity 0 and then cavity 1, and the modes of the last
    # N are exchanged back: two rotations per batch, not four.
    size = len(draws)
    vec = np.zeros((w.atom_field_dim, 2 * size), dtype=complex)
    # |e, n, m> and |g, n, m> of each column on the (atom, mode 0, mode 1,
    # column) view, the last N with the modes exchanged
    n, m = [p.n for p in params], [p.m for p in params]
    vec.reshape(2, w.levels, w.levels, 2 * size)[:, n + m, m + n, [*range(2 * size)]] = (
        [math.cos(p.xi) for p in params] * 2,
        [cmath.exp(1j * p.chi) * math.sin(p.xi) for p in params] * 2,
    )
    # T1 >= T0 + T, so the second transit starts after the first has ended;
    # before, between and after the transits a rotation by 0 is the identity.
    # Both halves share each draw's times and coupling.
    first = [min(max(t - p.T0, 0.0), p.T) for p, t in zip(params, times)]
    second = [min(max(t - p.T1, 0.0), p.T) for p, t in zip(params, times)]
    g = [p.g for p in params]
    vec = _rotate(vec, 0, first, g, w)
    vec = _rotate(vec, 1, second, g, w)
    exchanged = vec[:, size:].reshape(2, w.levels, w.levels, size).swapaxes(1, 2)
    branches = np.empty((2, w.atom_field_dim, size), dtype=complex)
    np.multiply([math.cos(p.theta) for p in params], vec[:, :size], out=branches[0])
    np.multiply([cmath.exp(1j * p.varphi) * math.sin(p.theta) for p in params], exchanged,
                out=branches[1].reshape(exchanged.shape))
    del vec, exchanged  # the doubled batch is not needed for the guard check
    prune_amplitudes(branches)
    leak = _guard_population(branches, tops, w)
    if (leak >= 1e-12).any():
        raise TruncationOverflowError(f"guard-row population {leak[leak >= 1e-12][0]:.3e}")
    return branches


def evolve(p: SystemParams, t: float, w: TruncationWindow) -> PureState:
    """Full interaction-picture state (control x atom x fields) at time t.

    The control-0 branch meets cavity 0 first, the control-1 branch cavity 1
    first.  Raises TruncationOverflowError if probability shows up in the
    guard Fock rows, which an adequate window makes impossible.
    """
    branches = _evolve_branches([(p, t)], w)[:, :, 0]
    columns = np.flatnonzero(branches.any(axis=0))
    rests = [AtomFieldKet(_LEVELS[a], n, m) for a, n, m in zip(*_basis(w)[:, columns].tolist())]
    return _full_state(rests, branches[:, columns])


def recombine(branches: np.ndarray) -> np.ndarray:
    """Balanced recombination |c> -> (|0> + (-1)^c |1>)/sqrt(2) of (2, K, ...)
    control rows, pruned; row c of the input holds the control-c component,
    row j of the output the outcome-j one.  It is its own inverse."""
    outcomes = branches * (1.0 / math.sqrt(2.0))
    second = outcomes[1].copy()
    np.subtract(outcomes[0], second, out=outcomes[1])
    outcomes[0] += second
    return prune_amplitudes(outcomes)


def condition(rows: np.ndarray, j: int) -> tuple[np.ndarray, list[float]]:
    """Row j (0 or 1) of (2, K, N) control rows, normalized per column: each
    of the N columns renormalized and pruned, and its Born probability.  A
    column whose probability is below MIN_OUTCOME_PROBABILITY is refused and
    comes back as zeros."""
    row = rows[j]
    flat = row.ravel()
    population = (flat.real * flat.real + flat.imag * flat.imag).reshape(row.shape).T
    if len(population) > 1:
        # fsum rounds the exact sum once, so a column's zeros may be left
        # out; on a batch of draws most populations are 0.  One column, the
        # compact support of a PureState, has few zeros to skip.
        nonzero = population != 0
        values = population[nonzero].tolist()
        ends = nonzero.sum(axis=1).cumsum().tolist()
        columns = [values[start:end] for start, end in zip([0, *ends], ends)]
    else:
        columns = population.tolist()
    probs = [math.fsum(column) for column in columns]
    scale = np.array([1.0 / math.sqrt(q) if q >= MIN_OUTCOME_PROBABILITY else 0.0 for q in probs])
    return prune_amplitudes(row * scale), probs


def phase(amps: np.ndarray, omega, t, excitations: np.ndarray) -> np.ndarray:
    """(K, N) amplitudes times exp(-i*omega*t*(excitations - 1/2)), pruned:
    column c at frequency omega[c] and time t[c], excitations being each
    ket's atom excitation plus photon number, an integer >= 0.  A non-finite
    omega, t, omega * t or omega * t * (excitations - 1/2) raises
    ValueError."""
    # the largest |excitations - 1/2|: omega * t * top rounds as the largest
    # entry of the column's argument, so it overflows exactly when one does
    top = float(np.maximum.reduce(excitations, initial=1)) - 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        omega_t = np.multiply(omega, t, dtype=float)
        argument = omega_t * top
    # a non-finite factor leaves each later product non-finite, so the last
    # is finite exactly when all four are
    if not np.isfinite(argument).all():
        checked = (np.asarray(omega, dtype=float), np.asarray(t, dtype=float), omega_t, argument)
        column, field = np.argwhere(~np.isfinite(checked).T)[0]  # the first column, then field
        name = ("omega", "t", "omega * t", "omega * t * (excitations - 1/2)")[field]
        raise ValueError(f"{name}: must be finite, got {float(checked[field][column])}")
    rate = -1j * omega_t
    flat = amps.ravel()
    if amps.shape[1] > 1:
        # on a batch of draws most amplitudes are 0: the exponential and the
        # product only where one is not.  One column, the compact support of
        # a PureState, has few zeros to skip.
        nonzero = np.flatnonzero(flat)
        kets, columns = np.divmod(nonzero, amps.shape[1])
        factor = np.exp(rate[columns] * (excitations[kets] - 0.5))
    else:
        nonzero, factor = slice(None), np.exp(rate * (excitations - 0.5))
    amp = flat[nonzero]
    # The product written out rounds as Python's complex product does;
    # numpy's complex multiply may fuse the multiply-adds.
    phased = np.zeros(flat.shape, flat.dtype)
    phased.real[nonzero] = amp.real * factor.real - amp.imag * factor.imag
    phased.imag[nonzero] = amp.real * factor.imag + amp.imag * factor.real
    return prune_amplitudes(phased).reshape(amps.shape)


@functools.lru_cache(maxsize=16)
def basis_excitations(w: TruncationWindow) -> np.ndarray:
    """Atom excitation plus photon number of every window index; read-only."""
    atom, n, m = _basis(w)
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
    """phase, for finite reals omega and t, on an atom-field state;
    norm-preserving."""
    omega, t = check_real(omega, "omega"), check_real(t, "t")
    if s.flavor is not AtomFieldKet and s.flavor is not None:
        raise FlavorMismatchError("schrodinger_phase requires an atom-field state")
    items = s.items()
    kets = [k for k, _ in items]
    amps = np.array([a for _, a in items], dtype=complex)[:, None]
    phased = phase(amps, (omega,), (t,), np.array([k.excitations for k in kets]))
    return PureState(dict(zip(kets, phased[:, 0].tolist())))
