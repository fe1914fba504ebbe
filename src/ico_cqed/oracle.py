"""Brute-force matrix propagator over a truncated two-mode Fock space.

This module rebuilds the dynamics from the interaction Hamiltonian and the
piecewise transit schedule alone.  It shares no formulas with ``engine``
and serves as the independent verification path: the closed forms and this
propagator must agree to rounding error or one of them is wrong.

The evolution and the measured control run as one array chain,
_evolve_branches -> recombine -> condition -> phase, batched over draws:
the last axis holds one column per draw, and a column does not depend on
the others.  The draws enter as a draw table, one array per SystemParams
field and one, "t", of the times (_COLUMNS), as verify's closed-form side
also reads them.  Each draw evolves on its own five levels per mode, and
the rest of the chain runs on the kets it populates, named by (atom, n, m):
verify's chunks mix draws of any (n, m); evolve, hadamard_control,
measure_control and schrodinger_phase run it with one column, each building
its state once from the arrays, which it keeps for the next view to read back.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .errors import ImpossiblePostselectionError, TruncationOverflowError
from .states import (
    MIN_OUTCOME_PROBABILITY,
    AtomFieldKet,
    AtomLevel,
    FullKet,
    PureState,
    SystemParams,
    check_outcome,
    check_params,
    check_real,
    check_state,
    check_whole,
    prune_amplitudes,
    pruned_state,
)

_E = AtomLevel.EXCITED
_G = AtomLevel.GROUND
_LEVELS = (_E, _G)

#: Largest TruncationWindow n_max: room for photon numbers up to 50 and a guard row.
MAX_N_MAX = 52


@dataclass(frozen=True)
class TruncationWindow:
    """Retained Fock levels 0..n_max for each cavity mode.

    n_max sizes jc_propagator and sets evolve's refusal of a draw with
    n_max < max(initial n, initial m) + 2.  The guard rows evolve checks live
    on each draw's own local window (_evolve_branches); any population there
    indicates a bug, not a tight truncation.  n_max must be an int in
    1..MAX_N_MAX.  jc_propagator builds a dense complex matrix of side
    atom_field_dim = 2 * (n_max + 1)**2: 76 MB at n_max 32 (dim 2,178),
    505 MB at MAX_N_MAX (dim 5,618).
    """

    n_max: int

    def __post_init__(self) -> None:
        check_whole(self.n_max, "n_max", 1, MAX_N_MAX + 1)

    @classmethod
    def for_params(cls, p: SystemParams) -> "TruncationWindow":
        check_params(p)
        return cls(max(p.n, p.m) + 2)

    @property
    def levels(self) -> int:
        return self.n_max + 1

    @property
    def atom_field_dim(self) -> int:
        return 2 * self.levels * self.levels


def _check_window(w) -> None:
    """Refuse all but a TruncationWindow with TypeError, before any field is read."""
    if not isinstance(w, TruncationWindow):
        raise TypeError(f"w: must be a TruncationWindow, got {w!r}")


def _rotate(x: np.ndarray, cavity: int, diag, off, w: TruncationWindow) -> np.ndarray:
    """exp(-i t H_int) of one cavity applied in place to each column of
    ``x``, a C-contiguous (atom_field_dim, N) array, as the doublet
    rotations described in jc_propagator; returns x.  diag and off are the
    complex cos and -i sin of (n_max, 1, N) angles, or of (n_max, 1, 1) ones
    shared by every column: doublet i of column c rotates by angle [i, 0, c]."""
    # x as (atom, active mode, spectator mode, N): the doublet i pairs |e>
    # at level i of the active mode with |g> at level i+1.
    x4 = x.reshape(2, w.levels, w.levels, -1)
    if cavity == 1:
        x4 = x4.swapaxes(1, 2)
    excited, ground = x4[0, :w.n_max], x4[1, 1:]
    # (e, g) -> (diag * e + off * g, off * e + diag * g), each product with
    # its operands in this order and each sum of two rounded as written;
    # the bottom |g> and the top |e> level stay put
    from_ground, from_excited = off * ground, off * excited
    np.multiply(diag, excited, out=excited)
    excited += from_ground
    np.multiply(diag, ground, out=ground)
    ground += from_excited
    return x


def jc_propagator(cavity: int, t: float, g: float, w: TruncationWindow) -> np.ndarray:
    """Unitary exp(-i t H_int) assembled from the resonant doublet rotations.

    Each pair {|e,k>, |g,k+1>} of the active mode rotates by the angle
    g*sqrt(k+1)*t; |g,0> and the truncated top excited row stay put.  Tests
    cross-check this construction against a dense matrix exponential of the
    interaction Hamiltonian, keeping the two derivations independent.
    """
    check_whole(cavity, "cavity", 0, 2)
    t, g = check_real(t, "t", 0.0), check_real(g, "g", 0.0, ends="()")
    _check_window(w)
    if not math.isfinite(math.sqrt(w.n_max) * g * t):  # the largest angle
        raise ValueError(f"g*t: must be finite, as must g*sqrt(n_max)*t, got g={g}, t={t}")
    angles = (np.sqrt(np.arange(1.0, w.levels))[:, None, None] * g) * t  # (g*sqrt(i+1))*t
    return _rotate(np.eye(w.atom_field_dim, dtype=complex), cavity,
                   np.cos(angles).astype(complex), -1j * np.sin(angles), w)


#: The columns of a draw table: the SystemParams fields, then the time t.
_COLUMNS = (*(f.name for f in fields(SystemParams)), "t")
_params_values = operator.attrgetter(*_COLUMNS[:-1])


#: Each draw's local window in _evolve_branches: level i of a mode holds occupation
#: max(k - 2, 0) + i for the mode's photon number k; each edge but occupation 0 is a guard row.
_LOCAL = TruncationWindow(4)
_levels = np.indices((2, _LOCAL.levels, _LOCAL.levels, 3, 3)).reshape(5, -1, 3, 3)
#: [row, i, j]: whether the row (atom, a, b) is a guard row of a draw whose n and m
#: sit at local levels (i, j), one of its modes 2 or more levels from the draw's.
_GUARD = abs(_levels[1:3] - _levels[3:]).max(axis=0) >= 2
_KETS = _levels[:3, :, 0, 0]  # (atom, a, b) of each row
_HALVES = np.arange(2)[:, None]  # the halves of _evolve_branches' doubled batch
_DOUBLETS = np.arange(1.0, _LOCAL.levels)[:, None, None]  # i + 1 for each doublet i


def _evolve_branches(table: dict[str, np.ndarray]) -> tuple:
    """The two control branches of evolve's state for the N draws of a draw
    table on the kets each draw populates: a (3, K, N) table of each entry's
    atom level, n and m, and the (2, K, N) branches on them, weights
    included and amplitudes below PRUNE_EPSILON zeroed.  K is the most any
    column populates; a column holds the kets it populates in either branch,
    in AtomFieldKet order, then, if it has fewer, distinct kets it leaves at
    exactly 0.  The draws may differ in (n, m), ints or whole floats.  Each
    draw evolves on its own local window (_LOCAL) and gets evolve's errors on
    its own guard rows, refusing any population of a mode at k + 2 and up or
    k - 2 and down for its photon number k; no column depends on another."""
    photons = np.array([table["n"], table["m"]], dtype=int)
    size, levels, k = photons.shape[1], _LOCAL.levels, _LOCAL.n_max
    # each mode's photon number k sits at local level min(k, 2), above base k - level
    level = np.minimum(photons, 2)
    base = photons - level
    # T1 >= T0 + T, so the second transit starts after the first has ended;
    # before, between and after the transits a rotation by 0 is the identity.
    entries = np.array([table["T0"], table["T1"]])
    durations = np.minimum(np.maximum(table["t"] - entries, 0.0), table["T"])
    # The control-1 branch, cavity 1 first, is the control-0 branch of the
    # preparation with the modes exchanged: both run, as the halves of 2N
    # columns, through cavity 0 then cavity 1 (two rotations, not four), and
    # the second half's modes are exchanged back.  One trig pass takes xi,
    # theta, chi and varphi, then the angles [cavity, i, half, column], each
    # (g * sqrt(base + i + 1)) * duration, the bases exchanged in half 1.
    rates = np.sqrt(_DOUBLETS + base) * table["g"]
    angles = np.concatenate(([table[name] for name in ("xi", "theta", "chi", "varphi")],
                             (rates * durations[0]).reshape(-1, size),
                             (rates[:, ::-1] * durations[1]).reshape(-1, size)))
    cosines, sines = np.cos(angles), np.sin(angles)
    # cos(a) and exp(i phi) sin(a), rounded as cmath.exp(1j * phi) * math.sin(a),
    # for the atom's preparation (xi, chi) and the control's (theta, varphi)
    cos, polar = cosines[:2], (cosines[2:4] + 1j * sines[2:4]) * sines[:2]
    diag = cosines[4:].astype(complex).reshape(2, k, 1, 2 * size)
    off = (-1j * sines[4:]).reshape(2, k, 1, 2 * size)
    # |e, n, m> and |g, n, m> of each column on the (atom, mode 0, mode 1,
    # half, column) view, the second half with the modes exchanged
    vec = np.zeros((_LOCAL.atom_field_dim, 2 * size), dtype=complex)
    columns = np.arange(size)
    vec.reshape(2, levels, levels, 2, size)[:, level, level[::-1], _HALVES, columns] = (
        np.array((cos[0], polar[0]))[:, None])
    vec = _rotate(vec, 0, diag[0], off[0], _LOCAL)
    vec = _rotate(vec, 1, diag[1], off[1], _LOCAL)
    exchanged = vec[:, size:].reshape(2, levels, levels, size).swapaxes(1, 2)
    branches = np.empty((2, _LOCAL.atom_field_dim, size), dtype=complex)
    np.multiply(cos[1], vec[:, :size], out=branches[0])
    np.multiply(polar[1], exchanged, out=branches[1].reshape(exchanged.shape))
    del vec, exchanged  # the doubled batch is not needed for the guard check
    prune_amplitudes(branches)
    populated, guard = branches.any(axis=0), _GUARD[:, level[0], level[1]]
    if populated.any(where=guard):
        leak = ((branches.real ** 2 + branches.imag ** 2).sum(axis=0) * guard).sum(axis=0)
        raise TruncationOverflowError(f"guard-row population {leak[leak > 0][0]:.3e}")
    # A stable sort puts each column's populated kets first, in AtomFieldKet
    # order, and then the rest.
    order = np.argsort(~populated, axis=0, kind="stable")[: populated.sum(axis=0).max()]
    kets = _KETS[:, order]
    kets[1:] += base[:, None]
    return kets, branches[:, order, columns]


def evolve(p: SystemParams, t: float, w: TruncationWindow) -> PureState:
    """Full interaction-picture state (control x atom x fields) at time t.

    The control-0 branch meets cavity 0 first, the control-1 branch cavity 1
    first.  w only refuses a draw: n_max < max(n, m) + 2 raises ValueError.
    Raises TruncationOverflowError if probability shows up in the guard Fock
    rows, which a correct rotation makes impossible.
    """
    check_params(p)
    t, top = check_real(t, "t", 0.0), max(p.n, p.m) + 2
    _check_window(w)
    if w.n_max < top:
        raise ValueError(f"n_max: must be >= max(n, m) + 2 = {top}, got {w.n_max}")
    # a one-column table, n and m as whole floats; its K entries are the kets it populates
    kets, branches = _evolve_branches(
        dict(zip(_COLUMNS, np.array([*_params_values(p), t])[:, None])))
    rests = [_atom_field_ket(*ket) for ket in kets[:, :, 0].T.tolist()]
    return _full_state(rests, branches[:, :, 0])


def recombine(branches: np.ndarray) -> np.ndarray:
    """Balanced recombination |c> -> (|0> + (-1)^c |1>)/sqrt(2) of (2, K, ...)
    control rows, pruned; row c of the input holds the control-c component,
    row j of the output the outcome-j one.  It is its own inverse."""
    first, second = branches * (1.0 / math.sqrt(2.0))
    return prune_amplitudes(np.array((first + second, first - second)))


def condition(rows: np.ndarray, j: int) -> tuple[np.ndarray, list[float]]:
    """Row j (0 or 1) of (2, K, N) control rows, normalized per column: each
    of the N columns renormalized and pruned, and its Born probability.  A
    column whose probability is below MIN_OUTCOME_PROBABILITY is refused and
    comes back as zeros."""
    row = rows[j]
    population = (row.real ** 2 + row.imag ** 2).T
    # fsum rounds the exact sum once, so the order of a column's kets and
    # its zeros cannot change the probability
    probs = [math.fsum(column) for column in population.tolist()]
    scale = np.array([1.0 / math.sqrt(q) if q >= MIN_OUTCOME_PROBABILITY else 0.0 for q in probs])
    return prune_amplitudes(row * scale), probs


def phase(amps: np.ndarray, omega_t, excitations: np.ndarray) -> np.ndarray:
    """(..., K, N) amplitudes times exp(-i*omega_t*(excitations - 1/2)), pruned:
    column c at omega_t[c], its frequency times its time, or all at one float
    omega_t, on every leading index, excitations holding each entry's atom
    excitation plus photon number, an integer >= 0, as a (K, N) array or, one
    per row, a (K, 1) array.  Nothing is checked: the callers bound omega_t *
    (excitations - 1/2), verify by its draws and schrodinger_phase by its own."""
    factor = np.exp(-1j * omega_t * (excitations - 0.5))
    # The product written out rounds as Python's complex product does;
    # numpy's complex multiply may fuse the multiply-adds.
    phased = np.empty_like(amps)
    phased.real = amps.real * factor.real - amps.imag * factor.imag
    phased.imag = amps.real * factor.imag + amps.imag * factor.real
    return prune_amplitudes(phased)


#: Entries each ket cache below holds at most: the views accept any state, so an
#: unbounded cache would grow with every new ket; n, m <= 21 take 968 AtomFieldKets.
_KET_CACHE = 4096


@functools.lru_cache(maxsize=_KET_CACHE)
def _atom_field_ket(atom: int, n: int, m: int) -> AtomFieldKet:
    """|atom, n, m> for atom 0 (excited) or 1 (ground), built once while cached."""
    return AtomFieldKet(_LEVELS[atom], n, m)


@functools.lru_cache(maxsize=_KET_CACHE)
def _full_kets(rest: AtomFieldKet) -> tuple[FullKet, FullKet]:
    """|0>|rest> and |1>|rest>, built once while cached."""
    return FullKet(0, rest), FullKet(1, rest)


def _control_rows(s: PureState, caller: str) -> tuple[list[AtomFieldKet], np.ndarray]:
    """The atom-field kets of a full-flavor state and its (2, K) control rows, as
    _full_state kept them or in the order the state stores its kets: every later
    step is elementwise or, in condition, an exact sum, so the order changes no bit."""
    check_state(s, (FullKet, None), f"{caller} requires a full-flavor state")
    if s._arrays is not None:
        return s._arrays
    column: dict[AtomFieldKet, int] = {}
    rows = np.zeros((2, len(s)), dtype=complex)
    for ket, amp in s._amps.items():
        rows[ket.control, column.setdefault(ket.rest, len(column))] = amp
    return list(column), rows[:, : len(column)]


def _full_state(rests: list[AtomFieldKet], rows: np.ndarray) -> PureState:
    """The full-flavor state with amplitude rows[c, i] on |c>|rests[i]>, rows
    pruned, keeping (rests, rows)."""
    pairs = list(map(_full_kets, rests))
    kets = [pair[c] for c in (0, 1) for pair in pairs]
    return pruned_state(kets, rows.ravel().tolist(), (rests, rows))


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
    return pruned_state(rests, row[:, 0].tolist(), (rests, row)), prob


def schrodinger_phase(s: PureState, omega: float, t: float) -> PureState:
    """phase on an atom-field state; norm-preserving.  omega and t must be
    finite reals, as must omega * t and omega * t * (N - 1/2), N the most
    excitations of a nonzero ket, and at least 1; else a ValueError names the field."""
    omega, t = check_real(omega, "omega"), check_real(t, "t")
    check_state(s, (AtomFieldKet, None), "schrodinger_phase requires an atom-field state")
    # the arrays measure_control kept, or else the stored order (phase is elementwise);
    # a kept zero counts 0 excitations, so only the nonzero kets bound the argument
    kets, amps = s._arrays or (list(s._amps),
                               np.array(list(s._amps.values()), dtype=complex)[:, None])
    excitations = [1 - k.atom + k.n + k.m if a else 0 for k, a in zip(kets, amps[:, 0].tolist())]
    # phase's largest argument, rounded as phase rounds it: finite exactly when every one is
    omega_t = omega * t
    if not math.isfinite(omega_t):
        raise ValueError(f"omega * t: must be finite, got {omega_t}")
    argument = omega_t * (max([1, *excitations]) - 0.5)
    if not math.isfinite(argument):
        raise ValueError(f"omega * t * (excitations - 1/2): must be finite, got {argument}")
    phased = phase(amps, omega_t, np.array(excitations)[:, None])
    return pruned_state(kets, phased[:, 0].tolist())
