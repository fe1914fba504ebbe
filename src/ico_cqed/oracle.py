"""Brute-force matrix propagator over a truncated two-mode Fock space.

This module rebuilds the dynamics from the interaction Hamiltonian and the
piecewise transit schedule alone.  It shares no formulas with ``engine``
and serves as the independent verification path: the closed forms and this
propagator must agree to rounding error or one of them is wrong.

The evolution and the measured control run as one array chain,
_evolve_branches -> recombine -> condition -> phase, batched over draws:
the last axis holds one column per draw, and a column does not depend on
the others.  The draws enter as a draw table (draw_table), one array per
SystemParams field and one, "t", of the times, as verify's closed-form side
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
from collections.abc import Iterable
from dataclasses import dataclass, fields
from itertools import chain

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

    def index(self, atom: AtomLevel, n: int, m: int) -> int:
        """Position of |atom, n, m> on the window's basis; a non-AtomLevel atom or
        an occupation outside 0..n_max is refused: it would alias another ket."""
        if not isinstance(atom, AtomLevel):
            raise ValueError(f"atom: must be an AtomLevel, got {atom!r}")
        check_whole(n, "n", 0, self.levels)
        check_whole(m, "m", 0, self.levels)
        return (atom * self.levels + n) * self.levels + m


def _check_window(w) -> None:
    """Refuse all but a TruncationWindow with TypeError, before any field is read."""
    if not isinstance(w, TruncationWindow):
        raise TypeError(f"w: must be a TruncationWindow, got {w!r}")


def _rotate(x: np.ndarray, cavity: int, t, g, base, w: TruncationWindow) -> np.ndarray:
    """exp(-i t H_int) of one cavity applied in place to each column of
    ``x``, a C-contiguous (atom_field_dim, N) array, as the doublet
    rotations described in jc_propagator; returns x.  t, g and base are
    arrays of N values, column c rotating for time t[c] at coupling g[c] with
    level i of the active mode at occupation base[c] + i, or one shared value."""
    k = w.n_max
    # angles (n_max, 1, len(t)), each (g * sqrt(base+i+1)) * t for doublet i
    angles = (np.sqrt(np.arange(1.0, k + 1)[:, None, None] + base) * g) * t
    diag = np.cos(angles).astype(complex)
    off = -1j * np.sin(angles)
    # x as (atom, active mode, spectator mode, N): the doublet i pairs |e>
    # at level i of the active mode with |g> at level i+1.
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
    # the bottom |g> and the top |e> level stay put
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
    cross-check this construction against a dense matrix exponential of the
    interaction Hamiltonian, keeping the two derivations independent.
    """
    check_whole(cavity, "cavity", 0, 2)
    t, g = check_real(t, "t", 0.0), check_real(g, "g", 0.0, ends="()")
    _check_window(w)
    if not math.isfinite(math.sqrt(w.n_max) * g * t):  # the largest angle
        raise ValueError(f"g*t: must be finite, as must g*sqrt(n_max)*t, got g={g}, t={t}")
    return _rotate(np.eye(w.atom_field_dim, dtype=complex), cavity, t, g, 0, w)


#: The columns of a draw table: the SystemParams fields, then the time t.
_COLUMNS = (*(f.name for f in fields(SystemParams)), "t")
_params_values = operator.attrgetter(*_COLUMNS[:-1])


def draw_table(draws: Iterable[tuple[SystemParams, float]]) -> dict[str, np.ndarray]:
    """N (params, time) draws from any iterable as a draw table: one C-contiguous
    array of N values per SystemParams field, ints for n and m and floats
    otherwise, and "t", the times, taken as they are: evolve checks its own."""
    values = np.fromiter(chain.from_iterable((*_params_values(p), t) for p, t in draws), float)
    table = dict(zip(_COLUMNS, values.reshape(-1, len(_COLUMNS)).T.copy()))
    table["n"], table["m"] = table["n"].astype(int), table["m"].astype(int)
    return table


#: Each draw's local window in _evolve_branches: level i of a mode holds occupation
#: max(k - 2, 0) + i for the mode's photon number k; each edge but occupation 0 is a guard row.
_LOCAL = TruncationWindow(4)
_levels = np.indices((_LOCAL.levels, _LOCAL.levels, 3, 3))
#: [a, b, i, j]: how far the ket at local levels (a, b) lies from a draw whose n and
#: m sit at levels (i, j), the larger of its modes' distances; 2 and up is a guard row.
_DISTANCE = abs(_levels[:2] - _levels[2:]).max(axis=0)


def _evolve_branches(table: dict[str, np.ndarray]) -> tuple:
    """The two control branches of evolve's state for the N draws of a draw
    table on the kets each draw populates: a (3, K, N) table of each entry's
    atom level, n and m, and the (2, K, N) branches on them, weights
    included and amplitudes below PRUNE_EPSILON zeroed.  K is the most any
    column populates; a column holds the kets it populates in either branch,
    in AtomFieldKet order, then, if it has fewer, distinct kets it leaves at
    exactly 0.  The draws may differ in (n, m).  Each draw evolves on its
    own local window (_LOCAL) and gets evolve's errors on its own guard rows,
    refusing any population of a mode at k + 2 and up or k - 2 and down for
    its photon number k; a column does not depend on the others."""
    photons = np.array([table["n"], table["m"]])
    # cos(a) and exp(i phi) sin(a), rounded as cmath.exp(1j * phi) * math.sin(a),
    # for the atom's preparation (xi, chi) and the control's (theta, varphi)
    angle, phi = np.array([(table["xi"], table["theta"]), (table["chi"], table["varphi"])])
    cos, polar = np.cos(angle), (np.cos(phi) + 1j * np.sin(phi)) * np.sin(angle)
    size, levels = photons.shape[1], _LOCAL.levels
    # each mode's photon number k sits at local level min(k, 2), above base k - level
    level = np.minimum(photons, 2)
    base = photons - level
    # The control-1 branch, cavity 1 first, is the control-0 branch of the
    # preparation with the two modes exchanged.  So both branches run as 2N
    # columns through cavity 0 and then cavity 1, and the modes of the last
    # N are exchanged back: two rotations per batch, not four.
    vec = np.zeros((_LOCAL.atom_field_dim, 2 * size), dtype=complex)
    # |e, n, m> and |g, n, m> of each column on the (atom, mode 0, mode 1,
    # column) view, the last N with the modes, and so the bases, exchanged
    view, columns = vec.reshape(2, levels, levels, 2 * size), np.arange(size)
    view[:, level[0], level[1], columns] = view[:, level[1], level[0], columns + size] = (
        cos[0], polar[0])
    # T1 >= T0 + T, so the second transit starts after the first has ended;
    # before, between and after the transits a rotation by 0 is the identity.
    # Both halves share each draw's times and coupling.
    schedule = [table[name] for name in ("t", "T0", "T1", "T", "g")]
    t, entry0, entry1, transit, g, base0, base1 = np.concatenate(
        ((*schedule, *base), (*schedule, *base[::-1])), axis=1)
    vec = _rotate(vec, 0, np.minimum(np.maximum(t - entry0, 0.0), transit), g, base0, _LOCAL)
    vec = _rotate(vec, 1, np.minimum(np.maximum(t - entry1, 0.0), transit), g, base1, _LOCAL)
    exchanged = vec[:, size:].reshape(2, levels, levels, size).swapaxes(1, 2)
    branches = np.empty((2, _LOCAL.atom_field_dim, size), dtype=complex)
    np.multiply(cos[1], vec[:, :size], out=branches[0])
    np.multiply(polar[1], exchanged, out=branches[1].reshape(exchanged.shape))
    del vec, exchanged  # the doubled batch is not needed for the guard check
    prune_amplitudes(branches)
    guard = _DISTANCE[:, :, level[0], level[1]] >= 2
    populated = branches.any(axis=0).reshape(2, levels, levels, size)
    if (populated & guard).any():
        population = (branches.real ** 2 + branches.imag ** 2).sum(axis=0).reshape(populated.shape)
        leak = (population * guard).sum(axis=(0, 1, 2))
        raise TruncationOverflowError(f"guard-row population {leak[leak > 0][0]:.3e}")
    # A stable sort puts each column's populated kets first, in AtomFieldKet
    # order, and then the rest.
    order = np.argsort(~populated.reshape(-1, size), axis=0, kind="stable")
    order = order[: populated.sum(axis=(0, 1, 2)).max()]
    atom, i, j = np.unravel_index(order, populated.shape[:3])
    return np.array((atom, base[0] + i, base[1] + j)), branches[:, order, columns]


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
    kets, branches = _evolve_branches(draw_table([(p, t)]))
    # one column: its K entries are the kets it populates
    rests = [_atom_field_ket(*ket) for ket in kets[:, :, 0].T.tolist()]
    return _full_state(rests, branches[:, :, 0])


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
    # fsum rounds the exact sum once, so the order of a column's kets and
    # its zeros cannot change the probability
    probs = [math.fsum(column) for column in population.tolist()]
    scale = np.array([1.0 / math.sqrt(q) if q >= MIN_OUTCOME_PROBABILITY else 0.0 for q in probs])
    return prune_amplitudes(row * scale), probs


def phase(amps: np.ndarray, omega, t, excitations: np.ndarray) -> np.ndarray:
    """(..., K, N) amplitudes times exp(-i*omega*t*(excitations - 1/2)), pruned:
    column c at frequency omega[c] and time t[c] on every leading index,
    excitations holding each entry's atom excitation plus photon number, an
    integer >= 0, as a (K, N) array or, one per row, a (K, 1) array.  A
    non-finite omega, t, omega * t or omega * t * (excitations - 1/2) raises
    ValueError, each column checked against its own excitations."""
    # each column's largest |excitations - 1/2|: omega * t * top rounds as the
    # largest entry of the column's argument, so it overflows exactly when one does
    top = np.maximum.reduce(excitations, axis=0, initial=1) - 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        omega_t = np.multiply(omega, t, dtype=float)
        argument = omega_t * top
    # a non-finite factor leaves each later product non-finite, so the last
    # is finite exactly when all four are
    if not np.isfinite(argument).all():
        checked = np.broadcast_arrays(np.asarray(omega, dtype=float), np.asarray(t, dtype=float),
                                      omega_t, argument)
        column, field = np.argwhere(~np.isfinite(checked).T)[0]  # the first column, then field
        name = ("omega", "t", "omega * t", "omega * t * (excitations - 1/2)")[field]
        raise ValueError(f"{name}: must be finite, got {float(checked[field][column])}")
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
    """phase, for finite reals omega and t, on an atom-field state;
    norm-preserving."""
    omega, t = check_real(omega, "omega"), check_real(t, "t")
    check_state(s, (AtomFieldKet, None), "schrodinger_phase requires an atom-field state")
    # the arrays measure_control kept, or else the stored order (phase is elementwise);
    # a kept zero counts 0 excitations, so phase checks the nonzero kets alone
    kets, amps = s._arrays or (list(s._amps),
                               np.array(list(s._amps.values()), dtype=complex)[:, None])
    excitations = [1 - k.atom + k.n + k.m if a else 0 for k, a in zip(kets, amps[:, 0].tolist())]
    phased = phase(amps, (omega,), (t,), np.array(excitations)[:, None])
    return pruned_state(kets, phased[:, 0].tolist())
