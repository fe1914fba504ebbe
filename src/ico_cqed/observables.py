"""Measured quantities: ket probabilities, atom conditioning, reduced field
density matrices, linear entropy, and the atomic inversion.

The inversion, partial trace and linear entropy are written once, over
amplitude columns: run_sweep applies them to a grid, the PureState
functions here to one column."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import ico_postselected_state
from .errors import FlavorMismatchError, ImpossiblePostselectionError
from .states import (
    MIN_OUTCOME_PROBABILITY,
    AtomFieldKet,
    AtomLevel,
    FieldsKet,
    Ket,
    PureState,
    SystemParams,
    check_whole,
    column_sums,
    normalize_columns,
)

_E = AtomLevel.EXCITED
_G = AtomLevel.GROUND


@dataclass(frozen=True)
class FieldDensityMatrix:
    """Dense Hermitian density matrix of one cavity mode over a Fock window.

    ``offset`` is the Fock index of the first row/column.  Construction
    checks Hermiticity, unit trace, and positive semidefiniteness.
    """

    offset: int
    elements: np.ndarray

    def __post_init__(self) -> None:
        el = np.asarray(self.elements, dtype=complex)
        object.__setattr__(self, "elements", el)
        if el.ndim != 2 or el.shape[0] != el.shape[1]:
            raise ValueError(f"elements: must be a square matrix, got shape {el.shape}")
        check_whole(self.offset, "offset", 0)
        if float(np.max(np.abs(el - el.conj().T))) > 1e-12:
            raise ValueError("density matrix must be Hermitian to 1e-12")
        if abs(float(np.trace(el).real) - 1.0) > 1e-12:
            raise ValueError("density matrix must have unit trace to 1e-12")
        if float(np.linalg.eigvalsh(el).min()) < -1e-10:
            raise ValueError("density matrix must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.elements.shape[0]


def ket_probability(s: PureState, ket: Ket) -> float:
    """Born probability of one basis ket, |amplitude|^2."""
    if s.flavor is not None and type(ket) is not s.flavor:
        raise FlavorMismatchError(
            f"ket flavor {type(ket).__name__} does not match state flavor "
            f"{s.flavor.__name__}"
        )
    amp = s.amplitude(ket)
    return amp.real * amp.real + amp.imag * amp.imag


def condition_on_atom(s: PureState, a: AtomLevel) -> tuple[PureState, float]:
    """Project an atom-field state onto the given atom level.

    Returns the normalized two-mode field state and the Born probability of
    that outcome; the probabilities over both levels sum to one.
    """
    if not isinstance(a, AtomLevel):
        raise ValueError(f"atom level: must be an AtomLevel, got {a!r}")
    if s.flavor is not AtomFieldKet:
        raise FlavorMismatchError("condition_on_atom requires an atom-field state")
    items = s.items()
    # the other level's rows as zeros: an absent level has probability 0.0
    picked, prob = normalize_columns(np.array([[v if k.atom is a else 0j] for k, v in items]))
    if prob[0] < MIN_OUTCOME_PROBABILITY:
        raise ImpossiblePostselectionError(f"atom level {a.label}", float(prob[0]))
    picked = picked[:, 0].tolist()
    fields = {FieldsKet(k.n, k.m): v for (k, _), v in zip(items, picked) if k.atom is a}
    return PureState(fields), float(prob[0])


def _column(s: PureState) -> tuple[list, np.ndarray]:
    """A state's sorted kets and its amplitudes as one (K, 1) column."""
    kets = s.kets()
    return kets, np.array([s.amplitude(k) for k in kets], dtype=complex).reshape(-1, 1)


def _first_mode_rho(kets: list, amps: np.ndarray) -> tuple[int, np.ndarray]:
    """Partial trace over the second mode of each column of ``amps``, whose
    row r is the amplitude on the Fock pair (kets[r].n, kets[r].m): the
    lowest first-mode level lo and rho[i, j, col] = sum_m a(lo+i, m)
    a*(lo+j, m) over the first-mode levels lo..hi."""
    lo = min(k.n for k in kets)
    ms = sorted({k.m for k in kets})
    psi = np.zeros((max(k.n for k in kets) - lo + 1, len(ms), amps.shape[1]), dtype=complex)
    for k, column in zip(kets, amps):
        psi[k.n - lo, ms.index(k.m)] = column
    return lo, np.sum(psi[:, None] * psi.conj()[None, :], axis=2)


def _linear_entropy(rho: np.ndarray) -> np.ndarray:
    """1 - Tr(rho^2) of each rho[:, :, col], clamped at 0, where rounding can
    push a pure state's purity an ulp above 1."""
    return np.maximum(1.0 - column_sums(np.abs(rho) ** 2), 0.0)


def inversion_columns(basis: tuple, amps: np.ndarray) -> np.ndarray:
    """Atomic inversion P(excited) - P(ground) of each column of ``amps``,
    whose rows are the kets of ``basis``."""
    sign = np.array([1.0 if k.atom is _E else -1.0 for k in basis])
    return column_sums(sign[:, None] * (amps.real**2 + amps.imag**2))


def branch_entropy_columns(
    basis: tuple, amps: np.ndarray, atom: AtomLevel
) -> tuple[np.ndarray, np.ndarray]:
    """First-mode linear entropy of the field left after finding the atom in
    ``atom``, for each normalized column of ``amps``, and the mask of columns
    where that outcome can be conditioned on (probability at least
    MIN_OUTCOME_PROBABILITY; the others give 0)."""
    rows = [i for i, k in enumerate(basis) if k.atom is atom]
    picked, prob = normalize_columns(amps[rows])
    _, rho = _first_mode_rho([basis[i] for i in rows], picked)
    return _linear_entropy(rho), prob >= MIN_OUTCOME_PROBABILITY


def reduced_cavity0(fields: PureState) -> FieldDensityMatrix:
    """Partial trace over the second mode of a normalized two-mode pure state.

    Works on any support; the window spans the occupied first-mode levels.
    """
    if fields.flavor is not FieldsKet:
        raise FlavorMismatchError("reduced_cavity0 requires a fields-only state")
    lo, rho = _first_mode_rho(*_column(fields))
    return FieldDensityMatrix(lo, rho[:, :, 0])


def linear_entropy(rho: FieldDensityMatrix) -> float:
    """1 - Tr(rho^2), clamped at 0: zero for pure states, 1 - 1/d for the
    maximally mixed state on d levels."""
    return float(_linear_entropy(rho.elements[:, :, None])[0])


def sigma_z_expectation(s: PureState) -> float:
    """Atomic inversion P(excited) - P(ground) read directly off an
    atom-field state; 0 for the empty state."""
    if s.flavor is not AtomFieldKet and s.flavor is not None:
        raise FlavorMismatchError("sigma_z_expectation requires an atom-field state")
    if len(s) == 0:
        return 0.0
    return float(inversion_columns(*_column(s))[0])


def sigma_z_series(p: SystemParams) -> float:
    """Closed-form atomic inversion after both cavities in the definite order
    (first cavity 0, then cavity 1) for an atom prepared excited (xi = 0)."""
    if p.xi != 0.0:
        raise ValueError("sigma_z_series requires xi = 0 (atom initially excited)")
    x = p.gT
    cos_sq_first = math.cos(x * math.sqrt(1 + p.n)) ** 2
    return (
        math.cos(2 * x * math.sqrt(1 + p.m)) * cos_sq_first
        - math.cos(2 * x * math.sqrt(p.m)) * (1.0 - cos_sq_first)
    )


def sigma_z_ico(p: SystemParams) -> float:
    """Atomic inversion of the control-0 conditional state, one point of the
    kernel, for an atom prepared excited (else ValueError) and the balanced
    control preparation (as ico_postselected_state requires); independent of
    the measurement time."""
    if p.xi != 0.0:
        raise ValueError("sigma_z_ico requires xi = 0 (atom initially excited)")
    return sigma_z_expectation(ico_postselected_state(0, p))
