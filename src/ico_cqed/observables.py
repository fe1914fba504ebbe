"""Measured quantities: ket probabilities, atom conditioning, reduced field
density matrices, linear entropy, and the atomic inversion."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import coeffs_c, coeffs_s, control_probability
from .errors import FlavorMismatchError, ImpossiblePostselectionError
from .states import (
    MIN_OUTCOME_PROBABILITY,
    AtomFieldKet,
    AtomLevel,
    FieldsKet,
    FullKet,
    Ket,
    PureState,
    SystemParams,
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
            raise ValueError(f"elements must be a square matrix, got shape {el.shape}")
        if self.offset < 0:
            raise ValueError(f"offset must be >= 0, got {self.offset}")
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
    if s.flavor is not AtomFieldKet:
        raise FlavorMismatchError("condition_on_atom requires an atom-field state")
    picked = {FieldsKet(k.n, k.m): amp for k, amp in s.items() if k.atom is a}
    prob = math.fsum(v.real * v.real + v.imag * v.imag for v in picked.values())
    if prob < MIN_OUTCOME_PROBABILITY:
        raise ImpossiblePostselectionError(f"atom level {a.label}", prob)
    scale = 1.0 / math.sqrt(prob)
    return PureState({k: v * scale for k, v in picked.items()}), prob


def reduced_cavity0(fields: PureState) -> FieldDensityMatrix:
    """Partial trace over the second mode of a normalized two-mode pure state.

    Works on any support; the window spans the occupied first-mode levels.
    """
    if fields.flavor is not FieldsKet:
        raise FlavorMismatchError("reduced_cavity0 requires a fields-only state")
    if len(fields) == 0:
        raise ValueError("cannot reduce the empty state")
    ns = sorted({k.n for k in fields.kets()})
    lo = ns[0]
    size = ns[-1] - lo + 1
    rho = np.zeros((size, size), dtype=complex)
    columns: dict[int, dict[int, complex]] = {}
    for ket, amp in fields.items():
        columns.setdefault(ket.m, {})[ket.n] = amp
    for col in columns.values():
        for n_i, a_i in col.items():
            for n_j, a_j in col.items():
                rho[n_i - lo, n_j - lo] += a_i * a_j.conjugate()
    return FieldDensityMatrix(lo, rho)


def linear_entropy(rho: FieldDensityMatrix) -> float:
    """1 - Tr(rho^2): zero for pure states, 1 - 1/d for the maximally mixed
    state on d levels.  Clamped at 0, where rounding can push a pure state's
    purity an ulp above 1."""
    purity = float(np.sum(np.abs(rho.elements) ** 2))
    return max(1.0 - purity, 0.0)


def sigma_z_expectation(s: PureState) -> float:
    """Atomic inversion P(excited) - P(ground) read directly off a state."""
    if s.flavor not in (AtomFieldKet, FullKet, None):
        raise FlavorMismatchError("sigma_z_expectation needs kets with an atom level")
    return math.fsum(
        (1.0 if ket.atom is _E else -1.0) * (amp.real * amp.real + amp.imag * amp.imag)
        for ket, amp in s.items()
    )


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
    """Closed-form atomic inversion of the control-0 conditional state for an
    atom prepared excited and the balanced control preparation.

    The value does not depend on the measurement time: the interior phases
    drop out of every modulus.
    """
    if p.xi != 0.0:
        raise ValueError("sigma_z_ico requires xi = 0 (atom initially excited)")
    n0_sq = control_probability(0, p)
    if n0_sq < MIN_OUTCOME_PROBABILITY:
        raise ImpossiblePostselectionError("control outcome 0", n0_sq)
    c1, _, c3, _, _, c6, _, c8 = coeffs_c(p, p.T).as_tuple()
    s1, _, s3, _, _, s6, _, s8 = coeffs_s(p, p.T).as_tuple()

    def sq(z: complex) -> float:
        z = complex(z)
        return z.real * z.real + z.imag * z.imag

    numerator = sq(c1 + s1) + sq(c6) + sq(s6) - sq(c3 + s8) - sq(c8 + s3)
    return numerator / (4.0 * n0_sq)
