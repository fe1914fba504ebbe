"""Sparse state vectors and shared domain types for the two-cavity system.

Three ket flavors are used throughout the package: ``AtomFieldKet`` holds
the atom level and the photon numbers of both modes, ``FullKet`` is a
control-qubit bit on an ``AtomFieldKet``, and ``FieldsKet`` keeps the two
Fock modes alone.  A ``PureState`` is an immutable sparse map from kets of
a single flavor to complex amplitudes.  Amplitudes with magnitude below
``PRUNE_EPSILON`` are dropped at construction, so terms that vanish
identically (sin(0) factors and the like) never clutter the support.

Scalar inputs are checked by ``check_whole`` (ints) and ``check_real`` (finite
reals); a refusal is a ValueError starting "<field>: ", as a ConfigError does.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import IntEnum
from numbers import Real
from operator import attrgetter
from typing import Mapping, Union

import numpy as np

from .errors import FlavorMismatchError

#: Amplitudes below this magnitude are dropped from states.  The value sits
#: at machine-epsilon scale, far below every assertion tolerance used here.
PRUNE_EPSILON = 1e-15

#: Conditioning on an outcome whose Born probability falls below this is
#: refused with ImpossiblePostselectionError: the conditional state is 0/0 at
#: an exact zero and renormalized rounding noise just above it.
MIN_OUTCOME_PROBABILITY = 1e-12


def prune_amplitudes(amps: np.ndarray) -> np.ndarray:
    """Array form of the PureState pruning rule: zero, in place, every
    amplitude below PRUNE_EPSILON in magnitude, and return the array."""
    amps[np.abs(amps) < PRUNE_EPSILON] = 0.0
    return amps


def column_sums(x: np.ndarray) -> np.ndarray:
    """Sum over every axis but the last, slice after slice, so that a column's
    sum does not depend on the other columns (np.sum adds a lone one pairwise)."""
    return functools.reduce(np.add, x.reshape(-1, x.shape[-1]))


def normalize_columns(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Array form of conditioning on an outcome, one column per grid point.

    Returns the columns scaled to unit norm and pruned, and each column's
    Born probability.  A column whose probability is below
    MIN_OUTCOME_PROBABILITY is refused and comes back as zeros.
    """
    prob = column_sums(amps.real**2 + amps.imag**2)
    possible = prob >= MIN_OUTCOME_PROBABILITY
    scale = np.divide(1.0, np.sqrt(prob), out=np.zeros_like(prob), where=possible)
    return prune_amplitudes(amps * scale), prob


class AtomLevel(IntEnum):
    """Internal level of the two-level atom; excited sorts before ground."""

    EXCITED = 0
    GROUND = 1

    @property
    def label(self) -> str:
        return "e" if self is AtomLevel.EXCITED else "g"

    @property
    def excitation(self) -> int:
        """1 for the excited level, 0 for the ground level."""
        return 1 if self is AtomLevel.EXCITED else 0

    @classmethod
    def from_label(cls, label: str) -> "AtomLevel":
        if label == "e":
            return cls.EXCITED
        if label == "g":
            return cls.GROUND
        raise ValueError(f"unknown atom level {label!r}, expected 'e' or 'g'")


#: Photon numbers must lie below this: from 2**53 on, n and n + 1 round to
#: one float, and sqrt(n + 1) would silently equal sqrt(n).
PHOTON_LIMIT = 2**53


def _shown(value) -> str:
    """A number for a message: an int of over 64 bits by its size alone."""
    huge = isinstance(value, int) and value.bit_length() > 64
    return f"a {value.bit_length()}-bit integer" if huge else str(value)


def check_whole(value, name: str, least: int, below: int | None = None) -> None:
    """Refuse a value that is not an int (a bool is not one), or that lies
    outside least <= value < below; no upper bound for below None."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"{name}: must be an integer, got {value!r}")
    if value < least or below is not None and value >= below:
        bound = f"be >= {least}" if below is None else f"lie in {least}..{below - 1}"
        raise ValueError(f"{name}: must {bound}, got {_shown(value)}")


def check_real(value, name: str, low=-math.inf, high=math.inf, ends: str = "[)") -> float:
    """A finite real (an int or float, not a bool) as a float; refused outside the
    interval from low to high, whose ends "[" and "]" include and "(" and ")" exclude."""
    number = value
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValueError(f"{name}: must be a real number, got {value!r}")
        # an int compares exactly, also beyond the largest float
        number = float(value) if abs(value) <= sys.float_info.max else math.inf
    if low < number < high:  # NaN and the infinities fail it
        return number
    if not math.isfinite(number):
        raise ValueError(f"{name}: must be finite, got {_shown(value)}")
    if not (number == low and ends[0] == "[" or number == high and ends[1] == "]"):
        interval = f"{ends[0]}{low:.6g}, {high:.6g}{ends[1]}"
        raise ValueError(f"{name}: must lie in {interval}, got {_shown(value)}")
    return number


def check_outcome(j: int) -> None:
    """A control outcome is the int 0 or 1; bools and floats are refused."""
    if isinstance(j, bool) or not isinstance(j, int) or j not in (0, 1):
        raise ValueError(f"control outcome: must be 0 or 1, got {j!r}")


@dataclass(frozen=True, order=True)
class FieldsKet:
    """Fock occupation of the two cavity modes alone."""

    n: int
    m: int

    def __post_init__(self) -> None:
        check_whole(self.n, "n", 0, PHOTON_LIMIT)
        check_whole(self.m, "m", 0, PHOTON_LIMIT)


@dataclass(frozen=True, order=True)
class AtomFieldKet:
    """Product basis ket: atom level and the photon numbers of both modes."""

    atom: AtomLevel
    n: int
    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.atom, AtomLevel):
            raise ValueError(f"atom: must be an AtomLevel, got {self.atom!r}")
        check_whole(self.n, "n", 0, PHOTON_LIMIT)
        check_whole(self.m, "m", 0, PHOTON_LIMIT)

    @property
    def excitations(self) -> int:
        """Atom excitation plus total photon number; conserved by the dynamics."""
        return self.atom.excitation + self.n + self.m


@dataclass(frozen=True, order=True)
class FullKet:
    """Control-qubit bit together with the atom-field ket it rides on; the
    atom level and photon numbers are read through ``rest``."""

    control: int
    rest: AtomFieldKet

    def __post_init__(self) -> None:
        check_outcome(self.control)
        if not isinstance(self.rest, AtomFieldKet):
            raise ValueError("rest: must be an AtomFieldKet")


Ket = Union[FullKet, AtomFieldKet, FieldsKet]

# Each flavor's dataclass order as a sort key, cheaper than its __lt__.
_SORT_KEY = {
    FullKet: attrgetter("control", "rest.atom", "rest.n", "rest.m"),
    AtomFieldKet: attrgetter("atom", "n", "m"),
    FieldsKet: attrgetter("n", "m"),
}


class PureState:
    """Immutable sparse map from kets of one flavor to complex amplitudes."""

    __slots__ = ("_amps", "_flavor")

    def __init__(self, amplitudes: Mapping[Ket, complex] | None = None):
        amps: dict[Ket, complex] = {}
        flavor: type | None = None
        for ket, raw in (amplitudes or {}).items():
            if not isinstance(ket, (FullKet, AtomFieldKet, FieldsKet)):
                raise TypeError(f"not a ket: {ket!r}")
            if flavor is None:
                flavor = type(ket)
            elif type(ket) is not flavor:
                raise FlavorMismatchError(
                    f"mixed ket flavors {flavor.__name__} and {type(ket).__name__}"
                )
            amp = complex(raw)
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValueError(f"non-finite amplitude {amp!r} on {ket!r}")
            if abs(amp) < PRUNE_EPSILON:
                continue
            amps[ket] = amp
        self._amps = amps
        self._flavor = flavor if amps else None

    @property
    def flavor(self) -> type | None:
        """Ket class of this state, or None for the empty state."""
        return self._flavor

    def amplitude(self, ket: Ket) -> complex:
        return self._amps.get(ket, 0j)

    def kets(self) -> list:
        return sorted(self._amps, key=_SORT_KEY.get(self._flavor))

    def items(self) -> list:
        """(ket, amplitude) pairs in the deterministic ket order."""
        # sorting the pairs spares hashing every ket again to look it up
        key = _SORT_KEY.get(self._flavor)
        return sorted(self._amps.items(), key=lambda pair: key(pair[0]))

    def __len__(self) -> int:
        return len(self._amps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PureState):
            return NotImplemented
        return self._amps == other._amps

    def __repr__(self) -> str:
        name = self._flavor.__name__ if self._flavor else "empty"
        return f"PureState({len(self._amps)} kets, {name})"

    def squared_norm(self) -> float:
        return math.fsum(a.real * a.real + a.imag * a.imag for a in self._amps.values())

    def norm(self) -> float:
        return math.sqrt(self.squared_norm())

    def is_normalized(self, atol: float = 1e-12) -> bool:
        return abs(self.squared_norm() - 1.0) <= atol

    def normalized(self) -> "PureState":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return PureState({k: a / nrm for k, a in self._amps.items()})


def check_preparation(p) -> dict[str, float]:
    """Checks shared by SystemParams and SweepConfig: the preparation angles
    theta, varphi, xi and chi, returned as floats, and the photon numbers n, m."""
    angles = {
        "theta": check_real(p.theta, "theta", 0.0, math.pi / 2, "[]"),
        "varphi": check_real(p.varphi, "varphi", 0.0, 2 * math.pi),
        "xi": check_real(p.xi, "xi", 0.0, math.pi / 2, "[]"),
        "chi": check_real(p.chi, "chi", 0.0, 2 * math.pi),
    }
    check_whole(p.n, "n", 0, PHOTON_LIMIT)
    check_whole(p.m, "m", 0, PHOTON_LIMIT)
    return angles


@dataclass(frozen=True)
class SystemParams:
    """All physical inputs for one run.

    g is the atom-field coupling (rad per unit time, positive), T the transit
    time per cavity, omega the common mode and atom frequency (it only enters
    through phases).  theta and varphi prepare the control qubit, xi and chi
    the atom; n and m are the initial photon numbers of the first and second
    cavity.  T0 is the entry time into the first cavity and T1 into the
    second; they default to back-to-back transits (T0 = 0, T1 = T0 + T).
    """

    g: float
    T: float
    omega: float = 1.0
    theta: float = 0.0
    varphi: float = 0.0
    xi: float = 0.0
    chi: float = 0.0
    n: int = 0
    m: int = 0
    T0: float = 0.0
    T1: float | None = None

    def __post_init__(self) -> None:
        g = check_real(self.g, "g", 0.0, ends="()")
        T = check_real(self.T, "T", 0.0)
        if not math.isfinite(g * T):
            raise ValueError(f"g*T: must be finite, got g={g}, T={T}")
        omega = check_real(self.omega, "omega", 0.0, ends="()")
        angles = check_preparation(self)
        T0 = check_real(self.T0, "T0", 0.0)
        T1 = T0 + T if self.T1 is None else check_real(self.T1, "T1")
        if T1 < T0 + T:
            raise ValueError(f"T1: must be >= T0 + T, got T0={T0}, T={T}, T1={T1}")
        # stored as floats, since an int of 2**64 or more would reach numpy as
        # an object; object.__setattr__ is slow, so only when a field is not a
        # float yet (vars(self) would slow every later attribute read)
        given = {type(self.g), type(self.T), type(self.omega), type(self.theta),
                 type(self.varphi), type(self.xi), type(self.chi), type(self.T0), type(self.T1)}
        if given != {float}:
            for name, value in dict(angles, g=g, T=T, omega=omega, T0=T0, T1=T1).items():
                object.__setattr__(self, name, value)

    @property
    def gT(self) -> float:
        return self.g * self.T
