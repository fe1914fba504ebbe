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
``check_state`` refuses a non-state or a wrong flavor with FlavorMismatchError,
and ``check_params`` a non-SystemParams with TypeError.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import IntEnum
from numbers import Real
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
    if isinstance(value, bool) or not isinstance(value, int):
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


def check_state(s, flavors: tuple, message: str) -> None:
    """Refuse all but a PureState whose flavor (None if empty) is in ``flavors``."""
    if not isinstance(s, PureState) or s.flavor not in flavors:
        raise FlavorMismatchError(f"{message}, got {s!r:.80}")


def check_params(p) -> None:
    """Refuse all but a SystemParams with TypeError, before any field is read."""
    if not isinstance(p, SystemParams):
        raise TypeError(f"p: must be a SystemParams, got {p!r}")


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
        object.__setattr__(self, "_hash", hash((self.atom, self.n, self.m)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, order=True)
class FullKet:
    """Control-qubit bit together with the atom-field ket it rides on; the
    atom level and photon numbers are read through ``rest``."""

    control: int
    rest: AtomFieldKet

    def __post_init__(self) -> None:
        check_outcome(self.control)
        if not isinstance(self.rest, AtomFieldKet):
            raise ValueError(f"rest: must be an AtomFieldKet, got {self.rest!r}")
        object.__setattr__(self, "_hash", hash((self.control, self.rest)))

    def __hash__(self) -> int:
        return self._hash


Ket = Union[FullKet, AtomFieldKet, FieldsKet]


class PureState:
    """Immutable sparse map from kets of one flavor to complex amplitudes; _arrays
    is None or the arrays an oracle view built it from, which the next one reads."""

    __slots__ = ("_amps", "_flavor", "_arrays")

    def __init__(self, amplitudes: Mapping[Ket, complex] | None = None):
        amps: dict[Ket, complex] = {}
        flavor: type | None = None
        for ket, raw in (amplitudes or {}).items():
            if type(ket) is not flavor:
                if not isinstance(ket, (FullKet, AtomFieldKet, FieldsKet)):
                    raise TypeError(f"not a ket: {ket!r}")
                if flavor is not None:
                    raise FlavorMismatchError(
                        f"mixed ket flavors {flavor.__name__} and {type(ket).__name__}"
                    )
                flavor = type(ket)
            if isinstance(raw, (str, bytes, bool, np.bool_)):  # complex() would take them
                raise TypeError(f"amplitude {raw!r} on {ket!r}: must be a number")
            # complex raises OverflowError for an int beyond float range, and abs rather
            # than round a finite amplitude up to inf; abs is inf or NaN exactly when a
            # part is, and NaN is never pruned
            try:
                amp = complex(raw)
                size = abs(amp)
            except OverflowError:
                raise ValueError(f"amplitude {_shown(raw)} on {ket!r}: its magnitude overflows "
                                 "a float") from None
            if size < PRUNE_EPSILON:
                continue
            if not size < math.inf:
                raise ValueError(f"non-finite amplitude {amp!r} on {ket!r}")
            amps[ket] = amp
        self._amps = amps
        self._flavor = flavor if amps else None
        self._arrays = None
        try:  # fsum raises OverflowError when a partial sum of finite squares overflows
            finite = self.norm() < math.inf
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("amplitudes: their squared norm overflows a float")

    @property
    def flavor(self) -> type | None:
        """Ket class of this state, or None for the empty state."""
        return self._flavor

    def amplitude(self, ket: Ket) -> complex:
        return self._amps.get(ket, 0j)

    def kets(self) -> list:
        return sorted(self._amps)

    def items(self) -> list:
        """(ket, amplitude) pairs in the deterministic ket order."""
        return sorted(self._amps.items())  # the kets differ, so no amplitude is compared

    def __len__(self) -> int:
        return len(self._amps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PureState):
            return NotImplemented
        return self._amps == other._amps

    def __repr__(self) -> str:
        name = self._flavor.__name__ if self._flavor else "empty"
        return f"PureState({len(self._amps)} kets, {name})"

    def norm(self) -> float:
        return math.sqrt(math.fsum(a.real * a.real + a.imag * a.imag for a in self._amps.values()))


def pruned_state(kets: list, amps: list, arrays: tuple | None = None) -> PureState:
    """PureState(dict(zip(kets, amps))) for distinct kets of one flavor and pruned amplitudes, in
    one check: if the magnitudes' sum, whose square bounds the squared norm, is below 2**511, the
    nonzero ones are stored as given and a nonempty state keeps arrays; else PureState decides."""
    try:
        if sum(map(abs, amps)) < 2.0**511:  # NaN fails it too
            state = object.__new__(PureState)
            state._amps = {ket: amp for ket, amp in zip(kets, amps) if amp}
            state._flavor, state._arrays = (type(kets[0]), arrays) if state._amps else (None, None)
            return state
    except OverflowError:  # a magnitude overflows a float
        pass
    return PureState(dict(zip(kets, amps)))


def check_preparation(p) -> dict[str, float]:
    """Checks shared by SystemParams and SweepConfig: the preparation angles
    theta, varphi, xi and chi, returned as floats, and the photon numbers n, m."""
    angles = {
        "theta": check_real(p.theta, "theta", 0.0, math.pi / 2, "[]"),
        "varphi": check_real(p.varphi, "varphi", 0.0, 2 * math.pi),
        "xi": check_real(p.xi, "xi", 0.0, math.pi / 2, "[]"),
        "chi": check_real(p.chi, "chi", 0.0, 2 * math.pi),
    }
    # the dynamics reach kets at n + 1 and m + 1, which must lie below PHOTON_LIMIT
    check_whole(p.n, "n", 0, PHOTON_LIMIT - 1)
    check_whole(p.m, "m", 0, PHOTON_LIMIT - 1)
    return angles


def largest_angle(g: float, t: float, n: int, m: int) -> float:
    """The largest rotation angle either evaluator forms at coupling g, time t
    in each cavity and photon numbers n and m, as evolve rounds it: its local
    window's top doublet, g*sqrt(max(n, m, 2) + 2)*t.  It bounds every
    closed-form angle g*sqrt(k + 1)*t; SystemParams and SweepConfig refuse
    an input on which it overflows."""
    return g * math.sqrt(max(n, m, 2) + 2) * t


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
        omega = check_real(self.omega, "omega", 0.0, ends="()")
        angles = check_preparation(self)
        if not math.isfinite(largest_angle(g, T, self.n, self.m)):
            raise ValueError(f"g*T: must be finite, as must g*sqrt(max(n, m, 2) + 2)*T, "
                             f"got g={g}, T={T}, n={self.n}, m={self.m}")
        T0 = check_real(self.T0, "T0", 0.0)
        # the default T0 + T is checked too: it overflows at T0 near the largest float
        T1 = check_real(T0 + T if self.T1 is None else self.T1, "T1")
        if T1 < T0 + T:
            raise ValueError(f"T1: must be >= T0 + T, got T0={T0}, T={T}, T1={T1}")
        # stored as floats, since an int of 2**64 or more would reach numpy as an object
        for name, value in dict(angles, g=g, T=T, omega=omega, T0=T0, T1=T1).items():
            object.__setattr__(self, name, value)

    @property
    def gT(self) -> float:
        return self.g * self.T
