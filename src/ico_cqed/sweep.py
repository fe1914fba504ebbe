"""Parameter sweeps over the interaction time, packaged figure-style presets,
and deterministic CSV output.

A sweep fixes everything except g*T and walks a uniform grid.  Conditional
quantities at grid points where the conditioning outcome is impossible are
emitted as empty cells, never as zeros: the underlying expressions are 0/0
there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from ._version import __version__
from .engine import grid_amplitudes, reachable_kets
from .errors import ConfigError
from .observables import branch_entropy_columns, inversion_columns
from .states import (
    MIN_OUTCOME_PROBABILITY,
    PHOTON_LIMIT,
    AtomFieldKet,
    AtomLevel,
    check_preparation,
    check_real,
    check_whole,
)

_E = AtomLevel.EXCITED
_G = AtomLevel.GROUND

SCENARIOS = ("series_C0C1", "series_C1C0", "ico_j0", "ico_j1")

#: Largest grid a sweep may ask for.  The default grid has 1,001 points; a
#: million keeps one sweep's table and CSV to a few hundred MB.
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class KetProbability:
    """Column: probability of one atom-field basis ket."""

    atom: AtomLevel
    n: int
    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.atom, AtomLevel):
            raise ConfigError(f"atom: must be an AtomLevel, got {self.atom!r}")
        check_whole(self.n, "n", 0, PHOTON_LIMIT)
        check_whole(self.m, "m", 0, PHOTON_LIMIT)

    @property
    def column_id(self) -> str:
        return f"P({self.atom.label},{self.n},{self.m})"

    def to_dict(self) -> dict:
        return {"kind": "ket_prob", "atom": self.atom.label, "n": self.n, "m": self.m}


@dataclass(frozen=True)
class BranchEntropy:
    """Column: first-mode linear entropy after conditioning on the atom level."""

    atom_branch: AtomLevel

    def __post_init__(self) -> None:
        if not isinstance(self.atom_branch, AtomLevel):
            raise ConfigError(f"atom_branch: must be an AtomLevel, got {self.atom_branch!r}")

    @property
    def column_id(self) -> str:
        return f"S_L({self.atom_branch.label})"

    def to_dict(self) -> dict:
        return {"kind": "entropy", "atom_branch": self.atom_branch.label}


@dataclass(frozen=True)
class AtomicInversion:
    """Column: direct expectation of the atomic inversion."""

    @property
    def column_id(self) -> str:
        return "sigma_z"

    def to_dict(self) -> dict:
        return {"kind": "sigma_z"}


@dataclass(frozen=True)
class ControlProbabilityColumn:
    """Column: probability of the scenario's control outcome (ico only)."""

    @property
    def column_id(self) -> str:
        return "control_prob"

    def to_dict(self) -> dict:
        return {"kind": "control_prob"}


Quantity = Union[KetProbability, BranchEntropy, AtomicInversion, ControlProbabilityColumn]


def _quantity_from_dict(obj: object, index: int) -> Quantity:
    where = f"quantities[{index}]"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object with a 'kind' field")
    kind = obj.get("kind")
    if kind == "ket_prob":
        try:
            return KetProbability(AtomLevel.from_label(obj["atom"]), obj["n"], obj["m"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{where}: ket_prob needs atom ('e'|'g'), n, m ({exc})")
    if kind == "entropy":
        try:
            return BranchEntropy(AtomLevel.from_label(obj["atom_branch"]))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{where}: entropy needs atom_branch ('e'|'g') ({exc})")
    if kind == "sigma_z":
        return AtomicInversion()
    if kind == "control_prob":
        return ControlProbabilityColumn()
    raise ConfigError(f"{where}.kind: unknown quantity kind {kind!r}")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a scenario, the columns to compute, and the g*T grid."""

    scenario: str
    quantities: tuple[Quantity, ...]
    n: int = 0
    m: int = 0
    xi: float = 0.0
    chi: float = 0.0
    theta: float = math.pi / 4
    varphi: float = 0.0
    gT_start: float = 0.0
    gT_stop: float = 10.0
    gT_step: float = 0.01
    omega_t: float = 0.0

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"scenario: must be one of {', '.join(SCENARIOS)}, got {self.scenario!r}"
            )
        if not isinstance(self.quantities, (tuple, list)) or not self.quantities:
            raise ConfigError("quantities: must be a non-empty tuple or list")
        object.__setattr__(self, "quantities", tuple(self.quantities))
        for i, q in enumerate(self.quantities):
            if not isinstance(q, Quantity):
                raise ConfigError(f"quantities[{i}]: must be a Quantity column, got {q!r}")
            if isinstance(q, ControlProbabilityColumn) and self.scenario.startswith("series"):
                raise ConfigError(f"quantities[{i}]: control_prob needs an ico scenario")
        try:
            # stored as floats: a JSON 10 for gT_stop goes to the sidecar as 10.0
            reals = check_preparation(self)
            reals["gT_start"] = check_real(self.gT_start, "gT_start", 0.0)
            reals["gT_stop"] = check_real(self.gT_stop, "gT_stop")
            reals["gT_step"] = check_real(self.gT_step, "gT_step", 0.0, ends="()")
            reals["omega_t"] = check_real(self.omega_t, "omega_t")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for name, value in reals.items():
            object.__setattr__(self, name, value)
        if self.gT_start > self.gT_stop:
            raise ConfigError(
                f"gT_start: must be <= gT_stop, got {self.gT_start} > {self.gT_stop}"
            )
        if _whole_steps(self) >= MAX_GRID_POINTS:
            raise ConfigError(
                f"gT_step: {self.gT_step} over [{self.gT_start}, {self.gT_stop}] "
                f"gives more than MAX_GRID_POINTS = {MAX_GRID_POINTS} grid points"
            )

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["quantities"] = [q.to_dict() for q in self.quantities]
        return out


_CONFIG_FIELDS = {f.name for f in fields(SweepConfig)}


def config_from_dict(data: object) -> SweepConfig:
    """Build a SweepConfig from parsed JSON, naming any offending field; the
    values are SweepConfig's to check."""
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object")
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"config: unknown field {sorted(unknown)[0]!r}")
    if "scenario" not in data:
        raise ConfigError("scenario: required field is missing")
    raw_quantities = data.get("quantities")
    if not isinstance(raw_quantities, list):
        raise ConfigError("quantities: must be a non-empty list")
    quantities = tuple(_quantity_from_dict(q, i) for i, q in enumerate(raw_quantities))
    return SweepConfig(**{**data, "quantities": quantities})


def _whole_steps(cfg: SweepConfig) -> float:
    """Whole steps from gT_start to gT_stop, plus a relative slack so that a
    stop point landing on the grid up to rounding counts.  Kept a float so
    that a huge count compares instead of overflowing; the grid has
    int(_whole_steps(cfg)) + 1 points."""
    return (cfg.gT_stop - cfg.gT_start) / cfg.gT_step + 1e-9


def grid_points(cfg: SweepConfig) -> list[float]:
    """Uniform grid start, start+step, ...; the stop point is included when it
    lands on the grid to within a relative slack."""
    count = int(_whole_steps(cfg)) + 1
    return [cfg.gT_start + i * cfg.gT_step for i in range(count)]


@dataclass(frozen=True)
class Table:
    """Column names plus rows of floats; None marks an empty CSV cell."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join("" if v is None else repr(v) for v in row))
        return "\n".join(lines) + "\n"


def _cells(values: np.ndarray, possible: np.ndarray | None) -> list:
    """Plain Python floats, with None where the conditioning outcome is
    impossible."""
    if possible is None or possible.all():
        return values.tolist()
    return [v if ok else None for v, ok in zip(values.tolist(), possible.tolist())]


def run_sweep(cfg: SweepConfig) -> Table:
    """One row per grid point, one column per configured quantity; the output
    is deterministic for a fixed config.

    All grid points are evaluated together by engine.grid_amplitudes, at
    g = 1 and tau = T.  No column depends on the measurement phase, so it
    is not applied.
    """
    grid = grid_points(cfg)
    gT = np.array(grid)
    _, amps, control_prob = grid_amplitudes(
        cfg.scenario, cfg.n, cfg.m, g=1.0, t_first=gT, t_second=gT,
        xi=cfg.xi, chi=cfg.chi, theta=cfg.theta, varphi=cfg.varphi,
    )
    basis = reachable_kets(cfg.n, cfg.m)
    state_possible = None if control_prob is None else control_prob >= MIN_OUTCOME_PROBABILITY
    row = {ket: i for i, ket in enumerate(basis)}
    columns = [grid]
    for q in cfg.quantities:
        if isinstance(q, ControlProbabilityColumn):
            columns.append(control_prob.tolist())
            continue
        possible = state_possible
        if isinstance(q, KetProbability):
            i = row.get(AtomFieldKet(q.atom, q.n, q.m))
            values = np.zeros(len(grid)) if i is None else amps[i].real**2 + amps[i].imag**2
        elif isinstance(q, AtomicInversion):
            values = inversion_columns(basis, amps)
        else:
            # A refused control outcome left a zero column, so its atom
            # branches are refused as well.
            values, possible = branch_entropy_columns(basis, amps, q.atom_branch)
        columns.append(_cells(values, possible))
    return Table(("gT",) + tuple(q.column_id for q in cfg.quantities), tuple(zip(*columns)))


@dataclass(frozen=True)
class FigurePreset:
    """A named bundle of sweeps on a common grid.

    Presets comparing the definite-order and superposed-order scenarios hold
    two sweeps; their tables merge into one CSV with scenario-prefixed columns.
    """

    id: str
    sweeps: tuple[SweepConfig, ...]


def _series(n: int, m: int, *quantities: Quantity) -> SweepConfig:
    return SweepConfig("series_C0C1", tuple(quantities), n=n, m=m)


def _ico(n: int, m: int, *quantities: Quantity) -> SweepConfig:
    return SweepConfig("ico_j0", tuple(quantities), n=n, m=m)


def _pk(label: str, n: int, m: int) -> KetProbability:
    return KetProbability(AtomLevel.from_label(label), n, m)


# Default grid: g*T in [0, 10] at step 0.01, which oversamples the fastest
# oscillation present in any preset by more than fifty points per period.
# The photon-interchange column is omitted from the vacuum presets because
# its target ket does not exist at m = 0 (the probability is identically 0).
FIGURE_PRESETS: dict[str, FigurePreset] = {
    preset.id: preset
    for preset in (
        FigurePreset("fig2a", (_series(0, 0, _pk("e", 0, 0), _pk("g", 0, 1)),)),
        FigurePreset("fig2b", (_series(0, 0, _pk("g", 1, 0)),)),
        FigurePreset("fig2c", (_series(5, 5, _pk("e", 5, 5), _pk("g", 5, 6)),)),
        FigurePreset("fig2d", (_series(5, 5, _pk("g", 6, 5), _pk("e", 6, 4)),)),
        FigurePreset("fig2e", (_series(4, 5, _pk("e", 4, 5), _pk("g", 4, 6)),)),
        FigurePreset("fig2f", (_series(4, 5, _pk("g", 5, 5), _pk("e", 5, 4)),)),
        FigurePreset("fig3a", (_ico(0, 0, _pk("e", 0, 0)),)),
        FigurePreset("fig3b", (_ico(0, 0, _pk("g", 0, 1), _pk("g", 1, 0)),)),
        FigurePreset("fig4a", (_series(1, 1, BranchEntropy(_E)), _ico(1, 1, BranchEntropy(_E)))),
        FigurePreset("fig4b", (_series(0, 0, BranchEntropy(_G)), _ico(0, 0, BranchEntropy(_G)))),
        FigurePreset("fig5a", (_series(0, 0, AtomicInversion()), _ico(0, 0, AtomicInversion()))),
        FigurePreset("fig5b", (_series(1, 1, AtomicInversion()), _ico(1, 1, AtomicInversion()))),
        FigurePreset("fig5c", (_series(0, 1, AtomicInversion()), _ico(0, 1, AtomicInversion()))),
    )
}


def _preset(figure_id: str) -> FigurePreset:
    preset = FIGURE_PRESETS.get(figure_id)
    if preset is None:
        raise ConfigError(
            f"figure: unknown id {figure_id!r}; available: "
            f"{', '.join(sorted(FIGURE_PRESETS))}"
        )
    return preset


def figure_table(figure_id: str) -> Table:
    """Run the sweeps behind one preset and merge them on the shared grid."""
    preset = _preset(figure_id)
    tables = [run_sweep(cfg) for cfg in preset.sweeps]
    if len(tables) == 1:
        return tables[0]
    columns = ["gT"]
    for cfg, table in zip(preset.sweeps, tables):
        columns.extend(f"{cfg.scenario}:{cid}" for cid in table.columns[1:])
    rows = []
    for i in range(len(tables[0].rows)):
        row = [tables[0].rows[i][0]]
        for table in tables:
            row.extend(table.rows[i][1:])
        rows.append(tuple(row))
    return Table(tuple(columns), tuple(rows))


def sweep_meta(cfg: SweepConfig) -> dict:
    """Sidecar metadata for one sweep: the fully resolved config and the
    library version.  Kept out of the CSV so the data file stays byte-stable."""
    return {"config": cfg.to_dict(), "library_version": __version__}


def figure_meta(figure_id: str) -> dict:
    return {
        "figure": figure_id,
        "sweeps": [cfg.to_dict() for cfg in _preset(figure_id).sweeps],
        "library_version": __version__,
    }


def meta_json(meta: dict) -> str:
    return json.dumps(meta, indent=2, sort_keys=True) + "\n"
