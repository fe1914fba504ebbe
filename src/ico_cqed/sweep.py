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
from typing import Union, get_args, get_type_hints

import numpy as np

from ._version import __version__
from .engine import grid_amplitudes, reachable_kets
from .errors import ConfigError
from .observables import branch_entropy_columns, inversion_columns
from .states import (
    MIN_OUTCOME_PROBABILITY,
    AtomFieldKet,
    AtomLevel,
    check_preparation,
    check_real,
)

_E = AtomLevel.EXCITED
_G = AtomLevel.GROUND

SCENARIOS = ("series_C0C1", "series_C1C0", "ico_j0", "ico_j1")

#: Largest grid a sweep may ask for.  The default grid has 1,001 points;
#: run_sweep states what a grid of a million costs in memory.
MAX_GRID_POINTS = 1_000_000

#: Most quantity columns a sweep may ask for; each costs some 40 B a grid
#: point in run_sweep's peak.
MAX_QUANTITIES = 16


class _Column:
    """A quantity kind: ``kind`` names it in a config, whose entry for it
    holds "kind" and the kind's fields, an AtomLevel field by its label."""

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for name, level in _KINDS[self.kind][1].items():
            value = getattr(self, name)
            out[name] = value.label if level else value
        return out


@dataclass(frozen=True)
class KetProbability(_Column):
    """Column: probability of one atom-field basis ket."""

    kind = "ket_prob"
    atom: AtomLevel
    n: int
    m: int

    def __post_init__(self) -> None:
        try:
            AtomFieldKet(self.atom, self.n, self.m)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def column_id(self) -> str:
        return f"P({self.atom.label},{self.n},{self.m})"


@dataclass(frozen=True)
class BranchEntropy(_Column):
    """Column: first-mode linear entropy after conditioning on the atom level."""

    kind = "entropy"
    atom_branch: AtomLevel

    def __post_init__(self) -> None:
        if not isinstance(self.atom_branch, AtomLevel):
            raise ConfigError(f"atom_branch: must be an AtomLevel, got {self.atom_branch!r}")

    @property
    def column_id(self) -> str:
        return f"S_L({self.atom_branch.label})"


@dataclass(frozen=True)
class AtomicInversion(_Column):
    """Column: direct expectation of the atomic inversion."""

    kind = column_id = "sigma_z"


@dataclass(frozen=True)
class ControlProbabilityColumn(_Column):
    """Column: probability of the scenario's control outcome (ico only)."""

    kind = column_id = "control_prob"


Quantity = Union[KetProbability, BranchEntropy, AtomicInversion, ControlProbabilityColumn]

#: Each quantity kind's class and its fields in order, each mapped to whether
#: it is an AtomLevel.
_KINDS = {
    cls.kind: (cls, {f.name: get_type_hints(cls)[f.name] is AtomLevel for f in fields(cls)})
    for cls in get_args(Quantity)
}


def _quantity_from_dict(obj: object, index: int) -> Quantity:
    where = f"quantities[{index}]"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object with a 'kind' field")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"{where}.kind: unknown quantity kind {kind!r}")
    cls, kind_fields = _KINDS[kind]
    unknown = obj.keys() - kind_fields.keys() - {"kind"}
    if unknown:
        raise ConfigError(f"{where}: unknown field {sorted(unknown)[0]!r}")
    try:
        return cls(*[AtomLevel.from_label(obj[name]) if level else obj[name]
                     for name, level in kind_fields.items()])
    except (KeyError, ValueError) as exc:
        needs = ", ".join(f"{k} ('e'|'g')" if level else k for k, level in kind_fields.items())
        raise ConfigError(f"{where}: {kind} needs {needs} ({exc})")


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
        _check_quantity_count(self.quantities)
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


def _check_quantity_count(quantities: tuple | list) -> None:
    if len(quantities) > MAX_QUANTITIES:
        raise ConfigError(f"quantities: must hold at most MAX_QUANTITIES = {MAX_QUANTITIES} "
                          f"columns, got {len(quantities)}")


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
    _check_quantity_count(raw_quantities)
    quantities = tuple(_quantity_from_dict(q, i) for i, q in enumerate(raw_quantities))
    return SweepConfig(**{**data, "quantities": quantities})


def _whole_steps(cfg: SweepConfig) -> float:
    """Whole steps from gT_start to gT_stop, plus a relative slack so that a
    stop point landing on the grid up to rounding counts.  Kept a float so
    that a huge count compares instead of overflowing; the grid has
    int(_whole_steps(cfg)) + 1 points."""
    return (cfg.gT_stop - cfg.gT_start) / cfg.gT_step + 1e-9


def _grid(cfg: SweepConfig) -> np.ndarray:
    """start + i * step, each product and sum rounded as Python rounds them."""
    return cfg.gT_start + np.arange(int(_whole_steps(cfg)) + 1) * cfg.gT_step


def grid_points(cfg: SweepConfig) -> list[float]:
    """Uniform grid start, start+step, ...; the stop point is included when it
    lands on the grid to within a relative slack."""
    return _grid(cfg).tolist()


@dataclass(frozen=True)
class Table:
    """Column names plus one tuple of cells per column, gT first; None marks
    an empty CSV cell."""

    columns: tuple[str, ...]
    cells: tuple[tuple, ...]

    @property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(zip(*self.cells))

    def to_csv(self) -> str:
        """Floats in shortest round-trip form, their repr, streamed row by
        row: each column is mapped lazily to its cell strings, "" for None,
        and each row joined as it is read, so no cell becomes a string
        before its row.

        The peak that tracemalloc traces above the table is about
        75 + 55 * C bytes a grid point for C quantity columns of
        22-character cells (measured at N = 20,001: 953 B at C = 16), and
        310 B a point for the six-column ico sweep of run_sweep's docstring.
        """
        cells = [map(repr if None not in col else _csv_cell, col) for col in self.cells]
        return "\n".join([",".join(self.columns), *map(",".join, zip(*cells))]) + "\n"


def _csv_cell(value) -> str:
    """A CSV cell: "" for None, else the value's repr."""
    return "" if value is None else repr(value)


def _cells(values: np.ndarray, possible: np.ndarray | None) -> tuple:
    """Plain Python floats, with None where the conditioning outcome is
    impossible."""
    if possible is None or possible.all():
        return tuple(values.tolist())
    return tuple(np.where(possible, values.astype(object), None).tolist())


def run_sweep(cfg: SweepConfig) -> Table:
    """One row per grid point, one column per configured quantity; the output
    is deterministic for a fixed config.

    All grid points are evaluated together by engine.grid_amplitudes, at
    g = 1 and tau = T.  No column depends on the measurement phase, so it
    is not applied.

    Memory grows with the N grid points: each kernel array is
    (len(OFFSETS), N) complex, 160 B a point, and the peak that tracemalloc
    traces is below 1,100 + 40 * C bytes a point for C quantities.  An ico
    sweep with the six column kinds peaks at 705 B a point (measured at
    N = 20,001 and 100,001; grid_amplitudes' own peak, 587 B a point, is
    the largest part), so at MAX_GRID_POINTS it peaks near 0.7 GB; sixteen
    columns peaked at 1,025 B a point, and the bound at both caps,
    MAX_GRID_POINTS and MAX_QUANTITIES, is about 1.74 GB.  The table it
    returns keeps 32 B a cell, and the table plus Table.to_csv's peak stays
    below this bound.
    """
    gT = _grid(cfg)
    amps, control_prob = grid_amplitudes(
        cfg.scenario, cfg.n, cfg.m, g=1.0, t_first=gT, t_second=gT,
        xi=cfg.xi, chi=cfg.chi, theta=cfg.theta, varphi=cfg.varphi,
    )
    rows, basis = reachable_kets(cfg.n, cfg.m)
    amps = amps[list(rows)]
    state_possible = None if control_prob is None else control_prob >= MIN_OUTCOME_PROBABILITY
    row = {ket: i for i, ket in enumerate(basis)}
    columns = [tuple(gT.tolist())]
    for q in cfg.quantities:
        if isinstance(q, ControlProbabilityColumn):
            columns.append(tuple(control_prob.tolist()))
            continue
        possible = state_possible
        if isinstance(q, KetProbability):
            i = row.get(AtomFieldKet(q.atom, q.n, q.m))
            values = np.zeros(len(gT)) if i is None else amps[i].real**2 + amps[i].imag**2
        elif isinstance(q, AtomicInversion):
            values = inversion_columns(basis, amps)
        else:
            # A refused control outcome left a zero column, so its atom
            # branches are refused as well.
            values, possible = branch_entropy_columns(basis, amps, q.atom_branch)
        columns.append(_cells(values, possible))
    return Table(("gT",) + tuple(q.column_id for q in cfg.quantities), tuple(columns))


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
    columns = ("gT",) + tuple(f"{cfg.scenario}:{cid}"
                              for cfg, table in zip(preset.sweeps, tables)
                              for cid in table.columns[1:])
    return Table(columns, tables[0].cells[:1] + tuple(c for t in tables for c in t.cells[1:]))


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
